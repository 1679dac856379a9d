"""The closed-form bound chain and its certified comparisons with 1/e.

Nothing here trusts floating point: e is held as a shrinking rational
enclosure, and every comparison against 1/e or the budget threshold is
decided only once the enclosure is tight enough to be conclusive.
"""

from fractions import Fraction

from secretary_lab import (
    alpha_value,
    beta_bounds,
    compare_to_inv_e,
    decimal_str,
    oracle_optimum,
    threshold_value,
    ub_display,
)

eps, s, k = Fraction(259, 10000), Fraction(19), 20

exact = oracle_optimum(eps, s, k)
display = ub_display(eps, s, k)
alpha = alpha_value(eps, s, k)

print(f"eps = {eps}, s = {s}, k = {k}")
print(f"  oracle optimum {decimal_str(exact, 10)}")
print(f"  display bound  {decimal_str(display, 10)}")
print(f"  alpha          {decimal_str(alpha, 10)}")
print(f"  chain strict:  {exact < display < alpha}")
print()

beta = beta_bounds()
print("budget beta = (3/2)(1/e - 1/3), enclosed to width 1e-12:")
print(f"  [{decimal_str(beta.lower, 14)}, {decimal_str(beta.upper, 14)}]")
print()

# Room left for 1/s + 1/(k-1) once eps of the budget is spent.
threshold = threshold_value(eps)
need = 1 / s + Fraction(1, k - 1)
print(f"threshold (beta - eps)/(1 - eps) ~ {decimal_str(threshold.lower, 10)}")
print(f"1/s + 1/(k-1) at (19, 20)        = {decimal_str(need, 10)}  (does not fit)")
print(f"alpha vs 1/e: {compare_to_inv_e(alpha).value}")
print()

fits = 1 / Fraction(76) + Fraction(1, 77)
print(f"1/s + 1/(k-1) at (76, 78)        = {decimal_str(fits, 10)}  (fits)")
print(f"alpha(76, 78) vs 1/e: {compare_to_inv_e(alpha_value(eps, Fraction(76), 78)).value}")
