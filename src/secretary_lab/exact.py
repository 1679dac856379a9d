"""Exact rational values, the text grammar for them, and certified
comparisons against the irrational constant e.

All quantities in the pipeline are `fractions.Fraction` instances; floats
appear only when a report asks for a decimal rendering.  Comparisons
against e (and 1/e) go through rational enclosures produced from the
series e = sum 1/i! together with a strict tail bound, refined on demand
until the comparison is decisive.  Values render at any size: the
int-to-str limit bounds only the integers ``parse_value`` reads.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from decimal import Decimal
from fractions import Fraction

from .errors import PrecisionExhaustedError

DEFAULT_DIGITS = 50  # seed precision (decimal digits) for enclosures
MAX_DIGITS = 10_000
# A power form s^e is refused before it is computed when |e| times the
# larger bit length of the base's numerator and denominator exceeds this.
MAX_POWER_BITS = 1 << 20


# ---------------------------------------------------------------------------
# Value grammar: "p/q" (reduced rational, q > 0), "p" (integer), or "s^e"
# (integer exponent resolved against a family-level rational base).
# ---------------------------------------------------------------------------

def parse_value(text: str, base: Fraction | None = None) -> Fraction:
    """Parse a value string into an exact rational.

    ``base`` supplies the family-level constant for the "s^e" form; a
    power form without a base, or one whose value would need more than
    MAX_POWER_BITS bits, is an error.
    """
    text = text.strip()
    if text.startswith("s^"):
        if base is None:
            raise ValueError(f"power form {_quoted(text)} needs a family base")
        if base == 0:
            raise ValueError(f"power form {_quoted(text)} needs a nonzero family base")
        exponent = _integer(text[2:], text)
        base = Fraction(base)
        size = max(base.numerator.bit_length(), base.denominator.bit_length())
        if abs(exponent) * size > MAX_POWER_BITS:
            raise ValueError(
                f"power form {_quoted(text)} would exceed {MAX_POWER_BITS} bits"
            )
        return base ** exponent
    if "/" in text:
        num_text, den_text = text.split("/", 1)
        denominator = _integer(den_text, text)
        if denominator == 0:
            raise ValueError(f"zero denominator in {_quoted(text)}")
        return Fraction(_integer(num_text, text), denominator)
    return Fraction(_integer(text, text))


def _integer(part: str, text: str) -> int:
    """``int(part)``; a bad part is an error that quotes the value, and a
    part with more digits than the interpreter's int-to-str limit is an
    error that names the limit."""
    try:
        return int(part)
    except ValueError:
        # 0, or no such function before Python 3.10.7: no limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        digits = sum(c.isdigit() for c in part)
        if limit and digits > limit:
            raise ValueError(
                f"{_quoted(text)} has an integer of {digits} digits, more than "
                f"the interpreter's int-to-str limit of {limit} (PYTHONINTMAXSTRDIGITS)"
            ) from None
        raise ValueError(f"not a value: {_quoted(text)} (use p, p/q or s^e)") from None


def _quoted(text: str, width: int = 24) -> str:
    """``repr(text)``, cut to its first ``width`` characters and its length
    when it is longer, so that an error about a long value stays short."""
    if len(text) <= width:
        return repr(text)
    return f"{text[:width]!r}... ({len(text)} characters)"


def as_fraction(x) -> Fraction:
    """``x`` itself when its type is exactly Fraction (``Fraction(x)``
    would copy it), else ``Fraction(x)``."""
    return x if type(x) is Fraction else Fraction(x)


def _int_str(n: int) -> str:
    # The digits of str(n), without the interpreter's int-to-str limit,
    # which guards only parsing; fractions already imports decimal.
    return str(Decimal(n))


def format_value(x: Fraction) -> str:
    """Render ``x`` in the grammar, at any size: "p" for integers, else "p/q"."""
    x = as_fraction(x)
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def format_value_with_base(x: Fraction, base: Fraction | None) -> str:
    """Render ``x`` as "s^e" when it is an exact power of ``base`` (e >= 1),
    otherwise fall back to the plain rational form."""
    x = Fraction(x)
    if base is not None and base > 1 and x > 0:
        exponent = _exact_log(x, Fraction(base))
        if exponent is not None and exponent >= 1:
            return f"s^{exponent}"
    return format_value(x)


def _exact_log(x: Fraction, base: Fraction) -> int | None:
    """Integer e with base**e == x exactly, or None."""
    # bit-length estimate keeps this exact without float overflow on huge powers
    log2_base = math.log2(base.numerator) - math.log2(base.denominator)
    if log2_base <= 0:
        return None
    approx = (x.numerator.bit_length() - x.denominator.bit_length()) / log2_base
    for exponent in range(int(approx) - 2, int(approx) + 3):
        if base ** exponent == x:
            return exponent
    return None


def decimal_str(x: Fraction, digits: int = 12) -> str:
    """Fixed-point decimal rendering of an exact rational.

    Rounds half away from zero; the result always carries exactly
    ``digits`` fractional digits so renderings are byte-stable.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    x = Fraction(x)
    quotient, remainder = divmod(abs(x.numerator) * 10 ** digits, x.denominator)
    if 2 * remainder >= x.denominator:
        quotient += 1
    sign = "-" if x < 0 and quotient > 0 else ""
    text = _int_str(quotient).rjust(digits + 1, "0")
    return sign + (f"{text[:-digits]}.{text[-digits:]}" if digits else text)


def render_number(x: Fraction, digits: int) -> dict:
    """Report entry for an exact value: grammar string plus decimal."""
    return {"exact": format_value(x), "decimal": decimal_str(x, digits)}


def render_enclosure(enclosure: Enclosure | None, digits: int) -> dict | None:
    """Report entry for an enclosure (None stays None): both ends, the
    precision level and the decimal width."""
    if enclosure is None:
        return None
    return {
        "lower": render_number(enclosure.lower, digits),
        "upper": render_number(enclosure.upper, digits),
        "digits": enclosure.digits,
        "width_decimal": decimal_str(enclosure.width, digits),
    }


# ---------------------------------------------------------------------------
# Certified enclosures of e and 1/e.
# ---------------------------------------------------------------------------

class Comparison(enum.Enum):
    """Position of a rational relative to an enclosed irrational."""

    LESS = "less"
    GREATER = "greater"
    INDETERMINATE = "indeterminate"


# An end of an enclosure: a Fraction, or an integer pair (numerator,
# positive denominator) that need not be in lowest terms.
End = Fraction | tuple[int, int]


def _pair(end: End) -> tuple[int, int]:
    return end if type(end) is tuple else (end.numerator, end.denominator)


class Enclosure:
    """Open rational interval certified to contain one irrational constant.

    Each end is kept as an integer pair, as given.  ``lower`` and
    ``upper`` reduce it to a Fraction on first read, and ``compare``
    cross multiplies, so that deciding a value against ends of thousands
    of digits takes no gcd: only an enclosure whose ends are read, as a
    report's are, is reduced.  Two enclosures are equal when their
    reduced ends and ``digits`` are.  ``digits`` records the precision
    level the interval was built for and is the hint passed back to the
    producer when a comparison needs a tighter interval.
    """

    def __init__(self, lower: End, upper: End, digits: int) -> None:
        self.ends = (_pair(lower), _pair(upper))
        self.digits = digits
        (lower_numerator, lower_denominator), (upper_numerator, upper_denominator) = self.ends
        if not lower_numerator * upper_denominator < upper_numerator * lower_denominator:
            raise ValueError("enclosure requires lower < upper")

    @functools.cached_property
    def lower(self) -> Fraction:
        return Fraction(*self.ends[0])

    @functools.cached_property
    def upper(self) -> Fraction:
        return Fraction(*self.ends[1])

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def __eq__(self, other) -> bool:
        return isinstance(other, Enclosure) and (
            (self.lower, self.upper, self.digits) == (other.lower, other.upper, other.digits)
        )

    def __hash__(self) -> int:
        return hash((self.lower, self.upper, self.digits))

    def __repr__(self) -> str:
        return f"Enclosure(lower={self.lower!r}, upper={self.upper!r}, digits={self.digits!r})"

    def compare(self, x: Fraction) -> Comparison:
        """Decisive position of ``x`` versus the enclosed constant.

        The constant lies strictly inside the interval, so x <= lower
        already certifies x < constant (and symmetrically for upper).
        Each is decided on the ends' integer pairs, as Fraction compares.
        """
        x = Fraction(x)
        (lower_numerator, lower_denominator), (upper_numerator, upper_denominator) = self.ends
        if x.numerator * lower_denominator <= lower_numerator * x.denominator:
            return Comparison.LESS
        if x.numerator * upper_denominator >= upper_numerator * x.denominator:
            return Comparison.GREATER
        return Comparison.INDETERMINATE


@functools.lru_cache(maxsize=None)
def _e_series_state(digits: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The ends of an enclosure of e narrower than 10**-digits, as integer
    pairs not in lowest terms: the partial sum of sum 1/i! to the first m
    whose strict tail bound is below 10**-digits, and the partial sum plus
    that bound.

    Uses sum_{i>m} 1/i! < (m+2) / ((m+1)! * (m+1)), strict for all m >= 1.
    A float estimate of log m! guesses m; the exact test on
    ``math.factorial`` then moves it to the first m, and the partial sum
    is m! + P over m!, P / m! = sum_{1<=i<=m} 1/i! by binary splitting;
    with the bound it is ((m! + P) (m+1)^2 + m + 2) over m! (m+1)^2.
    """
    scale = 10 ** digits

    def short(m: int, factorial_m: int) -> bool:
        # the bound at m is not yet below 10**-digits
        return (m + 2) * scale >= factorial_m * (m + 1) * (m + 1)

    log_scale = digits * math.log(10)
    m, high = 1, digits + 3
    while m < high:
        middle = (m + high) // 2
        if math.lgamma(middle + 1) + math.log((middle + 1) ** 2 / (middle + 2)) > log_scale:
            high = middle
        else:
            m = middle + 1
    factorial_m = math.factorial(m)
    while m > 1 and not short(m - 1, factorial_m // m):
        factorial_m //= m
        m -= 1
    while short(m, factorial_m):
        m += 1
        factorial_m *= m
    partial = factorial_m + _e_split(0, m)[0]
    square = (m + 1) * (m + 1)
    return (partial, factorial_m), (partial * square + m + 2, factorial_m * square)


def _e_split(a: int, b: int) -> tuple[int, int]:
    """(P, Q) with Q = (a+1)(a+2)...b and P / Q = sum_{a<i<=b} a!/i!, by
    binary splitting: halves at c give P = P_left * Q_right + P_right and
    Q = Q_left * Q_right.  A range of at most 32 terms is summed by Horner's
    rule, from i = b down, on integers of a few hundred bits."""
    if b - a <= 32:
        p, q = 0, 1
        for i in range(b, a, -1):
            p, q = p + q, q * i
        return p, q
    c = (a + b) // 2
    left, left_q = _e_split(a, c)
    right, right_q = _e_split(c, b)
    return left * right_q + right, left_q * right_q


def e_enclosure(digits: int | None = None) -> Enclosure:
    """Rational enclosure of e with width below 10**-digits."""
    if digits is None:
        digits = DEFAULT_DIGITS
    lower, upper = _e_series_state(digits)
    return Enclosure(lower=lower, upper=upper, digits=digits)


def inv_e_enclosure(digits: int | None = None) -> Enclosure:
    """Rational enclosure of 1/e, inverted from the e enclosure: each end
    the other's pair turned over, so x against it is x * upper and
    x * lower of e against 1."""
    outer = e_enclosure(digits)
    (lower_numerator, lower_denominator), (upper_numerator, upper_denominator) = outer.ends
    return Enclosure(
        lower=(upper_denominator, upper_numerator),
        upper=(lower_denominator, lower_numerator),
        digits=outer.digits,
    )


def _refine(attempt, what):
    """Return the first non-None ``attempt(digits)``, starting at
    ``DEFAULT_DIGITS`` and doubling the precision up to ``MAX_DIGITS``.

    Every enclosure records the level it was built at, so the levels
    tried here are part of the reports.  Raises PrecisionExhaustedError
    once the attempt at ``MAX_DIGITS`` also fails; ``what()`` names the
    undecided quantity, built only then because operands can run to
    thousands of digits.
    """
    digits = DEFAULT_DIGITS
    while True:
        result = attempt(digits)
        if result is not None:
            return result
        if digits >= MAX_DIGITS:
            raise PrecisionExhaustedError(f"{what()} undecided at {digits} digits")
        digits = min(2 * digits, MAX_DIGITS)


def refine_until_decisive(produce, x: Fraction) -> Comparison:
    """Compare ``x`` to the constant enclosed by ``produce(digits)``,
    doubling the precision until the comparison resolves.

    Raises PrecisionExhaustedError past ``MAX_DIGITS``; for a rational x
    and an irrational constant that can only happen with a too-small cap.
    """

    def attempt(digits: int) -> Comparison | None:
        verdict = produce(digits).compare(x)
        return None if verdict is Comparison.INDETERMINATE else verdict

    return _refine(attempt, lambda: f"comparison of {format_value(x)}")


def compare_to_inv_e(x: Fraction) -> Comparison:
    """Decisive comparison of an exact rational against 1/e.

    Always returns LESS or GREATER: equality is impossible and the
    enclosure is refined automatically until one side is certified.
    """
    return refine_until_decisive(inv_e_enclosure, Fraction(x))


def floor_n_over_e(n: int) -> int:
    """floor(n/e), certified through the e enclosure.

    n/e is irrational for every positive integer n, so refinement always
    terminates with both interval ends in the same unit interval.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def attempt(digits: int) -> int | None:
        (lower_numerator, lower_denominator), (upper_numerator, upper_denominator) = (
            e_enclosure(digits).ends
        )
        low = n * upper_denominator // upper_numerator
        high = n * lower_denominator // lower_numerator
        return low if low == high else None

    return _refine(attempt, lambda: f"floor({n}/e)")
