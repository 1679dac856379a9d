"""Closed-form bounds for the hard family and end-to-end verification.

The quantities live in one chain: the exact constrained optimum (a
closed form summing the per-row values an optimal constrained policy
attains), a displayed upper bound obtained by relaxing the forced-accept
case, and alpha, a further relaxation that is transparent in the
parameters.  beta is the budget (3/2)(1/e - 1/3).  Since
1/e = 1/3 + (2/3) beta, alpha falls below 1/e exactly when
mix_eps + (1 - mix_eps)(1/s + 1/(k-1)) stays below beta, and then so
does every constrained policy.  verify_theorem recomputes the chain, solves
the family by backward induction, reports whether the two routes agree
and on which side of 1/e the optimum lands, and decides the budget
verdict by the certified comparison of alpha with 1/e.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .construction import ConstructionParams, build_hard_family
from .errors import NonpositiveBudgetError, ParameterError, UnknownPresetError
from .exact import (
    Comparison,
    Enclosure,
    _refine,
    compare_to_inv_e,
    decimal_str,
    format_value,
    inv_e_enclosure,
    parse_value,
    render_enclosure,
    render_number,
)
from .policy import require_enumerable, solve_optimal


def alpha_value(mix_eps: Fraction, s: Fraction, k: int) -> Fraction:
    """alpha = 1/3 + (2/3)(mix_eps + (1 - mix_eps)(1/s + 1/(k-1))).

    The transparent upper bound on the expected ratio of any policy that
    is locked to the predictions when they hold.
    """
    mix_eps = Fraction(mix_eps)
    s = Fraction(s)
    if not 0 <= mix_eps < 1:
        raise ParameterError(f"mix_eps must be in [0, 1), got {format_value(mix_eps)}")
    if s <= 1:
        raise ParameterError(f"s must exceed 1, got {format_value(s)}")
    if k < 2:
        raise ParameterError(f"k must be >= 2 (1/(k-1) must exist), got {k}")
    return Fraction(1, 3) + Fraction(2, 3) * (
        mix_eps + (1 - mix_eps) * (1 / s + Fraction(1, k - 1))
    )


def beta_bounds(digits: int | None = None) -> Enclosure:
    """Certified rational enclosure of beta = (3/2)(1/e - 1/3), from the
    1/e enclosure at ``digits`` (default ``DEFAULT_DIGITS``)."""
    inv = inv_e_enclosure(digits)
    return Enclosure(
        lower=Fraction(3, 2) * inv.lower - Fraction(1, 2),
        upper=Fraction(3, 2) * inv.upper - Fraction(1, 2),
        digits=inv.digits,
    )


def threshold_value(mix_eps: Fraction) -> Enclosure:
    """Certified enclosure of (beta - mix_eps)/(1 - mix_eps), the room
    left for 1/s + 1/(k-1) after spending mix_eps of the budget.

    Raises NonpositiveBudgetError when mix_eps >= beta (certified by
    refining the enclosure until the comparison is decisive).
    """
    eps = Fraction(mix_eps)
    if eps < 0:
        raise ParameterError(f"mix_eps must be >= 0, got {format_value(eps)}")
    if eps >= 1:
        raise ParameterError(f"mix_eps must be < 1, got {format_value(eps)}")

    def attempt(level: int) -> Enclosure | None:
        beta = beta_bounds(digits=level)
        if eps >= beta.upper:
            raise NonpositiveBudgetError(
                f"mix_eps = {format_value(eps)} meets or exceeds the budget "
                f"beta (upper bound {decimal_str(beta.upper, 8)}); "
                "no room remains for 1/s + 1/(k-1)"
            )
        if eps <= beta.lower:
            return Enclosure(
                lower=(beta.lower - eps) / (1 - eps),
                upper=(beta.upper - eps) / (1 - eps),
                digits=beta.digits,
            )
        return None

    return _refine(attempt, lambda: f"threshold at mix_eps = {format_value(eps)}")


def ub_display(mix_eps: Fraction, s: Fraction, k: int) -> Fraction:
    """Closed-form upper bound on the constrained optimum.

    Differs from the exact optimum only in the forced-accept case, whose
    per-row ratios s^(1-m) are relaxed to mix_eps + (1 - mix_eps)/s.
    """
    params = ConstructionParams(Fraction(mix_eps), Fraction(s), int(k))
    return (
        Fraction(1, 3) * (params.mix_eps + (1 - params.mix_eps) / params.s)
        + Fraction(2, 3) * _shared_cases(params)
    )


def oracle_optimum(mix_eps: Fraction, s: Fraction, k: int) -> Fraction:
    """Exact expected ratio of an optimal constrained policy, in closed
    form and independent of the backward induction.

    One third of the time the first arrival is the predicted candidate
    and the policy must take it: row 1 contributes 1, and each of the
    2k - 2 remaining rows contributes s^(1-m) where s^m is its maximum
    (the exponents m run over 3..k+1, twice each), their sum taken as a
    geometric series in closed form.  Otherwise the row is
    resolved by the confusion structure: value 1 with probability
    mix_eps + 2(1 - mix_eps)/(r-1), and an even split between 1 and 1/s
    on the rest.
    """
    params = ConstructionParams(Fraction(mix_eps), Fraction(s), int(k))
    eps, s_val, k_val = params.mix_eps, params.s, params.k
    r = params.row_count
    # the geometric series s^-2 + ... + s^-k in closed form
    forced = (s_val ** -2 - s_val ** -(k_val + 1)) / (1 - 1 / s_val)
    case_first = eps + (1 - eps) * Fraction(2, r - 1) * forced
    return Fraction(1, 3) * case_first + Fraction(2, 3) * _shared_cases(params)


def _shared_cases(params: ConstructionParams) -> Fraction:
    """Common value of the two cases where the first arrival is not the
    predicted candidate: ratio 1 on row 1 and on the row revealed by a
    non-repeated value; ratio (1/2)(1 + 1/s) on each confusion pair."""
    eps, s, r = params.mix_eps, params.s, params.row_count
    return (
        eps
        + 2 * (1 - eps) / (r - 1)
        + (1 - eps)
        * Fraction(r - 3, r - 1)
        * (Fraction(1, 2) + 1 / (2 * s))
    )


# ---------------------------------------------------------------------------
# Preset registry and the full verification run.
# ---------------------------------------------------------------------------

def _load_registry() -> dict:
    text = resources.files("secretary_lab").joinpath("presets.json").read_text(
        encoding="utf-8"
    )
    return json.loads(text)


def known_presets() -> tuple[str, ...]:
    return tuple(sorted(_load_registry()["presets"]))


def load_preset(name: str) -> ConstructionParams:
    registry = _load_registry()["presets"]
    if name not in registry:
        raise UnknownPresetError(
            f"unknown preset {name!r}; known presets: {', '.join(sorted(registry))}"
        )
    entry = registry[name]
    return ConstructionParams(
        mix_eps=parse_value(entry["mix_eps"]),
        s=parse_value(entry["s"]),
        k=int(entry["k"]),
        n=int(entry.get("n", 3)),
    )


@dataclass(frozen=True)
class BoundChain:
    """The closed-form chain at one parameter point; threshold is None
    when mix_eps leaves no budget."""

    alpha: Fraction
    beta_enclosure: Enclosure
    threshold: Enclosure | None
    ub_display: Fraction
    oracle_optimum: Fraction

    def to_dict(self, digits: int = 12) -> dict:
        return {
            "alpha": render_number(self.alpha, digits),
            "beta_enclosure": render_enclosure(self.beta_enclosure, digits),
            "threshold": render_enclosure(self.threshold, digits),
            "ub_display": render_number(self.ub_display, digits),
            "oracle_optimum": render_number(self.oracle_optimum, digits),
        }


def bound_chain(params: ConstructionParams) -> BoundChain:
    """alpha, the beta and threshold enclosures, ub_display and
    oracle_optimum at ``params``."""
    try:
        threshold = threshold_value(params.mix_eps)
    except NonpositiveBudgetError:
        threshold = None
    return BoundChain(
        alpha=alpha_value(params.mix_eps, params.s, params.k),
        beta_enclosure=beta_bounds(),
        threshold=threshold,
        ub_display=ub_display(params.mix_eps, params.s, params.k),
        oracle_optimum=oracle_optimum(params.mix_eps, params.s, params.k),
    )


@dataclass(frozen=True)
class TheoremReport(BoundChain):
    """Everything verify_theorem establishes for one parameter point: the
    bound chain plus the solved optimum and the verdicts."""

    params: ConstructionParams
    preset: str | None
    dp_optimum: Fraction
    verdict_vs_inv_e: Comparison
    preset_inequality_holds: bool
    worst_row: tuple[int, Fraction]

    def to_dict(self, digits: int = 12) -> dict:
        return {
            "preset": self.preset,
            "params": {
                "mix_eps": format_value(self.params.mix_eps),
                "s": format_value(self.params.s),
                "k": self.params.k,
                "n": self.params.n,
                "row_count": self.params.row_count,
            },
            # informational only; no computation depends on either threshold
            "k_thresholds": {
                "structural_minimum": 4,
                "stated_working_ranges": ["k >= 12", "k >= 20"],
            },
            **super().to_dict(digits),
            "dp_optimum": render_number(self.dp_optimum, digits),
            "verdict_vs_inv_e": self.verdict_vs_inv_e.value,
            "preset_inequality_holds": self.preset_inequality_holds,
            "worst_row": {
                "id": self.worst_row[0],
                "ratio": render_number(self.worst_row[1], digits),
            },
        }


def verify_theorem(
    preset: str | None = None,
    params: ConstructionParams | None = None,
) -> TheoremReport:
    """Build the hard family, solve it under the consistency constraint,
    and check it against every closed form.

    preset_inequality_holds records whether 1/s + 1/(k-1) fits inside the
    remaining budget (beta - mix_eps)/(1 - mix_eps).  Since 1 - mix_eps > 0
    and 1/e = 1/3 + (2/3) beta, that is the inequality alpha < 1/e, decided
    by the certified comparison of alpha with 1/e, never through floats;
    with no budget left (mix_eps >= beta) alpha exceeds 1/e and the
    verdict is False.
    """
    if (preset is None) == (params is None):
        raise ParameterError("give exactly one of preset or params")
    if preset is not None:
        params = load_preset(preset)
    require_enumerable(params.n)
    family = build_hard_family(params)
    solved = solve_optimal(family, constrained=True)
    chain = bound_chain(params)
    if solved.optimum != chain.oracle_optimum:
        raise RuntimeError(
            "backward induction and closed form disagree: "
            f"{format_value(solved.optimum)} vs {format_value(chain.oracle_optimum)}"
        )
    return TheoremReport(
        **vars(chain),
        params=params,
        preset=preset,
        dp_optimum=solved.optimum,
        verdict_vs_inv_e=compare_to_inv_e(solved.optimum),
        preset_inequality_holds=compare_to_inv_e(chain.alpha) is Comparison.LESS,
        worst_row=solved.worst_row,
    )
