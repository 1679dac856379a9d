import itertools
import json
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secretary_lab import (
    Comparison,
    ConstructionParams,
    NonpositiveBudgetError,
    ParameterError,
    UnknownPresetError,
    alpha_value,
    beta_bounds,
    compare_to_inv_e,
    decimal_str,
    inv_e_enclosure,
    known_presets,
    load_preset,
    oracle_optimum,
    threshold_value,
    ub_display,
    verify_theorem,
)

F = Fraction

EPS_GRID = (F(1, 10), F(259, 10000), F(1, 100))
S_GRID = (F(5), F(19), F(76))
K_GRID = (4, 6, 20)


def beta_reference() -> Fraction:
    # independent high-precision value of (3/2)(1/e - 1/3)
    with localcontext() as ctx:
        ctx.prec = 60
        return Fraction(Decimal(-1).exp() * Decimal("1.5") - Decimal("0.5"))


# ---------------------------------------------------------------------------
# alpha.
# ---------------------------------------------------------------------------

def test_alpha_hand_checked_values():
    # 1/3 + (2/3)(1/10 + (9/10)(1/5 + 1/3))
    assert alpha_value(F(1, 10), F(5), 4) == F(1, 3) + F(2, 3) * (
        F(1, 10) + F(9, 10) * F(8, 15)
    )
    assert alpha_value(F(259, 10000), F(19), 20) == F(39801, 95000)
    assert decimal_str(alpha_value(F(259, 10000), F(19), 20), 7) == "0.4189579"


def test_alpha_collapses_at_zero_eps():
    assert alpha_value(F(0), F(5), 4) == F(31, 45)


@pytest.mark.parametrize(
    "eps,s,k",
    [(F(1), F(5), 4), (F(-1, 10), F(5), 4), (F(1, 10), F(1), 4), (F(1, 10), F(5), 1)],
)
def test_alpha_parameter_errors(eps, s, k):
    with pytest.raises(ParameterError):
        alpha_value(eps, s, k)


def test_alpha_monotonicity():
    base = alpha_value(F(1, 100), F(10), 10)
    assert alpha_value(F(2, 100), F(10), 10) > base
    assert alpha_value(F(1, 100), F(20), 10) < base
    assert alpha_value(F(1, 100), F(10), 20) < base


# ---------------------------------------------------------------------------
# beta and the budget threshold.
# ---------------------------------------------------------------------------

def test_beta_enclosure_brackets_reference():
    reference = beta_reference()
    enclosure = beta_bounds()
    assert enclosure.width <= F(1, 10**6)
    assert enclosure.lower <= reference <= enclosure.upper
    assert F(518181, 10**7) < enclosure.lower
    assert enclosure.upper < F(518192, 10**7)


def test_beta_respects_digit_request():
    assert beta_bounds(digits=5).digits == 5


def test_threshold_known_value():
    enclosure = threshold_value(F(259, 10000))
    assert F(2659, 100000) < enclosure.lower
    assert enclosure.upper < F(2663, 100000)
    # true value 0.0266083171719... (checked against a decimal-module
    # recomputation of (beta - eps)/(1 - eps))
    assert decimal_str(enclosure.lower, 8) == "0.02660832"
    assert decimal_str(enclosure.upper, 8) == "0.02660832"


def test_threshold_at_zero_eps_is_beta():
    beta = beta_bounds()
    threshold = threshold_value(F(0))
    assert (threshold.lower, threshold.upper) == (beta.lower, beta.upper)


def test_threshold_exhausted_budget():
    with pytest.raises(NonpositiveBudgetError):
        threshold_value(F(6, 100))
    with pytest.raises(ParameterError):
        threshold_value(F(-1, 10))
    with pytest.raises(ParameterError):
        threshold_value(F(1))


def test_alpha_below_inv_e_iff_budget_fits():
    # alpha and 1/e differ by exactly (2/3)(inner - beta), so the sign of
    # the comparison must track the budget inequality.
    fits = alpha_value(F(259, 10000), F(76), 78)
    assert compare_to_inv_e(fits) is Comparison.LESS
    breaks = alpha_value(F(259, 10000), F(19), 20)
    assert compare_to_inv_e(breaks) is Comparison.GREATER


def _beta_at_80_digits() -> Fraction:
    with localcontext() as ctx:
        ctx.prec = 80
        return Fraction(Decimal(-1).exp() * Decimal("1.5") - Decimal("0.5"))


BETA_80 = _beta_at_80_digits()


# 1/(k-1) alone exceeds beta for every k <= 20, so k also runs past 20,
# and half the draws keep eps below 1/20, to let the verdict come out True.
@settings(max_examples=60, deadline=None)
@example(eps=F(259, 10000), s=19, k=20)  # paper-19-20
@example(eps=F(259, 10000), s=76, k=78)  # corrected-76-78
@example(eps=F(1, 100), s=400, k=400)  # one-third-plus
@given(
    eps=st.one_of(
        st.fractions(min_value=0, max_value=F(1, 20), max_denominator=1000),
        st.fractions(min_value=0, max_value=F(999, 1000), max_denominator=1000),
    ).filter(lambda eps: eps > 0),
    s=st.integers(2, 400),
    k=st.one_of(st.integers(2, 10), st.integers(11, 60)).map(lambda half: 2 * half),
)
def test_budget_verdict_is_x_below_beta(eps, s, k):
    report = verify_theorem(params=ConstructionParams(eps, F(s), k))
    x = eps + (1 - eps) * (F(1, s) + F(1, k - 1))
    assert report.preset_inequality_holds == (x < BETA_80)


# ---------------------------------------------------------------------------
# Closed forms for the constrained optimum.
# ---------------------------------------------------------------------------

def test_closed_forms_at_anchor():
    assert ub_display(F(1, 10), F(5), 4) == F(3, 5)
    assert oracle_optimum(F(1, 10), F(5), 4) == F(1703, 3125)


def oracle_term_by_term(eps: Fraction, s: Fraction, k: int) -> Fraction:
    # oracle_optimum with its geometric series summed one term at a time
    r = 2 * k - 1
    forced = sum((s ** (1 - m) for m in range(3, k + 2)), F(0))
    shared = eps + 2 * (1 - eps) / (r - 1) + (1 - eps) * F(r - 3, r - 1) * (F(1, 2) + 1 / (2 * s))
    return F(1, 3) * (eps + (1 - eps) * F(2, r - 1) * forced) + F(2, 3) * shared


@settings(max_examples=40, deadline=None)
@given(
    eps=st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000),
    s=st.fractions(min_value=F(61, 60), max_value=F(500), max_denominator=60),
    k=st.integers(2, 200).map(lambda half: 2 * half),
)
@example(eps=F(1, 100), s=F(400), k=400)
@example(eps=F(259, 10000), s=F(7, 3), k=400)
def test_oracle_closed_form_is_the_term_by_term_sum(eps, s, k):
    assert oracle_optimum(eps, s, k) == oracle_term_by_term(eps, s, k)


def test_closed_form_decimals_at_19_20():
    assert decimal_str(ub_display(F(259, 10000), F(19), 20), 7) == "0.4009690"


def test_closed_forms_validate_params():
    with pytest.raises(ParameterError):
        ub_display(F(1, 10), F(5), 5)
    with pytest.raises(ParameterError):
        oracle_optimum(F(1, 10), F(5), 2)


def test_chain_is_strict_on_grid():
    for eps, s, k in itertools.product(EPS_GRID, S_GRID, K_GRID):
        exact = oracle_optimum(eps, s, k)
        display = ub_display(eps, s, k)
        alpha = alpha_value(eps, s, k)
        assert exact < display < alpha


# ---------------------------------------------------------------------------
# Presets and the full verification report.
# ---------------------------------------------------------------------------

def test_known_presets():
    assert known_presets() == ("corrected-76-78", "one-third-plus", "paper-19-20")


def test_load_preset_values():
    params = load_preset("paper-19-20")
    assert (params.mix_eps, params.s, params.k, params.n) == (
        F(259, 10000),
        F(19),
        20,
        3,
    )
    with pytest.raises(UnknownPresetError) as err:
        load_preset("missing")
    assert "missing" in str(err.value)


def test_verify_requires_exactly_one_source():
    with pytest.raises(ParameterError):
        verify_theorem()
    with pytest.raises(ParameterError):
        verify_theorem(preset="paper-19-20", params=load_preset("paper-19-20"))


def test_verify_at_19_20_flags_divergence():
    report = verify_theorem(preset="paper-19-20")
    assert report.preset_inequality_holds is False
    assert report.verdict_vs_inv_e is Comparison.GREATER
    assert decimal_str(report.dp_optimum, 7) == "0.3839295"
    assert report.worst_row[0] == 38
    assert report.dp_optimum == report.oracle_optimum


def test_verify_at_76_78_holds_with_margin():
    report = verify_theorem(preset="corrected-76-78")
    assert report.preset_inequality_holds is True
    assert report.verdict_vs_inv_e is Comparison.LESS
    assert decimal_str(report.dp_optimum, 7) == "0.3590345"
    assert report.worst_row[0] == 154
    margin = inv_e_enclosure().lower - report.dp_optimum
    assert margin > F(8, 1000)


def test_verify_one_third_plus():
    report = verify_theorem(preset="one-third-plus")
    cap = F(1, 3) + F(1, 100)
    assert report.dp_optimum < cap
    assert report.alpha <= cap
    assert report.verdict_vs_inv_e is Comparison.LESS
    assert report.worst_row[0] == 798


def test_verify_with_explicit_params(anchor_params):
    report = verify_theorem(params=anchor_params)
    assert report.preset is None
    assert report.dp_optimum == F(1703, 3125)
    assert report.ub_display == F(3, 5)
    assert report.oracle_optimum < report.ub_display < report.alpha


def test_report_round_trip_and_determinism():
    report = verify_theorem(preset="corrected-76-78")
    payload = report.to_dict()
    again = verify_theorem(preset="corrected-76-78").to_dict()
    assert json.dumps(payload, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert payload["k_thresholds"]["stated_working_ranges"] == ["k >= 12", "k >= 20"]
