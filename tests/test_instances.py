import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from secretary_lab import (
    DegenerateInstanceError,
    InvalidFamilyError,
    PriorFamily,
    Scenario,
    UndefinedErrorMeasureError,
    competitive_ratio,
    load_family,
    prediction_error,
    render_family_json,
    scenario_max,
    validate_family,
)

S = Fraction(5)


def _row(id_, *values):
    return Scenario(id=id_, values=tuple(Fraction(v) for v in values))


# ---------------------------------------------------------------------------
# Scenario basics.
# ---------------------------------------------------------------------------

def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(id=0, values=(Fraction(1),))
    with pytest.raises(ValueError):
        Scenario(id=1, values=())
    with pytest.raises(ValueError):
        Scenario(id=1, values=(Fraction(-1),))


def test_scenario_keeps_a_fraction_and_converts_other_values():
    # A Fraction is held as passed, so rows built from one value share it;
    # an int or a string is still converted, and a negative still refused.
    power = S**400
    row = Scenario(id=1, values=(power, 3, "7/2"))
    assert row.values[0] is power
    assert row.values[1:] == (Fraction(3), Fraction(7, 2))
    assert all(type(v) is Fraction for v in row.values)
    for negative in (Fraction(-1, 2), -1, "-1/2"):
        with pytest.raises(ValueError, match=">= 0"):
            Scenario(id=1, values=(power, negative))


def test_value_at_is_one_based():
    row = _row(2, S, S**2, S**3)
    assert row.value_at(1) == S
    assert row.value_at(3) == S**3
    with pytest.raises(ValueError):
        row.value_at(0)
    with pytest.raises(ValueError):
        row.value_at(4)


def test_scenario_max_examples():
    assert scenario_max(_row(1, S, 1, 1)) == S
    assert scenario_max(_row(7, 1, 1, 1)) == 1
    k = 20
    assert scenario_max(_row(39, S, S ** (k + 1), S**k)) == S ** (k + 1)


# ---------------------------------------------------------------------------
# Competitive ratio.
# ---------------------------------------------------------------------------

def test_competitive_ratio_examples():
    row2 = _row(2, S, S**2, S**3)
    assert competitive_ratio(S**3, row2) == 1
    assert competitive_ratio(None, row2) == 0
    row6 = _row(6, S, S**4, S**5)
    assert competitive_ratio(S**4, row6) == Fraction(1, S)
    assert competitive_ratio(S, row6) == S / S**5


def test_competitive_ratio_rejects_foreign_value():
    with pytest.raises(ValueError):
        competitive_ratio(Fraction(7), _row(1, 1, 2, 3))


def test_competitive_ratio_all_zero_scenario():
    with pytest.raises(DegenerateInstanceError):
        competitive_ratio(None, _row(1, 0, 0))


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_competitive_ratio_scale_invariant(numerator, denominator):
    c = Fraction(numerator, denominator)
    row = _row(3, 1, 4, 2)
    scaled = _row(3, c, 4 * c, 2 * c)
    assert competitive_ratio(Fraction(4), row) == competitive_ratio(4 * c, scaled)
    assert competitive_ratio(Fraction(2), row) == competitive_ratio(2 * c, scaled)


# ---------------------------------------------------------------------------
# Prediction error.
# ---------------------------------------------------------------------------

def test_prediction_error_examples():
    assert prediction_error((2, 4), (2, 4)) == 0
    assert prediction_error((2, 4), (1, 4)) == Fraction(1, 2)
    values = (S, S**2, S**3)
    predicted = (S, Fraction(1), Fraction(1))
    assert prediction_error(values, predicted) == 1 - S**-3


def test_prediction_error_zero_true_value():
    with pytest.raises(UndefinedErrorMeasureError):
        prediction_error((1, 0), (1, 1))


def test_prediction_error_length_mismatch():
    with pytest.raises(ValueError):
        prediction_error((1, 2), (1,))


def test_prediction_error_permutation_invariant():
    values = (Fraction(2), Fraction(3), Fraction(5))
    predicted = (Fraction(1), Fraction(3), Fraction(10))
    base = prediction_error(values, predicted)
    permuted = prediction_error(
        (values[2], values[0], values[1]), (predicted[2], predicted[0], predicted[1])
    )
    assert base == permuted


# ---------------------------------------------------------------------------
# Family validation.
# ---------------------------------------------------------------------------

def _small_family(**overrides) -> PriorFamily:
    fields = dict(
        n=3,
        scenarios=(_row(1, S, 1, 1), _row(2, S, S**2, S**3)),
        probabilities=(Fraction(1, 10), Fraction(9, 10)),
        prediction_id=1,
    )
    fields.update(overrides)
    return PriorFamily(**fields)


def test_validate_family_accepts_good_family():
    assert validate_family(_small_family()) == ()


def test_validate_family_bad_mass():
    with pytest.raises(InvalidFamilyError) as err:
        _small_family(probabilities=(Fraction(1, 10), Fraction(89, 100)))
    assert any("mass != 1" in v for v in err.value.violations)
    assert any("99/100" in v for v in err.value.violations)


def test_validate_family_sums_long_probabilities_exactly():
    # As at the certify edge point: one mixture probability of about 2000
    # digits and 154 equal tail probabilities.  Mass short of 1 by
    # 10^-2000 is reported, with the exact sum.
    eps = Fraction(10**1999 + 1, 7 * 10**1999 + 3)
    tail = (1 - eps) / 154
    rows = (_row(1, S, 1, 1),) + tuple(_row(i, S, S**2, S**3) for i in range(2, 156))

    def family(first):
        return _small_family(scenarios=rows, probabilities=(first,) + (tail,) * 154)

    assert validate_family(family(eps)) == ()
    with pytest.raises(InvalidFamilyError) as err:
        family(eps - Fraction(1, 10**2000))
    assert err.value.violations == [
        f"mass != 1 (probabilities sum to {1 - Fraction(1, 10**2000)})",
    ]


def test_validate_family_duplicate_ids():
    with pytest.raises(InvalidFamilyError) as err:
        _small_family(scenarios=(_row(1, S, 1, 1), _row(1, S, S**2, S**3)))
    assert any("ids not unique" in v for v in err.value.violations)


def test_validate_family_missing_prediction():
    with pytest.raises(InvalidFamilyError) as err:
        _small_family(prediction_id=9)
    assert any("prediction_id 9" in v for v in err.value.violations)


def test_validate_family_length_mismatch():
    with pytest.raises(InvalidFamilyError) as err:
        _small_family(scenarios=(_row(1, S, 1, 1), _row(2, S, S**2)))
    assert any("expected n = 3" in v for v in err.value.violations)


def test_family_constructor_shape_checks():
    with pytest.raises(ValueError):
        PriorFamily(n=3, scenarios=(), probabilities=(), prediction_id=1)
    with pytest.raises(ValueError):
        PriorFamily(
            n=3,
            scenarios=(_row(1, 1, 1, 1),),
            probabilities=(Fraction(1, 2), Fraction(1, 2)),
            prediction_id=1,
        )


def test_family_accessors():
    family = _small_family()
    assert family.prediction().id == 1
    assert family.probability_of(2) == Fraction(9, 10)
    assert family.scenario_by_id(2).value_at(3) == S**3
    with pytest.raises(KeyError):
        family.scenario_by_id(5)
    with pytest.raises(KeyError):
        family.probability_of(5)


# ---------------------------------------------------------------------------
# File format.
# ---------------------------------------------------------------------------

def test_family_json_round_trip(tmp_path):
    family = _small_family(base=S)
    path = tmp_path / "family.json"
    path.write_text(render_family_json(family), encoding="utf-8")
    loaded = load_family(path)
    assert loaded == family


def test_family_json_uses_grammar(tmp_path):
    family = _small_family(base=S)
    payload = json.loads(render_family_json(family))
    assert payload["n"] == 3
    assert payload["base_s"] == "5"
    assert payload["prediction_id"] == 1
    row2 = payload["scenarios"][1]
    assert row2["values"] == ["s^1", "s^2", "s^3"]
    assert row2["probability"] == "9/10"


def test_family_json_without_base(tmp_path):
    family = _small_family()
    payload = json.loads(render_family_json(family))
    assert "base_s" not in payload
    assert payload["scenarios"][1]["values"] == ["5", "25", "125"]
    path = tmp_path / "plain.json"
    path.write_text(render_family_json(family), encoding="utf-8")
    assert load_family(path) == family


def test_round_trip_preserves_byte_output(tmp_path):
    family = _small_family(base=S)
    first = render_family_json(family)
    second = render_family_json(load_family_from_text(first))
    assert first == second


def load_family_from_text(text: str) -> PriorFamily:
    from secretary_lab.instances import family_from_dict

    return family_from_dict(json.loads(text))
