from fractions import Fraction

import pytest

from secretary_lab import (
    ConstructionParams,
    ParameterError,
    build_hard_family,
    confusion_pair_rows,
    first_appearance_row,
    render_family_csv,
    render_family_json,
    render_family_markdown,
    row_exponents,
    scenario_max,
    swap_partner_row,
    validate_family,
)

S = Fraction(5)

# Exponent pattern (X_2, X_3) of every explicitly printed row of the
# hardness table at k = 20, frozen as golden data: rows 2..11 and the
# final block 2k-4..2k-1.
GOLDEN_K20 = {
    2: (2, 3),
    3: (3, 2),
    4: (4, 3),
    5: (3, 4),
    6: (4, 5),
    7: (5, 4),
    8: (6, 5),
    9: (5, 6),
    10: (6, 7),
    11: (7, 6),
    36: (20, 19),
    37: (19, 20),
    38: (20, 21),
    39: (21, 20),
}


# ---------------------------------------------------------------------------
# Parameter validation.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mix_eps=Fraction(0), s=S, k=4),
        dict(mix_eps=Fraction(1), s=S, k=4),
        dict(mix_eps=Fraction(1, 10), s=Fraction(1), k=4),
        dict(mix_eps=Fraction(1, 10), s=S, k=5),
        dict(mix_eps=Fraction(1, 10), s=S, k=2),
        dict(mix_eps=Fraction(1, 10), s=S, k=4, n=2),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        ConstructionParams(**kwargs)


def test_row_count():
    assert ConstructionParams(Fraction(1, 10), S, 4).row_count == 7
    assert ConstructionParams(Fraction(1, 10), S, 20).row_count == 39


# ---------------------------------------------------------------------------
# The exponent pattern.
# ---------------------------------------------------------------------------

def test_row_exponents_match_golden_rows():
    for row, expected in GOLDEN_K20.items():
        assert row_exponents(row, 20) == expected, row


def test_row_exponents_bounds():
    with pytest.raises(ParameterError):
        row_exponents(1, 20)
    with pytest.raises(ParameterError):
        row_exponents(40, 20)


@pytest.mark.parametrize("k", range(4, 41, 2))
def test_exponent_multiset_per_column(k):
    for column in (0, 1):
        exponents = sorted(row_exponents(row, k)[column] for row in range(2, 2 * k))
        expected = sorted([2, k + 1] + [i for i in range(3, k + 1) for _ in range(2)])
        assert exponents == expected


@pytest.mark.parametrize("k", range(4, 41, 2))
def test_swap_pairs_are_exact_swaps(k):
    for t in range(1, k):
        even = row_exponents(2 * t, k)
        odd = row_exponents(2 * t + 1, k)
        assert even == (odd[1], odd[0])
        assert set(even) == {t + 1, t + 2}
    assert swap_partner_row(6) == 7
    assert swap_partner_row(7) == 6
    with pytest.raises(ParameterError):
        swap_partner_row(1)


# ---------------------------------------------------------------------------
# Family assembly.
# ---------------------------------------------------------------------------

def test_family_k4_unrolled(anchor_family):
    family = anchor_family
    assert len(family.scenarios) == 7
    assert family.prediction_id == 1
    assert family.prediction().values == (S, Fraction(1), Fraction(1))
    assert family.probability_of(1) == Fraction(1, 10)
    expected_exponents = [(2, 3), (3, 2), (4, 3), (3, 4), (4, 5), (5, 4)]
    for row, (e2, e3) in zip(range(2, 8), expected_exponents):
        scenario = family.scenario_by_id(row)
        assert scenario.values == (S, S**e2, S**e3)
        assert family.probability_of(row) == Fraction(3, 20)
    assert validate_family(family) == ()


def test_family_k20_golden_rows():
    family = build_hard_family(ConstructionParams(Fraction(259, 10000), Fraction(19), 20))
    s = Fraction(19)
    assert family.scenario_by_id(1).values == (s, 1, 1)
    for row, (e2, e3) in GOLDEN_K20.items():
        assert family.scenario_by_id(row).values == (s, s**e2, s**e3)
    assert family.probability_of(2) == (1 - Fraction(259, 10000)) / 38
    assert sum(family.probabilities) == 1


def test_family_padding_beyond_three():
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, 4, n=5))
    for scenario in family.scenarios:
        assert len(scenario.values) == 5
        assert scenario.values[3:] == (Fraction(1), Fraction(1))
    short = build_hard_family(ConstructionParams(Fraction(1, 10), S, 4, n=3))
    for wide, narrow in zip(family.scenarios, short.scenarios):
        assert wide.values[:3] == narrow.values


def test_rows_share_each_power_of_s():
    # Each s^e is built once and held by every row that shows it.
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, 40, n=4))
    powers = {}
    for scenario in family.scenarios:
        for v in scenario.values:
            assert powers.setdefault(v, v) is v
    assert len(powers) == 42  # s^0, s^1, ..., s^(k + 1)
    assert len(set(map(id, family.probabilities[1:]))) == 1


def test_x1_constant_and_mass(anchor_family):
    for scenario in anchor_family.scenarios:
        assert scenario.value_at(1) == S
    assert sum(anchor_family.probabilities) == 1


def test_last_row_max(anchor_family):
    assert scenario_max(anchor_family.scenario_by_id(7)) == S**5


def test_build_is_deterministic():
    params = ConstructionParams(Fraction(1, 100), Fraction(7), 6)
    assert render_family_json(build_hard_family(params)) == render_family_json(
        build_hard_family(params)
    )


# ---------------------------------------------------------------------------
# Closed-form accessors.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("i,expected", [(4, 4), (5, 7), (7, 11), (3, 3)])
def test_first_appearance_examples(i, expected):
    assert first_appearance_row(i, 20) == expected


@pytest.mark.parametrize("k", range(4, 41, 2))
def test_first_appearance_matches_scan(k):
    for i in range(3, k + 2):
        scan = min(row for row in range(2, 2 * k) if row_exponents(row, k)[0] == i)
        assert first_appearance_row(i, k) == scan


def test_first_appearance_bounds():
    with pytest.raises(ParameterError):
        first_appearance_row(2, 20)
    with pytest.raises(ParameterError):
        first_appearance_row(22, 20)


def test_confusion_pair_examples():
    assert confusion_pair_rows(3, 2, 20) == (3, 5)
    assert confusion_pair_rows(20, 2, 20) == (36, 38)
    assert confusion_pair_rows(3, 3, 20) == (2, 4)


def test_confusion_pair_self_check_raises_on_disagreement(monkeypatch):
    # The scan-versus-closed-form check must survive python -O.
    monkeypatch.setattr("secretary_lab.construction.swap_partner_row", lambda row: row)
    with pytest.raises(RuntimeError, match="disagrees"):
        confusion_pair_rows(3, 3, 20)


@pytest.mark.parametrize("k", range(4, 41, 2))
def test_confusion_pairs_match_scan(k):
    for column in (2, 3):
        for i in range(3, k + 1):
            scan = tuple(
                row
                for row in range(2, 2 * k)
                if row_exponents(row, k)[column - 2] == i
            )
            assert confusion_pair_rows(i, column, k) == scan
            assert len(scan) == 2


def test_confusion_pair_bounds():
    with pytest.raises(ParameterError):
        confusion_pair_rows(2, 2, 20)
    with pytest.raises(ParameterError):
        confusion_pair_rows(21, 2, 20)
    with pytest.raises(ParameterError):
        confusion_pair_rows(5, 4, 20)


# ---------------------------------------------------------------------------
# Renderings.
# ---------------------------------------------------------------------------

def test_markdown_render(anchor_family):
    text = render_family_markdown(anchor_family)
    lines = text.splitlines()
    assert lines[0] == "| row | X_1 | X_2 | X_3 | probability |"
    assert lines[2] == "| 1 | s | 1 | 1 | 1/10 |"
    assert lines[3] == "| 2 | s | s^2 | s^3 | 3/20 |"
    assert lines[-1] == "s = 5"


def test_csv_render(anchor_family):
    text = render_family_csv(anchor_family)
    lines = text.splitlines()
    assert lines[0] == "row,X_1,X_2,X_3,probability"
    assert lines[1] == "1,5,1,1,1/10"
    assert lines[2] == "2,5,25,125,3/20"
    assert len(lines) == 8
