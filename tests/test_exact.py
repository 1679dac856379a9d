import decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secretary_lab import (
    Comparison,
    Enclosure,
    PrecisionExhaustedError,
    compare_to_inv_e,
    decimal_str,
    e_enclosure,
    floor_n_over_e,
    format_value,
    inv_e_enclosure,
    parse_value,
    refine_until_decisive,
)
from secretary_lab import exact
from secretary_lab.exact import format_value_with_base


def _decimal_e(digits: int) -> decimal.Decimal:
    # independent route: the decimal module's correctly rounded exp
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 10
        return decimal.Decimal(1).exp()


# ---------------------------------------------------------------------------
# Value grammar.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/4", Fraction(3, 4)),
        ("7", Fraction(7)),
        ("-2/5", Fraction(-2, 5)),
        ("0", Fraction(0)),
        ("  5/2 ", Fraction(5, 2)),
    ],
)
def test_parse_plain_forms(text, expected):
    assert parse_value(text) == expected


def test_parse_power_form_needs_base():
    assert parse_value("s^3", base=Fraction(5)) == Fraction(125)
    assert parse_value("s^0", base=Fraction(5)) == Fraction(1)
    with pytest.raises(ValueError):
        parse_value("s^3")
    for text in ("s^-1", "s^0", "s^2"):
        with pytest.raises(ValueError):
            parse_value(text, base=Fraction(0))


def test_parse_rejects_garbage():
    # the last two would need more than 2^20 bits
    for bad in ("", "one", "3/", "/4", "1.5", "s^", "1/0", "s^1000000", "s^-1000000"):
        with pytest.raises(ValueError):
            parse_value(bad, base=Fraction(2))


@given(
    st.fractions(
        min_value=Fraction(-10**9), max_value=Fraction(10**9), max_denominator=10**9
    )
)
def test_format_parse_round_trip(x):
    assert parse_value(format_value(x)) == x


@given(st.integers(min_value=0, max_value=60))
def test_power_form_round_trip(exponent):
    base = Fraction(19)
    rendered = format_value_with_base(base**exponent, base)
    assert parse_value(rendered, base=base) == base**exponent
    if exponent >= 1:
        assert rendered == f"s^{exponent}"


def test_power_form_falls_back_without_base():
    assert format_value_with_base(Fraction(25), None) == "25"
    assert format_value_with_base(Fraction(3, 7), Fraction(5)) == "3/7"


# ---------------------------------------------------------------------------
# Decimal rendering.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x,digits,expected",
    [
        (Fraction(1, 3), 12, "0.333333333333"),
        (Fraction(2, 3), 12, "0.666666666667"),
        (Fraction(1, 2), 0, "1"),
        (Fraction(5, 1000), 2, "0.01"),
        (Fraction(-1, 8), 2, "-0.13"),
        (Fraction(-1, 10**6), 2, "0.00"),
        (Fraction(1703, 3125), 5, "0.54496"),
        (Fraction(3), 4, "3.0000"),
    ],
)
def test_decimal_str(x, digits, expected):
    assert decimal_str(x, digits) == expected


def test_decimal_str_rejects_negative_digits():
    with pytest.raises(ValueError):
        decimal_str(Fraction(1), -1)


def _str_renderings(x: Fraction, digits: int) -> tuple[str, str]:
    """format_value and decimal_str as they were written with str() and
    format(), which the int-to-str limit bounds."""
    exact = str(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    scale = 10**digits
    quotient, remainder = divmod(abs(x.numerator) * scale, x.denominator)
    if 2 * remainder >= x.denominator:
        quotient += 1
    sign = "-" if x < 0 and quotient > 0 else ""
    if digits == 0:
        return exact, f"{sign}{quotient}"
    integer_part, frac_part = divmod(quotient, scale)
    return exact, f"{sign}{integer_part}.{frac_part:0{digits}d}"


# |x| <= 10^600 and at most 1,000 places keep every integer within the limit.
@settings(max_examples=300, deadline=None)
@given(
    numerator=st.integers(-1000, 1000) | st.integers(-(10**600), 10**600),
    denominator=st.integers(1, 1000) | st.integers(1, 10**600),
    digits=st.integers(0, 20) | st.integers(0, 1000),
)
@example(numerator=0, denominator=1, digits=0)
@example(numerator=0, denominator=7, digits=3)
@example(numerator=-5, denominator=2, digits=0)
@example(numerator=-1, denominator=3, digits=0)
@example(numerator=-1, denominator=10**6, digits=2)
@example(numerator=-(10**600), denominator=1, digits=1000)
def test_renderings_match_the_str_forms(numerator, denominator, digits):
    x = Fraction(numerator, denominator)
    assert (format_value(x), decimal_str(x, digits)) == _str_renderings(x, digits)


@given(
    st.fractions(min_value=Fraction(0), max_value=Fraction(10), max_denominator=10**6),
    st.integers(min_value=1, max_value=20),
)
def test_decimal_str_error_bound(x, digits):
    rendered = decimal_str(x, digits)
    assert abs(Fraction(rendered) - x) <= Fraction(1, 2 * 10**digits)


# ---------------------------------------------------------------------------
# Enclosures of e and 1/e.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("digits", [5, 20, 50, 120])
def test_e_enclosure_brackets_reference(digits):
    enclosure = e_enclosure(digits)
    reference = Fraction(str(_decimal_e(digits + 5)))
    assert enclosure.lower < reference < enclosure.upper
    assert enclosure.width < Fraction(1, 10**digits)


def _e_series_from_scratch(digits: int) -> tuple[Fraction, Fraction]:
    # reference: the series counted from m = 1, each tail a Fraction
    target = Fraction(1, 10**digits)
    m, factorial_m, partial_numerator = 1, 1, 2
    while True:
        tail = Fraction(m + 2, factorial_m * (m + 1) * (m + 1))
        if tail < target:
            return Fraction(partial_numerator, factorial_m), tail
        m += 1
        factorial_m *= m
        partial_numerator = partial_numerator * m + 1


def test_e_series_resumes_to_the_same_terms():
    # Each level, computed afresh with the cache cleared, must give the
    # from-scratch pair: every level _refine reaches, every small digits
    # value (few terms, so a binary split's leaves and the first m's
    # search are at their edges) and a few odd ones.
    levels = [exact.DEFAULT_DIGITS]
    while levels[-1] < exact.MAX_DIGITS:  # each precision _refine tries
        levels.append(min(2 * levels[-1], exact.MAX_DIGITS))
    levels += list(range(1, 65)) + [333, 1000, 3201]
    exact._e_series_state.cache_clear()
    for digits in levels:
        lower, upper = (Fraction(*end) for end in exact._e_series_state(digits))
        assert (lower, upper - lower) == _e_series_from_scratch(digits), digits


@pytest.mark.parametrize("digits", [5, 20, 50])
def test_inv_e_enclosure_brackets_reference(digits):
    enclosure = inv_e_enclosure(digits)
    reference = 1 / Fraction(str(_decimal_e(digits + 10)))
    assert enclosure.lower < reference < enclosure.upper
    assert enclosure.width < Fraction(1, 10**digits)


def test_enclosure_compare_semantics():
    box = Enclosure(Fraction(1, 3), Fraction(1, 2), digits=5)
    assert box.compare(Fraction(1, 3)) is Comparison.LESS
    assert box.compare(Fraction(2, 5)) is Comparison.INDETERMINATE
    assert box.compare(Fraction(1, 2)) is Comparison.GREATER
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(1), digits=5)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    digits=st.sampled_from((5, 50, 400)),
    inverse=st.booleans(),
    end=st.sampled_from(("lower", "upper", "middle")),
    numerator=st.integers(-(10**6), 10**6),
    power=st.integers(0, 450),
)
def test_compare_on_unreduced_ends_is_the_fraction_comparison(
    digits, inverse, end, numerator, power
):
    # The ends of e's enclosure and of 1/e's are integer pairs in no
    # lowest terms; each comparison must be the one on the reduced ends,
    # ties to an end included.
    enclosure = (inv_e_enclosure if inverse else e_enclosure)(digits)
    lower, upper = (Fraction(*pair) for pair in enclosure.ends)
    assert (enclosure.lower, enclosure.upper) == (lower, upper)
    start = {"lower": lower, "upper": upper, "middle": (lower + upper) / 2}[end]
    for x in (start, start + Fraction(numerator, 10**power)):
        expected = (
            Comparison.LESS if x <= lower
            else Comparison.GREATER if x >= upper
            else Comparison.INDETERMINATE
        )
        assert enclosure.compare(x) is expected


def test_compare_to_inv_e_known_sides():
    assert compare_to_inv_e(Fraction(3679, 10000)) is Comparison.GREATER
    assert compare_to_inv_e(Fraction(3678, 10000)) is Comparison.LESS
    assert compare_to_inv_e(Fraction(1, 3)) is Comparison.LESS
    assert compare_to_inv_e(Fraction(2, 5)) is Comparison.GREATER


def _recording(produce, seen):
    def recorded(digits):
        seen.append(digits)
        return produce(digits)

    return recorded


def test_compare_refines_from_coarse_start():
    # x agrees with 1/e to about 80 places, so the 50-digit start must refine
    seen = []
    x = inv_e_enclosure(80).lower
    assert refine_until_decisive(_recording(inv_e_enclosure, seen), x) is Comparison.LESS
    assert seen == [50, 100]


def test_refinement_gives_up_at_cap(monkeypatch):
    monkeypatch.setattr(exact, "MAX_DIGITS", 100)
    tight = inv_e_enclosure(400)
    midpoint = (tight.lower + tight.upper) / 2
    seen = []
    with pytest.raises(PrecisionExhaustedError, match="undecided at 100 digits"):
        refine_until_decisive(_recording(inv_e_enclosure, seen), midpoint)
    assert seen == [50, 100]


def test_refine_until_decisive_on_custom_producer():
    coarse = e_enclosure(70)
    seen = []
    produce = _recording(e_enclosure, seen)
    assert refine_until_decisive(produce, coarse.lower) is Comparison.LESS
    assert refine_until_decisive(produce, coarse.upper) is Comparison.GREATER
    assert seen == [50, 100, 50, 100]


# ---------------------------------------------------------------------------
# floor(n/e).
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(1, 0), (2, 0), (3, 1), (100, 36)])
def test_floor_n_over_e_anchors(n, expected):
    assert floor_n_over_e(n) == expected


def test_floor_n_over_e_matches_decimal_reference():
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        e_ref = decimal.Decimal(1).exp()
        for n in range(1, 500):
            quotient = decimal.Decimal(n) / e_ref
            assert floor_n_over_e(n) == int(quotient)


def test_floor_n_over_e_rejects_nonpositive():
    with pytest.raises(ValueError):
        floor_n_over_e(0)
