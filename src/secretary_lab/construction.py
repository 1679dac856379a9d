"""Generator for the hard prior family against 1-consistent stopping rules.

The family has 2k-1 rows over n >= 3 candidates.  Row 1 is the announced
prediction (s, 1, ..., 1) with mixture probability ``mix_eps``; the
remaining rows split the rest of the mass evenly and arrange powers of s
in columns 2 and 3 so that every power s^i with 3 <= i <= k appears twice
per column, making the two matching rows indistinguishable when that
column arrives first.  Columns beyond the third are 1 in every row, which
pads the construction to larger n without changing the analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .errors import ParameterError
from .exact import format_value, format_value_with_base
from .instances import PriorFamily, Scenario

Column = Literal[2, 3]

# The most digits a family's values may hold, refused before any value is
# built (see ConstructionParams.digit_work).  Near the cap (s = 5,
# k = 5960) gen took 3 s and verify 5 s in 230 MB on a 2-core x86 machine
# under Python 3.11; bounds --s 400 --k 2000 needs 2.1e7.
MAX_DIGIT_WORK = 5 * 10**7
# The most values, (2k - 1) * n, a family may hold, refused before any is
# built: about 3.5 s of gen at 17 us per value on the machine above.
MAX_VALUES = 2 * 10**5


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters (mix_eps, s, k, n) of the hard family.

    k must be even (the swap-pair pattern is only defined for even k) and
    at least 4, the structural minimum for the pattern; n >= 3; s > 1;
    mix_eps strictly inside (0, 1); digit_work at most MAX_DIGIT_WORK;
    (2k - 1) * n values at most MAX_VALUES.
    """

    mix_eps: Fraction
    s: Fraction
    k: int
    n: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "mix_eps", Fraction(self.mix_eps))
        object.__setattr__(self, "s", Fraction(self.s))
        if not 0 < self.mix_eps < 1:
            raise ParameterError(
                f"mix_eps must lie strictly in (0, 1), got {format_value(self.mix_eps)}"
            )
        if self.s <= 1:
            raise ParameterError(f"s must be > 1, got {format_value(self.s)}")
        if self.k % 2 != 0:
            raise ParameterError(f"k must be even, got {self.k}")
        if self.k < 4:
            raise ParameterError(f"k must be >= 4, got {self.k}")
        if self.n < 3:
            raise ParameterError(f"n must be >= 3, got {self.n}")
        # Each power of s > 1 has at least log10(2) digits, so a k past the
        # cap is refused on its own, before any float is formed or its
        # digits are echoed.
        if self.k > MAX_DIGIT_WORK or self.digit_work > MAX_DIGIT_WORK:
            shown = f"k = {self.k}" if self.k <= MAX_DIGIT_WORK else f"k > {MAX_DIGIT_WORK:.0e}"
            raise ParameterError(
                f"{shown} is too large for s: the family's values would hold "
                f"more than {MAX_DIGIT_WORK:.0e} digits ((k + 1) * log10(s) "
                "in each of 2k - 1 rows)"
            )
        if self.row_count * self.n > MAX_VALUES:
            raise ParameterError(
                f"n = {self.n} is too large for k: the family would hold "
                f"(2k - 1) * n = {self.row_count * self.n} values, more than {MAX_VALUES}"
            )

    @property
    def row_count(self) -> int:
        return 2 * self.k - 1

    @property
    def digit_work(self) -> float:
        """About how many digits the family's values hold: up to s^(k+1),
        (k + 1) * log10(s) digits with numerator and denominator counted,
        in each of its 2k - 1 rows."""
        per_power = math.log10(self.s.numerator) + math.log10(self.s.denominator)
        return (self.k + 1) * per_power * self.row_count


def row_exponents(row: int, k: int) -> tuple[int, int]:
    """Exponents (e2, e3) of columns 2 and 3 in the given row (2 <= row <= 2k-1).

    Rows pair up as (2t, 2t+1) carrying exponents {t+1, t+2}; within pair
    t the even-indexed row takes the lower exponent in column 2 for odd t
    and the higher one for even t, the odd-indexed row the reverse.
    """
    if not 2 <= row <= 2 * k - 1:
        raise ParameterError(f"row {row} outside 2..{2 * k - 1}")
    t = row // 2
    low, high = t + 1, t + 2
    even_row = row % 2 == 0
    if (t % 2 == 1) == even_row:
        return low, high
    return high, low


def build_hard_family(params: ConstructionParams) -> PriorFamily:
    """Deterministically build the hard family for the given parameters.

    Each power s^e is computed once, as s^(e-1) * s, and every row that
    shows it holds that one object, as every tail row holds one
    probability."""
    k, n = params.k, params.n
    power = [params.s ** 0]  # s^0 .. s^(k+1)
    for _ in range(k + 1):
        power.append(power[-1] * params.s)
    one, s = power[0], power[1]
    padding = (one,) * (n - 3)
    scenarios = [Scenario(id=1, values=(s, one, one) + padding)]
    probabilities = [params.mix_eps]
    tail_probability = (1 - params.mix_eps) / (2 * k - 2)
    for row in range(2, 2 * k):
        e2, e3 = row_exponents(row, k)
        scenarios.append(Scenario(id=row, values=(s, power[e2], power[e3]) + padding))
        probabilities.append(tail_probability)
    return PriorFamily(
        n=n,
        scenarios=tuple(scenarios),
        probabilities=tuple(probabilities),
        prediction_id=1,
        base=s,
    )


def first_appearance_row(i: int, k: int) -> int:
    """First row whose column-2 entry is s^i, in closed form: 2i - 4 + (i mod 2)."""
    if not 3 <= i <= k + 1:
        raise ParameterError(f"exponent {i} outside 3..{k + 1}")
    return 2 * i - 4 + (i % 2)


def confusion_pair_rows(i: int, column: Column, k: int) -> tuple[int, int]:
    """The two rows whose given column equals s^i (3 <= i <= k).

    Found by scanning the exponent pattern; the closed form
    (2i - 4 + (i mod 2), 2i - 2 + (i mod 2)) for column 2 and its swap
    partners for column 3 is checked against the scan.
    """
    if column not in (2, 3):
        raise ParameterError(f"column must be 2 or 3, got {column}")
    if not 3 <= i <= k:
        raise ParameterError(
            f"exponent {i} outside 3..{k}: s^2 and s^{k + 1} occur once per column, not twice"
        )
    matches = tuple(
        row
        for row in range(2, 2 * k)
        if row_exponents(row, k)[0 if column == 2 else 1] == i
    )
    if column == 2:
        closed_form = (2 * i - 4 + (i % 2), 2 * i - 2 + (i % 2))
    else:
        closed_form = tuple(sorted(swap_partner_row(r) for r in
                                   (2 * i - 4 + (i % 2), 2 * i - 2 + (i % 2))))
    if matches != closed_form:
        raise RuntimeError(
            f"pattern scan {matches} disagrees with closed form {closed_form}"
        )
    return matches


def swap_partner_row(row: int) -> int:
    """The other member of a swap pair: (2t, 2t+1) map to each other."""
    if row < 2:
        raise ParameterError("row 1 has no swap partner")
    return row + 1 if row % 2 == 0 else row - 1


# ---------------------------------------------------------------------------
# Table renderings.
# ---------------------------------------------------------------------------

def render_family_markdown(family: PriorFamily) -> str:
    """Markdown table with one line per row: id, candidate values, probability."""
    n = family.n
    header = ["row"] + [f"X_{j}" for j in range(1, n + 1)] + ["probability"]
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for scenario, probability in family.items():
        cells = [str(scenario.id)]
        # the table reads better with bare "s" for the first power
        cells += [
            "s" if (rendered := format_value_with_base(v, family.base)) == "s^1"
            else rendered
            for v in scenario.values
        ]
        cells.append(format_value(probability))
        lines.append("| " + " | ".join(cells) + " |")
    if family.base is not None:
        lines.append("")
        lines.append(f"s = {format_value(family.base)}")
    return "\n".join(lines) + "\n"


def render_family_csv(family: PriorFamily) -> str:
    """CSV with the same layout as the Markdown table, values fully expanded."""
    n = family.n
    header = ["row"] + [f"X_{j}" for j in range(1, n + 1)] + ["probability"]
    lines = [",".join(header)]
    for scenario, probability in family.items():
        cells = [str(scenario.id)]
        cells += [format_value(v) for v in scenario.values]
        cells.append(format_value(probability))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
