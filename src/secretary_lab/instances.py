"""Instance model: value scenarios, prior families over them, and the
elementary competitive-analysis measures.

A scenario is one assignment of nonnegative values to the n candidates; a
prior family is a finite mixture of scenarios with exact probabilities,
one of which is announced as the prediction vector.  Candidate indices
are 1-based throughout the public API.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import DegenerateInstanceError, InvalidFamilyError, UndefinedErrorMeasureError
from .exact import as_fraction, format_value, format_value_with_base, parse_value


@dataclass(frozen=True)
class Scenario:
    """One row of a prior family: an id plus the candidate values.

    Values must be nonnegative rationals; ``values[i]`` is candidate
    ``i + 1`` (the API uses 1-based candidate indices, see ``value_at``).
    """

    id: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError("scenario id must be a positive integer")
        if not self.values:
            raise ValueError("scenario needs at least one value")
        # A Fraction is kept, not copied: rows of a family share their values.
        object.__setattr__(self, "values", tuple(map(as_fraction, self.values)))
        if any(v.numerator < 0 for v in self.values):  # the sign is the numerator's
            raise ValueError("scenario values must be >= 0")

    def value_at(self, index: int) -> Fraction:
        """Value of candidate ``index`` (1-based)."""
        if not 1 <= index <= len(self.values):
            raise ValueError(f"candidate index {index} out of range 1..{len(self.values)}")
        return self.values[index - 1]


@dataclass(frozen=True)
class PriorFamily:
    """Scenarios with exact mixture probabilities and a designated
    prediction scenario.

    The constructor checks every invariant (``validate_family``) and
    raises one InvalidFamilyError listing each violation, so a broken
    input is still fully diagnosed and every family that exists is valid.
    """

    n: int
    scenarios: tuple[Scenario, ...]
    probabilities: tuple[Fraction, ...]
    prediction_id: int
    base: Fraction | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(
            self, "probabilities", tuple(map(as_fraction, self.probabilities))
        )
        if self.base is not None:
            object.__setattr__(self, "base", as_fraction(self.base))
        if len(self.scenarios) != len(self.probabilities):
            raise ValueError("scenarios and probabilities must have equal length")
        if not self.scenarios:
            raise ValueError("family needs at least one scenario")
        if violations := validate_family(self):
            raise InvalidFamilyError(violations)

    def scenario_by_id(self, scenario_id: int) -> Scenario:
        for scenario in self.scenarios:
            if scenario.id == scenario_id:
                return scenario
        raise KeyError(f"no scenario with id {scenario_id}")

    def prediction(self) -> Scenario:
        """The scenario whose values are announced as predictions."""
        return self.scenario_by_id(self.prediction_id)

    def probability_of(self, scenario_id: int) -> Fraction:
        for scenario, probability in zip(self.scenarios, self.probabilities):
            if scenario.id == scenario_id:
                return probability
        raise KeyError(f"no scenario with id {scenario_id}")

    def items(self):
        """Pairs (scenario, probability) in declaration order."""
        return tuple(zip(self.scenarios, self.probabilities))


# ---------------------------------------------------------------------------
# Elementary measures.
# ---------------------------------------------------------------------------

def scenario_max(scenario: Scenario) -> Fraction:
    """Exact maximum candidate value of the scenario."""
    return max(scenario.values)


def competitive_ratio(accepted_value: Fraction | None, scenario: Scenario) -> Fraction:
    """Accepted value divided by the scenario maximum; 0 when nothing was
    accepted.

    The accepted value must be one of the scenario's values, and the
    scenario must have a positive maximum for the ratio to be defined.
    """
    best = scenario_max(scenario)
    if best == 0:
        raise DegenerateInstanceError(
            f"scenario {scenario.id} is all-zero; competitive ratio undefined"
        )
    if accepted_value is None:
        return Fraction(0)
    accepted_value = Fraction(accepted_value)
    if accepted_value not in scenario.values:
        raise ValueError(
            f"accepted value {format_value(accepted_value)} is not a value of "
            f"scenario {scenario.id}"
        )
    return accepted_value / best


def prediction_error(values, predictions) -> Fraction:
    """Maximum multiplicative error max_i |1 - predicted_i / true_i|.

    Undefined (raises) when any true value is zero.
    """
    values = [Fraction(v) for v in values]
    predictions = [Fraction(p) for p in predictions]
    if len(values) != len(predictions):
        raise ValueError("values and predictions must have equal length")
    if any(v == 0 for v in values):
        raise UndefinedErrorMeasureError(
            "prediction error undefined: some true value is 0"
        )
    return max(abs(1 - p / v) for v, p in zip(values, predictions))


def validate_family(family: PriorFamily) -> tuple[str, ...]:
    """Check every family invariant and return the violations instead of
    raising; the PriorFamily constructor runs it and raises on any, so on
    every family that exists it returns ().  The mass is summed once per
    distinct probability, counted by (numerator, denominator) as the
    solver numbers values, so no probability is hashed as a Fraction."""
    violations: list[str] = []
    if family.n < 1:
        violations.append(f"candidate count n = {family.n} must be >= 1")
    ids = [scenario.id for scenario in family.scenarios]
    if len(set(ids)) != len(ids):
        violations.append("ids not unique")
    for scenario in family.scenarios:
        if len(scenario.values) != family.n:
            violations.append(
                f"scenario {scenario.id} has {len(scenario.values)} values, expected n = {family.n}"
            )
    for scenario, probability in family.items():
        if probability < 0:
            violations.append(
                f"scenario {scenario.id} has negative probability {format_value(probability)}"
            )
    # a family's rows mostly share one probability
    counts = Counter((p.numerator, p.denominator) for p in family.probabilities)
    mass = sum(
        (Fraction(num * count, den) for (num, den), count in counts.items()), Fraction(0)
    )
    if mass != 1:
        violations.append(f"mass != 1 (probabilities sum to {format_value(mass)})")
    if family.prediction_id not in ids:
        violations.append(f"prediction_id {family.prediction_id} refers to no scenario")
    return tuple(violations)


# ---------------------------------------------------------------------------
# File format: UTF-8 JSON with all values in the text grammar.
# ---------------------------------------------------------------------------

def family_to_dict(family: PriorFamily) -> dict:
    base = family.base
    payload: dict = {"n": family.n}
    if base is not None:
        payload["base_s"] = format_value(base)
    payload["scenarios"] = [
        {
            "id": scenario.id,
            "values": [format_value_with_base(v, base) for v in scenario.values],
            "probability": format_value(probability),
        }
        for scenario, probability in family.items()
    ]
    payload["prediction_id"] = family.prediction_id
    return payload


def family_from_dict(payload: dict) -> PriorFamily:
    """Family from the file format's JSON object.

    Raises InvalidFamilyError when the object, a scenario entry or a
    field has the wrong JSON type, so that a malformed file is refused
    instead of being read in some other way.
    """
    _shaped(payload, dict, "a family file")
    base = None
    if payload.get("base_s") is not None:
        base = parse_value(_shaped(payload["base_s"], str, '"base_s"'))
    scenarios = []
    probabilities = []
    for position, entry in enumerate(_field(payload, "scenarios", list, "the family"), 1):
        where = f"scenario entry {position}"
        _shaped(entry, dict, where)
        values = _field(entry, "values", list, where)
        scenarios.append(
            Scenario(
                id=_field(entry, "id", int, where),
                values=tuple(
                    parse_value(_shaped(v, str, f"value {i} of {where}"), base)
                    for i, v in enumerate(values, 1)
                ),
            )
        )
        probabilities.append(parse_value(_field(entry, "probability", str, where), base))
    return PriorFamily(
        n=_field(payload, "n", int, "the family"),
        scenarios=tuple(scenarios),
        probabilities=tuple(probabilities),
        prediction_id=_field(payload, "prediction_id", int, "the family"),
        base=base,
    )


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _shaped(value, kind: type, what: str):
    """``value`` if it has JSON type ``kind``; true and false are no integers."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InvalidFamilyError(
            [f"{what} must be {_JSON_TYPES[kind]}, not {type(value).__name__}"]
        )
    return value


def _field(entry: dict, key: str, kind: type, where: str):
    if key not in entry:
        raise InvalidFamilyError([f"{where} has no {key!r} field"])
    return _shaped(entry[key], kind, f"{key!r} of {where}")


def render_family_json(family: PriorFamily) -> str:
    return json.dumps(family_to_dict(family), indent=2, sort_keys=False) + "\n"


def read_json(path: str | Path):
    """Parse a JSON file, refusing a key repeated within one object
    (``json.loads`` alone would keep its last copy)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("the JSON nests too deeply") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    payload = dict(pairs)
    if len(payload) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r} in a JSON object")
            seen.add(key)
    return payload


def load_family(path: str | Path) -> PriorFamily:
    return family_from_dict(read_json(path))
