"""Exact optimal stopping against a prior family of value scenarios.

The decision process: a scenario is drawn from the family, the candidates
arrive in a uniformly random order (independent of the scenario), and at
each arrival the decision maker sees the candidate's identity and value
and must irrevocably accept or reject.  The reward is the accepted value;
the objective is the expected competitive ratio (accepted value over the
realized scenario's maximum, 0 if nothing is accepted).

A policy is a table keyed on full observation histories, the arrivals in
the order they came.  The values behind it depend only on which arrivals
have been seen, not on their order: the posterior, the accept value, the
consistency constraint and the value after a reject are all functions of
the set of arrivals.  Backward induction therefore computes each value
once per set of arrivals, with exact posterior weights, and copies the
decision to every ordered history that reaches that set.  An optional
hard constraint restricts actions so that the resulting policy is
guaranteed to pick a maximum-value candidate whenever the announced
predictions are exactly correct, for every arrival order.

The induction is exact without Fraction arithmetic: it holds every value
as a Python integer on one scale fixed per family (row weights p_r / max_r
over their common denominator L, candidate values over theirs, V) and
divides once per solve, by n! * V * L.  Policy evaluation, the
independent check on it, uses plain Fractions.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence

from .errors import (
    DegenerateInstanceError,
    EnumerationGuardError,
    MissingStateError,
    UnreachableStateError,
)
from .exact import format_value, parse_value, render_number
from .instances import (
    PriorFamily,
    Scenario,
    competitive_ratio,
    require_valid_family,
    scenario_max,
)

MAX_ENUMERATION_N = 8


class Action(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"


BOTH_ACTIONS = frozenset((Action.ACCEPT, Action.REJECT))

History = tuple[tuple[int, Fraction], ...]
Arrival = tuple[int, Fraction]
# A decision rule: the action at the current arrival, given the arrivals
# rejected so far in the order they came.
DecideFn = Callable[[History, Arrival], Action]


@dataclass(frozen=True)
class InformationState:
    """Ordered record of rejected arrivals plus the arrival awaiting a
    decision; candidate indices are 1-based and distinct."""

    observed: tuple[tuple[int, Fraction], ...]
    current: tuple[int, Fraction]

    def __post_init__(self) -> None:
        # The solver and the evaluator build hundreds of thousands of
        # states from arrivals that are already (int, Fraction) tuples;
        # keeping them lets the states of a policy table share one copy.
        if type(self.observed) is not tuple or not all(
            map(_is_arrival, self.observed)
        ):
            object.__setattr__(
                self,
                "observed",
                tuple((int(i), Fraction(v)) for i, v in self.observed),
            )
        if not _is_arrival(self.current):
            object.__setattr__(
                self, "current", (int(self.current[0]), Fraction(self.current[1]))
            )
        indices = [i for i, _ in self.observed] + [self.current[0]]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate candidate indices in state: {indices}")

    def arrivals(self) -> tuple[tuple[int, Fraction], ...]:
        """All arrivals in order, the current one last."""
        return self.observed + (self.current,)

    def arrived_indices(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.arrivals())

    def serialize(self, render_arrival: Callable[[Arrival], str] | None = None) -> str:
        """The state as text, each arrival rendered by ``render_arrival``
        (default ``_render_arrival``)."""
        render = render_arrival or _render_arrival
        return ",".join(map(render, self.observed)) + "|current=" + render(self.current)

    @classmethod
    def parse(
        cls, text: str, parse_arrival: Callable[[str], Arrival] | None = None
    ) -> "InformationState":
        """The inverse of ``serialize``, each arrival parsed by
        ``parse_arrival`` (default ``_parse_arrival``)."""
        parse = parse_arrival or _parse_arrival
        prefix, _, current_text = text.partition("|current=")
        observed = tuple(parse(item) for item in prefix.split(",") if item)
        return cls(observed=observed, current=parse(current_text))


def _is_arrival(item) -> bool:
    return (
        type(item) is tuple
        and len(item) == 2
        and type(item[0]) is int
        and type(item[1]) is Fraction
    )


def _render_arrival(arrival: Arrival) -> str:
    """One arrival as it appears in a serialized state: "(i:v)"."""
    index, value = arrival
    return f"({index}:{format_value(value)})"


def _parse_arrival(item: str) -> tuple[int, Fraction]:
    inner = item.strip().strip("()")
    index_text, _, value_text = inner.partition(":")
    return int(index_text), parse_value(value_text)


class Policy:
    """Deterministic action map over information states."""

    def __init__(self, actions: dict[InformationState, Action] | None = None):
        self.actions: dict[InformationState, Action] = dict(actions or {})

    def action_for(self, state: InformationState) -> Action:
        try:
            return self.actions[state]
        except KeyError:
            raise MissingStateError(state.serialize()) from None

    def decide(self, observed: History, current: Arrival) -> Action:
        """The table as a decision rule."""
        return self.action_for(InformationState(observed, current))

    def __len__(self) -> int:
        return len(self.actions)

    def __eq__(self, other) -> bool:
        return isinstance(other, Policy) and self.actions == other.actions

    def to_dict(self) -> dict[str, str]:
        # Solved and loaded tables share one tuple per distinct arrival,
        # so each is rendered once, found by identity: hashing it would
        # hash its Fraction.  The states keep every arrival alive during
        # the call.
        rendered: dict[int, str] = {}

        def render(arrival: Arrival) -> str:
            text = rendered.get(id(arrival))
            if text is None:
                text = rendered[id(arrival)] = _render_arrival(arrival)
            return text

        entries = {
            state.serialize(render): action.value
            for state, action in self.actions.items()
        }
        return dict(sorted(entries.items()))

    @classmethod
    def from_dict(cls, payload: dict[str, str]) -> "Policy":
        if not isinstance(payload, dict):
            raise ValueError(
                "policy must be a JSON object mapping states to actions, "
                f"not {type(payload).__name__}"
            )
        # Each distinct arrival text is parsed once, and its states share
        # the one tuple, as in a solved table.
        parse = functools.cache(_parse_arrival)
        return cls(
            {
                InformationState.parse(key, parse): Action(value)
                for key, value in payload.items()
            }
        )

    def to_json(self) -> str:
        """The policy file's text: sorted states, two-space indent."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Policy":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class SolveReport:
    """Solver or evaluator output: mixture optimum, per-row conditional
    expected ratios, and the worst row (the robustness certificate)."""

    optimum: Fraction
    policy: Policy
    per_row: dict[int, Fraction]
    worst_row: tuple[int, Fraction]
    constrained: bool | None = None

    def to_dict(self, digits: int = 12) -> dict:
        return {
            "optimum": render_number(self.optimum, digits),
            "per_row": {
                str(row_id): render_number(v, digits)
                for row_id, v in sorted(self.per_row.items())
            },
            "worst_row": {
                "id": self.worst_row[0],
                "ratio": render_number(self.worst_row[1], digits),
            },
            "constrained": self.constrained,
            "policy_states": len(self.policy),
        }


# ---------------------------------------------------------------------------
# Posteriors and the consistency constraint.
# ---------------------------------------------------------------------------

def posterior(family: PriorFamily, state: InformationState) -> dict[int, Fraction]:
    """Exact Bayes posterior over rows given the observation history.

    The arrival order is uniform and independent of the row, so the order
    likelihood cancels and the posterior is the prior restricted to rows
    whose values match every observed arrival.
    """
    arrivals = state.arrivals()
    if len(arrivals) > family.n:
        raise UnreachableStateError("more arrivals than candidates")
    for index, _ in arrivals:
        if not 1 <= index <= family.n:
            raise UnreachableStateError(f"candidate index {index} out of range 1..{family.n}")
    masses: dict[int, Fraction] = {}
    total = Fraction(0)
    for scenario, probability in family.items():
        if all(scenario.value_at(i) == v for i, v in arrivals):
            masses[scenario.id] = probability
            total += probability
        else:
            masses[scenario.id] = Fraction(0)
    if total == 0:
        raise UnreachableStateError(
            f"state {state.serialize()} has probability 0 under the family"
        )
    return {row_id: mass / total for row_id, mass in masses.items()}


def consistent_actions(
    prediction: Scenario, state: InformationState
) -> frozenset[Action]:
    """Actions available to a policy that must select a maximum-value
    candidate whenever the predictions are exactly right, under every order.

    Off the prediction path (some observed value contradicts the
    prediction) the constraint is vacuous.  On the path, accepting is
    allowed only for a candidate whose predicted value attains the
    predicted maximum, and rejecting only while such a candidate has yet
    to arrive.  If every predicted maximum has already been rejected the
    requirement is already forfeited on this branch (no constrained
    policy reaches it), so the constraint is vacuous there as well.
    """
    arrivals = state.arrivals()
    if any(prediction.value_at(i) != v for i, v in arrivals):
        return BOTH_ACTIONS
    best = scenario_max(prediction)
    accept_ok = prediction.value_at(state.current[0]) == best
    arrived = state.arrived_indices()
    future = [j for j in range(1, len(prediction.values) + 1) if j not in arrived]
    reject_ok = any(prediction.value_at(j) == best for j in future)
    if not accept_ok and not reject_ok:
        return BOTH_ACTIONS
    allowed = set()
    if accept_ok:
        allowed.add(Action.ACCEPT)
    if reject_ok:
        allowed.add(Action.REJECT)
    return frozenset(allowed)


# ---------------------------------------------------------------------------
# Backward induction.
# ---------------------------------------------------------------------------

def _checked_family(family: PriorFamily) -> list[tuple[Scenario, Fraction]]:
    require_valid_family(family)
    if family.n > MAX_ENUMERATION_N:
        raise EnumerationGuardError(
            f"n = {family.n} too large for exact enumeration (max {MAX_ENUMERATION_N}); "
            "use monte_carlo_estimate beyond that"
        )
    support = [(s, p) for s, p in family.items() if p > 0]
    for scenario, _ in support:
        if scenario_max(scenario) == 0:
            raise DegenerateInstanceError(
                f"scenario {scenario.id} has positive probability but no positive value"
            )
    return support


def _branches(
    n: int,
    observed: tuple[tuple[int, Fraction], ...],
    branch: list[tuple[Scenario, Fraction]],
):
    """The chance step after ``observed``: yields ``(j, value, sub)`` for
    each candidate j that has not arrived, in ascending order, and each
    value j takes in ``branch``, in first-seen row order, where ``sub``
    holds the rows of ``branch`` that show that value.

    This order fixes the state order of reachable_states, and with it
    random_policy per seed and the traversal of every solver walk.
    """
    arrived = {i for i, _ in observed}
    for j in range(1, n + 1):
        if j in arrived:
            continue
        groups: dict[Fraction, list[tuple[Scenario, Fraction]]] = {}
        for scenario, mass in branch:
            groups.setdefault(scenario.value_at(j), []).append((scenario, mass))
        for value, sub in groups.items():
            yield j, value, sub


def solve_optimal(family: PriorFamily, constrained: bool) -> SolveReport:
    """Exact optimal deterministic policy by backward induction, optionally
    restricted to the consistency constraint.

    The induction runs once per set of arrivals: the value after a set of
    rejections is memoised on that set, and the decision at a state on
    the set plus the current arrival.  One depth-first walk over the
    history tree visits every ordered history the induction enters and
    copies the decision of its set to it, so the policy table is keyed
    on ordered histories.

    Values are integers on one scale.  Row r weighs W_r = L * p_r / max_r
    and value v counts v * V, where L and V are the least common multiples
    of the denominators of the p_r / max_r and of the values.  At a state
    with d rejected arrivals the accept value is
    (n - d - 1)! * v * V * (sum of W_r over the rows still possible), a
    chance node is the plain sum of its child states, and rejecting the
    last arrival is worth 0.  Each is the true value times the rows'
    probability mass times (n - d - 1)! * V * L, a positive factor shared
    by both actions at a state, so every comparison, ties included, is
    the one on true values; the optimum is the root's integer divided by
    n! * V * L.  It is checked against evaluate_policy.

    Ties between equal-valued actions resolve toward accepting, so the
    returned policy is a deterministic function of the family alone.
    """
    support = _checked_family(family)
    prediction = family.prediction()
    n = family.n
    weights = [probability / scenario_max(scenario) for scenario, probability in support]
    weight_scale = math.lcm(*(w.denominator for w in weights))  # L
    rows = [
        (scenario, w.numerator * (weight_scale // w.denominator))
        for (scenario, _), w in zip(support, weights)
    ]
    values = list(dict.fromkeys(v for scenario, _ in support for v in scenario.values))
    value_scale = math.lcm(*(v.denominator for v in values))  # V
    scaled_values = [v.numerator * (value_scale // v.denominator) for v in values]
    value_ids = {v: vid for vid, v in enumerate(values)}
    # Each row's value ids by 0-based column, so that no memo key hashes
    # a Fraction: a key names an arrival by its (candidate, value id) pair.
    row_value_ids = {
        scenario.id: [value_ids[v] for v in scenario.values] for scenario, _ in support
    }
    factorials = [math.factorial(m) for m in range(n)]
    # One tuple per distinct arrival, shared by every state of the table.
    arrivals: dict[tuple[int, int], tuple[int, Fraction]] = {}
    actions: dict[InformationState, Action] = {}
    chances: dict[frozenset, int] = {}
    decisions: dict[tuple[frozenset, tuple[int, int]], tuple[Action, int, bool]] = {}

    def decide(
        state: InformationState,
        seen: frozenset,
        pair: tuple[int, int],
        branch: list[tuple[Scenario, int]],
    ) -> tuple[Action, int]:
        """Action and scaled value at ``state``, whose rejected arrivals
        form the set ``seen`` and whose current arrival is ``pair``, both
        as (candidate, value id) pairs; descends into the ordered subtree
        after a reject whenever rejecting is allowed, so every history in
        it is recorded."""
        key = (seen, pair)
        known = decisions.get(key)
        if known is not None:
            action, value, descend = known
            if descend:
                chance(state.arrivals(), seen | {pair}, branch)
            return action, value
        allowed = consistent_actions(prediction, state) if constrained else BOTH_ACTIONS
        descend = False
        depth = len(state.observed)
        if depth + 1 == n:
            reject_value = 0
        elif Action.REJECT in allowed:
            descend = True
            reject_value = chance(state.arrivals(), seen | {pair}, branch)
        else:
            reject_value = None
        accept_value = (
            factorials[n - depth - 1]
            * scaled_values[pair[1]]
            * sum(weight for _, weight in branch)
        )
        if Action.ACCEPT in allowed and (
            reject_value is None or accept_value >= reject_value
        ):
            action, value = Action.ACCEPT, accept_value
        else:
            action = Action.REJECT
            value = reject_value if reject_value is not None else 0
        decisions[key] = (action, value, descend)
        return action, value

    def chance(
        observed: tuple[tuple[int, Fraction], ...],
        seen: frozenset,
        branch: list[tuple[Scenario, int]],
    ) -> int:
        """Scaled value once ``observed`` (the set ``seen``) has been
        rejected, the sum of its children's; records the action of every
        ordered state that follows."""
        known = chances.get(seen)
        acc = 0
        for j, value, sub in _branches(n, observed, branch):
            pair = (j, row_value_ids[sub[0][0].id][j - 1])
            state = InformationState(observed, arrivals.setdefault(pair, (j, value)))
            action, state_value = decide(state, seen, pair, sub)
            actions[state] = action
            acc += state_value
        if known is None:
            chances[seen] = known = acc
        return known

    try:
        scaled_optimum = chance((), frozenset(), rows)
    finally:
        # decide and chance refer to each other, so without this the
        # tables would live on until the cycle collector runs.
        chances.clear()
        decisions.clear()
    optimum = Fraction(scaled_optimum, math.factorial(n) * value_scale * weight_scale)
    policy = Policy(actions)
    evaluation = evaluate_policy(policy, family)
    if evaluation.optimum != optimum:
        raise RuntimeError(
            "backward induction and policy evaluation disagree: "
            f"{format_value(optimum)} vs {format_value(evaluation.optimum)}"
        )
    return SolveReport(
        optimum=optimum,
        policy=policy,
        per_row=evaluation.per_row,
        worst_row=evaluation.worst_row,
        constrained=constrained,
    )


# ---------------------------------------------------------------------------
# Direct policy evaluation (the independent path used to cross-check the
# induction and to score arbitrary policies).
# ---------------------------------------------------------------------------

def _simulate(
    policy: Policy, scenario: Scenario, order: tuple[int, ...]
) -> Fraction | None:
    """Run the policy on one arrival order; returns the accepted value."""
    observed: tuple[tuple[int, Fraction], ...] = ()
    for index in order:
        arrival = (index, scenario.value_at(index))
        state = InformationState(observed, arrival)
        if policy.action_for(state) is Action.ACCEPT:
            return arrival[1]
        observed += (arrival,)
    return None


def evaluate_policy(policy: Policy, family: PriorFamily) -> SolveReport:
    """Exact mixture expectation of a policy over every (row, arrival
    order) pair, tallied by ``_tally`` so that each (row, prefix) state is
    looked up once.

    Rows with probability zero are not part of the mixture and are left
    out of the per-row map.  Raises InvalidFamilyError on a family that
    validate_family rejects.
    """
    mixture, per_row = _exact_ratios(policy.decide, family)
    worst_id = min(per_row, key=lambda row_id: (per_row[row_id], row_id))
    return SolveReport(
        optimum=mixture,
        policy=policy,
        per_row=per_row,
        worst_row=(worst_id, per_row[worst_id]),
        constrained=None,
    )


def _exact_ratios(
    decide: DecideFn, family: PriorFamily
) -> tuple[Fraction, dict[int, Fraction]]:
    """Mixture expected ratio of a decision rule and its conditional
    expected ratio on each row of positive probability, over all n!
    arrival orders of every row.

    A row's conditional ratio is its accepted values summed over the
    orders, divided once by its maximum times the number of orders."""
    support = _checked_family(family)
    orders = list(itertools.permutations(range(1, family.n + 1)))
    mixture = Fraction(0)
    per_row: dict[int, Fraction] = {}
    for scenario, probability in support:
        accepted_total = Fraction(0)
        for accepted, count in _tally(decide, scenario, orders).items():
            if accepted is None:
                continue
            if accepted not in scenario.values:
                raise ValueError(
                    f"accepted value {accepted} is not a value of scenario {scenario.id}"
                )
            accepted_total += count * accepted
        per_row[scenario.id] = conditional = accepted_total / (
            scenario_max(scenario) * len(orders)
        )
        mixture += probability * conditional
    return mixture, per_row


def _tally(
    decide: DecideFn, scenario: Scenario, orders: Sequence[Sequence[int]]
) -> Counter[Fraction | None]:
    """How many of ``orders`` (1-based arrival orders of equal length) end
    with each accepted value (``None``: nothing accepted) when ``decide``
    runs on ``scenario``.  Sorted, the orders sharing a prefix form one run,
    so each distinct prefix is decided once; an acceptance counts its run."""
    ordered = sorted(orders)
    counts: Counter[Fraction | None] = Counter()

    def walk(observed: History, lo: int, hi: int) -> None:
        depth = len(observed)
        if depth == len(ordered[lo]):
            counts[None] += hi - lo
            return
        key = itemgetter(depth)
        while lo < hi:
            index = ordered[lo][depth]
            end = bisect.bisect_right(ordered, index, lo, hi, key=key)
            arrival = (index, scenario.value_at(index))
            if decide(observed, arrival) is Action.ACCEPT:
                counts[arrival[1]] += end - lo
            else:
                walk(observed + (arrival,), lo, end)
            lo = end

    if ordered:
        walk((), 0, len(ordered))
    return counts


def is_consistent(policy: Policy, prediction: Scenario) -> bool:
    """True iff the policy accepts a maximum-value candidate under every
    arrival order of the prediction scenario, read off the scenario's
    tally of accepted values."""
    orders = itertools.permutations(range(1, len(prediction.values) + 1))
    counts = _tally(policy.decide, prediction, list(orders))
    return counts.keys() == {scenario_max(prediction)}


# ---------------------------------------------------------------------------
# State enumeration, random policies, and the brute-force oracle.
# ---------------------------------------------------------------------------

def reachable_states(family: PriorFamily) -> list[InformationState]:
    """All information states with positive probability, in deterministic
    depth-first order."""
    support = _checked_family(family)
    n = family.n
    states: list[InformationState] = []

    def walk(observed, branch):
        for j, value, sub in _branches(n, observed, branch):
            states.append(InformationState(observed, (j, value)))
            if len(observed) + 1 < n:
                walk(observed + ((j, value),), sub)

    walk((), support)
    return states


def random_policy(
    family: PriorFamily, seed: int, constrained: bool = True
) -> Policy:
    """Uniformly random action at every reachable state, restricted to the
    consistency constraint when asked; deterministic per seed."""
    rng = random.Random(seed)
    prediction = family.prediction()
    actions = {}
    for state in reachable_states(family):
        allowed = consistent_actions(prediction, state) if constrained else BOTH_ACTIONS
        choice = rng.choice(sorted(allowed, key=lambda a: a.value))
        actions[state] = choice
    return Policy(actions)


def brute_force_optimum(
    family: PriorFamily,
    constrained: bool = True,
    max_policies_per_subtree: int = 200_000,
) -> Fraction:
    """Best expected ratio over all deterministic policies by explicit
    enumeration, independent of the backward induction.

    The first arrival is a chance event, so complete policies factor into
    independent sub-policies, one per (first candidate, first value)
    subtree; each subtree's sub-policies are enumerated exhaustively and
    scored by direct simulation over the (row, order) pairs that enter the
    subtree.  Only feasible at small sizes; the per-subtree cap guards
    against accidental blow-ups.
    """
    support = _checked_family(family)
    prediction = family.prediction()
    n = family.n
    orders = list(itertools.permutations(range(1, n + 1)))
    order_weight = Fraction(1, len(orders))

    def subpolicies(observed, current, branch):
        state = InformationState(observed, current)
        allowed = consistent_actions(prediction, state) if constrained else BOTH_ACTIONS
        results: list[dict[InformationState, Action]] = []
        if Action.ACCEPT in allowed:
            results.append({state: Action.ACCEPT})
        if Action.REJECT in allowed:
            if len(observed) + 1 == n:
                results.append({state: Action.REJECT})
            else:
                next_observed = observed + (current,)
                child_lists = [
                    subpolicies(next_observed, (j, value), sub)
                    for j, value, sub in _branches(n, next_observed, branch)
                ]
                for combo in itertools.product(*child_lists):
                    merged = {state: Action.REJECT}
                    for part in combo:
                        merged.update(part)
                    results.append(merged)
                    if len(results) > max_policies_per_subtree:
                        raise EnumerationGuardError(
                            "sub-policy enumeration exceeded the cap; "
                            "family too large for brute force"
                        )
        return results

    total = Fraction(0)
    for j, value, sub in _branches(n, (), support):
        subtree_orders = [order for order in orders if order[0] == j]
        best = None
        for candidate in subpolicies((), (j, value), sub):
            policy = Policy(candidate)
            contribution = Fraction(0)
            for scenario, mass in sub:
                for order in subtree_orders:
                    accepted = _simulate(policy, scenario, order)
                    contribution += (
                        mass * order_weight * competitive_ratio(accepted, scenario)
                    )
            if best is None or contribution > best:
                best = contribution
        total += best
    return total
