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
the set of arrivals.  Backward induction therefore runs once per set of
arrivals, with exact posterior weights, on integer value ids, and
memoises each set's value and its decisions under one integer key per
set: its (column, value id) arrivals as digits id + 1 in base B, the
number of distinct values plus 1, at place B**column, 0 for a column not
arrived.  An optional hard
constraint restricts actions so that the resulting policy is guaranteed
to pick a maximum-value candidate whenever the announced predictions are
exactly correct, for every arrival order.

The induction is exact without Fraction arithmetic: it holds every value
as a Python integer on one scale fixed per family (row weights q_r / max_r
over their common denominator L, candidate values over theirs, V) and
divides once per solve, by n! * V * L.  Unconstrained, q_r is the row's
probability p_r.  Constrained, the prediction row's mass p moves no
decision, for every allowed rule accepts a predicted maximum on that row:
it weighs 0, each other row q_r = p_r / (1 - p), and the optimum is
p + (1 - p) T, T the induction's value; so a mass of thousands of digits
does not ride through the induction's integers.  One step builds every
set: per column left, one pass over its rows groups them by value and sums
each group's accept value, and one comparison decides each group.  A set
with one column left is built in one pass over its rows: the last arrival
is always accepted.
The induction's self-check is an exact forward count over sets of
arrivals that scores the memo's decisions on every row, on integers of
its own value scale, with one integer pair for each row's ratio, and
weighs each distinct probability once.  The induction also counts the
ordered table's entries, and the policy file's text is streamed from
the memo in sorted key order, so a solve builds no ordered table unless
``SolveReport.policy`` is read.  The lines below a set differ from one
history that reaches it to the next only in their key prefix, so the
text of each set with at most POLICY_BLOCK entries below it is rendered
once, as a block, and written under every prefix; every larger set is
walked in place, and the stream's memory is bounded by the sets, at most
POLICY_BLOCK lines each, not by the file.
Policy evaluation over every arrival order scores any table.  A rule
declared set-keyed is scored by the same forward count as the solver's
memo, which asks the rule's decide at each set a row reaches by
rejecting, on the first history by which the row reached it.
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
    read_json,
    scenario_max,
)

MAX_ENUMERATION_N = 8
# Most entries below a set whose text a streamed policy file renders once
# and reuses for every history that reaches the set.
POLICY_BLOCK = 64


class Action(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"


BOTH_ACTIONS = frozenset((Action.ACCEPT, Action.REJECT))
# An action by its text in a policy file, without the Enum call.
_ACTIONS = {action.value: action for action in Action}

History = tuple[tuple[int, Fraction], ...]
Arrival = tuple[int, Fraction]
# A decision rule: the action at the current arrival, given the arrivals
# rejected so far in the order they came.
DecideFn = Callable[[History, Arrival], Action]


@dataclass(frozen=True)
class InformationState:
    """Ordered record of rejected arrivals plus the arrival awaiting a
    decision; candidate indices are 1-based and distinct.  Each arrival is
    an (int, Fraction) tuple, kept as given."""

    observed: tuple[tuple[int, Fraction], ...]
    current: tuple[int, Fraction]

    def __post_init__(self) -> None:
        _require_distinct([i for i, _ in self.observed] + [self.current[0]])

    def arrivals(self) -> tuple[tuple[int, Fraction], ...]:
        """All arrivals in order, the current one last."""
        return self.observed + (self.current,)

    def serialize(self) -> str:
        """The state as text, each arrival rendered by ``_render_arrival``."""
        observed = ",".join(map(_render_arrival, self.observed))
        return observed + "|current=" + _render_arrival(self.current)


def _require_distinct(indices: list[int]) -> None:
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate candidate indices in state: {indices}")


def _render_arrival(arrival: Arrival) -> str:
    """One arrival as it appears in a serialized state: "(i:v)"."""
    index, value = arrival
    return f"({index}:{format_value(value)})"


def _parse_arrival(item: str) -> Arrival:
    """The inverse of ``_render_arrival``; other text for the same arrival,
    such as "(1:10/2)" for "(1:5)", is refused, so a state has one key."""
    index_text, _, value_text = item[1:-1].partition(":")
    try:
        arrival = (int(index_text), parse_value(value_text))
        if _render_arrival(arrival) == item:
            return arrival
    except ValueError:
        pass
    raise ValueError(f"not an arrival: {item!r} (write (i:v), v in lowest terms)")


class Policy:
    """Deterministic action map over information states, keyed on tuples
    of arrival ids (the current one last), each distinct arrival interned
    by (index, numerator, denominator), so that no lookup or load hashes a
    Fraction; ``actions``, keyed on InformationState, is built when read."""

    def __init__(self, actions: dict[InformationState, Action] | None = None):
        self._ids: dict[tuple[int, int, int], int] = {}
        self._arrivals: list[Arrival] = []  # by id, one tuple per arrival
        self._table: dict[tuple[int, ...], Action] = {
            tuple(map(self._intern, state.arrivals())): action
            for state, action in (actions or {}).items()
        }

    def _intern(self, arrival: Arrival) -> int:
        key = (arrival[0], arrival[1].numerator, arrival[1].denominator)
        if key not in self._ids:
            self._arrivals.append(arrival)
        return self._ids.setdefault(key, len(self._ids))

    @property
    def actions(self) -> dict[InformationState, Action]:
        at = self._arrivals
        return {InformationState(tuple(at[a] for a in key[:-1]), at[key[-1]]): action
                for key, action in self._table.items()}

    def action_for(self, state: InformationState) -> Action:
        return self.decide(state.observed, state.current)

    def decide(self, observed: History, current: Arrival) -> Action:
        """The table as a decision rule: the history's arrival ids looked
        up, with no InformationState built unless the table misses."""
        ids = self._ids
        try:
            key = [ids[i, v.numerator, v.denominator] for i, v in (*observed, current)]
            return self._table[tuple(key)]
        except KeyError:
            raise MissingStateError(InformationState(observed, current).serialize()) from None

    def __len__(self) -> int:
        return len(self._table)

    def __eq__(self, other) -> bool:
        return isinstance(other, Policy) and self.actions == other.actions

    def to_dict(self) -> dict[str, str]:
        entries = {state.serialize(): action.value for state, action in self.actions.items()}
        return dict(sorted(entries.items()))

    @classmethod
    def from_dict(cls, payload: dict[str, str]) -> "Policy":
        if not isinstance(payload, dict):
            raise ValueError(
                "policy must be a JSON object mapping states to actions, "
                f"not {type(payload).__name__}"
            )
        # filled from the key texts, each distinct arrival text parsed once
        policy = cls()
        arrival_id = functools.cache(lambda text: policy._intern(_parse_arrival(text)))
        for key, value in payload.items():
            prefix, _, current = key.partition("|current=")
            state = tuple(map(arrival_id, (prefix.split(",") if prefix else []) + [current]))
            _require_distinct([policy._arrivals[a][0] for a in state])
            # Action refuses any other value, in its own words
            action = _ACTIONS.get(value) if isinstance(value, str) else None
            policy._table[state] = action or Action(value)
        return policy

    def to_json(self) -> str:
        """The policy file's text: sorted states, two-space indent."""
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def load(cls, path: str | Path) -> "Policy":
        return cls.from_dict(read_json(path))


@dataclass
class SolveReport:
    """Solver or evaluator output: mixture optimum, the rule scored,
    per-row conditional expected ratios and the size of the rule's policy
    table.  The rule is a policy table, a solver's set rule, or None for a
    rule scored without a table (with the size its table would have); it
    stays as given, and ``policy`` renders a set rule's table beside it.

    Each row's ratio is held as an integer pair (numerator, denominator),
    positive denominator, on the row's own scale and not reduced: the
    solver's are its forward count's (accepted total, max_r * n!), an
    evaluator's a Fraction's own.  ``per_row`` reduces them on first read,
    and ``worst_row`` compares them as pairs and reduces only its own."""

    optimum: Fraction
    rule: Policy | _SetRule | None
    ratio_pairs: dict[int, tuple[int, int]]
    policy_states: int
    constrained: bool | None = None

    @functools.cached_property
    def policy(self) -> Policy | None:
        """The policy table: the rule itself, or, for a solver's set rule,
        its table, rendered on first read."""
        if isinstance(self.rule, _SetRule):
            return self.rule.table()
        return self.rule

    @functools.cached_property
    def per_row(self) -> dict[int, Fraction]:
        """Each row's conditional expected ratio, reduced on first read."""
        return {row_id: Fraction(*pair) for row_id, pair in self.ratio_pairs.items()}

    @property
    def worst_row(self) -> tuple[int, Fraction]:
        """The robustness certificate: the row of least ratio, lowest id on
        a tie.  Rows of one denominator are compared by numerator alone;
        the least of each denominator are then compared by cross
        multiplying, and only the winner is reduced."""
        least: dict[int, tuple[int, int]] = {}  # denominator -> (numerator, row id)
        for row_id, (numerator, denominator) in self.ratio_pairs.items():
            known = least.get(denominator)
            if known is None or (numerator, row_id) < known:
                least[denominator] = (numerator, row_id)
        groups = iter(least.items())
        worst_denominator, (worst_numerator, worst_id) = next(groups)
        for denominator, (numerator, row_id) in groups:
            left, right = numerator * worst_denominator, worst_numerator * denominator
            if left < right or (left == right and row_id < worst_id):
                worst_numerator, worst_denominator, worst_id = numerator, denominator, row_id
        return worst_id, Fraction(worst_numerator, worst_denominator)

    def to_dict(self, digits: int = 12) -> dict:
        worst_id, worst_ratio = self.worst_row  # a min over every row, read once
        return {
            "optimum": render_number(self.optimum, digits),
            "per_row": {
                str(row_id): render_number(v, digits)
                for row_id, v in sorted(self.per_row.items())
            },
            "worst_row": {"id": worst_id, "ratio": render_number(worst_ratio, digits)},
            "constrained": self.constrained,
            "policy_states": self.policy_states,
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
    if any(prediction.value_at(i) != v for i, v in state.arrivals()):
        return BOTH_ACTIONS
    arrived = sum(1 << (i - 1) for i, _ in state.observed)
    accept_ok, reject_ok = _on_path_actions(
        _best_columns(prediction), arrived, state.current[0] - 1
    )
    if accept_ok and reject_ok:
        return BOTH_ACTIONS
    return frozenset((Action.ACCEPT if accept_ok else Action.REJECT,))


def _best_columns(prediction: Scenario) -> int:
    """Bitmask of the 0-based columns where the prediction attains its
    maximum."""
    best = scenario_max(prediction)
    return sum(1 << j for j, v in enumerate(prediction.values) if v == best)


def _on_path_actions(best_columns: int, arrived: int, j: int) -> tuple[bool, bool]:
    """The constraint on the prediction path, as ``(accept_ok,
    reject_ok)`` for 0-based column j arriving after the columns in the
    bitmask ``arrived``, every one of them showing its predicted value:
    accept only a column in ``best_columns``, reject only while one of
    them is still to come; where neither is allowed, every predicted
    maximum was rejected and both are."""
    accept_ok = bool(best_columns >> j & 1)
    reject_ok = bool(best_columns & ~(arrived | 1 << j))
    if accept_ok == reject_ok:
        return True, True
    return accept_ok, reject_ok


# ---------------------------------------------------------------------------
# Backward induction.
# ---------------------------------------------------------------------------

def require_enumerable(n: int) -> None:
    """Refuse a family of n candidates beyond MAX_ENUMERATION_N; called
    before such a family is built, where n is known first."""
    if n > MAX_ENUMERATION_N:
        raise EnumerationGuardError(
            f"n = {n} too large for exact enumeration (max {MAX_ENUMERATION_N}); "
            "use monte_carlo_estimate beyond that"
        )


def _support(family: PriorFamily) -> list[tuple[Scenario, Fraction]]:
    """The rows of positive probability; one with no positive value is refused."""
    # validated: no probability and no value is negative
    support = [(s, p) for s, p in family.items() if p]
    for scenario, _ in support:
        if not any(scenario.values):
            raise DegenerateInstanceError(
                f"scenario {scenario.id} has positive probability but no positive value"
            )
    return support


def _checked_family(family: PriorFamily) -> list[tuple[Scenario, Fraction]]:
    require_enumerable(family.n)
    return _support(family)


# A row of the induction: its value id in each 0-based column, and its
# integer weight times the scaled value in each column.
IdRow = tuple[tuple[int, ...], tuple[int, ...]]


def _split(n: int, arrived: int, rows: list[tuple]):
    """The chance step once the columns in the bitmask ``arrived`` have
    arrived.  Each row starts with its values by 0-based column, as
    Fractions.  Yields ``(j, value, sub)`` for each column j not in
    ``arrived``, in ascending order, and each value j takes in ``rows``,
    in first-seen row order, where ``sub`` holds the rows that show it.

    This order fixes the state order of reachable_states, and with it
    random_policy per seed."""
    for j in range(n):
        if arrived >> j & 1:
            continue
        groups: dict = {}
        for row in rows:
            sub = groups.get(row[0][j])
            if sub is None:
                groups[row[0][j]] = [row]
            else:
                sub.append(row)
        for value, sub in groups.items():
            yield j, value, sub


def _number_values(
    support: list[tuple[Scenario, Fraction]],
) -> tuple[dict[tuple[int, int], int], tuple[Fraction, ...], list[tuple[int, ...]]]:
    """The support's distinct values, numbered in first-seen order, as ids
    keyed by numerator and denominator, which hash without
    Fraction.__hash__, and as a tuple by id; and each row's value ids.
    Each value object is looked up by ``id()`` first, and only an object
    not met before is hashed by numerator and denominator, so a value
    that many cells share, as the hard family shares one object per power
    of s, is hashed once; equal values in distinct objects share an id."""
    value_ids: dict[tuple[int, int], int] = {}
    by_object: dict[int, int] = {}  # id() of a value object -> value id
    values: list[Fraction] = []
    id_rows = []
    for scenario, _ in support:
        ids = []
        for v in scenario.values:
            value_id = by_object.get(id(v))
            if value_id is None:
                value_id = value_ids.setdefault((v.numerator, v.denominator), len(values))
                if value_id == len(values):
                    values.append(v)
                by_object[id(v)] = value_id
            ids.append(value_id)
        id_rows.append(tuple(ids))
    return value_ids, tuple(values), id_rows


def _ranks(scaled: list[int]) -> list[int]:
    """Each value id's rank among the values, by their scaled integers, so
    that a row's maximum is found on small integers, not on scaled values
    of thousands of digits."""
    rank = [0] * len(scaled)
    for position, i in enumerate(sorted(range(len(scaled)), key=scaled.__getitem__)):
        rank[i] = position
    return rank


# A set of arrivals, each a (0-based column, value id) pair, as one
# integer: with B the number of distinct values plus 1, the set holds the
# digit id + 1 at place B**j for each of its arrivals (j, id), and 0 at
# every column not arrived, so the empty set is 0.
IdSet = int
# Per next arrival of a set: the action and the set after a reject, None
# where a reject is not allowed or ends the sequence.
Children = dict[tuple[int, int], tuple[Action, IdSet | None]]
# A memo entry: scaled value, children, and table entries at and below.
Step = tuple[int, Children, int]
# A rule asked by the forward count: the action at a set, given by its
# IdSet and a history that reaches it, and next arrival (column, value id).
ActionFn = Callable[[IdSet, int, int, History], Action]


@dataclass(frozen=True)
class _SetRule:
    """A solved rule on sets of arrivals, as plain data.

    ``steps`` maps each set of rejected arrivals that the induction
    visited, keyed by its ``IdSet`` integer, to the set's scaled value,
    its ``Children``, in the chance step's order, and the number of table
    entries at and below one history that reaches the set."""

    n: int
    values: tuple[Fraction, ...]  # by value id
    steps: dict[IdSet, Step]

    def table(self) -> Policy:
        """The policy table: each set's actions, copied to every ordered
        history that reaches the set, with no InformationState built."""
        policy = Policy()
        self._walk(policy, (), 0)
        return policy

    def _walk(self, policy: Policy, observed: tuple[int, ...], seen: IdSet) -> None:
        """Add to ``policy`` every history that follows ``observed`` (its
        arrival ids), the set ``seen``."""
        for (j, value_id), (action, after) in self.steps[seen][1].items():
            current = policy._intern((j + 1, self.values[value_id]))
            if after is not None:
                self._walk(policy, observed + (current,), after)
            policy._table[observed + (current,)] = action

    def write_json(self, write: Callable[[str], object]) -> None:
        """Stream the policy file's text, the bytes of
        ``table().to_json()``, to ``write``, straight from the memo, in
        sorted key order; no table, key dict or whole-file string is built.

        A key is its observed arrivals' texts joined by ",", then
        "|current=" and the current arrival's text.  An arrival's text
        ends at its only ")", so none is a prefix of another, and "(" and
        "," sort before "|".  So a depth-first walk that, at each set,
        takes the next arrivals in the order of their texts, emits every
        key below each after-set (under the prefix extended by the
        arrival) and then the set's own keys, emits the keys in the order
        ``sorted`` gives them.  An arrival's text holds only digits, "(",
        ":", "/" and ")", and an action only letters, so the keys and
        actions go into the file as they are: JSON escapes none of these.

        Every history that reaches a set has the same lines below it but
        for their key prefix.  So a set whose subtree holds at most
        POLICY_BLOCK entries is emitted once, into its block, under the
        prefix "\\0", which no arrival's text holds; each history that
        reaches it puts the block with its own prefix in place of "\\0".
        A larger set is emitted in place, its own lines last.  Each put
        is one write, after "{\\n" for the first and ",\\n" for every
        later one; the last write is "\\n}\\n".  Beside the memo it holds
        the current prefix, each set's after-sets and own lines in text
        order, and the blocks, at most POLICY_BLOCK lines per set, so its
        memory is bounded by the sets, not by the file."""
        texts = {
            (j, value_id): _render_arrival((j + 1, value))
            for j in range(self.n)
            for value_id, value in enumerate(self.values)
        }

        @functools.cache
        def below(seen: IdSet) -> tuple[list[tuple[str, IdSet]], str]:
            """The set's after-sets, each beside the text of the arrival
            that leads to it, and its own lines, "\\0" in place of the
            prefix; both in text order."""
            arrivals = sorted(self.steps[seen][1].items(), key=lambda item: texts[item[0]])
            return (
                [(texts[pair], after) for pair, (_, after) in arrivals if after is not None],
                ",\n".join(
                    f'  "\0|current={texts[pair]}": "{action.value}"'
                    for pair, (action, _) in arrivals
                ),
            )

        @functools.cache
        def block(seen: IdSet) -> str:
            lines: list[str] = []
            emit("\0", seen, lines.append)
            return ",\n".join(lines)

        def emit(prefix: str, seen: IdSet, put: Callable[[str], object]) -> None:
            afters, own = below(seen)
            for text, after in afters:
                extended = f"{prefix},{text}" if prefix else text
                if self.steps[after][2] <= POLICY_BLOCK:
                    put(block(after).replace("\0", extended))
                else:
                    emit(extended, after, put)
            put(own.replace("\0", prefix))

        head = "{\n"

        def put(text: str) -> None:
            nonlocal head
            write(head + text)
            head = ",\n"

        emit("", 0, put)
        write("\n}\n")


class _SetInduction:
    """Backward induction over sets of rejected arrivals, on value ids
    and integers (see solve_optimal); ``steps`` becomes a _SetRule's."""

    def __init__(self, n: int, base: int, prediction_ids: list[int], best_columns: int):
        self.n = n
        self.prediction_ids = prediction_ids
        self.best_columns = best_columns
        self.tails = [math.factorial(n - depth - 1) for depth in range(n)]
        self.places = [base ** j for j in range(n)]
        self.steps: dict[IdSet, Step] = {}

    def step(self, seen: IdSet, arrived: int, on_path: bool, rows: list[IdRow]) -> Step:
        """The memo entry of the set ``seen`` of rejected arrivals, an
        ``IdSet``, to which a reject of value id i in column j adds
        (i + 1) * B**j, B being ``base``: its columns are the bitmask
        ``arrived``, ``on_path`` says that every arrival in it shows its
        predicted value (always False unconstrained), and ``rows`` are
        the rows it leaves possible.
        Every history that reaches a set has the same subtree, so the
        set's table entries are one per next arrival plus those of each
        after-set.
        The chance step runs in ``_split``'s order: for each column j not
        arrived, ascending, one pass over ``rows`` groups them by their
        value in j, in first-seen order, keeping each group's accept sum
        beside its rows.
        A set of n - 1 arrivals is built in one pass over ``rows``: the
        last arrival is accepted, for a reject is worth 0, ties go to
        accept, and on the prediction path no column is left to reject
        toward; the set's value sums the rows' values in that column."""
        known = self.steps.get(seen)
        if known is not None:
            return known
        depth = arrived.bit_count()
        total = 0
        children: Children = {}
        if depth + 1 == self.n:
            j = (~arrived & ((1 << self.n) - 1)).bit_length() - 1  # the column left
            accept = (Action.ACCEPT, None)
            for ids, products in rows:
                children[j, ids[j]] = accept
                total += products[j]
            step = self.steps[seen] = (total, children, len(children))
            return step
        tail = self.tails[depth]
        entries = 0
        for j in range(self.n):
            if arrived >> j & 1:
                continue
            groups: dict[int, list] = {}  # value id -> [accept sum, rows that show it]
            for row in rows:
                group = groups.get(row[0][j])
                if group is None:
                    groups[row[0][j]] = [row[1][j], [row]]
                else:
                    group[0] += row[1][j]
                    group[1].append(row)
            for value_id, (accept_sum, sub) in groups.items():
                on = on_path and self.prediction_ids[j] == value_id
                accept_ok = reject_ok = True
                if on:
                    accept_ok, reject_ok = _on_path_actions(self.best_columns, arrived, j)
                after = reject_value = None
                if reject_ok:
                    after = seen + (value_id + 1) * self.places[j]
                    reject_value, _, below = self.step(after, arrived | 1 << j, on, sub)
                    entries += below
                accept_value = tail * accept_sum
                if accept_ok and (reject_value is None or accept_value >= reject_value):
                    action, state_value = Action.ACCEPT, accept_value
                else:
                    action, state_value = Action.REJECT, reject_value
                children[j, value_id] = (action, after)
                total += state_value
        step = self.steps[seen] = (total, children, entries + len(children))
        return step


def solve_optimal(family: PriorFamily, constrained: bool) -> SolveReport:
    """Exact optimal deterministic policy by backward induction, optionally
    restricted to the consistency constraint.

    The induction runs once per set of rejected arrivals, on integer value
    ids: each supported row is a tuple of value ids with an integer
    weight, a set is keyed by one integer, the ``IdSet`` of its (column,
    value id) arrivals, and the constraint is an on-path flag passed down
    with the bitmask of columns where the prediction attains its maximum,
    so no Fraction is compared or hashed and no InformationState is built
    inside it.  Each set keeps its value and, per next arrival, the better
    allowed action and, where rejecting is allowed, the set after a
    reject.

    Values are integers on one scale.  Row r weighs W_r = L * q_r / max_r
    and value v counts v * V, where L and V are the least common multiples
    of the denominators of the q_r / max_r and of the values.  Unconstrained,
    q_r = p_r.  Constrained, with p the prediction row's mass, the
    prediction row has q_r = 0, and every other row q_r = p_r / (1 - p),
    divided once per distinct probability; the row stays among the rows,
    so its sets stay in the memo.  Every rule the constraint allows accepts
    a predicted maximum on the prediction row, so at a state on its path
    both allowed actions add the same amount there, and off it the row is
    ruled out: no comparison, and no tie, depends on p, and the optimum is
    p + (1 - p) * T, T the induction's optimum.  When the prediction row
    is the only supported row, T is 0 and the optimum 1.  Each value
    object is mapped to its id once, and each row's maximum is the value
    id of highest rank, the values ranked once per solve.  Rows of one
    q_r and one maximum's value id form a class, and q_r / max_r is
    reduced once per class, by a gcd of q_r's numerator with max_r's and
    one of their denominators, each on one small operand, where a gcd of
    the products would run on numbers of thousands of digits.
    L is the lcm of the distinct class denominators, taken in ascending
    order; L // d is found for each d from the largest down, as the next
    larger d' gives it times d' // d when d divides d', a small quotient
    on the hard family, whose denominators differ by powers of s, and as
    a division of L otherwise.  Each row carries its products W_r * v * V by column, each
    computed once per (class, value id) and shared by every row of the
    class that shows the value: the hard family's row pairs differ only
    by a swap of two columns.  At the class's own maximum the product is
    W_r * max_r * V = L * V * q_r, computed once per distinct q_r.  At a state with
    d rejected arrivals the accept value of v in column j is
    (n - d - 1)! * (sum of W_r * v * V over the rows still possible, read
    off their column j), a chance node is the plain sum of its child
    states, and rejecting the last arrival is worth 0.  Each is the true value times the rows'
    weighed mass times (n - d - 1)! * V * L, a positive factor shared
    by both actions at a state, so every comparison, ties included, is
    the one on true values; T is the root's integer divided by
    n! * V * L.

    The self-check, ``_forward_ratios``, scores the memo's decisions,
    each looked up in the memo by set key and next arrival, by an exact
    forward count over sets, on the family's values and its own integer
    scale, sharing no scale or state with the induction; its
    per-row ratio pairs are the report's, and their mixture must equal
    the optimum.  ``policy_states``, the size of the policy table keyed on
    ordered histories, is counted by the induction; the table itself is
    rendered from the memo only when ``SolveReport.policy`` is read.

    Ties between equal-valued actions resolve toward accepting, so the
    returned policy is a deterministic function of the family alone.
    """
    support = _checked_family(family)
    prediction = family.prediction()
    n = family.n
    value_ids, values, id_rows = _number_values(support)
    value_scale = math.lcm(*(v.denominator for v in values))  # V
    scaled = [v.numerator * (value_scale // v.denominator) for v in values]
    rank = _ranks(scaled)
    # constrained, the prediction row's mass p moves no comparison: that row
    # has q_r = 0, each other row q_r = p_r / (1 - p)
    p = family.probability_of(family.prediction_id) if constrained else 0
    masses: dict[tuple[int, int], Fraction] = {}  # q_r by p_r
    # q_r / max_r once per (q_r, maximum) class, as a reduced (numerator,
    # denominator) pair: a gcd of the numerators and one of the denominators
    class_ids: dict[tuple[int, int, int], int] = {}
    weights: list[tuple[int, int]] = []
    class_tops: list[tuple[Fraction, int]] = []  # (q_r, value id of max_r) by class
    row_classes = []
    for ids, (scenario, p_r) in zip(id_rows, support):
        if p and scenario is prediction:
            q = Fraction(0)
        else:
            q = masses.get((p_r.numerator, p_r.denominator))
            if q is None:
                q = masses[p_r.numerator, p_r.denominator] = p_r / (1 - p) if p else p_r
        top = max(ids, key=rank.__getitem__)  # the value id of max_r
        c = class_ids.setdefault((q.numerator, q.denominator, top), len(weights))
        if c == len(weights):
            top_value = values[top]
            g = math.gcd(q.numerator, top_value.numerator)
            h = math.gcd(q.denominator, top_value.denominator)
            weights.append((
                q.numerator // g * (top_value.denominator // h),
                q.denominator // h * (top_value.numerator // g),
            ))
            class_tops.append((q, top))
        row_classes.append(c)
    denominators = sorted({d for _, d in weights})
    weight_scale = math.lcm(*denominators)  # L
    quotients: dict[int, int] = {}  # L // d
    larger = weight_scale
    for d in reversed(denominators):
        step, rest = divmod(larger, d)
        # larger is L at the first step, and L // L is 1
        quotients[d] = weight_scale // d if rest else quotients.get(larger, 1) * step
        larger = d
    class_weights = [numerator * quotients[d] for numerator, d in weights]  # W_r
    products: dict[tuple[int, int], int] = {}  # W_r * v * V by (class, value id)
    # at the class's own maximum, W_r * max_r * V = L * V * q_r, one per q_r
    at_top: dict[tuple[int, int], int] = {}  # by q_r's numerator and denominator
    scales = weight_scale * value_scale
    for c, (q, top) in enumerate(class_tops):
        product = at_top.get((q.numerator, q.denominator))
        if product is None:
            product = at_top[q.numerator, q.denominator] = scales // q.denominator * q.numerator
        products[c, top] = product
    rows = []
    for ids, c in zip(id_rows, row_classes):
        row = []
        for i in ids:
            product = products.get((c, i))
            if product is None:
                product = products[c, i] = class_weights[c] * scaled[i]
            row.append(product)
        rows.append((ids, tuple(row)))
    induction = _SetInduction(
        n,
        base=len(values) + 1,
        # -1 where no supported row shows the predicted value
        prediction_ids=[
            value_ids.get((v.numerator, v.denominator), -1) for v in prediction.values
        ],
        best_columns=_best_columns(prediction),
    )
    scaled_optimum, _, policy_states = induction.step(0, 0, constrained, rows)
    optimum = Fraction(scaled_optimum, math.factorial(n) * value_scale * weight_scale)  # T
    if p:
        optimum = p + (1 - p) * optimum
    steps = induction.steps
    mixture, ratio_pairs = _forward_ratios(
        lambda key, column, value_id, history: steps[key][1][column, value_id][0],
        n, values, support,
    )
    if mixture != optimum:
        raise RuntimeError(
            "backward induction and the forward count disagree: "
            f"{format_value(optimum)} vs {format_value(mixture)}"
        )
    return SolveReport(
        optimum=optimum,
        rule=_SetRule(n, values, steps),
        ratio_pairs=ratio_pairs,
        policy_states=policy_states,
        constrained=constrained,
    )


def _forward_ratios(
    action: ActionFn, n: int, values: Sequence[Fraction], support: list[tuple[Scenario, Fraction]]
) -> tuple[Fraction, dict[int, tuple[int, int]]]:
    """Mixture expected ratio of a rule on sets of arrivals, value ids
    indexing ``values``, and its conditional expected ratio on each
    supported row, as an unreduced integer pair, by an exact forward count
    over sets of columns.

    For a row, N(S) counts the orders of the set S in which every arrival
    was rejected: N(empty set) = 1, and for each column x not in S the
    rule accepts x, which ends N(S) * (n - |S| - 1)! orders with the row's
    value at x, or rejects it, which adds N(S) to N(S + x).  Only the
    sets the row reaches are visited, each after all its subsets: in the
    order the row first reaches them, which runs by size.
    ``action`` is asked once per set the row reaches and next arrival, on
    the first history by which the row reached the set (that of the
    first S visited whose reject of x reaches S + x, extended by x), and
    on the set's ``IdSet``, built from ``values`` alone on that first
    reach: the key of S + x is that of S plus (id + 1) * B**x.
    The row's ratio is the pair (accepted total, max_r * n!), both counted
    on one integer value scale (the values over their common denominator)
    and left unreduced: no caller of a solve need read every row reduced.
    Each row's value objects are mapped to ids by ``id()`` first, and only
    an object not met before by numerator and denominator; its maximum is
    the value id of highest rank, the values ranked once per call.  The
    mixture sums total / max_r per distinct probability, the totals of
    rows with one maximum summed first as integers, keyed by its value id,
    then multiplies each sum by its probability once and divides by n!
    once: a probability of thousands of digits is weighed once, not once
    per maximum.  The sum over maxima runs in ascending order as one
    integer numerator over the running lcm of the maxima, each step a
    gcd, a quotient and a multiply, and makes one Fraction per
    probability, not one per maximum."""
    # keyed by numerator and denominator, which hash without Fraction.__hash__
    value_ids = {(v.numerator, v.denominator): vid for vid, v in enumerate(values)}
    by_object = {id(v): vid for vid, v in enumerate(values)}
    places = [(len(values) + 1) ** x for x in range(n)]
    scale = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (scale // v.denominator) for v in values]
    rank = _ranks(scaled)  # on this call's own scale, apart from the induction's
    orders = math.factorial(n)
    full = (1 << n) - 1
    # by each set S but the full one, which decides nothing: (n - |S| - 1)!
    # and the columns not in S, each beside its bit
    nexts = [
        (math.factorial(n - columns.bit_count() - 1),
         [(x, 1 << x) for x in range(n) if not columns >> x & 1])
        for columns in range(full)
    ]
    # (p numerator, p denominator) -> (p, summed totals by max_r's value id)
    classes: dict[tuple[int, int], tuple[Fraction, dict[int, int]]] = {}
    ratio_pairs: dict[int, tuple[int, int]] = {}
    for scenario, probability in support:
        ids = []
        for v in scenario.values:
            vid = by_object.get(id(v))
            if vid is None:
                vid = by_object[id(v)] = value_ids[v.numerator, v.denominator]
            ids.append(vid)
        keys = [0] * (1 << n)  # the IdSet of each S the row reaches
        rejected = [0] * (1 << n)  # N(S), S a bitmask of columns
        rejected[0] = 1
        histories: list[History] = [()] * (1 << n)  # the first to reach each S
        accepted = [0] * n  # orders that accept each column
        # the sets the row reaches but the full one, each appended when
        # first reached: by size, so each is visited after every subset
        # that reaches it
        reached = [0]
        for columns in reached:
            count = rejected[columns]
            seen, history = keys[columns], histories[columns]
            tail, missing = nexts[columns]
            for x, bit in missing:
                if action(seen, x, ids[x], history) is Action.ACCEPT:
                    accepted[x] += count * tail
                else:
                    after = columns | bit
                    if not rejected[after]:
                        keys[after] = seen + (ids[x] + 1) * places[x]
                        histories[after] = history + ((x + 1, scenario.values[x]),)
                        if after != full:
                            reached.append(after)
                    rejected[after] += count
        total = sum(count * scaled[i] for count, i in zip(accepted, ids))
        top = max(ids, key=rank.__getitem__)  # the value id of max_r
        ratio_pairs[scenario.id] = (total, scaled[top] * orders)
        key = (probability.numerator, probability.denominator)
        tops = classes.setdefault(key, (probability, {}))[1]
        tops[top] = tops.get(top, 0) + total
    mixture = Fraction(0)
    for p, tops in classes.values():
        # sum of total / max_r as one numerator over the running lcm of the maxima
        summed, common = 0, 1
        for top in sorted(tops, key=rank.__getitem__):
            g = math.gcd(common, scaled[top])
            up = scaled[top] // g
            summed = summed * up + tops[top] * (common // g)
            common *= up
        mixture += p * Fraction(summed, common)
    return mixture / orders, ratio_pairs


def _set_ratios(
    decide: DecideFn, family: PriorFamily
) -> tuple[Fraction, dict[int, Fraction]]:
    """``_exact_ratios`` for the decide of a set-keyed rule, by
    ``_forward_ratios`` over sets of columns, not n! orders.  The rule
    rejected each history it is asked on, and a set-keyed rule answers
    alike on every such history of a set."""
    support = _checked_family(family)
    values = _number_values(support)[1]
    mixture, ratio_pairs = _forward_ratios(
        lambda key, column, value_id, history: decide(history, (column + 1, values[value_id])),
        family.n, values, support,
    )
    return mixture, {row_id: Fraction(*pair) for row_id, pair in ratio_pairs.items()}


# ---------------------------------------------------------------------------
# Direct policy evaluation (the independent path used to cross-check the
# induction and to score arbitrary policies).
# ---------------------------------------------------------------------------

def _simulate(
    decide: DecideFn, scenario: Scenario, order: Sequence[int]
) -> Fraction | None:
    """Run a decision rule on one arrival order; returns the accepted value."""
    observed: History = ()
    for index in order:
        arrival = (index, scenario.value_at(index))
        if decide(observed, arrival) is Action.ACCEPT:
            return arrival[1]
        observed += (arrival,)
    return None


def evaluate_policy(policy: Policy, family: PriorFamily) -> SolveReport:
    """Exact mixture expectation of a policy over every (row, arrival
    order) pair, tallied by ``_tally`` so that each (row, prefix) state is
    looked up once.

    Rows with probability zero are not part of the mixture and are left
    out of the per-row map.
    """
    mixture, per_row = _exact_ratios(policy.decide, family)
    return SolveReport(
        optimum=mixture,
        rule=policy,
        ratio_pairs={row_id: (r.numerator, r.denominator) for row_id, r in per_row.items()},
        policy_states=len(policy),
    )


def _exact_ratios(
    decide: DecideFn, family: PriorFamily
) -> tuple[Fraction, dict[int, Fraction]]:
    """Mixture expected ratio of a decision rule and its conditional
    expected ratio on each row of positive probability, over all n!
    arrival orders of every row.

    A row's conditional ratio is the competitive ratio of each value it
    accepts times the orders that accept it, summed, over the number of
    orders."""
    support = _checked_family(family)
    orders = list(itertools.permutations(range(1, family.n + 1)))
    mixture = Fraction(0)
    per_row: dict[int, Fraction] = {}
    for scenario, probability in support:
        counts = _tally(decide, scenario, orders)
        ratios = (count * competitive_ratio(value, scenario) for value, count in counts.items())
        per_row[scenario.id] = conditional = sum(ratios, Fraction(0)) / len(orders)
        mixture += probability * conditional
    return mixture, per_row


def _tally(
    decide: DecideFn, scenario: Scenario, orders: Sequence[Sequence[int]],
    weights: Sequence[int] | None = None,
) -> Counter[Fraction | None]:
    """How many of ``orders`` (1-based arrival orders of equal length, the
    i-th counted ``weights[i]`` times, else once) end with each accepted
    value (``None``: nothing) when ``decide`` runs on ``scenario``.  Sorted,
    orders sharing a prefix form one run: each prefix is decided once."""
    pairs = sorted(zip(orders, itertools.repeat(1) if weights is None else weights))
    ordered = [order for order, _ in pairs]
    weight = [count for _, count in pairs]
    counts: Counter[Fraction | None] = Counter()

    def walk(observed: History, lo: int, hi: int) -> None:
        depth = len(observed)
        if depth == len(ordered[lo]):
            counts[None] += sum(weight[lo:hi])
            return
        key = itemgetter(depth)
        while lo < hi:
            index = ordered[lo][depth]
            end = bisect.bisect_right(ordered, index, lo, hi, key=key)
            arrival = (index, scenario.value_at(index))
            if decide(observed, arrival) is Action.ACCEPT:
                counts[arrival[1]] += sum(weight[lo:end])
            else:
                walk(observed + (arrival,), lo, end)
            lo = end

    if ordered:
        walk((), 0, len(ordered))
    del walk  # the closure refers to itself: free its lists now, not at a collection
    return counts


def is_consistent(policy: Policy, prediction: Scenario) -> bool:
    """True iff the policy accepts a maximum-value candidate under every
    arrival order of the prediction scenario, read off the scenario's
    tally of accepted values; a prediction of more than MAX_ENUMERATION_N
    candidates is refused before any order is listed."""
    require_enumerable(len(prediction.values))
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

    def walk(observed, arrived, rows):
        for j, value, sub in _split(n, arrived, rows):
            arrival = (j + 1, value)
            states.append(InformationState(observed, arrival))
            if len(observed) + 1 < n:
                walk(observed + (arrival,), arrived | 1 << j, sub)

    walk((), 0, [(scenario.values,) for scenario, _ in support])
    return states


def reachable_state_count(family: PriorFamily) -> int:
    """``len(reachable_states(family))`` without building a state: a set
    of arrivals that some row of positive probability shows is reached in
    every order, so the count sums |S|! over the nonempty such sets S."""
    support = _checked_family(family)
    count = 0
    for size in range(1, family.n + 1):
        for columns in itertools.combinations(range(family.n), size):
            shown = {tuple(scenario.values[c] for c in columns) for scenario, _ in support}
            count += len(shown) * math.factorial(size)
    return count


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
    subtree.  Only feasible at small sizes: each subtree's sub-policies
    are counted first, with none built, and a family with a subtree of
    more than ``max_policies_per_subtree`` is refused before any is
    enumerated.
    """
    support = _checked_family(family)
    prediction = family.prediction()
    n = family.n
    orders = list(itertools.permutations(range(1, n + 1)))
    order_weight = Fraction(1, len(orders))

    def options(observed, current, arrived, rows):
        """The state at ``current`` and each action allowed there, beside
        the arguments of the next arrivals it leads to: none after an
        accept or a reject of the last arrival.  ``arrived`` is the
        bitmask of the columns of ``observed`` and ``current``."""
        state = InformationState(observed, current)
        allowed = consistent_actions(prediction, state) if constrained else BOTH_ACTIONS
        nexts = [] if len(observed) + 1 == n else [
            (observed + (current,), (j + 1, value), arrived | 1 << j, sub)
            for j, value, sub in _split(n, arrived, rows)
        ]
        return state, [
            (action, nexts if action is Action.REJECT else [])
            for action in Action
            if action in allowed
        ]

    def count(*arguments) -> int:
        """How many sub-policies ``subpolicies`` would yield: per allowed
        action, the product of the next arrivals' counts."""
        _, choices = options(*arguments)
        return sum(math.prod(count(*after) for after in nexts) for _, nexts in choices)

    def subpolicies(*arguments):
        """Every sub-policy from ``current`` on."""
        state, choices = options(*arguments)
        for action, nexts in choices:
            for parts in itertools.product(*(subpolicies(*after) for after in nexts)):
                merged = {state: action}
                for part in parts:
                    merged.update(part)
                yield merged

    total = Fraction(0)
    rows = [(scenario.values, scenario, mass) for scenario, mass in support]
    firsts = list(_split(n, 0, rows))
    for j, value, sub in firsts:
        if count((), (j + 1, value), 1 << j, sub) > max_policies_per_subtree:
            raise EnumerationGuardError(
                "sub-policy count exceeds the cap; family too large for brute force"
            )
    for j, value, sub in firsts:
        subtree_orders = [order for order in orders if order[0] == j + 1]
        best = None
        for candidate in subpolicies((), (j + 1, value), 1 << j, sub):
            policy = Policy(candidate)
            contribution = Fraction(0)
            for _, scenario, mass in sub:
                for order in subtree_orders:
                    accepted = _simulate(policy.decide, scenario, order)
                    contribution += (
                        mass * order_weight * competitive_ratio(accepted, scenario)
                    )
            if best is None or contribution > best:
                best = contribution
        total += best
    return total
