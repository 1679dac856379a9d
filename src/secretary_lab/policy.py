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
memoises each set's value and its decisions.  An optional hard
constraint restricts actions so that the resulting policy is guaranteed
to pick a maximum-value candidate whenever the announced predictions are
exactly correct, for every arrival order.

The induction is exact without Fraction arithmetic: it holds every value
as a Python integer on one scale fixed per family (row weights p_r / max_r
over their common denominator L, candidate values over theirs, V) and
divides once per solve, by n! * V * L.  Its self-check is an exact
forward count over sets of arrivals that scores the memo's decisions on
every row, on integers of its own value scale, with one Fraction per row
for the row's ratio.  The induction also counts the ordered table's
entries, and the policy file's text is streamed from the memo in sorted
key order, so a solve builds no ordered table unless
``SolveReport.policy`` is read.  The lines below a set differ from one
history that reaches it to the next only in their key prefix, so the
text of each set with at most POLICY_BLOCK entries below it is rendered
once, as a block, and written under every prefix; the stream's memory is
bounded by the sets, at most POLICY_BLOCK lines each, not by the file.
Policy evaluation over every arrival order scores any table.
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
from json.encoder import encode_basestring_ascii
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
# Entries per write of a streamed policy file.
POLICY_BATCH = 4096
# Most entries below a set whose text a streamed policy file renders once
# and reuses for every history that reaches the set.
POLICY_BLOCK = 64


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
    decision; candidate indices are 1-based and distinct.  Each arrival is
    an (int, Fraction) tuple, kept as given."""

    observed: tuple[tuple[int, Fraction], ...]
    current: tuple[int, Fraction]

    def __post_init__(self) -> None:
        indices = [i for i, _ in self.observed] + [self.current[0]]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate candidate indices in state: {indices}")

    def arrivals(self) -> tuple[tuple[int, Fraction], ...]:
        """All arrivals in order, the current one last."""
        return self.observed + (self.current,)

    def serialize(self) -> str:
        """The state as text, each arrival rendered by ``_render_arrival``."""
        observed = ",".join(map(_render_arrival, self.observed))
        return observed + "|current=" + _render_arrival(self.current)

    @classmethod
    def parse(
        cls, text: str, parse_arrival: Callable[[str], Arrival] | None = None
    ) -> "InformationState":
        """The inverse of ``serialize``, each arrival parsed by
        ``parse_arrival`` (default ``_parse_arrival``, which refuses any
        text that ``serialize`` would not write)."""
        parse = parse_arrival or _parse_arrival
        prefix, _, current_text = text.partition("|current=")
        observed = tuple(map(parse, prefix.split(","))) if prefix else ()
        return cls(observed=observed, current=parse(current_text))


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
        entries = {state.serialize(): action.value for state, action in self.actions.items()}
        return dict(sorted(entries.items()))

    @classmethod
    def from_dict(cls, payload: dict[str, str]) -> "Policy":
        if not isinstance(payload, dict):
            raise ValueError(
                "policy must be a JSON object mapping states to actions, "
                f"not {type(payload).__name__}"
            )
        # Each distinct arrival text is parsed and checked once, and its
        # states share the one tuple, as in a solved table.
        parse = functools.cache(_parse_arrival)
        return cls(
            {
                InformationState.parse(key, parse): Action(value)
                for key, value in payload.items()
            }
        )

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
    stays as given, and ``policy`` renders a set rule's table beside it."""

    optimum: Fraction
    rule: Policy | _SetRule | None
    per_row: dict[int, Fraction]
    policy_states: int
    constrained: bool | None = None

    @functools.cached_property
    def policy(self) -> Policy | None:
        """The policy table: the rule itself, or, for a solver's set rule,
        its table, rendered on first read."""
        if isinstance(self.rule, _SetRule):
            return self.rule.table()
        return self.rule

    @property
    def worst_row(self) -> tuple[int, Fraction]:
        """The robustness certificate: the row of least ratio, lowest id on a tie."""
        worst_id = min(self.per_row, key=lambda row_id: (self.per_row[row_id], row_id))
        return worst_id, self.per_row[worst_id]

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
    arrived.  Each row starts with its values by 0-based column (value ids
    in the solver, Fractions in reachable_states and brute force).  Yields
    ``(j, value, sub)`` for each column j not in ``arrived``, in ascending
    order, and each value j takes in ``rows``, in first-seen row order,
    where ``sub`` holds the rows that show it.

    This order fixes the state order of reachable_states, and with it
    random_policy per seed."""
    for j in range(n):
        if arrived >> j & 1:
            continue
        groups: dict = {}
        for row in rows:
            groups.setdefault(row[0][j], []).append(row)
        for value, sub in groups.items():
            yield j, value, sub


# A set of arrivals, each a (0-based column, value id) pair.
IdSet = frozenset[tuple[int, int]]
# Per next arrival of a set: the action and the set after a reject, None
# where a reject is not allowed or ends the sequence.
Children = dict[tuple[int, int], tuple[Action, IdSet | None]]
# A memo entry: scaled value, children, and table entries at and below.
Step = tuple[int, Children, int]


@dataclass(frozen=True)
class _SetRule:
    """A solved rule on sets of arrivals, as plain data.

    ``steps`` maps each set of rejected arrivals that the induction
    visited to the set's scaled value, its ``Children``, in the chance
    step's order, and the number of table entries at and below one
    history that reaches the set."""

    n: int
    values: tuple[Fraction, ...]  # by value id
    steps: dict[IdSet, Step]

    def table(self) -> Policy:
        """The policy table: each set's actions, copied to every ordered
        history that reaches the set, with one tuple per distinct arrival."""
        made = {
            (j, value_id): (j + 1, value)
            for j in range(self.n)
            for value_id, value in enumerate(self.values)
        }
        actions: dict[InformationState, Action] = {}
        self._walk(actions, made, (), frozenset())
        return Policy(actions)

    def _walk(self, actions: dict, made: dict, observed: History, seen: IdSet) -> None:
        """Add to ``actions`` every history that follows ``observed``,
        the set ``seen``."""
        for pair, (action, after) in self.steps[seen][1].items():
            current = made[pair]
            if after is not None:
                self._walk(actions, made, observed + (current,), after)
            actions[InformationState(observed, current)] = action

    def write_json(self, write: Callable[[str], object]) -> None:
        """Stream the policy file's text, the bytes of
        ``table().to_json()``, to ``write``, straight from the memo, in
        sorted key order and in batches of about POLICY_BATCH entries; no
        table, key dict or whole-file string is built.

        A key is its observed arrivals' texts joined by ",", then
        "|current=" and the current arrival's text.  An arrival's text
        ends at its only ")", so none is a prefix of another, and "(" and
        "," sort before "|".  So a depth-first walk that, at each set,
        takes the next arrivals in the order of their texts, writes every
        key below each after-set (under the prefix extended by the
        arrival) and then the set's own keys, writes the keys in the order
        ``sorted`` gives them.  Each arrival's text is JSON-escaped once:
        escaping works per character, so the joined escapes are the
        escaped key.

        Every history that reaches a set has the same lines below it but
        for their key prefix.  So a set whose subtree holds at most
        POLICY_BLOCK entries is rendered once, as its block: those lines
        with "\\0", which no escaped text holds, in place of the prefix,
        and each history that reaches it writes the block with the prefix
        put in.  A block is the after-sets' blocks, each with its "\\0"
        extended by the arrival, then the set's own lines.  The root, with
        its empty prefix, and each larger set are walked.  Beside the memo
        it holds the current prefix, one batch, each set's after-sets and
        own lines in text order, and the blocks, at most POLICY_BLOCK
        lines per set, so its memory is bounded by the sets, not by the
        file."""
        texts = {
            (j, value_id): _render_arrival((j + 1, value))
            for j in range(self.n)
            for value_id, value in enumerate(self.values)
        }
        escaped = {pair: encode_basestring_ascii(text)[1:-1] for pair, text in texts.items()}
        encoded = {action: encode_basestring_ascii(action.value) for action in Action}
        ordered: dict[IdSet, tuple[list[tuple[str, IdSet]], str]] = {}
        blocks: dict[IdSet, str] = {}
        batch: list[str] = []
        entries = 0
        head = "{\n"

        def below(seen: IdSet) -> tuple[list[tuple[str, IdSet]], str]:
            """The set's after-sets, each beside the escaped text of the
            arrival that leads to it, and its own lines, "\\0" in place of
            the prefix; both in text order."""
            known = ordered.get(seen)
            if known is None:
                arrivals = sorted(self.steps[seen][1].items(), key=lambda item: texts[item[0]])
                known = ordered[seen] = (
                    [(escaped[pair], after) for pair, (_, after) in arrivals if after is not None],
                    "".join(
                        f'  "\0|current={escaped[pair]}": {encoded[action]},\n'
                        for pair, (action, _) in arrivals
                    ),
                )
            return known

        def block(seen: IdSet) -> str:
            known = blocks.get(seen)
            if known is None:
                afters, own = below(seen)
                known = blocks[seen] = "".join(
                    [block(after).replace("\0", "\0," + text) for text, after in afters] + [own]
                )
            return known

        def add(text: str, count: int) -> None:
            nonlocal entries, head
            # flushed before the lines go in, so the last batch, which
            # holds the root's own lines, is never empty
            if entries >= POLICY_BATCH:
                write(head + "".join(batch))
                head = ""
                batch.clear()
                entries = 0
            batch.append(text)
            entries += count

        def walk(prefix: str, seen: IdSet) -> None:
            _, children, count = self.steps[seen]
            if prefix and count <= POLICY_BLOCK:
                add(block(seen).replace("\0", prefix), count)
                return
            afters, own = below(seen)
            for text, after in afters:
                walk(f"{prefix},{text}" if prefix else text, after)
            add(own.replace("\0", prefix), len(children))

        walk("", frozenset())
        # the last line's separator gives way to the closing brace
        write(head + "".join(batch)[:-2] + "\n}\n")


class _SetInduction:
    """Backward induction over sets of rejected arrivals, on value ids
    and integers (see solve_optimal); ``steps`` becomes a _SetRule's."""

    def __init__(self, n: int, prediction_ids: list[int], best_columns: int):
        self.n = n
        self.prediction_ids = prediction_ids
        self.best_columns = best_columns
        self.tails = [math.factorial(n - depth - 1) for depth in range(n)]
        self.steps: dict[IdSet, Step] = {}

    def step(self, seen: IdSet, arrived: int, on_path: bool, rows: list[IdRow]) -> Step:
        """The memo entry of the set ``seen`` of rejected arrivals: its
        columns are the bitmask ``arrived``, ``on_path`` says that every
        arrival in it shows its predicted value (always False
        unconstrained), and ``rows`` are the rows it leaves possible.
        Every history that reaches a set has the same subtree, so the
        set's table entries are one per next arrival plus those of each
        after-set."""
        known = self.steps.get(seen)
        if known is not None:
            return known
        depth = arrived.bit_count()
        tail = self.tails[depth]
        total = 0
        children: Children = {}
        entries = 0
        for j, value_id, sub in _split(self.n, arrived, rows):
            on = on_path and self.prediction_ids[j] == value_id
            accept_ok = reject_ok = True
            if on:
                accept_ok, reject_ok = _on_path_actions(self.best_columns, arrived, j)
            after = None
            if depth + 1 == self.n:
                reject_value = 0
            elif reject_ok:
                after = seen | {(j, value_id)}
                reject_value, _, below = self.step(after, arrived | 1 << j, on, sub)
                entries += below
            else:
                reject_value = None
            accept_value = tail * sum(row[1][j] for row in sub)
            if accept_ok and (reject_value is None or accept_value >= reject_value):
                action, state_value = Action.ACCEPT, accept_value
            else:
                action, state_value = Action.REJECT, reject_value or 0
            children[j, value_id] = (action, after)
            total += state_value
        step = self.steps[seen] = (total, children, entries + len(children))
        return step


def solve_optimal(family: PriorFamily, constrained: bool) -> SolveReport:
    """Exact optimal deterministic policy by backward induction, optionally
    restricted to the consistency constraint.

    The induction runs once per set of rejected arrivals, on integer value
    ids: each supported row is a tuple of value ids with an integer
    weight, a set is keyed by its (column, value id) arrivals, and the
    constraint is an on-path flag passed down with the bitmask of columns
    where the prediction attains its maximum, so no Fraction is compared
    or hashed and no InformationState is built inside it.  Each set keeps
    its value and, per next arrival, the better allowed action and, where
    rejecting is allowed, the set after a reject.

    Values are integers on one scale.  Row r weighs W_r = L * p_r / max_r
    and value v counts v * V, where L and V are the least common multiples
    of the denominators of the p_r / max_r and of the values; each value
    is mapped to its id, and each row's maximum found, once per row, and
    each row carries its products W_r * v * V by column.  At a state with
    d rejected arrivals the accept value of v in column j is
    (n - d - 1)! * (sum of W_r * v * V over the rows still possible, read
    off their column j), a chance node is the plain sum of its child
    states, and rejecting the last arrival is worth 0.  Each is the true value times the rows'
    probability mass times (n - d - 1)! * V * L, a positive factor shared
    by both actions at a state, so every comparison, ties included, is
    the one on true values; the optimum is the root's integer divided by
    n! * V * L.

    The self-check, ``_forward_ratios``, scores the memo's decisions by an
    exact forward count over sets, on the family's values and its own
    integer scale, sharing no scale or state with the induction; its
    per-row ratios are the report's, and their mixture must equal the
    optimum.  ``policy_states``, the size of the policy table keyed on
    ordered histories, is counted by the induction; the table itself is
    rendered from the memo only when ``SolveReport.policy`` is read.

    Ties between equal-valued actions resolve toward accepting, so the
    returned policy is a deterministic function of the family alone.
    """
    support = _checked_family(family)
    prediction = family.prediction()
    n = family.n
    value_ids: dict[Fraction, int] = {}  # in first-seen order
    id_rows = [
        tuple(value_ids.setdefault(v, len(value_ids)) for v in scenario.values)
        for scenario, _ in support
    ]
    values = tuple(value_ids)
    value_scale = math.lcm(*(v.denominator for v in values))  # V
    scaled = [v.numerator * (value_scale // v.denominator) for v in values]
    # p_r / max_r, with max_r * V the row's largest scaled value
    weights = [
        Fraction(p.numerator * value_scale, p.denominator * max(scaled[i] for i in ids))
        for ids, (_, p) in zip(id_rows, support)
    ]
    weight_scale = math.lcm(*(w.denominator for w in weights))  # L
    rows = []
    for ids, w in zip(id_rows, weights):
        weight = w.numerator * (weight_scale // w.denominator)  # W_r
        rows.append((ids, tuple(weight * scaled[i] for i in ids)))
    induction = _SetInduction(
        n,
        # -1 where no supported row shows the predicted value
        prediction_ids=[value_ids.get(v, -1) for v in prediction.values],
        best_columns=_best_columns(prediction),
    )
    scaled_optimum, _, policy_states = induction.step(frozenset(), 0, constrained, rows)
    optimum = Fraction(scaled_optimum, math.factorial(n) * value_scale * weight_scale)
    rule = _SetRule(n, values, induction.steps)
    mixture, per_row = _forward_ratios(rule, support)
    if mixture != optimum:
        raise RuntimeError(
            "backward induction and the forward count disagree: "
            f"{format_value(optimum)} vs {format_value(mixture)}"
        )
    return SolveReport(
        optimum=optimum,
        rule=rule,
        per_row=per_row,
        policy_states=policy_states,
        constrained=constrained,
    )


def _forward_ratios(
    rule: _SetRule, support: list[tuple[Scenario, Fraction]]
) -> tuple[Fraction, dict[int, Fraction]]:
    """Mixture expected ratio of a set rule and its conditional expected
    ratio on each supported row, by an exact forward count over sets of
    columns that reads only the rule's decisions.

    For a row, N(S) counts the orders of the set S in which every arrival
    was rejected: N(empty set) = 1, and for each column x not in S the
    rule accepts x, which ends N(S) * (n - |S| - 1)! orders with the row's
    value at x, or rejects it, which adds N(S) to N(S + x).  A set is
    visited after all its subsets, as a bitmask after every smaller one.
    The row's ratio is its accepted total over max_r * n!, both counted on
    one integer value scale (the values over their common denominator), so
    each row makes one Fraction; the mixture weighs each distinct
    probability once, by the sum of its rows' ratios."""
    n = rule.n
    value_ids = {v: vid for vid, v in enumerate(rule.values)}
    scale = math.lcm(*(v.denominator for v in rule.values))
    scaled = [v.numerator * (scale // v.denominator) for v in rule.values]
    tails = [math.factorial(n - size - 1) for size in range(n)]
    orders = math.factorial(n)
    by_probability: dict[Fraction, list[Fraction]] = {}
    per_row: dict[int, Fraction] = {}
    for scenario, probability in support:
        ids = [value_ids[v] for v in scenario.values]
        rejected = [0] * (1 << n)  # N(S), S a bitmask of columns
        rejected[0] = 1
        accepted = [0] * n  # orders that accept each column
        for columns in range((1 << n) - 1):  # the full set decides nothing
            count = rejected[columns]
            if not count:
                continue
            seen = frozenset((x, ids[x]) for x in range(n) if columns >> x & 1)
            children = rule.steps[seen][1]
            tail = tails[columns.bit_count()]
            for x in range(n):
                if columns >> x & 1:
                    continue
                if children[x, ids[x]][0] is Action.ACCEPT:
                    accepted[x] += count * tail
                else:
                    rejected[columns | 1 << x] += count
        total = sum(count * scaled[i] for count, i in zip(accepted, ids))
        top = max(scaled[i] for i in ids)
        per_row[scenario.id] = conditional = Fraction(total, top * orders)
        by_probability.setdefault(probability, []).append(conditional)
    mixture = sum(
        (p * sum(ratios, Fraction(0)) for p, ratios in by_probability.items()), Fraction(0)
    )
    return mixture, per_row


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
        optimum=mixture, rule=policy, per_row=per_row, policy_states=len(policy)
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
    subtree.  Only feasible at small sizes; the per-subtree cap guards
    against accidental blow-ups.
    """
    support = _checked_family(family)
    prediction = family.prediction()
    n = family.n
    orders = list(itertools.permutations(range(1, n + 1)))
    order_weight = Fraction(1, len(orders))

    def subpolicies(observed, current, arrived, rows):
        """Every sub-policy from ``current`` on; ``arrived`` is the bitmask
        of the columns of ``observed`` and ``current``."""
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
                    subpolicies(next_observed, (j + 1, value), arrived | 1 << j, sub)
                    for j, value, sub in _split(n, arrived, rows)
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
    rows = [(scenario.values, scenario, mass) for scenario, mass in support]
    for j, value, sub in _split(n, 0, rows):
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
