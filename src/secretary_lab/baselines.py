"""Reference online algorithms and estimators for their expected ratios.

Two baselines: the classic wait-then-pick threshold rule and the rule
that trusts the announced predictions and waits for their argmax.  A rule
is one function of what it has seen, ``decide(observed, current)``; it
binds the predictions and the number of candidates when it is built, and
``Policy.decide`` makes a policy table a rule.  Each baseline also has a
vectorised batch runner that must agree with its decide, and declares
itself set-keyed: on every history it rejects throughout, its decide
depends only on the set of those arrivals and the current one.  Exact
scores of a set-keyed rule are counted over sets of arrivals
(``policy._set_ratios``, which asks decide on one history per row and set);
every other rule, and every policy table, is scored through one walker,
``policy._tally``, which decides each distinct arrival prefix once, over
all n! orders of every row.  Seeded Monte Carlo counts the sampled orders
of each row (through the batch runner when the rule has one, through
``_tally`` otherwise) where n! is out of reach; it draws and decides its
trials in fixed-size chunks, into one buffer per estimate, so its memory
does not grow with the trial count.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError
from .exact import decimal_str, floor_n_over_e
from .instances import (
    PriorFamily,
    Scenario,
    scenario_max,
)
from .policy import (
    MAX_ENUMERATION_N,
    Action,
    Arrival,
    DecideFn,
    History,
    Policy,
    SolveReport,
    _exact_ratios,
    _set_ratios,
    _support,
    _tally,
    reachable_state_count,
    reachable_states,
)

# A batch runner takes a (trials, n) matrix of 0-based arrival orders for
# one scenario and the scenario's dense value ranks (``_dense_ranks``: an
# int64 array, equal values sharing a rank), and returns the 0-based
# accepted candidate per trial (-1 when nothing is accepted); it must
# agree with decide on every order.  It never sees an exact value.
BatchFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OnlineAlgorithm:
    """A named streaming decision rule.

    decide is pure: the action depends only on the arrivals rejected so
    far and the current arrival; it is the reference path.  A rule that
    uses the announced predictions or the number of candidates binds them
    when it is built.  run_batch is an optional fast path that Monte Carlo
    prefers for its acceptance counts: it decides whole blocks of arrival
    orders at once and must reproduce decide exactly.

    set_keyed declares that on every history the rule rejects
    throughout, decide depends only on the set of that history's arrivals
    and the current arrival.  Exact scoring then counts over sets,
    asking decide once per row, set that row reaches and next arrival, on
    the first history by which the row reached the set, which the rule
    rejected throughout.  A rule declares it; it is never inferred from
    decide, which may read the order on other histories (dynkin's reads
    its first floor(n/e) arrivals).
    """

    name: str
    decide: DecideFn
    run_batch: BatchFn | None = None
    set_keyed: bool = False


def dynkin_policy(n: int) -> OnlineAlgorithm:
    """Classic threshold rule: let pass the first floor(n/e) arrivals,
    then take the first value at least the prefix maximum.

    The cutoff is certified through the rational enclosure of e.  If no
    later arrival qualifies, the final arrival is accepted so the reward
    is always defined.  After the cutoff the rule rejects only values
    below the prefix maximum, so on every history it rejects throughout
    the prefix maximum is the maximum of the set: the rule is set-keyed.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    cutoff = floor_n_over_e(n)

    def decide(history: History, current: Arrival) -> Action:
        position = len(history) + 1
        if position <= cutoff:
            return Action.REJECT
        if (cutoff == 0 or position == n
                or current[1] >= max(v for _, v in history[:cutoff])):
            return Action.ACCEPT
        return Action.REJECT

    def run_batch(orders: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        # Dense ranks order exactly as the exact values do, so the >=
        # comparisons below are free of rounding.
        arrived = ranks[orders]
        trials = orders.shape[0]
        if cutoff > 0:
            prefix_max = arrived[:, :cutoff].max(axis=1)
            qualifies = arrived[:, cutoff:] >= prefix_max[:, None]
        else:
            qualifies = np.ones(orders.shape, dtype=bool)
        qualifies[:, -1] = True
        first = qualifies.argmax(axis=1) + cutoff
        return orders[np.arange(trials), first]

    return OnlineAlgorithm(name="dynkin", decide=decide, run_batch=run_batch, set_keyed=True)


def _dense_ranks(values: Sequence[Fraction]) -> np.ndarray:
    """Map each candidate to the rank of its value (equal values share a
    rank), comparing exactly before anything touches numpy."""
    ordering = {value: position for position, value in enumerate(sorted(set(values)))}
    return np.array([ordering[value] for value in values], dtype=np.int64)


def prediction_argmax_policy(predictions: Sequence[Fraction]) -> OnlineAlgorithm:
    """Trust-the-predictions rule: accept the first arriving candidate
    whose predicted value attains the predicted maximum."""
    predicted = tuple(Fraction(v) for v in predictions)
    if not predicted:
        raise ParameterError("predictions must be non-empty")
    best = max(predicted)
    argmax = frozenset(i for i, v in enumerate(predicted, start=1) if v == best)
    targets = np.array(sorted(i - 1 for i in argmax), dtype=np.int64)

    def decide(history: History, current: Arrival) -> Action:
        return Action.ACCEPT if current[0] in argmax else Action.REJECT

    def run_batch(orders: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        hits = np.isin(orders, targets)
        first = hits.argmax(axis=1)
        accepted = orders[np.arange(orders.shape[0]), first]
        # if no argmax index ever arrives (predictions longer than the
        # orders), the rule never accepts
        return np.where(hits.any(axis=1), accepted, -1)

    return OnlineAlgorithm(
        name="pred-argmax", decide=decide, run_batch=run_batch, set_keyed=True
    )


def _rule_ratios(
    alg: OnlineAlgorithm, family: PriorFamily
) -> tuple[Fraction, dict[int, Fraction]]:
    """The rule's exact mixture and per-row ratios: over sets of arrivals
    when it is set-keyed, else through the tally of evaluate_policy."""
    if alg.set_keyed:
        return _set_ratios(alg.decide, family)
    return _exact_ratios(alg.decide, family)


def exact_expected_ratio(alg: OnlineAlgorithm, family: PriorFamily) -> Fraction:
    """Exact mixture expected ratio over every (row, arrival order) pair,
    counted over sets of arrivals when the rule is set-keyed and
    through the same tally as evaluate_policy otherwise; refuses n above
    MAX_ENUMERATION_N and points to monte_carlo_estimate."""
    return _rule_ratios(alg, family)[0]


def algorithm_to_policy(alg: OnlineAlgorithm, family: PriorFamily) -> Policy:
    """Tabulate the streaming rule as an explicit state policy over the
    family's reachable states (the bridge to evaluate_policy)."""
    actions = {}
    for state in reachable_states(family):
        actions[state] = alg.decide(state.observed, state.current)
    return Policy(actions)


def evaluate_algorithm(alg: OnlineAlgorithm, family: PriorFamily) -> SolveReport:
    """Exact per-row evaluation of a streaming rule, as exact_expected_ratio
    scores it, building no policy table (the report's policy is None)."""
    optimum, per_row = _rule_ratios(alg, family)
    pairs = {row_id: (r.numerator, r.denominator) for row_id, r in per_row.items()}
    return SolveReport(optimum, None, pairs, reachable_state_count(family))


# ---------------------------------------------------------------------------
# Monte Carlo.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloEstimate:
    """Seeded estimate; the mean is held exactly and rendered on demand.

    Reruns with the same seed and trial count reproduce mean_exact (and
    hence the rendered mean) bit for bit.
    """

    mean_exact: Fraction
    std_error: float
    trials: int
    seed: int
    metric: str

    @property
    def mean(self) -> str:
        return decimal_str(self.mean_exact, 12)

    def to_dict(self, digits: int = 12) -> dict:
        return {
            "mean": decimal_str(self.mean_exact, digits),
            "std_error": f"{self.std_error:.{digits}g}",
            "trials": self.trials,
            "seed": self.seed,
            "metric": self.metric,
        }


# Each trial owns a counter block: trial i draws from the 256-bit Philox
# counter starting at i * 2^128, leaving 2^128 draws of in-trial headroom,
# so the streams never overlap and trial order or chunking cannot change
# any draw.  One bit generator serves every trial: before each trial
# _draw_trials sets its counter to words [0, 0, i mod 2^64, i >> 64] and
# empties its buffers, the state a fresh Philox(key=seed,
# counter=i * 2^128) starts in, and shuffles the trial's order with the
# legacy RandomState.shuffle on it.  That is the Fisher-Yates over
# random_interval that Generator(Philox(...)).permutation(n) runs, with
# less Python-level overhead per call, and NEP 19 freezes its stream.
_WORD = 1 << 64
# Trials are drawn and decided in chunks of about CHUNK_ELEMENTS int64
# order entries (2 MB), max(1, CHUNK_ELEMENTS // n) trials each.  An
# estimate allocates one order buffer (and one row-draw buffer) of
# min(chunk, trials) rows, and every chunk draws into leading views of
# them, so no two chunks' buffers are ever alive at once and an
# estimate's memory is flat in its trial count.
CHUNK_ELEMENTS = 1 << 18
# The most trials * max(n, 100) one estimate runs, refused before the first
# draw: 10^8 trials at n <= 100, where a trial's fixed cost dominates.
MAX_TRIAL_ELEMENTS = 10**10
# The seed is the Philox key, a 128-bit unsigned integer.
_SEED_LIMIT = 1 << 128
# Generator.random() returns m / 2^53 for an integer 0 <= m < 2^53: the
# top 53 bits of one raw 64-bit word, m = raw >> 11.
_UNIFORM_SCALE = 1 << 53


def _draw_trials(
    seed: int, first: int, orders: np.ndarray, row_draws: np.ndarray | None
) -> None:
    """Fill ``orders[t]`` with the 0-based arrival order of trial
    ``first + t`` and, when ``row_draws`` (int64) is given,
    ``row_draws[t]`` with the m of its row uniform m / 2^53, drawn first
    from the trial's counter block.  The row draw is the integer m that
    ``Generator.random()`` would scale to m / 2^53, taken straight from
    the trial's first raw word as ``random_raw() >> 11``: the same word,
    so the shuffle after it draws what it would after ``random()``.  The
    order is ``RandomState.shuffle`` of ``arange(n)`` on the trial's
    state: the draws, and the order, of ``Generator.permutation(n)``."""
    bit_generator = np.random.Philox(key=seed)
    # A fresh state: counter 0, buffer_pos 4, has_uint32 0, uinteger 0.
    # The setter reads plain lists faster than uint64 arrays.
    state = bit_generator.state
    words = state["state"]
    words["counter"] = counter = words["counter"].tolist()
    words["key"] = words["key"].tolist()
    state["buffer"] = state["buffer"].tolist()
    # bound once, not once per trial
    random_raw = bit_generator.random_raw
    shuffle = np.random.RandomState(bit_generator).shuffle
    orders[:] = np.arange(orders.shape[1])
    for t, order in enumerate(orders):
        counter[3], counter[2] = divmod(first + t, _WORD)
        bit_generator.state = state
        if row_draws is not None:
            row_draws[t] = random_raw() >> 11
        # the same draws as Generator.permutation(n) on a fresh arange(n)
        shuffle(order)


def _pick_rows(cumulative: Sequence[Fraction], row_draws: np.ndarray) -> np.ndarray:
    """``bisect_right(cumulative, m / 2^53)`` for every m in ``row_draws``,
    in integers: m / 2^53 reaches c exactly when m >= ceil(c * 2^53)."""
    thresholds = np.array(
        [-(-c.numerator * _UNIFORM_SCALE // c.denominator) for c in cumulative],
        dtype=np.int64,
    )
    return np.searchsorted(thresholds, row_draws, side="right")


def monte_carlo_estimate(
    alg: OnlineAlgorithm,
    family: PriorFamily,
    trials: int,
    seed: int,
    metric: str = "ratio",
) -> MonteCarloEstimate:
    """Sample (row, arrival order) pairs i.i.d. and average the metric.

    metric "ratio" is the competitive ratio of the accepted value;
    "success" is the indicator of having accepted a maximum-value
    candidate.  Trial i draws from its own Philox counter block
    (``_draw_trials``): a row uniform when the family has more than one
    row, then the arrival order.  The row uniform, exactly m / 2^53, is
    compared in integers against the exact cumulative probabilities
    (``_pick_rows``), and the totals are accumulated in exact arithmetic,
    so results are reproducible across platforms.

    Trials run in chunks of ``max(1, CHUNK_ELEMENTS // n)``, each drawn
    into leading views of one order buffer and one row-draw buffer
    allocated once per estimate, so memory stays flat however many
    trials run;
    since every trial keeps its own counter block, no chunk boundary moves
    a draw.  A run of more than MAX_TRIAL_ELEMENTS trials * max(n, 100)
    is refused before the first draw.

    The outcome of a trial depends only on its row and the accepted
    value, so each row's trials are tallied by accepted value and each
    (row, value) outcome is added once, weighted by its count, against
    the row's maximum taken once per row.  A batch
    runner's picks are counted by candidate (bin 0: nothing accepted, bin
    c + 1: candidate c) across all chunks, and candidates of equal value
    are merged once at the end; without a batch runner each chunk's
    orders go through ``_tally``, at n <= MAX_ENUMERATION_N each distinct
    order once with its count, and the counts are summed."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < _SEED_LIMIT:
        raise ParameterError(f"seed must be in [0, 2^128), got {seed}")
    if metric not in ("ratio", "success"):
        raise ParameterError(f"metric must be 'ratio' or 'success', got {metric!r}")
    n = family.n
    if trials * max(n, 100) > MAX_TRIAL_ELEMENTS:
        raise ParameterError(
            f"trials * max(n, 100) must be at most {MAX_TRIAL_ELEMENTS}, "
            f"got {trials} * {max(n, 100)}"
        )
    scenarios = _support(family)
    # The cumulative probabilities rise strictly without zero-mass rows.
    cumulative = (
        list(itertools.accumulate(p for _, p in scenarios)) if len(scenarios) > 1 else None
    )
    # Each row is set up once per estimate, not once per chunk.
    if alg.run_batch is not None:
        ranks = [_dense_ranks(scenario.values) for scenario, _ in scenarios]
        hits = np.zeros((len(scenarios), n + 1), dtype=np.int64)
    else:
        tallies: list[Counter[Fraction | None]] = [Counter() for _ in scenarios]
        # codes in base n, first on top, to tally each distinct order once
        places = n ** np.arange(n - 1, -1, -1) if n <= MAX_ENUMERATION_N else None

    chunk = max(1, CHUNK_ELEMENTS // n)
    # per trial an optional row uniform, then the arrival order, in one
    # pair of buffers for the whole estimate (see CHUNK_ELEMENTS)
    order_buffer = np.empty((min(chunk, trials), n), dtype=np.int64)
    draw_buffer = None if cumulative is None else np.empty(len(order_buffer), dtype=np.int64)
    for first in range(0, trials, chunk):
        size = min(chunk, trials - first)
        orders = order_buffer[:size]
        row_draws = None if draw_buffer is None else draw_buffer[:size]
        _draw_trials(seed, first, orders, row_draws)
        rows = None if row_draws is None else _pick_rows(cumulative, row_draws)
        for row, (scenario, _) in enumerate(scenarios):
            block = orders if rows is None else orders[rows == row]
            if block.shape[0] == 0:
                continue
            if alg.run_batch is not None:
                accepted = alg.run_batch(block, ranks[row])
                hits[row] += np.bincount(accepted + 1, minlength=n + 1)
            else:
                counts = None
                if places is not None:  # each distinct order once, with its count
                    codes, counts = np.unique(block @ places, return_counts=True)
                    block, counts = codes[:, None] // places % n, counts.tolist()
                tallies[row] += _tally(alg.decide, scenario, (block + 1).tolist(), counts)
        del rows, block  # the row picks and last block go before the next chunk draws
    if alg.run_batch is not None:
        tallies = [
            _value_counts(row_hits, scenario)
            for row_hits, (scenario, _) in zip(hits.tolist(), scenarios)
        ]

    total = Fraction(0)
    total_sq = Fraction(0)
    for (scenario, _), tally in zip(scenarios, tallies):
        # A tally holds only values of its row, and _support refused rows
        # with no positive value, so the ratio needs no further check.
        best = scenario_max(scenario)
        for accepted, count in tally.items():
            if metric == "success":
                outcome = Fraction(1) if accepted == best else Fraction(0)
            else:
                outcome = Fraction(0) if accepted is None else accepted / best
            total += count * outcome
            total_sq += count * outcome * outcome

    mean = total / trials
    if trials > 1:
        variance = (total_sq - trials * mean * mean) / (trials - 1)
        std_error = math.sqrt(max(0.0, float(variance)) / trials)
    else:
        std_error = 0.0
    return MonteCarloEstimate(
        mean_exact=mean,
        std_error=std_error,
        trials=trials,
        seed=seed,
        metric=metric,
    )


def _value_counts(hits: Sequence[int], scenario: Scenario) -> Counter[Fraction | None]:
    """Merge a row's hits by candidate (bin 0: nothing accepted, bin c + 1:
    candidate c) into counts by accepted value (``None``: nothing)."""
    tally: Counter[Fraction | None] = Counter()
    for index, count in enumerate(hits, start=-1):
        if count:
            tally[None if index < 0 else scenario.values[index]] += count
    return tally


def dynkin_success_probability(n: int) -> Fraction:
    """Exact probability that the classic rule picks the maximum when all
    n values are distinct: (l/n) * sum_{i=l+1}^{n} 1/(i-1) with
    l = floor(n/e); for l = 0 the rule accepts the first arrival, which
    is the maximum with probability 1/n.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    cutoff = floor_n_over_e(n)
    if cutoff == 0:
        return Fraction(1, n)
    return Fraction(cutoff, n) * sum(
        (Fraction(1, i - 1) for i in range(cutoff + 1, n + 1)), Fraction(0)
    )
