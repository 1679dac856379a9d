"""Reference online algorithms and estimators for their expected ratios.

Two baselines: the classic wait-then-pick threshold rule and the rule
that trusts the announced predictions and waits for their argmax.  A rule
is one function of what it has seen, ``decide(observed, current)``; it
binds the predictions and the number of candidates when it is built, and
``Policy.decide`` makes a policy table a rule.  Each baseline also has a
vectorised batch runner that must agree with its decide.  Scores count
accepted values through one walker, ``policy._tally``, which decides each
distinct arrival prefix once: exactly over all n! orders of every row, or
by seeded Monte Carlo over the sampled orders of each row (through the
batch runner when the rule has one) where n! is out of reach.
"""

from __future__ import annotations

import bisect
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
    competitive_ratio,
    require_valid_family,
    scenario_max,
)
from .policy import (
    Action,
    Arrival,
    DecideFn,
    History,
    Policy,
    SolveReport,
    _exact_ratios,
    _simulate,
    _tally,
    evaluate_policy,
    reachable_states,
)

# A batch runner takes a (trials, n) matrix of 0-based arrival orders for
# one scenario and returns the 0-based accepted candidate per trial
# (-1 when nothing is accepted); it must agree with decide on every order.
BatchFn = Callable[[np.ndarray, Scenario], np.ndarray]


@dataclass(frozen=True)
class OnlineAlgorithm:
    """A named streaming decision rule.

    decide is pure: the action depends only on the arrivals rejected so
    far and the current arrival; it is the reference path.  A rule that
    uses the announced predictions or the number of candidates binds them
    when it is built.  run_batch is an optional fast path that Monte Carlo
    prefers for its acceptance counts: it decides whole blocks of arrival
    orders at once and must reproduce decide exactly.
    """

    name: str
    decide: DecideFn
    run_batch: BatchFn | None = None


def dynkin_policy(n: int) -> OnlineAlgorithm:
    """Classic threshold rule: let pass the first floor(n/e) arrivals,
    then take the first value at least the prefix maximum.

    The cutoff is certified through the rational enclosure of e.  If no
    later arrival qualifies, the final arrival is accepted so the reward
    is always defined.
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

    def run_batch(orders: np.ndarray, scenario: Scenario) -> np.ndarray:
        # Dense ranks order exactly as the exact values do, so the >=
        # comparisons below are free of rounding.
        ranks = _dense_ranks(scenario.values)
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

    return OnlineAlgorithm(name="dynkin", decide=decide, run_batch=run_batch)


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

    def decide(history: History, current: Arrival) -> Action:
        return Action.ACCEPT if current[0] in argmax else Action.REJECT

    def run_batch(orders: np.ndarray, scenario: Scenario) -> np.ndarray:
        targets = np.array(sorted(i - 1 for i in argmax), dtype=np.int64)
        hits = np.isin(orders, targets)
        first = hits.argmax(axis=1)
        accepted = orders[np.arange(orders.shape[0]), first]
        # if no argmax index ever arrives (predictions longer than the
        # orders), the rule never accepts
        return np.where(hits.any(axis=1), accepted, -1)

    return OnlineAlgorithm(name="pred-argmax", decide=decide, run_batch=run_batch)


def run_algorithm(
    alg: OnlineAlgorithm, scenario: Scenario, order: Sequence[int]
) -> Fraction | None:
    """Accepted value when the algorithm faces one arrival order."""
    return _simulate(alg.decide, scenario, order)


def exact_expected_ratio(alg: OnlineAlgorithm, family: PriorFamily) -> Fraction:
    """Exact mixture expected ratio over every (row, arrival order) pair,
    through the same tally as evaluate_policy; refuses n above
    MAX_ENUMERATION_N and points to monte_carlo_estimate."""
    return _exact_ratios(alg.decide, family)[0]


def algorithm_to_policy(alg: OnlineAlgorithm, family: PriorFamily) -> Policy:
    """Tabulate the streaming rule as an explicit state policy over the
    family's reachable states (the bridge to evaluate_policy)."""
    actions = {}
    for state in reachable_states(family):
        actions[state] = alg.decide(state.observed, state.current)
    return Policy(actions)


def evaluate_algorithm(alg: OnlineAlgorithm, family: PriorFamily) -> SolveReport:
    """Per-row evaluation of a streaming rule via its induced state policy."""
    return evaluate_policy(algorithm_to_policy(alg, family), family)


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


# Each trial owns a counter block: trial i uses the 256-bit Philox counter
# starting at i * 2^128, leaving 2^128 draws of in-trial headroom, so the
# streams never overlap and trial order or parallel scheduling cannot
# change any draw.
_TRIAL_STRIDE = 1 << 128
# The seed is the Philox key, a 128-bit unsigned integer.
_SEED_LIMIT = 1 << 128


def _trial_generator(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=trial * _TRIAL_STRIDE))


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
    candidate.  Row selection compares a uniform draw against exact
    cumulative probabilities, and the totals are accumulated in exact
    arithmetic, so results are reproducible across platforms.

    The outcome of a trial depends only on its row and the accepted
    value, so each row's trials are tallied by accepted value
    (``_acceptance_counts``) and each (row, value) outcome is added once,
    weighted by its count.
    """
    require_valid_family(family)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < _SEED_LIMIT:
        raise ParameterError(f"seed must be in [0, 2^128), got {seed}")
    if metric not in ("ratio", "success"):
        raise ParameterError(f"metric must be 'ratio' or 'success', got {metric!r}")
    scenarios = [(s, p) for s, p in family.items() if p > 0]
    cumulative = list(itertools.accumulate(p for _, p in scenarios))
    n = family.n
    multi_row = len(scenarios) > 1

    # Draw all randomness first, one substream per trial: an optional row
    # uniform (exact bisection of the cumulative probabilities, strictly
    # rising without zero-mass rows), then the arrival order.
    rows = np.zeros(trials, dtype=np.int64)
    orders = np.empty((trials, n), dtype=np.int64)
    for trial in range(trials):
        rng = _trial_generator(seed, trial)
        if multi_row:
            u = Fraction(float(rng.random()))
            rows[trial] = bisect.bisect_right(cumulative, u)
        orders[trial] = rng.permutation(n)

    total = Fraction(0)
    total_sq = Fraction(0)
    for row, (scenario, _) in enumerate(scenarios):
        block = orders[rows == row]
        if block.shape[0] == 0:
            continue
        for accepted, count in _acceptance_counts(alg, block, scenario).items():
            outcome = _metric_value(metric, accepted, scenario)
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


def _acceptance_counts(
    alg: OnlineAlgorithm, block: np.ndarray, scenario: Scenario
) -> Counter[Fraction | None]:
    """How many orders of ``block`` (rows of 0-based arrival orders) end
    with each accepted value (``None``: nothing accepted)."""
    if alg.run_batch is not None:
        accepted = alg.run_batch(block, scenario).tolist()
        return Counter(None if c < 0 else scenario.values[c] for c in accepted)
    return _tally(alg.decide, scenario, (block + 1).tolist())


def _metric_value(
    metric: str, accepted_value: Fraction | None, scenario: Scenario
) -> Fraction:
    if metric == "ratio":
        return competitive_ratio(accepted_value, scenario)
    return Fraction(1) if accepted_value == scenario_max(scenario) else Fraction(0)


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
