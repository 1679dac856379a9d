import bisect
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from secretary_lab import (
    ConstructionParams,
    DegenerateInstanceError,
    EnumerationGuardError,
    InvalidFamilyError,
    MonteCarloEstimate,
    OnlineAlgorithm,
    ParameterError,
    PriorFamily,
    Scenario,
    decimal_str,
    dynkin_policy,
    dynkin_success_probability,
    evaluate_algorithm,
    evaluate_policy,
    exact_expected_ratio,
    is_consistent,
    algorithm_to_policy,
    build_hard_family,
    competitive_ratio,
    monte_carlo_estimate,
    prediction_argmax_policy,
    solve_optimal,
)
import secretary_lab.baselines as baselines_module
import secretary_lab.policy as policy_module
from secretary_lab.baselines import _dense_ranks, _draw_trials, _pick_rows
from secretary_lab.policy import Action, _exact_ratios, _set_ratios

F = Fraction

# Frozen exact mixture ratios on the anchor family (eps = 1/10, s = 5,
# k = 4, n = 3), derived by summing the per-row first-arrival averages by
# hand and confirmed by the order enumeration below on first run.
PRED_ARGMAX_ANCHOR = F(359, 3125)
ACCEPT_FIRST_ANCHOR = F(3859, 9375)


def distinct_family(n: int) -> PriorFamily:
    scenario = Scenario(1, tuple(F(i) for i in range(1, n + 1)))
    return PriorFamily(
        n=n, scenarios=(scenario,), probabilities=(F(1),), prediction_id=1
    )


def acceptance_position(alg: OnlineAlgorithm, scenario: Scenario, order) -> int | None:
    history = ()
    for position, index in enumerate(order, start=1):
        arrival = (index, scenario.value_at(index))
        if alg.decide(history, arrival).value == "accept":
            return position
        history += (arrival,)
    return None


# ---------------------------------------------------------------------------
# The classic threshold rule.
# ---------------------------------------------------------------------------

def test_dynkin_rejects_n_below_one():
    with pytest.raises(ParameterError):
        dynkin_policy(0)


def test_dynkin_small_horizons():
    # floor(n/e) = 0 for n <= 2: the rule takes the first arrival.
    scenario = Scenario(1, (F(1), F(2)))
    alg = dynkin_policy(2)
    assert policy_module._simulate(alg.decide, scenario, (1, 2)) == 1
    assert policy_module._simulate(alg.decide, scenario, (2, 1)) == 2
    assert policy_module._simulate(dynkin_policy(1).decide, Scenario(1, (F(9),)), (1,)) == 9


def test_dynkin_threshold_behavior():
    scenario = Scenario(1, (F(1), F(2), F(3)))
    alg = dynkin_policy(3)
    assert policy_module._simulate(alg.decide, scenario, (3, 2, 1)) == 1  # forced last pick
    assert policy_module._simulate(alg.decide, scenario, (1, 3, 2)) == 3
    assert policy_module._simulate(alg.decide, scenario, (2, 1, 3)) == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dynkin_never_accepts_inside_prefix(n):
    from secretary_lab.exact import floor_n_over_e

    alg = dynkin_policy(n)
    scenario = distinct_family(n).scenarios[0]
    cutoff = floor_n_over_e(n)
    for order in itertools.permutations(range(1, n + 1)):
        position = acceptance_position(alg, scenario, order)
        assert position is not None and position > cutoff


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, F(1)),
        (2, F(1, 2)),
        (3, F(1, 2)),
        (4, F(11, 24)),
        (5, F(5, 12)),
    ],
)
def test_dynkin_success_probability_anchors(n, expected):
    assert dynkin_success_probability(n) == expected


def test_dynkin_success_probability_at_100():
    assert decimal_str(dynkin_success_probability(100), 12) == "0.371014595504"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dynkin_success_probability_matches_exhaustive_count(n):
    alg = dynkin_policy(n)
    scenario = distinct_family(n).scenarios[0]
    wins = sum(
        policy_module._simulate(alg.decide, scenario, order) == F(n)
        for order in itertools.permutations(range(1, n + 1))
    )
    assert dynkin_success_probability(n) == F(wins, math.factorial(n))


def test_dynkin_success_probability_rejects_bad_n():
    with pytest.raises(ParameterError):
        dynkin_success_probability(0)


# ---------------------------------------------------------------------------
# The trust-the-predictions rule.
# ---------------------------------------------------------------------------

def test_pred_argmax_anchor_value(anchor_family):
    alg = prediction_argmax_policy(anchor_family.prediction().values)
    assert exact_expected_ratio(alg, anchor_family) == PRED_ARGMAX_ANCHOR
    assert evaluate_algorithm(alg, anchor_family).optimum == PRED_ARGMAX_ANCHOR


def test_pred_argmax_is_consistent(anchor_family):
    alg = prediction_argmax_policy(anchor_family.prediction().values)
    policy = algorithm_to_policy(alg, anchor_family)
    assert is_consistent(policy, anchor_family.prediction())


def test_pred_argmax_with_tied_predictions_accepts_first(anchor_family):
    alg = prediction_argmax_policy((F(2), F(2), F(2)))
    assert exact_expected_ratio(alg, anchor_family) == ACCEPT_FIRST_ANCHOR


def test_pred_argmax_perfect_on_single_scenario():
    family = distinct_family(4)
    alg = prediction_argmax_policy(family.prediction().values)
    assert exact_expected_ratio(alg, family) == 1


def test_pred_argmax_never_fires_when_target_absent():
    # predicted argmax is candidate 3, but only two candidates arrive
    alg = prediction_argmax_policy((F(1), F(1), F(5)))
    scenario = Scenario(1, (F(3), F(1)))
    assert policy_module._simulate(alg.decide, scenario, (1, 2)) is None
    batch = alg.run_batch(np.array([[0, 1]], dtype=np.int64), _dense_ranks(scenario.values))
    assert batch.tolist() == [-1]


def test_pred_argmax_rejects_empty_predictions():
    with pytest.raises(ParameterError):
        prediction_argmax_policy(())


# ---------------------------------------------------------------------------
# Exact evaluation plumbing.
# ---------------------------------------------------------------------------

def test_exact_ratio_two_routes_agree(anchor_family):
    for alg in (dynkin_policy(3), prediction_argmax_policy((F(5), F(1), F(1)))):
        direct = exact_expected_ratio(alg, anchor_family)
        via_policy = evaluate_algorithm(alg, anchor_family).optimum
        assert direct == via_policy


@pytest.mark.parametrize("n", (3, 5))
def test_evaluate_algorithm_builds_no_table(monkeypatch, n):
    # The report matches the one read off the rule's table, yet no table
    # is built: tabulating would call reachable_states.
    family = build_hard_family(ConstructionParams(F(1, 10), F(5), 4, n=n))
    rules = (dynkin_policy(n), prediction_argmax_policy(family.prediction().values))
    tabulated = [evaluate_policy(algorithm_to_policy(alg, family), family) for alg in rules]

    def refuse(*args):
        raise AssertionError("the rule was tabulated")

    monkeypatch.setattr(policy_module, "reachable_states", refuse)
    monkeypatch.setattr(baselines_module, "reachable_states", refuse)
    monkeypatch.setattr(baselines_module, "algorithm_to_policy", refuse)
    for alg, expected in zip(rules, tabulated):
        report = evaluate_algorithm(alg, family)
        assert report.policy is None
        assert report.policy_states == len(expected.policy)
        assert report.to_dict() == expected.to_dict()


def test_declared_set_rules_are_scored_without_the_tally(monkeypatch, anchor_family):
    # Both baselines declare themselves set-keyed, so exact scoring never
    # tallies an arrival order; a rule that does not still does.
    rules = (dynkin_policy(3), prediction_argmax_policy(anchor_family.prediction().values))
    expected = [evaluate_algorithm(alg, anchor_family).to_dict() for alg in rules]

    def refuse(*args):
        raise AssertionError("an arrival order was tallied")

    monkeypatch.setattr(policy_module, "_tally", refuse)
    for alg, report in zip(rules, expected):
        assert evaluate_algorithm(alg, anchor_family).to_dict() == report
        with pytest.raises(AssertionError, match="tallied"):
            exact_expected_ratio(OnlineAlgorithm(alg.name, alg.decide), anchor_family)


# Few distinct values, so that rows repeat values and arrivals tie with
# the prefix maximum; 0 makes rows of no positive value possible.
TIE_VALUES = (F(0), F(1), F(2), F(5, 2))


@st.composite
def small_families(draw) -> PriorFamily:
    """Families of n <= 5 candidates and up to 4 rows of values from
    TIE_VALUES, some rows of mass 0; a row of positive mass has a
    positive value."""
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 4))
    rows = [
        tuple(draw(st.lists(st.sampled_from(TIE_VALUES), min_size=n, max_size=n)))
        for _ in range(count)
    ]
    weights = [
        draw(st.integers(0, 3)) if any(values) else 0 for values in rows
    ]
    assume(sum(weights))
    return PriorFamily(
        n=n,
        scenarios=tuple(Scenario(i, values) for i, values in enumerate(rows, start=1)),
        probabilities=tuple(F(w, sum(weights)) for w in weights),
        prediction_id=draw(st.integers(1, count)),
    )


def rejected_throughout(decide, history) -> bool:
    return all(decide(history[:i], history[i]) is Action.REJECT for i in range(len(history)))


@settings(derandomize=True, max_examples=100, deadline=None)
@example(family=build_hard_family(ConstructionParams(F(1, 10), F(5), 4, n=5)))
# floor(6/e) = 2, the first n at which dynkin's prefix holds two arrivals
@example(family=build_hard_family(ConstructionParams(F(1, 10), F(5), 4, n=6)))
@given(family=small_families())
def test_set_path_asks_decide_only_on_histories_it_rejects(family):
    # Every history the set path asks decide about was rejected throughout
    # by decide, and decide answers alike on every order of its arrivals
    # that it rejects throughout, so one history gives the set's answer.
    for alg in (dynkin_policy(family.n), prediction_argmax_policy(family.prediction().values)):
        asked = []

        def decide(history, current, alg=alg):
            asked.append((history, current))
            return alg.decide(history, current)

        _set_ratios(decide, family)
        assert asked
        for history, current in asked:
            assert rejected_throughout(alg.decide, history)
            answers = {
                alg.decide(order, current)
                for order in itertools.permutations(history)
                if rejected_throughout(alg.decide, order)
            }
            assert answers == {alg.decide(history, current)}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(family=small_families())
def test_set_path_matches_the_tally(family):
    for alg in (dynkin_policy(family.n), prediction_argmax_policy(family.prediction().values)):
        assert _set_ratios(alg.decide, family) == _exact_ratios(alg.decide, family)


@pytest.mark.parametrize("n", (7, 8))
def test_set_path_matches_the_tally_on_the_hard_family(n):
    family = build_hard_family(ConstructionParams(F(1, 10), F(5), 4, n=n))
    for alg in (dynkin_policy(n), prediction_argmax_policy(family.prediction().values)):
        assert _set_ratios(alg.decide, family) == _exact_ratios(alg.decide, family)


def enumerated_ratio(alg: OnlineAlgorithm, family: PriorFamily) -> Fraction:
    """Reference: one _simulate call per (row, arrival order) pair."""
    orders = list(itertools.permutations(range(1, family.n + 1)))
    simulate = policy_module._simulate
    return sum(
        (probability * competitive_ratio(simulate(alg.decide, scenario, order), scenario)
         for scenario, probability in family.items() if probability > 0
         for order in orders),
        F(0),
    ) / len(orders)


@pytest.mark.parametrize("n", (3, 5), ids=("anchor", "padded-n5"))
def test_exact_ratio_matches_order_enumeration(n):
    family = build_hard_family(ConstructionParams(F(1, 10), F(5), 4, n=n))
    for alg in (dynkin_policy(n), prediction_argmax_policy(family.prediction().values)):
        assert exact_expected_ratio(alg, family) == enumerated_ratio(alg, family)


def test_exact_ratio_guard_points_to_monte_carlo():
    family = distinct_family(9)
    with pytest.raises(EnumerationGuardError) as err:
        exact_expected_ratio(dynkin_policy(9), family)
    assert "monte_carlo" in str(err.value)


def test_every_scorer_refuses_an_invalid_family():
    # No scorer can receive a family whose probabilities sum to 117/20:
    # the constructor refuses it.
    with pytest.raises(InvalidFamilyError) as err:
        PriorFamily(
            n=2, scenarios=(Scenario(1, (F(2), F(1))),), probabilities=(F(117, 20),),
            prediction_id=1,
        )
    assert err.value.violations == ["mass != 1 (probabilities sum to 117/20)"]


def test_monte_carlo_refuses_an_all_zero_row_before_the_first_draw(monkeypatch):
    family = PriorFamily(
        n=2,
        scenarios=(Scenario(1, (F(2), F(1))), Scenario(2, (F(0), F(0)))),
        probabilities=(F(1, 2), F(1, 2)),
        prediction_id=1,
    )

    def drawn(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(baselines_module, "_draw_trials", drawn)
    with pytest.raises(
        DegenerateInstanceError,
        match="^scenario 2 has positive probability but no positive value$",
    ):
        monte_carlo_estimate(dynkin_policy(2), family, trials=10, seed=0)


def test_hooks_agree_with_decide_everywhere(anchor_family):
    algs = [
        dynkin_policy(3),
        prediction_argmax_policy(anchor_family.prediction().values),
    ]
    for alg in algs:
        for scenario in anchor_family.scenarios:
            for order in itertools.permutations(range(1, 4)):
                expected = policy_module._simulate(alg.decide, scenario, order)
                block = np.array([[i - 1 for i in order]], dtype=np.int64)
                accepted = alg.run_batch(block, _dense_ranks(scenario.values))[0]
                batch_value = (
                    None if accepted < 0 else scenario.values[int(accepted)]
                )
                assert batch_value == expected


# ---------------------------------------------------------------------------
# Monte Carlo.
# ---------------------------------------------------------------------------

def test_monte_carlo_is_deterministic(anchor_family):
    alg = dynkin_policy(3)
    a = monte_carlo_estimate(alg, anchor_family, trials=300, seed=42)
    b = monte_carlo_estimate(alg, anchor_family, trials=300, seed=42)
    assert a.mean_exact == b.mean_exact
    assert a.std_error == b.std_error
    c = monte_carlo_estimate(alg, anchor_family, trials=300, seed=43)
    assert c.mean_exact != a.mean_exact


def test_monte_carlo_paths_are_bit_identical(anchor_family, monkeypatch):
    # run_batch counts and decide counts must give the same estimate, and
    # the same across chunks of 450 order entries (150 trials at n = 3, 50
    # at n = 9) as in one chunk.  At n = 9, above MAX_ENUMERATION_N, the
    # decide counts tally every sampled order, not the distinct ones.
    family_9 = build_hard_family(ConstructionParams(F(1, 10), F(5), 4, n=9))
    cases = [
        (anchor_family, (dynkin_policy(3), prediction_argmax_policy((F(5), F(1), F(1))))),
        (family_9, (dynkin_policy(9), prediction_argmax_policy(family_9.prediction().values))),
    ]
    for family, rules in cases:
        for full in rules:
            decide_only = OnlineAlgorithm(full.name, full.decide, None)
            for metric in ("ratio", "success"):
                estimates = []
                for chunk_elements in (baselines_module.CHUNK_ELEMENTS, 3 * 150):
                    with monkeypatch.context() as patch:
                        patch.setattr(baselines_module, "CHUNK_ELEMENTS", chunk_elements)
                        estimates += [
                            monte_carlo_estimate(alg, family, trials=400, seed=5,
                                                 metric=metric)
                            for alg in (full, decide_only)
                        ]
                assert all(estimate == estimates[0] for estimate in estimates)


def hard_family_100() -> PriorFamily:
    return build_hard_family(ConstructionParams(F(1, 10), F(5), 4, n=100))


def test_monte_carlo_across_chunks_is_pinned():
    # Three chunks and 7 trials at n = 100 over 7 rows; the figures were
    # recorded when every trial was drawn into one buffer.
    trials = 7870
    assert trials == 3 * (baselines_module.CHUNK_ELEMENTS // 100) + 7
    family = hard_family_100()
    ratio = monte_carlo_estimate(dynkin_policy(100), family, trials=trials, seed=3)
    assert ratio.mean_exact == F(3979041, 12296875)
    assert ratio.std_error == 0.004909659308747226
    success = monte_carlo_estimate(
        dynkin_policy(100), family, trials=trials, seed=3, metric="success"
    )
    assert success.mean_exact == F(2263, 7870)
    assert success.std_error == 0.005102382942236633


def traced_peak(alg: OnlineAlgorithm, family: PriorFamily, trials: int) -> int:
    tracemalloc.start()
    try:
        monte_carlo_estimate(alg, family, trials=trials, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_is_flat_in_the_trial_count():
    # Every chunk draws into views of one order buffer and one row-draw
    # buffer, so 4 and 16 chunks peak where one chunk does; a 2 MiB order
    # buffer allocated per chunk, alive beside the last chunk's, peaked at
    # 4.37 MiB over 4 chunks against 2.85 MiB for one.
    family = hard_family_100()
    alg = dynkin_policy(100)
    chunk = baselines_module.CHUNK_ELEMENTS // 100
    # numpy's one-time allocations are made before any peak is read
    monte_carlo_estimate(alg, family, trials=10, seed=0)
    peaks = [traced_peak(alg, family, chunks * chunk) for chunks in (1, 4, 16)]
    # a buffer of every trial's order would take 8 * n * trials bytes
    all_orders = 8 * 100 * 16 * chunk
    assert all(abs(peak - peaks[0]) < 256 * 1024 for peak in peaks)
    assert max(peaks) < all_orders / 4


def test_monte_carlo_table_rule_draws_every_chunk_into_one_buffer(monkeypatch):
    # A table rule has no batch runner, so each chunk's orders go through
    # _tally, each distinct order once; three full chunks and a partial
    # one of 10,922 trials at n = 6, a 512 KiB order buffer, peak where
    # one chunk does.
    family = build_hard_family(ConstructionParams(F(1, 10), F(5), 4, n=6))
    alg = OnlineAlgorithm("policy", solve_optimal(family, constrained=True).policy.decide)
    monkeypatch.setattr(baselines_module, "CHUNK_ELEMENTS", 1 << 16)
    chunk = baselines_module.CHUNK_ELEMENTS // 6
    # numpy's one-time allocations are made before either peak is read
    monte_carlo_estimate(alg, family, trials=10, seed=0)
    one_chunk = traced_peak(alg, family, chunk)
    assert abs(traced_peak(alg, family, 3 * chunk + 7) - one_chunk) < 256 * 1024


def test_trial_cap_is_checked_before_the_first_draw(monkeypatch):
    class Drawn(Exception):
        pass

    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(baselines_module, "_draw_trials", drawn)
    cap = baselines_module.MAX_TRIAL_ELEMENTS
    # below n = 100 a trial's fixed cost dominates, so n = 3 gets no more
    # trials than n = 100
    for n in (100, 3):
        family = distinct_family(n)
        with pytest.raises(Drawn):
            monte_carlo_estimate(dynkin_policy(n), family, trials=cap // 100, seed=0)
        with pytest.raises(
            ParameterError, match="trials \\* max\\(n, 100\\) must be at most"
        ):
            monte_carlo_estimate(dynkin_policy(n), family, trials=cap // 100 + 1, seed=0)


def test_monte_carlo_tracks_exact_value(anchor_family):
    alg = dynkin_policy(3)
    exact = exact_expected_ratio(alg, anchor_family)
    estimate = monte_carlo_estimate(alg, anchor_family, trials=2000, seed=7)
    assert abs(estimate.mean_exact - exact) <= 4 * F(estimate.std_error).limit_denominator(10**12)


def test_monte_carlo_success_metric():
    family = distinct_family(4)
    estimate = monte_carlo_estimate(
        dynkin_policy(4), family, trials=3000, seed=1, metric="success"
    )
    exact = dynkin_success_probability(4)
    assert abs(estimate.mean_exact - exact) <= F(4 * estimate.std_error).limit_denominator(10**12)


def test_monte_carlo_row_draws_are_pinned():
    # 99 rows, so the row of almost every trial is drawn from a long
    # cumulative list; the figures were recorded with a linear scan of
    # that list and must not move under any other search.
    family = build_hard_family(ConstructionParams(F(1, 10), F(50), 50, n=3))
    assert len(family.scenarios) == 99
    estimate = monte_carlo_estimate(dynkin_policy(3), family, trials=2000, seed=0)
    assert estimate.mean_exact == F(
        "1739910346748977331229661542172662058130435739221587854619738209001818441429859818977551"
        "/3552713678800500929355621337890625000000000000000000000000000000000000000000000000000000"
    )
    assert estimate.std_error == 0.011020884573593156


@pytest.mark.parametrize("seed", [0, 2**128 - 1], ids=["seed-0", "seed-max"])
@pytest.mark.parametrize("first", [0, 2**64 - 1], ids=["from-0", "from-2^64-1"])
@pytest.mark.parametrize(
    "n, with_uniform",
    [(100, False), (3, True), (1, False), (2, True), (6, True), (100, True)],
    ids=["single-row", "multi-row", "n1-single-row", "n2-multi-row", "n6-multi-row",
         "n100-multi-row"],
)
def test_monte_carlo_draws_match_a_fresh_generator_per_trial(seed, first, n, with_uniform):
    # The reference builds trial t's substream from scratch; from
    # first = 2^64 - 1 the second trial carries into counter word 3.  The
    # draws shuffle with RandomState; the reference stays Generator's
    # permutation, at n = 6 and 100 the shapes of the benchmark's Monte
    # Carlo runs.
    trials = 40
    orders = np.empty((trials, n), dtype=np.int64)
    row_draws = np.empty(trials, dtype=np.int64) if with_uniform else None
    _draw_trials(seed, first, orders, row_draws)
    for t in range(trials):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=(first + t) * 2**128))
        if with_uniform:
            assert F(int(row_draws[t]), 2**53) == F(rng.random())
        assert orders[t].tolist() == rng.permutation(n).tolist()


@pytest.mark.parametrize(
    "probabilities",
    [
        (F(1, 2), F(1, 4), F(1, 4)),
        build_hard_family(ConstructionParams(F(1, 10), F(50), 50, n=3)).probabilities,
    ],
    ids=["dyadic", "99-row"],
)
def test_row_picks_match_bisection_at_every_boundary(probabilities):
    # Generator.random() returns m / 2^53; try m on and either side of
    # every cumulative boundary.  Dyadic boundaries are hit exactly.
    scale = 2**53
    cumulative = list(itertools.accumulate(p for p in probabilities if p > 0))
    numerators = sorted({
        m
        for c in cumulative
        for t in (math.ceil(c * scale),)
        for m in (t - 1, t, t + 1)
        if 0 <= m < scale
    })
    assert _pick_rows(cumulative, np.array(numerators)).tolist() == [
        bisect.bisect_right(cumulative, F(m, scale)) for m in numerators
    ]


def test_monte_carlo_single_trial(anchor_family):
    estimate = monte_carlo_estimate(dynkin_policy(3), anchor_family, trials=1, seed=0)
    assert estimate.std_error == 0.0
    assert estimate.trials == 1


def test_monte_carlo_validation(anchor_family):
    with pytest.raises(ParameterError):
        monte_carlo_estimate(dynkin_policy(3), anchor_family, trials=0, seed=0)
    with pytest.raises(ParameterError):
        monte_carlo_estimate(
            dynkin_policy(3), anchor_family, trials=10, seed=0, metric="regret"
        )


def test_estimate_rendering():
    estimate = MonteCarloEstimate(
        mean_exact=F(3, 8), std_error=0.25, trials=16, seed=9, metric="ratio"
    )
    assert estimate.mean == "0.375000000000"
    payload = estimate.to_dict(digits=4)
    assert payload["mean"] == "0.3750"
    assert payload["trials"] == 16
    assert payload["metric"] == "ratio"
