import hashlib
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secretary_lab import (
    Action,
    ConstructionParams,
    DegenerateInstanceError,
    EnumerationGuardError,
    InformationState,
    InvalidFamilyError,
    MissingStateError,
    Policy,
    PriorFamily,
    Scenario,
    UnreachableStateError,
    brute_force_optimum,
    build_hard_family,
    competitive_ratio,
    consistent_actions,
    evaluate_policy,
    is_consistent,
    oracle_optimum,
    posterior,
    random_policy,
    reachable_states,
    scenario_max,
    solve_optimal,
)
from secretary_lab.policy import _simulate, _tally

S = Fraction(5)
BOTH = frozenset({Action.ACCEPT, Action.REJECT})

# The anchor family (eps = 1/10, s = 5, k = 4, n = 3) has constrained
# optimum 1703/3125 and unconstrained optimum 11/15; both were frozen
# after cross-checking backward induction against exhaustive policy
# enumeration.
CONSTRAINED_OPT = Fraction(1703, 3125)
UNCONSTRAINED_OPT = Fraction(11, 15)


def state(observed, current) -> InformationState:
    return InformationState(tuple(observed), current)


# ---------------------------------------------------------------------------
# Information states and policies as data.
# ---------------------------------------------------------------------------

def test_state_serialize_and_parse():
    st = state([(1, S), (3, Fraction(1))], (2, S**3))
    text = st.serialize()
    assert text == "(1:5),(3:1)|current=(2:125)"
    assert InformationState.parse(text) == st
    empty = state([], (2, Fraction(5, 2)))
    assert empty.serialize() == "|current=(2:5/2)"
    assert InformationState.parse(empty.serialize()) == empty


def test_state_rejects_duplicate_indices():
    with pytest.raises(ValueError):
        state([(1, S)], (1, Fraction(1)))


def test_policy_round_trip(tmp_path):
    actions = {
        state([], (1, S)): Action.ACCEPT,
        state([(1, S)], (2, Fraction(1))): Action.REJECT,
    }
    policy = Policy(actions)
    assert Policy.from_dict(policy.to_dict()) == policy
    path = tmp_path / "policy.json"
    policy.dump(path)
    assert Policy.load(path) == policy
    assert len(policy) == 2


def test_missing_state_error_names_the_state():
    with pytest.raises(MissingStateError) as err:
        Policy().action_for(state([], (1, S)))
    assert "current=(1:5)" in str(err.value)


# ---------------------------------------------------------------------------
# Posteriors.
# ---------------------------------------------------------------------------

def test_posterior_first_arrival_is_uninformative(anchor_family):
    masses = posterior(anchor_family, state([], (1, S)))
    assert masses[1] == Fraction(1, 10)
    assert all(masses[row] == Fraction(3, 20) for row in range(2, 8))


def test_posterior_identifies_unique_row(anchor_family):
    masses = posterior(anchor_family, state([], (2, S**2)))
    assert masses[2] == 1
    assert sum(masses.values()) == 1
    masses = posterior(anchor_family, state([], (2, Fraction(1))))
    assert masses[1] == 1


def test_posterior_confusion_pair(anchor_family):
    # X_2 = s^3 appears in exactly two rows with equal prior mass.
    masses = posterior(anchor_family, state([], (2, S**3)))
    assert masses[3] == Fraction(1, 2)
    assert masses[5] == Fraction(1, 2)
    assert masses[2] == 0
    masses = posterior(anchor_family, state([(1, S)], (3, S**3)))
    assert masses[2] == Fraction(1, 2)
    assert masses[4] == Fraction(1, 2)


def test_posterior_unreachable_state(anchor_family):
    with pytest.raises(UnreachableStateError):
        posterior(anchor_family, state([], (2, S**6)))
    with pytest.raises(UnreachableStateError):
        posterior(anchor_family, state([], (4, Fraction(1))))


# ---------------------------------------------------------------------------
# The consistency constraint.
# ---------------------------------------------------------------------------

def test_constraint_forces_accept_on_predicted_max(anchor_family):
    prediction = anchor_family.prediction()
    assert consistent_actions(prediction, state([], (1, S))) == {Action.ACCEPT}


def test_constraint_forces_reject_before_predicted_max(anchor_family):
    prediction = anchor_family.prediction()
    assert consistent_actions(prediction, state([], (2, Fraction(1)))) == {
        Action.REJECT
    }


def test_constraint_vacuous_off_path(anchor_family):
    prediction = anchor_family.prediction()
    assert consistent_actions(prediction, state([], (2, S**2))) == BOTH
    assert consistent_actions(prediction, state([(2, S**3)], (1, S))) == BOTH


def test_constraint_vacuous_when_max_already_rejected(anchor_family):
    # On-path state where the only predicted maximum sits in the rejected
    # prefix: no constrained policy can reach it, so nothing is forced.
    prediction = anchor_family.prediction()
    st = state([(1, S)], (2, Fraction(1)))
    assert consistent_actions(prediction, st) == BOTH


# ---------------------------------------------------------------------------
# Solving and evaluating.
# ---------------------------------------------------------------------------

def test_constrained_solve_matches_frozen_optimum(anchor_family):
    report = solve_optimal(anchor_family, constrained=True)
    assert report.optimum == CONSTRAINED_OPT
    assert report.constrained is True
    assert is_consistent(report.policy, anchor_family.prediction())


def test_unconstrained_solve(anchor_family):
    report = solve_optimal(anchor_family, constrained=False)
    assert report.optimum == UNCONSTRAINED_OPT
    assert report.optimum > CONSTRAINED_OPT
    assert not is_consistent(report.policy, anchor_family.prediction())


def test_evaluate_round_trips_the_solved_policy(anchor_family):
    solved = solve_optimal(anchor_family, constrained=True)
    evaluated = evaluate_policy(solved.policy, anchor_family)
    assert evaluated.optimum == solved.optimum
    assert evaluated.per_row == solved.per_row
    assert evaluated.constrained is None


def test_per_row_mixture_identity(anchor_family):
    report = solve_optimal(anchor_family, constrained=True)
    mixture = sum(
        anchor_family.probability_of(row) * ratio
        for row, ratio in report.per_row.items()
    )
    assert mixture == report.optimum
    # A consistent policy is exact on the predicted row.
    assert report.per_row[1] == 1
    assert report.worst_row[1] == min(report.per_row.values())
    assert report.per_row[report.worst_row[0]] == report.worst_row[1]


# SHA-256 of the policy file text as an induction over every ordered
# history writes it: computing each value once per set of arrivals must
# not change the table by a byte.
POLICY_DIGESTS = {
    (4, 5, True): "1c953f562f0d6e2e368acbdb0a395fbbeec21a759f94da71f97d4a0412c38a30",
    (4, 5, False): "82b325b65b7a48ddb5f3ea40cf30274c180a9b79627955992ff6617ed134aff3",
    (6, 4, True): "96423c5b7a414061226e9de7db9ffcdcb772a63b52e18663af0141df4073569f",
    (6, 4, False): "2b2a6e4bbc5c279d4638d7c8c9bc0b63cc3a80666a612009f8d125f31952b1d6",
}
POLICY_SIZES = {(4, 5, True): 1293, (4, 5, False): 1989, (6, 4, True): 395, (6, 4, False): 576}


@pytest.mark.parametrize("k, n, constrained", sorted(POLICY_DIGESTS))
def test_policy_table_is_byte_identical(k, n, constrained):
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, k, n=n))
    policy = solve_optimal(family, constrained=constrained).policy
    text = json.dumps(policy.to_dict(), indent=2, sort_keys=True) + "\n"
    assert text == policy.to_json()
    assert len(policy) == POLICY_SIZES[k, n, constrained]
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == POLICY_DIGESTS[k, n, constrained]


def test_solved_policy_covers_every_reachable_state(anchor_family):
    # The unconstrained solver visits the whole tree; the constrained one
    # never enters subtrees the constraint prunes, so it covers a subset.
    unconstrained = solve_optimal(anchor_family, constrained=False)
    assert set(unconstrained.policy.actions) == set(reachable_states(anchor_family))
    constrained = solve_optimal(anchor_family, constrained=True)
    assert set(constrained.policy.actions) <= set(unconstrained.policy.actions)


def test_report_to_dict(anchor_family):
    payload = solve_optimal(anchor_family, constrained=True).to_dict(digits=6)
    assert payload["optimum"] == {"exact": "1703/3125", "decimal": "0.544960"}
    assert payload["constrained"] is True
    assert str(payload["worst_row"]["id"]) in payload["per_row"]


def test_solver_self_check_raises_on_disagreement(monkeypatch, anchor_family):
    # The induction-versus-evaluation check must survive python -O.
    import secretary_lab.policy as policy_module

    evaluate = policy_module.evaluate_policy

    def skewed(policy, family):
        report = evaluate(policy, family)
        report.optimum += Fraction(1, 10**9)
        return report

    monkeypatch.setattr(policy_module, "evaluate_policy", skewed)
    with pytest.raises(RuntimeError, match="disagree"):
        solve_optimal(anchor_family, constrained=True)


def test_single_candidate_family():
    family = PriorFamily(
        n=1,
        scenarios=(Scenario(1, (Fraction(7),)),),
        probabilities=(Fraction(1),),
        prediction_id=1,
    )
    report = solve_optimal(family, constrained=True)
    assert report.optimum == 1
    assert report.policy.action_for(state([], (1, Fraction(7)))) == Action.ACCEPT


# ---------------------------------------------------------------------------
# Guards.
# ---------------------------------------------------------------------------

def test_enumeration_guard():
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, 4, n=9))
    with pytest.raises(EnumerationGuardError):
        solve_optimal(family, constrained=True)


def test_invalid_family_rejected():
    family = PriorFamily(
        n=2,
        scenarios=(Scenario(1, (Fraction(2), Fraction(1))),),
        probabilities=(Fraction(9, 10),),
        prediction_id=1,
    )
    with pytest.raises(InvalidFamilyError):
        solve_optimal(family, constrained=True)


def test_degenerate_row_rejected():
    family = PriorFamily(
        n=2,
        scenarios=(
            Scenario(1, (Fraction(2), Fraction(1))),
            Scenario(2, (Fraction(0), Fraction(0))),
        ),
        probabilities=(Fraction(1, 2), Fraction(1, 2)),
        prediction_id=1,
    )
    with pytest.raises(DegenerateInstanceError):
        solve_optimal(family, constrained=True)


# ---------------------------------------------------------------------------
# Independent oracle and random policies.
# ---------------------------------------------------------------------------

def test_brute_force_agrees_with_backward_induction(anchor_family):
    assert brute_force_optimum(anchor_family, constrained=True) == CONSTRAINED_OPT


def test_brute_force_unconstrained_on_small_family():
    family = PriorFamily(
        n=3,
        scenarios=(
            Scenario(1, (Fraction(3), Fraction(1), Fraction(2))),
            Scenario(2, (Fraction(1), Fraction(4), Fraction(2))),
            Scenario(3, (Fraction(1), Fraction(2), Fraction(4))),
        ),
        probabilities=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        prediction_id=1,
    )
    for constrained in (True, False):
        assert brute_force_optimum(family, constrained=constrained) == solve_optimal(
            family, constrained=constrained
        ).optimum


def test_brute_force_cap(anchor_family):
    with pytest.raises(EnumerationGuardError):
        brute_force_optimum(anchor_family, max_policies_per_subtree=10)


def test_brute_force_on_second_point():
    family = build_hard_family(ConstructionParams(Fraction(1, 100), S, 4))
    assert brute_force_optimum(family, constrained=True) == solve_optimal(
        family, constrained=True
    ).optimum


def test_random_policy_determinism(anchor_family):
    a = random_policy(anchor_family, seed=11)
    b = random_policy(anchor_family, seed=11)
    assert a == b
    assert random_policy(anchor_family, seed=12) != a


@pytest.mark.parametrize("seed", range(8))
def test_random_constrained_policies_are_dominated(anchor_family, seed):
    policy = random_policy(anchor_family, seed=seed, constrained=True)
    assert is_consistent(policy, anchor_family.prediction())
    assert evaluate_policy(policy, anchor_family).optimum <= CONSTRAINED_OPT


def enumerated_evaluation(policy, family):
    """Reference evaluator: one simulation per (row, arrival order) pair.
    Returns the mixture value and the per-row map."""
    orders = list(itertools.permutations(range(1, family.n + 1)))
    per_row = {}
    for scenario, probability in family.items():
        if probability == 0:
            continue
        row_total = sum(
            (competitive_ratio(_simulate(policy, scenario, order), scenario)
             for order in orders),
            Fraction(0),
        )
        per_row[scenario.id] = row_total / len(orders)
    mixture = sum(
        (family.probability_of(row) * value for row, value in per_row.items()),
        Fraction(0),
    )
    return mixture, per_row


def assert_evaluators_agree(policy, family):
    evaluated = evaluate_policy(policy, family)
    assert (evaluated.optimum, evaluated.per_row) == enumerated_evaluation(policy, family)


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("constrained", (True, False))
def test_evaluation_matches_order_enumeration_on_random_policies(n, constrained):
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, 4, n=n))
    for seed in range(20):
        assert_evaluators_agree(random_policy(family, seed, constrained), family)


def test_both_evaluators_refuse_a_policy_with_a_missing_state(anchor_family):
    actions = dict(random_policy(anchor_family, seed=3, constrained=False).actions)
    del actions[InformationState((), (2, S**3))]
    holed = Policy(actions)
    with pytest.raises(MissingStateError):
        evaluate_policy(holed, anchor_family)
    with pytest.raises(MissingStateError):
        enumerated_evaluation(holed, anchor_family)


def test_random_unconstrained_policy_can_break_consistency(anchor_family):
    broken = [
        seed
        for seed in range(6)
        if not is_consistent(
            random_policy(anchor_family, seed=seed, constrained=False),
            anchor_family.prediction(),
        )
    ]
    assert broken


def test_tally_decides_each_prefix_once():
    scenario = Scenario(1, (S, Fraction(1), Fraction(2), Fraction(3)))
    orders = list(itertools.permutations(range(1, 5)))
    calls = []

    def never(observed, current):
        calls.append((observed, current))
        return Action.REJECT

    assert _tally(never, scenario, orders) == {None: 24}
    # 4 + 12 + 24 + 24 distinct prefixes of lengths 1 to 4
    assert len(calls) == len(set(calls)) == 64

    def first(observed, current):
        return Action.ACCEPT

    # the input order of the orders does not matter
    counts = _tally(first, scenario, orders[::-1])
    assert counts == {value: 6 for value in scenario.values}


def enumerated_consistency(policy, prediction):
    """Reference check: one simulation per arrival order of the
    prediction row, each of which must accept a maximum value."""
    best = scenario_max(prediction)
    orders = itertools.permutations(range(1, len(prediction.values) + 1))
    return all(_simulate(policy, prediction, order) == best for order in orders)


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("constrained", (True, False))
def test_consistency_matches_order_enumeration_on_random_policies(n, constrained):
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, 4, n=n))
    prediction = family.prediction()
    verdicts = []
    for seed in range(20):
        policy = random_policy(family, seed, constrained)
        verdicts.append(is_consistent(policy, prediction))
        assert verdicts[-1] == enumerated_consistency(policy, prediction)
    # every constrained policy is consistent; some unconstrained one is not
    assert all(verdicts) == constrained


# ---------------------------------------------------------------------------
# Differential check on generated families.
# ---------------------------------------------------------------------------

# A pool of three values makes ties within and across rows common.
SMALL_VALUES = st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(2)))


@st.composite
def small_families(draw) -> PriorFamily:
    """Valid families with n <= 3, one to three rows of positive mass, and
    sometimes one extra row of mass zero; any row may be the prediction.

    n = 4 is left out: unconstrained brute force alone takes over a second
    per family there.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    if draw(st.booleans()):
        weights.append(0)
    scenarios = tuple(
        Scenario(row, tuple(draw(SMALL_VALUES) for _ in range(n)))
        for row in range(1, len(weights) + 1)
    )
    total = sum(weights)
    return PriorFamily(
        n=n,
        scenarios=scenarios,
        probabilities=tuple(Fraction(w, total) for w in weights),
        prediction_id=draw(st.integers(1, len(weights))),
    )


@settings(max_examples=40, deadline=None)
@given(small_families())
def test_solver_brute_force_and_evaluation_agree(family):
    for constrained in (True, False):
        solved = solve_optimal(family, constrained=constrained)
        assert brute_force_optimum(family, constrained=constrained) == solved.optimum
        evaluated = evaluate_policy(solved.policy, family)
        assert evaluated.optimum == solved.optimum
        assert evaluated.per_row == solved.per_row
        assert enumerated_evaluation(solved.policy, family) == (
            evaluated.optimum,
            evaluated.per_row,
        )


@settings(max_examples=60, deadline=None)
@given(
    eps=st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=1000).filter(
        lambda eps: eps > 0
    ),
    s=st.integers(2, 80),
    k=st.sampled_from((4, 6)),
    n=st.integers(3, 5),
)
def test_solver_matches_closed_form_on_hard_families(eps, s, k, n):
    family = build_hard_family(ConstructionParams(eps, Fraction(s), k, n=n))
    assert solve_optimal(family, constrained=True).optimum == oracle_optimum(eps, s, k)


# ---------------------------------------------------------------------------
# The integer scale of the induction: weights p_r / max_r over their common
# denominator and values over theirs, one division per solve.
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@example(eps=Fraction(1, 10), s=Fraction(5, 4), k=4, n=3)
@example(eps=Fraction(1, 10), s=Fraction(7, 3), k=6, n=5)
@given(
    eps=st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=1000).filter(
        lambda eps: eps > 0
    ),
    s=st.fractions(min_value=1, max_value=80, max_denominator=20).filter(lambda s: s > 1),
    k=st.sampled_from((4, 6)),
    n=st.integers(3, 5),
)
def test_solver_matches_closed_form_at_rational_s(eps, s, k, n):
    family = build_hard_family(ConstructionParams(eps, s, k, n=n))
    assert solve_optimal(family, constrained=True).optimum == oracle_optimum(eps, s, k)


# Values whose denominators are pairwise coprime, so the value scale is
# their product; ties across rows still occur.
COPRIME_VALUES = st.sampled_from((Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)))


@st.composite
def coprime_families(draw) -> PriorFamily:
    """Families with n <= 3, three rows with probabilities a/7, b/11 and
    the rest (denominator 77), and one extra row of mass zero."""
    n = draw(st.integers(min_value=1, max_value=3))
    first = Fraction(draw(st.integers(1, 3)), 7)
    second = Fraction(draw(st.integers(1, 4)), 11)
    probabilities = (first, second, 1 - first - second, Fraction(0))
    order = draw(st.permutations(range(4)))
    scenarios = tuple(
        Scenario(row, tuple(draw(COPRIME_VALUES) for _ in range(n)))
        for row in range(1, 5)
    )
    return PriorFamily(
        n=n,
        scenarios=scenarios,
        probabilities=tuple(probabilities[i] for i in order),
        prediction_id=draw(st.integers(1, 4)),
    )


@settings(max_examples=40, deadline=None)
@given(coprime_families())
def test_scaled_induction_agrees_on_coprime_denominators(family):
    for constrained in (True, False):
        solved = solve_optimal(family, constrained=constrained)
        assert brute_force_optimum(family, constrained=constrained) == solved.optimum
        evaluated = evaluate_policy(solved.policy, family)
        assert (evaluated.optimum, evaluated.per_row) == (solved.optimum, solved.per_row)


def test_policy_text_does_not_depend_on_shared_arrivals(anchor_family):
    # A solved table shares one tuple per distinct arrival; a table that
    # holds a fresh copy of every arrival must write the same text, and
    # loading it shares the arrivals again.
    solved = solve_optimal(anchor_family, constrained=False).policy

    def fresh(arrival):
        return (arrival[0], Fraction(arrival[1].numerator, arrival[1].denominator))

    copied = Policy(
        {
            InformationState(tuple(map(fresh, key.observed)), fresh(key.current)): action
            for key, action in solved.actions.items()
        }
    )
    assert copied.to_json() == solved.to_json()
    loaded = Policy.from_dict(copied.to_dict())
    assert loaded == solved
    for policy in (solved, loaded):
        arrivals = [arrival for key in policy.actions for arrival in key.arrivals()]
        assert len({id(arrival) for arrival in arrivals}) == len(set(arrivals))
