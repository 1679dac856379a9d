import gc
import hashlib
import itertools
import json
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
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
    dynkin_policy,
    evaluate_policy,
    inv_e_enclosure,
    is_consistent,
    oracle_optimum,
    posterior,
    prediction_argmax_policy,
    random_policy,
    reachable_states,
    scenario_max,
    solve_optimal,
)
import secretary_lab.policy as policy_module
from secretary_lab.policy import _simulate, _tally, reachable_state_count

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
    # a policy file's key loads back as the state it names
    assert Policy.from_dict({text: "accept"}).actions == {st: Action.ACCEPT}
    empty = state([], (2, Fraction(5, 2)))
    assert empty.serialize() == "|current=(2:5/2)"
    assert Policy.from_dict({empty.serialize(): "reject"}).actions == {empty: Action.REJECT}


def test_state_rejects_duplicate_indices():
    with pytest.raises(ValueError):
        state([(1, S)], (1, Fraction(1)))


@settings(max_examples=60, deadline=None)
@example(index=1, numerator=0, denominator=1, up=0, down=0)
@example(index=8, numerator=3, denominator=7, up=4400, down=4400)
@given(
    index=st.integers(min_value=1),
    numerator=st.integers(min_value=0),
    denominator=st.integers(min_value=1),
    up=st.integers(0, 4400),
    down=st.integers(0, 4400),
)
def test_arrival_text_needs_no_json_escaping(index, numerator, denominator, up, down):
    # The policy file writes each arrival's text into its keys unescaped.
    # Hypothesis prints what it draws, and no integer past the 4,300-digit
    # int-to-str limit prints, so the value is stretched here: 10**up over
    # 10**down + 1 shares no factor, and adds about up and down digits.
    value = Fraction(numerator, denominator) * Fraction(10**up, 10**down + 1)
    text = policy_module._render_arrival((index, value))
    assert re.fullmatch(r"\(\d+:\d+(/\d+)?\)", text, re.ASCII), text[:80]
    assert json.dumps(text) == f'"{text}"'


def test_policy_round_trip(tmp_path):
    actions = {
        state([], (1, S)): Action.ACCEPT,
        state([(1, S)], (2, Fraction(1))): Action.REJECT,
    }
    policy = Policy(actions)
    assert Policy.from_dict(policy.to_dict()) == policy
    path = tmp_path / "policy.json"
    path.write_text(policy.to_json(), encoding="utf-8")
    assert Policy.load(path) == policy
    assert len(policy) == 2
    # The file is what json.dumps writes, the empty table included.
    for table in (policy, Policy()):
        assert table.to_json() == json.dumps(table.to_dict(), indent=2) + "\n"


@pytest.mark.parametrize(
    "key",
    (
        "|current=(1:5",
        "|current=(1:10/2)",
        "|current=(1:05)",
        "|current= (1:5)",
        "|current=(+1:5)",
        ",(2:1)|current=(1:5)",
        "(2:1),|current=(1:5)",
        "(2:1)",
    ),
)
def test_policy_keys_must_be_the_serialized_text(key):
    # Each of these names the state "(2:1)|current=(1:5)" or
    # "|current=(1:5)" in some other text; accepting them would let two
    # keys load as one state, the last in the file winning.
    with pytest.raises(ValueError, match="not an arrival"):
        Policy.from_dict({key: "accept"})
    with pytest.raises(ValueError, match="not an arrival"):
        Policy.from_dict({"|current=(1:5)": "reject", key: "accept"})
    assert Policy.from_dict({"|current=(1:5)": "accept"}) == Policy(
        {state([], (1, S)): Action.ACCEPT}
    )


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


def stream(rule, block=policy_module.POLICY_BLOCK):
    """The parts that ``rule.write_json`` writes, in order, with
    POLICY_BLOCK set to ``block``."""
    parts: list[str] = []
    with mock.patch.object(policy_module, "POLICY_BLOCK", block):
        rule.write_json(parts.append)
    return parts


def block_caps(report) -> tuple[int, ...]:
    """POLICY_BLOCK values: no blocks, one-entry blocks, the default, and
    a cap above every set's entries, so all but the root are blocks."""
    return (0, 1, 64, report.policy_states + 1)


def assert_streams_are_the_table(report) -> None:
    """Under every cap in ``block_caps``, the stream is the table's JSON."""
    table = json.dumps(report.policy.to_dict(), indent=2, sort_keys=True) + "\n"
    for block in block_caps(report):
        assert "".join(stream(report.rule, block)) == table, block


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
    report = solve_optimal(family, constrained=constrained)
    # The set rule writes the file from its memo, before any table exists.
    written = "".join(stream(report.rule))
    policy = report.policy
    text = json.dumps(policy.to_dict(), indent=2, sort_keys=True) + "\n"
    assert text == policy.to_json() == written
    assert len(policy) == POLICY_SIZES[k, n, constrained]
    digest = hashlib.sha256(written.encode("utf-8")).hexdigest()
    assert digest == POLICY_DIGESTS[k, n, constrained]
    assert_streams_are_the_table(report)


def test_reading_the_table_leaves_the_memo_to_write_the_file(monkeypatch):
    # Reading report.policy renders the table but does not replace the
    # rule, so the file is still written from the memo, not by the table.
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, 4, n=5))
    report = solve_optimal(family, constrained=True)

    def refuse(self):
        raise AssertionError("the table wrote the file")

    monkeypatch.setattr(Policy, "to_dict", refuse)
    policy = report.policy
    assert report.policy is policy
    assert len(policy) == report.policy_states == POLICY_SIZES[4, 5, True]
    written = "".join(stream(report.rule))
    digest = hashlib.sha256(written.encode("utf-8")).hexdigest()
    assert digest == POLICY_DIGESTS[4, 5, True]


# Values whose texts share prefixes: "(1:5)" < "(1:5/2)" < "(1:50)" and
# "(1:1/2)" < "(1:1/25)" in sorted order, which first-seen row order,
# 5, 5/2, 50, 1/2, 1/25, is not.
PREFIX_VALUES = tuple(map(Fraction, ("5", "5/2", "50", "1/2", "1/25")))


def prefix_family(n: int) -> PriorFamily:
    """Ten rows of equal mass: each value in every column, twice, on
    cyclic shifts of PREFIX_VALUES by one and by two columns."""
    scenarios = tuple(
        Scenario(
            len(PREFIX_VALUES) * (step - 1) + r + 1,
            tuple(PREFIX_VALUES[(r + step * c) % len(PREFIX_VALUES)] for c in range(n)),
        )
        for step in (1, 2)
        for r in range(len(PREFIX_VALUES))
    )
    return PriorFamily(
        n=n,
        scenarios=scenarios,
        probabilities=(Fraction(1, len(scenarios)),) * len(scenarios),
        prediction_id=1,
    )


@pytest.mark.parametrize("buffering", (1, 4096))
@pytest.mark.parametrize("constrained", (True, False))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_streamed_policy_file_is_in_sorted_key_order(tmp_path, n, constrained, buffering):
    report = solve_optimal(prefix_family(n), constrained=constrained)
    text = json.dumps(report.policy.to_dict(), indent=2, sort_keys=True) + "\n"
    path = tmp_path / "policy.json"
    # Blocks, rendered once and written under each prefix, keep the order.
    for block in block_caps(report):
        parts = stream(report.rule, block)
        assert "".join(parts) == text, block
        if block == 0 and n > 1:
            # no set is a block, so the root's after-sets write their own
            assert len(parts) > 2
        # Written as the CLI writes it, through a line-buffered handle or
        # one with a 4096-byte buffer, the file holds the same text.
        with mock.patch.object(policy_module, "POLICY_BLOCK", block), open(
            path, "w", encoding="utf-8", newline="", buffering=buffering
        ) as handle:
            report.rule.write_json(handle.write)
        assert path.read_text(encoding="utf-8") == text, block
    currents = {key.partition("|current=")[2] for key in json.loads(text)}
    assert {"(1:5)", "(1:5/2)", "(1:50)", "(1:1/2)", "(1:1/25)"} <= currents


def test_streaming_the_n7_policy_file_takes_flat_memory():
    # Built whole, the n = 7 file's keys, their sorted list and the
    # 3.4 MB text peak near 20 MB; streamed, each write is one block or
    # one set's own lines, at most about 4.1 KB.
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, 4, n=7))
    rule = solve_optimal(family, constrained=True).rule
    written: list[int] = []
    tracemalloc.start()
    try:
        rule.write_json(lambda text: written.append(len(text)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(written) == 3_427_507
    assert len(written) > 10
    assert max(written) <= 64 * 1024
    assert peak < 2 * 1024 * 1024


def test_the_n8_policy_file_is_pinned():
    # The 30 MB file goes straight into the digest; none of it is kept.
    # The digest was recorded while each key was still built on its own.
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, 4, n=8))
    rule = solve_optimal(family, constrained=True).rule
    digest = hashlib.sha256()
    size = 0

    def take(text: str) -> None:
        nonlocal size
        data = text.encode("utf-8")
        size += len(data)
        digest.update(data)

    rule.write_json(take)
    assert size == 30_082_240
    assert digest.hexdigest() == (
        "ce8324ffa90204dbe82d78a4268cea746dde26338e209cb8d02373be25f89f23"
    )


def test_solved_policy_covers_every_reachable_state(anchor_family):
    # The unconstrained solver visits the whole tree; the constrained one
    # never enters subtrees the constraint prunes, so it covers a subset.
    unconstrained = solve_optimal(anchor_family, constrained=False)
    assert set(unconstrained.policy.actions) == set(reachable_states(anchor_family))
    constrained = solve_optimal(anchor_family, constrained=True)
    assert set(constrained.policy.actions) <= set(unconstrained.policy.actions)


@pytest.mark.parametrize(
    "k, n, states",
    ((4, 4, 380), (4, 5, 1_989), (6, 6, 18_788), (50, 5, 26_001), (4, 7, 87_419)),
)
def test_reachable_state_count_needs_no_states(k, n, states):
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, k, n=n))
    assert reachable_state_count(family) == states == len(reachable_states(family))


# SHA-256 of the serialized reachable_states order and of the file of
# random_policy(seed=11) on the eps = 1/10, s = 5, k = 4 hard family,
# recorded while reachable_states and brute force had a chance step of
# their own: the chance step fixes the state order, and with it each
# seed's random policy.
REACHABLE_ORDER_DIGESTS = {
    3: "93f3af5fde1e1ef6b96a0494f7eafa24b469e92da2d27f23f24cc96a3a926c14",
    5: "0337688594d2424892361efbb72be9e94971d12ba9b5dd6b62bee760f825338c",
}
RANDOM_POLICY_DIGESTS = {
    3: "0f91f2dfaba24cc19454862bb979cbd5d952c79a281c803b2f6e51f5fba4647e",
    5: "1138b69f5446f507bc0197f4c7ace3a120cf909ce6c33bb253ab06964dc90f3f",
}


@pytest.mark.parametrize("n", sorted(REACHABLE_ORDER_DIGESTS))
def test_reachable_state_order_and_random_policy_are_pinned(n):
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, 4, n=n))
    order = "\n".join(state.serialize() for state in reachable_states(family))
    assert hashlib.sha256(order.encode()).hexdigest() == REACHABLE_ORDER_DIGESTS[n]
    text = random_policy(family, seed=11).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_POLICY_DIGESTS[n]


@pytest.mark.parametrize("constrained", (True, False))
def test_solver_branches_once_per_set_of_arrivals(monkeypatch, constrained):
    # The induction depends on the set of rejected arrivals only, so it
    # builds one memo entry per set, not one per ordered history: every
    # step call that finds no entry builds one, a set of n - 1 arrivals is
    # built by the pass of the set it comes from, with no step call, and
    # no entry is written twice.
    import secretary_lab.policy as policy_module

    built = []
    written = []
    step = policy_module._SetInduction.step
    init = policy_module._SetInduction.__init__

    class Memo(dict):
        def __setitem__(self, seen, entry):
            written.append(seen)
            super().__setitem__(seen, entry)

        def setdefault(self, seen, entry):
            if seen not in self:
                written.append(seen)
            return super().setdefault(seen, entry)

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.steps = Memo()

    def counted(self, seen, arrived, on_path, rows):
        if seen not in self.steps:
            built.append(seen)
        return step(self, seen, arrived, on_path, rows)

    monkeypatch.setattr(policy_module._SetInduction, "__init__", counted_init)
    monkeypatch.setattr(policy_module._SetInduction, "step", counted)
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, 4, n=5))
    report = solve_optimal(family, constrained=constrained)
    sets = {frozenset(state.observed) for state in report.policy.actions}
    assert len(built) == sum(len(arrivals) < family.n - 1 for arrivals in sets)
    assert len(written) == len(sets)
    assert len(sets) < len(report.policy)


def test_report_to_dict(anchor_family):
    payload = solve_optimal(anchor_family, constrained=True).to_dict(digits=6)
    assert payload["optimum"] == {"exact": "1703/3125", "decimal": "0.544960"}
    assert payload["constrained"] is True
    assert str(payload["worst_row"]["id"]) in payload["per_row"]


def test_solver_self_check_raises_on_disagreement(monkeypatch, anchor_family):
    # The induction-versus-forward-count check must survive python -O.
    import secretary_lab.policy as policy_module

    forward = policy_module._forward_ratios

    def skewed(*args):
        mixture, per_row = forward(*args)
        return mixture + Fraction(1, 10**9), per_row

    monkeypatch.setattr(policy_module, "_forward_ratios", skewed)
    with pytest.raises(RuntimeError, match="disagree"):
        solve_optimal(anchor_family, constrained=True)


@pytest.mark.parametrize("constrained", (True, False))
def test_solver_self_check_catches_one_wrong_decision(monkeypatch, anchor_family, constrained):
    # The forward count scores the memo's decisions as its callable gives
    # them; one of them flipped must change the mixture.  Pinned: at the
    # root, the first arrival (2:1), which only the prediction row shows.
    # Rejecting it waits for (1:5), that row's maximum; accepting it is
    # worth a fifth of that.
    import secretary_lab.policy as policy_module

    forward = policy_module._forward_ratios
    flipped = []

    def one_wrong(action, n, values, support):
        def wrong(seen, column, value_id, history):
            right = action(seen, column, value_id, history)
            if (seen, column, values[value_id]) != (0, 1, 1):
                return right
            flipped.append(right)
            return Action.ACCEPT

        return forward(wrong, n, values, support)

    monkeypatch.setattr(policy_module, "_forward_ratios", one_wrong)
    with pytest.raises(RuntimeError, match="disagree"):
        solve_optimal(anchor_family, constrained=constrained)
    assert flipped == [Action.REJECT]


def test_solve_leaves_no_reference_cycle():
    # The memo and the rendered table are freed by reference counting as
    # soon as the report goes, not at a later collector pass.
    family = build_hard_family(ConstructionParams(Fraction(1, 10), S, 4, n=6))
    gc.collect()
    gc.disable()
    try:
        report = solve_optimal(family, constrained=True)
        assert len(report.policy) == report.policy_states
        del report
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_is_consistent_refuses_a_large_prediction_before_listing_orders():
    # Nine candidates would be 362,880 orders; none may be listed.
    prediction = Scenario(1, (Fraction(1),) * 9)
    with mock.patch.object(
        policy_module.itertools, "permutations", side_effect=AssertionError("listed")
    ), pytest.raises(EnumerationGuardError):
        is_consistent(Policy(), prediction)


def test_invalid_family_rejected():
    # The constructor refuses the family, so no solve can receive it.
    with pytest.raises(InvalidFamilyError) as err:
        PriorFamily(
            n=2,
            scenarios=(Scenario(1, (Fraction(2), Fraction(1))),),
            probabilities=(Fraction(9, 10),),
            prediction_id=1,
        )
    assert err.value.violations == ["mass != 1 (probabilities sum to 9/10)"]


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
    # The first arrivals have 1, 1, 10, 46, 46, 10, 1, 46, 10, 46 and 10
    # constrained sub-policies below them: a cap of 46 admits the family,
    # 45 refuses it.
    assert brute_force_optimum(anchor_family, max_policies_per_subtree=46) == CONSTRAINED_OPT
    with pytest.raises(EnumerationGuardError):
        brute_force_optimum(anchor_family, max_policies_per_subtree=45)


@pytest.mark.parametrize("constrained", (True, False))
def test_brute_force_counts_before_it_enumerates(constrained):
    # The two rows share only column 4 and differ in every other column,
    # so the last first arrival, (4:5), has 1 + 10**6 sub-policies below
    # it; the prediction row has mass 0 and is off the path there.  The
    # earlier first arrivals are small, so a cap met only while
    # enumerating would simulate them first.
    family = PriorFamily(
        n=4,
        scenarios=(
            Scenario(1, tuple(map(Fraction, (1, 2, 3, 5)))),
            Scenario(2, tuple(map(Fraction, (2, 3, 1, 5)))),
            Scenario(3, tuple(map(Fraction, (1, 1, 1, 1)))),
        ),
        probabilities=(Fraction(1, 2), Fraction(1, 2), Fraction(0)),
        prediction_id=3,
    )
    with mock.patch.object(policy_module, "_simulate", side_effect=AssertionError("simulated")):
        with pytest.raises(EnumerationGuardError, match="count exceeds the cap"):
            brute_force_optimum(family, constrained=constrained)


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
            (competitive_ratio(_simulate(policy.decide, scenario, order), scenario)
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
    return all(_simulate(policy.decide, prediction, order) == best for order in orders)


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
# A pool of six values gives a memo key up to six nonzero digits per column.
SIX_POOL = tuple(map(Fraction, ("1/2", "1", "2", "5/3", "3", "7")))
SIX_VALUES = st.sampled_from(SIX_POOL)


@st.composite
def small_families(
    draw, sizes=st.integers(min_value=1, max_value=3), values=SMALL_VALUES
) -> PriorFamily:
    """Valid families with n drawn from ``sizes`` (default 1 to 3), values
    from ``values``, one to three rows of positive mass, and sometimes one
    extra row of mass zero; any row may be the prediction."""
    n = draw(sizes)
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    if draw(st.booleans()):
        weights.append(0)
    scenarios = tuple(
        Scenario(row, tuple(draw(values) for _ in range(n)))
        for row in range(1, len(weights) + 1)
    )
    total = sum(weights)
    return PriorFamily(
        n=n,
        scenarios=scenarios,
        probabilities=tuple(Fraction(w, total) for w in weights),
        prediction_id=draw(st.integers(1, len(weights))),
    )


# Unconstrained, the first arrival 1 at column 2 ties accept with reject
# and is accepted, which misses the predicted maximum at column 1.
TIED_FAMILY = PriorFamily(
    n=2,
    scenarios=(
        Scenario(1, (Fraction(2), Fraction(1))),
        Scenario(2, (Fraction(1, 2), Fraction(1))),
    ),
    probabilities=(Fraction(1, 2), Fraction(1, 2)),
    prediction_id=1,
)


def assert_solver_brute_force_and_evaluation_agree(family, constrained, brute_forced):
    """The solve reaches ``brute_forced``, the brute-force optimum; its
    stream is the table's JSON under every cap in ``block_caps``; and
    both evaluators score its table at the solve's optimum and rows."""
    solved = solve_optimal(family, constrained=constrained)
    assert brute_forced == solved.optimum
    assert solved.policy_states == len(solved.policy)
    assert_streams_are_the_table(solved)
    if constrained and family.probability_of(family.prediction_id) > 0:
        assert is_consistent(solved.policy, family.prediction())
    evaluated = evaluate_policy(solved.policy, family)
    assert evaluated.optimum == solved.optimum
    assert evaluated.per_row == solved.per_row
    assert enumerated_evaluation(solved.policy, family) == (
        evaluated.optimum,
        evaluated.per_row,
    )


@settings(max_examples=40, deadline=None)
@example(TIED_FAMILY)
@given(small_families())
def test_solver_brute_force_and_evaluation_agree(family):
    for constrained in (True, False):
        brute_forced = brute_force_optimum(family, constrained=constrained)
        assert_solver_brute_force_and_evaluation_agree(family, constrained, brute_forced)


# At n = 4 brute force can face a million sub-policies below one first
# arrival.  Unconstrained it takes over a second per family, so only the
# constrained solve is checked, and a family with more than 5,000
# sub-policies below some first arrival is drawn again: under the default
# cap of 200,000, each of that many sub-policies would be built and
# simulated.
@settings(max_examples=8, deadline=None, derandomize=True)
@given(small_families(st.just(4)))
def test_solver_brute_force_and_evaluation_agree_at_n4(family):
    try:
        brute_forced = brute_force_optimum(family, True, max_policies_per_subtree=5_000)
    except EnumerationGuardError:
        reject()
    assert_solver_brute_force_and_evaluation_agree(family, True, brute_forced)


@settings(max_examples=60, deadline=None)
@given(small_families(st.integers(1, 4), SIX_VALUES))
def test_memo_keys_one_entry_per_set_of_arrivals(family):
    # Two sets of rejected arrivals that shared a memo key would be merged
    # into one entry, and the table would still reach both.
    for constrained in (True, False):
        report = solve_optimal(family, constrained=constrained)
        sets = {frozenset(state.observed) for state in report.policy.actions}
        assert len(report.rule.steps) == len(sets)


def or_error(call, *args):
    """``call(*args)``, or the text of the MissingStateError it raises."""
    try:
        return call(*args)
    except MissingStateError as err:
        return str(err)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family=small_families(st.integers(1, 5)), data=st.data())
def test_weighted_tally_counts_each_order_as_often_as_it_repeats(family, data):
    # Monte Carlo hands _tally each distinct order once, with its count:
    # that must count what the orders repeated count, and a table with a
    # hole must fail with the same message on both paths.
    n = family.n
    orders = data.draw(st.lists(st.permutations(range(1, n + 1)).map(tuple), min_size=1))
    distinct = data.draw(st.permutations(sorted(set(orders))))
    weights = [orders.count(order) for order in distinct]
    policy = random_policy(family, data.draw(st.integers(0, 99)), constrained=False)
    # the hole: the first arrival of the first order on the first row
    first = orders[0][0]
    holed = dict(policy.actions)
    del holed[InformationState((), (first, family.scenarios[0].value_at(first)))]
    for table in (policy, Policy(holed)):
        for scenario in family.scenarios:
            weighted = or_error(_tally, table.decide, scenario, distinct, weights)
            assert weighted == or_error(_tally, table.decide, scenario, orders)
    assert "current=" in or_error(_tally, Policy(holed).decide, family.scenarios[0], orders)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family=small_families(st.integers(1, 4), SIX_VALUES), seed=st.integers(0, 99))
def test_a_reloaded_table_is_the_table(family, seed):
    # Loading fills the table from the key texts, with no InformationState
    # built; what comes back must be the table that was written.  A solved
    # table holds only the states its rule reaches, so some reachable
    # states must be missing from both tables alike.
    solved = solve_optimal(family, constrained=True)
    states = reachable_states(family)
    for policy, size in (
        (solved.policy, solved.policy_states),
        (random_policy(family, seed, constrained=False), len(states)),
    ):
        loaded = Policy.from_dict(policy.to_dict())
        for state in states:
            assert or_error(loaded.decide, state.observed, state.current) == or_error(
                policy.action_for, state
            )
        assert loaded.actions == policy.actions
        assert len(loaded) == len(policy) == len(policy.actions) == size
        assert loaded == policy
        assert loaded.to_json() == policy.to_json()


def test_forward_count_keys_sets_that_no_order_reaches():
    # On row 2 the optimal rule accepts (3:2) first, so no order of that
    # row rejects the set {(3:2)} alone; it rejects (1:1) and then (3:2).
    # The key of {(1:1), (3:2)} is built on that of {(1:1)}, the set the
    # row reached it from.  A forward count that built it on the key of
    # {(3:2)}, the set minus its lowest column, unfilled since no order
    # reaches it, would count 59/63.
    family = PriorFamily(
        n=3,
        scenarios=(
            Scenario(1, tuple(map(Fraction, (1, 3, 4)))),
            Scenario(2, tuple(map(Fraction, (1, 3, 2)))),
            Scenario(3, tuple(map(Fraction, (0, 1, 2)))),
        ),
        probabilities=(Fraction(3, 7), Fraction(1, 7), Fraction(3, 7)),
        prediction_id=2,
    )
    solved = solve_optimal(family, constrained=False)
    assert solved.optimum == Fraction(121, 126)
    assert brute_force_optimum(family, constrained=False) == solved.optimum
    evaluated = evaluate_policy(solved.policy, family)
    assert (evaluated.optimum, evaluated.per_row) == (solved.optimum, solved.per_row)


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


# ---------------------------------------------------------------------------
# The prediction row's mass p moves no constrained decision: every rule
# the constraint allows accepts a predicted maximum on that row, so both
# actions add the same amount there, and off it the other rows keep their
# relative weights.  The optimum is p + (1 - p) T; sweep relies on it.
# ---------------------------------------------------------------------------

PREDICTION_MASSES = (Fraction(1, 1000), Fraction(1, 3), Fraction(9, 10))
F1, F2, F3 = Fraction(1), Fraction(2), Fraction(3)


@st.composite
def predicted_rows(draw):
    """(prediction, other rows, their integer weights): the prediction's
    maximum is in one column or in two or more, the other rows' values are
    drawn freely, so some may equal the prediction."""
    n = draw(st.integers(2, 4))
    top = draw(st.sampled_from(SIX_POOL[1:]))
    best = draw(st.integers(1, n))
    below = st.sampled_from([v for v in SIX_POOL if v < top])
    values = [top] * best + [draw(below) for _ in range(n - best)]
    prediction = tuple(draw(st.permutations(values)))
    others = draw(st.lists(st.tuples(*[st.sampled_from(SIX_POOL)] * n), min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(others), max_size=len(others)))
    return prediction, tuple(others), tuple(weights)


def family_with_prediction_mass(rows, p: Fraction) -> PriorFamily:
    prediction, others, weights = rows
    return PriorFamily(
        n=len(prediction),
        scenarios=tuple(
            Scenario(row, values) for row, values in enumerate((prediction, *others), start=1)
        ),
        probabilities=(p, *((1 - p) * Fraction(w, sum(weights)) for w in weights)),
        prediction_id=1,
    )


@settings(max_examples=60, deadline=None)
# Two best columns; then a second row equal to the prediction.
@example(((F3, F3, F1), ((F1, F3, Fraction(7)),), (1,)))
@example(((F2, F2), ((F2, F2), (F1, Fraction(7))), (1, 2)))
@given(predicted_rows())
def test_prediction_mass_moves_no_constrained_decision(rows):
    solves = [
        solve_optimal(family_with_prediction_mass(rows, p), constrained=True)
        for p in PREDICTION_MASSES
    ]
    decisions = [
        {key: children for key, (_, children, _) in solved.rule.steps.items()}
        for solved in solves
    ]
    assert decisions[0] == decisions[1] == decisions[2]
    assert solves[0].per_row == solves[1].per_row == solves[2].per_row
    assert solves[0].per_row[1] == 1
    tails = {(solved.optimum - p) / (1 - p) for solved, p in zip(solves, PREDICTION_MASSES)}
    assert len(tails) == 1
    # the solver relies on the lemma; brute force weighs the real masses
    if len(rows[0]) <= 3:
        for p, solved in zip(PREDICTION_MASSES, solves):
            family = family_with_prediction_mass(rows, p)
            assert brute_force_optimum(family, constrained=True) == solved.optimum
    # a prediction row of mass 0 leaves the same decisions on the other rows
    family = family_with_prediction_mass(rows, Fraction(0))
    solved = solve_optimal(family, constrained=True)
    assert solved.optimum == tails.pop()
    if len(rows[0]) <= 3:
        assert brute_force_optimum(family, constrained=True) == solved.optimum


def test_prediction_row_alone_scores_one():
    # every other row has mass 0: the optimum is 1, with no division by 1 - p
    family = PriorFamily(
        n=3,
        scenarios=(Scenario(1, (F1, F3, F2)), Scenario(2, (F3, F1, F1))),
        probabilities=(Fraction(1), Fraction(0)),
        prediction_id=1,
    )
    solved = solve_optimal(family, constrained=True)
    assert solved.optimum == 1 == brute_force_optimum(family, constrained=True)
    assert solved.per_row == {1: 1}


def test_edge_mass_moves_no_decision_of_the_76_78_family(edge_eps):
    solves = [
        solve_optimal(build_hard_family(ConstructionParams(eps, Fraction(76), 78)), True)
        for eps in (edge_eps, Fraction(1, 10))
    ]
    decisions = [
        {key: children for key, (_, children, _) in solved.rule.steps.items()}
        for solved in solves
    ]
    assert decisions[0] == decisions[1]
    assert solves[0].policy_states == solves[1].policy_states
    assert solves[0].per_row == solves[1].per_row
    assert solves[0].optimum == inv_e_enclosure(2000).lower


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
        written = "".join(stream(solved.rule))
        assert solved.policy_states == len(solved.policy)
        assert written == solved.policy.to_json()
        if constrained and family.probability_of(family.prediction_id) > 0:
            assert is_consistent(solved.policy, family.prediction())
        evaluated = evaluate_policy(solved.policy, family)
        assert (evaluated.optimum, evaluated.per_row) == (solved.optimum, solved.per_row)


@settings(max_examples=40, deadline=None)
@given(coprime_families())
def test_reachable_state_count_on_coprime_families(family):
    assert reachable_state_count(family) == len(reachable_states(family))


# On the values' integer scale, 6, these are 3, 6, 12, 10 and 18: row
# maxima 10, 12 and 18 divide none of the others.
WEIGHTED_VALUES = st.sampled_from(tuple(map(Fraction, ("1/2", "1", "2", "5/3", "3"))))


@st.composite
def weighted_families(draw) -> PriorFamily:
    """Families with n <= 3 and two to five rows, the second row a
    permutation of the first, so that row maxima repeat; the first row's
    probability has a denominator of two or of about 300 digits, and the
    other rows share the rest by small weights, so that at least two
    probabilities differ.  Rows of one probability may have maxima of
    which neither divides the other, so that the solver's weight scale and
    the forward count's sum over maxima take gcds of coprime parts."""
    n = draw(st.integers(1, 3))
    first = tuple(draw(WEIGHTED_VALUES) for _ in range(n))
    values = [first, tuple(draw(st.permutations(first)))]
    weights = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    values += [tuple(draw(WEIGHTED_VALUES) for _ in range(n)) for _ in weights[1:]]
    denominator = draw(st.sampled_from((2, 7**355)))
    head = Fraction(draw(st.integers(1, denominator - 1)), denominator)
    probabilities = (head, *((1 - head) * Fraction(w, sum(weights)) for w in weights))
    if len(set(probabilities)) < 2:
        reject()
    return PriorFamily(
        n=n,
        scenarios=tuple(Scenario(row, v) for row, v in enumerate(values, start=1)),
        probabilities=probabilities,
        prediction_id=draw(st.integers(1, len(values))),
    )


@settings(max_examples=60, deadline=None)
@given(weighted_families())
def test_forward_count_mixture_is_the_rows_summed(family):
    # The forward count weighs each distinct probability once, by its
    # rows' ratios summed; that must be the mixture summed row by row, for
    # the solver's memo, constrained or not, and for set-keyed baselines.
    results = []
    forward = policy_module._forward_ratios

    def recorded(*args):
        results.append(forward(*args))
        return results[-1]

    rules = (dynkin_policy(family.n), prediction_argmax_policy(family.prediction().values))
    with mock.patch.object(policy_module, "_forward_ratios", recorded):
        for constrained in (True, False):
            solve_optimal(family, constrained=constrained)
        for rule in rules:
            policy_module._set_ratios(rule.decide, family)
    assert len(results) == 4
    for mixture, ratio_pairs in results:
        summed = sum(
            (family.probability_of(row) * Fraction(*pair) for row, pair in ratio_pairs.items()),
            Fraction(0),
        )
        assert mixture == summed


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


# ---------------------------------------------------------------------------
# Per-row ratios are held as unreduced integer pairs: worst_row compares
# them as pairs, and per_row reduces them only when read.
# ---------------------------------------------------------------------------


@st.composite
def tied_families(draw) -> PriorFamily:
    """Families with n <= 3 whose second row is a permutation of the
    first, so that the two share a maximum, and whose last row is an exact
    copy of an earlier one under its own id, so that the two tie; row ids
    are drawn in any order, so a tie's lower id need not come first."""
    n = draw(st.integers(1, 3))
    first = tuple(draw(SIX_VALUES) for _ in range(n))
    rows = [first, tuple(draw(st.permutations(first)))]
    rows += [tuple(draw(SIX_VALUES) for _ in range(n)) for _ in range(draw(st.integers(0, 2)))]
    rows.append(draw(st.sampled_from(rows)))
    ids = draw(st.permutations(range(1, len(rows) + 1)))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    return PriorFamily(
        n=n,
        scenarios=tuple(Scenario(row_id, values) for row_id, values in zip(ids, rows)),
        probabilities=tuple(Fraction(w, sum(weights)) for w in weights),
        prediction_id=draw(st.sampled_from(ids)),
    )


def family_of_rows(*rows, prediction_id=1) -> PriorFamily:
    """A family of (id, values) rows of equal mass."""
    return PriorFamily(
        n=len(rows[0][1]),
        scenarios=tuple(Scenario(row_id, tuple(map(Fraction, values))) for row_id, values in rows),
        probabilities=(Fraction(1, len(rows)),) * len(rows),
        prediction_id=prediction_id,
    )


def memo_walk(steps, seen=0, order=None) -> int:
    """Table entries at and below the set ``seen``, counted by walking its
    subtree; ``order`` gets each set after every set below it, the sets
    below in the order of its children, each set once: the order in which
    a recursive induction enters them into the memo."""
    count = 0
    for _, after in steps[seen][1].values():
        count += 1
        if after is not None:
            count += memo_walk(steps, after, order)
    if order is not None and seen not in order:
        order.append(seen)
    return count


# n = 1: the root has one column left; n = 2: the root has two, so its
# leaves are built by its own pass.
@settings(max_examples=60, deadline=None, derandomize=True)
@example(family_of_rows((1, (3,)), (2, (1,))))
@example(family_of_rows((1, (3, 1)), (2, (1, 3)), (3, (1, 1))))
@example(TIED_FAMILY)
@given(small_families(st.integers(1, 5), SIX_VALUES))
def test_memo_counts_order_and_ratios_match_independent_walks(family):
    # The two-column pass must build the memo a recursive induction
    # builds: each entry's count that of a walk of its subtree, every set
    # entered after the sets below it, and the table and per-row ratios
    # those of the orders the table decides.
    for constrained in (True, False):
        report = solve_optimal(family, constrained=constrained)
        steps = report.rule.steps
        assert report.policy_states == len(report.policy)
        order = []
        memo_walk(steps, 0, order)
        assert order == list(steps)
        for seen, (_, _, count) in steps.items():
            assert count == memo_walk(steps, seen)
        _, per_row = policy_module._exact_ratios(report.policy.decide, family)
        assert {row: Fraction(*pair) for row, pair in report.ratio_pairs.items()} == per_row


@settings(max_examples=80, deadline=None)
# Every row's ratio is 1, each on its own denominator: the tie is across
# denominators, and id 1 comes second.
@example(family_of_rows((2, (2, 2)), (1, (1, 1))))
# The least ratio is on two copies of one row, the lower id second.
@example(family_of_rows((1, (3, 1)), (3, (1, 3)), (2, (1, 3)), prediction_id=1))
@given(tied_families())
def test_worst_row_is_the_least_ratio_lowest_id_first(family):
    for constrained in (True, False):
        solved = solve_optimal(family, constrained=constrained)
        worst = solved.worst_row
        assert "per_row" not in vars(solved)
        per_row = solved.per_row
        lowest = min(per_row, key=lambda row_id: (per_row[row_id], row_id))
        assert worst == (lowest, per_row[lowest])
        # an evaluator's pairs are reduced Fractions; the same row wins
        assert evaluate_policy(solved.policy, family).worst_row == worst


def test_verify_and_sweep_never_reduce_every_row(tmp_path, monkeypatch):
    # verify reads only worst_row, and sweep neither: per_row is never built.
    import secretary_lab.bounds
    import secretary_lab.cli
    from secretary_lab import verify_theorem
    from secretary_lab.cli import run_command

    reports = []

    def recorded(*args, **kwargs):
        reports.append(solve_optimal(*args, **kwargs))
        return reports[-1]

    for module in (secretary_lab.bounds, secretary_lab.cli):
        monkeypatch.setattr(module, "solve_optimal", recorded)
    verify_theorem("paper-19-20")
    argv = ["sweep", "--eps", "1/100,1/10", "--s", "5", "--k", "4,20", "-o", str(tmp_path / "s.csv")]
    assert run_command(argv) == 0
    assert len(reports) == 3
    assert not any("per_row" in vars(report) for report in reports)


def test_equal_values_in_distinct_objects_number_as_one():
    # Values are numbered by object first; equal values held by distinct
    # objects must still share one value id, so the solve is the one on
    # the family whose rows share one object per value.
    two = Fraction(2)
    twos = (Fraction(2), Fraction(4, 2), Fraction(int("2")))
    assert len({id(v) for v in (two, *twos)}) == 4
    one, three = Fraction(1), Fraction(3)

    def family(a, b, c) -> PriorFamily:
        return PriorFamily(
            n=3,
            scenarios=(
                Scenario(1, (a, one, three)),
                Scenario(2, (one, b, a)),
                Scenario(3, (c, three, one)),
                Scenario(4, (b, c, a)),
            ),
            probabilities=(Fraction(1, 4),) * 4,
            prediction_id=3,
        )

    shared, distinct = family(two, two, two), family(*twos)
    for constrained in (True, False):
        solves = [solve_optimal(f, constrained=constrained) for f in (shared, distinct)]
        assert solves[0].rule.values == solves[1].rule.values
        assert solves[0].rule.steps == solves[1].rule.steps
        assert solves[0].per_row == solves[1].per_row
        assert solves[0].optimum == solves[1].optimum
        assert "".join(stream(solves[0].rule)) == "".join(stream(solves[1].rule))
