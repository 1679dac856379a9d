"""The benchmark's workloads: which CLI operations each one times, which
inputs it needs generated first, and how each output is checked.

Every operation is one ``secretary_lab.cli.run_command`` call.  An
operation's argv may hold two placeholders that are filled at run time:
``{seed}`` (the workload seed, fed to Monte Carlo operations only) and
``{edge_eps}`` (the generated edge-point mixture probability).

Two profiles share the same operation ids.  ``full`` is what the
benchmark measures; ``tiny`` runs the same paths at toy sizes for the
harness self-check.
"""

from __future__ import annotations

from dataclasses import dataclass

# Monte Carlo outputs are digest-checked on this seed; any other seed is
# checked statistically (see run.check_operation).
RECORDED_SEED = 0

# A Monte Carlo mean may lie at most this many standard errors from its
# reference before the operation counts as failed.
MC_TOLERANCE_SE = 5


@dataclass(frozen=True)
class Operation:
    """One CLI call: ``files`` are outputs digested with stdout; ``mc``
    names the off-seed check for a Monte Carlo operation:
    ``"exact"`` compares the mean with the solved policy's exact value,
    ``"reference"`` with the recorded seed's mean."""

    id: str
    argv: tuple[str, ...]
    files: tuple[str, ...] = ()
    mc: str | None = None


@dataclass(frozen=True)
class Profile:
    presets: tuple[str, ...]
    sweep: tuple[str, str, str]  # --eps, --s, --k lists
    edge_digits: int  # 1/e enclosure the edge optimum is placed next to
    edge_expect_digits: int  # enclosure digits the comparison must reach
    solve_n: int
    eval_n: int
    mc_n: int
    dynkin_trials: int
    policy_trials: int


PROFILES = {
    "full": Profile(
        presets=("paper-19-20", "corrected-76-78", "one-third-plus"),
        sweep=("1/100,1/10", "50,400", "50,400"),
        edge_digits=2000,
        edge_expect_digits=3200,
        solve_n=7,
        eval_n=6,
        mc_n=100,
        dynkin_trials=50_000,
        policy_trials=20_000,
    ),
    "tiny": Profile(
        presets=("paper-19-20",),
        sweep=("1/10", "50", "50"),
        edge_digits=150,
        edge_expect_digits=200,
        solve_n=4,
        eval_n=4,
        mc_n=20,
        dynkin_trials=1_000,
        policy_trials=1_000,
    ),
}

HARD = ("--eps", "1/10", "--s", "5", "--k", "4")

# Inputs are produced once per invocation, before any timed run.  The
# edge input is not a CLI call: it is computed from oracle_optimum and
# inv_e_enclosure (see child.edge_eps).
EDGE_INPUT = "edge-eps"
EDGE_FILE = "edge_eps.txt"
# The edge point uses the corrected-76-78 construction with its mix_eps
# moved so that the optimum lies next to 1/e.
EDGE_S, EDGE_K = "76", 78


def inputs(profile: Profile) -> dict[str, Operation]:
    return {
        "family-eval": Operation(
            "family-eval",
            ("gen", *HARD, "--n", str(profile.eval_n), "-o", "family_eval.json"),
            files=("family_eval.json",),
        ),
        "family-mc": Operation(
            "family-mc",
            ("gen", *HARD, "--n", str(profile.mc_n), "-o", "family_mc.json"),
            files=("family_mc.json",),
        ),
        "policy-eval": Operation(
            "policy-eval",
            ("solve", "--family", "family_eval.json", "--policy-out", "policy_eval.json"),
            files=("policy_eval.json",),
        ),
    }


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""

    name: str
    inputs: tuple[str, ...]
    operations: tuple[Operation, ...]


def workloads(profile: Profile) -> dict[str, Workload]:
    eps_list, s_list, k_list = profile.sweep
    certify = Workload(
        "certify",
        (EDGE_INPUT,),
        tuple(
            Operation(f"verify-{preset}", ("verify", "--preset", preset))
            for preset in profile.presets
        )
        + (
            Operation(
                "sweep",
                ("sweep", "--eps", eps_list, "--s", s_list, "--k", k_list, "-o", "sweep.csv"),
                files=("sweep.csv",),
            ),
            Operation(
                "verify-edge",
                ("verify", "--eps", "{edge_eps}", "--s", EDGE_S, "--k", str(EDGE_K)),
            ),
        ),
    )
    deep_solve = Workload(
        "deep-solve",
        (),
        (
            Operation(
                "solve-policy",
                ("solve", *HARD, "--n", str(profile.solve_n),
                 "--policy-out", "policy_deep.json"),
                files=("policy_deep.json",),
            ),
        ),
    )
    evaluate = Workload(
        "evaluate",
        ("family-eval", "family-mc", "policy-eval"),
        (
            Operation(
                "eval-dynkin-exact",
                ("eval", "--family", "family_eval.json", "--alg", "dynkin"),
            ),
            Operation(
                "eval-dynkin-mc",
                ("eval", "--family", "family_mc.json", "--alg", "dynkin", "--mc",
                 "--trials", str(profile.dynkin_trials), "--seed", "{seed}"),
                mc="reference",
            ),
            Operation(
                "eval-policy-mc",
                ("eval", "--family", "family_eval.json", "--alg",
                 "policy:policy_eval.json", "--mc",
                 "--trials", str(profile.policy_trials), "--seed", "{seed}"),
                mc="exact",
            ),
        ),
    )
    return {w.name: w for w in (certify, deep_solve, evaluate)}
