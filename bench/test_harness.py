"""Self-check of the benchmark harness at toy sizes (the ``tiny`` profile).

Runs every workload end to end through ``bench/run.py``, untraced and
traced, on the recorded seed and on another one, and checks that wrong
outputs are caught.  Run from the repository root:

    python3 -m pytest bench
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import pace  # noqa: E402
import run  # noqa: E402
from workloads import PROFILES, workloads  # noqa: E402

TINY = workloads(PROFILES["tiny"])


def bench(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--profile", "tiny",
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.per_layer_metrics())
    assert [w["name"] for w in spec["workloads"]] == list(workloads(PROFILES["full"]))


@pytest.mark.parametrize(
    "workload, seed",
    # only evaluate depends on the seed: digests on the recorded one,
    # statistical checks on any other
    [("certify", 7), ("deep-solve", 7), ("evaluate", 0), ("evaluate", 7)],
)
def test_untraced_run_is_correct(workload, seed):
    result, _ = bench(workload, seed, trace=0)
    assert result["correct"] and result["failed"] == 0
    # inputs plus one pass of every operation
    assert result["attempted"] == len(TINY[workload].inputs) + len(TINY[workload].operations)
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_reports_layers(workload):
    result, _ = bench(workload, 3, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in run.per_layer_metrics()]
    spans = (ROOT / ".bench_work" / f"tiny-{workload}" / "trace.jsonl").read_text()
    assert "cli.run_command" in spans
    if workload == "deep-solve":
        assert metrics["policy.states"] == 255
        assert metrics["policy.simulations"] == 7 * 24
    if workload == "certify":
        assert metrics["exact.e_enclosure.digits_max"] == PROFILES["tiny"].edge_expect_digits
        assert metrics["exact.refine.rounds"] >= 2
    if workload == "evaluate":
        assert metrics["baselines.decide.calls"] > 0
        assert metrics["policy.Policy.load.s"] > 0


def test_wrong_outputs_are_failures():
    reference = json.loads(run.REFERENCE.read_text())["profiles"]["tiny"]
    ops = {op.id: op for op in TINY["evaluate"].operations}
    exact = ops["eval-dynkin-exact"]
    good = {"exit": 0, "stdout_sha256": reference["operations"][exact.id]["digests"]["stdout"],
            "files": {}}
    assert run.check_operation(exact, good, reference, seed=5) is None
    assert "digest" in run.check_operation(exact, {**good, "stdout_sha256": "0" * 64},
                                           reference, seed=5)
    assert "exit code 1" in run.check_operation(exact, {**good, "exit": 1}, reference, seed=5)

    policy_mc = ops["eval-policy-mc"]
    trials = int(run.option(policy_mc, "--trials"))

    def mc_result(mean):
        estimate = {"mean": mean, "std_error": "0.001", "trials": trials, "seed": 5}
        return {"exit": 0, "stdout_sha256": "", "files": {},
                "stdout": json.dumps({"estimate": estimate})}

    value = reference["operations"]["eval-policy-mc"]["exact_value"]
    near = f"{float(run.Fraction(value)) + 0.004:.12f}"
    far = f"{float(run.Fraction(value)) + 0.006:.12f}"
    assert run.check_operation(policy_mc, mc_result(near), reference, seed=5) is None
    assert "standard errors" in run.check_operation(policy_mc, mc_result(far), reference, seed=5)
    # on the recorded seed the digest decides, not the tolerance
    assert "digest" in run.check_operation(policy_mc, mc_result(near), reference, seed=0)


def test_pacer_samples_the_speed_during_the_block():
    lead = pace.lead_samples()
    with pace.Pacer(lead) as pacer:
        end = time.monotonic() + 5 * pace.INTERVAL_S
        while time.monotonic() < end:
            pass
    assert len(pacer.samples) >= len(lead) + 2
    assert pacer.busy_ns > 0
    nominal = [int(pace.NOMINAL_S * 1e9)] * 3
    assert pace.reference_seconds(2.0, nominal) == pytest.approx(2.0)
    assert pace.reference_seconds(2.0, [2 * n for n in nominal]) == pytest.approx(1.0)


def test_refuses_a_directory_without_the_package(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
