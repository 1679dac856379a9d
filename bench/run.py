"""secretary-lab benchmark: times real CLI operations end to end, checks
every output against recorded SHA-256 digests, and (with ``--trace 1``)
reports per-layer time and counts from spans around each module's
public functions.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --record        # re-record bench/reference.json
    python3 -m pytest bench              # fast self-check at toy sizes

Each operation is one ``secretary_lab.cli.run_command`` call in a fresh
child process (``bench/child.py``), one child at a time, with numpy's
thread pools pinned to one thread.  A pass runs every operation of the
workload once; passes repeat until ``--seconds`` have elapsed.  Inputs
(family files, a solved policy, the edge-point eps) are generated once
per invocation with the package itself, before any timed pass, and are
digest-checked as well.  Scratch files go to ``.bench_work/`` under the
checkout.

End-to-end metrics (``--trace 0``): ``setup_s`` is the median time from
spawning a child until ``import secretary_lab`` has finished; ``wall_s``
the sum over the workload's operations of each one's median time over
passes, after set-up; ``peak_rss_mb`` the median over passes of the
largest child maximum RSS (from ``os.wait4``).  Both times are in
reference seconds: each child times a fixed standard-library task while
it runs, and its times are scaled by that task's speed (see
``pace.py``); the measured medians are printed with the provenance.
Failed over attempted operations is printed as ``fail_share``.  With
``--trace 1`` untraced and traced passes alternate: the traced ones give
the per-layer metrics (in measured seconds), and their difference in
summed operation time is reported as ``trace.overhead_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from pace import reference_seconds  # noqa: E402
from tracer import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    EDGE_FILE,
    EDGE_INPUT,
    EDGE_K,
    EDGE_S,
    MC_TOLERANCE_SE,
    PROFILES,
    RECORDED_SEED,
    Operation,
    inputs,
    workloads,
)

CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "reference.json"
OPERATION_TIMEOUT_S = 150
SETUP_PROBES = 5

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
TIME_UNITS = ("s", "1/s")


def per_layer_metrics() -> tuple[tuple[str, str], ...]:
    """Every metric a traced run prints, in order, with its unit."""
    op_ids = [
        op.id for w in workloads(PROFILES["full"]).values() for op in w.operations
    ]
    return (
        LAYER_METRICS
        + (("cli.output_bytes", "bytes"),)
        + tuple((f"cli.run_command.{op_id}.s", "s") for op_id in op_ids)
        + (("trace.overhead_s", "s"),)
    )


class PrepareError(RuntimeError):
    """An input could not be generated or does not match its reference."""


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SECRETARY_LAB_PRECISION", None)
    env["PYTHONPATH"] = str(src)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def digests_of(result: dict) -> dict[str, str | None]:
    return {"stdout": result.get("stdout_sha256"), **result.get("files", {})}


def option(op: Operation, flag: str) -> str:
    return op.argv[op.argv.index(flag) + 1]


def check_operation(op: Operation, result: dict, reference: dict, seed: int) -> str | None:
    """None when the operation's output is correct, else the reason.

    Exact outputs and Monte Carlo outputs on the recorded seed must match
    the recorded digests byte for byte.  On another seed a Monte Carlo
    mean must lie within MC_TOLERANCE_SE standard errors of the policy's
    exact value (``mc == "exact"``) or of the recorded seed's mean
    (``mc == "reference"``, combining both standard errors).
    """
    if result.get("exit") != 0:
        detail = (result.get("stderr") or "").strip().splitlines()[-1:]
        return f"exit code {result.get('exit')}: {' '.join(detail)}"
    recorded = reference["operations"].get(op.id)
    if recorded is None:
        return "no recorded reference for this operation"
    if op.mc is None or seed == RECORDED_SEED:
        if digests_of(result) != recorded["digests"]:
            return "output digest differs from the reference"
        return None
    estimate = json.loads(result["stdout"])["estimate"]
    if estimate["seed"] != seed or estimate["trials"] != int(option(op, "--trials")):
        return "Monte Carlo output does not echo its seed and trial count"
    mean, std_error = Fraction(estimate["mean"]), float(estimate["std_error"])
    if op.mc == "exact":
        center, spread = Fraction(recorded["exact_value"]), std_error
    else:
        center = Fraction(recorded["estimate"]["mean"])
        spread = math.hypot(std_error, float(recorded["estimate"]["std_error"]))
    if abs(float(mean - center)) > MC_TOLERANCE_SE * spread:
        return (
            f"Monte Carlo mean {estimate['mean']} is more than {MC_TOLERANCE_SE} "
            f"standard errors from {float(center):.12f}"
        )
    return None


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    """One invocation: a workload of one profile at one seed."""

    def __init__(self, root: Path, profile: str, workload: str, seed: int):
        self.profile = PROFILES[profile]
        self.workload = workloads(self.profile)[workload]
        self.seed = seed
        self.src = root / "src"
        self.env = child_env(self.src)
        self.workdir = root / ".bench_work" / f"{profile}-{workload}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.edge_eps = ""
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict[str, dict] = {}

    # -- children --------------------------------------------------------

    def spawn(self, spec: dict) -> dict:
        """Run one child to completion; adds maxrss_mb, setup_s and
        op_s (measured seconds) and their reference-second forms
        setup_ref_s and op_ref_s (see pace.py)."""
        for name in spec.get("files", ()):
            (self.workdir / name).unlink(missing_ok=True)
        started = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(spec)],
            cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
        )
        timer = threading.Timer(OPERATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        lines = out.decode("utf-8", "replace").splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"exit": proc.returncode or 1, "stderr": "child printed no result"}
        if proc.returncode != 0:
            result["exit"] = proc.returncode
        if "ready_ns" in result:
            result["setup_s"] = (result["ready_ns"] - started) / 1e9
            result["setup_ref_s"] = reference_seconds(result["setup_s"], result["lead_pace"])
        if "end_ns" in result:
            busy = result.get("pace_busy_ns", 0)
            result["op_s"] = (result["end_ns"] - result["start_ns"] - busy) / 1e9
            if "pace" in result:
                result["op_ref_s"] = reference_seconds(result["op_s"], result["pace"])
        result["maxrss_mb"] = usage.ru_maxrss / 1024
        return result

    def probe(self) -> dict:
        result = self.spawn({"probe": True})
        package = Path(result.get("package") or "/").resolve()
        if self.src.resolve() not in package.parents:
            raise PrepareError(
                f"children import secretary_lab from {package}, not from {self.src}"
            )
        return result

    def input_spec(self, name: str) -> dict:
        if name == EDGE_INPUT:
            return {
                "edge": {
                    "s": EDGE_S,
                    "k": EDGE_K,
                    "digits": self.profile.edge_digits,
                    "out": EDGE_FILE,
                },
                "files": [EDGE_FILE],
            }
        op = inputs(self.profile)[name]
        return {"argv": list(op.argv), "files": list(op.files), "keep_stdout": True}

    def operation_spec(self, op: Operation, trace: bool) -> dict:
        argv = [
            arg.replace("{seed}", str(self.seed)).replace("{edge_eps}", self.edge_eps)
            for arg in op.argv
        ]
        return {
            "argv": argv,
            "files": list(op.files),
            "keep_stdout": op.mc is not None,
            "trace": trace,
            "pace": not trace,
        }

    # -- inputs and operations -------------------------------------------

    def prepare_inputs(self, reference: dict | None) -> dict[str, dict]:
        """Generate the workload's inputs; with a reference, require their
        digests to match it."""
        results = {}
        for name in self.workload.inputs:
            result = self.spawn(self.input_spec(name))
            self.attempted += 1
            if result.get("exit") != 0:
                raise PrepareError(f"input {name} failed: {result.get('stderr', '').strip()}")
            if reference is not None and digests_of(result) != reference["inputs"].get(name):
                raise PrepareError(f"input {name} differs from its recorded digest")
            results[name] = result
        if EDGE_INPUT in self.workload.inputs:
            self.edge_eps = (self.workdir / EDGE_FILE).read_text(encoding="utf-8")
        return results

    def run_operation(self, op: Operation, reference: dict, trace: bool) -> dict:
        result = self.spawn(self.operation_spec(op, trace))
        self.attempted += 1
        problem = check_operation(op, result, reference, self.seed)
        first = self.first_digests.setdefault(op.id, digests_of(result))
        if problem is None and digests_of(result) != first:
            problem = "output differs from an earlier run of the same operation and seed"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{op.id}: {problem}")
        return result

    def run_pass(self, reference: dict, trace: bool) -> dict[str, dict]:
        return {
            op.id: self.run_operation(op, reference, trace)
            for op in self.workload.operations
        }


def op_median(passes: list[dict[str, dict]], op_id: str, key: str) -> float:
    """Median over passes of one operation's ``key`` (op_s or op_ref_s)."""
    return median([results[op_id][key] for results in passes if key in results[op_id]])


def summed_median(passes: list[dict[str, dict]], key: str) -> float:
    """Sum over operations of each one's median ``key``."""
    return sum(op_median(passes, op_id, key) for op_id in passes[0])


def traced_layer_metrics(bench: Bench, results: dict[str, dict]) -> dict[str, float]:
    traces = {op_id: r["trace"] for op_id, r in results.items() if "trace" in r}
    values = layer_metrics(traces.values())
    values["cli.output_bytes"] = sum(r.get("output_bytes", 0) for r in results.values())
    for op in bench.workload.operations:
        if op.id in traces:
            values[f"cli.run_command.{op.id}.s"] = (
                layer_metrics([traces[op.id]])["cli.run_command.s"]
            )
    if "verify-edge" in traces:
        reached = layer_metrics([traces["verify-edge"]])["exact.e_enclosure.digits_max"]
        if reached != bench.profile.edge_expect_digits:
            bench.problems.append(
                f"verify-edge: enclosures reached {reached} digits, "
                f"expected {bench.profile.edge_expect_digits}"
            )
    return values


def layer_summary(bench: Bench, untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics over the traced passes: times are medians, counts
    must repeat exactly.  Layer times are measured seconds."""
    passes = [traced_layer_metrics(bench, results) for results in traced]
    metrics = {}
    for name, unit in per_layer_metrics():
        if name == "trace.overhead_s":
            value = summed_median(traced, "op_s") - summed_median(untraced, "op_s")
        else:
            samples = [values.get(name, 0) for values in passes]
            value = median(samples) if unit in TIME_UNITS else samples[0]
            if unit not in TIME_UNITS and any(sample != value for sample in samples):
                bench.problems.append(f"count {name} differs between passes: {samples}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_spans(path: Path, traced: list[dict]) -> None:
    """One JSON array per span: traced pass number, operation id, span
    index, parent span index (-1 at the top), name, start and end in
    CLOCK_MONOTONIC nanoseconds."""
    with open(path, "w", encoding="utf-8") as handle:
        for number, results in enumerate(traced, start=1):
            for op_id, result in results.items():
                spans = result.get("trace", {}).get("spans", [])
                for index, (name, parent, start, end) in enumerate(spans):
                    handle.write(
                        json.dumps([number, op_id, index, parent, name, start, end]) + "\n"
                    )


def git_sha(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(args, root: Path) -> int:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["profiles"][args.profile]
    bench = Bench(root, args.profile, args.workload, args.seed)
    load_before = os.getloadavg()[0]
    bench.prepare_inputs(reference)
    versions = bench.probe()  # also warms the file cache before timing
    probes = [] if args.trace else [bench.probe() for _ in range(SETUP_PROBES)]
    untraced: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + args.seconds
    while not untraced or time.monotonic() < deadline:
        untraced.append(bench.run_pass(reference, trace=False))
        if args.trace:
            traced.append(bench.run_pass(reference, trace=True))
    load_after = os.getloadavg()[0]

    children = probes + [r for results in untraced for r in results.values()]
    setups = [r["setup_ref_s"] for r in children if "setup_ref_s" in r]
    raw = {
        "setup_s": median([r["setup_s"] for r in children if "setup_s" in r]),
        "wall_s": summed_median(untraced, "op_s"),
    }
    if args.trace:
        metrics = layer_summary(bench, untraced, traced)
        write_spans(bench.workdir / "trace.jsonl", traced)
    else:
        values = {
            "setup_s": median(setups),
            "wall_s": summed_median(untraced, "op_ref_s"),
            "peak_rss_mb": median(
                [max(r["maxrss_mb"] for r in results.values()) for results in untraced]
            ),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    provenance = {
        "python": versions["python"],
        "numpy": versions["numpy"],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "workload": args.workload,
        "profile": args.profile,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_1m": [load_before, load_after],
        "measured_seconds": raw,
    }

    print(f"workload {args.workload}, profile {args.profile}, seed {args.seed}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(
        f"samples: {len(untraced)} untraced passes, {len(traced)} traced passes, "
        f"{len(setups)} set-ups; measured seconds: setup_s {raw['setup_s']:.4f}, "
        f"wall_s {raw['wall_s']:.4f}"
    )
    for op_id in untraced[0]:
        print(f"operation {op_id:30s} median {op_median(untraced, op_id, 'op_s'):.4f} s "
              f"measured, {op_median(untraced, op_id, 'op_ref_s'):.4f} s reference")
    for name, entry in metrics.items():
        print(f"{name:45s} {entry['value']:>16.6f} {entry['unit']}")
    print(f"{'fail_share':45s} {bench.failed / bench.attempted:>16.6f} "
          f"({bench.failed} of {bench.attempted} operations)")
    for problem in bench.problems:
        print(f"FAILED {problem}")
    summary = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    (bench.workdir / "result.json").write_text(
        json.dumps({"provenance": provenance, "problems": bench.problems, **summary},
                   indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(summary))
    return 0


def record(root: Path) -> int:
    """Run every operation once on the recorded seed and store its
    digests (and Monte Carlo estimates) as the reference."""
    profiles = {}
    for profile in PROFILES:
        entry = {"inputs": {}, "operations": {}}
        for name in workloads(PROFILES[profile]):
            bench = Bench(root, profile, name, RECORDED_SEED)
            prepared = bench.prepare_inputs(None)
            for input_name, result in prepared.items():
                entry["inputs"][input_name] = digests_of(result)
            for op in bench.workload.operations:
                result = bench.spawn(bench.operation_spec(op, trace=False))
                if result.get("exit") != 0:
                    raise PrepareError(f"{profile} {op.id} failed: {result.get('stderr')}")
                recorded = {"digests": digests_of(result)}
                if op.mc is not None:
                    recorded["estimate"] = json.loads(result["stdout"])["estimate"]
                if op.mc == "exact":
                    solved = json.loads(prepared["policy-eval"]["stdout"])
                    recorded["exact_value"] = solved["optimum"]["exact"]
                entry["operations"][op.id] = recorded
                print(f"recorded {profile} {op.id}")
        profiles[profile] = entry
    payload = {"recorded_seed": RECORDED_SEED, "profiles": profiles}
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads(PROFILES["full"])))
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full",
                        help="tiny runs the same paths at toy sizes (self-check)")
    parser.add_argument("--record", action="store_true",
                        help="re-record the reference digests instead of measuring")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "secretary_lab" / "__init__.py").is_file():
        print(f"error: {root} holds no secretary-lab source (src/secretary_lab); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        return record(root) if args.record else measure(args, root)
    except PrepareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
