"""Layer spans and counts for the traced benchmark run.

``Tracer.install`` wraps the public functions of each secretary_lab
module (cli, bounds, construction, instances, policy, baselines, exact)
at every import site: each module attribute bound to the original
function is rebound to a wrapper that records a span (name, parent span,
start and end on CLOCK_MONOTONIC).  Spans stay in memory and are
exported once the operation ends.  Leaf functions that run hundreds of
thousands of times per operation (``Policy.action_for`` and the
per-order simulation behind ``evaluate_policy``) are only counted,
because a span would cost more than the call.  Decision hooks of an
online algorithm (``decide``, ``run_batch``) are wrapped when the
algorithm enters a baselines function.

The package is imported only inside ``install``; ``layer_metrics`` is
plain arithmetic over exported traces, so the benchmark driver can use
it without importing the package.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter

PACKAGE = "secretary_lab"

SPANS = (
    "cli.run_command",
    "bounds.verify_theorem",
    "bounds.oracle_optimum",
    "bounds.ub_display",
    "bounds.alpha_value",
    "bounds.beta_bounds",
    "bounds.threshold_value",
    "construction.build_hard_family",
    "instances.load_family",
    "instances.validate_family",
    "instances.render_family_json",
    "policy.solve_optimal",
    "policy.evaluate_policy",
    "policy.reachable_states",
    "policy.Policy.to_dict",
    "policy.Policy.load",
    "baselines.dynkin_policy",
    "baselines.evaluate_algorithm",
    "baselines.algorithm_to_policy",
    "baselines.monte_carlo_estimate",
    "exact.e_enclosure",
    "exact.inv_e_enclosure",
    "exact.compare_to_inv_e",
    "exact.refine_until_decisive",
    "exact.floor_n_over_e",
)

# Counted, not timed: wrapped function -> counter name.
COUNTED = {
    "policy.Policy.action_for": "policy.action_for.calls",
    "policy._simulate": "policy.simulations",
}

# Baselines functions that receive an online algorithm; its decision
# hooks are wrapped on the way in.
TAKES_ALGORITHM = (
    "baselines.evaluate_algorithm",
    "baselines.algorithm_to_policy",
    "baselines.monte_carlo_estimate",
)

# Per-layer metrics this module computes from the spans, with units.
LAYER_METRICS = (
    ("cli.run_command.s", "s"),
    ("bounds.verify_theorem.s", "s"),
    ("bounds.verify_theorem.self_s", "s"),
    ("bounds.threshold_value.calls", "count"),
    ("construction.build_hard_family.s", "s"),
    ("construction.rows", "count"),
    ("instances.load_family.s", "s"),
    ("instances.validate_family.calls", "count"),
    ("policy.solve_optimal.s", "s"),
    ("policy.solve_optimal.self_s", "s"),
    ("policy.evaluate_policy.s", "s"),
    ("policy.evaluate_policy.calls", "count"),
    ("policy.simulations", "count"),
    ("policy.states", "count"),
    ("policy.distinct_observed_sets", "count"),
    ("policy.state_reuse", "ratio"),
    ("policy.Policy.to_dict.s", "s"),
    ("policy.Policy.load.s", "s"),
    ("policy.action_for.calls", "count"),
    ("policy.reachable_states.s", "s"),
    ("baselines.monte_carlo_estimate.s", "s"),
    ("baselines.monte_carlo_estimate.self_s", "s"),
    ("baselines.run_batch.s", "s"),
    ("baselines.decide.s", "s"),
    ("baselines.decide.calls", "count"),
    ("baselines.trials_per_s", "1/s"),
    ("baselines.algorithm_to_policy.s", "s"),
    ("exact.compare_to_inv_e.s", "s"),
    ("exact.e_enclosure.calls", "count"),
    ("exact.e_enclosure.digits_max", "digits"),
    ("exact.refine.rounds", "count"),
)


class Tracer:
    """Span and counter store for one operation in one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start_ns, end_ns]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        spans, stack, clock = self.spans, self.stack, time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            record = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.traced = True
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks -----------------------------------------------------------

    def _after(self, qualname):
        hooks = {
            "construction.build_hard_family":
                lambda family: self.add("construction.rows", len(family.scenarios)),
            "policy.solve_optimal": self._solve_counts,
            "exact.e_enclosure":
                lambda enclosure: self.peak("exact.e_enclosure.digits_max", enclosure.digits),
            "baselines.monte_carlo_estimate":
                lambda estimate: self.add("baselines.trials", estimate.trials),
        }
        return hooks.get(qualname)

    def _before(self, qualname):
        if qualname == "exact.refine_until_decisive":
            return self._count_builds
        if qualname in TAKES_ALGORITHM:
            return self._trace_algorithm
        return None

    def _solve_counts(self, report) -> None:
        states = report.policy.actions
        self.add("policy.states", len(states))
        self.add(
            "policy.distinct_observed_sets",
            len({frozenset(state.observed) for state in states}),
        )

    def _count_builds(self, args, kwargs):
        """Count enclosure builds of one refinement: builds beyond the
        first per comparison are refinement rounds."""
        produce, *rest = args

        def counted(digits):
            self.add("exact.refine.builds")
            return produce(digits)

        return (counted, *rest), kwargs

    def _trace_algorithm(self, args, kwargs):
        online = sys.modules[f"{PACKAGE}.baselines"].OnlineAlgorithm

        def traced(alg):
            if not isinstance(alg, online) or getattr(alg.decide, "traced", False):
                return alg
            return dataclasses.replace(
                alg,
                decide=self.span("baselines.decide", alg.decide),
                run_batch=None if alg.run_batch is None
                else self.span("baselines.run_batch", alg.run_batch),
            )

        return tuple(traced(a) for a in args), {k: traced(v) for k, v in kwargs.items()}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function at each of its import sites."""
        __import__(f"{PACKAGE}.cli")
        modules = [
            module for name, module in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for qualname in SPANS:
            self._rebind(
                qualname, modules,
                lambda fn, q=qualname: self.span(q, fn, self._before(q), self._after(q)),
            )
        for qualname, counter_name in COUNTED.items():
            self._rebind(qualname, modules, lambda fn, c=counter_name: self.counter(c, fn))

    @staticmethod
    def _rebind(qualname, modules, make) -> None:
        module_name, _, attr = qualname.partition(".")
        owner = sys.modules[f"{PACKAGE}.{module_name}"]
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = getattr(owner, class_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
            return
        original = vars(owner)[attr]
        wrapped = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "peaks": self.peaks}


def _span_totals(traces):
    """Inclusive ns (outermost span of each name only), self ns and calls
    per span name over several exported traces."""
    inclusive, own, calls = Counter(), Counter(), Counter()
    for trace in traces:
        spans = trace["spans"]
        child_ns = [0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name, parent, start, end) in enumerate(spans):
            calls[name] += 1
            own[name] += end - start - child_ns[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][1]
            if parent < 0:
                inclusive[name] += end - start
    return inclusive, own, calls


def layer_metrics(traces) -> dict[str, float]:
    """The LAYER_METRICS of one pass, from the traces of its operations."""
    traces = list(traces)
    inclusive, own, calls = _span_totals(traces)
    counts, peaks = Counter(), {}
    for trace in traces:
        counts.update(trace["counts"])
        for name, value in trace["peaks"].items():
            peaks[name] = max(peaks.get(name, value), value)

    def seconds(name):
        return inclusive[name] / 1e9

    def self_seconds(name):
        return own[name] / 1e9

    mc_seconds = seconds("baselines.monte_carlo_estimate")
    values = {
        "cli.run_command.s": seconds("cli.run_command"),
        "bounds.verify_theorem.s": seconds("bounds.verify_theorem"),
        "bounds.verify_theorem.self_s": self_seconds("bounds.verify_theorem"),
        "bounds.threshold_value.calls": calls["bounds.threshold_value"],
        "construction.build_hard_family.s": seconds("construction.build_hard_family"),
        "construction.rows": counts["construction.rows"],
        "instances.load_family.s": seconds("instances.load_family"),
        "instances.validate_family.calls": calls["instances.validate_family"],
        "policy.solve_optimal.s": seconds("policy.solve_optimal"),
        "policy.solve_optimal.self_s": self_seconds("policy.solve_optimal"),
        "policy.evaluate_policy.s": seconds("policy.evaluate_policy"),
        "policy.evaluate_policy.calls": calls["policy.evaluate_policy"],
        "policy.simulations": counts["policy.simulations"],
        "policy.states": counts["policy.states"],
        "policy.distinct_observed_sets": counts["policy.distinct_observed_sets"],
        "policy.state_reuse": (
            counts["policy.states"] / counts["policy.distinct_observed_sets"]
            if counts["policy.distinct_observed_sets"] else 0.0
        ),
        "policy.Policy.to_dict.s": seconds("policy.Policy.to_dict"),
        "policy.Policy.load.s": seconds("policy.Policy.load"),
        "policy.action_for.calls": counts["policy.action_for.calls"],
        "policy.reachable_states.s": seconds("policy.reachable_states"),
        "baselines.monte_carlo_estimate.s": mc_seconds,
        "baselines.monte_carlo_estimate.self_s": self_seconds("baselines.monte_carlo_estimate"),
        "baselines.run_batch.s": seconds("baselines.run_batch"),
        "baselines.decide.s": seconds("baselines.decide"),
        "baselines.decide.calls": calls["baselines.decide"],
        "baselines.trials_per_s": (
            counts["baselines.trials"] / mc_seconds if mc_seconds else 0.0
        ),
        "baselines.algorithm_to_policy.s": seconds("baselines.algorithm_to_policy"),
        "exact.compare_to_inv_e.s": seconds("exact.compare_to_inv_e"),
        "exact.e_enclosure.calls": calls["exact.e_enclosure"],
        "exact.e_enclosure.digits_max": peaks.get("exact.e_enclosure.digits_max", 0),
        "exact.refine.rounds": (
            counts["exact.refine.builds"] - calls["exact.refine_until_decisive"]
        ),
    }
    assert list(values) == [name for name, _ in LAYER_METRICS]
    return values
