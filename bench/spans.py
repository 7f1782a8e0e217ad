"""In-memory span tracing of the lab's layers, from outside the lab.

``Tracer.installed()`` replaces the public names that ``harness``,
``counterexample``, ``truncation`` and ``driver`` look up at call time with
wrappers that record one span per call: name, start, end, parent and a count
of the work the call did (steps, events or jumps).  Nothing in ``src/``
changes; leaving the context restores every name.  ``layer_metrics`` derives
the per-layer metrics from the spans, using self time (a span's duration
minus its direct children's) where a layer calls another traced layer.

phi is not wrapped: its scalar per-event calls sit inside the truncation
spans, and a span per call would swamp the run.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


def _jumps(args, kwargs, out):
    return len(out)


def _ladder_events(args, kwargs, out):
    return sum(len(sol) for sol in args[0].solutions)


def _draws(args, kwargs, out):
    return int(np.size(out))


def _grid_steps(args, kwargs, out):
    return int(out.times.size) - 1


def _run_steps(args, kwargs, out):
    return int(out.grid.times.size) - 1


def _clock_steps(args, kwargs, out):
    return int(out.breakpoints.size) - 1


def _runs_scaling(args, kwargs, out):
    return 2 * out.n  # both horizons' runs enter the KS test


def _runs_covered(args, kwargs, out):
    return round(out.coverage * out.n)  # runs whose clock reached t_eval


# (module, name looked up there, span name, work counter).  One wrapper is made
# per span name and shared by every module that imports the function.
TARGETS = (
    ("harness", "replicate_rng", "replicate_rng", None),
    ("harness", "sample_truncated_path", "sample_truncated_path", _jumps),
    ("harness", "extend_truncated_path", "extend_truncated_path", None),
    ("harness", "thin_path", "thin_path", None),
    ("harness", "solve_truncated", "solve_truncated", _jumps),
    ("harness", "solve_time_change", "solve_time_change", None),
    ("harness", "build_ladder", "build_ladder", None),
    ("harness", "ladder_violations", "ladder_violations", _ladder_events),
    ("harness", "ks_two_sample", "ks_two_sample", None),
    ("harness", "scaling_law_check", "scaling_law_check", _runs_scaling),
    ("harness", "driver_law_check", "driver_law_check", _runs_covered),
    ("harness", "nonuniqueness_demo", "nonuniqueness_demo", _runs_covered),
    ("harness", "write_report_csv", "write_report_csv", None),
    ("driver", "sample_truncated_path", "sample_truncated_path", _jumps),
    ("driver", "sample_exact_increment", "sample_exact_increment", _draws),
    ("truncation", "sample_truncated_path", "sample_truncated_path", _jumps),
    ("truncation", "thin_path", "thin_path", None),
    ("truncation", "solve_truncated", "solve_truncated", _jumps),
    ("counterexample", "run_counterexample", "run_counterexample", _run_steps),
    ("counterexample", "sample_grid_path", "sample_grid_path", _grid_steps),
    ("counterexample", "sample_exact_increment", "sample_exact_increment", _draws),
    ("counterexample", "derive_run", "derive_run", _run_steps),
    ("counterexample", "Clock", "Clock", _clock_steps),
    ("counterexample", "ks_two_sample", "ks_two_sample", None),
)

ROOT_SPAN = "run_experiment"


class Tracer:
    """Spans of one process, kept in parallel lists until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.work: list[int] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.starts.append(0)
            self.ends.append(0)
            self.work.append(0)
            self._stack.append(idx)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if work is not None:
                self.work[idx] = work(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        wrappers = {}
        undo = []
        try:
            for module_name, attr, name, work in TARGETS:
                module = importlib.import_module(f"stable_sde_lab.{module_name}")
                original = getattr(module, attr)
                if name not in wrappers:
                    wrappers[name] = self.wrap(name, original, work)
                undo.append((module, attr, original))
                setattr(module, attr, wrappers[name])
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def self_ns(self) -> list[int]:
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, inclusive ns, self ns and work."""
        agg: dict[str, dict[str, int]] = defaultdict(
            lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0, "work": 0}
        )
        for name, start, end, own, work in zip(
            self.names, self.starts, self.ends, self.self_ns(), self.work
        ):
            a = agg[name]
            a["calls"] += 1
            a["incl_ns"] += end - start
            a["self_ns"] += own
            a["work"] += work
        return agg

    def nested(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` made directly from a ``parent_name`` span."""
        return sum(
            1
            for n, p in zip(self.names, self.parents)
            if n == name and p >= 0 and self.names[p] == parent_name
        )

    def dump(self, path) -> None:
        spans = [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "totals": self.totals()}, fh)


def _ratio(num: float, den: float) -> float:
    """A rate over zero work reads 0: the layer did not run on this workload."""
    return num / den if den else 0.0


# name -> unit, in the order printed.
LAYER_UNITS = {
    "driver.exact_increment_ns_per_step": "ns/step",
    "driver.grid_path_ns_per_step": "ns/step",
    "driver.truncated_path_us_per_call": "us/call",
    "driver.thin_us_per_call": "us/call",
    "driver.jumps_sampled": "count",
    "seeding.replicate_rng_us_per_call": "us/call",
    "truncation.solve_ns_per_event": "ns/event",
    "truncation.solve_us_per_call": "us/call",
    "truncation.violations_ns_per_event": "ns/event",
    "truncation.events_solved": "count",
    "timechange.solve_us_per_call": "us/call",
    "timechange.solves_per_replicate": "ratio",
    "timechange.clock_ns_per_step": "ns/step",
    "counterexample.derive_ns_per_step": "ns/step",
    "counterexample.run_ns_per_step": "ns/step",
    "counterexample.scaling_s": "s",
    "counterexample.driver_law_s": "s",
    "counterexample.nonuniqueness_s": "s",
    "counterexample.coverage": "ratio",
    "counterexample.grid_steps": "count",
    "stats.ks_ms_per_call": "ms/call",
    "harness.self_s": "s",
    "trace.overhead_s": "s",
}

# Self-time shares of run_experiment, in %: share name -> span names.
SHARES = {
    "driver.exact_increment_share": ("sample_exact_increment",),
    "driver.grid_path_share": ("sample_grid_path",),
    "counterexample.derive_share": ("derive_run",),
    "timechange.clock_share": ("Clock",),
    "counterexample.checks_share": (
        "run_counterexample",
        "scaling_law_check",
        "driver_law_check",
        "nonuniqueness_demo",
        "write_report_csv",
    ),
    "driver.truncated_path_share": ("sample_truncated_path", "extend_truncated_path"),
    "driver.thin_share": ("thin_path",),
    "seeding.replicate_rng_share": ("replicate_rng",),
    "truncation.solve_share": ("solve_truncated",),
    "truncation.ladder_share": ("build_ladder",),
    "truncation.violations_share": ("ladder_violations",),
    "timechange.solve_share": ("solve_time_change",),
    "stats.ks_share": ("ks_two_sample",),
    "harness.self_share": (ROOT_SPAN,),
}
LAYER_UNITS.update({name: "%" for name in SHARES})


def layer_metrics(tracer: Tracer, replicates: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, except trace.overhead_s.

    ``replicates`` is the experiment's replicate count: the number of useful
    time-change marginals in an experiment that solves any.
    """
    t = tracer.totals()

    def get(name: str, key: str) -> int:
        return t[name][key] if name in t else 0

    sample_calls = (
        get("sample_truncated_path", "calls")
        - tracer.nested("sample_truncated_path", "extend_truncated_path")
        + get("extend_truncated_path", "calls")
    )
    sample_ns = get("sample_truncated_path", "self_ns") + get("extend_truncated_path", "self_ns")
    solves = get("solve_time_change", "calls")
    used = sum(get(n, "work") for n in ("scaling_law_check", "driver_law_check", "nonuniqueness_demo"))
    root_ns = get(ROOT_SPAN, "incl_ns")
    metrics = {
        "driver.exact_increment_ns_per_step": _ratio(
            get("sample_exact_increment", "self_ns"), get("sample_exact_increment", "work")
        ),
        "driver.grid_path_ns_per_step": _ratio(
            get("sample_grid_path", "self_ns"), get("sample_grid_path", "work")
        ),
        "driver.truncated_path_us_per_call": _ratio(sample_ns / 1e3, sample_calls),
        "driver.thin_us_per_call": _ratio(get("thin_path", "incl_ns") / 1e3, get("thin_path", "calls")),
        "driver.jumps_sampled": get("sample_truncated_path", "work"),
        "seeding.replicate_rng_us_per_call": _ratio(
            get("replicate_rng", "incl_ns") / 1e3, get("replicate_rng", "calls")
        ),
        "truncation.solve_ns_per_event": _ratio(
            get("solve_truncated", "self_ns"), get("solve_truncated", "work")
        ),
        "truncation.solve_us_per_call": _ratio(
            get("solve_truncated", "incl_ns") / 1e3, get("solve_truncated", "calls")
        ),
        "truncation.violations_ns_per_event": _ratio(
            get("ladder_violations", "incl_ns"), get("ladder_violations", "work")
        ),
        "truncation.events_solved": get("solve_truncated", "work"),
        "timechange.solve_us_per_call": _ratio(get("solve_time_change", "incl_ns") / 1e3, solves),
        "timechange.solves_per_replicate": _ratio(solves, replicates),
        "timechange.clock_ns_per_step": _ratio(get("Clock", "incl_ns"), get("Clock", "work")),
        "counterexample.derive_ns_per_step": _ratio(
            get("derive_run", "self_ns"), get("derive_run", "work")
        ),
        "counterexample.run_ns_per_step": _ratio(
            get("run_counterexample", "incl_ns"), get("run_counterexample", "work")
        ),
        "counterexample.scaling_s": get("scaling_law_check", "incl_ns") / 1e9,
        "counterexample.driver_law_s": get("driver_law_check", "incl_ns") / 1e9,
        "counterexample.nonuniqueness_s": get("nonuniqueness_demo", "incl_ns") / 1e9,
        "counterexample.coverage": _ratio(used, get("run_counterexample", "calls")),
        "counterexample.grid_steps": get("sample_grid_path", "work"),
        "stats.ks_ms_per_call": _ratio(
            get("ks_two_sample", "incl_ns") / 1e6, get("ks_two_sample", "calls")
        ),
        "harness.self_s": get(ROOT_SPAN, "self_ns") / 1e9,
    }
    for share, names in SHARES.items():
        metrics[share] = _ratio(100.0 * sum(get(n, "self_ns") for n in names), root_ns)
    return metrics
