"""In-memory span tracer that wraps edgeplace's public callables from outside.

Each wrapper is installed at the name its callers look up (for example
``edgeplace.env.solve_routing``, the name ``PlacementEnv.step`` resolves at
run time), records one span per call and restores the original on
``uninstall``. Nothing inside ``src/`` is touched. A span is
``(name, start_ns, end_ns, parent_index, context)``; the context is the
decision or training-iteration id the benchmark sets while it runs.
A layer's self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import Counter

import numpy as np

# (module, attribute path, span name). Several names can feed one span name
# because callers import the same function into their own namespaces.
WRAP_TARGETS = (
    ("edgeplace.env", "solve_routing", "routing.solve_routing"),
    ("edgeplace.baselines", "solve_routing", "routing.solve_routing"),
    ("edgeplace.env", "PlacementEnv.step", "env.PlacementEnv.step"),
    ("edgeplace.env", "PlacementEnv.reset", "env.PlacementEnv.reset"),
    ("edgeplace.env", "run_episode", "env.run_episode"),
    ("edgeplace.bench", "run_episode", "env.run_episode"),
    ("edgeplace.nn", "MLP.forward", "nn.MLP.forward"),
    ("edgeplace.nn", "MLP.forward_backward", "nn.MLP.forward_backward"),
    ("edgeplace.bench", "ppo_update", "ppo.ppo_update"),
    ("edgeplace.bench", "train_agent", "bench.train_agent"),
    ("edgeplace.baselines", "solve_joint_milp", "baselines.solve_joint_milp"),
    ("edgeplace.baselines", "solve_vsvbp", "baselines.solve_vsvbp"),
    ("edgeplace.baselines", "solve_creua", "baselines.solve_creua"),
    ("edgeplace.baselines", "linprog", "scipy.linprog"),
    ("edgeplace.verify", "verify_decision", "verify.verify_decision"),
    ("edgeplace.workload", "generate_workloads", "workload.generate_workloads"),
    ("edgeplace.bench", "generate_workloads", "workload.generate_workloads"),
    ("edgeplace.scenarios", "generate_workloads", "workload.generate_workloads"),
)
ROOT_SPAN = "harness"  # the benchmark's own code between layer calls
HOOK_SPAN = "trace.hooks"  # property counting done by the wrappers
CALIBRATION_SPAN = "trace.calibration"  # machine-speed samples between timed units
OWN_SPANS = (ROOT_SPAN, HOOK_SPAN, CALIBRATION_SPAN)
# the benchmark's calibrator, wrapped so its kernel runs count as its own span
CALIBRATION_TARGET = ("calibration", "Calibrator.close", CALIBRATION_SPAN)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.context = ""
        self._base_context = ""
        self.iteration = 0
        self.counts: Counter = Counter()  # properties the hooks observe
        self.missing: list[str] = []  # wrap targets not found
        self.installed: set[str] = set()  # span names with at least one wrapper
        self._restore: list[tuple] = []

    # ---- recording ----

    def set_context(self, context: str) -> None:
        """Tag the spans that follow with a decision or training-job id."""
        self.context = self._base_context = context
        self.iteration = 0

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, end, parent, self.context)

    def run_root(self, fn, *args, **kwargs):
        """Run fn inside the root span so every traced nanosecond has an owner."""
        idx = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, ROOT_SPAN, start)

    def _wrapper(self, name: str, fn):
        tracer = self
        on_result = _RESULT_HOOKS.get(name)
        ends_iteration = name == "ppo.ppo_update"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, start)
            if ends_iteration:
                tracer.iteration += 1
                tracer.context = f"{tracer._base_context}/it{tracer.iteration}"
            if on_result is not None:  # in its own span, so no layer pays for it
                idx = tracer._open()
                start = time.perf_counter_ns()
                on_result(tracer.counts, args, result)
                tracer._close(idx, HOOK_SPAN, start)
            return result

        return wrapper

    # ---- installation ----

    def install(self, targets=WRAP_TARGETS) -> None:
        for module_name, attr_path, span_name in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            setattr(owner, attr, self._wrapper(span_name, original))
            self._restore.append((owner, attr, original))
            self.installed.add(span_name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---- analysis ----

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            entry = out.setdefault(span[0], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            dur = span[2] - span[1]
            entry["calls"] += 1
            entry["ms"] += dur / 1e6
            entry["self_ms"] += (dur - child_ns[idx]) / 1e6
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, ctx = span
                    fh.write(json.dumps([name, start, end, parent, ctx]) + "\n")


def nearest_host_fits(problem) -> bool:
    """Does sending every source to its lowest-delay host fit that host's cores?

    Ties go to the lowest host index, the order the transportation simplex
    uses; this is the condition a routing fast path would rely on.
    """
    hosts = np.flatnonzero(np.asarray(problem.placement, dtype=bool))
    if hosts.size == 0:
        return False
    w = np.asarray(problem.workload_row, dtype=float)
    nearest = hosts[np.argmin(problem.delays[:, hosts], axis=1)]
    load = np.zeros(w.shape[0])
    np.add.at(load, nearest[w > 0], w[w > 0])
    draw = load * problem.cores_per_request
    return bool(np.all(draw <= np.maximum(problem.available_cores, 0.0) + 1e-9))


def _after_routing(counts: Counter, args, result) -> None:
    counts["routing.nearest_fits"] += nearest_host_fits(args[0])
    counts["routing.infeasible"] += not result.feasible


def _after_step(counts: Counter, args, result) -> None:
    if result.violation:
        counts[f"env.violations.{result.violation}"] += 1


def _after_milp(counts: Counter, args, result) -> None:
    counts["baselines.lp_solves"] += result.lp_solves


_RESULT_HOOKS = {
    "routing.solve_routing": _after_routing,
    "env.PlacementEnv.step": _after_step,
    "baselines.solve_joint_milp": _after_milp,
}
