"""Synthetic workload snapshots and trace file ingest.

Real request traces concentrate around a few busy locations that move over
time; the generator mimics that with a small set of hotspot nodes shared by
all functions, drifting between snapshots. The draw order is fixed: the
hotspots, then per snapshot each function's total in function order, then
each hotspot's drift. A trace CSV with columns
(snapshot, function_id, node_id, rate) can substitute real data anywhere a
generated snapshot list is accepted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .contract import CONFIG, TRACE_LINE, conform


class WorkloadError(ValueError):
    """Raised for malformed trace files or impossible generator configs."""


TRACE_COLUMNS = ("snapshot", "function_id", "node_id", "rate")


@dataclass(frozen=True)
class WorkloadGenConfig:
    n_snapshots: int
    rate_range: tuple[float, float] = (8.0, 40.0)  # per-function total req/s
    hotspot_count: int = 2
    concentration: float = 0.8  # workload share pinned to hotspots
    drift_prob: float = 0.3  # chance a hotspot relocates between snapshots
    per_function_rate_ranges: tuple[tuple[float, float], ...] | None = None


def generate_workloads(
    n_functions: int, n_nodes: int, config: WorkloadGenConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Deterministic (given rng state) list of (F, N) snapshots; a setting outside its
    contract.CONFIG range, or a hotspot_count above N or a rate range's high below its low,
    is a WorkloadError."""
    conform(vars(config), CONFIG["workload"], "", WorkloadError)
    if config.hotspot_count > n_nodes:
        raise WorkloadError(f"hotspot_count {config.hotspot_count} exceeds the {n_nodes} nodes")
    ranges = config.per_function_rate_ranges
    if ranges is not None and len(ranges) != n_functions:
        raise WorkloadError(
            f"per_function_rate_ranges has {len(ranges)} entries for {n_functions} functions"
        )
    for name, (lo, hi) in [("rate_range", config.rate_range)] + [
            (f"per_function_rate_ranges[{f}]", pair) for f, pair in enumerate(ranges or ())]:
        if hi < lo:
            raise WorkloadError(f"{name} {[lo, hi]} has its high end below its low end")
    bounds = [config.rate_range] * n_functions if ranges is None else ranges
    # as Generator.uniform(lo, hi) draws: float64 bounds, then lo + (hi - lo) * next_double
    lows, highs = np.array(bounds, dtype=float).reshape(n_functions, 2).T
    spans = highs - lows
    hotspots = list(rng.choice(n_nodes, size=config.hotspot_count, replace=False))
    snapshots = []
    for _ in range(config.n_snapshots):
        weights = [(1.0 - config.concentration) / n_nodes] * n_nodes
        for h in hotspots:
            weights[h] += config.concentration / len(hotspots)
        totals = lows + spans * rng.random(n_functions)
        snapshots.append(np.multiply.outer(totals, weights))
        for k in range(len(hotspots)):
            if rng.random() < config.drift_prob:
                hotspots[k] = int(rng.integers(n_nodes))
    return snapshots


# --------------------------------------------------------------------------
# trace files
# --------------------------------------------------------------------------


def write_trace(path: str, snapshots: list[np.ndarray]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for s, snap in enumerate(snapshots):
            for f in range(snap.shape[0]):
                for n in range(snap.shape[1]):
                    writer.writerow([s, f, n, repr(float(snap[f, n]))])


def ingest_trace(path: str, shape: tuple[int, int]) -> list[np.ndarray]:
    """Read a trace CSV back into dense snapshots; missing cells are zero.

    shape is the scenario's (F, N): a line whose numbers are not of
    contract.TRACE_LINE's kinds and ranges, or whose function index is F or
    more or node index N or more, is refused before any snapshot is made.
    A (snapshot, function, node) cell given on two lines is refused, and so
    are a snapshot index below the largest that no line gives and a trace
    whose largest function and node indices are not F - 1 and N - 1.
    """
    cells: dict[tuple[int, int, int], tuple[int, float]] = {}  # cell -> (line, rate)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != TRACE_COLUMNS:
                raise WorkloadError(
                    f"trace header must be {','.join(TRACE_COLUMNS)}, got {header}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise WorkloadError(f"line {lineno}: expected 4 columns, got {len(row)}")
                try:
                    values = [parse(text) for parse, text in zip((int, int, int, float), row)]
                except ValueError as exc:
                    raise WorkloadError(f"line {lineno}: {exc}") from exc
                s, f, n, rate = (conform(value, rule, f"line {lineno}: {column}", WorkloadError)
                                 for value, rule, column in zip(values, TRACE_LINE, TRACE_COLUMNS))
                if f >= shape[0] or n >= shape[1]:
                    raise WorkloadError(
                        f"line {lineno}: function {f}, node {n} is outside the scenario's "
                        f"{shape[0]} functions and {shape[1]} nodes"
                    )
                first, _ = cells.setdefault((s, f, n), (lineno, rate))
                if first != lineno:
                    raise WorkloadError(
                        f"line {lineno}: snapshot {s}, function {f}, node {n} "
                        f"was already given on line {first}"
                    )
    except OSError as exc:
        raise WorkloadError(f"cannot read trace {path}: {exc}") from exc
    if not cells:
        raise WorkloadError(f"trace {path} holds no samples")
    given = {s for s, _, _ in cells}
    missing = next(s for s in range(len(given) + 1) if s not in given)
    if missing < len(given):  # an index is skipped, so the largest is past len(given) - 1
        raise WorkloadError(
            f"trace {path} has no line for snapshot {missing} but gives snapshot {max(given)}"
        )
    n_snapshots, n_functions, n_nodes = (max(axis) + 1 for axis in zip(*cells))
    if (n_functions, n_nodes) != tuple(shape):
        raise WorkloadError(
            f"trace {path} gives {n_functions} functions and {n_nodes} nodes, "
            f"the scenario has {shape[0]} and {shape[1]}"
        )
    snapshots = [np.zeros(shape) for _ in range(n_snapshots)]
    for (s, f, n), (_, rate) in cells.items():
        snapshots[s][f, n] = rate
    return snapshots
