"""Independent validation of emitted placement decisions.

A decision file is self-contained: it embeds the workload snapshot it was
solved against plus the placements, routing matrices, and declared totals.
verify_decision parses such a document and check_decision re-derives every
constraint and the totals from scratch, returning the list of violations, so a
buggy or tampered solver output cannot pass. The benchmark harness runs
check_decision on each row's own arrays before it emits the row.
"""

from __future__ import annotations

import numpy as np

from .model import Scenario, validate_workload
from .util import dump_json, load_json

DECISION_SCHEMA_VERSION = 1

_ROUTE_SUM_TOL = 1e-9
_EXCLUSION_TOL = 1e-12
_CAPACITY_RTOL = 1e-9
_TOTAL_RTOL = 1e-9


class DecisionFormatError(ValueError):
    """Decision document is structurally unreadable."""


def decision_to_dict(
    scenario_name: str,
    workload: np.ndarray,
    placements: np.ndarray,
    routes: dict[int, np.ndarray],
    total_delay: float,
    total_cost: float,
    candidate: str,
    alpha: float,
    snapshot: int,
) -> dict:
    f_cnt = workload.shape[0]
    return {
        "schema_version": DECISION_SCHEMA_VERSION,
        "scenario": scenario_name,
        "candidate": candidate,
        "alpha": float(alpha),
        "snapshot": int(snapshot),
        "workload": np.asarray(workload, dtype=float).tolist(),
        "placements": np.asarray(placements).astype(int).tolist(),
        "routes": [np.asarray(routes[f], dtype=float).tolist() for f in range(f_cnt)],
        "total_delay": float(total_delay),
        "total_cost": float(total_cost),
    }


def save_decision(path: str, doc: dict) -> None:
    dump_json(path, doc)


def load_decision(path: str) -> dict:
    return load_json(path, DecisionFormatError, "decision file")


def verify_decision(scenario: Scenario, doc: dict) -> list[str]:
    """All constraint and bookkeeping violations in a decision document."""
    version = doc.get("schema_version")
    if version != DECISION_SCHEMA_VERSION:
        return [f"unsupported schema_version {version!r}"]
    try:
        workload = np.array(doc["workload"], dtype=float)
        placements = np.array(doc["placements"], dtype=float)
        routes = np.array(doc["routes"], dtype=float)
        total_delay = float(doc["total_delay"])
        total_cost = float(doc["total_cost"])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        return [f"malformed document: {exc}"]
    return check_decision(scenario, workload, placements, routes, total_delay, total_cost)


def check_decision(
    scenario: Scenario, workload: np.ndarray, placements: np.ndarray, routes: np.ndarray,
    total_delay: float, total_cost: float,
) -> list[str]:
    """All constraint and bookkeeping violations of a decision's (F, N) and (F, N, N) arrays."""
    out: list[str] = []
    n = scenario.n_nodes
    f_cnt = scenario.n_functions
    problems = validate_workload(workload, f_cnt, n)
    if problems:  # every check below reads the workload
        return problems
    if placements.shape != (f_cnt, n):
        return [f"placements shape {placements.shape}, expected ({f_cnt}, {n})"]
    if routes.shape != (f_cnt, n, n):
        return [f"routes shape {routes.shape}, expected ({f_cnt}, {n}, {n})"]
    if not np.all(np.isfinite(routes)):
        return ["non-finite route entry"]
    if np.any((placements != 0.0) & (placements != 1.0)):
        out.append("placements must be 0/1")
    placed = placements >= 0.5

    for f in range(f_cnt):
        if not placed[f].any():
            out.append(f"empty-placement: function {f} has no hosting node")
    if np.any(routes < -_EXCLUSION_TOL):
        f, i, j = np.argwhere(routes < -_EXCLUSION_TOL)[0]
        out.append(f"negative-route: x[{f},{i},{j}] < 0")
    row_sums = routes.sum(axis=2)
    bad_rows = np.argwhere(np.abs(row_sums - 1.0) > _ROUTE_SUM_TOL)
    for f, i in bad_rows[:5]:
        out.append(
            f"route-sum: function {f} source {i} ships {row_sums[f, i]:.12g} of its traffic"
        )
    outside = np.abs(routes) > _EXCLUSION_TOL
    outside &= ~placed[:, None, :].repeat(n, axis=1)
    for f, i, j in np.argwhere(outside)[:5]:
        out.append(f"route-outside-placement: x[{f},{i},{j}] targets an unchosen node")

    cpr = scenario.cores_per_request
    draw = np.zeros(n)
    for f in range(f_cnt):
        draw += (routes[f] * workload[f][:, None]).sum(axis=0) * cpr[f]
    cores = scenario.topology.cores
    for j in np.flatnonzero(draw > cores * (1.0 + _CAPACITY_RTOL) + _CAPACITY_RTOL):
        out.append(
            f"core-capacity: node {j} draws {draw[j]:.12g} of {cores[j]:.12g} core-units"
        )
    mem_used = placed.astype(float).T @ scenario.function_memory
    memory = scenario.topology.memory
    for j in np.flatnonzero(mem_used > memory * (1.0 + _CAPACITY_RTOL) + _CAPACITY_RTOL):
        out.append(f"memory-capacity: node {j} holds {mem_used[j]:.12g} of {memory[j]:.12g} GB")

    delays = scenario.topology.delays
    actual_delay = float(
        sum(np.sum(routes[f] * delays * workload[f][:, None]) for f in range(f_cnt))
    )
    actual_cost = float(
        sum(np.sum(routes[f] * workload[f][:, None] * cpr[f][None, :]) for f in range(f_cnt))
    )
    # "not <=" so that a NaN declared total, for which every comparison is false, fails
    if not abs(actual_delay - total_delay) <= _TOTAL_RTOL * max(1.0, abs(actual_delay)):
        out.append(
            f"delay-mismatch: declared {total_delay:.12g}, recomputed {actual_delay:.12g}"
        )
    if not abs(actual_cost - total_cost) <= _TOTAL_RTOL * max(1.0, abs(actual_cost)):
        out.append(
            f"cost-mismatch: declared {total_cost:.12g}, recomputed {actual_cost:.12g}"
        )
    return out


def verify_file(scenario: Scenario, path: str) -> list[str]:
    try:
        doc = load_decision(path)
    except DecisionFormatError as exc:
        return [str(exc)]
    return verify_decision(scenario, doc)
