from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from edgeplace import routing
from edgeplace.model import FunctionSpec, NodeSpec, Scenario, Topology


def make_scenario(
    delays,
    cores,
    memory,
    fn_memory,
    workload,
    cores_per_request=None,
    criticality=None,
    name="test",
) -> Scenario:
    delays = np.array(delays, dtype=float)
    nodes = tuple(
        NodeSpec(id=i, cores=float(cores[i]), memory=float(memory[i]))
        for i in range(len(cores))
    )
    functions = []
    for f, mem in enumerate(fn_memory):
        cpr = 1.0 if cores_per_request is None else cores_per_request[f]
        if isinstance(cpr, (list, tuple, np.ndarray)):
            cpr = np.array(cpr, dtype=float)
        functions.append(FunctionSpec(id=f, memory=float(mem), cores_per_request=cpr))
    return Scenario(
        topology=Topology(nodes=nodes, delays=delays),
        functions=tuple(functions),
        workload=np.array(workload, dtype=float),
        criticality=tuple(criticality) if criticality is not None else None,
        name=name,
    )


@pytest.fixture
def tri_scenario() -> Scenario:
    """3 nodes in a line, 2 functions, ample but not unlimited capacity."""
    return make_scenario(
        delays=[[0, 2, 5], [2, 0, 3], [5, 3, 0]],
        cores=[30, 20, 40],
        memory=[64, 32, 128],
        fn_memory=[8, 4],
        workload=[[10, 4, 0], [2, 6, 8]],
    )


def random_routing_case(rng: np.random.Generator, n_max: int = 4, hosts_max: int = 3):
    """Random routing instance within the brute-force oracle envelope."""
    n = int(rng.integers(2, n_max + 1))
    pts = rng.uniform(0, 10, size=(n, 2))
    delays = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    delays = (delays + delays.T) / 2
    np.fill_diagonal(delays, 0.0)
    workload = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.5, 20.0, n))
    n_hosts = int(rng.integers(1, min(hosts_max, n) + 1))
    hosts = rng.choice(n, size=n_hosts, replace=False)
    placement = np.zeros(n, dtype=bool)
    placement[hosts] = True
    cores = rng.uniform(1.0, 30.0, n)
    cpr = rng.uniform(0.2, 2.0, n)
    # half the cases get scaled down so infeasible instances show up too
    if rng.random() < 0.5:
        cores = cores * rng.uniform(0.05, 0.6)
    return delays, workload, placement, cores, cpr


def count_highs_fallbacks(monkeypatch) -> list:
    """Record every HiGHS solve routing falls back to; returns the growing record."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(routing, "linprog", counting)
    return calls
