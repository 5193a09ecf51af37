from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from edgeplace import routing
from edgeplace.model import Scenario, Topology


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
    """A scenario from plain lists; each function's cores_per_request entry is one
    number for every node or one per node, and 1.0 everywhere by default."""
    n = len(cores)
    cpr = [1.0] * len(fn_memory) if cores_per_request is None else cores_per_request
    return Scenario(
        topology=Topology(cores=cores, memory=memory, delays=delays),
        function_memory=fn_memory,
        cores_per_request=[np.broadcast_to(np.asarray(c, dtype=float), (n,)) for c in cpr],
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
