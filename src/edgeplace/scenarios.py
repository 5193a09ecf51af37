"""Bundled evaluation scenarios and randomized scenario generation.

Both presets use the same 5-node cluster: four nearby nodes with ordinary
hardware and one remote high-capacity node whose accelerators serve requests
at a tenth of the core cost. Delay-only placement keeps traffic near its
sources; once cost matters the remote node becomes attractive, which is the
trade-off the benchmark exercises. The presets differ in how the total
demand is sliced: a few heavy functions versus many light ones.
"""

from __future__ import annotations

import numpy as np

from .model import Scenario, Topology
from .util import rng_stream
from .workload import WorkloadGenConfig, generate_workloads

PRESETS = ("small-payload", "large-payload")

_NODE_CORES = (50.0, 50.0, 50.0, 25.0, 100.0)
_NODE_MEMORY = (100.0, 100.0, 200.0, 50.0, 500.0)
_DELAYS = (
    (0.0, 2.0, 3.0, 4.0, 6.0),
    (2.0, 0.0, 2.0, 3.0, 6.0),
    (3.0, 2.0, 0.0, 2.0, 6.0),
    (4.0, 3.0, 2.0, 0.0, 6.0),
    (6.0, 6.0, 6.0, 6.0, 0.0),
)
# per-node core draw per request/s; node 4 is the cheap remote hub
_CORES_PER_REQUEST = (1.0, 1.0, 1.0, 1.2, 0.1)


def preset_workload_config(name: str, n_snapshots: int) -> WorkloadGenConfig:
    if name == "small-payload":
        return WorkloadGenConfig(n_snapshots=n_snapshots, rate_range=(24.0, 56.0))
    if name == "large-payload":
        return WorkloadGenConfig(n_snapshots=n_snapshots, rate_range=(10.0, 22.0))
    raise ValueError(f"unknown preset {name!r}; choose from {PRESETS}")


def build_preset(name: str) -> Scenario:
    cfg = preset_workload_config(name, n_snapshots=1)  # an unknown name is its ValueError
    if name == "small-payload":
        memories = (50.0, 10.0, 10.0, 10.0)
        criticality = (2, 1, 1, 0)
    else:
        memories = tuple(10.0 for _ in range(10))
        criticality = tuple(f % 3 for f in range(10))
    snapshot = generate_workloads(
        len(memories), len(_NODE_CORES), cfg, rng_stream(0, f"preset:{name}")
    )[0]
    return Scenario(
        topology=Topology(cores=_NODE_CORES, memory=_NODE_MEMORY, delays=_DELAYS),
        function_memory=memories,
        cores_per_request=np.tile(_CORES_PER_REQUEST, (len(memories), 1)),
        workload=snapshot,
        criticality=criticality,
        name=name,
    )


def random_scenario(
    n_nodes: int, n_functions: int, rng: np.random.Generator, name: str = "random"
) -> Scenario:
    """Random but always-valid scenario: symmetric delays, roomy capacities."""
    points = rng.uniform(0.0, 10.0, size=(n_nodes, 2))
    delays = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    delays = (delays + delays.T) / 2.0
    np.fill_diagonal(delays, 0.0)
    # Generator.uniform's draws, in order: node cores, memory; function memory, cores_per_request
    node_u, function_u = rng.random((n_nodes, 2)), rng.random((n_functions, n_nodes + 1))
    cores = 20.0 + (100.0 - 20.0) * node_u[:, 0]
    memory = 50.0 + (500.0 - 50.0) * node_u[:, 1]
    function_memory = 5.0 + (40.0 - 5.0) * function_u[:, 0]
    cores_per_request = 0.2 + (1.2 - 0.2) * function_u[:, 1:]
    cfg = WorkloadGenConfig(
        n_snapshots=1,
        rate_range=(4.0, 20.0),
        hotspot_count=min(2, n_nodes),
    )
    snapshot = generate_workloads(n_functions, n_nodes, cfg, rng)[0]
    return Scenario(
        topology=Topology(cores=cores, memory=memory, delays=delays),
        function_memory=function_memory,
        cores_per_request=cores_per_request,
        workload=snapshot,
        name=name,
    )
