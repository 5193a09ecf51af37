"""Domain model: edge clusters, serverless functions and scenarios, with JSON I/O.

Units used throughout the package:
  * network delay           milliseconds (per request, one hop i -> j)
  * request rate (workload) requests per second
  * memory                  GB
  * compute capacity        core-units; a function consumes
                            rate * cores_per_request core-units on the
                            node that serves the request

A scenario is its arrays: node j and function f sit at index j and f of
read-only float64 arrays, Topology's cores (N,), memory (N,) and delays
(N, N), and Scenario's function_memory (F,) and cores_per_request (F, N).
Every reader shares them; a write raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .util import dump_json, load_json

SCENARIO_SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Raised when a scenario file cannot be parsed or fails validation."""


def _freeze(obj, *names: str) -> None:
    """Store each named field of a frozen dataclass as a read-only float64 copy."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=float)
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


# --------------------------------------------------------------------------
# cluster side
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Topology:
    """Edge cluster: node j has cores[j] core-units and memory[j] GB, and
    delays[i, j] is the delay (ms) of one hop from node i to node j."""

    cores: np.ndarray  # (N,)
    memory: np.ndarray  # (N,)
    delays: np.ndarray  # (N, N)

    def __post_init__(self) -> None:
        _freeze(self, "cores", "memory", "delays")

    @property
    def n_nodes(self) -> int:
        return len(self.cores)


def validate_topology(topology: Topology) -> list[str]:
    """Return a list of human-readable violations; empty means valid."""
    out: list[str] = []
    n = topology.n_nodes
    if n == 0:
        return ["topology has no nodes"]
    if topology.memory.shape != (n,):
        return [f"memory shape {topology.memory.shape} does not match node count {n}"]
    for idx, (cores, memory) in enumerate(zip(topology.cores.tolist(), topology.memory.tolist())):
        if not np.isfinite(cores) or cores <= 0:
            out.append(f"non-positive cores at node {idx}")
        if not np.isfinite(memory) or memory <= 0:
            out.append(f"non-positive memory at node {idx}")
    d = topology.delays
    if d.shape != (n, n):
        out.append(f"delay matrix shape {d.shape} does not match node count {n}")
        return out
    if not np.all(np.isfinite(d)):
        out.append("non-finite delay entry")
        return out
    for i in range(n):
        if d[i, i] != 0.0:
            out.append(f"nonzero diagonal at {i}")
    neg = np.argwhere(d < 0)
    for i, j in neg:
        out.append(f"negative delay at ({i},{j})")
    asym = np.argwhere(d != d.T)
    seen = set()
    for i, j in asym:
        key = (min(i, j), max(i, j))
        if key not in seen:
            seen.add(key)
            out.append(f"asymmetric at ({key[0]},{key[1]})")
    return out


def validate_workload(workload: np.ndarray, n_functions: int, n_nodes: int) -> list[str]:
    out: list[str] = []
    if workload.shape != (n_functions, n_nodes):
        return [
            f"workload shape {workload.shape} does not match "
            f"(functions, nodes) = ({n_functions}, {n_nodes})"
        ]
    if not np.all(np.isfinite(workload)):
        out.append("non-finite workload entry")
    elif np.any(workload < 0):
        i, j = np.argwhere(workload < 0)[0]
        out.append(f"negative workload at function {i}, node {j}")
    return out


# --------------------------------------------------------------------------
# scenario container + JSON round trip
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Everything the solvers need: cluster, functions, one workload snapshot.

    Function f reserves function_memory[f] GB on every node that hosts it
    and draws cores_per_request[f, j] core-units per request/s served at
    node j. criticality (optional, one int per function, higher = more
    critical) is only consumed by the criticality-aware baseline.
    """

    topology: Topology
    function_memory: np.ndarray  # (F,)
    cores_per_request: np.ndarray  # (F, N)
    workload: np.ndarray  # (F, N) requests/s
    criticality: tuple[int, ...] | None = None
    name: str = "scenario"

    def __post_init__(self) -> None:
        _freeze(self, "function_memory", "cores_per_request")

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    @property
    def n_functions(self) -> int:
        return len(self.function_memory)


def validate_scenario(scenario: Scenario) -> list[str]:
    out = validate_topology(scenario.topology)
    for idx, memory in enumerate(scenario.function_memory.tolist()):
        if not np.isfinite(memory) or memory <= 0:
            out.append(f"non-positive memory requirement at function {idx}")
    cpr = scenario.cores_per_request
    if cpr.shape != (scenario.n_functions, scenario.n_nodes):
        out.append(
            f"cores_per_request shape {cpr.shape} does not match "
            f"(functions, nodes) = ({scenario.n_functions}, {scenario.n_nodes})"
        )
    else:
        for idx in np.flatnonzero(~(np.isfinite(cpr) & (cpr > 0)).all(axis=1)):
            out.append(f"non-positive cores_per_request at function {idx}")
    out += validate_workload(scenario.workload, scenario.n_functions, scenario.n_nodes)
    if scenario.criticality is not None and len(scenario.criticality) != scenario.n_functions:
        out.append(
            f"criticality length {len(scenario.criticality)} does not match "
            f"function count {scenario.n_functions}"
        )
    return out


def scenario_to_dict(scenario: Scenario) -> dict:
    topology = scenario.topology
    doc: dict = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "name": scenario.name,
        "nodes": [
            {"id": j, "cores": cores, "memory": memory}
            for j, (cores, memory) in enumerate(
                zip(topology.cores.tolist(), topology.memory.tolist())
            )
        ],
        "delays": topology.delays.tolist(),
        "functions": [
            {"id": f, "memory": memory, "cores_per_request": cpr}
            for f, (memory, cpr) in enumerate(
                zip(scenario.function_memory.tolist(), scenario.cores_per_request.tolist())
            )
        ],
        "workload": np.asarray(scenario.workload, dtype=float).tolist(),
    }
    if scenario.criticality is not None:
        doc["criticality"] = [int(c) for c in scenario.criticality]
    return doc


def _sparse_ids(entries: list, kind: str, count: str) -> list[str]:
    return [
        f"{kind} ids must be dense 0..{count}-1, position {idx} holds id {int(entry['id'])}"
        for idx, entry in enumerate(entries)
        if int(entry["id"]) != idx
    ]


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario of a JSON document.

    Node and function ids must be dense. A function's cores_per_request is
    one number for every node (1.0 when missing) or a list of one per node.
    """
    try:
        version = doc.get("schema_version", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioError(f"unsupported scenario schema_version {version}")
        nodes, functions = doc["nodes"], doc["functions"]
        problems = _sparse_ids(nodes, "node", "N") + _sparse_ids(functions, "function", "F")
        delays = np.array(doc["delays"], dtype=float)
        if delays.ndim != 2:
            raise ScenarioError("delays must be a 2-d matrix")
        n = len(nodes)
        cores_per_request = []
        for idx, f in enumerate(functions):
            cpr = f.get("cores_per_request", 1.0)
            if not isinstance(cpr, list):
                cpr = [float(cpr)] * n
            elif len(cpr) != n:
                raise ScenarioError(
                    f"invalid scenario: function {idx}: cores_per_request has {len(cpr)} "
                    f"entries, expected one per node ({n})"
                )
            cores_per_request.append(cpr)
        workload = np.array(doc["workload"], dtype=float)
        if workload.ndim != 2:
            raise ScenarioError("workload must be a 2-d matrix")
        crit = doc.get("criticality")
        criticality = tuple(int(c) for c in crit) if crit is not None else None
        scenario = Scenario(
            topology=Topology(
                cores=[float(node["cores"]) for node in nodes],
                memory=[float(node["memory"]) for node in nodes],
                delays=delays,
            ),
            function_memory=[float(f["memory"]) for f in functions],
            cores_per_request=cores_per_request,
            workload=workload,
            criticality=criticality,
            name=str(doc.get("name", "scenario")),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from exc
    problems += validate_scenario(scenario)
    if problems:
        raise ScenarioError("invalid scenario: " + "; ".join(problems))
    return scenario


def load_scenario(path: str) -> Scenario:
    try:
        doc = load_json(path)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario {path} is not a JSON object")
    return scenario_from_dict(doc)


def save_scenario(path: str, scenario: Scenario) -> None:
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError("refusing to save invalid scenario: " + "; ".join(problems))
    dump_json(path, scenario_to_dict(scenario))
