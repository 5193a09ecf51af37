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

import functools
from dataclasses import dataclass

import numpy as np

from .contract import AMOUNT, MAGNITUDE, SCENARIO, conform, first_outside
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

    # computed on first read, so a malformed topology still builds for validate_topology
    @functools.cached_property
    def delay_row_sums(self) -> np.ndarray:
        """(N,) read-only: np.add.reduce(delays, axis=1), each node's delays to all nodes."""
        sums = np.add.reduce(self.delays, axis=1)
        sums.flags.writeable = False
        return sums

    @functools.cached_property
    def total_cores(self) -> float:
        return float(self.cores.sum())


def validate_topology(topology: Topology) -> list[str]:
    """Human-readable violations, empty when valid; an array's first number outside its
    contract.Rule is named as a scenario document names it, such as "nodes[1].cores"."""
    n = topology.n_nodes
    if n == 0:
        return ["topology has no nodes"]
    if topology.memory.shape != (n,):
        return [f"memory shape {topology.memory.shape} does not match node count {n}"]
    d = topology.delays
    out = first_outside("nodes[{}].cores", topology.cores, AMOUNT)
    out += first_outside("nodes[{}].memory", topology.memory, AMOUNT)
    if d.shape != (n, n):
        return out + [f"delay matrix shape {d.shape} does not match node count {n}"]
    out += first_outside("delays[{}][{}]", d, MAGNITUDE)
    if not np.all(np.isfinite(d)):
        return out
    out += [f"delays: nonzero diagonal at {i}" for i in np.flatnonzero(np.diag(d))]
    return out + [f"delays: asymmetric at ({i},{j})" for i, j in np.argwhere(np.triu(d != d.T))]


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
    out += first_outside("functions[{}].memory", scenario.function_memory, AMOUNT)
    cpr = scenario.cores_per_request
    if cpr.shape != (scenario.n_functions, scenario.n_nodes):
        out.append(
            f"cores_per_request shape {cpr.shape} does not match "
            f"(functions, nodes) = ({scenario.n_functions}, {scenario.n_nodes})"
        )
    else:
        out += first_outside("functions[{}].cores_per_request[{}]", cpr, AMOUNT)
    problems = validate_workload(scenario.workload, scenario.n_functions, scenario.n_nodes)
    out += problems or first_outside("workload[{}][{}]", scenario.workload, MAGNITUDE)
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


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario of a JSON document whose numbers are of contract.SCENARIO's kinds, with
    dense ids (entry k has id k); validate_scenario holds them to their ranges and shapes."""
    try:
        version = doc.get("schema_version", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioError(f"unsupported scenario schema_version {version}")
        conform(doc, SCENARIO, "", ranged=False)
        nodes, functions = doc["nodes"], doc["functions"]
        problems = [f"{kind[:-1]} ids must be dense: {kind}[{k}].id is {entry['id']}"
                    for kind in ("nodes", "functions") for k, entry in enumerate(doc[kind])
                    if entry["id"] != k]
        for key in ("delays", "workload"):  # lists of lists, as the contract has it
            if not doc[key] or len({len(row) for row in doc[key]}) > 1:
                raise ScenarioError(f"{key} must be a 2-d matrix")
        n = len(nodes)
        cores_per_request = []
        for idx, f in enumerate(functions):
            cpr = f.get("cores_per_request", 1.0)
            if not isinstance(cpr, list):
                cpr = [cpr] * n
            elif len(cpr) != n:
                raise ScenarioError(
                    f"invalid scenario: function {idx}: cores_per_request has {len(cpr)} "
                    f"entries, expected one per node ({n})"
                )
            cores_per_request.append(cpr)
        crit = doc.get("criticality")
        scenario = Scenario(
            topology=Topology(
                cores=[node["cores"] for node in nodes],
                memory=[node["memory"] for node in nodes],
                delays=doc["delays"],
            ),
            function_memory=[f["memory"] for f in functions],
            cores_per_request=cores_per_request,
            workload=np.array(doc["workload"], dtype=float),
            criticality=tuple(crit) if crit is not None else None,
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
    return scenario_from_dict(load_json(path, ScenarioError, "scenario"))


def save_scenario(path: str, scenario: Scenario) -> None:
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError("refusing to save invalid scenario: " + "; ".join(problems))
    dump_json(path, scenario_to_dict(scenario))
