"""Domain model: edge clusters, serverless functions and scenarios, with JSON I/O.

Units used throughout the package:
  * network delay           milliseconds (per request, one hop i -> j)
  * request rate (workload) requests per second
  * memory                  GB
  * compute capacity        core-units; a function consumes
                            rate * cores_per_request core-units on the
                            node that serves the request
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .util import dump_json, load_json

SCENARIO_SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Raised when a scenario file cannot be parsed or fails validation."""


# --------------------------------------------------------------------------
# cluster side
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeSpec:
    """A single edge node: compute capacity in core-units, memory in GB."""

    id: int
    cores: float
    memory: float


@dataclass(frozen=True)
class Topology:
    """Edge cluster: node specs plus a dense inter-node delay matrix (ms)."""

    nodes: tuple[NodeSpec, ...]
    delays: np.ndarray  # (N, N) float64

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def cores(self) -> np.ndarray:
        return np.array([n.cores for n in self.nodes], dtype=float)

    @property
    def memory(self) -> np.ndarray:
        return np.array([n.memory for n in self.nodes], dtype=float)


def validate_topology(topology: Topology) -> list[str]:
    """Return a list of human-readable violations; empty means valid."""
    out: list[str] = []
    n = topology.n_nodes
    if n == 0:
        return ["topology has no nodes"]
    for idx, node in enumerate(topology.nodes):
        if node.id != idx:
            out.append(f"node ids must be dense 0..N-1, position {idx} holds id {node.id}")
        if not np.isfinite(node.cores) or node.cores <= 0:
            out.append(f"non-positive cores at node {idx}")
        if not np.isfinite(node.memory) or node.memory <= 0:
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


# --------------------------------------------------------------------------
# function side
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSpec:
    """A serverless function.

    cores_per_request is either a scalar (same cost everywhere) or a
    length-N per-node vector for heterogeneous hardware.
    """

    id: int
    memory: float  # GB reserved on every hosting node
    cores_per_request: float | np.ndarray = 1.0

    def cores_per_request_vec(self, n_nodes: int) -> np.ndarray:
        cpr = self.cores_per_request
        if np.isscalar(cpr):
            return np.full(n_nodes, float(cpr))
        arr = np.asarray(cpr, dtype=float)
        if arr.shape != (n_nodes,):
            raise ScenarioError(
                f"function {self.id}: cores_per_request vector has shape "
                f"{arr.shape}, expected ({n_nodes},)"
            )
        return arr


def validate_functions(functions: Sequence[FunctionSpec], n_nodes: int) -> list[str]:
    out: list[str] = []
    for idx, fn in enumerate(functions):
        if fn.id != idx:
            out.append(f"function ids must be dense 0..F-1, position {idx} holds id {fn.id}")
        if not np.isfinite(fn.memory) or fn.memory <= 0:
            out.append(f"non-positive memory requirement at function {idx}")
        try:
            vec = fn.cores_per_request_vec(n_nodes)
        except ScenarioError as exc:
            out.append(str(exc))
            continue
        if not np.all(np.isfinite(vec)) or np.any(vec <= 0):
            out.append(f"non-positive cores_per_request at function {idx}")
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

    criticality (optional, one int per function, higher = more critical)
    is only consumed by the criticality-aware baseline.
    """

    topology: Topology
    functions: tuple[FunctionSpec, ...]
    workload: np.ndarray  # (F, N) requests/s
    criticality: tuple[int, ...] | None = None
    name: str = "scenario"

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    def cores_per_request_matrix(self) -> np.ndarray:
        """(F, N) matrix of per-node request costs in core-units."""
        return np.stack([f.cores_per_request_vec(self.n_nodes) for f in self.functions])

    def function_memory(self) -> np.ndarray:
        return np.array([f.memory for f in self.functions], dtype=float)


def validate_scenario(scenario: Scenario) -> list[str]:
    out = validate_topology(scenario.topology)
    out += validate_functions(scenario.functions, scenario.n_nodes)
    out += validate_workload(scenario.workload, scenario.n_functions, scenario.n_nodes)
    if scenario.criticality is not None and len(scenario.criticality) != scenario.n_functions:
        out.append(
            f"criticality length {len(scenario.criticality)} does not match "
            f"function count {scenario.n_functions}"
        )
    return out


def scenario_to_dict(scenario: Scenario) -> dict:
    doc: dict = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "name": scenario.name,
        "nodes": [
            {"id": n.id, "cores": float(n.cores), "memory": float(n.memory)}
            for n in scenario.topology.nodes
        ],
        "delays": [[float(v) for v in row] for row in scenario.topology.delays],
        "functions": [],
        "workload": [[float(v) for v in row] for row in scenario.workload],
    }
    for fn in scenario.functions:
        entry: dict = {"id": fn.id, "memory": float(fn.memory)}
        if np.isscalar(fn.cores_per_request):
            entry["cores_per_request"] = float(fn.cores_per_request)
        else:
            entry["cores_per_request"] = [float(v) for v in np.asarray(fn.cores_per_request)]
        doc["functions"].append(entry)
    if scenario.criticality is not None:
        doc["criticality"] = [int(c) for c in scenario.criticality]
    return doc


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        version = doc.get("schema_version", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioError(f"unsupported scenario schema_version {version}")
        nodes = tuple(
            NodeSpec(id=int(n["id"]), cores=float(n["cores"]), memory=float(n["memory"]))
            for n in doc["nodes"]
        )
        delays = np.array(doc["delays"], dtype=float)
        if delays.ndim != 2:
            raise ScenarioError("delays must be a 2-d matrix")
        functions = []
        for f in doc["functions"]:
            cpr = f.get("cores_per_request", 1.0)
            if isinstance(cpr, list):
                cpr = np.array(cpr, dtype=float)
            else:
                cpr = float(cpr)
            functions.append(
                FunctionSpec(id=int(f["id"]), memory=float(f["memory"]), cores_per_request=cpr)
            )
        workload = np.array(doc["workload"], dtype=float)
        if workload.ndim != 2:
            raise ScenarioError("workload must be a 2-d matrix")
        crit = doc.get("criticality")
        criticality = tuple(int(c) for c in crit) if crit is not None else None
        scenario = Scenario(
            topology=Topology(nodes=nodes, delays=delays),
            functions=tuple(functions),
            workload=workload,
            criticality=criticality,
            name=str(doc.get("name", "scenario")),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from exc
    problems = validate_scenario(scenario)
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

