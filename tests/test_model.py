from __future__ import annotations

import re
import reprlib

import numpy as np
import pytest

from edgeplace.baselines import solve_creua, solve_vsvbp
from edgeplace.env import LockstepEnv, PlacementEnv
from edgeplace.model import (
    ScenarioError,
    Topology,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_topology,
    validate_workload,
)
from edgeplace.scenarios import build_preset

from conftest import make_scenario


def test_validate_topology_accepts_good(tri_scenario):
    assert validate_topology(tri_scenario.topology) == []


def test_validate_topology_flags_asymmetry():
    delays = np.array([[0.0, 1.0], [2.0, 0.0]])
    topo = Topology(cores=[10, 10], memory=[10, 10], delays=delays)
    problems = validate_topology(topo)
    assert any("asymmetric at (0,1)" in p for p in problems)


def test_validate_topology_flags_diagonal_and_negative():
    delays = np.array([[1.0, -2.0], [-2.0, 0.0]])
    topo = Topology(cores=[10, 10], memory=[10, 10], delays=delays)
    problems = validate_topology(topo)
    assert any("nonzero diagonal at 0" in p for p in problems)
    assert any("delays[0][1] is -2.0, not a number in [0, 1e+12]" in p for p in problems)


def test_validate_topology_flags_bad_capacity():
    topo = Topology(cores=[0.0], memory=[10], delays=np.zeros((1, 1)))
    assert any("cores" in p for p in validate_topology(topo))
    topo = Topology(cores=[10], memory=[-5.0], delays=np.zeros((1, 1)))
    assert any("memory" in p for p in validate_topology(topo))


def test_validate_workload_shape_and_sign():
    assert validate_workload(np.zeros((2, 3)), 2, 3) == []
    assert validate_workload(np.zeros((3, 2)), 2, 3)
    w = np.zeros((2, 3))
    w[1, 2] = -1.0
    assert any("negative workload" in p for p in validate_workload(w, 2, 3))


def test_scenario_round_trip_bit_exact(tmp_path, tri_scenario):
    path = tmp_path / "scenario.json"
    save_scenario(str(path), tri_scenario)
    loaded = load_scenario(str(path))
    assert loaded.name == tri_scenario.name
    np.testing.assert_array_equal(loaded.topology.delays, tri_scenario.topology.delays)
    np.testing.assert_array_equal(loaded.workload, tri_scenario.workload)
    np.testing.assert_array_equal(loaded.function_memory, tri_scenario.function_memory)
    np.testing.assert_array_equal(loaded.cores_per_request, tri_scenario.cores_per_request)
    # a second round trip must reproduce the file byte for byte
    path2 = tmp_path / "scenario2.json"
    save_scenario(str(path2), loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_scenario_round_trip_per_node_cores(tmp_path):
    sc = make_scenario(
        delays=[[0, 1], [1, 0]],
        cores=[10, 10],
        memory=[10, 10],
        fn_memory=[2],
        workload=[[1.5, 0.25]],
        cores_per_request=[[0.1, 1.7]],
    )
    path = tmp_path / "s.json"
    save_scenario(str(path), sc)
    loaded = load_scenario(str(path))
    np.testing.assert_array_equal(loaded.cores_per_request, [[0.1, 1.7]])


def test_load_scenario_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(path))
    path.write_text('{"nodes": []}')
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


def test_scenario_dict_rejects_invalid(tri_scenario):
    doc = scenario_to_dict(tri_scenario)
    doc["delays"][0][1] = -4.0
    with pytest.raises(ScenarioError, match="negative delay|asymmetric"):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "value", [7, 1.7, 1.0, "1", True], ids=["sparse", "float", "integral-float", "string", "bool"]
)
def test_scenario_rejects_dense_id_violation(tri_scenario, value):
    """Position 1 must hold the JSON integer 1; int() would make 1 of each value but 7."""
    for kind in ("nodes", "functions"):
        doc = scenario_to_dict(tri_scenario)
        doc[kind][1]["id"] = value
        with pytest.raises(ScenarioError, match=re.escape(f"{kind}[1].id is {value!r}")):
            scenario_from_dict(doc)


@pytest.mark.parametrize("value", [2.9, 2.0, "2", True], ids=["float", "integral-float", "string", "bool"])
def test_scenario_rejects_non_integer_criticality(tri_scenario, value):
    doc = scenario_to_dict(tri_scenario)
    doc["criticality"] = [value, 1]
    with pytest.raises(ScenarioError, match=re.escape(f"criticality[0] is {value!r}")):
        scenario_from_dict(doc)
    doc["criticality"] = [2, 1]
    assert scenario_from_dict(doc).criticality == (2, 1)


@pytest.mark.parametrize("value", ["2", True, 10**400], ids=["string", "bool", "huge-int"])
@pytest.mark.parametrize(
    "field", ["node-cores", "function-memory", "workload-entry", "delay-entry"]
)
def test_scenario_rejects_values_that_are_not_json_numbers(tri_scenario, field, value):
    """float() and np.array(dtype=float) would read "2" as 2.0 and true as 1.0,
    and raise OverflowError on 10**400."""
    doc = scenario_to_dict(tri_scenario)
    if field == "node-cores":
        doc["nodes"][1]["cores"], name = value, "nodes[1].cores"
    elif field == "function-memory":
        doc["functions"][1]["memory"], name = value, "functions[1].memory"
    elif field == "workload-entry":
        doc["workload"][1][2], name = value, "workload[1][2]"
    else:
        doc["delays"][0][1] = doc["delays"][1][0] = value
        name = "delays[0][1]"
    cause = f"{name} is {reprlib.repr(value)}, not a number"
    with pytest.raises(ScenarioError, match=re.escape(cause)):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "entry, expected",
    [
        ({"cores_per_request": 0.5}, np.full(3, 0.5)),
        ({}, np.full(3, 1.0)),
        ({"cores_per_request": [0.2, 1.0, 3.5]}, np.array([0.2, 1.0, 3.5])),
        ({"cores_per_request": [0.2, 1.0]}, None),
    ],
    ids=["scalar", "missing", "per-node", "wrong-length"],
)
def test_scenario_from_dict_cores_per_request_forms(tri_scenario, entry, expected):
    doc = scenario_to_dict(tri_scenario)
    del doc["functions"][1]["cores_per_request"]
    doc["functions"][1].update(entry)
    if expected is None:
        with pytest.raises(ScenarioError, match="function 1"):
            scenario_from_dict(doc)
        return
    cpr = scenario_from_dict(doc).cores_per_request
    np.testing.assert_array_equal(cpr[1], expected)
    np.testing.assert_array_equal(cpr[0], tri_scenario.cores_per_request[0])


def _arrays(scenario):
    topology = scenario.topology
    return (topology.cores, topology.memory, topology.delays,
            scenario.function_memory, scenario.cores_per_request)


def test_scenario_arrays_are_read_only_copies(tri_scenario):
    for arr in _arrays(tri_scenario):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    cores = np.array([1.0, 2.0])
    topology = Topology(cores=cores, memory=[1.0, 1.0], delays=np.zeros((2, 2)))
    cores[0] = 9.0
    assert topology.cores[0] == 1.0


def test_decision_makers_leave_scenario_arrays_unchanged():
    scenario = build_preset("large-payload")
    before = [arr.tobytes() for arr in _arrays(scenario)]
    rng = np.random.default_rng(5)
    env = PlacementEnv(scenario, alpha=0.5)
    env.reset()
    while env.queue:
        env.step(rng.random(scenario.n_nodes) < 0.6)
    lockstep = LockstepEnv(scenario)
    lockstep.reset([scenario.workload] * 4)
    for _ in range(scenario.n_functions):
        lockstep.step(rng.random((4, scenario.n_nodes)) < 0.6)
    assert solve_vsvbp(scenario).feasible and solve_creua(scenario).feasible
    assert [arr.tobytes() for arr in _arrays(scenario)] == before
