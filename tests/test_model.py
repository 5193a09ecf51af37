from __future__ import annotations

import numpy as np
import pytest

from edgeplace.model import (
    FunctionSpec,
    NodeSpec,
    Scenario,
    ScenarioError,
    Topology,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_topology,
    validate_workload,
)

from conftest import make_scenario


def test_validate_topology_accepts_good(tri_scenario):
    assert validate_topology(tri_scenario.topology) == []


def test_validate_topology_flags_asymmetry():
    delays = np.array([[0.0, 1.0], [2.0, 0.0]])
    topo = Topology(
        nodes=(NodeSpec(0, 10, 10), NodeSpec(1, 10, 10)), delays=delays
    )
    problems = validate_topology(topo)
    assert any("asymmetric at (0,1)" in p for p in problems)


def test_validate_topology_flags_diagonal_and_negative():
    delays = np.array([[1.0, -2.0], [-2.0, 0.0]])
    topo = Topology(
        nodes=(NodeSpec(0, 10, 10), NodeSpec(1, 10, 10)), delays=delays
    )
    problems = validate_topology(topo)
    assert any("nonzero diagonal at 0" in p for p in problems)
    assert any("negative delay" in p for p in problems)


def test_validate_topology_flags_bad_capacity():
    topo = Topology(nodes=(NodeSpec(0, 0.0, 10),), delays=np.zeros((1, 1)))
    assert any("cores" in p for p in validate_topology(topo))
    topo = Topology(nodes=(NodeSpec(0, 10, -5.0),), delays=np.zeros((1, 1)))
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
    assert loaded.functions == tuple(
        FunctionSpec(f.id, f.memory, f.cores_per_request) for f in tri_scenario.functions
    )
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
    np.testing.assert_array_equal(
        loaded.functions[0].cores_per_request_vec(2), np.array([0.1, 1.7])
    )


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


def test_scenario_rejects_dense_id_violation(tri_scenario):
    doc = scenario_to_dict(tri_scenario)
    doc["functions"][0]["id"] = 7
    with pytest.raises(ScenarioError, match="dense"):
        scenario_from_dict(doc)


def test_cores_per_request_vector_length_checked():
    fn = FunctionSpec(id=0, memory=1.0, cores_per_request=np.array([1.0, 2.0]))
    with pytest.raises(ScenarioError):
        fn.cores_per_request_vec(3)
