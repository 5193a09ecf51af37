from __future__ import annotations

import copy

import numpy as np
import pytest

from edgeplace.baselines import solve_joint_milp, solve_vsvbp
from edgeplace.util import canonical_json
from edgeplace.verify import (
    DecisionFormatError,
    check_decision,
    decision_to_dict,
    load_decision,
    save_decision,
    verify_decision,
    verify_file,
)

from conftest import make_scenario


@pytest.fixture
def good_doc(tri_scenario):
    sol = solve_joint_milp(tri_scenario, alpha=0.2)
    assert sol.feasible
    return decision_to_dict(
        scenario_name=tri_scenario.name,
        workload=tri_scenario.workload,
        placements=sol.placements,
        routes=sol.routes,
        total_delay=sol.total_delay,
        total_cost=sol.total_cost,
        candidate="milp",
        alpha=0.2,
        snapshot=0,
    )


def test_solver_output_verifies_clean(tri_scenario, good_doc):
    assert verify_decision(tri_scenario, good_doc) == []


def test_greedy_output_verifies_clean(tri_scenario):
    sol = solve_vsvbp(tri_scenario)
    doc = decision_to_dict(
        tri_scenario.name, tri_scenario.workload, sol.placements, sol.routes,
        sol.total_delay, sol.total_cost, "vsvbp", 0.0, 3,
    )
    assert verify_decision(tri_scenario, doc) == []


@pytest.mark.parametrize("as_type", [
    lambda p: p,  # bool
    lambda p: p.astype(float),
    lambda p: 1.5 * p - 0.25,  # fractional: int() and astype(int) both truncate
], ids=["bool", "float", "fractional"])
def test_decision_to_dict_matches_per_element_construction(tri_scenario, as_type):
    sol = solve_vsvbp(tri_scenario)
    placements = as_type(sol.placements)
    doc = decision_to_dict(
        tri_scenario.name, tri_scenario.workload, placements, sol.routes,
        sol.total_delay, sol.total_cost, "vsvbp", 0.0, 3,
    )
    per_element = dict(
        doc,
        workload=[[float(v) for v in row] for row in tri_scenario.workload],
        placements=[[int(v) for v in row] for row in placements],
        routes=[[[float(v) for v in row] for row in sol.routes[f]]
                for f in range(tri_scenario.n_functions)],
    )
    assert canonical_json(doc) == canonical_json(per_element)  # also tells 1 from 1.0


def test_round_trip_via_file(tri_scenario, good_doc, tmp_path):
    path = tmp_path / "decision.json"
    save_decision(str(path), good_doc)
    assert load_decision(str(path)) == good_doc
    assert verify_file(tri_scenario, str(path)) == []


def _corrupt(doc, mutate):
    bad = copy.deepcopy(doc)
    mutate(bad)
    return bad


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d["placements"][0].__setitem__(slice(None), [0, 0, 0]), "empty-placement"),
        (lambda d: d["routes"][0][0].__setitem__(0, d["routes"][0][0][0] - 0.5), "route-sum"),
        (lambda d: d.update(total_delay=d["total_delay"] + 1.0), "delay-mismatch"),
        (lambda d: d.update(total_cost=d["total_cost"] * 2 + 1.0), "cost-mismatch"),
        (lambda d: d.update(schema_version=42), "schema_version"),
        (lambda d: d["placements"][0].__setitem__(1, 0.5), "placements must be 0/1"),
        # json.load reads a NaN literal, and NaN passes every ">" test
        (lambda d: d.update(total_delay=float("nan")), "delay-mismatch: declared nan"),
        (lambda d: d.update(total_cost=float("nan")), "cost-mismatch: declared nan"),
        (lambda d: d.update(workload=[[float("nan")] * len(r) for r in d["workload"]]),
         "non-finite workload"),
        (lambda d: d["workload"][1].__setitem__(2, -1.0), "negative workload"),
    ],
)
def test_corruptions_are_caught(tri_scenario, good_doc, mutate, needle):
    violations = verify_decision(tri_scenario, _corrupt(good_doc, mutate))
    assert any(needle in v for v in violations), violations


def test_negative_route_caught(tri_scenario, good_doc):
    bad = copy.deepcopy(good_doc)
    bad["routes"][0][0] = [-0.5, 1.5, 0.0]  # row still sums to 1
    violations = verify_decision(tri_scenario, bad)
    assert any("negative-route" in v for v in violations)


def test_route_outside_placement_caught(tri_scenario, good_doc):
    bad = copy.deepcopy(good_doc)
    f = next(
        i for i, row in enumerate(bad["placements"]) if any(v == 0 for v in row)
    )
    j = bad["placements"][f].index(0)
    src = 0
    old = bad["routes"][f][src]
    keep = [k for k in range(3) if old[k] > 0][0]
    moved = min(0.5, old[keep])
    old[keep] -= moved
    old[j] += moved
    # totals now disagree too, but the placement violation must be flagged
    violations = verify_decision(tri_scenario, bad)
    assert any("route-outside-placement" in v for v in violations)


def test_core_capacity_caught(tri_scenario):
    # declare a "deployment" that shoves 100x the real traffic through node 0
    workload = tri_scenario.workload * 100
    placements = np.array([[1, 0, 0], [1, 0, 0]], dtype=float)
    routes = {f: np.tile([1.0, 0.0, 0.0], (3, 1)) for f in range(2)}
    delay = float(
        sum((workload[f] * tri_scenario.topology.delays[:, 0]).sum() for f in range(2))
    )
    doc = decision_to_dict(
        tri_scenario.name, workload, placements, routes, delay, workload.sum(), "x", 0.0, 0
    )
    violations = verify_decision(tri_scenario, doc)
    assert any("core-capacity" in v for v in violations)


def test_memory_capacity_caught(tri_scenario):
    # node 1 has 32 GB; both functions claim it while a doctored scenario
    # copy shrinks its memory to force the overdraft
    import dataclasses

    memory = tri_scenario.topology.memory.copy()
    memory[1] = 10.0
    small = dataclasses.replace(
        tri_scenario, topology=dataclasses.replace(tri_scenario.topology, memory=memory)
    )
    placements = np.array([[0, 1, 0], [0, 1, 0]], dtype=float)
    routes = {f: np.tile([0.0, 1.0, 0.0], (3, 1)) for f in range(2)}
    delay = float(
        sum(
            (small.workload[f] * small.topology.delays[:, 1]).sum()
            for f in range(2)
        )
    )
    doc = decision_to_dict(
        small.name, small.workload, placements, routes, delay, small.workload.sum(), "x", 0.0, 0
    )
    violations = verify_decision(small, doc)
    assert any("memory-capacity" in v for v in violations)


def test_shape_mismatch_rejected(tri_scenario, good_doc):
    bad = copy.deepcopy(good_doc)
    bad["routes"] = [row[:2] for row in bad["routes"]]
    violations = verify_decision(tri_scenario, bad)
    assert violations and "routes shape" in violations[0]


def test_unreadable_file_reported(tri_scenario, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(DecisionFormatError):
        load_decision(str(path))
    violations = verify_file(tri_scenario, str(path))
    assert violations and "cannot read" in violations[0]



def _boundary_decision(rate=10.0, cores=20.0, fn_memory=8.0, spare_row=1.0, delay_scale=1.0,
                       cost_scale=1.0):
    """Violations of one function hosted on node 1 of two: node 0's rate travels 2 ms at
    one core-unit per request, and node 1 (no traffic) keeps its own, through a row that
    ships spare_row of it. The declared totals are the true ones times the scales."""
    scenario = make_scenario(delays=[[0, 2], [2, 0]], cores=[50, cores], memory=[64, 64],
                             fn_memory=[fn_memory], workload=[[rate, 0.0]])
    routes = np.array([[[0.0, 1.0], [0.0, spare_row]]])
    return check_decision(scenario, scenario.workload, np.array([[0.0, 1.0]]), routes,
                          2.0 * rate * delay_scale, rate * cost_scale)


# each check at 10 times its tolerance, which fails, and at a tenth of it, which passes;
# a capacity's tolerance is 1e-9 of it plus 1e-9, a total's 1e-9 of it
@pytest.mark.parametrize(
    "field, past, within, needle",
    [
        ("rate", 20.0 + 10 * 21e-9, 20.0 + 0.1 * 21e-9, "core-capacity"),
        ("fn_memory", 64.0 + 10 * 65e-9, 64.0 + 0.1 * 65e-9, "memory-capacity"),
        ("spare_row", 1.0 + 10 * 1e-9, 1.0 + 0.1 * 1e-9, "route-sum"),
        ("delay_scale", 1.0 + 10 * 1e-9, 1.0 + 0.1 * 1e-9, "delay-mismatch"),
        ("cost_scale", 1.0 + 10 * 1e-9, 1.0 + 0.1 * 1e-9, "cost-mismatch"),
    ],
    ids=["node-cores", "node-memory", "route-row-sum", "declared-delay", "declared-cost"],
)
def test_check_decision_tolerance_boundaries(field, past, within, needle):
    assert _boundary_decision() == []
    problems = _boundary_decision(**{field: past})
    assert len(problems) == 1 and problems[0].startswith(needle), problems
    assert _boundary_decision(**{field: within}) == []
