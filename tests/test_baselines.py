from __future__ import annotations

import re

import numpy as np
import pytest

from edgeplace import baselines
from edgeplace.baselines import (
    _joint_routing_lp,
    joint_objective_weights,
    solve_creua,
    solve_joint_milp,
    solve_vsvbp,
)
from edgeplace.env import cost_increment, t_max_bound
from edgeplace.routing import total_delay
from edgeplace.scenarios import build_preset, preset_workload_config, random_scenario
from edgeplace.verify import decision_to_dict, verify_decision
from edgeplace.workload import generate_workloads

from conftest import make_scenario
from oracles import exhaustive_joint_enumeration, joint_lp_reference


def _random_joint_scenario(rng: np.random.Generator):
    n = int(rng.integers(2, 4))
    f_cnt = int(rng.integers(1, 9 // n + 1))
    pts = rng.uniform(0, 10, size=(n, 2))
    delays = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    delays = (delays + delays.T) / 2
    np.fill_diagonal(delays, 0.0)
    workload = np.where(
        rng.random((f_cnt, n)) < 0.25, 0.0, rng.uniform(0.5, 12.0, (f_cnt, n))
    )
    cores = rng.uniform(4.0, 30.0, n)
    if rng.random() < 0.4:
        cores *= rng.uniform(0.1, 0.5)  # make capacity bind sometimes
    fn_memory = rng.uniform(1.0, 5.0, f_cnt)
    memory = rng.uniform(3.0, 12.0, n)
    cpr = [
        rng.uniform(0.2, 2.0, n) if rng.random() < 0.5 else float(rng.uniform(0.2, 2.0))
        for _ in range(f_cnt)
    ]
    return make_scenario(
        delays=delays,
        cores=cores,
        memory=memory,
        fn_memory=fn_memory,
        workload=workload,
        cores_per_request=cpr,
    )


def test_objective_weights_hand_value(tri_scenario):
    lam_t, lam_c = joint_objective_weights(tri_scenario, tri_scenario.workload, alpha=0.25)
    assert lam_t == pytest.approx(2 * 0.75 / t_max_bound(tri_scenario, tri_scenario.workload))
    assert lam_c == pytest.approx(2 * 0.25 / 90.0)


def test_milp_matches_enumeration_on_line_scenario(tri_scenario):
    alpha = 0.3
    lam_t, lam_c = joint_objective_weights(tri_scenario, tri_scenario.workload, alpha)
    sol = solve_joint_milp(tri_scenario, alpha=alpha, tie_exact=True)
    ref = exhaustive_joint_enumeration(tri_scenario, tri_scenario.workload, lam_t, lam_c)
    assert sol.optimal and sol.status == "optimal"
    assert sol.objective == pytest.approx(ref[0], rel=1e-7, abs=1e-10)
    np.testing.assert_array_equal(sol.placements, ref[1])
    # reported totals must reproduce the reported objective
    assert sol.objective == pytest.approx(
        lam_t * sol.total_delay + lam_c * sol.total_cost, rel=1e-9
    )
    for f, route in sol.routes.items():
        np.testing.assert_allclose(route.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(route >= -1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_milp_matches_enumeration_random(seed):
    rng = np.random.default_rng(1000 + seed)
    scenario = _random_joint_scenario(rng)
    alpha = float(rng.choice([0.0, 0.3, 0.7, 1.0]))
    lam_t, lam_c = joint_objective_weights(scenario, scenario.workload, alpha)
    sol = solve_joint_milp(scenario, alpha=alpha, tie_exact=True)
    ref = exhaustive_joint_enumeration(scenario, scenario.workload, lam_t, lam_c)
    if ref is None:
        assert sol.status == "infeasible" and not sol.feasible
        return
    assert sol.optimal
    assert sol.objective == pytest.approx(ref[0], rel=1e-7, abs=1e-10)
    np.testing.assert_array_equal(sol.placements, ref[1])


def test_milp_alpha_moves_placement_between_delay_and_cost():
    scenario = make_scenario(
        delays=[[0, 5], [5, 0]],
        cores=[20, 20],
        memory=[10, 10],
        fn_memory=[1],
        workload=[[10, 0]],
        cores_per_request=[[1.0, 0.1]],
    )
    fast = solve_joint_milp(scenario, alpha=0.0)
    np.testing.assert_array_equal(fast.placements, [[True, False]])
    assert fast.total_delay == pytest.approx(0.0)
    cheap = solve_joint_milp(scenario, alpha=1.0)
    np.testing.assert_array_equal(cheap.placements, [[False, True]])
    assert cheap.total_cost == pytest.approx(1.0)


@pytest.mark.parametrize(
    "workload", [[[10, 0]], [[10, 0], [0, 0]]], ids=["zero-rate-source", "zero-rate-function"]
)
def test_milp_keeps_no_replica_that_only_zero_traffic_reaches(workload):
    scenario = make_scenario(
        delays=[[0, 5], [5, 0]],
        cores=[20, 20],
        memory=[10, 10],
        fn_memory=[1] * len(workload),
        workload=workload,
        cores_per_request=[[1.0, 0.1]] * len(workload),
    )
    sol = solve_joint_milp(scenario, alpha=1.0, tie_exact=False)
    np.testing.assert_array_equal(sol.placements[0], [False, True])
    for f, route in sol.routes.items():  # one host per function, every source sent to it
        (host,) = np.flatnonzero(sol.placements[f])
        np.testing.assert_array_equal(route, np.eye(2)[[host, host]])
    doc = decision_to_dict("test", scenario.workload, sol.placements, sol.routes,
                           sol.total_delay, sol.total_cost, "joint-milp", 1.0, 0)
    assert verify_decision(scenario, doc) == []


def test_milp_tie_breaks_lexicographically():
    scenario = make_scenario(
        delays=[[0, 0], [0, 0]],  # every placement scores the same delay
        cores=[20, 20],
        memory=[10, 10],
        fn_memory=[1],
        workload=[[3, 3]],
    )
    sol = solve_joint_milp(scenario, alpha=0.0, tie_exact=True)
    # ascending lexicographic order reaches (0, 1) first among the ties
    np.testing.assert_array_equal(sol.placements, [[False, True]])


def test_milp_budget_is_deterministic_and_reported():
    # big enough that HiGHS cannot close the gap at the root node
    scenario = random_scenario(8, 12, np.random.default_rng(1))
    runs = [solve_joint_milp(scenario, alpha=0.0, node_budget=1) for _ in range(2)]
    assert runs[0].metadata["mip_nodes"] == runs[1].metadata["mip_nodes"] <= 1
    assert runs[0].status == runs[1].status == "feasible"
    assert not runs[0].optimal
    np.testing.assert_array_equal(runs[0].placements, runs[1].placements)
    full = solve_joint_milp(scenario, alpha=0.0)
    assert full.optimal and full.metadata["mip_nodes"] > 1
    assert full.objective <= runs[0].objective


@pytest.mark.parametrize("budget", [0, -5, 2**31, 2.5, True, "7"])
def test_milp_refuses_a_node_budget_outside_32_bits(tri_scenario, monkeypatch, budget):
    """HiGHS would stop at once on 0, drop the limit on -5, raise TypeError on 2**31 and
    2.5, and run True as a budget of 1."""
    def no_solve(*args, **kwargs):
        raise AssertionError("HiGHS ran")

    monkeypatch.setattr(baselines, "milp", no_solve)
    cause = f"node_budget is {budget!r}, not an integer in 1..2147483647"
    with pytest.raises(ValueError, match=re.escape(cause) + "$"):
        solve_joint_milp(tri_scenario, node_budget=budget)


def test_milp_takes_a_numpy_integer_budget(tri_scenario):
    runs = [solve_joint_milp(tri_scenario, node_budget=b) for b in (np.int64(50), 50)]
    assert runs[0].objective == runs[1].objective and runs[0].status == runs[1].status


def test_milp_detects_memory_infeasibility():
    scenario = make_scenario(
        delays=[[0, 1], [1, 0]],
        cores=[50, 50],
        memory=[2, 2],
        fn_memory=[5],  # fits nowhere
        workload=[[1, 1]],
    )
    sol = solve_joint_milp(scenario, alpha=0.0)
    assert sol.status == "infeasible" and not sol.feasible


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_milp_places_no_idle_replicas(alpha):
    scenario = build_preset("small-payload")
    config = preset_workload_config("small-payload", 1)
    (workload,) = generate_workloads(
        scenario.n_functions, scenario.n_nodes, config, np.random.default_rng(1)
    )
    sol = solve_joint_milp(scenario, workload, alpha=alpha)
    assert sol.optimal and not sol.metadata["tie_exact"]
    for f, route in sol.routes.items():
        assert np.all(route.sum(axis=0)[sol.placements[f]] > 0)
    doc = decision_to_dict("small-payload", workload, sol.placements, sol.routes,
                           sol.total_delay, sol.total_cost, "joint-milp", alpha, 0)
    assert verify_decision(scenario, doc) == []


def _check_valid_greedy(scenario, workload, sol):
    assert sol.feasible
    mem_use = sol.placements.astype(float).T @ scenario.function_memory
    assert np.all(mem_use <= scenario.topology.memory + 1e-9)
    cpr = scenario.cores_per_request
    core_use = np.zeros(scenario.n_nodes)
    for f, route in sol.routes.items():
        np.testing.assert_allclose(route.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(route >= -1e-12)
        # traffic only lands on hosting nodes
        off = route * workload[f][:, None] * ~sol.placements[f][None, :]
        assert np.abs(off).max() <= 1e-9
        core_use += route.T @ workload[f] * cpr[f]
    assert np.all(core_use <= scenario.topology.cores + 1e-6)
    doc = decision_to_dict(scenario.name, workload, sol.placements, sol.routes,
                           sol.total_delay, sol.total_cost, sol.metadata["method"], 0.0, 0)
    assert verify_decision(scenario, doc) == []  # includes the declared totals


@pytest.mark.parametrize("solver", [solve_vsvbp, solve_creua])
def test_greedy_solutions_verify_on_random_scenarios(solver):
    rng = np.random.default_rng(4242)
    feasible = 0
    for _ in range(100):
        scenario = _random_joint_scenario(rng)
        sol = solver(scenario)
        if sol.feasible:
            feasible += 1
            _check_valid_greedy(scenario, scenario.workload, sol)
        else:
            assert sol.metadata["violations"]
    assert feasible >= 40  # 50 and 44 of the 100 at this seed


def test_vsvbp_produces_valid_deployment(tri_scenario):
    sol = solve_vsvbp(tri_scenario)
    _check_valid_greedy(tri_scenario, tri_scenario.workload, sol)
    assert sol.metadata["method"] == "vsvbp"
    # plenty of headroom here: the packer should use a single node per function
    assert all(p.sum() == 1 for p in sol.placements)


def test_vsvbp_spills_to_second_node_when_needed():
    scenario = make_scenario(
        delays=[[0, 1], [1, 0]],
        cores=[10, 8],
        memory=[64, 64],
        fn_memory=[1],
        workload=[[9, 6]],  # 15 requests cannot fit on either node alone
    )
    sol = solve_vsvbp(scenario)
    _check_valid_greedy(scenario, scenario.workload, sol)
    assert sol.placements[0].sum() == 2


def test_creua_gives_scarce_local_capacity_to_critical_function():
    scenario = make_scenario(
        delays=[[0, 10], [10, 0]],
        cores=[4, 50],
        memory=[64, 64],
        fn_memory=[1, 1],
        workload=[[4, 0], [4, 0]],
        criticality=[0, 2],
    )
    sol = solve_creua(scenario)
    _check_valid_greedy(scenario, scenario.workload, sol)
    np.testing.assert_array_equal(sol.placements[1], [True, False])  # critical stays local
    np.testing.assert_array_equal(sol.placements[0], [False, True])
    assert sol.total_delay == pytest.approx(40.0)


def test_creua_places_zero_traffic_function(tri_scenario):
    workload = tri_scenario.workload.copy()
    workload[1] = 0.0
    sol = solve_creua(tri_scenario, workload)
    _check_valid_greedy(tri_scenario, workload, sol)
    assert sol.placements[1].sum() == 1
    np.testing.assert_allclose(sol.routes[1].sum(axis=1), 1.0)


def test_creua_breaks_ties_toward_the_lower_index():
    """Sources 0 and 1 send equal rates; source 0 is as near to node 1 as to node 2.

    Source 0 goes first and fills its own node, then node 1 before node 2:
    0.25 + 0.25 + 0.5. Source 1 then finds nodes 1 and 0 full and ships all
    to node 2, and the idle source 2 routes to the lowest host, node 0.
    Serving source 1 first, or node 2 before node 1, gives other routes.
    """
    scenario = make_scenario(
        delays=[[0, 1, 1], [1, 0, 2], [1, 2, 0]],
        cores=[0.25, 0.25, 2.0],
        memory=[64, 64, 64],
        fn_memory=[1],
        workload=[[1, 1, 0]],
    )
    sol = solve_creua(scenario)
    _check_valid_greedy(scenario, scenario.workload, sol)
    np.testing.assert_array_equal(sol.placements[0], [True, True, True])
    np.testing.assert_array_equal(sol.routes[0], [[0.25, 0.25, 0.5], [0, 0, 1], [1, 0, 0]])
    assert (sol.total_delay, sol.total_cost) == (2.75, 2.0)


@pytest.mark.parametrize("solver", [solve_vsvbp, solve_creua])
@pytest.mark.parametrize("cores, memory", [([8, 8], [64, 64]), ([50, 50], [3, 64])],
                         ids=["cores", "memory"])
def test_greedy_charges_earlier_functions(solver, cores, memory):
    # both functions prefer node 0; after the first is placed there, node 0
    # lacks the room for all of the second
    scenario = make_scenario(
        delays=[[0, 1], [1, 0]], cores=cores, memory=memory, fn_memory=[2, 2],
        workload=[[6, 0], [6, 0]],
    )
    sol = solver(scenario)
    _check_valid_greedy(scenario, scenario.workload, sol)
    np.testing.assert_array_equal(sol.placements[0], [True, False])
    assert sol.placements[1][1]


def test_greedy_reports_unplaceable_overload():
    scenario = make_scenario(
        delays=[[0, 1], [1, 0]],
        cores=[2, 2],
        memory=[64, 64],
        fn_memory=[1],
        workload=[[50, 50]],
    )
    for solver in (solve_vsvbp, solve_creua):
        sol = solver(scenario)
        assert not sol.feasible and sol.status == "infeasible"
        assert any("unplaceable" in v for v in sol.metadata["violations"])


def test_joint_lp_reference_agrees_with_fixed_placement_milp(tri_scenario):
    # pin both functions everywhere: MILP restricted by huge memory is not
    # available, so check the reference against the package's own LP instead
    lam_t, lam_c = joint_objective_weights(tri_scenario, tri_scenario.workload, 0.4)
    placements = np.ones((2, 3), dtype=bool)
    ref = joint_lp_reference(tri_scenario, tri_scenario.workload, placements, lam_t, lam_c)
    assert ref is not None
    obj, delay, cost = ref
    # local serving is optimal for the blended objective of this scenario
    assert delay == pytest.approx(0.0, abs=1e-9)
    assert cost == pytest.approx(30.0, rel=1e-9)
    assert obj == pytest.approx(lam_c * 30.0, rel=1e-9)


def test_joint_routing_lp_totals_sum_left_to_right():
    """Both totals are the per-function terms added left to right from 0.0 in
    function order. Python's sum() compensates float sums from 3.12 on, which
    here would change the last bits of both totals."""
    scenario = random_scenario(20, 30, np.random.default_rng(2))
    workload = scenario.workload
    lam_t, lam_c = joint_objective_weights(scenario, workload, 0.5)
    allowed = np.ones(workload.shape, dtype=bool)
    _, delay, cost, x = _joint_routing_lp(scenario, workload, allowed, lam_t, lam_c)
    want_delay = want_cost = 0.0
    for f in range(scenario.n_functions):
        want_delay += total_delay(x[f], workload[f], scenario.topology.delays)
        want_cost += cost_increment(x[f], workload[f], scenario.cores_per_request[f])
    assert (delay, cost) == (want_delay, want_cost)
