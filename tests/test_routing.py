from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeplace import env, routing
from edgeplace.bench import ExperimentPlan, evaluate_candidates, train_agent
from edgeplace.ppo import PPOConfig
from edgeplace.routing import (
    _EPS_FEAS,
    _FAST_MARGIN,
    RoutingProblem,
    _over_capacity,
    _total,
    _transport,
    chosen_nodes,
    route_batch,
    route_flows,
    solve_routing,
    total_delay,
    unit_rows,
)
from edgeplace.scenarios import PRESETS, build_preset, preset_workload_config, random_scenario
from edgeplace.workload import WorkloadGenConfig

from conftest import count_highs_fallbacks, random_routing_case
from oracles import (
    _row_flows,
    brute_force_routing,
    capacities_reference,
    solve_routing_reference,
    transport_simplex_reference,
)


def _problem(delays, w, placement, cores, cpr) -> RoutingProblem:
    return RoutingProblem(
        delays=np.asarray(delays, dtype=float),
        workload_row=np.asarray(w, dtype=float),
        placement=np.asarray(placement, dtype=bool),
        available_cores=np.asarray(cores, dtype=float),
        cores_per_request=np.asarray(cpr, dtype=float),
    )


def test_chosen_nodes():
    assert chosen_nodes(np.array([True, False, True])) == [0, 2]
    assert chosen_nodes(np.zeros(3, dtype=bool)) == []


def test_known_split():
    # 10 req/s at node 0, hosts {1, 2} with capacity for 6 and 20;
    # cheapest fills node 1 first: x = (0.6, 0.4), delay 6*2 + 4*5 = 32
    p = _problem(
        [[0, 2, 5], [2, 0, 3], [5, 3, 0]],
        [10, 0, 0],
        [False, True, True],
        [50, 6, 20],
        [1, 1, 1],
    )
    sol = solve_routing(p)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.routing[0], [0.0, 0.6, 0.4])
    assert sol.objective_delay == pytest.approx(32.0)
    # zero-workload sources route to the lowest-index host
    np.testing.assert_allclose(sol.routing[1], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(sol.routing[2], [0.0, 1.0, 0.0])


def test_local_serving_when_capacity_allows():
    p = _problem(
        [[0, 4], [4, 0]], [5, 3], [True, True], [100, 100], [1, 1]
    )
    sol = solve_routing(p)
    np.testing.assert_allclose(sol.routing, np.eye(2))
    assert sol.objective_delay == pytest.approx(0.0)


def test_empty_placement_infeasible():
    p = _problem([[0, 1], [1, 0]], [1, 1], [False, False], [10, 10], [1, 1])
    assert solve_routing(p).status == "infeasible"
    assert brute_force_routing(p).status == "infeasible"


def test_demand_exceeding_capacity_infeasible():
    p = _problem([[0, 1], [1, 0]], [10, 10], [True, False], [5, 100], [1, 1])
    assert solve_routing(p).status == "infeasible"
    assert brute_force_routing(p).status == "infeasible"


def test_heterogeneous_cores_per_request():
    # node 1 serves each request at 4 core-units; only 2 req/s fit there
    p = _problem([[0, 1], [1, 0]], [10, 0], [True, True], [8, 8], [1, 4])
    sol = solve_routing(p)
    assert sol.status == "optimal"
    served_at_1 = sol.routing[0, 1] * 10
    assert served_at_1 * 4 <= 8 + 1e-9
    assert sol.routing[0, 0] * 10 <= 8 + 1e-9


def test_tie_prefers_lower_destination_index():
    # both hosts equidistant and roomy: all traffic goes to the lower index
    p = _problem(
        [[0, 3, 3], [3, 0, 1], [3, 1, 0]],
        [6, 0, 0],
        [False, True, True],
        [50, 50, 50],
        [1, 1, 1],
    )
    sol = solve_routing(p)
    np.testing.assert_allclose(sol.routing[0], [0.0, 1.0, 0.0])


def test_total_delay_formula():
    routing = np.array([[0.25, 0.75], [0.0, 1.0]])
    w = np.array([8.0, 2.0])
    delays = np.array([[0.0, 4.0], [4.0, 0.0]])
    assert total_delay(routing, w, delays) == pytest.approx(8 * 0.75 * 4)


def test_matches_oracle_randomized():
    rng = np.random.default_rng(20240817)
    agree = 0
    for _ in range(300):
        case = random_routing_case(rng)
        p = _problem(*[case[0], case[1], case[2], case[3], case[4]])
        fast = solve_routing(p)
        slow = brute_force_routing(p)
        assert fast.status == slow.status
        if fast.status == "optimal":
            scale = max(1.0, abs(slow.objective_delay))
            assert abs(fast.objective_delay - slow.objective_delay) <= 1e-6 * scale
            _assert_solution_feasible(p, fast.routing)
            agree += 1
    assert agree > 100  # mix must contain plenty of feasible cases


def _contested_hub_problem(rng: np.random.Generator) -> RoutingProblem:
    """Sources compete for one cheap host that cannot take them all.

    The source nearest to that hub loses the least by going elsewhere, but
    the min-cost greedy start serves it at the hub first, so the start fails
    the certificate and the optimum comes from HiGHS.
    """
    n = int(rng.integers(3, 5))
    hosts = rng.choice(n, size=int(rng.integers(2, 4)), replace=False)
    hub, others = hosts[0], hosts[1:]
    w = np.where(rng.random(n) < 0.15, 0.0, rng.uniform(1.0, 10.0, n))
    near = rng.uniform(0.0, 2.0, n)  # each source's delay to the hub
    regret = rng.uniform(1.0, 10.0, n)  # extra delay of any other host
    regret[np.argmin(near)] = rng.uniform(0.0, 1.0)
    delays = (near + regret)[:, None] + rng.uniform(0.0, 2.0, (n, n))
    delays[:, hub] = near
    placement = np.zeros(n, dtype=bool)
    placement[hosts] = True
    cpr = rng.uniform(0.5, 2.0, n)
    caps = np.zeros(n)
    caps[hub] = w.sum() * rng.uniform(0.2, 0.8)
    caps[others] = w.sum() * rng.uniform(0.9, 1.2) * rng.dirichlet(np.ones(len(others)))
    return _problem(delays, w, placement, caps * cpr, cpr)


def test_contested_hub_falls_back_and_matches_oracle(monkeypatch):
    fallbacks = count_highs_fallbacks(monkeypatch)
    rng = np.random.default_rng(20261018)
    fell_back = 0
    for _ in range(200):
        p = _contested_hub_problem(rng)
        before = len(fallbacks)
        fast = solve_routing(p)
        slow = brute_force_routing(p)
        assert fast.status == slow.status == "optimal"
        assert fast.objective_delay == pytest.approx(slow.objective_delay, rel=1e-9, abs=1e-9)
        _assert_solution_feasible(p, fast.routing)
        fell_back += len(fallbacks) > before
    assert fell_back >= 150  # the greedy start is rarely optimal here


def _assert_solution_feasible(p: RoutingProblem, x: np.ndarray, tol: float = 1e-9):
    np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=tol)
    assert np.all(x >= -tol)
    hosts = np.asarray(p.placement, dtype=bool)
    assert np.all(np.abs(x[:, ~hosts]) <= 1e-12)
    draw = (x * p.workload_row[:, None]).sum(axis=0) * p.cores_per_request
    assert np.all(draw <= np.maximum(p.available_cores, 0.0) * (1 + tol) + tol)


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(min_value=0.01, max_value=100.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_objective_scales_linearly_with_delays(scale, seed):
    rng = np.random.default_rng(seed)
    delays, w, placement, cores, cpr = random_routing_case(rng)
    base = solve_routing(_problem(delays, w, placement, cores, cpr))
    scaled = solve_routing(_problem(delays * scale, w, placement, cores, cpr))
    assert base.status == scaled.status
    if base.status == "optimal":
        assert scaled.objective_delay == pytest.approx(
            base.objective_delay * scale, rel=1e-9, abs=1e-9
        )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_solution_always_feasible_when_optimal(seed):
    rng = np.random.default_rng(seed)
    delays, w, placement, cores, cpr = random_routing_case(rng)
    p = _problem(delays, w, placement, cores, cpr)
    sol = solve_routing(p)
    if sol.status == "optimal":
        _assert_solution_feasible(p, sol.routing)


def test_superset_placement_never_hurts():
    rng = np.random.default_rng(7)
    for _ in range(50):
        delays, w, placement, cores, cpr = random_routing_case(rng)
        sol = solve_routing(_problem(delays, w, placement, cores, cpr))
        wider = placement.copy()
        wider[:] = True
        sol_wide = solve_routing(_problem(delays, w, wider, cores, cpr))
        if sol.status == "optimal":
            assert sol_wide.status == "optimal"
            assert sol_wide.objective_delay <= sol.objective_delay + 1e-9


def _simplex_reference(p: RoutingProblem) -> tuple[np.ndarray, float]:
    """A feasible instance routed by the numpy reference simplex alone, expanded row by row."""
    chosen = chosen_nodes(p.placement)
    w = p.workload_row
    sources = [int(i) for i in np.flatnonzero(w > 0)]
    caps = capacities_reference(p, chosen)
    x = np.zeros(p.delays.shape)
    if sources:
        cost = p.delays[np.ix_(sources, chosen)]
        cost = np.vstack([cost, np.full(len(chosen), cost.max() + 1.0)])
        spare = max(float(caps.sum()) - float(w[sources].sum()), 0.0)
        y = transport_simplex_reference(cost, np.append(w[sources], spare), caps)
        for si, i in enumerate(sources):
            row = y[si] / w[i]
            x[i, chosen] = row / row.sum()
    for i in np.flatnonzero(w <= 0):
        x[i, chosen[0]] = 1.0
    return x, total_delay(x, w, p.delays)


@st.composite
def _tie_heavy_problem(draw) -> RoutingProblem:
    """Integer delays with repeats; nearest-host loads at, or within 1e-12 of, capacity."""
    n = draw(st.integers(2, 6))
    ints = st.integers(0, 3)
    delays = np.array(draw(st.lists(ints, min_size=n * n, max_size=n * n)), float).reshape(n, n)
    w = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.7]), min_size=n,
                                max_size=n)))
    placement = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    placement[draw(st.integers(0, n - 1))] = True
    cpr = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 3.0]), min_size=n, max_size=n)))
    hosts = np.flatnonzero(placement)
    nearest = hosts[np.argmin(delays[:, hosts], axis=1)]
    load = np.bincount(nearest, weights=w, minlength=n)
    slack = st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-13, 0.5, 2.0])
    factor = np.array(draw(st.lists(slack, min_size=n, max_size=n)))
    spare = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 4.0]), min_size=n, max_size=n)))
    cores = np.where(load > 0, load * cpr * factor, spare)
    return _problem(delays, w, placement, cores, cpr)


def test_nearest_host_fast_path_matches_simplex(monkeypatch):
    """solve_routing returns the reference simplex's routing bit for bit, fast
    path or certified greedy start; a problem that falls back to HiGHS, whose
    flows may differ on ties, matches its delay."""
    fallbacks = count_highs_fallbacks(monkeypatch)

    @settings(max_examples=300, deadline=None)
    @given(p=_tie_heavy_problem())
    def check(p):
        before = len(fallbacks)
        sol = solve_routing(p)
        if sol.status == "infeasible":
            return
        x, objective = _simplex_reference(p)
        if len(fallbacks) == before:
            assert np.array_equal(sol.routing, x)
            assert sol.objective_delay == objective
        else:
            _assert_solution_feasible(p, sol.routing)
            assert sol.objective_delay == pytest.approx(objective, rel=1e-9, abs=1e-9)

    check()


def _load_equals_capacity() -> RoutingProblem:
    # nearest hosts: source 0 fills node 0 exactly, source 2 fits on node 1
    return _problem([[0, 1, 2], [1, 0, 2], [2, 1, 0]], [4, 0, 2], [True, True, False],
                    [4, 10, 0], [1, 1, 1])


def test_load_equal_to_capacity_leaves_the_fast_path(monkeypatch):
    calls = []

    def counting(*args, **memos):
        calls.append(args)
        return _transport(*args, **memos)

    monkeypatch.setattr(routing, "_transport", counting)
    p = _load_equals_capacity()
    sol = solve_routing(p)
    assert len(calls) == 1
    # the core gets plain lists of floats: the dummy row and spare supply appended
    assert calls[0] == ([[0.0, 1.0], [2.0, 1.0], [3.0, 3.0]], [4.0, 2.0, 8.0], [4.0, 10.0])
    assert all(type(x) is float for arg in calls[0] for x in np.ravel(arg).tolist())
    x, objective = _simplex_reference(p)
    assert np.array_equal(sol.routing, x)
    assert sol.objective_delay == objective
    np.testing.assert_array_equal(sol.routing, [[1, 0, 0], [1, 0, 0], [0, 1, 0]])


@st.composite
def _fast_margin_problem(draw) -> tuple[RoutingProblem, bool]:
    """A problem whose nearest-host loads sit at the fast path's margin.

    Up to 12 nodes, so numpy sums some routing rows pairwise. Delays are
    small integers (tied nearest hosts) or random floats, and rates include
    zero. Each loaded host gets the smallest capacity with
    load <= capacity * _FAST_MARGIN, one ulp less or more than that, twice
    its load, or negative residual cores; an idle host gets -1, -0.0, 0 or 4
    cores. Returns the problem and whether some host's load equals its
    capacity * _FAST_MARGIN exactly.
    """
    n = draw(st.integers(1, 12))
    cell = st.integers(0, 3).map(float) if draw(st.booleans()) else st.floats(0.0, 10.0)
    delays = np.array([[draw(cell) for _ in range(n)] for _ in range(n)])
    rate = st.one_of(st.sampled_from([0.0, 0.7, 1.0, 3.0]), st.floats(1e-3, 50.0))
    w = np.array([draw(rate) for _ in range(n)])
    placement = np.array([draw(st.booleans()) for _ in range(n)])
    placement[draw(st.integers(0, n - 1))] = True
    cpr = np.array([draw(st.sampled_from([0.5, 1.0, 3.0])) for _ in range(n)])
    cores = np.array([draw(st.sampled_from([-1.0, -0.0, 0.0, 4.0])) for _ in range(n)])
    chosen = np.flatnonzero(placement)
    nearest = chosen[np.argmin(delays[w > 0][:, chosen], axis=1)]
    load = np.bincount(nearest, weights=w[w > 0], minlength=n)
    exact = False
    for j in np.flatnonzero(load > 0):
        place = draw(st.sampled_from(["at", "below", "above", "roomy", "negative"]))
        if place == "roomy":
            cores[j] = 2.0 * load[j] * cpr[j]
        elif place == "negative":
            cores[j] = -load[j]
        else:
            cpr[j] = 1.0  # the capacity is the cores, so each ulp step lands exactly
            cap = load[j] / _FAST_MARGIN
            while cap * _FAST_MARGIN < load[j]:
                cap = np.nextafter(cap, np.inf)
            while np.nextafter(cap, 0.0) * _FAST_MARGIN >= load[j]:
                cap = np.nextafter(cap, 0.0)
            exact |= place == "at" and cap * _FAST_MARGIN == load[j]
            cores[j] = {"at": cap, "below": np.nextafter(cap, 0.0),
                        "above": np.nextafter(cap, np.inf)}[place]
    return _problem(delays, w, placement, cores, cpr), exact


def _pairwise_row_problem() -> RoutingProblem:
    """Eight nodes; node 0 sends 10 to hosts 0, 2 and 3, which take 1, 2 and 7.

    Its routing row 0.1, 0, 0.2, 0.7, 0, ... sums to 0.9999999999999999 in
    numpy's pairwise order, 0.1 + (0.2 + 0.7), and to 1.0 left to right.
    """
    delays = np.full((8, 8), 9.0)
    np.fill_diagonal(delays, 0.0)
    delays[0, 2:4] = [1.0, 2.0]
    return _problem(delays, [10.0] + [0.0] * 7, [True, False, True, True] + [False] * 4,
                    [1.0, 0.0, 2.0, 7.0] + [0.0] * 4, np.ones(8))


def test_nearest_host_test_matches_numpy_reference():
    """solve_routing's nearest-host test on Python floats decides as the numpy
    argmin/bincount test did, and the routing bytes and objective bits that
    follow are the reference's, on both sides of the margin. The rows are
    rescaled by numpy's sums, pairwise from 8 entries on."""
    outcomes, exact_hits = set(), []

    @settings(max_examples=400, deadline=None)
    @given(instance=_fast_margin_problem())
    @example(instance=(_pairwise_row_problem(), False))
    def check(instance):
        p, exact = instance
        expected, fits = solve_routing_reference(p)
        sol = solve_routing(p)
        assert sol.status == expected.status
        if sol.feasible:
            assert sol.routing.tobytes() == expected.routing.tobytes()
            assert np.float64(sol.objective_delay).tobytes() == \
                np.float64(expected.objective_delay).tobytes()
        outcomes.add((fits, sol.status))
        exact_hits.append(exact)

    check()
    assert outcomes == {(True, "optimal"), (False, "optimal"), (False, "infeasible")}
    assert any(exact_hits)  # some load sits exactly on capacity * _FAST_MARGIN


@pytest.mark.parametrize(
    "rate, cap", [(6e-10, 4.0), (0.5, 4.5)], ids=["stranded-within-eps-feas", "every-source-ships"]
)
def test_slow_path_routing_is_unit_rows_of_route_flows(rate, cap):
    """_route's slow path builds unit_rows of route_flows' flows, byte for byte.

    Node 2 sends nothing and gets the lowest-index host, as on the fast
    path. Hosts 0 and 2 fill up with sources 0 and 3; with rate 6e-10,
    source 1's supply is above what is left by less than _EPS_FEAS, so it
    is routable but ships nothing, and its row stays zero, not NaN.
    """
    delays = np.array([[0.0, 5.0, 3.0, 3.0],
                       [5.0, 0.0, 5.0, 5.0],
                       [3.0, 5.0, 0.0, 1.0],
                       [3.0, 5.0, 1.0, 0.0]])
    w = np.array([4.0, rate, 0.0, 2.0])
    placement = np.array([True, False, True, False])
    sol = solve_routing(_problem(delays, w, placement, [cap, 9.0, 2.0, 9.0], np.ones(4)))
    sources, hosts = [0, 1, 3], [0, 2]
    flows = np.zeros((4, 4))
    flows[np.ix_(sources, hosts)] = route_flows(
        delays[np.ix_(sources, hosts)].tolist(), w[sources].tolist(), [cap, 2.0]
    )
    expected = unit_rows(flows, w)
    expected[2, 0] = 1.0
    assert sol.feasible
    assert sol.routing.tobytes() == expected.tobytes()
    assert (sol.routing[1].sum() == 0.0) == (rate < 1e-9)


@pytest.mark.parametrize("caps_total", [0.0, 0.5, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, 3.0, 1e6, np.nan])
def test_over_capacity_gives_one_verdict_on_floats_and_arrays(caps_total):
    """route_flows tests Python floats and _route_rounds arrays; the verdicts agree."""
    edge = caps_total + _EPS_FEAS * max(1.0, caps_total)
    supplies = [caps_total * (1.0 - 1e-9), caps_total * (1.0 + 1e-9), caps_total, edge,
                np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf), 1.0, np.nextafter(1.0, 2.0)]
    for supply_total in map(float, supplies):
        verdict = _over_capacity(supply_total, float(caps_total))
        assert type(verdict) is bool
        assert verdict == _over_capacity(np.array([supply_total]), np.array([caps_total]))[0]
    assert _over_capacity(float(np.nextafter(edge, np.inf)), float(caps_total)) == (caps_total >= 0.0)


def test_simplex_failure_reports_instance(monkeypatch):
    """A HiGHS fallback that ends without an optimum raises with the balanced instance."""
    def iteration_limit(*args, **kwargs):
        return SimpleNamespace(status=1, message="Iteration limit reached.")

    monkeypatch.setattr(routing, "linprog", iteration_limit)
    # both sources want host 0; the greedy start gives it to source 0, which loses
    # 1 by moving, where source 1 loses 9.5, so the certificate refuses the start
    p = _problem([[0.0, 1.0], [0.5, 10.0]], [4, 4], [True, True], [4, 4], [1, 1])
    # through the single-problem router, and through route_batch as LockstepEnv calls it
    for solve in (lambda: solve_routing(p),
                  lambda: route_batch(p.delays, p.workload_row[None], p.placement[None],
                                      (p.available_cores * p.placement)[None])):
        with pytest.raises(RuntimeError) as err:
            solve()
        msg = str(err.value)
        assert "HiGHS status 1 (Iteration limit reached.)" in msg
        assert "cost=[[0.0, 1.0], [0.5, 10.0], [11.0, 11.0]]" in msg
        assert "supply=[4.0, 4.0, 0.0]" in msg
        assert "caps=[4.0, 4.0]" in msg


@st.composite
def _transport_instance(draw):
    """Two to five sources and hosts with random non-metric delays: about a
    third of the greedy starts fail the certificate.

    Integer-valued delays, repeated rates and capacities cut in equal shares
    give tied cells and degenerate starts; total capacity is 1 to 3 times the
    demand, sometimes exactly equal to it.
    """
    m, n = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    delay = st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 10.0))
    cost = [[draw(delay) for _ in range(n)] for _ in range(m)]
    return (cost, *_supply_and_caps(draw, m, n))


def _supply_and_caps(draw, m: int, n: int) -> tuple[list[float], list[float]]:
    """Rates of m sources, and capacities of n hosts that 1 to 3 times cover them."""
    rate = st.one_of(st.sampled_from([0.7, 1.0, 2.0, 3.0]), st.floats(0.01, 20.0))
    supply = [draw(rate) for _ in range(m)]
    shares = [draw(st.sampled_from([0.0, 1.0, 2.0, 0.5])) for _ in range(n)]
    shares[draw(st.integers(0, n - 1))] = 1.0
    total = float(np.sum(supply)) * draw(st.sampled_from([1.0, 1.0 + 1e-12, 1.3, 3.0]))
    caps = [total * share / float(np.sum(shares)) for share in shares]
    return supply, caps


def test_list_core_matches_numpy_reference(monkeypatch):
    """route_flows against the numpy reference simplex.

    Where the greedy start is certified, route_flows returns the reference's
    flows bit for bit; where HiGHS solves the problem, its flows meet supply
    and capacity within _EPS_FEAS and their delay is the reference's within
    1e-9 relative. The reference gets the dummy row and spare supply as
    route_flows builds them.
    """
    fallbacks = count_highs_fallbacks(monkeypatch)
    fell_back = []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(instance=_transport_instance())
    def check(instance):
        cost, supply, caps = instance
        before = len(fallbacks)
        flows = route_flows(cost, supply, caps)
        fell_back.append(len(fallbacks) > before)
        cost_np, supply_np, caps_np = np.array(cost), np.array(supply), np.array(caps)
        supply_total, caps_total = float(supply_np.sum()), float(caps_np.sum())
        if supply_total > caps_total + _EPS_FEAS * max(1.0, caps_total):
            assert flows is None
            return
        y = transport_simplex_reference(
            np.vstack([cost_np, np.full(len(caps), cost_np.max() + 1.0)]),
            np.append(supply_np, max(caps_total - supply_total, 0.0)),
            caps_np,
        )[:-1]
        if not fell_back[-1]:
            assert flows == y.tolist()
            return
        flows_np = np.array(flows)
        assert (flows_np >= 0.0).all()
        tol = _EPS_FEAS * max(1.0, supply_total)
        np.testing.assert_allclose(flows_np.sum(axis=1), supply_np, rtol=0.0, atol=tol)
        assert (flows_np.sum(axis=0) <= caps_np + tol).all()
        reference = float((y * cost_np).sum())
        assert float((flows_np * cost_np).sum()) == pytest.approx(reference, rel=1e-9, abs=1e-9)

    check()
    assert sum(fell_back) >= len(fell_back) // 5  # HiGHS is exercised, not just the start


@st.composite
def _shared_cost_problems(draw):
    """Two transportation problems on one cost matrix: _transport_instance's,
    and one with other rates and capacities, which often start from another
    greedy basis."""
    cost, supply, caps = draw(_transport_instance())
    return cost, [(supply, caps), _supply_and_caps(draw, len(cost), len(caps))]


def _flow_bytes(flows: list[list[float]] | None) -> bytes | None:
    return None if flows is None else np.array(flows).tobytes()


def _embedded_problem(cost: list[list[float]], supply: list[float],
                      caps: list[float]) -> RoutingProblem:
    """route_flows' problem as solve_routing's: node i < m sends supply[i], and node
    m + j hosts caps[j] requests/s at delay cost[i][j] from node i."""
    m, k = len(cost), len(caps)
    delays = np.zeros((m + k, m + k))
    delays[:m, m:] = cost
    return _problem(delays, supply + [0.0] * k, [False] * m + [True] * k,
                    [0.0] * m + caps, np.ones(m + k))


def _outcome(problem: RoutingProblem) -> tuple:
    sol = solve_routing(problem)
    if not sol.feasible:
        return sol.status, None, None
    return sol.status, sol.routing.tobytes(), np.float64(sol.objective_delay).tobytes()


def test_memo_hits_return_the_flows_of_cold_calls(monkeypatch):
    """route_flows and solve_routing through warm memos return, byte for byte,
    what a call made after clearing them returns.

    Each problem is solved cold; then, from cleared memos, both problems are
    solved twice in a row, so the second problem meets the first's plan, and
    that plan's certificate verdicts wherever their flows cover the same
    cells, and each replay meets its own plan and verdicts. solve_routing
    gets each problem on m + k nodes, so the two share one plan but not
    their rates or capacities. A transposed view of a contiguous copy, and
    integer-typed delays, hit the plan of their float64 contiguous copy and
    route as it does.
    """
    fallbacks, supports = count_highs_fallbacks(monkeypatch), []
    certify = routing._certified

    def recording(moves, flowing):
        supports.append(tuple(np.flatnonzero(flowing).tolist()))
        return certify(moves, flowing)

    monkeypatch.setattr(routing, "_certified", recording)
    fell_back, other_support = [], []

    def clear_memos():
        routing._plan.cache_clear()

    def solve(cost, supply, caps):
        return (_flow_bytes(route_flows(cost, supply, caps)),
                _outcome(_embedded_problem(cost, supply, caps)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(instance=_shared_cost_problems())
    def check(instance):
        cost, problems = instance
        cold, starts = [], []
        for supply, caps in problems:
            clear_memos()
            before, first = len(fallbacks), len(supports)
            cold.append(solve(cost, supply, caps))
            fell_back.append(len(fallbacks) > before)
            starts.append(supports[first] if len(supports) > first else None)
        clear_memos()
        warm = [solve(cost, supply, caps) for supply, caps in problems * 2]
        assert warm == cold * 2
        other_support.append(None not in starts and starts[0] != starts[1])
        embedded = _embedded_problem(cost, *problems[0])
        transposed = np.ascontiguousarray(embedded.delays.T).T
        assert _outcome(replace(embedded, delays=transposed)) == cold[0][1]
        assert routing._plan.cache_info().misses == 1  # one plan for every call
        rounded = replace(embedded, delays=embedded.delays.round())
        expected, misses = _outcome(rounded), routing._plan.cache_info().misses
        assert _outcome(replace(rounded, delays=rounded.delays.astype(int))) == expected
        assert routing._plan.cache_info().misses == misses  # the float64 copy's plan

    check()
    assert sum(fell_back) >= len(fell_back) // 5  # memoised refusals send problems to HiGHS
    assert sum(other_support) >= len(other_support) // 5  # one cost key, other flow cells


def test_each_plan_keeps_its_own_certificate_verdicts(monkeypatch):
    """solve_routing certifies a slow-path greedy start once per plan, in the
    plan's verdicts; route_flows without a plan certifies it on every call."""
    fallbacks, certified = count_highs_fallbacks(monkeypatch), []
    certify = routing._certified

    def counting(moves, flowing):
        certified.append(flowing.shape[-1])
        return certify(moves, flowing)

    monkeypatch.setattr(routing, "_certified", counting)
    p = _load_equals_capacity()  # off the nearest-host path, with an optimal greedy start
    routing._plan.cache_clear()
    first, second = solve_routing(p), solve_routing(p)
    assert len(certified) == 1
    assert first.routing.tobytes() == second.routing.tobytes()
    cost = [[0.0, 1.0], [2.0, 1.0]]  # the plan's cost lists: sources 0 and 2, hosts 0 and 1
    for _ in range(2):
        route_flows(cost, [4.0, 2.0], [4.0, 10.0])
    assert len(certified) == 3
    plan = routing._plan(np.ascontiguousarray(p.delays).tobytes(), 3, (0, 2), (0, 1))
    assert plan.cost == cost
    balanced, _, verdicts = plan.balanced
    costs = np.array(balanced)
    moves = costs[:, None, :] - costs[:, :, None]
    assert list(verdicts.values()) == [True]
    for support, verdict in verdicts.items():
        flowing = np.zeros(costs.size, dtype=bool)
        flowing[list(support)] = True
        assert verdict == bool(certify(moves, flowing.reshape(costs.shape + (1,)))[0])
    assert fallbacks == []


def _delay_matrix(draw, n: int) -> np.ndarray:
    """Integer-valued delays (ties) or random, non-metric ones (slow rows go to HiGHS)."""
    cell = st.integers(0, 3).map(float) if draw(st.booleans()) else st.floats(0.0, 10.0)
    return np.array([[draw(cell) for _ in range(n)] for _ in range(n)])


def _routing_row(draw, delays: np.ndarray):
    """One routing problem on delays in route_batch's form: (rates, hosts, cores, cpr, mode).

    Rates include zero-rate sources. The capacities either put the nearest-host
    loads at, or within 1e-12 of, capacity; or put the demand within 4 ulps of
    route_flows' capacity threshold; or share 1 to 1.5 times the demand
    unevenly among the hosts.
    """
    n = len(delays)
    rate = st.one_of(st.sampled_from([0.0, 0.7, 1.0, 2.0, 3.0]), st.floats(0.01, 20.0))
    w = np.array([draw(rate) for _ in range(n)])
    hosted = np.array([draw(st.booleans()) for _ in range(n)])
    hosted[draw(st.integers(0, n - 1))] = True
    chosen = np.flatnonzero(hosted)
    mode = draw(st.sampled_from(["nearest", "threshold", "tight"]))
    if mode == "nearest":
        c = np.array([draw(st.sampled_from([0.5, 1.0, 3.0])) for _ in range(n)])
        nearest = chosen[np.argmin(delays[:, chosen], axis=1)]
        load = np.bincount(nearest, weights=w, minlength=n)
        factor = st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-13, 0.5, 2.0])
        spare = [draw(st.sampled_from([0.0, 1.0, 4.0])) for _ in range(n)]
        cores = np.where(load > 0, load * c * [draw(factor) for _ in range(n)], spare)
    else:
        c = np.ones(n)  # capacities equal the cores, so the ulp steps below land exactly
        shares = np.array([draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in chosen])
        demand = _total(w[w > 0].tolist())
        if mode == "threshold":
            # route_flows' threshold is caps_total + 1e-9 * max(1, caps_total)
            total = demand / (1.0 + 1e-9) if demand >= 1.0 + 1e-9 else demand - 1e-9
        else:
            total = demand * draw(st.sampled_from([1.0, 1.2, 1.5]))
        cores = np.zeros(n)
        cores[chosen] = np.maximum(total, 0.0) * shares / shares.sum()
        steps = draw(st.integers(-4, 4))
        for _ in range(abs(steps)):
            cores[chosen[-1]] = np.nextafter(cores[chosen[-1]], steps * np.inf)
    return w, hosted, cores, c, mode


def _stack(delays: np.ndarray, problems: list):
    """delays and the problems' (rates, hosts, cores, cpr) stacked in rows, plus their modes."""
    rows, placement, cores, cpr, modes = zip(*problems)
    return delays, np.array(rows), np.array(placement), np.array(cores), np.array(cpr), modes


@st.composite
def _routing_batch(draw):
    """Up to six _routing_row problems on one delay matrix of 2 to 6 nodes."""
    n, n_rows = draw(st.integers(2, 6)), draw(st.integers(1, 6))
    delays = _delay_matrix(draw, n)
    return _stack(delays, [_routing_row(draw, delays) for _ in range(n_rows)])


@st.composite
def _rounds_batch(draw):
    """_routing_row problems on one delay matrix, at least as many as its greedy rounds."""
    n = draw(st.integers(2, 6))
    delays = _delay_matrix(draw, n)
    n_rows = len(routing._schedule(n, delays.tobytes()).rounds) + draw(st.integers(0, 2))
    return _stack(delays, [_routing_row(draw, delays) for _ in range(n_rows)])


def _caps(placement, cores, cpr) -> np.ndarray:
    return np.where(placement, np.maximum(cores, 0.0) / cpr, 0.0)  # as LockstepEnv.step


def test_route_batch_matches_solve_routing_row_by_row(monkeypatch):
    """Each row of route_batch is solve_routing on that row's problem, bit for bit.

    Every slow row takes the array pass, so one call mixes rows it certifies
    with rows it leaves to route_flows, and none of them reads a _plan. A
    second call on the batch finds every array-pass verdict in its
    schedule's table, which does not grow, and returns the same bytes; the
    leftover rows, which have no plan, are certified afresh.
    """
    fallbacks = count_highs_fallbacks(monkeypatch)
    fell_back, threshold_outcomes, mixed, passes, certified_moves = [], set(), [], [], []
    route_rounds, certify = routing._route_rounds, routing._certified

    def recording(*args):
        fits, certified, flows = route_rounds(*args)
        passes.append((fits, certified))
        return fits, certified, flows

    def counting(moves, flowing):
        certified_moves.append(moves)
        return certify(moves, flowing)

    monkeypatch.setattr(routing, "_route_rounds", recording)
    monkeypatch.setattr(routing, "_certified", counting)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(batch=st.one_of(_routing_batch(), _rounds_batch()))
    def check(batch):
        delays, rows, placement, cores, cpr, modes = batch
        caps = _caps(placement, cores, cpr)
        problems = [RoutingProblem(delays, rows[s], placement[s], cores[s], cpr[s])
                    for s in range(len(rows))]
        slow = np.flatnonzero([not solve_routing_reference(p)[1] for p in problems])
        before, first_pass, first_certified = len(fallbacks), len(passes), len(certified_moves)
        routing._plan.cache_clear()
        routable, routings = route_batch(delays, rows, placement, caps)
        cold = certified_moves[first_certified:]
        fell_back.append(len(fallbacks) > before)
        assert len(passes) == first_pass + bool(slow.size)  # one pass for every slow row
        if slow.size:
            fits, certified = passes[first_pass]
            mixed.append((fits & ~certified).any() and (fits & certified).any())
        assert routing._plan.cache_info().misses == 0  # route_batch adds no _plan miss
        assert routings.shape == (len(rows),) + delays.shape
        for s, mode in enumerate(modes):
            sol = solve_routing(problems[s])
            assert routable[s] == sol.feasible
            if sol.feasible:
                assert routings[s].tobytes() == sol.routing.tobytes()
            else:
                assert not routings[s].any()
            if mode == "threshold":
                threshold_outcomes.add(sol.feasible)
        schedule = routing._schedule(len(delays), delays.tobytes())
        table = schedule.verdicts
        assert len(table) <= routing._VERDICT_ENTRIES
        size, first_warm = len(table), len(certified_moves)
        warm_routable, warm_routings = route_batch(delays, rows, placement, caps)
        warm = certified_moves[first_warm:]
        assert all(moves is not schedule.moves for moves in warm)  # every array verdict is warm
        assert len(table) == size
        # each leftover row's route_flows certifies its start again
        assert len(warm) == sum(moves is not schedule.moves for moves in cold)
        assert warm_routable.tobytes() == routable.tobytes()
        assert warm_routings.tobytes() == routings.tobytes()
        assert len(table) <= routing._VERDICT_ENTRIES

    check()
    assert sum(fell_back) >= len(fell_back) // 5  # slow rows reach HiGHS
    assert threshold_outcomes == {True, False}  # the threshold is met from both sides
    assert sum(mixed) >= len(fell_back) // 10  # certified array-pass rows beside leftovers


def test_verdict_table_evicts_beyond_its_cap(monkeypatch):
    """A verdict table with room for two patterns keeps the two most recently used,
    and route_batch's rows stay solve_routing's, cold or warm."""
    monkeypatch.setattr(routing, "_VERDICT_ENTRIES", 2)
    sizes, certified_rows = [], []
    certify = routing._certified

    def counting(moves, flowing):
        certified_rows.append(flowing.shape[-1])
        return certify(moves, flowing)

    monkeypatch.setattr(routing, "_certified", counting)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(batch=_rounds_batch())
    def check(batch):
        delays, rows, placement, cores, cpr, _ = batch
        caps = _caps(placement, cores, cpr)
        table = routing._schedule(len(delays), delays.tobytes()).verdicts
        for _ in range(2):
            routable, routings = route_batch(delays, rows, placement, caps)
            assert len(table) <= 2
            sizes.append(len(table))
            for s in range(len(rows)):
                sol = solve_routing(RoutingProblem(delays, rows[s], placement[s], cores[s], cpr[s]))
                assert routable[s] == sol.feasible
                if sol.feasible:
                    assert routings[s].tobytes() == sol.routing.tobytes()

    check()
    assert 2 in sizes
    assert max(certified_rows) > 2  # one call added more patterns than the table keeps
    # patterns a, b, a, c: c evicts b, the least recently used, and keeps a
    schedule = routing._schedule(2, np.array([[0.0, 1.0], [2.0, 0.5]]).tobytes())
    a, b, c = (np.eye(6, dtype=bool)[k].reshape(3, 2, 1) for k in range(3))
    for pattern in (a, b, a, c):
        routing._verdicts(schedule, pattern)
    before = len(certified_rows)
    routing._verdicts(schedule, a)
    assert len(certified_rows) == before
    routing._verdicts(schedule, b)
    assert len(certified_rows) == before + 1


def test_route_rounds_certifies_only_route_row_flows():
    """_route_rounds' capacity test is route_flows', and each row it certifies
    carries route_flows' flows (_row_flows) byte for byte."""
    outcomes = []

    @settings(max_examples=150, deadline=None)
    @given(batch=_rounds_batch())
    def check(batch):
        delays, rows, placement, cores, cpr, _ = batch
        n = len(delays)
        caps = _caps(placement, cores, cpr)
        schedule = routing._schedule(n, delays.tobytes())
        fits, certified, flows = routing._route_rounds(schedule, rows, placement, caps)
        for s in np.flatnonzero((rows > 0).any(axis=1)):  # a row without traffic is never slow
            chosen = np.flatnonzero(placement[s]).tolist()
            expected = _row_flows(delays, rows[s], chosen, caps[s, chosen])
            assert fits[s] == (expected is not None)
            if fits[s] and certified[s]:
                assert flows[s].tobytes() == expected.tobytes()
            if fits[s]:
                outcomes.append(bool(certified[s]))

    check()
    assert True in outcomes and False in outcomes  # both certified and uncertified rows occur


@pytest.mark.parametrize("gap, certified", [(1e-11, True), (1e-9, False)])
def test_route_rounds_certifies_above_half_the_pivot_threshold(gap, certified):
    """A greedy start that one cycle improves by gap: the reference simplex
    pivots when gap exceeds its 1e-10 threshold, and both routers certify the
    start only while gap stays below _EPS_CERTIFY, half of that; route_flows
    otherwise returns HiGHS's optimum."""
    # the start ships 0 -> 0 and 1 -> 1; shipping 0 -> 1 and 1 -> 0 costs gap less
    delays = np.array([[1.0, 2.0], [1.5, 2.5 + gap]])
    ones = np.ones((1, 2))
    schedule = routing._schedule(2, delays.tobytes())
    fits, certificate, flows = routing._route_rounds(schedule, ones, ones > 0, ones)
    routed = _row_flows(delays, [1.0, 1.0], [0, 1], [1.0, 1.0])
    assert fits[0] and certificate[0] == certified
    assert (flows[0] == np.eye(2)).all()
    assert (routed == np.eye(2)).all() == certified


@pytest.mark.parametrize("preset", PRESETS)
def test_training_certifies_every_routable_batched_row(preset, monkeypatch):
    """A seed-1 training certifies every routable row of its batched passes,
    and neither it nor a 50-snapshot agent, vsvbp and cr-eua evaluation
    meets a greedy start that routing has to hand to HiGHS."""
    passes = []
    route_rounds = routing._route_rounds

    def recording(*args):
        fits, certified, flows = route_rounds(*args)
        passes.append(certified | ~fits)
        return fits, certified, flows

    monkeypatch.setattr(routing, "_route_rounds", recording)
    fallbacks = count_highs_fallbacks(monkeypatch)
    scenario = build_preset(preset)
    n = scenario.n_nodes
    assert len(routing._schedule(n, scenario.topology.delays.tobytes()).rounds) == 10
    workload_cfg = preset_workload_config(preset, 50)
    trained = train_agent(scenario, 0.0, 1, workload_cfg, PPOConfig(), 2048)
    assert passes
    assert all(done.all() for done in passes)
    plan = ExperimentPlan(scenario=scenario, workload_cfg=workload_cfg, alphas=(0.0,),
                          candidates=("agent", "vsvbp", "cr-eua"), eval_snapshots=50,
                          timing=False)
    assert len(evaluate_candidates(plan, 3, {0.0: trained.agent})) == 150
    assert fallbacks == []


def test_training_beyond_the_presets_reads_no_plan(monkeypatch):
    """A 10-node training sends uncertified batched rows to HiGHS without
    touching solve_routing's plans: route_batch routes them on their own
    cost rows."""
    fallbacks = count_highs_fallbacks(monkeypatch)
    scenario = random_scenario(10, 15, np.random.default_rng(1))
    before = routing._plan.cache_info()
    train_agent(scenario, 0.0, 1, WorkloadGenConfig(n_snapshots=50), PPOConfig(), 1024)
    assert fallbacks
    assert routing._plan.cache_info() == before


def test_every_test_starts_from_empty_memos():
    """conftest's autouse fixture empties the memos that earlier tests warm, so
    no test here or in test_env passes only in a fresh process."""
    for memo in (routing._plan, routing._schedule, env._queue_stats):
        assert memo.cache_info().currsize == 0
