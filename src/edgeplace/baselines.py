"""Non-learning placement baselines.

solve_joint_milp: exact joint placement+routing as one HiGHS MIP
(scipy.optimize.milp) over binary placements and continuous routing splits,
solved to a zero relative gap. Routing is then re-solved exactly as an LP over
the chosen placement, so emitted routes meet the verifier's tolerances. The
optional budget counts HiGHS branch-and-bound nodes, not wall time, so
budgeted runs are reproducible too.

solve_vsvbp: bin-packing-flavored greedy, fewest hosting nodes first.
solve_creua: criticality-ordered greedy, nearest node first per source.
Both are deliberately simple reference points, not faithful reimplementations
of any specific system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import LinearConstraint, linprog, milp

from .env import cost_increment, make_queue, t_max_bound
from .model import Scenario
from .routing import RoutingProblem, solve_routing, total_delay


@dataclass
class JointSolution:
    status: str  # "optimal" | "feasible" | "infeasible" | "budget-exhausted"
    placements: np.ndarray | None  # (F, N) bool
    routes: dict[int, np.ndarray] | None
    total_delay: float | None
    total_cost: float | None
    objective: float | None
    optimal: bool
    lp_solves: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.placements is not None


def joint_objective_weights(scenario: Scenario, workload: np.ndarray, alpha: float):
    """Delay/cost weights equivalent to the reward's normalized alpha-blend."""
    t_span = max(t_max_bound(scenario, workload), 1e-12)
    c_span = max(float(scenario.topology.cores.sum()), 1e-12)
    return 2.0 * (1.0 - alpha) / t_span, 2.0 * alpha / c_span


# --------------------------------------------------------------------------
# joint routing LP over a placement-allowance mask
# --------------------------------------------------------------------------


def _joint_routing_lp(
    scenario: Scenario,
    workload: np.ndarray,
    allowed: np.ndarray,
    lam_t: float,
    lam_c: float,
):
    """Min-cost routing of all functions at once under shared core capacity.

    allowed[f, j] marks nodes function f may run on. Returns (objective,
    delay, cost, x (F, N, N)) or None when no feasible routing exists.
    Memory is a placement property, not enforced here.
    """
    f_cnt, n = workload.shape
    delays = scenario.topology.delays
    cpr = scenario.cores_per_request
    if not allowed.any(axis=1).all():
        return None
    x = np.zeros((f_cnt, n, n))
    # zero-traffic sources ride on each function's lowest allowed node
    idle_f, idle_i = np.nonzero(workload <= 0)
    x[idle_f, idle_i, allowed.argmax(axis=1)[idle_f]] = 1.0
    # variables x[f, i, j] in (function, source, host) row-major order, one
    # split-sums-to-1 row per source and one core row per node; the matrices
    # stay dense because linprog validates sparse input more slowly than it
    # converts these small dense ones
    fs, srcs = np.nonzero(workload > 0)
    src, hosts = np.nonzero(allowed[fs])
    nvar = src.size
    if nvar == 0:
        return 0.0, 0.0, 0.0, x
    var_f, var_i = fs[src], srcs[src]
    rate = workload[var_f, var_i]
    cost_vec = lam_t * rate * delays[var_i, hosts] + lam_c * rate * cpr[var_f, hosts]
    columns = np.arange(nvar)
    a_eq = np.zeros((fs.size, nvar))
    a_eq[src, columns] = 1.0
    a_ub = np.zeros((n, nvar))
    a_ub[hosts, columns] = rate * cpr[var_f, hosts]
    res = linprog(
        cost_vec,
        A_ub=a_ub,
        b_ub=scenario.topology.cores,
        A_eq=a_eq,
        b_eq=np.ones(fs.size),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        return None
    x[var_f, var_i, hosts] = res.x
    delay = float(sum(total_delay(x[f], workload[f], delays) for f in range(f_cnt)))
    cost = float(sum(cost_increment(x[f], workload[f], cpr[f]) for f in range(f_cnt)))
    return lam_t * delay + lam_c * cost, delay, cost, x


# --------------------------------------------------------------------------
# joint placement MIP
# --------------------------------------------------------------------------


def _placement_mip(scenario: Scenario, workload: np.ndarray, lam_t: float, lam_c: float):
    """Sparse MIP over binary p[f, j] (row-major) and x[s, j] per traffic source s.

    Returns (cost vector, constraints, integrality): each source's split sums
    to 1 and only reaches hosts (x <= p), every function has a host, and node
    memory (placements) and cores (routed load) stay within capacity.
    """
    f_cnt, n = workload.shape
    fs, srcs = np.nonzero(workload > 0)
    k, n_p = fs.size, f_cnt * n
    rate = workload[fs, srcs][:, None]
    load = rate * scenario.cores_per_request[fs]  # cores per unit split, (k, n)
    cost = np.concatenate(
        [np.zeros(n_p), (lam_t * rate * scenario.topology.delays[srcs] + lam_c * load).ravel()]
    )
    pick = sparse.csr_array(
        (np.ones(k * n), (np.arange(k * n), (fs[:, None] * n + np.arange(n)).ravel())),
        shape=(k * n, n_p),
    )
    a = sparse.block_array(
        [
            [None, sparse.kron(sparse.eye_array(k), np.ones((1, n)))],  # split sums to 1
            [-pick, sparse.eye_array(k * n)],  # x[s, j] <= p[f(s), j]
            [sparse.kron(scenario.function_memory[None, :], sparse.eye_array(n)), None],  # memory
            [sparse.kron(sparse.eye_array(f_cnt), np.ones((1, n))), None],  # some host
            [None, sparse.kron(np.ones((1, k)), sparse.eye_array(n)) * load.ravel()],  # cores
        ],
        format="csr",
    )
    lb = np.concatenate(
        [np.ones(k), np.full(k * n + n, -np.inf), np.ones(f_cnt), np.full(n, -np.inf)]
    )
    ub = np.concatenate(
        [np.ones(k), np.zeros(k * n), scenario.topology.memory, np.full(f_cnt, np.inf),
         scenario.topology.cores]
    )
    integrality = np.concatenate([np.ones(n_p), np.zeros(k * n)])
    return cost, [LinearConstraint(a, lb, ub)], integrality


def _mip_status(res) -> str:
    if res.status == 0:
        return "optimal"
    if res.status == 2:
        return "infeasible"
    # scipy reports a hit HiGHS node limit as status 4, not 1: trust only 0
    return "feasible" if res.x is not None else "budget-exhausted"


def solve_joint_milp(
    scenario: Scenario,
    workload: np.ndarray | None = None,
    alpha: float = 0.0,
    node_budget: int | None = None,
    tie_exact: bool = False,
) -> JointSolution:
    """Joint placement with optimality proof (unless the node budget interrupts).

    One HiGHS MIP picks the placement; routing is then re-solved exactly as an
    LP over that placement. node_budget caps HiGHS branch-and-bound nodes.
    tie_exact (default False) resolves objective ties to the lexicographically
    smallest placement (row-major over function then node) with a second MIP
    that keeps the optimum and minimises sum_k 2^-k p_k; use it only while
    F*N <= 9, where those weights stay far above HiGHS's gap tolerance.
    Without tie_exact, hosts that no traffic reaches are dropped from the
    returned placement; a function without traffic keeps its lowest host.
    """
    workload = scenario.workload if workload is None else workload
    f_cnt, n = workload.shape
    lam_t, lam_c = joint_objective_weights(scenario, workload, alpha)
    cost, constraints, integrality = _placement_mip(scenario, workload, lam_t, lam_c)
    options = {"mip_rel_gap": 0.0}
    if node_budget is not None:
        options["node_limit"] = node_budget
    shared = {"integrality": integrality, "bounds": (0.0, 1.0), "options": options}
    res = milp(cost, constraints=constraints, **shared)
    status = _mip_status(res)
    mip_nodes = res.mip_node_count or 0
    x = res.x
    if tie_exact and status == "optimal":
        cap = res.fun + 1e-12 + 1e-9 * abs(res.fun)
        lex_cost = np.zeros_like(cost)
        lex_cost[: f_cnt * n] = 2.0 ** -np.arange(f_cnt * n)
        tie = milp(lex_cost, constraints=[*constraints, LinearConstraint(cost, -np.inf, cap)],
                   **shared)
        mip_nodes += tie.mip_node_count or 0
        if tie.x is not None:
            x = tie.x
    metadata = {"alpha": alpha, "tie_exact": tie_exact, "mip_nodes": mip_nodes}
    if x is None:
        return JointSolution(
            status=status,
            placements=None,
            routes=None,
            total_delay=None,
            total_cost=None,
            objective=None,
            optimal=status == "infeasible",
            metadata=metadata,
        )
    placements = np.round(x[: f_cnt * n]).reshape(f_cnt, n).astype(bool)
    routed = _joint_routing_lp(scenario, workload, placements, lam_t, lam_c)
    if routed is None:
        raise RuntimeError("HiGHS placement admits no routing under the exact LP")
    obj, delay, total_cost, routing = routed
    if not tie_exact:
        # placement is free in the objective, so the MIP may keep replicas that
        # no traffic reaches; they would only hold memory
        idle_f, idle_i = np.nonzero(workload <= 0)
        routing[idle_f, idle_i] = 0.0
        served = placements & (routing != 0.0).any(axis=1)
        unserved = ~served.any(axis=1)  # no traffic at all: keep the lowest host
        served[unserved, placements[unserved].argmax(axis=1)] = True
        placements = served
        routing[idle_f, idle_i, placements.argmax(axis=1)[idle_f]] = 1.0
    return JointSolution(
        status=status,
        placements=placements,
        routes={f: routing[f] for f in range(f_cnt)},
        total_delay=delay,
        total_cost=total_cost,
        objective=obj,
        optimal=status == "optimal",
        lp_solves=1,
        metadata=metadata,
    )


# --------------------------------------------------------------------------
# greedy baselines
# --------------------------------------------------------------------------


def _greedy_solution(
    placements: np.ndarray,
    routes: dict[int, np.ndarray],
    delay: float,
    cost: float,
    violations: list[str],
    method: str,
) -> JointSolution:
    return JointSolution(
        status="feasible" if not violations else "infeasible",
        placements=placements if not violations else None,
        routes=routes if not violations else None,
        total_delay=delay if not violations else None,
        total_cost=cost if not violations else None,
        objective=None,
        optimal=False,
        metadata={"method": method, "violations": violations},
    )


def solve_vsvbp(scenario: Scenario, workload: np.ndarray | None = None) -> JointSolution:
    """Pack each function onto as few nodes as possible, biggest bins first.

    Simplified vector-bin-packing heuristic: per function (heaviest first),
    nodes with enough free memory are tried in order of decreasing routable
    core headroom until the traffic fits, then routed optimally on that set.
    """
    workload = scenario.workload if workload is None else workload
    n = scenario.n_nodes
    cores, memory = scenario.topology.cores, scenario.topology.memory
    placements = np.zeros((scenario.n_functions, n), dtype=bool)
    routes: dict[int, np.ndarray] = {}
    delay = cost = 0.0
    violations: list[str] = []
    for f in make_queue(scenario, workload):
        cpr, fn_memory = scenario.cores_per_request[f], scenario.function_memory[f]
        fits_mem = memory >= fn_memory - 1e-9
        headroom = np.maximum(cores, 0.0) / cpr
        candidates = sorted(
            (int(i) for i in np.flatnonzero(fits_mem)),
            key=lambda i: (-headroom[i], i),
        )
        solution = None
        placement = np.zeros(n, dtype=bool)
        for i in candidates:
            placement[i] = True
            trial = solve_routing(
                RoutingProblem(
                    delays=scenario.topology.delays,
                    workload_row=workload[f],
                    placement=placement,
                    available_cores=cores,
                    cores_per_request=cpr,
                )
            )
            if trial.feasible:
                solution = trial
                break
        if solution is None:
            violations.append(f"{f}:unplaceable")
            continue
        routing = solution.routing
        placements[f] = placement
        routes[f] = routing
        cores = cores - routing.T @ workload[f] * cpr
        memory = memory - np.where(placement, fn_memory, 0.0)
        delay += solution.objective_delay
        cost += cost_increment(routing, workload[f], cpr)
    return _greedy_solution(placements, routes, delay, cost, violations, "vsvbp")


def solve_creua(scenario: Scenario, workload: np.ndarray | None = None) -> JointSolution:
    """Criticality-ordered nearest-node allocation.

    Simplified interpretation: functions are served in decreasing
    criticality; each source node's traffic greedily fills the closest nodes
    that have memory and core headroom. No backtracking.
    """
    workload = scenario.workload if workload is None else workload
    n = scenario.n_nodes
    crit = scenario.criticality or (0,) * scenario.n_functions
    base = make_queue(scenario, workload)
    order = sorted(base, key=lambda f: (-crit[f], base.index(f)))
    cores, memory = scenario.topology.cores, scenario.topology.memory
    placements = np.zeros((scenario.n_functions, n), dtype=bool)
    routes: dict[int, np.ndarray] = {}
    delay = cost = 0.0
    violations: list[str] = []
    for f in order:
        cpr, fn_memory = scenario.cores_per_request[f], scenario.function_memory[f]
        cores_left = cores.copy()
        placement = np.zeros(n, dtype=bool)
        routing = np.zeros((n, n))
        failed = False
        sources = sorted(range(n), key=lambda i: (-workload[f, i], i))
        for i in sources:
            remaining = workload[f, i]
            if remaining <= 0:
                continue
            for j in sorted(range(n), key=lambda j: (scenario.topology.delays[i, j], j)):
                if remaining <= 1e-12:
                    break
                if not placement[j] and memory[j] < fn_memory - 1e-9:
                    continue
                absorb = min(remaining, max(cores_left[j], 0.0) / cpr[j])
                if absorb <= 0:
                    continue
                placement[j] = True
                routing[i, j] += absorb / workload[f, i]
                cores_left[j] -= absorb * cpr[j]
                remaining -= absorb
            if remaining > 1e-9:
                failed = True
                break
        if failed or (workload[f].sum() > 0 and not placement.any()):
            violations.append(f"{f}:unplaceable")
            continue
        if not placement.any():  # zero traffic: lowest node with memory room
            hosts = np.flatnonzero(memory >= fn_memory - 1e-9)
            if hosts.size == 0:
                violations.append(f"{f}:unplaceable")
                continue
            placement[int(hosts[0])] = True
        for i in range(n):
            if workload[f, i] <= 0:
                routing[i] = 0.0
                routing[i, int(np.flatnonzero(placement)[0])] = 1.0
            else:
                routing[i] /= routing[i].sum()  # absorb split-loop float dust
        placements[f] = placement
        routes[f] = routing
        cores = cores - routing.T @ workload[f] * cpr
        memory = memory - np.where(placement, fn_memory, 0.0)
        delay += total_delay(routing, workload[f], scenario.topology.delays)
        cost += cost_increment(routing, workload[f], cpr)
    return _greedy_solution(placements, routes, delay, cost, violations, "cr-eua")
