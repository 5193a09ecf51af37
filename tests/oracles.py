"""Independent reference implementations used only by the tests.

Everything here is written from the problem definition, not from the package
internals, so agreement between package and oracle is meaningful evidence.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linprog

from edgeplace.bench import TrainResult
from edgeplace.env import (
    PENALTY_REWARD,
    VIOLATIONS,
    PlacementEnv,
    RewardBounds,
    build_state_scale,
    normalize_and_reward,
    state_dim,
)
from edgeplace.model import Scenario, Topology
from edgeplace.nn import MLP, Adam
from edgeplace.ppo import (
    PolicyAgent,
    PPOConfig,
    Trajectory,
    compute_gae,
    forward,
    ppo_update,
)
from edgeplace.util import rng_stream
from edgeplace.workload import WorkloadGenConfig, generate_workloads
from edgeplace.routing import (
    _EPS_FEAS,
    _FAST_MARGIN,
    RoutingProblem,
    RoutingSolution,
    chosen_nodes,
    route_flows,
    total_delay,
    unit_rows,
)

_TIE_TOL = 1e-12
_EPS_REDUCED = 1e-10  # transport_simplex_reference's reduced-cost threshold for entering
_MAX_PIVOTS = 20000


def finite_difference_grad(loss_fn, params: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar loss over a flat parameter vector."""
    grad = np.zeros_like(params)
    for k in range(params.size):
        bumped = params.copy()
        bumped[k] += step
        hi = loss_fn(bumped)
        bumped[k] -= 2 * step
        lo = loss_fn(bumped)
        grad[k] = (hi - lo) / (2 * step)
    return grad


def gae_reference(rewards, values, dones, gamma, lam):
    """Direct forward-sum GAE: A_t = sum_k (gamma*lam)^k delta_{t+k} within episode.

    The rollout ends an episode, so its last step bootstraps from 0.
    """
    t_len = len(rewards)
    deltas = np.zeros(t_len)
    for t in range(t_len):
        nxt = values[t + 1] if not dones[t] and t + 1 < t_len else 0.0
        deltas[t] = rewards[t] + gamma * nxt - values[t]
    adv = np.zeros(t_len)
    for t in range(t_len):
        acc = 0.0
        scale = 1.0
        for k in range(t, t_len):
            acc += scale * deltas[k]
            if dones[k]:
                break
            scale *= gamma * lam
        adv[t] = acc
    return adv


@dataclass
class AdamReference:
    """Out-of-place Adam (Kingma & Ba, Algorithm 1): its moments and step count."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Write the next iterate into params; m and v are rebound to new arrays."""
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        params[:] = params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def adam_reference(params: np.ndarray, grads, lr: float, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> list[np.ndarray]:
    """AdamReference from params over each gradient; returns the iterate after each."""
    optimizer = AdamReference(lr, beta1, beta2, eps)
    params = params.copy()
    iterates = []
    for g in grads:
        optimizer.step(params, g)
        iterates.append(params.copy())
    return iterates


def forward_backward_reference(net: MLP, x: np.ndarray, d_out_fn):
    """MLP.forward_backward with a fresh array for every intermediate.

    Forward: h = tanh(h @ W + b) per hidden layer, then the linear head.
    Backward from delta = d_out_fn(logits, values): per layer the weight
    gradient acts.T @ delta and the bias gradient delta.sum(axis=0), then
    delta @ W.T * (1 - a**2) for the layer below. Returns (logits, values,
    grad) with grad laid out like net.params.
    """
    h = np.asarray(x, dtype=float)
    if h.ndim == 1:
        h = h[None]
    acts = [h]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.tanh(h @ w + b)
        acts.append(h)
    out = h @ net.weights[-1] + net.biases[-1]
    logits, values = out[:, : net.n_actions], out[:, net.n_actions]
    delta = d_out_fn(logits, values)
    layer_grads = []
    for layer in range(len(net.weights) - 1, -1, -1):
        layer_grads.append((acts[layer].T @ delta, delta.sum(axis=0)))
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (1.0 - acts[layer] ** 2)
    grad = np.concatenate([part.ravel() for pair in reversed(layer_grads) for part in pair])
    return logits, values, grad


def ppo_loss_and_grad_reference(net: MLP, batch: dict, config: PPOConfig):
    """The clipped-surrogate PPO loss, its diagnostics and its flat gradient,
    one expression per quantity, backpropagated by forward_backward_reference.

    Per row, with p = sigmoid(z), log pi = sum(a z - softplus(z)) and
    r = exp(log pi - old log pi): the logits' gradient is
    -(active r A)(a - p) / B + entropy_coef z p (1 - p) / B, where active
    marks the rows whose unclipped term attains the min, and the value's is
    value_coef * 2 (v - R) / B.
    """
    actions, old_lp = batch["actions"], batch["old_log_probs"]
    adv, rets = batch["advantages"], batch["returns"]
    b = batch["states"].shape[0]
    eps = config.clip_ratio
    stats: dict = {}

    def d_out(logits, values):
        probs = 0.5 * (1.0 + np.tanh(0.5 * logits))
        new_lp = np.sum(actions * logits - np.logaddexp(0.0, logits), axis=1)
        ratio = np.exp(new_lp - old_lp)
        active = np.where(adv >= 0.0, ratio <= 1.0 + eps, ratio >= 1.0 - eps)
        d_logits = (
            -(active * ratio * adv)[:, None] * (actions - probs) / b
            + config.entropy_coef * (logits * probs * (1.0 - probs)) / b
        )
        v_err = values - rets
        d_values = config.value_coef * 2.0 * v_err / b
        surr = np.minimum(ratio * adv, np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv)
        ent = np.logaddexp(0.0, logits) - probs * logits
        stats["policy_loss"] = float(-np.mean(surr))
        stats["value_loss"] = float(np.mean(v_err**2))
        stats["entropy"] = float(np.mean(np.sum(ent, axis=1)))
        stats["clip_fraction"] = float(np.mean(np.abs(ratio - 1.0) > eps))
        stats["approx_kl"] = float(np.mean(old_lp - new_lp))
        return np.concatenate([d_logits, d_values[:, None]], axis=1)

    _, _, grad = forward_backward_reference(net, batch["states"], d_out)
    stats["loss"] = (
        stats["policy_loss"]
        + config.value_coef * stats["value_loss"]
        - config.entropy_coef * stats["entropy"]
    )
    return stats, grad


def ppo_update_reference(net: MLP, trajectory: Trajectory, config: PPOConfig,
                         optimizer: AdamReference, rng: np.random.Generator) -> dict:
    """ppo_update written plainly: each minibatch gathers its own rows from the
    trajectory and computes its loss diagnostics with ppo_loss_and_grad_reference,
    the last minibatch's are kept, and the optimizer is AdamReference."""
    adv_raw, returns = compute_gae(trajectory, config.gamma, config.gae_lambda)
    adv = (adv_raw - adv_raw.mean()) / (adv_raw.std() + 1e-8)
    t_len = len(trajectory)
    diag: dict = {}
    for _ in range(config.epochs):
        perm = rng.permutation(t_len)
        for start in range(0, t_len, config.minibatch_size):
            idx = perm[start : start + config.minibatch_size]
            batch = {
                "states": trajectory.states[idx],
                "actions": trajectory.actions[idx],
                "old_log_probs": trajectory.log_probs[idx],
                "advantages": adv[idx],
                "returns": returns[idx],
            }
            diag, grad = ppo_loss_and_grad_reference(net, batch, config)
            optimizer.step(net.params, grad)
    diag["mean_reward"] = float(np.mean(trajectory.rewards))
    return diag


def joint_lp_reference(scenario: Scenario, workload: np.ndarray, placements: np.ndarray,
                       lam_t: float, lam_c: float):
    """Exact routing cost of a fixed 0/1 placement, written independently.

    Returns (objective, delay, cost) or None if infeasible. Built directly
    from the constraint statement: per-source unit split over hosting nodes,
    shared per-node core capacity, weighted delay+cost objective.
    """
    f_cnt, n = workload.shape
    delays = scenario.topology.delays
    cpr = scenario.cores_per_request
    mem_use = placements.astype(float).T @ scenario.function_memory
    if np.any(mem_use > scenario.topology.memory + 1e-9):
        return None
    if np.any(~placements.any(axis=1)):
        return None
    variables = []
    for f in range(f_cnt):
        for i in range(n):
            if workload[f, i] <= 0:
                continue
            for j in range(n):
                if placements[f, j]:
                    variables.append((f, i, j))
    if not variables:
        return 0.0, 0.0, 0.0
    c = np.array([lam_t * workload[f, i] * delays[i, j] + lam_c * workload[f, i] * cpr[f, j]
                  for f, i, j in variables])
    eq_keys = sorted({(f, i) for f, i, _ in variables})
    a_eq = np.zeros((len(eq_keys), len(variables)))
    for col, (f, i, _) in enumerate(variables):
        a_eq[eq_keys.index((f, i)), col] = 1.0
    a_ub = np.zeros((n, len(variables)))
    for col, (f, i, j) in enumerate(variables):
        a_ub[j, col] = workload[f, i] * cpr[f, j]
    res = linprog(c, A_ub=a_ub, b_ub=scenario.topology.cores, A_eq=a_eq,
                  b_eq=np.ones(len(eq_keys)), bounds=(0, None), method="highs")
    if not res.success:
        return None
    delay = float(sum(res.x[col] * workload[f, i] * delays[i, j]
                      for col, (f, i, j) in enumerate(variables)))
    cost = float(sum(res.x[col] * workload[f, i] * cpr[f, j]
                     for col, (f, i, j) in enumerate(variables)))
    return float(res.fun), delay, cost


def exhaustive_joint_enumeration(scenario: Scenario, workload: np.ndarray,
                                 lam_t: float, lam_c: float):
    """Try every 0/1 placement matrix in ascending lexicographic order.

    Keeps the first placement achieving the best objective (ties within
    1e-12), which is exactly the lexicographically-smallest tie-break.
    Returns (objective, placements) or None when nothing is feasible.
    """
    f_cnt, n = workload.shape
    best = None
    for bits in itertools.product((0, 1), repeat=f_cnt * n):
        placements = np.array(bits, dtype=bool).reshape(f_cnt, n)
        sol = joint_lp_reference(scenario, workload, placements, lam_t, lam_c)
        if sol is None:
            continue
        obj = sol[0]
        if best is None or obj < best[0] - _TIE_TOL:
            best = (obj, placements)
    return best


def capacities_reference(problem: RoutingProblem, chosen: list[int]) -> np.ndarray:
    """Requests/s each chosen host can absorb: its residual cores, floored at 0,
    over its cores per request."""
    cores = np.maximum(problem.available_cores[chosen], 0.0)
    return cores / problem.cores_per_request[chosen]


def _row_flows(delays: np.ndarray, w, chosen: list[int], caps) -> np.ndarray | None:
    """route_flows on the problem of sources w > 0 and hosts chosen cut from delays.

    caps[k] is what chosen[k] can absorb. Returns the (N, N) requests/s node
    i sends to node j, or None when demand exceeds capacity.
    """
    w = np.asarray(w, dtype=float)
    sources = np.flatnonzero(w > 0)
    cells = np.ix_(sources, chosen)
    flows = route_flows(delays[cells].tolist(), w[sources].tolist(),
                        np.asarray(caps, dtype=float).tolist())
    if flows is None:
        return None
    x = np.zeros(delays.shape)
    x[cells] = flows
    return x


def solve_routing_reference(problem: RoutingProblem) -> tuple[RoutingSolution, bool]:
    """solve_routing with its nearest-host test written in numpy arrays.

    Every source goes to its first-minimum host (argmin), the hosts' loads
    are a bincount of the source rates, and the one-hot routing is taken when
    every load <= capacity * _FAST_MARGIN; the objective is np.sum's. Any
    other problem goes to _row_flows and the package's unit_rows. Returns the
    solution and whether the nearest-host test passed.
    """
    chosen = np.flatnonzero(np.asarray(problem.placement, dtype=bool)).tolist()
    if not chosen:
        return RoutingSolution(status="infeasible", routing=None, objective_delay=None), False
    w = np.asarray(problem.workload_row, dtype=float)
    sources = np.flatnonzero(w > 0).tolist()
    caps = capacities_reference(problem, chosen)
    nearest = problem.delays[sources][:, chosen].argmin(axis=1)
    load = np.bincount(nearest, weights=w[sources], minlength=len(chosen))
    fits = bool((load <= caps * _FAST_MARGIN).all())
    if fits:
        x = np.zeros(problem.delays.shape)
        x[sources, np.asarray(chosen)[nearest]] = 1.0
    else:
        flows = _row_flows(problem.delays, w, chosen, caps)
        if flows is None:
            return RoutingSolution(status="infeasible", routing=None, objective_delay=None), False
        x = unit_rows(flows, w)
    x[w <= 0, chosen[0]] = 1.0
    objective = float(np.sum(x * problem.delays * w[:, None]))
    return RoutingSolution(status="optimal", routing=x, objective_delay=objective), fits


def brute_force_routing(problem: RoutingProblem, max_bases: int = 500_000) -> RoutingSolution:
    """Optimal routing by enumerating all basic solutions of the flow polytope.

    Intended for small instances only (the optimum of a linear program lies
    at a vertex, and every vertex is a basic solution, so this search is
    complete). Raises ValueError when the combination count exceeds
    max_bases. It uses no solver code of the package.
    """
    chosen = chosen_nodes(problem.placement)
    if not chosen:
        return RoutingSolution(status="infeasible", routing=None, objective_delay=None)
    w = np.asarray(problem.workload_row, dtype=float)
    sources = [int(i) for i in np.flatnonzero(w > 0)]
    caps = capacities_reference(problem, chosen)
    if float(w[sources].sum()) > float(caps.sum()) + _EPS_FEAS * max(1.0, float(caps.sum())):
        return RoutingSolution(status="infeasible", routing=None, objective_delay=None)
    if not sources:
        return _routing_solution(problem, chosen, sources, np.zeros((0, len(chosen))))
    m, n = len(sources), len(chosen)
    nvar = m * n + n  # flows plus one slack per capacity
    rows = m + n
    from math import comb

    if comb(nvar, rows) > max_bases:
        raise ValueError(f"instance too large for brute force: C({nvar},{rows}) bases")
    A = np.zeros((rows, nvar))
    for i in range(m):
        A[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        A[m + j, j:m * n:n] = 1.0
        A[m + j, m * n + j] = 1.0
    b = np.concatenate([w[sources], caps])
    cost_vec = np.concatenate(
        [problem.delays[np.ix_(sources, chosen)].ravel(), np.zeros(n)]
    )
    combos = np.array(list(itertools.combinations(range(nvar), rows)))
    mats = A[:, combos].transpose(1, 0, 2)  # (K, rows, rows)
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-9  # entries are 0/1 so true determinants are integers
    if not np.any(ok):
        return RoutingSolution(status="infeasible", routing=None, objective_delay=None)
    rhs = np.broadcast_to(b[:, None], (int(ok.sum()), rows, 1)).copy()
    sols = np.linalg.solve(mats[ok], rhs)[:, :, 0]
    feas = np.all(sols >= -_EPS_FEAS, axis=1)
    if not np.any(feas):
        return RoutingSolution(status="infeasible", routing=None, objective_delay=None)
    objs = np.einsum("kr,kr->k", sols, cost_vec[combos[ok]])
    objs = np.where(feas, objs, np.inf)
    best = int(np.argmin(objs))
    y = np.zeros(nvar)
    y[combos[ok][best]] = np.maximum(sols[best], 0.0)
    return _routing_solution(problem, chosen, sources, y[: m * n].reshape(m, n))


def _routing_solution(problem: RoutingProblem, chosen: list[int], sources: list[int],
                      flows: np.ndarray) -> RoutingSolution:
    """Each source's flows over its rate as a routing row; no-traffic rows go to chosen[0]."""
    w = problem.workload_row
    x = np.zeros(problem.delays.shape)
    for si, i in enumerate(sources):
        row = flows[si] / w[i]
        x[i, chosen] = row / row.sum()
    x[w <= 0, chosen[0]] = 1.0
    return RoutingSolution(status="optimal", routing=x,
                           objective_delay=total_delay(x, w, problem.delays))


def transport_simplex_reference(cost: np.ndarray, supply: np.ndarray,
                                caps: np.ndarray) -> np.ndarray:
    """The transportation simplex on numpy arrays: greedy start, duals and Bland pivots.

    Its greedy start is routing.route_flows', so where route_flows certifies
    that start, this returns the same flows bit for bit; elsewhere it gives
    the optimum that route_flows' HiGHS fallback must match. Returns the
    flow matrix y.
    """
    m, n = cost.shape
    cost_rows = cost.tolist()
    y, basis = _initial_basis_reference(cost_rows, supply, caps)
    basic_mask = np.zeros((m, n), dtype=bool)
    for i, j in basis:
        basic_mask[i, j] = True
    for _ in range(_MAX_PIVOTS):
        duals = _duals_reference(basis, cost_rows, m, n)
        if duals is None:
            raise RuntimeError("basis does not span the transportation graph")
        u, v = duals
        reduced = cost - u[:, None] - v[None, :]
        reduced[basic_mask] = 0.0
        candidates = np.argwhere(reduced < -_EPS_REDUCED)
        if candidates.size == 0:
            return np.maximum(y, 0.0)
        enter = (int(candidates[0][0]), int(candidates[0][1]))  # Bland: first in row-major order
        plus, minus = _cycle(basis, enter, m, n)
        theta = min(y[c] for c in minus)
        leave = min(c for c in minus if y[c] <= theta)
        for c in plus:
            y[c] += theta
        for c in minus:
            y[c] -= theta
        y[enter[0], enter[1]] += theta
        y[leave] = 0.0
        basis.remove(leave)
        basis.append(enter)
        basic_mask[leave] = False
        basic_mask[enter] = True
    raise RuntimeError("transportation simplex exceeded pivot limit")


def _initial_basis_reference(cost: list[list[float]], supply: np.ndarray, caps: np.ndarray):
    """Minimum-cost greedy start; ties go to (lower cost, lower column, lower row)."""
    m, n = len(cost), len(cost[0])
    y = np.zeros((m, n))
    rs = supply.tolist()
    rc = caps.tolist()
    row_active = [True] * m
    col_active = [True] * n
    rows_left, cols_left = m, n
    basis: list[tuple[int, int]] = []
    order = sorted((cost[i][j], j, i) for i in range(m) for j in range(n))
    for _, j, i in order:
        if rows_left == 0 or cols_left == 0:
            break
        if not (row_active[i] and col_active[j]):
            continue
        alloc = min(rs[i], rc[j])
        y[i, j] = alloc
        basis.append((i, j))
        rs[i] -= alloc
        rc[j] -= alloc
        row_done = rs[i] <= 0.0
        col_done = rc[j] <= 0.0
        if row_done and col_done:
            if rows_left == 1 and cols_left == 1:
                row_active[i] = False
                col_active[j] = False
                rows_left -= 1
                cols_left -= 1
            elif rows_left > 1:
                row_active[i] = False
                rows_left -= 1
            else:
                col_active[j] = False
                cols_left -= 1
        elif row_done:
            row_active[i] = False
            rows_left -= 1
        else:
            col_active[j] = False
            cols_left -= 1
    _repair_basis(basis, [(i, j) for _, j, i in order], m, n)
    return y, basis


def _repair_basis(
    basis: list[tuple[int, int]], order: list[tuple[int, int]], m: int, n: int
) -> None:
    """Pad the basis with zero cells until it spans all rows and columns.

    Float dust in the greedy can leave the basis one short of the m+n-1
    spanning tree the dual computation needs; connect components with the
    cheapest admissible cells, taken in the greedy order (never creating a
    cycle).
    """
    if len(basis) == m + n - 1:
        return
    parent = list(range(m + n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in basis:
        parent[find(i)] = find(m + j)
    for i, j in order:
        if len(basis) == m + n - 1:
            break
        ri, rj = find(i), find(m + j)
        if ri != rj:
            parent[ri] = rj
            basis.append((i, j))


def _cycle(basis: list[tuple[int, int]], enter: tuple[int, int], m: int, n: int):
    """Cells of the unique basis cycle closed by `enter`, with alternating signs."""
    rows_adj: list[list[int]] = [[] for _ in range(m)]
    cols_adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in basis:
        rows_adj[i].append(j)
        cols_adj[j].append(i)
    start, goal = enter
    # BFS from row node `start` to column node `goal` through basic cells
    prev: dict[tuple[bool, int], tuple[bool, int]] = {}
    seen = {(True, start)}
    frontier = [(True, start)]
    while frontier:
        nxt = []
        for is_row, a in frontier:
            neigh = (
                [(False, j) for j in rows_adj[a]]
                if is_row
                else [(True, i) for i in cols_adj[a]]
            )
            for node in neigh:
                if node not in seen:
                    seen.add(node)
                    prev[node] = (is_row, a)
                    nxt.append(node)
        if (False, goal) in seen:
            break
        frontier = nxt
    node = (False, goal)
    path = [node]
    while node != (True, start):
        node = prev[node]
        path.append(node)
    path.reverse()  # row start ... col goal
    minus, plus = [], []
    for k in range(len(path) - 1):
        a, b = path[k], path[k + 1]
        cell = (a[1], b[1]) if a[0] else (b[1], a[1])
        (minus if k % 2 == 0 else plus).append(cell)
    return plus, minus


def _duals_reference(basis: list[tuple[int, int]], cost: list[list[float]], m: int, n: int):
    """Potentials u, v with u[i] + v[j] = cost[i][j] on every basic cell, as arrays.

    Returns None when the basis does not span the transportation graph.
    """
    u: list[float | None] = [None] * m
    v: list[float | None] = [None] * n
    rows_adj: list[list[int]] = [[] for _ in range(m)]
    cols_adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in basis:
        rows_adj[i].append(j)
        cols_adj[j].append(i)
    u[0] = 0.0
    stack: list[tuple[bool, int]] = [(True, 0)]
    while stack:
        is_row, a = stack.pop()
        if is_row:
            for j in rows_adj[a]:
                if v[j] is None:
                    v[j] = cost[a][j] - u[a]
                    stack.append((False, j))
        else:
            for i in cols_adj[a]:
                if u[i] is None:
                    u[i] = cost[i][a] - v[a]
                    stack.append((True, i))
    if None in u or None in v:
        return None
    return np.array(u), np.array(v)


@dataclass
class ReferenceState:
    """One episode's placement state, as the copying commit builds it."""

    available_cores: np.ndarray  # (N,)
    available_memory: np.ndarray  # (N,)
    placements: dict[int, np.ndarray] = field(default_factory=dict)  # f -> bool (N,)
    routes: dict[int, np.ndarray] = field(default_factory=dict)  # f -> float (N, N)
    total_delay: float = 0.0
    total_cost: float = 0.0


def empty_state(topology: Topology) -> ReferenceState:
    """The state before any placement: full capacity, nothing placed."""
    return ReferenceState(available_cores=topology.cores, available_memory=topology.memory)


def build_state(scenario: Scenario, state: ReferenceState, workload: np.ndarray,
                queue: list[int]) -> np.ndarray:
    """The placement observation from its definition.

    Flattened delays, interleaved residual (cores, memory) per node, the queue
    head's workload row, (memory of the head, mean and std of the others'
    memory) and the cumulative delay.
    """
    resources = np.empty(2 * scenario.n_nodes)
    resources[0::2] = state.available_cores
    resources[1::2] = state.available_memory
    queued = scenario.function_memory[queue]
    rest = queued[1:]
    memory = [queued[0], rest.mean(), rest.std()] if rest.size else [queued[0], 0.0, 0.0]
    return np.concatenate([scenario.topology.delays.ravel(), resources,
                           workload[queue[0]], memory, [state.total_delay]])


def state_scale_reference(scenario: Scenario, snapshots: list[np.ndarray]) -> np.ndarray:
    """The state scale from its definition: each component's largest value, at least 1.

    Delays scale by the largest pairwise delay, each node's residual cores and
    memory by its capacity, workload rows by the largest rate of any snapshot,
    the three queue-memory statistics by the largest function memory, and the
    cumulative delay by its largest bound: every request of a snapshot sent
    across every link out of its source. Without snapshots the rate and the
    delay bound are 1.
    """
    n = scenario.n_nodes
    delays = scenario.topology.delays
    rates = [float(x) for s in snapshots for x in s.ravel()]
    bounds = [sum(s[f, i] * sum(delays[i, j] for j in range(n))
                  for f in range(s.shape[0]) for i in range(n)) for s in snapshots]
    scale = [max(float(delays.max()), 1.0)] * (n * n)
    for cores, memory in zip(scenario.topology.cores, scenario.topology.memory):
        scale += [max(cores, 1.0), max(memory, 1.0)]
    scale += [max(max(rates, default=1.0), 1.0)] * n
    scale += [max(max(scenario.function_memory), 1.0)] * 3
    scale.append(max(max(bounds, default=1.0), 1.0))
    return np.array(scale)


def commit(state: ReferenceState, scenario: Scenario, fid: int, placement: np.ndarray,
           routing: np.ndarray, workload_row: np.ndarray, delay: float,
           cost: float) -> ReferenceState:
    """The successor state after placing function fid, built by copying; the input
    is unchanged.

    Only placed nodes are charged the routed core draw and the memory.
    """
    placement = np.asarray(placement, dtype=bool)
    core_use = routing.T @ workload_row * scenario.cores_per_request[fid]
    memory = scenario.function_memory[fid]
    return replace(
        state,
        available_cores=state.available_cores - np.where(placement, core_use, 0.0),
        available_memory=state.available_memory - np.where(placement, memory, 0.0),
        placements={**state.placements, fid: placement.copy()},
        routes={**state.routes, fid: routing.copy()},
        total_delay=state.total_delay + delay,
        total_cost=state.total_cost + cost,
    )


def sample_action(probs: np.ndarray, rng: np.random.Generator):
    """One multi-binary action drawn from one probability row; returns (bools, joint log-prob)."""
    action = rng.random(probs.shape) < probs
    picked = np.where(action, probs, 1.0 - probs)
    return action, float(np.sum(np.log(np.maximum(picked, 1e-300))))


def lockstep_rewards_reference(t_uppers: np.ndarray, delays: np.ndarray, costs: np.ndarray,
                               valid: np.ndarray, bounds: RewardBounds,
                               alpha: float) -> tuple[np.ndarray, RewardBounds]:
    """A window's (E, F) rewards and final bounds, scored one step at a time.

    Episodes go in order: episode e widens t_max to t_uppers[e], as
    PlacementEnv.reset does; then each valid step k takes normalize_and_reward
    of (delays[e][k], costs[e][k]) against the bounds so far, the reward
    PlacementEnv.step pays, and each invalid step scores PENALTY_REWARD.
    """
    rewards = np.full(valid.shape, PENALTY_REWARD)
    for e, t_upper in enumerate(t_uppers.tolist()):
        bounds = replace(bounds, t_max=max(bounds.t_max, t_upper))
        for k, (t, c, ok) in enumerate(zip(delays[e].tolist(), costs[e].tolist(), valid[e])):
            if ok:
                rewards[e, k], bounds = normalize_and_reward(t, c, bounds, alpha)
    return rewards, bounds


def train_agent_reference(scenario: Scenario, alpha: float, seed: int,
                          workload_cfg: WorkloadGenConfig, ppo_cfg: PPOConfig,
                          total_timesteps: int) -> TrainResult:
    """bench.train_agent with the rollout run one episode and one decision at a time.

    Each window collects whole PlacementEnv episodes until it holds
    update_interval steps; each decision is a one-row forward pass and one
    sample_action draw, and its reward comes from PlacementEnv.step. The
    seed streams and the log columns are bench.train_agent's.
    """
    snapshots = generate_workloads(
        scenario.n_functions, scenario.n_nodes, workload_cfg, rng_stream(seed, "workload-train")
    )
    scale = build_state_scale(scenario, snapshots)
    net = MLP(state_dim(scenario.n_nodes), scenario.n_nodes, hidden=ppo_cfg.hidden,
              rng=rng_stream(seed, "policy-init"))
    optimizer = Adam(lr=ppo_cfg.learning_rate)
    env = PlacementEnv(scenario, alpha)
    sample_rng = rng_stream(seed, "action-sample")
    shuffle_rng = rng_stream(seed, "minibatch-shuffle")
    log_rows = []
    timesteps = episodes = cumulative_invalid = cumulative_valid = 0
    while timesteps < total_timesteps:
        steps = []  # (net input, action, log-prob, value, reward)
        kinds = Counter()
        window_episodes = 0
        while len(steps) < ppo_cfg.update_interval:
            state = env.reset(snapshots[episodes % len(snapshots)])
            done = False
            while not done:
                net_input = state / scale
                probs, value = forward(net, net_input)
                action, log_prob = sample_action(probs, sample_rng)
                outcome = env.step(action)
                kinds[outcome.violation] += 1
                steps.append((net_input, action, log_prob, value, outcome.reward))
                done, state = outcome.done, outcome.state
            episodes += 1
            window_episodes += 1
        states, actions, log_probs, values, rewards = zip(*steps)
        trajectory = Trajectory(
            states=np.stack(states), actions=np.stack(actions), log_probs=np.array(log_probs),
            values=np.array(values), rewards=np.array(rewards),
            episode_steps=scenario.n_functions,
        )
        window_invalid = len(steps) - kinds[None]
        cumulative_invalid += window_invalid
        cumulative_valid += kinds[None]
        timesteps += len(steps)
        diag = ppo_update(net, trajectory, ppo_cfg, optimizer, shuffle_rng)
        log_rows.append({
            "iteration": len(log_rows) + 1,
            "timesteps": timesteps,
            "episodes": episodes,
            "window_steps": len(steps),
            "window_invalid": window_invalid,
            **{f"invalid_{kind.replace('-', '_')}": kinds[kind] for kind in VIOLATIONS},
            "window_episodes": window_episodes,
            "cumulative_invalid": cumulative_invalid,
            "cumulative_valid": cumulative_valid,
            **{key: diag[key] for key in ("mean_reward", "policy_loss", "value_loss", "entropy",
                                          "clip_fraction", "approx_kl")},
        })
    return TrainResult(agent=PolicyAgent(net=net, state_scale=scale), seed=seed, alpha=alpha,
                       log_rows=log_rows, bounds_dict=env.bounds.to_dict())


def generate_workloads_reference(n_functions: int, n_nodes: int, config: WorkloadGenConfig,
                                 rng: np.random.Generator) -> list[np.ndarray]:
    """workload.generate_workloads one function at a time: per snapshot, the hotspot
    weights, then one Generator.uniform total per function, then each hotspot's drift."""
    hotspots = list(rng.choice(n_nodes, size=config.hotspot_count, replace=False))
    snapshots = []
    for _ in range(config.n_snapshots):
        weights = np.full(n_nodes, (1.0 - config.concentration) / n_nodes)
        for h in hotspots:
            weights[h] += config.concentration / len(hotspots)
        snap = np.empty((n_functions, n_nodes))
        for f in range(n_functions):
            ranges = config.per_function_rate_ranges
            total = rng.uniform(*(config.rate_range if ranges is None else ranges[f]))
            snap[f] = total * weights
        snapshots.append(snap)
        for k in range(len(hotspots)):
            if rng.random() < config.drift_prob:
                hotspots[k] = int(rng.integers(n_nodes))
    return snapshots


def random_scenario_reference(n_nodes: int, n_functions: int, rng: np.random.Generator,
                              name: str = "random") -> Scenario:
    """scenarios.random_scenario one node and one function at a time, each value one
    Generator.uniform call, its workload from generate_workloads_reference."""
    points = rng.uniform(0.0, 10.0, size=(n_nodes, 2))
    delays = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    delays = (delays + delays.T) / 2.0
    np.fill_diagonal(delays, 0.0)
    cores, memory = np.empty(n_nodes), np.empty(n_nodes)
    for j in range(n_nodes):
        cores[j] = rng.uniform(20.0, 100.0)
        memory[j] = rng.uniform(50.0, 500.0)
    function_memory, cores_per_request = np.empty(n_functions), np.empty((n_functions, n_nodes))
    for f in range(n_functions):
        function_memory[f] = rng.uniform(5.0, 40.0)
        cores_per_request[f] = rng.uniform(0.2, 1.2, size=n_nodes)
    cfg = WorkloadGenConfig(n_snapshots=1, rate_range=(4.0, 20.0), hotspot_count=min(2, n_nodes))
    snapshot = generate_workloads_reference(n_functions, n_nodes, cfg, rng)[0]
    return Scenario(
        topology=Topology(cores=cores, memory=memory, delays=delays),
        function_memory=function_memory,
        cores_per_request=cores_per_request,
        workload=snapshot,
        name=name,
    )
