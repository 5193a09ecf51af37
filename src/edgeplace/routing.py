"""Optimal traffic routing for one function across its hosting nodes.

Each node i emits workload_row[i] requests/s for the function; requests may
be served on any hosting node j at delay cost delays[i, j] per request, and
node j can absorb at most available_cores[j] / cores_per_request[j]
requests/s. Minimizing total delay under those constraints is a capacitated
transportation problem in the shipped rates y[i, j] = x[i, j] * w[i], which
is solved here with a transportation simplex (deterministic min-cost initial
basis, Bland's rule). A dummy source with one constant cost absorbs spare
capacity.

Fast path: when every source's lowest-delay host (the lowest node index on
ties) has room for all the traffic sent to it with a relative margin of
1e-12, that one-hot routing is returned without running the simplex. It is
the routing the simplex returns: the greedy start visits each source's cells
in (cost, column) order, so it ships the whole source to that host while the
host still has room, and a start in which every request pays its minimum
delay is optimal, so no pivot moves flow. The margin covers the float dust
of the greedy's one-at-a-time capacity updates; a host loaded to equality,
or within the margin of it, takes the simplex path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS_REDUCED = 1e-10  # reduced-cost threshold for entering variable
_EPS_FEAS = 1e-9
_MAX_PIVOTS = 20000
_FAST_MARGIN = 1.0 - 1e-12  # nearest-host path needs every load <= capacity * this


@dataclass(frozen=True)
class RoutingProblem:
    delays: np.ndarray  # (N, N) ms
    workload_row: np.ndarray  # (N,) requests/s for this function
    placement: np.ndarray  # (N,) bool, hosting nodes
    available_cores: np.ndarray  # (N,) residual core-units
    cores_per_request: np.ndarray  # (N,) core-units consumed per request/s


@dataclass(frozen=True)
class RoutingSolution:
    status: str  # "optimal" or "infeasible"
    routing: np.ndarray | None  # (N, N), rows sum to 1 when optimal
    objective_delay: float | None  # total weighted delay, ms*requests/s

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


def chosen_nodes(placement: np.ndarray) -> list[int]:
    """Indices selected by a boolean placement vector, ascending."""
    return np.flatnonzero(np.asarray(placement, dtype=bool)).tolist()


def total_delay(routing: np.ndarray, workload_row: np.ndarray, delays: np.ndarray) -> float:
    """Aggregate delay of a routing split: sum_ij x[i,j] * w[i] * delta[i,j]."""
    return float(np.sum(routing * delays * np.asarray(workload_row, dtype=float)[:, None]))


def _capacities(problem: RoutingProblem, chosen: list[int]) -> np.ndarray:
    cores = np.maximum(problem.available_cores[chosen], 0.0)
    cpr = problem.cores_per_request[chosen]
    return cores / cpr


def _expand_solution(
    problem: RoutingProblem, chosen: list[int], sources: list[int], y: np.ndarray
) -> RoutingSolution:
    n = problem.workload_row.shape[0]
    w = problem.workload_row
    rows = y / w[sources][:, None]
    sums = rows.sum(axis=1, keepdims=True)
    np.divide(rows, sums, out=rows, where=sums > 0)  # exact unit row sums despite simplex dust
    x = np.zeros((n, n))
    x[np.ix_(sources, chosen)] = rows
    x[w <= 0, chosen[0]] = 1.0  # no traffic: route to lowest-index host
    return RoutingSolution(
        status="optimal", routing=x, objective_delay=total_delay(x, w, problem.delays)
    )


def solve_routing(problem: RoutingProblem) -> RoutingSolution:
    """Minimum-delay routing, or infeasible if demand exceeds capacity."""
    chosen = chosen_nodes(problem.placement)
    if not chosen:
        return RoutingSolution(status="infeasible", routing=None, objective_delay=None)
    w = np.asarray(problem.workload_row, dtype=float)
    sources = np.flatnonzero(w > 0).tolist()
    caps = _capacities(problem, chosen)
    supply = w[sources]
    supply_total = float(supply.sum())
    caps_total = float(caps.sum())
    if supply_total > caps_total + _EPS_FEAS * max(1.0, caps_total):
        return RoutingSolution(status="infeasible", routing=None, objective_delay=None)
    if not sources:
        return _expand_solution(problem, chosen, sources, np.zeros((0, len(chosen))))
    cost = problem.delays[sources][:, chosen].astype(float, copy=False)
    nearest = cost.argmin(axis=1)  # first minimum: the greedy start's first cell per row
    load = np.bincount(nearest, weights=supply, minlength=len(chosen))
    if (load <= caps * _FAST_MARGIN).all():
        # the one-hot rows _expand_solution would build: y / w is exactly 1.0
        x = np.zeros((w.shape[0], w.shape[0]))
        x[sources, np.asarray(chosen)[nearest]] = 1.0
        x[w <= 0, chosen[0]] = 1.0
        return RoutingSolution(
            status="optimal", routing=x, objective_delay=total_delay(x, w, problem.delays)
        )
    # dummy source soaks up spare capacity; its cost is one constant for the
    # whole row (so the optimum is unchanged) and higher than any real cell
    # (so real traffic claims equally-cheap columns in index order first)
    cost = np.vstack([cost, np.full(len(chosen), cost.max() + 1.0 if cost.size else 1.0)])
    supply = np.append(supply, max(caps_total - supply_total, 0.0))
    y = _transport_simplex(cost, supply, caps)
    return _expand_solution(problem, chosen, sources, y[:-1])


# --------------------------------------------------------------------------
# transportation simplex internals
# --------------------------------------------------------------------------


def _initial_basis(cost: list[list[float]], supply: np.ndarray, caps: np.ndarray):
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
    _repair_basis(basis, cost, m, n)
    return y, basis


def _repair_basis(basis: list[tuple[int, int]], cost: list[list[float]], m: int, n: int) -> None:
    """Pad the basis with zero cells until it spans all rows and columns.

    Float dust in the greedy can leave the basis one short of the m+n-1
    spanning tree the dual computation needs; connect components with the
    cheapest admissible cells (never creating a cycle).
    """
    parent = list(range(m + n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in basis:
        parent[find(i)] = find(m + j)
    if len(basis) == m + n - 1:
        return
    order = sorted((cost[i][j], j, i) for i in range(m) for j in range(n))
    for _, j, i in order:
        if len(basis) == m + n - 1:
            break
        ri, rj = find(i), find(m + j)
        if ri != rj:
            parent[ri] = rj
            basis.append((i, j))


def _duals(basis: list[tuple[int, int]], cost: list[list[float]], m: int, n: int):
    """Potentials u, v with u[i] + v[j] = cost[i][j] on every basic cell.

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


def _transport_simplex(cost: np.ndarray, supply: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Balanced transportation solve; returns the flow matrix y."""
    m, n = cost.shape
    cost_rows = cost.tolist()
    y, basis = _initial_basis(cost_rows, supply, caps)
    basic_mask = np.zeros((m, n), dtype=bool)
    for i, j in basis:
        basic_mask[i, j] = True
    for _ in range(_MAX_PIVOTS):
        duals = _duals(basis, cost_rows, m, n)
        if duals is None:
            raise RuntimeError(_failure("basis does not span the transportation graph",
                                        cost, supply, caps))
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
    raise RuntimeError(_failure("transportation simplex exceeded pivot limit", cost, supply, caps))


def _failure(cause: str, cost: np.ndarray, supply: np.ndarray, caps: np.ndarray) -> str:
    """Error text that carries the instance, so a failed solve can be replayed."""
    return f"{cause}: cost={cost.tolist()} supply={supply.tolist()} caps={caps.tolist()}"
