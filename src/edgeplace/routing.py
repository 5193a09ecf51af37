"""Optimal traffic routing for one function across its hosting nodes.

Each node i emits workload_row[i] requests/s for the function; requests may
be served on any hosting node j at delay cost delays[i, j] per request, and
node j can absorb at most available_cores[j] / cores_per_request[j]
requests/s. Minimizing total delay under those constraints is a capacitated
transportation problem in the shipped rates y[i, j] = x[i, j] * w[i]. A
dummy source with one constant cost, dearer than every real cell, absorbs
spare capacity, so the problem is balanced.

Each problem first gets the greedy start: the cells in (cost, column, row)
order, each shipping what its row and its column both have left. The
certificate (_certified) then looks for a cycle of request moves between
hosts that would lower the delay; a start without one is optimal and is
returned as it is. Any other problem is solved as a linear program by
HiGHS (scipy.optimize.linprog), which is the rare case: no preset problem
needs it.

Two routers share this: solve_routing routes one problem (one per
evaluation decision, baseline step or PlacementEnv step), route_batch S
problems on one delay matrix (one call per LockstepEnv training step).
solve_routing goes through _route, which reads each source's delays to the
hosts as Python lists from its plan (see Memos), runs the fast path's test
on Python floats, hands a problem that misses it to route_flows with the
same lists and, in one loop, writes each source's flows over its rate on a
copy of the plan's flat routing of the nodes without traffic. route_batch
runs the fast path's test on (S, N) arrays, and _route_rounds runs the
greedy start for every row that misses it at once and certifies them; a
routable row it does not certify gets route_flows on its own cost rows,
and unit_rows divides the flows of both. Both routers rescale the rows by
their numpy sums as _rescale_rows does, so they agree bit for bit; _route
divides without _rescale_rows' mask when no row sums to zero, which is
the same division. The capacity test is _over_capacity, which route_flows
calls on Python floats and _route_rounds on arrays, both on sums taken
left to right from 0.0 (numpy's order for fewer than 8 terms, and
cumsum's for any number).

Fast path: when every source's lowest-delay host (the lowest node index on
ties) has room for all the traffic sent to it with a relative margin of
1e-12, that one-hot routing is returned without calling route_flows. Both
routers add each host's load from 0.0 in source order, as bincount adds,
and take the path when every load <= capacity * _FAST_MARGIN, so they take
it on the same problems. It is the routing route_flows returns: the greedy
start visits each source's cells in (cost, column) order, so it ships the
whole source to that host while the host still has room, and a start in
which every request pays its minimum delay passes the certificate. The
margin covers the float dust of the greedy's one-at-a-time capacity
updates; a host loaded to equality, or within the margin of it, takes the
slow path. When every load fits, demand is within capacity, so the fast
path needs no capacity test.

Memos: every slot of a training run routes on one delay matrix, and an
evaluation routes the same few (sources, hosts) problems on one matrix.
Least-recently-used tables keep what depends on the matrices alone.
_plan (at most _PLAN_ENTRIES), keyed on the delay matrix's float64 bytes,
N, the sources and the hosts, holds _route's cost lists, each source's
first-minimum host, the flat routing of the nodes without traffic and the
fast path's routing; on the problem's first miss of the fast path it adds
_balanced's cost matrix with its dummy row, its greedy order and a dict of
the plan's own certificate verdicts, keyed on the cells of a greedy start
that carry flow (a verdict follows from the costs and those cells, never
from the amounts). Only solve_routing reads a plan; route_flows certifies
a problem without one afresh.
_schedule (at most _SCHEDULE_ENTRIES), keyed on the delay matrix's bytes,
holds the full matrix's greedy order cut into rounds of cells that share no
row or column, and the cost of moving a request between two hosts through
each source, for _route_rounds. Each _schedule entry also holds a third
table, its verdicts (at most _VERDICT_ENTRIES, see _verdicts): keyed on the
packed bits of a row's support pattern, the (N + 1, N) cells of its greedy
start that carry flow, it holds _certified's verdict on that pattern, which
follows from the entry's move costs and those cells alone. _greedy_order has
no table: it runs when a _plan entry gets its balanced matrix, a _schedule
entry is built or route_flows gets a problem without a plan. A hit returns
what a miss computes from equal keys, and the greedy allocation still runs
on each problem's own rates and capacities, so memoised flows are the flows
of a cold call, byte for byte.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

_EPS_FEAS = 1e-9
_FAST_MARGIN = 1.0 - 1e-12  # nearest-host path needs every load <= capacity * this
_SCHEDULE_ENTRIES = 16
# a schedule's verdicts. Share of row lookups that certify nothing new (patterns
# certified), alpha 0, seed 1, one cold training: small-payload 76% (172) at 2048 steps
# and 96.9% (245) at 20,480; large-payload 75% (153) at 2048; random_scenario(10, 15)
# with default_rng(1) 27% (421) at 2048 and 77% (2021) at 20,480, and (20, 30) 0% (261)
# at 2048
_VERDICT_ENTRIES = 4096
# solve_routing's plans: a preset evaluation meets 3 (sources, hosts) pairs, a 20-node one tens
_PLAN_ENTRIES = 256
# a greedy start is certified when no cycle of request moves costs below -_EPS_CERTIFY
_EPS_CERTIFY = 5e-11


# RoutingProblem and RoutingSolution are built once per agent step and once per
# baseline step, so they are slotted and built positionally, and not frozen:
# frozen sets each field through object.__setattr__, which costs more than the
# rest of a build, and nothing rebinds their fields. They stay dataclasses, so
# dataclasses.replace derives one problem from another.
@dataclass(slots=True)
class RoutingProblem:
    delays: np.ndarray  # (N, N) ms
    workload_row: np.ndarray  # (N,) requests/s for this function
    placement: np.ndarray  # (N,) bool, hosting nodes
    available_cores: np.ndarray  # (N,) residual core-units
    cores_per_request: np.ndarray  # (N,) core-units consumed per request/s


@dataclass(slots=True)
class RoutingSolution:
    status: str  # "optimal" or "infeasible"
    routing: np.ndarray | None  # (N, N), rows sum to 1 when optimal
    objective_delay: float | None  # total weighted delay, ms*requests/s

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


def chosen_nodes(placement: np.ndarray) -> list[int]:
    """Indices selected by a boolean placement vector, ascending."""
    return np.asarray(placement, dtype=bool).nonzero()[0].tolist()


def total_delay(routing: np.ndarray, workload_row: np.ndarray, delays: np.ndarray) -> float:
    """Aggregate delay of a routing split: sum_ij x[i,j] * w[i] * delta[i,j]."""
    # np.add.reduce over all axes is the call np.sum makes, without its wrapper
    weighted = routing * delays
    weighted *= np.asarray(workload_row, dtype=float)[:, None]
    return float(np.add.reduce(weighted, axis=None))


def unit_rows(flows: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Routing fractions from (..., N, N) flows and the (..., N) source rates.

    Each row with traffic is its flows over its rate, rescaled by
    _rescale_rows; a row without traffic stays zero.
    """
    rates = rates[..., None]
    return _rescale_rows(np.divide(flows, rates, out=np.zeros_like(flows), where=rates > 0))


def _rescale_rows(x: np.ndarray) -> np.ndarray:
    """x with each row of positive sum divided, in place, by its np.add.reduce sum.

    A row of fractions then sums to exactly 1 despite float dust. numpy sums
    rows of 8 or more entries pairwise, so no Python sum may stand in here.
    """
    sums = np.add.reduce(x, axis=-1, keepdims=True)
    np.divide(x, sums, out=x, where=sums > 0)
    return x


def solve_routing(problem: RoutingProblem) -> RoutingSolution:
    """Minimum-delay routing, or infeasible if demand exceeds capacity."""
    chosen = chosen_nodes(problem.placement)
    if chosen:
        w = np.asarray(problem.workload_row, dtype=float)
        cores, cpr = problem.available_cores.tolist(), problem.cores_per_request.tolist()
        # max(c, 0.0) as Python takes it: 0.0 only when 0.0 > c
        x = _route(np.ascontiguousarray(problem.delays, dtype=float).tobytes(), w.tolist(),
                   chosen, [(0.0 if 0.0 > cores[j] else cores[j]) / cpr[j] for j in chosen])
        if x is not None:
            return RoutingSolution("optimal", x, total_delay(x, w, problem.delays))
    return RoutingSolution("infeasible", None, None)


def _route(
    delays_key: bytes, rates: list[float], chosen: list[int], caps: list[float]
) -> np.ndarray | None:
    """solve_routing's (N, N) routing of one problem, or None when demand exceeds capacity.

    delays_key holds the (N, N) float64 delay matrix, rates[i] is what node i
    sends, chosen the hosts in ascending order and caps[k] what chosen[k] can
    absorb, in requests/s.
    """
    n = len(rates)
    sources = tuple([i for i in range(n) if rates[i] > 0])
    plan = _plan(delays_key, n, sources, tuple(chosen))
    # the hosts' loads summed from 0.0 in source order
    load = [0.0] * len(chosen)
    for i, k in zip(sources, plan.nearest):
        load[k] += rates[i]
    for host_load, cap in zip(load, caps):
        if not host_load <= cap * _FAST_MARGIN:
            break
    else:  # every host fits its load
        return plan.one_hot.copy()
    if plan.balanced is None:
        plan.balanced = _balanced(plan.cost)
    flows = route_flows(plan.cost, [rates[i] for i in sources], caps, plan.balanced)
    if flows is None:
        return None
    # unit_rows' fractions: each source's flows over its rate, on the plan's routing of
    # the nodes without traffic
    flat = plan.idle.copy()
    for i, source_flows in zip(sources, flows):
        rate, row = rates[i], i * n
        for j, flow in zip(chosen, source_flows):
            flat[row + j] = flow / rate
    x = np.array(flat).reshape(n, n)
    sums = np.add.reduce(x, axis=-1, keepdims=True)
    if 0.0 in sums.ravel().tolist():  # a source that ships nothing keeps its zero row
        return _rescale_rows(x)
    x /= sums  # _rescale_rows' division, where every row passes its mask
    return x


@dataclass
class _Plan:
    """What _route needs of one (delay matrix, sources, hosts) problem's topology."""

    cost: list[list[float]]  # cost[s][k], the delay from sources[s] to hosts[k]
    # the first minimum of each cost row: the greedy start's first cell on it
    nearest: list[int]
    # (N * N,) the flat routing of the nodes without traffic, row after row: 1.0 on the
    # lowest-index host, zero elsewhere and on every source's row. The slow path
    # writes its sources' fractions on a copy of it
    idle: list[float]
    # (N, N) read-only, the fast path's routing: idle with each source sent to its
    # nearest host; unit_rows would build it from route_flows' flows, y / w exactly 1.0
    one_hot: np.ndarray
    balanced: tuple | None = None  # _balanced(cost) and its verdicts, from the first slow path


@functools.lru_cache(maxsize=_PLAN_ENTRIES)
def _plan(delays_key: bytes, n: int, sources: tuple[int, ...], hosts: tuple[int, ...]) -> _Plan:
    """The plan of routing sources to hosts on the (n, n) float64 delay matrix in delays_key."""
    cost = np.frombuffer(delays_key).reshape(n, n)[np.ix_(sources, hosts)].tolist()
    nearest = [row.index(min(row)) for row in cost]
    idle = [0.0] * (n * n)
    for i in set(range(n)).difference(sources):
        idle[i * n + hosts[0]] = 1.0
    one_hot = np.array(idle).reshape(n, n)
    for i, k in zip(sources, nearest):
        one_hot[i, hosts[k]] = 1.0
    one_hot.flags.writeable = False
    return _Plan(cost, nearest, idle, one_hot)


def route_batch(
    delays: np.ndarray, rows: np.ndarray, placement: np.ndarray, caps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """solve_routing for S problems on one delay matrix, one problem per row.

    rows holds the (S, N) source rates, placement the (S, N) hosts (at least
    one per row) and caps what each host can absorb in requests/s, zero off
    the placement. Returns which rows are routable and their (S, N, N)
    routings, zero for an unroutable row.

    Rows that miss the fast path go through _route_rounds together; a row
    it finds routable but cannot certify gets route_flows on its cost rows,
    cut from the float64 delay matrix. No row reads a _plan.
    """
    n_rows, n = rows.shape
    index = np.arange(n_rows)
    nearest = np.where(placement[:, None, :], delays, np.inf).argmin(axis=2)
    hosts = np.where(rows > 0, nearest, placement.argmax(axis=1)[:, None])
    bins = (index[:, None] * n + hosts).ravel()
    load = np.bincount(bins, weights=rows.ravel(), minlength=n_rows * n).reshape(n_rows, n)
    routable = np.ones(n_rows, dtype=bool)
    routings = np.zeros((n_rows, n, n))
    routings[index[:, None], np.arange(n), hosts] = 1.0
    slow = np.flatnonzero(~(load <= caps * _FAST_MARGIN).all(axis=1))
    if not slow.size:
        return routable, routings
    matrix = np.ascontiguousarray(delays, dtype=float)
    rates, hosted, room = rows[slow], placement[slow], caps[slow]
    fits, certified, flows = _route_rounds(_schedule(n, matrix.tobytes()), rates, hosted, room)
    for s in np.flatnonzero(fits & ~certified).tolist():
        sources, chosen = np.flatnonzero(rates[s] > 0), np.flatnonzero(hosted[s])
        block = np.ix_(sources, chosen)
        flows[s][block] = route_flows(matrix[block].tolist(), rates[s, sources].tolist(),
                                      room[s, chosen].tolist())
    routable[slow] = fits
    done = slow[fits]
    exact = unit_rows(flows[fits], rates[fits])
    # sources without traffic keep the fast path's lowest-index host
    routings[done] = np.where(rows[done, :, None] > 0, exact, routings[done])
    routings[~routable] = 0.0
    return routable, routings


@dataclass(frozen=True)
class _Schedule:
    """What _route_rounds needs of one (N, N) delay matrix."""

    # the greedy start's cells in rounds, no row or column twice in one: each round's
    # first and stop position in the visit order, and its lines, the rows then N + the columns
    rounds: tuple[tuple[int, int, np.ndarray], ...]
    cells: np.ndarray  # (N * N,) the visit position of cell (i, j) at i * N + j
    # moves[i, j, k] = delays[i, k] - delays[i, j]: the cost of row i shifting a request
    # from host j to host k; zero on the dummy row N, whose cost is one constant
    moves: np.ndarray
    # _certified's verdict on moves, least recently used first, keyed on the packed bits
    # of an (N + 1, N) support pattern: the cells that carry flow
    verdicts: OrderedDict = field(default_factory=OrderedDict, compare=False, repr=False)


@functools.lru_cache(maxsize=_SCHEDULE_ENTRIES)
def _schedule(n: int, delays_key: bytes) -> _Schedule:
    """The greedy rounds and move costs of the (n, n) float64 delay matrix in delays_key.

    A problem's greedy start visits its cells in _greedy_order, which is the
    order of the full matrix's cells restricted to its sources and hosts. A
    cell goes in the first round after every earlier cell on its row or
    column, so each cell of a round meets the residuals the one-at-a-time
    visit leaves it, and the full matrix's other cells allocate nothing.
    route_flows prices its dummy row 1.0 above the problem's dearest cell, so
    for delays below 2**53 the dummy's cells come after every real one and
    are left out of the rounds.
    """
    delays = np.frombuffer(delays_key).reshape(n, n)
    row_round, col_round = [0] * n, [0] * n
    cells: list[list[tuple[int, int]]] = []
    for i, j in _greedy_order(delays.tolist()):
        r = max(row_round[i], col_round[j])
        row_round[i] = col_round[j] = r + 1
        if r == len(cells):
            cells.append([])
        cells[r].append((i, j))
    rounds, visits = [], []
    for round_cells in cells:
        rows, cols = np.array(round_cells).T
        rounds.append((len(visits), len(visits) + len(rows), np.concatenate([rows, n + cols])))
        visits.extend(rows * n + cols)
    moves = np.zeros((n + 1, n, n))
    moves[:n] = delays[:, None, :] - delays[:, :, None]
    return _Schedule(tuple(rounds), np.argsort(visits), moves)


def _route_rounds(
    schedule: _Schedule, rows: np.ndarray, placement: np.ndarray, caps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """route_flows on S problems at once, for the rows it can certify.

    Arguments are route_batch's. Returns fits (S,), whether each row passes
    route_flows' capacity test; certified (S,), the rows whose greedy start
    _certified accepts; and the (S, N, N) greedy flows, which on a fitting,
    certified row are route_flows' flows byte for byte, from source i to
    host j at [i, j].

    The dummy source here holds all the capacity the real ones leave, so it
    has flow on every host where route_flows' dummy has some: route_flows
    meets a subset of these cells, and so certifies every row certified
    here.
    """
    n_rows, n = rows.shape
    supply = np.where(rows > 0, rows, 0.0)
    room = np.where(placement, caps, 0.0)
    # cumsum adds left to right, as _total does; the zeros it meets change no sum
    fits = ~_over_capacity(supply.cumsum(axis=1)[:, -1], room.cumsum(axis=1)[:, -1])
    # what each source, then each host, has left: one problem per column
    left = np.concatenate([supply.T, room.T])
    visits = np.empty((n * n, n_rows))
    for first, stop, lines in schedule.rounds:
        pair = left[lines].reshape(2, stop - first, n_rows)
        # min(rs, rc) as Python takes it: rc only when rc < rs
        alloc = np.minimum(pair[1], pair[0], out=visits[first:stop])
        pair -= alloc
        left[lines] = pair.reshape(-1, n_rows)
    # (N + 1, N, S) flows, the dummy source's row last
    flows = np.concatenate([visits[schedule.cells], left[n:]]).reshape(n + 1, n, n_rows)
    certified = _verdicts(schedule, flows > 0.0)
    return fits, certified, np.ascontiguousarray(flows[:n].transpose(2, 0, 1))


def _verdicts(schedule: _Schedule, flowing: np.ndarray) -> np.ndarray:
    """_certified(schedule.moves, flowing), each row's verdict looked up in schedule.verdicts.

    flowing (N + 1, N, S) marks each problem's cells with flow. The patterns
    the table lacks are certified together in one _certified call, once
    each, and added to it; the table keeps its _VERDICT_ENTRIES most
    recently used patterns.
    """
    n_rows = flowing.shape[-1]
    packed = np.packbits(flowing.reshape(-1, n_rows).T, axis=1)
    width = packed.shape[1]
    raw = packed.tobytes()
    keys = [raw[pos : pos + width] for pos in range(0, n_rows * width, width)]
    table = schedule.verdicts
    certified = np.empty(n_rows, dtype=bool)
    misses: dict[bytes, list[int]] = {}  # each missing pattern's rows
    for s, key in enumerate(keys):
        verdict = table.get(key)
        if verdict is None:
            misses.setdefault(key, []).append(s)
        else:
            table.move_to_end(key)
            certified[s] = verdict
    if misses:
        firsts = [rows[0] for rows in misses.values()]
        for (key, rows), verdict in zip(misses.items(),
                                        _certified(schedule.moves, flowing[..., firsts]).tolist()):
            certified[rows] = verdict
            table[key] = verdict
        while len(table) > _VERDICT_ENTRIES:
            table.popitem(last=False)
    return certified


def _certified(moves: np.ndarray, flowing: np.ndarray) -> np.ndarray:
    """Whether S problems' flows leave no cycle that lowers the delay by _EPS_CERTIFY or more.

    moves[i, j, k] (R, K, K) is the cost of source i shifting one request
    from host j to host k, zero on the dummy source, whose cost is one
    constant; flowing (R, K, S) marks the cells that carry flow in each
    problem. Returns (S,) bools.

    Flows that meet every row's supply and every host's capacity, as a
    balanced problem's do, are optimal when no cycle of such shifts, each
    through a source with flow on the host it leaves, lowers the delay
    (Klein's cycle-cancelling condition): any other feasible flow differs
    from them by such cycles. W[j, k], the cheapest shift from host j to
    host k, is the minimum over the sources with flow on j, and one
    Floyd-Warshall pass over W finds the cheapest cycle through every host.
    A cycle above -_EPS_CERTIFY lowers the delay by less than 5e-11 per
    request moved, which covers the rounding of the path sums.
    """
    cheapest = np.where(flowing[:, :, None], moves[..., None], np.inf).min(axis=0)
    hosts = np.arange(len(cheapest))
    for k in hosts:
        np.minimum(cheapest, cheapest[:, k, None] + cheapest[k], out=cheapest)
    return (cheapest[hosts, hosts] >= -_EPS_CERTIFY).all(axis=0)


def _total(values: list[float]) -> float:
    """Left-to-right sum from 0.0, numpy's order for fewer than 8 terms.

    Python's sum() compensates float sums from 3.12 on, so it is not used.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _over_capacity(supply_total, caps_total):
    """The capacity test: demand above capacity by more than a relative _EPS_FEAS.

    Takes two floats (route_flows) or two arrays of them (_route_rounds). The
    floor of 1.0 under caps_total is Python's max on a float, which returns
    a float, and np.maximum on an array; both give the larger value, and a
    NaN total fails the test either way.
    """
    if isinstance(caps_total, float):
        return supply_total > caps_total + _EPS_FEAS * max(1.0, caps_total)
    return supply_total > caps_total + _EPS_FEAS * np.maximum(1.0, caps_total)


def route_flows(
    cost: list[list[float]], supply: list[float], caps: list[float], balanced: tuple | None = None
) -> list[list[float]] | None:
    """Least-delay flows from sources to hosts, or None when demand exceeds capacity.

    cost[i][j] is the delay from source i to host j, supply[i] > 0 the
    source's requests/s and caps[j] the requests/s host j can absorb. Returns
    flows[i][j], the requests/s source i sends to host j. balanced, when
    given, is _balanced(cost), whose verdicts the call reads and adds to.
    """
    supply_total, caps_total = _total(supply), _total(caps)
    if _over_capacity(supply_total, caps_total):
        return None
    cost, order, verdicts = balanced or _balanced(cost)
    spare = max(caps_total - supply_total, 0.0)
    return _transport(cost, supply + [spare], caps, order=order, verdicts=verdicts)[:-1]


def _balanced(cost: list[list[float]]) -> tuple:
    """cost with the dummy source's row appended, its _greedy_order and an empty verdict dict.

    The dummy source soaks up spare capacity. Its cost is one constant for
    the whole row (so the optimum is unchanged) and higher than any real cell
    (so real traffic claims equally-cheap columns in index order first).
    """
    balanced = cost + [[max(map(max, cost)) + 1.0] * len(cost[0])]
    return balanced, _greedy_order(balanced), {}


def _greedy_order(cost: list[list[float]]) -> tuple[tuple[int, int], ...]:
    """Every cell (i, j) by (cost, column, row): the order the greedy start visits them in."""
    cells = sorted((c, j, i) for i, row in enumerate(cost) for j, c in enumerate(row))
    return tuple((i, j) for _, j, i in cells)


def _transport(
    cost: list[list[float]], supply: list[float], caps: list[float], *,
    order: tuple[tuple[int, int], ...], verdicts: dict[tuple[int, ...], bool]
) -> list[list[float]]:
    """Least-cost flows of a balanced problem: its greedy start if certified, else HiGHS's.

    order is the cost's _greedy_order; verdicts maps the cells i * K + j of a
    greedy start that carry flow to _certified's verdict, and gains the ones it lacks.
    """
    k = len(caps)
    y = [[0.0] * k for _ in supply]
    rs, rc = list(supply), list(caps)
    support = []
    for i, j in order:
        # min(rs[i], rc[j]) as Python takes it: rc[j] only when rc[j] < rs[i]
        alloc, room = rs[i], rc[j]
        if room < alloc:
            alloc = room
        if alloc > 0.0:
            y[i][j] = alloc
            support.append(i * k + j)
            rs[i] -= alloc
            rc[j] -= alloc
    key = tuple(support)
    verdict = verdicts.get(key)
    if verdict is None:
        costs = np.array(cost)
        flowing = np.zeros(costs.size, dtype=bool)
        flowing[support] = True
        moves = costs[:, None, :] - costs[:, :, None]
        verdict = verdicts[key] = bool(_certified(moves, flowing.reshape(costs.shape + (1,)))[0])
    if verdict:
        return y
    # rows ship at most their supply and hosts take exactly their capacity, which
    # balances up to rounding; supply above capacity by up to _EPS_FEAS stays feasible.
    # HiGHS's smallest reduced-cost tolerance keeps its optimum within 1e-10 per request
    m = len(supply)
    res = linprog(np.ravel(cost), A_ub=np.kron(np.eye(m), np.ones(k)), b_ub=supply,
                  A_eq=np.tile(np.eye(k), m), b_eq=caps, method="highs",
                  options={"dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(_failure(f"HiGHS status {res.status} ({res.message})",
                                    cost, supply, caps))
    return np.where(res.x > 0.0, res.x, 0.0).reshape(m, k).tolist()  # no -0.0 or dust below 0


def _failure(cause: str, cost: list[list[float]], supply: list[float], caps: list[float]) -> str:
    """Error text that carries the instance, so a failed solve can be replayed."""
    return f"{cause}: cost={cost} supply={supply} caps={caps}"
