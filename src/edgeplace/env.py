"""Placement environments: one episode at a time, or a window of them in lockstep.

One episode places every function of a workload snapshot, most demanding
first. Each observation is one float vector of length state_dim(N): the
flattened delay matrix, interleaved per-node residual (cores, memory), the
current function's workload row, memory statistics of the functions still
queued (queue_memory), and the cumulative delay. observe() writes that layout
for both environments and for build_state_scale.

PlacementEnv is the single-decision path that evaluation uses. It keeps one
episode's state on itself under LockstepEnv's names (available_cores,
available_memory, total_delay, total_cost), plus the placements and routes
made so far; a valid step assigns them and an invalid step leaves them as
they were. reset() lays out the episode's whole (F, state_dim(N))
observation matrix with one observe() call: the delay block, each step's
workload row and queue statistics, and step 0's residuals and cumulative
delay. Each step writes only the next row's residual cores, residual memory
and cumulative delay, and returns that row; no row is written after it is
handed out, and the next reset lays out a new matrix. The queue statistics
come from _queue_stats, a least recently used memo (at most
_QUEUE_STATS_ENTRIES) of read-only queue_memory results, keyed on the queued
functions' float64 memories in queue order, which is all queue_memory reads.
LockstepEnv is the training path: it steps E episodes together, with
residual cores and memory as (E, N) arrays and totals as (E,) arrays.
Each lockstep step runs the empty-placement and memory checks for all E
slots at once with array operations, then routes the slots still valid
with one routing.route_batch call, which owns the batched nearest-host fast
path, the exact fallback and the capacity test, and scores every slot with
batched sums. Every slot's violations, residuals, routing, totals and
observations are bit-identical to PlacementEnv.step on the same actions,
which a test pins. Both environments and the greedy baselines take their
queue order from queue_order's lexsort (make_queue for one snapshot), and
both environments take their queue statistics from queue_memory.

Rewards: each valid step re-normalizes the cumulative delay and cumulative
core cost into [-1, 1] against run-level bounds and returns their negated
alpha-blend, so 0-cost/0-delay scores +1 and worst-case scores -1. Invalid
steps (no node chosen, memory or core overdraft, unroutable traffic) score
a flat penalty below that range and commit nothing. The bounds widen in
episode order across a run, held as one RewardBounds, and
RewardBounds.score is the one scorer: PlacementEnv.step calls it on each
valid step against the env's own bounds. LockstepEnv steps placements only;
training (bench._rollout_window) scores each finished window, in episode
order, with its run's RewardBounds.score_window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .model import Scenario
from .ppo import PolicyAgent, deterministic_action_from_logits
from .routing import RoutingProblem, route_batch, solve_routing

PENALTY_REWARD = -2.0
_CORE_TOL = 1e-9
# _queue_stats' entries. Lookups (misses), alpha 0, seed 1: the agent's decisions on 20 and
# 150 evaluation snapshots after one cold 2048-step training make 20 (4) and 150 (4) on
# small-payload and 20 (1) and 150 (1) on large-payload; on random_scenario(10, 15) and
# (20, 30) with default_rng(1) no queue order repeats, so every lookup misses. A miss
# takes queue_memory's array path, the one LockstepEnv takes, so at scale a reset pays
# that path plus the key's bytes and one insert
_QUEUE_STATS_ENTRIES = 256
# LockstepEnv's violation codes: 0 is a valid step, k + 1 stands for VIOLATIONS[k]
VIOLATIONS = ("empty-placement", "memory", "routing-infeasible", "cores")
_EMPTY, _MEMORY, _UNROUTABLE, _CORES = range(1, len(VIOLATIONS) + 1)


# --------------------------------------------------------------------------
# state construction
# --------------------------------------------------------------------------


def state_dim(n_nodes: int) -> int:
    return n_nodes * n_nodes + 3 * n_nodes + 4


def make_queue(scenario: Scenario, workload: np.ndarray | None = None) -> list[int]:
    """queue_order of one (F, N) snapshot, the scenario's own by default, as a list.

    PlacementEnv.reset and both greedy baselines take their queue here.
    """
    w = scenario.workload if workload is None else workload
    return queue_order(scenario.function_memory, w).tolist()


def queue_order(memory: np.ndarray, workloads: np.ndarray) -> np.ndarray:
    """Placement order of one (F, N) snapshot or of each of an (E, F, N) stack:
    heaviest total workload first, then larger memory, then smaller id.

    Returns the (F,) or (E, F) function ids. LockstepEnv orders its stack
    here, and make_queue one snapshot.
    """
    totals = np.add.reduce(workloads, axis=-1)
    # lexsort sorts by its last key first and is stable, so ties keep id order; its keys
    # share one shape, so -memory is written into each row of an array shaped like totals
    return np.lexsort((np.negative(memory, out=np.empty_like(totals)), -totals))


def queue_memory(memory: np.ndarray, queues) -> np.ndarray:
    """Queue-memory statistics at every position of one queue (F,) or a stack (E, F).

    Entry [..., k] is (memory of the function placed at step k, mean and std
    of the memory of the functions queued after it), zeros when none are;
    returns (..., F, 3). Every mean and std has np.mean's and np.std's bits;
    a stack takes each call for all its rows at once.
    """
    queued = memory[np.asarray(queues)]
    n_functions = queued.shape[-1]
    stats = np.zeros(queued.shape + (3,))
    stats[..., 0] = queued
    if n_functions < 2:
        return stats
    # np.mean's and np.std's own ufunc calls, so the bits are theirs: each suffix summed
    # on its own, then the squared deviations from its mean, taken for all suffixes at once
    counts = np.arange(n_functions - 1, 0, -1)
    sums = np.empty(queued.shape[:-1] + (n_functions - 1,))
    for k in range(1, n_functions):
        np.add.reduce(queued[..., k:], axis=-1, out=sums[..., k - 1])
    means = sums / counts
    spread = queued[..., None, :] - means[..., None]
    spread *= spread
    for k in range(1, n_functions):
        np.add.reduce(spread[..., k - 1, k:], axis=-1, out=sums[..., k - 1])
    stats[..., :-1, 1] = means
    stats[..., :-1, 2] = np.sqrt(sums / counts)
    return stats


@functools.lru_cache(maxsize=_QUEUE_STATS_ENTRIES)
def _queue_stats(queued_key: bytes) -> np.ndarray:
    """queue_memory of one queue whose memories, in queue order, are the float64s
    in queued_key, as a read-only (F, 3) array."""
    queued = np.frombuffer(queued_key)
    stats = queue_memory(queued, np.arange(queued.size))
    stats.flags.writeable = False
    return stats


def observe(delays, cores, memory, rows, queued, total_delay, out=None) -> np.ndarray:
    """The (..., state_dim(N)) observations of one episode or a stack of them.

    cores is an (..., N) array. delays is the flattened delay matrix, memory
    and rows are (..., N), queued a (..., 3) queue_memory entry; a scalar
    fills its whole section. Given out, an array of that shape, they are
    written into it instead, and a section passed as None is left as it is.
    """
    n = cores.shape[-1]
    head = n * n
    if out is None:
        out = np.empty(cores.shape[:-1] + (state_dim(n),))
    if delays is not None:
        out[..., :head] = delays
    out[..., head : head + 2 * n : 2] = cores
    out[..., head + 1 : head + 2 * n : 2] = memory
    if rows is not None:
        out[..., head + 2 * n : head + 3 * n] = rows
    if queued is not None:
        out[..., head + 3 * n : -1] = queued
    out[..., -1] = total_delay
    return out


def build_state_scale(scenario: Scenario, snapshots: list[np.ndarray]) -> np.ndarray:
    """Fixed positive per-component scale so state entries land near [0, 1].

    The snapshots' rate maximum and their largest t_max_bound are taken on
    their (E, F, N) stack, each bound with the bits of its own snapshot's.
    Without snapshots both are 1.0, as the rate maximum is without rates.
    """
    rate_max = t_max = 1.0
    if snapshots:
        stack = np.stack(snapshots)
        rate_max = float(stack.max()) if stack.size else 1.0
        t_max = float(t_max_bound(scenario, stack).max())
    topology = scenario.topology
    return observe(
        delays=max(float(topology.delays.max()), 1.0),
        cores=np.maximum(topology.cores, 1.0),
        memory=np.maximum(topology.memory, 1.0),
        rows=max(rate_max, 1.0),
        queued=max(float(scenario.function_memory.max()), 1.0),
        total_delay=max(t_max, 1.0),
    )


# --------------------------------------------------------------------------
# reward normalization
# --------------------------------------------------------------------------


def _normalize(value: float, lo: float, hi: float) -> float:
    if hi - lo <= 1e-12:
        return -1.0  # degenerate window: best possible by convention
    return 2.0 * (value - lo) / (hi - lo) - 1.0


@dataclass(slots=True)
class RewardBounds:
    """A run's normalization window for cumulative delay and core cost, widened in place.

    Bounds only ever widen (within and across episodes of a run) so the
    reward scale cannot oscillate while training. A run starts c_max at the
    cluster's total cores, which no episode's cost can exceed, so each new
    episode widens only t_max, to that episode's t_max_bound. score()
    widens them to a valid step's cumulative delay t and cost c and returns
    minus the alpha-blend of t and c normalized to them: it scores
    PlacementEnv's steps and normalize_and_reward's, and score_window()
    scores a finished training window with widen() and score().
    """

    t_min: float = 0.0
    t_max: float = 0.0
    c_min: float = 0.0
    c_max: float = 0.0

    def to_dict(self) -> dict:
        return {"t_min": self.t_min, "t_max": self.t_max, "c_min": self.c_min, "c_max": self.c_max}

    def widen(self, t_upper: float) -> None:  # at each episode's start, to its t_max_bound
        self.t_max = max(self.t_max, t_upper)

    def score(self, t: float, c: float, alpha: float) -> float:
        self.t_min, self.t_max = min(self.t_min, t), max(self.t_max, t)
        self.c_min, self.c_max = min(self.c_min, c), max(self.c_max, c)
        t_norm = _normalize(t, self.t_min, self.t_max)
        c_norm = _normalize(c, self.c_min, self.c_max)
        return -(alpha * c_norm + (1.0 - alpha) * t_norm)

    def score_window(
        self, t_uppers: np.ndarray, delays: np.ndarray, costs: np.ndarray, valid: np.ndarray,
        alpha: float,
    ) -> np.ndarray:
        """The (E, F) rewards of a window of E episodes of F steps, taken in episode order.

        Episode e first widens t_max to t_uppers[e]; then each valid step k
        scores (delays[e, k], costs[e, k]) with score(), and each invalid step
        scores PENALTY_REWARD and moves no bound.
        """
        rewards = []
        rows = zip(t_uppers.tolist(), delays.tolist(), costs.tolist(), valid.tolist())
        for t_upper, t_row, c_row, ok_row in rows:
            self.widen(t_upper)
            rewards.append([self.score(t, c, alpha) if ok else PENALTY_REWARD
                            for t, c, ok in zip(t_row, c_row, ok_row)])
        return np.array(rewards).reshape(valid.shape)


def normalize_and_reward(
    t_total: float, c_total: float, bounds: RewardBounds, alpha: float
) -> tuple[float, RewardBounds]:
    """Blend normalized cumulative delay and cost into a reward in [-1, 1].

    Returns the reward and the widened bounds, a new RewardBounds: the one
    given is left as it was.
    """
    widened = replace(bounds)
    return widened.score(t_total, c_total, alpha), widened


def t_max_bound(scenario: Scenario, workload: np.ndarray) -> float | np.ndarray:
    """Upper bound on cumulative delay: every request crossing every link.
    A float for one (F, N) snapshot, an (E,) array for an (E, F, N) stack."""
    bound = np.add.reduce(workload * scenario.topology.delay_row_sums, axis=(-2, -1))
    return float(bound) if bound.ndim == 0 else bound


def cost_increment(routing: np.ndarray, workload_row: np.ndarray, cpr: np.ndarray) -> float:
    """Core-units consumed by one function's routed traffic."""
    weighted = routing * workload_row[:, None]
    weighted *= cpr
    return float(np.add.reduce(weighted, axis=None))


# --------------------------------------------------------------------------
# environments
# --------------------------------------------------------------------------


@dataclass(slots=True)
class StepOutcome:
    function_id: int
    reward: float
    done: bool
    valid: bool
    violation: str | None
    state: np.ndarray | None  # next observation vector, None when done


def _overdrawn(residual: np.ndarray) -> bool:
    """Whether a residual (N,) falls below -_CORE_TOL.

    A plain loop over its Python floats that returns at the first such
    value: at a few nodes cheaper than numpy's comparison and any(), and
    than any() over a generator. A NaN compares False, so it never counts.
    """
    for value in residual.tolist():
        if value < -_CORE_TOL:
            return True
    return False


class PlacementEnv:
    """One placement episode per reset, its state kept on the env.

    reset() sets the residual available_cores and available_memory (N,), the
    topology's own read-only arrays until a valid step replaces them, the
    total_delay and total_cost, and empty placements and routes dicts keyed
    by function id. A valid step assigns all six; an invalid step counts in
    invalid_steps and assigns none of them. The env keeps its run's reward
    bounds across resets in `bounds`, one RewardBounds that reset() widens
    and each valid step's RewardBounds.score widens and scores against. The
    observations reset() and step() return are the rows of one matrix per
    episode, each written once.
    """

    def __init__(self, scenario: Scenario, alpha: float):
        self.scenario = scenario
        self.alpha = float(alpha)
        self._delays = scenario.topology.delays
        self._delays_flat = self._delays.ravel()
        self.bounds = RewardBounds(c_max=scenario.topology.total_cores)
        self.workload = scenario.workload
        self.queue: list[int] = []
        self.invalid_steps = 0

    def reset(self, workload: np.ndarray | None = None) -> np.ndarray:
        if workload is not None:
            self.workload = workload
        self.bounds.widen(t_max_bound(self.scenario, self.workload))
        self.available_cores = self.scenario.topology.cores
        self.available_memory = self.scenario.topology.memory
        self.total_delay = 0.0
        self.total_cost = 0.0
        self.placements: dict[int, np.ndarray] = {}  # f -> bool (N,)
        self.routes: dict[int, np.ndarray] = {}  # f -> float (N, N)
        self.queue = make_queue(self.scenario, self.workload)
        self.invalid_steps = 0
        # the episode's observations, row k at step k: each step writes the next
        # row's residuals and cumulative delay and hands it out
        queued = self.scenario.function_memory.take(self.queue)
        self._states = observe(
            self._delays_flat, self.available_cores, self.available_memory,
            self.workload.take(self.queue, axis=0), _queue_stats(queued.tobytes()),
            self.total_delay,
            out=np.empty((len(self.queue), state_dim(len(self._delays)))),
        )
        return self._states[0]

    def step(self, action: np.ndarray) -> StepOutcome:
        if not self.queue:
            raise RuntimeError("step() after episode end; call reset()")
        placement = np.array(action, dtype=bool)  # a copy: self.placements keeps it
        n = len(self._delays)
        if placement.shape != (n,):
            raise ValueError(f"action has shape {placement.shape}, expected ({n},)")
        fid = self.queue.pop(0)
        violation = None

        if not any(placement.tolist()):
            violation = "empty-placement"
        else:
            # False * memory is 0.0, so unplaced nodes keep their residual bit for bit
            mem_after = self.available_memory - placement * self.scenario.function_memory[fid]
            if _overdrawn(mem_after):
                violation = "memory"
        if violation is None:
            row = self.workload[fid]
            cpr = self.scenario.cores_per_request[fid]
            solution = solve_routing(
                RoutingProblem(self._delays, row, placement, self.available_cores, cpr)
            )
            if not solution.feasible:
                violation = "routing-infeasible"
            else:
                routing = solution.routing
                # routing sends nothing to unplaced nodes, so their draw is exactly 0.0
                cores_after = self.available_cores - routing.T @ row * cpr
                if _overdrawn(cores_after):
                    violation = "cores"

        if violation is None:
            self.placements[fid] = placement
            self.routes[fid] = routing
            self.available_cores = cores_after
            self.available_memory = mem_after
            self.total_delay += solution.objective_delay
            self.total_cost += cost_increment(routing, row, cpr)
            reward = self.bounds.score(self.total_delay, self.total_cost, self.alpha)
        else:
            self.invalid_steps += 1
            reward = PENALTY_REWARD

        if not self.queue:
            return StepOutcome(fid, reward, True, violation is None, violation, None)
        # after k steps len(queue) == F - k, so this is row k
        state = observe(None, self.available_cores, self.available_memory, None, None,
                        self.total_delay, out=self._states[-len(self.queue)])
        return StepOutcome(fid, reward, False, violation is None, violation, state)


class LockstepEnv:
    """E placement episodes stepped together: PlacementEnv.step as array operations.

    Slot e runs one episode on workloads[e]. Residual cores and memory are
    (E, N) arrays and the totals (E,) arrays, updated by valid slots only.
    step() takes an (E, N) action batch and returns one violation code per
    slot: 0 for a valid step, k + 1 for VIOLATIONS[k]. It checks placement
    and memory, routes the remaining slots with route_batch, which decides
    routability as solve_routing does, and then checks the routed cores.
    `routing` holds the last step's (E, N, N) routings, zero for invalid
    slots, and `codes` the window's (E, F) violation codes so far. A step
    returns no reward: the run's bounds widen in episode order, so the
    caller scores a finished window from the totals after each step.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._delays = scenario.topology.delays
        self._delays_flat = self._delays.ravel()

    def reset(self, workloads: list[np.ndarray]) -> np.ndarray:
        """Start one episode per workload; returns the (E, state_dim) observations."""
        n_slots, n = len(workloads), self.scenario.n_nodes
        memory = self.scenario.function_memory
        self.workloads = np.stack(workloads)
        self.queues = queue_order(memory, self.workloads)
        self._queue_memory = queue_memory(memory, self.queues)
        self.available_cores = np.tile(self.scenario.topology.cores, (n_slots, 1))
        self.available_memory = np.tile(self.scenario.topology.memory, (n_slots, 1))
        self.total_delay = np.zeros(n_slots)
        self.total_cost = np.zeros(n_slots)
        self.routing = np.zeros((n_slots, n, n))
        self.codes = np.zeros(self.queues.shape, dtype=np.int8)
        self.position = 0
        self._slots = np.arange(n_slots)
        return self._observe()

    def _observe(self) -> np.ndarray:
        k = self.position
        return observe(
            self._delays_flat, self.available_cores, self.available_memory,
            self.workloads[self._slots, self.queues[:, k]], self._queue_memory[:, k],
            self.total_delay,
        )

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Place every slot's next function; returns (violation codes, observations or None)."""
        if self.position >= self.queues.shape[1]:
            raise RuntimeError("step() after episode end; call reset()")
        slots = self._slots
        n_slots, n = slots.size, self.scenario.n_nodes
        placement = np.asarray(actions, dtype=bool)
        if placement.shape != (n_slots, n):
            raise ValueError(f"actions have shape {placement.shape}, expected ({n_slots}, {n})")
        fids = self.queues[:, self.position]
        rows = self.workloads[slots, fids]
        cpr = self.scenario.cores_per_request[fids]
        codes = np.where(placement.any(axis=1), 0, _EMPTY).astype(np.int8)
        memory = self.scenario.function_memory[fids, None]
        mem_after = self.available_memory - np.where(placement, memory, 0.0)
        codes[(codes == 0) & (mem_after < -_CORE_TOL).any(axis=1)] = _MEMORY

        ok = np.flatnonzero(codes == 0)
        hosted = placement[ok]
        caps = np.where(hosted, np.maximum(self.available_cores[ok], 0.0) / cpr[ok], 0.0)
        routing = np.zeros((n_slots, n, n))
        routable, routing[ok] = route_batch(self._delays, rows[ok], hosted, caps)
        codes[ok[~routable]] = _UNROUTABLE
        # the sums total_delay and cost_increment take, one slot per row
        delay = (routing * self._delays * rows[:, :, None]).reshape(n_slots, -1).sum(axis=1)
        cost = (routing * rows[:, :, None] * cpr[:, None, :]).reshape(n_slots, -1).sum(axis=1)
        # the stacked matmul runs PlacementEnv's routing.T @ row slot by slot
        served = np.matmul(routing.transpose(0, 2, 1), rows[:, :, None])[:, :, 0]
        cores_after = self.available_cores - served * cpr
        codes[(codes == 0) & (cores_after < -_CORE_TOL).any(axis=1)] = _CORES
        valid = codes == 0
        self.available_cores = np.where(valid[:, None], cores_after, self.available_cores)
        self.available_memory = np.where(valid[:, None], mem_after, self.available_memory)
        self.total_delay += np.where(valid, delay, 0.0)
        self.total_cost += np.where(valid, cost, 0.0)
        routing[~valid] = 0.0
        self.routing = routing
        self.codes[:, self.position] = codes
        self.position += 1
        done = self.position == self.queues.shape[1]
        return codes, None if done else self._observe()


# --------------------------------------------------------------------------
# episode runner
# --------------------------------------------------------------------------


@dataclass
class EpisodeRecord:
    total_delay: float
    total_cost: float
    placements: dict[int, np.ndarray]
    routes: dict[int, np.ndarray]
    valid: bool


def run_episode(
    agent: PolicyAgent,
    env: PlacementEnv,
    workload: np.ndarray,
    deterministic: bool = True,
) -> EpisodeRecord:
    """Roll one snapshot through the policy's deterministic decisions.

    This is the evaluation runner; training samples its episodes in
    lockstep (bench.train_agent). `deterministic` names the only mode. Each
    step decodes its action from the net's logit row with
    deterministic_action_from_logits, which activates the nodes forward's
    probabilities would put at 0.5 or above, bit for bit, without building
    them; the value head is not read.
    """
    if not deterministic:
        raise ValueError("run_episode runs deterministic episodes only")
    state = env.reset(workload)
    done = False
    while not done:
        logits, _ = agent.net.forward(state / agent.state_scale)
        outcome = env.step(deterministic_action_from_logits(logits[0]))
        done = outcome.done
        state = outcome.state
    return EpisodeRecord(
        total_delay=env.total_delay,
        total_cost=env.total_cost,
        placements=dict(env.placements),
        routes=dict(env.routes),
        valid=env.invalid_steps == 0,
    )
