"""Sequential placement environment.

One episode places every function of a workload snapshot, most demanding
first. Each observation is one float vector of length state_dim(N): the
flattened delay matrix, interleaved per-node residual (cores, memory), the
current function's workload row, memory statistics of the functions still
queued, and the cumulative delay. The environment keeps one DeploymentState
per episode; a valid step records its placement and routing there in place
through DeploymentState.place, and an invalid step leaves it untouched.

Rewards: each valid step re-normalizes the cumulative delay and cumulative
core cost into [-1, 1] against run-level bounds and returns their negated
alpha-blend, so 0-cost/0-delay scores +1 and worst-case scores -1. Invalid
steps (no node chosen, memory or core overdraft, unroutable traffic) score
a flat penalty below that range and commit nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Scenario, initial_deployment
from .ppo import PolicyAgent, Trajectory, deterministic_action, forward, sample_action
from .routing import RoutingProblem, solve_routing

PENALTY_REWARD = -2.0
_CORE_TOL = 1e-9
_QUEUE_STATS_CACHE = 4096  # queue orders whose statistics one environment keeps


# --------------------------------------------------------------------------
# state construction
# --------------------------------------------------------------------------


def state_dim(n_nodes: int) -> int:
    return n_nodes * n_nodes + 3 * n_nodes + 4


def make_queue(scenario: Scenario, workload: np.ndarray | None = None) -> list[int]:
    """Placement order: heaviest total workload first, then larger memory,
    then smaller id."""
    w = scenario.workload if workload is None else workload
    totals = w.sum(axis=1)
    mem = scenario.function_memory()
    return sorted(
        range(scenario.n_functions), key=lambda f: (-totals[f], -mem[f], f)
    )


def _queue_memory(queued: np.ndarray) -> np.ndarray:
    """(memory of the first queued function, mean and std of the others)."""
    rest = queued[1:]
    if rest.size:
        return np.array([queued[0], rest.mean(), rest.std()])
    return np.array([queued[0], 0.0, 0.0])


def build_state_scale(scenario: Scenario, snapshots: list[np.ndarray]) -> np.ndarray:
    """Fixed positive per-component scale so state entries land near [0, 1]."""
    n = scenario.n_nodes
    d = scenario.topology.delays
    rate_max = max((float(s.max()) for s in snapshots if s.size), default=1.0)
    mem_fn_max = float(scenario.function_memory().max())
    t_max = max((t_max_bound(scenario, s) for s in snapshots), default=1.0)
    scale = np.empty(state_dim(n))
    scale[: n * n] = max(float(d.max()), 1.0)
    res = np.empty(2 * n)
    res[0::2] = scenario.topology.cores
    res[1::2] = scenario.topology.memory
    scale[n * n : n * n + 2 * n] = np.maximum(res, 1.0)
    scale[n * n + 2 * n : n * n + 3 * n] = max(rate_max, 1.0)
    scale[n * n + 3 * n : n * n + 3 * n + 3] = max(mem_fn_max, 1.0)
    scale[-1] = max(t_max, 1.0)
    return scale


# --------------------------------------------------------------------------
# reward normalization
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RewardBounds:
    """Normalization window for cumulative delay and cumulative core cost.

    Bounds only ever widen (within and across episodes of a run) so the
    reward scale cannot oscillate while training.
    """

    t_min: float = 0.0
    t_max: float = 0.0
    c_min: float = 0.0
    c_max: float = 0.0

    def widened(self, t_upper: float, c_upper: float) -> "RewardBounds":
        return replace(self, t_max=max(self.t_max, t_upper), c_max=max(self.c_max, c_upper))

    def observe(self, t: float, c: float) -> "RewardBounds":
        return RewardBounds(
            t_min=min(self.t_min, t),
            t_max=max(self.t_max, t),
            c_min=min(self.c_min, c),
            c_max=max(self.c_max, c),
        )

    def to_dict(self) -> dict:
        return {"t_min": self.t_min, "t_max": self.t_max, "c_min": self.c_min, "c_max": self.c_max}


def _normalize(value: float, lo: float, hi: float) -> float:
    if hi - lo <= 1e-12:
        return -1.0  # degenerate window: best possible by convention
    return 2.0 * (value - lo) / (hi - lo) - 1.0


def normalize_and_reward(
    t_total: float, c_total: float, bounds: RewardBounds, alpha: float
) -> tuple[float, RewardBounds]:
    """Blend normalized cumulative delay and cost into a reward in [-1, 1]."""
    bounds = bounds.observe(t_total, c_total)
    t_norm = _normalize(t_total, bounds.t_min, bounds.t_max)
    c_norm = _normalize(c_total, bounds.c_min, bounds.c_max)
    reward = -(alpha * c_norm + (1.0 - alpha) * t_norm)
    return reward, bounds


def t_max_bound(scenario: Scenario, workload: np.ndarray) -> float:
    """Upper bound on cumulative delay: every request crossing every link."""
    return float(np.sum(workload * scenario.topology.delays.sum(axis=1)[None, :]))


def cost_increment(routing: np.ndarray, workload_row: np.ndarray, cpr: np.ndarray) -> float:
    """Core-units consumed by one function's routed traffic."""
    return float(np.sum(routing * workload_row[:, None] * cpr[None, :]))


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------


@dataclass
class StepOutcome:
    function_id: int
    reward: float
    done: bool
    valid: bool
    violation: str | None
    state: np.ndarray | None  # next observation vector, None when done


class PlacementEnv:
    """One placement episode per reset; `deployment` is updated in place by valid steps."""

    def __init__(self, scenario: Scenario, alpha: float):
        self.scenario = scenario
        self.alpha = float(alpha)
        # scenario constants that every step and reset reads
        self._delays = scenario.topology.delays
        self._delays_flat = self._delays.ravel()
        self._memory = scenario.function_memory()
        self._cpr = [fn.cores_per_request_vec(scenario.n_nodes) for fn in scenario.functions]
        self._total_cores = float(scenario.topology.cores.sum())
        self.bounds = RewardBounds(c_max=self._total_cores)
        self.workload = scenario.workload
        self.deployment = initial_deployment(scenario.topology)
        self.queue: list[int] = []
        self._queue_memory: list[np.ndarray] = []
        self._queue_stats: dict[tuple[int, ...], list[np.ndarray]] = {}
        self.invalid_steps = 0

    def reset(self, workload: np.ndarray | None = None) -> np.ndarray:
        if workload is not None:
            self.workload = workload
        self.bounds = self.bounds.widened(
            t_upper=t_max_bound(self.scenario, self.workload), c_upper=self._total_cores
        )
        self.deployment = initial_deployment(self.scenario.topology)
        self.queue = make_queue(self.scenario, self.workload)
        self._queue_memory = self._queue_memory_by_position()
        self.invalid_steps = 0
        return self._observe()

    def _queue_memory_by_position(self) -> list[np.ndarray]:
        """Queue-memory statistics at every position of this episode's queue.

        They depend only on the queue order, which is fixed for the episode,
        so they are computed once per order and shared by every episode with
        that order.
        """
        key = tuple(self.queue)
        stats = self._queue_stats.get(key)
        if stats is None:
            if len(self._queue_stats) >= _QUEUE_STATS_CACHE:
                self._queue_stats.clear()
            queued = self._memory[self.queue]
            stats = [_queue_memory(queued[k:]) for k in range(len(key))]
            self._queue_stats[key] = stats
        return stats

    def _observe(self) -> np.ndarray:
        n = self.scenario.n_nodes
        dep = self.deployment
        head = n * n
        obs = np.empty(state_dim(n))
        obs[:head] = self._delays_flat
        obs[head : head + 2 * n : 2] = dep.available_cores
        obs[head + 1 : head + 2 * n : 2] = dep.available_memory
        obs[head + 2 * n : head + 3 * n] = self.workload[self.queue[0]]
        # after k steps len(queue) == F - k, so this is position k's entry
        obs[head + 3 * n : -1] = self._queue_memory[-len(self.queue)]
        obs[-1] = dep.total_delay
        return obs

    def step(self, action: np.ndarray) -> StepOutcome:
        if not self.queue:
            raise RuntimeError("step() after episode end; call reset()")
        fid = self.queue.pop(0)
        fn = self.scenario.functions[fid]
        placement = np.array(action, dtype=bool)  # a copy: the deployment keeps it
        dep = self.deployment
        violation = None

        if not placement.any():
            violation = "empty-placement"
        else:
            mem_after = dep.available_memory - np.where(placement, fn.memory, 0.0)
            if (mem_after < -_CORE_TOL).any():
                violation = "memory"
        if violation is None:
            row = self.workload[fid]
            cpr = self._cpr[fid]
            solution = solve_routing(
                RoutingProblem(
                    delays=self._delays,
                    workload_row=row,
                    placement=placement,
                    available_cores=dep.available_cores,
                    cores_per_request=cpr,
                )
            )
            if not solution.feasible:
                violation = "routing-infeasible"
            else:
                routing = solution.routing
                # routing sends nothing to unplaced nodes, so their draw is exactly 0.0
                cores_after = dep.available_cores - routing.T @ row * cpr
                if (cores_after < -_CORE_TOL).any():
                    violation = "cores"

        if violation is None:
            dep.place(
                fid, placement, routing, cores_after, mem_after,
                solution.objective_delay, cost_increment(routing, row, cpr),
            )
            reward, self.bounds = normalize_and_reward(
                dep.total_delay, dep.total_cost, self.bounds, self.alpha
            )
        else:
            self.invalid_steps += 1
            reward = PENALTY_REWARD

        done = not self.queue
        return StepOutcome(
            function_id=fid,
            reward=reward,
            done=done,
            valid=violation is None,
            violation=violation,
            state=None if done else self._observe(),
        )


# --------------------------------------------------------------------------
# episode runner
# --------------------------------------------------------------------------


@dataclass
class EpisodeRecord:
    total_delay: float
    total_cost: float
    rewards: list[float]
    invalid_steps: int
    violations: list[str]
    placements: dict[int, np.ndarray]
    routes: dict[int, np.ndarray]
    valid: bool


def run_episode(
    agent: PolicyAgent,
    env: PlacementEnv,
    workload: np.ndarray,
    rng: np.random.Generator | None = None,
    deterministic: bool = False,
    trajectory: Trajectory | None = None,
) -> EpisodeRecord:
    """Roll one snapshot through the policy; optionally record transitions."""
    state = env.reset(workload)
    rewards: list[float] = []
    violations: list[str] = []
    done = False
    while not done:
        # the trajectory must hold exactly what the net consumed, so scale here
        net_input = state / agent.state_scale
        probs, value = forward(agent.net, net_input)
        if deterministic:
            action = deterministic_action(probs)
            log_prob = 0.0
        else:
            action, log_prob = sample_action(probs, rng)
        outcome = env.step(action)
        rewards.append(outcome.reward)
        if outcome.violation:
            violations.append(f"{outcome.function_id}:{outcome.violation}")
        if trajectory is not None:
            trajectory.add(net_input, action, log_prob, value, outcome.reward, outcome.done)
        done = outcome.done
        state = outcome.state
    if trajectory is not None:
        trajectory.last_value = 0.0  # episodes always end at the queue tail
    return EpisodeRecord(
        total_delay=env.deployment.total_delay,
        total_cost=env.deployment.total_cost,
        rewards=rewards,
        invalid_steps=env.invalid_steps,
        violations=violations,
        placements=dict(env.deployment.placements),
        routes=dict(env.deployment.routes),
        valid=env.invalid_steps == 0,
    )
