"""Benchmark harness: train the agent, evaluate all candidates, emit files.

Reproducibility rules honored here:
  * every random draw comes from a named sub-stream of the one user seed;
  * evaluation snapshots are generated once and shared by all candidates;
  * an untimed run records no wall-clock value (its rows' decision_time_ms
    is None), so its emitted CSV/JSON are byte-identical across fixed-seed runs;
  * every result row's own arrays are re-checked by the independent verifier
    (verify.check_decision) before the row is written; a row that fails
    verification is a bug, not a warning.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from . import baselines, verify
from .contract import BUDGET, COUNT, UNIT, conform
from .env import (
    VIOLATIONS,
    LockstepEnv,
    PlacementEnv,
    build_state_scale,
    run_episode,
    state_dim,
)
from .model import Scenario
from .nn import MLP, Adam
from .ppo import PolicyAgent, PPOConfig, Trajectory, ppo_update, sample_actions, save_policy
from .util import dump_json, rng_stream
from .workload import WorkloadGenConfig, generate_workloads

CANDIDATES = ("agent", "joint-milp", "vsvbp", "cr-eua")
# per-function placement decisions a timed run makes, per candidate and alpha, before
# its measured rows to warm caches and the allocator; one snapshot run makes F of them
WARMUP_DECISIONS = 30


@dataclass(frozen=True)
class ExperimentPlan:
    scenario: Scenario
    workload_cfg: WorkloadGenConfig
    alphas: tuple[float, ...] = (0.0, 0.5)
    candidates: tuple[str, ...] = CANDIDATES
    # training settings: run_compare reads them, and a plan that trains nothing leaves them None
    train_snapshots: int | None = None
    eval_snapshots: int = 150
    total_timesteps: int | None = None
    ppo: PPOConfig | None = None
    milp_node_budget: int | None = 2000
    timing: bool = True

    def __post_init__(self) -> None:
        """A plan that cannot run is a ValueError when it is made, before any training."""
        conform(self.eval_snapshots, COUNT, "eval_snapshots")
        conform(self.alphas, [UNIT], "alphas")
        conform(self.milp_node_budget, BUDGET, "milp_node_budget")
        for name in ("alphas", "candidates"):
            if not getattr(self, name):
                raise ValueError(f"{name} is empty, so the plan would evaluate nothing")
        for candidate in self.candidates:
            if candidate not in CANDIDATES:
                raise ValueError(f"unknown candidate {candidate!r}; choose from {CANDIDATES}")
        if len(set(self.candidates)) < len(self.candidates):
            raise ValueError(f"candidates {self.candidates} name one candidate twice")
        shared = shared_run(self.alphas)
        if shared is not None:
            raise ValueError(f"alphas {shared[0]!r} and {shared[1]!r} would share one run")


@dataclass
class ResultRow:
    candidate: str
    alpha: float
    snapshot: int
    delay_ms_per_req: float | None  # None on a snapshot without traffic
    total_delay: float
    cost: float
    decision_time_ms: float | None  # None in an untimed run
    valid: bool


# results.csv's columns in order: ResultRow's fields
RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass
class TrainResult:
    agent: PolicyAgent
    seed: int
    alpha: float
    log_rows: list[dict]
    bounds_dict: dict


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------


def train_agent(
    scenario: Scenario,
    alpha: float,
    seed: int,
    workload_cfg: WorkloadGenConfig,
    ppo_cfg: PPOConfig,
    total_timesteps: int,
) -> TrainResult:
    """PPO training over generated snapshots; fully determined by the seed.

    Every episode places all F functions, so an update window is the
    ceil(update_interval / F) episodes that reach update_interval steps.
    They run in lockstep (_rollout_window); the result is the one a rollout
    of one episode at a time gives, up to the rounding of batched forward
    passes. A total_timesteps or n_snapshots outside contract.COUNT is a
    ValueError. A training stops after the first update that leaves the
    parameters not all finite; its log then ends at that iteration.
    """
    conform(total_timesteps, COUNT, "total_timesteps")
    conform(workload_cfg.n_snapshots, COUNT, "n_snapshots")
    snapshots = generate_workloads(
        scenario.n_functions, scenario.n_nodes, workload_cfg, rng_stream(seed, "workload-train")
    )
    scale = build_state_scale(scenario, snapshots)
    net = MLP(
        state_dim(scenario.n_nodes),
        scenario.n_nodes,
        hidden=ppo_cfg.hidden,
        rng=rng_stream(seed, "policy-init"),
    )
    agent = PolicyAgent(net=net, state_scale=scale)
    optimizer = Adam(lr=ppo_cfg.learning_rate)
    env = LockstepEnv(scenario, alpha)
    window_episodes = -(-ppo_cfg.update_interval // scenario.n_functions)
    sample_rng = rng_stream(seed, "action-sample")
    shuffle_rng = rng_stream(seed, "minibatch-shuffle")

    log_rows: list[dict] = []
    timesteps = 0
    episodes = 0
    cumulative_invalid = 0
    cumulative_valid = 0
    iteration = 0
    while timesteps < total_timesteps:
        workloads = [snapshots[(episodes + e) % len(snapshots)] for e in range(window_episodes)]
        trajectory = _rollout_window(agent, env, workloads, sample_rng)
        kinds = np.bincount(env.codes.ravel(), minlength=len(VIOLATIONS) + 1).tolist()
        window_invalid = len(trajectory) - kinds[0]
        episodes += window_episodes
        cumulative_invalid += window_invalid
        cumulative_valid += kinds[0]
        timesteps += len(trajectory)
        diag = ppo_update(net, trajectory, ppo_cfg, optimizer, shuffle_rng)
        iteration += 1
        log_rows.append(
            {
                "iteration": iteration,
                "timesteps": timesteps,
                "episodes": episodes,
                "window_steps": len(trajectory),
                "window_invalid": window_invalid,
                **{
                    f"invalid_{kind.replace('-', '_')}": count
                    for kind, count in zip(VIOLATIONS, kinds[1:])
                },
                "window_episodes": window_episodes,
                "cumulative_invalid": cumulative_invalid,
                "cumulative_valid": cumulative_valid,
                "mean_reward": diag["mean_reward"],
                "policy_loss": diag["policy_loss"],
                "value_loss": diag["value_loss"],
                "entropy": diag["entropy"],
                "clip_fraction": diag["clip_fraction"],
                "approx_kl": diag["approx_kl"],
            }
        )
        if not np.isfinite(net.params).all():
            break  # diverged: later updates only spend the budget; save_policy refuses these
    return TrainResult(
        agent=agent,
        seed=seed,
        alpha=alpha,
        log_rows=log_rows,
        bounds_dict=env.bounds.to_dict(),
    )


def _rollout_window(
    agent: PolicyAgent, env: LockstepEnv, workloads: list[np.ndarray], rng: np.random.Generator
) -> Trajectory:
    """Sample one episode per workload, all in lockstep, and let env score them in order.

    The uniforms are drawn up front in (episode, step, node) order, which
    are the draws of sampling the episodes one after another. env.rewards()
    scores the whole window with RewardBounds.score_window, one episode
    after another. Returns the window's trajectory in episode order; env
    keeps its violation codes.
    """
    n_eps, n_steps, n = len(workloads), env.scenario.n_functions, env.scenario.n_nodes
    uniforms = rng.random((n_eps, n_steps, n))
    states = np.empty((n_eps, n_steps, agent.state_scale.size))
    actions = np.empty((n_eps, n_steps, n), dtype=bool)
    log_probs = np.empty((n_eps, n_steps))
    values = np.empty((n_eps, n_steps))
    obs = env.reset(workloads)
    for k in range(n_steps):
        net_input = obs / agent.state_scale
        logits, values[:, k] = agent.net.forward(net_input)
        actions[:, k], log_probs[:, k] = sample_actions(logits, uniforms[:, k])
        states[:, k] = net_input
        _, obs = env.step(actions[:, k])
    return Trajectory(
        states=states.reshape(n_eps * n_steps, -1),
        actions=actions.reshape(n_eps * n_steps, n),
        log_probs=log_probs.ravel(),
        values=values.ravel(),
        rewards=env.rewards().ravel(),
        episode_steps=n_steps,
    )


def shared_run(alphas: tuple[float, ...]) -> tuple[float, float] | None:
    """The first two alphas that would share a run: equal floats (0.0 and -0.0
    among them) share run_compare's agent, and two whose :g forms agree share
    save_training's files. None when each alpha has its own run."""
    for k, alpha in enumerate(alphas):
        for first in alphas[:k]:
            if first == alpha or f"{first:g}" == f"{alpha:g}":
                return first, alpha
    return None


def save_training(out_dir: str, result: TrainResult) -> tuple[str, str]:
    """Write a run's policy checkpoint and train log into out_dir; return their paths."""
    os.makedirs(out_dir, exist_ok=True)
    tag = f"alpha{result.alpha:g}-seed{result.seed}"
    policy_path = os.path.join(out_dir, f"policy-{tag}.json")
    log_path = os.path.join(out_dir, f"train-log-{tag}.csv")
    write_train_log(log_path, result.log_rows)
    save_policy(
        policy_path,
        result.agent,
        extras={"alpha": result.alpha, "seed": result.seed, "reward_bounds": result.bounds_dict},
    )
    return policy_path, log_path


def write_train_log(path: str, rows: list[dict]) -> None:
    if rows:
        _write_csv(path, list(rows[0]), rows)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def _eval_one(
    scenario: Scenario,
    candidate: str,
    alpha: float,
    snapshot_idx: int,
    workload: np.ndarray,
    agent: PolicyAgent | None,
    milp_budget: int | None,
    timed: bool,
) -> ResultRow:
    total_rate = float(workload.sum())
    started = time.perf_counter()  # every candidate: wall time of the whole decision call
    if candidate == "agent":
        record = run_episode(agent, PlacementEnv(scenario, alpha), workload, deterministic=True)
        decision_s = time.perf_counter() - started
        valid = record.valid
        delay, cost = record.total_delay, record.total_cost
        placements, routes = record.placements, record.routes
    else:
        if candidate == "joint-milp":
            sol = baselines.solve_joint_milp(
                scenario, workload, alpha=alpha, node_budget=milp_budget, tie_exact=False
            )
        elif candidate == "vsvbp":
            sol = baselines.solve_vsvbp(scenario, workload)
        else:
            sol = baselines.solve_creua(scenario, workload)
        decision_s = time.perf_counter() - started
        valid = sol.feasible
        delay, cost = sol.total_delay, sol.total_cost
        placements, routes = sol.placements, sol.routes
    per_request = float("nan")
    if not valid:  # an invalid decision has no totals, whichever candidate made it
        delay = cost = float("nan")
    else:
        # the agent's dicts and a solver's arrays alike, as (F, N) and (F, N, N) arrays
        functions = range(scenario.n_functions)
        placements = np.array([placements[f] for f in functions])
        routes = np.array([routes[f] for f in functions])
        problems = verify.check_decision(scenario, workload, placements, routes, delay, cost)
        if problems:  # emitting an unverifiable row would poison the benchmark
            raise AssertionError(
                f"{candidate} produced an invalid decision on snapshot {snapshot_idx}: "
                + "; ".join(problems)
            )
        # a snapshot without traffic has no per-request delay
        per_request = delay / total_rate if total_rate > 0 else None
    return ResultRow(
        candidate=candidate,
        alpha=alpha,
        snapshot=snapshot_idx,
        delay_ms_per_req=per_request,
        total_delay=delay,
        cost=cost,
        decision_time_ms=decision_s * 1000.0 if timed else None,
        valid=valid,
    )


def evaluate_candidates(
    plan: ExperimentPlan,
    seed: int,
    agents: dict[float, PolicyAgent],
    snapshots: list[np.ndarray] | None = None,
) -> list[ResultRow]:
    """All (candidate, alpha, snapshot) rows; snapshots shared across candidates, and
    never empty (a ValueError), since a timed run warms up on the first. An agent
    candidate without a policy in agents for each alpha is a ValueError before any
    decision."""
    if "agent" in plan.candidates:
        for alpha in plan.alphas:
            if alpha not in agents:
                raise ValueError(f"the agent candidate has no policy at alpha {alpha!r}")
    scenario = plan.scenario
    if snapshots is None:
        cfg = replace(plan.workload_cfg, n_snapshots=plan.eval_snapshots)
        snapshots = generate_workloads(
            scenario.n_functions, scenario.n_nodes, cfg, rng_stream(seed, "workload-eval")
        )
    conform(len(snapshots), COUNT, "the snapshot count")
    budget, timed = plan.milp_node_budget, plan.timing
    warmup = -(-WARMUP_DECISIONS // max(1, scenario.n_functions)) if timed else 0
    rows: list[ResultRow] = []
    for candidate in plan.candidates:
        for alpha in plan.alphas:
            agent = agents.get(alpha)
            for _ in range(warmup):
                _eval_one(scenario, candidate, alpha, -1, snapshots[0], agent, budget, timed)
            rows.extend(
                _eval_one(scenario, candidate, alpha, idx, snap, agent, budget, timed)
                for idx, snap in enumerate(snapshots)
            )
    return rows


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, columns, rows) -> None:
    """A header line of columns, then one line per row (a mapping) of its _fmt'd values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(row[c]) for c in columns] for row in rows)


def write_results_csv(path: str, rows: list[ResultRow]) -> None:
    _write_csv(path, RESULT_COLUMNS, map(vars, rows))


def _mean(values: list) -> float | None:
    """Mean of the values that are not None; None when no value is left."""
    kept = [v for v in values if v is not None]
    return float(np.mean(kept)) if kept else None


def summarize(rows: list[ResultRow]) -> list[dict]:
    """Per (candidate, alpha): means over valid snapshots plus validity rate.

    The mean decision time is over every timed decision, valid or not: a
    decision that is invalid, or an exact solve stopped at its budget, took
    its time all the same.
    """
    keys = sorted({(r.candidate, r.alpha) for r in rows})
    out = []
    for candidate, alpha in keys:
        group = [r for r in rows if r.candidate == candidate and r.alpha == alpha]
        valid = [r for r in group if r.valid]
        out.append(
            {
                "candidate": candidate,
                "alpha": alpha,
                "snapshots": len(group),
                "valid_fraction": len(valid) / len(group) if group else 0.0,
                "mean_delay_ms_per_req": _mean([r.delay_ms_per_req for r in valid]),
                "mean_total_delay": _mean([r.total_delay for r in valid]),
                "mean_cost": _mean([r.cost for r in valid]),
                "mean_decision_time_ms": _mean([r.decision_time_ms for r in group]),
            }
        )
    return out


def emit_results(
    out_dir: str, rows: list[ResultRow], plan: ExperimentPlan, seed: int
) -> tuple[dict[str, str], list[dict]]:
    """Write results.csv, summary.json and metadata.json; return their paths and the summary."""
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")
    write_results_csv(results_path, rows)
    summary = summarize(rows)
    summary_path = os.path.join(out_dir, "summary.json")
    dump_json(summary_path, summary)
    meta = {
        "seed": seed,
        "scenario": plan.scenario.name,
        "alphas": list(plan.alphas),
        "candidates": list(plan.candidates),
        "eval_snapshots": plan.eval_snapshots,
        "milp_node_budget": plan.milp_node_budget,
        "timing": plan.timing,
    }
    if plan.ppo is not None:  # the run trained its agents
        meta.update(
            train_snapshots=plan.train_snapshots,
            total_timesteps=plan.total_timesteps,
            ppo=plan.ppo.to_dict(),
        )
    meta_path = os.path.join(out_dir, "metadata.json")
    dump_json(meta_path, meta)
    return {"results": results_path, "summary": summary_path, "metadata": meta_path}, summary


def render_summary_table(summary: list[dict]) -> str:
    headers = ["candidate", "alpha", "valid%", "delay ms/req", "cost", "decision ms"]
    rows = []
    for entry in summary:
        rows.append(
            [
                entry["candidate"],
                f"{entry['alpha']:g}",
                f"{100.0 * entry['valid_fraction']:.1f}",
                _num(entry["mean_delay_ms_per_req"]),
                _num(entry["mean_cost"]),
                _num(entry["mean_decision_time_ms"]),
            ]
        )
    widths = [max(map(len, [h, *(r[c] for r in rows)])) for c, h in enumerate(headers)]
    buf = io.StringIO()
    buf.write("  ".join(h.ljust(widths[c]) for c, h in enumerate(headers)).rstrip() + "\n")
    for r in rows:
        buf.write("  ".join(r[c].ljust(widths[c]) for c in range(len(headers))).rstrip() + "\n")
    return buf.getvalue()


def _num(value) -> str:
    return "-" if value is None else f"{value:.4f}"


# --------------------------------------------------------------------------
# full pipeline
# --------------------------------------------------------------------------


def run_compare(plan: ExperimentPlan, seed: int, out_dir: str) -> dict:
    """Train agents for every alpha, evaluate all candidates, emit artifacts."""
    os.makedirs(out_dir, exist_ok=True)
    agents: dict[float, PolicyAgent] = {}
    for alpha in plan.alphas:
        cfg = replace(plan.workload_cfg, n_snapshots=plan.train_snapshots)
        result = train_agent(
            plan.scenario, alpha, seed, cfg, plan.ppo, plan.total_timesteps
        )
        agents[alpha] = result.agent
        save_training(out_dir, result)
    rows = evaluate_candidates(plan, seed, agents)
    paths, summary = emit_results(out_dir, rows, plan, seed)
    return {"paths": paths, "summary": summary, "rows": rows}
