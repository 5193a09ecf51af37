from __future__ import annotations

import csv
import json
import os

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from edgeplace import baselines, bench
from edgeplace.bench import (
    CANDIDATES,
    RESULT_COLUMNS,
    ExperimentPlan,
    ResultRow,
    emit_results,
    evaluate_candidates,
    render_summary_table,
    summarize,
    train_agent,
    write_results_csv,
    write_train_log,
)
from edgeplace.env import (
    VIOLATIONS,
    LockstepEnv,
    PlacementEnv,
    build_state_scale,
    run_episode,
    state_dim,
    t_max_bound,
)
from edgeplace.nn import MLP
from edgeplace.ppo import PolicyAgent, PPOConfig
from edgeplace.scenarios import build_preset, preset_workload_config
from edgeplace.workload import WorkloadGenConfig

from conftest import make_scenario
from oracles import train_agent_reference

_FAST_PPO = PPOConfig(update_interval=64, minibatch_size=32, epochs=2, hidden=(16,))


@pytest.fixture
def small_plan(tri_scenario):
    return ExperimentPlan(
        scenario=tri_scenario,
        workload_cfg=WorkloadGenConfig(n_snapshots=4, rate_range=(4, 12)),
        alphas=(0.0,),
        eval_snapshots=4,
        train_snapshots=4,
        total_timesteps=128,
        ppo=_FAST_PPO,
        milp_node_budget=200,
        timing=True,
    )


def _train(tri_scenario, seed=1):
    return train_agent(
        tri_scenario, 0.0, seed,
        WorkloadGenConfig(n_snapshots=4, rate_range=(4, 12)),
        _FAST_PPO, total_timesteps=128,
    )


_KIND_COLUMNS = [f"invalid_{kind.replace('-', '_')}" for kind in VIOLATIONS]


def test_train_log_rows_are_consistent(tri_scenario):
    result = _train(tri_scenario)
    assert len(result.log_rows) == 2  # 128 timesteps at 64 per update
    for row in result.log_rows:
        assert row["cumulative_invalid"] + row["cumulative_valid"] == row["timesteps"]
        assert row["window_steps"] >= _FAST_PPO.update_interval
        assert sum(row[c] for c in _KIND_COLUMNS) == row["window_invalid"]
        assert all(row[c] >= 0 for c in _KIND_COLUMNS)
        assert np.isfinite(row["mean_reward"])
        assert np.isfinite(row["approx_kl"])
    assert result.log_rows[-1]["timesteps"] >= 128
    assert set(result.bounds_dict) == {"t_min", "t_max", "c_min", "c_max"}


@pytest.mark.parametrize("timesteps", [0, -64])
def test_train_agent_refuses_a_budget_below_one(tri_scenario, timesteps):
    with pytest.raises(ValueError, match="total_timesteps"):
        train_agent(tri_scenario, 0.0, 1, WorkloadGenConfig(n_snapshots=4, rate_range=(4, 12)),
                    _FAST_PPO, total_timesteps=timesteps)


def test_training_is_seed_deterministic(tri_scenario):
    a = _train(tri_scenario, seed=7).agent
    b = _train(tri_scenario, seed=7).agent
    c = _train(tri_scenario, seed=8).agent
    np.testing.assert_array_equal(a.net.get_params(), b.net.get_params())
    assert not np.array_equal(a.net.get_params(), c.net.get_params())


_LOSS_COLUMNS = ("policy_loss", "value_loss", "entropy", "clip_fraction", "approx_kl")


@pytest.mark.parametrize(
    "preset, alpha, update_interval, timesteps",
    [
        ("small-payload", 0.0, 256, 512),  # 64 episodes per window
        ("large-payload", 0.5, 256, 520),  # 26 episodes, 260 steps per window
        ("large-payload", 0.0, 4, 30),  # one episode per window, longer than the interval
    ],
    ids=["small-64-episodes", "large-26-episodes", "large-1-episode"],
)
def test_lockstep_training_matches_sequential_reference(preset, alpha, update_interval, timesteps):
    scenario = build_preset(preset)
    args = (scenario, alpha, 5, preset_workload_config(preset, 7),
            PPOConfig(update_interval=update_interval, epochs=3), timesteps)
    got = train_agent(*args)
    expected = train_agent_reference(*args)
    assert got.bounds_dict == expected.bounds_dict
    assert len(got.log_rows) == len(expected.log_rows)
    for row, ref in zip(got.log_rows, expected.log_rows):
        assert list(row) == list(ref)
        for key, value in ref.items():
            if key in _LOSS_COLUMNS:  # batched forward passes round differently
                assert abs(row[key] - value) <= 1e-12, key
            else:  # same actions, so the same steps, rewards and counts
                assert row[key] == value, key
    assert sum(row["window_invalid"] for row in got.log_rows) > 0  # penalties were scored
    assert np.max(np.abs(got.agent.net.params - expected.agent.net.params)) <= 1e-12
    np.testing.assert_array_equal(got.agent.state_scale, expected.agent.state_scale)


def test_rollout_window_holds_net_inputs(tri_scenario):
    net = MLP(state_dim(3), 3, rng=np.random.default_rng(0))
    scale = build_state_scale(tri_scenario, [tri_scenario.workload])
    agent = PolicyAgent(net=net, state_scale=scale)
    workloads = [tri_scenario.workload * s for s in (1.0, 0.5, 2.0)]
    env = LockstepEnv(tri_scenario, alpha=0.0)
    traj = bench._rollout_window(agent, env, workloads, np.random.default_rng(0))
    assert traj.states.shape == (6, state_dim(3)) and env.codes.shape == (3, 2)
    probe = PlacementEnv(tri_scenario, alpha=0.0)
    for e, workload in enumerate(workloads):  # episode order: each episode's steps together
        np.testing.assert_array_equal(traj.states[2 * e], probe.reset(workload) / agent.state_scale)
    assert traj.episode_steps == 2
    assert env.bounds.t_max == max(t_max_bound(tri_scenario, w) for w in workloads)


def test_write_train_log_round_trips(tri_scenario, tmp_path):
    result = _train(tri_scenario)
    path = tmp_path / "log.csv"
    write_train_log(str(path), result.log_rows)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(result.log_rows)
    assert float(rows[0]["mean_reward"]) == result.log_rows[0]["mean_reward"]
    assert float(rows[-1]["approx_kl"]) == result.log_rows[-1]["approx_kl"]
    assert int(rows[-1]["timesteps"]) == result.log_rows[-1]["timesteps"]


def test_evaluate_produces_verified_grid(small_plan, tri_scenario):
    from edgeplace.util import rng_stream
    from edgeplace.workload import generate_workloads
    from dataclasses import replace

    agent = _train(tri_scenario).agent
    rows = evaluate_candidates(small_plan, seed=3, agents={0.0: agent})
    assert len(rows) == len(CANDIDATES) * small_plan.eval_snapshots
    for candidate in CANDIDATES:
        snaps = [r.snapshot for r in rows if r.candidate == candidate]
        assert snaps == list(range(small_plan.eval_snapshots))  # warmup rows excluded
    cfg = replace(small_plan.workload_cfg, n_snapshots=small_plan.eval_snapshots)
    snapshots = generate_workloads(2, 3, cfg, rng_stream(3, "workload-eval"))
    for row in rows:
        assert row.valid  # plenty of capacity in this scenario
        assert row.decision_time_ms is not None and row.decision_time_ms >= 0.0
        assert row.delay_ms_per_req == pytest.approx(
            row.total_delay / snapshots[row.snapshot].sum()
        )


def test_invalid_agent_row_carries_nan_totals():
    """An agent whose episode places one function and fails the next writes
    nan totals, as an invalid baseline row does, not the valid step's."""
    # the untrained head puts every function on every node: f0 (8 MB) fits,
    # f1 (4 MB) then overflows each node's 10 MB
    scenario = make_scenario(delays=[[0, 2, 5], [2, 0, 3], [5, 3, 0]], cores=[30, 20, 40],
                             memory=[10, 10, 10], fn_memory=[8, 4],
                             workload=[[10, 4, 0], [2, 6, 8]])
    agent = PolicyAgent(MLP(state_dim(3), 3, hidden=(4,)), np.ones(state_dim(3)))
    record = run_episode(agent, PlacementEnv(scenario, 0.0), scenario.workload, deterministic=True)
    assert not record.valid and record.total_cost > 0.0  # the valid step's partial totals
    plan = ExperimentPlan(scenario=scenario, workload_cfg=WorkloadGenConfig(n_snapshots=1),
                          alphas=(0.0,), candidates=("agent",), timing=False)
    [row] = evaluate_candidates(plan, 1, {0.0: agent}, snapshots=[scenario.workload])
    assert not row.valid
    assert np.isnan(row.total_delay) and np.isnan(row.cost) and np.isnan(row.delay_ms_per_req)


def test_evaluate_refuses_an_unverifiable_row(small_plan, monkeypatch):
    solve_vsvbp = baselines.solve_vsvbp

    def short_routed(scenario, workload):
        sol = solve_vsvbp(scenario, workload)
        routes = {**sol.routes, 0: sol.routes[0].copy()}
        routes[0][0] *= 0.9  # source 0 ships 90% of function 0's traffic
        return replace(sol, routes=routes)

    monkeypatch.setattr(baselines, "solve_vsvbp", short_routed)
    plan = replace(small_plan, candidates=("vsvbp",), timing=False)
    with pytest.raises(AssertionError, match="route-sum"):
        evaluate_candidates(plan, seed=3, agents={})


def test_agent_decision_time_covers_the_whole_episode(small_plan, tri_scenario, monkeypatch):
    agent = _train(tri_scenario).agent
    episode_ms = []

    def timed_episode(*args, **kwargs):
        started = time.perf_counter()
        record = run_episode(*args, **kwargs)
        episode_ms.append((time.perf_counter() - started) * 1000.0)
        return record

    monkeypatch.setattr(bench, "run_episode", timed_episode)
    plan = ExperimentPlan(**{**small_plan.__dict__, "candidates": ("agent",)})
    rows = evaluate_candidates(plan, seed=3, agents={0.0: agent})
    warmup = len(episode_ms) - len(rows)  # the warm-up episodes run first
    assert warmup == -(-bench.WARMUP_DECISIONS // tri_scenario.n_functions)
    assert len(rows) == plan.eval_snapshots
    for row, ms in zip(rows, episode_ms[warmup:]):  # one run_episode per snapshot, in row order
        assert row.decision_time_ms >= ms


def test_snapshots_shared_across_candidates(small_plan, tri_scenario):
    agent = _train(tri_scenario).agent
    rows = evaluate_candidates(small_plan, seed=3, agents={0.0: agent})
    milp = {r.snapshot: r for r in rows if r.candidate == "joint-milp"}
    vsvbp = {r.snapshot: r for r in rows if r.candidate == "vsvbp"}
    # same snapshot index refers to the same workload: the optimal delay can
    # never exceed the greedy one under alpha=0
    for s, milp_row in milp.items():
        assert milp_row.total_delay <= vsvbp[s].total_delay + 1e-9


def test_results_csv_format(small_plan, tri_scenario, tmp_path):
    agent = _train(tri_scenario).agent
    rows = evaluate_candidates(small_plan, seed=3, agents={0.0: agent})
    path = tmp_path / "results.csv"
    write_results_csv(str(path), rows)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert tuple(parsed[0]) == RESULT_COLUMNS
    assert len(parsed) == 1 + len(rows)
    first = parsed[1]
    assert first[0] == rows[0].candidate
    assert float(first[3]) == rows[0].delay_ms_per_req  # repr round-trips exactly
    # an untimed run blanks the measurement column but keeps the schema
    untimed = ExperimentPlan(**{**small_plan.__dict__, "timing": False})
    write_results_csv(str(path), evaluate_candidates(untimed, seed=3, agents={0.0: agent}))
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert all(line[6] == "" for line in parsed[1:])


def test_summarize_matches_hand_means(small_plan, tri_scenario):
    agent = _train(tri_scenario).agent
    rows = evaluate_candidates(small_plan, seed=3, agents={0.0: agent})
    summary = summarize(rows)
    entry = next(e for e in summary if e["candidate"] == "joint-milp")
    group = [r for r in rows if r.candidate == "joint-milp"]
    assert entry["snapshots"] == len(group)
    assert entry["valid_fraction"] == 1.0
    assert entry["mean_cost"] == pytest.approx(np.mean([r.cost for r in group]))
    assert entry["mean_total_delay"] == pytest.approx(
        np.mean([r.total_delay for r in group])
    )


def test_summarize_times_every_decision():
    """An invalid decision's time counts in the mean; its delay and cost do not."""

    def row(candidate, valid, ms, delay=4.0):
        return ResultRow(candidate, 0.0, 0, 0.5, delay, 2.0, ms, valid)

    rows = [row("joint-milp", True, 10.0), row("joint-milp", False, 30.0, delay=float("nan")),
            row("agent", False, 2.0), row("agent", False, 4.0)]
    agent, milp = summarize(rows)  # in candidate order
    assert milp["valid_fraction"] == 0.5 and milp["mean_total_delay"] == 4.0
    assert milp["mean_decision_time_ms"] == 20.0
    assert agent["valid_fraction"] == 0.0 and agent["mean_total_delay"] is None
    assert agent["mean_decision_time_ms"] == 3.0
    table = render_summary_table(summarize(rows)).splitlines()
    assert table[1].split()[0] == "agent" and table[1].split()[-1] == "3.0000"
    untimed = [replace(r, decision_time_ms=None) for r in rows]
    assert all(e["mean_decision_time_ms"] is None for e in summarize(untimed))


def test_emit_results_writes_artifacts(small_plan, tri_scenario, tmp_path):
    agent = _train(tri_scenario).agent
    rows = evaluate_candidates(small_plan, seed=3, agents={0.0: agent})
    paths, summary = emit_results(str(tmp_path / "out"), rows, small_plan, seed=3)
    assert os.path.exists(paths["results"])
    with open(paths["summary"]) as fh:
        assert json.load(fh) == summary
    assert {e["candidate"] for e in summary} == set(CANDIDATES)
    with open(paths["metadata"]) as fh:
        meta = json.load(fh)
    assert meta["seed"] == 3 and meta["alphas"] == [0.0]
    assert meta["ppo"]["update_interval"] == 64


def test_run_compare_refuses_alphas_that_share_a_run(small_plan, tmp_path,
                                                              monkeypatch):
    """save_training names a run by f"{alpha:g}", so 0.1 and 0.1000001 would share files;
    0.0 and -0.0 print apart but are one key of run_compare's agents."""
    assert bench.shared_run((0.0, 0.5)) is None
    assert bench.shared_run((0.5, 0.1, 0.0, 0.1000001)) == (0.1, 0.1000001)
    assert bench.shared_run((0.0, 0.0)) == (0.0, 0.0)
    assert bench.shared_run((0.5, 0.0, -0.0)) == (0.0, -0.0)

    def no_training(*args, **kwargs):
        raise AssertionError("run_compare trained before it refused the plan")

    monkeypatch.setattr(bench, "train_agent", no_training)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="alphas 0.1 and 0.1000001 would share one run"):
        bench.run_compare(replace(small_plan, alphas=(0.1, 0.1000001)), 1, str(out))
    assert not out.exists()


def test_untimed_runs_are_byte_identical(small_plan, tri_scenario, tmp_path):
    plan = ExperimentPlan(
        **{**small_plan.__dict__, "timing": False}
    )
    agent = _train(tri_scenario).agent
    blobs = []
    for attempt in range(2):
        rows = evaluate_candidates(plan, seed=3, agents={0.0: agent})
        out = tmp_path / f"run{attempt}"
        paths, _ = emit_results(str(out), rows, plan, seed=3)
        blob = b"".join(Path(paths[k]).read_bytes() for k in ("results", "summary", "metadata"))
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_render_summary_table_layout(small_plan, tri_scenario):
    agent = _train(tri_scenario).agent
    rows = evaluate_candidates(small_plan, seed=3, agents={0.0: agent})
    text = render_summary_table(summarize(rows))
    lines = text.splitlines()
    assert lines[0].startswith("candidate")
    assert len(lines) == 1 + len(CANDIDATES)
    plan = ExperimentPlan(**{**small_plan.__dict__, "timing": False})
    untimed_rows = evaluate_candidates(plan, seed=3, agents={0.0: agent})
    untimed = render_summary_table(summarize(untimed_rows))
    assert untimed.splitlines()[1].rstrip().endswith("-")
