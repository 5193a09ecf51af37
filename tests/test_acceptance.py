"""End-to-end acceptance suite.

Each test checks one release criterion and prints exactly one PASS/FAIL line
(visible even under pytest's output capture). Expensive artifacts — trained
policies and benchmark evaluations — are built once per module and shared.
"""

from __future__ import annotations

import copy
import itertools
import json
import time

import numpy as np
import pytest

from edgeplace.baselines import joint_objective_weights, solve_joint_milp
from edgeplace.bench import ExperimentPlan, evaluate_candidates, train_agent
from edgeplace.cli import EXIT_INVALID, EXIT_OK, main
from edgeplace.env import (
    PENALTY_REWARD,
    PlacementEnv,
    RewardBounds,
    normalize_and_reward,
    run_episode,
)
from edgeplace.model import save_scenario
from edgeplace.nn import MLP
from edgeplace.ppo import PPOConfig, log_prob_from_logits, ppo_loss_and_grad
from edgeplace.routing import RoutingProblem, solve_routing
from edgeplace.scenarios import build_preset, preset_workload_config
from edgeplace.util import rng_stream
from edgeplace.verify import decision_to_dict, save_decision
from edgeplace.workload import generate_workloads

from conftest import make_scenario, random_routing_case
from oracles import brute_force_routing, exhaustive_joint_enumeration, finite_difference_grad
from test_baselines import _random_joint_scenario

TIMESTEPS = 20_000
EVAL_SNAPSHOTS = 50
EVAL_SEED = 3


@pytest.fixture
def report(capsys):
    """Emit one un-captured PASS/FAIL line for the current criterion."""

    def _report(number: int, name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[criterion {number:02d}] {name}: {status}{suffix}", flush=True)
        assert ok, f"criterion {number} ({name}) failed: {detail}"

    return _report


# --------------------------------------------------------------------------
# shared expensive artifacts
# --------------------------------------------------------------------------


def _train(scenario_name: str, alpha: float, seed: int):
    scenario = build_preset(scenario_name)
    cfg = preset_workload_config(scenario_name, n_snapshots=EVAL_SNAPSHOTS)
    started = time.perf_counter()
    result = train_agent(scenario, alpha, seed, cfg, PPOConfig(), TIMESTEPS)
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def small_trainings():
    """Small-preset alpha=0 trainings for seeds 1..3 plus wall time each."""
    return {seed: _train("small-payload", 0.0, seed) for seed in (1, 2, 3)}


@pytest.fixture(scope="module")
def small_agents(small_trainings):
    """The small-preset seed-1 policies by alpha, shared by small_rows and criterion 9."""
    return {
        0.0: small_trainings[1][0].agent,
        0.5: _train("small-payload", 0.5, 1)[0].agent,
    }


@pytest.fixture(scope="module")
def small_rows(small_agents):
    scenario = build_preset("small-payload")
    plan = ExperimentPlan(
        scenario=scenario,
        workload_cfg=preset_workload_config("small-payload", EVAL_SNAPSHOTS),
        alphas=(0.0, 0.5),
        candidates=("agent", "joint-milp"),
        eval_snapshots=EVAL_SNAPSHOTS,
        timing=False,
    )
    return evaluate_candidates(plan, EVAL_SEED, small_agents)


@pytest.fixture(scope="module")
def large_rows():
    scenario = build_preset("large-payload")
    agents = {
        0.0: _train("large-payload", 0.0, 1)[0].agent,
        0.5: _train("large-payload", 0.5, 1)[0].agent,
    }
    plan = ExperimentPlan(
        scenario=scenario,
        workload_cfg=preset_workload_config("large-payload", EVAL_SNAPSHOTS),
        alphas=(0.0, 0.5),
        candidates=("agent", "joint-milp"),
        eval_snapshots=EVAL_SNAPSHOTS,
        timing=True,  # criterion 7 compares the timed decision latencies
    )
    return evaluate_candidates(plan, EVAL_SEED, agents)


def _mean(rows, candidate, alpha, field):
    group = [
        getattr(r, field)
        for r in rows
        if r.candidate == candidate and r.alpha == alpha and r.valid
    ]
    assert group, f"no valid rows for {candidate} at alpha={alpha}"
    return float(np.mean(group)), len(group)


# --------------------------------------------------------------------------
# criterion 1: routing optimality against brute force
# --------------------------------------------------------------------------


def test_criterion_01_routing_optimality(report):
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    instances = 1000
    feasible = 0
    worst_rel = 0.0
    worst_residual = 0.0
    for _ in range(instances):
        delays, w, placement, cores, cpr = random_routing_case(rng)
        problem = RoutingProblem(
            delays=delays,
            workload_row=w,
            placement=placement,
            available_cores=cores,
            cores_per_request=cpr,
        )
        fast = solve_routing(problem)
        slow = brute_force_routing(problem)
        assert fast.status == slow.status, "feasibility verdicts disagree"
        if fast.status != "optimal":
            continue
        feasible += 1
        scale = max(1.0, abs(slow.objective_delay))
        worst_rel = max(worst_rel, abs(fast.objective_delay - slow.objective_delay) / scale)
        x = fast.routing
        res = max(
            float(np.abs(x.sum(axis=1) - 1.0).max()),
            float(max(0.0, -(x.min()))),
            float(np.abs(x[:, ~placement]).max()) if (~placement).any() else 0.0,
        )
        draw = (x * w[:, None]).sum(axis=0) * cpr
        res = max(
            res,
            float((draw - np.maximum(cores, 0.0)).max() / max(1.0, cores.max())),
        )
        worst_residual = max(worst_residual, res)
    elapsed = time.perf_counter() - started
    ok = (
        feasible >= 300
        and worst_rel <= 1e-6
        and worst_residual <= 1e-9
        and elapsed < 60.0
    )
    report(
        1,
        "routing-optimality",
        ok,
        f"{instances} instances, {feasible} feasible, max rel err {worst_rel:.2e}, "
        f"max residual {worst_residual:.2e}, {elapsed:.1f}s < 60s",
    )


# --------------------------------------------------------------------------
# criterion 2: joint placement solver against exhaustive enumeration
# --------------------------------------------------------------------------


def test_criterion_02_joint_milp_exactness(report):
    rng = np.random.default_rng(202)
    started = time.perf_counter()
    instances = 200
    feasible = 0
    worst_rel = 0.0
    placements_equal = True
    for _ in range(instances):
        scenario = _random_joint_scenario(rng)
        alpha = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
        lam_t, lam_c = joint_objective_weights(scenario, scenario.workload, alpha)
        sol = solve_joint_milp(scenario, alpha=alpha, tie_exact=True)
        ref = exhaustive_joint_enumeration(scenario, scenario.workload, lam_t, lam_c)
        if ref is None:
            assert sol.status == "infeasible", "solver found a plan enumeration ruled out"
            continue
        assert sol.optimal, "unbudgeted solve must prove optimality"
        feasible += 1
        scale = max(abs(ref[0]), 1e-10)
        worst_rel = max(worst_rel, abs(sol.objective - ref[0]) / scale)
        if not np.array_equal(sol.placements, ref[1]):
            placements_equal = False
    elapsed = time.perf_counter() - started
    ok = (
        feasible >= 100
        and worst_rel <= 1e-7
        and placements_equal
        and elapsed < 120.0
    )
    report(
        2,
        "joint-milp-exactness",
        ok,
        f"{instances} instances, {feasible} feasible, tie-broken placements "
        f"{'identical' if placements_equal else 'DIFFER'}, max obj rel err {worst_rel:.2e}, "
        f"{elapsed:.1f}s < 120s",
    )


# --------------------------------------------------------------------------
# criterion 3: reward contract
# --------------------------------------------------------------------------


def _violation_rewards():
    scenario = make_scenario(
        delays=[[0, 1], [1, 0]],
        cores=[5, 50],
        memory=[10, 3],
        fn_memory=[8, 1, 1],
        workload=[[1, 1], [6, 6], [1, 1]],
    )
    env = PlacementEnv(scenario, alpha=0.3)
    env.reset()
    rewards = {}
    # queue order: f1 (heaviest), then f0/f2; drive one violation of each kind
    rewards["routing-infeasible"] = env.step(np.array([True, False]))  # 12 req > 5 cores
    rewards["memory"] = env.step(np.array([True, True]))  # f0 needs 8 GB, node 1 has 3
    rewards["empty-placement"] = env.step(np.zeros(2, dtype=bool))
    return {k: v for k, v in rewards.items()}


def test_criterion_03_reward_contract(report):
    rng = np.random.default_rng(303)
    cases = 10_000
    in_range = True
    alpha0_independent = True
    alpha1_independent = True
    for _ in range(cases):
        lo_t, lo_c = rng.uniform(-50, 50, size=2)
        span_t = 0.0 if rng.random() < 0.05 else rng.uniform(0, 200)
        span_c = 0.0 if rng.random() < 0.05 else rng.uniform(0, 200)
        bounds = RewardBounds(
            t_min=lo_t, t_max=lo_t + span_t, c_min=lo_c, c_max=lo_c + span_c
        )
        t = rng.uniform(lo_t - 20, lo_t + span_t + 20)
        c = rng.uniform(lo_c - 20, lo_c + span_c + 20)
        alpha = float(rng.choice([0.0, 1.0, rng.random()]))
        reward, _ = normalize_and_reward(t, c, bounds, alpha)
        if not -1.0 - 1e-12 <= reward <= 1.0 + 1e-12:
            in_range = False
        if alpha == 0.0:
            other, _ = normalize_and_reward(t, rng.uniform(-500, 500), bounds, 0.0)
            if other != reward:
                alpha0_independent = False
        if alpha == 1.0:
            other, _ = normalize_and_reward(rng.uniform(-500, 500), c, bounds, 1.0)
            if other != reward:
                alpha1_independent = False
    outcomes = _violation_rewards()
    penalties_exact = all(
        out.violation == kind and out.reward == -2.0 for kind, out in outcomes.items()
    ) and PENALTY_REWARD == -2.0
    ok = in_range and alpha0_independent and alpha1_independent and penalties_exact
    report(
        3,
        "reward-contract",
        ok,
        f"{cases} randomized cases in [-1,1]: {in_range}, alpha=0 ignores cost: "
        f"{alpha0_independent}, alpha=1 ignores delay: {alpha1_independent}, "
        f"all {len(outcomes)} violation kinds scored exactly -2: {penalties_exact}",
    )


# --------------------------------------------------------------------------
# criterion 4: analytic PPO gradient vs finite differences
# --------------------------------------------------------------------------


def test_criterion_04_ppo_gradient_check(report):
    cfg = PPOConfig()
    seeds = 20
    worst = 0.0
    max_params = 0
    for seed in range(seeds):
        rng = np.random.default_rng(4000 + seed)
        net = MLP(3, 2, hidden=(4,), rng=rng)
        max_params = max(max_params, net.n_params)
        net.set_params(net.get_params() + rng.normal(scale=0.4, size=net.n_params))
        states = rng.normal(size=(6, 3))
        actions = rng.random((6, 2)) < 0.5
        logits, _ = net.forward(states)
        lp = log_prob_from_logits(logits, actions)
        eps = cfg.clip_ratio
        offsets = rng.uniform(np.log(1 - 0.7 * eps), np.log(1 + 0.7 * eps), size=6)
        adv = rng.normal(size=6)
        adv[np.abs(adv) < 0.1] = 0.5  # keep ratios and advantages off the clip kinks
        batch = {
            "states": states,
            "actions": actions,
            "old_log_probs": lp - offsets,
            "advantages": adv,
            "returns": rng.normal(size=6),
        }
        _, grad = ppo_loss_and_grad(net, batch, cfg)

        def loss_at(flat):
            probe = MLP(3, 2, hidden=(4,))
            probe.set_params(flat)
            stats, _ = ppo_loss_and_grad(probe, batch, cfg)
            return stats["loss"]

        fd = finite_difference_grad(loss_at, net.get_params())
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-4)
        worst = max(worst, float(np.max(np.abs(grad - fd) / denom)))
    ok = worst <= 1e-4 and max_params <= 100
    report(
        4,
        "ppo-gradient-check",
        ok,
        f"{seeds} seeds, {max_params} params per net, max rel err {worst:.2e} <= 1e-4",
    )


# --------------------------------------------------------------------------
# criterion 5: invalid placements decline while training
# --------------------------------------------------------------------------


def test_criterion_05_learning_trend(report, small_trainings):
    details = []
    ok = True
    for seed, (result, elapsed) in sorted(small_trainings.items()):
        rows = result.log_rows
        quarter = max(1, len(rows) // 4)
        head, tail = rows[:quarter], rows[-quarter:]
        rate = lambda chunk: sum(r["window_invalid"] for r in chunk) / sum(
            r["window_steps"] for r in chunk
        )
        first, last = rate(head), rate(tail)
        cumulative = [r["cumulative_invalid"] for r in rows]
        monotone = all(b >= a for a, b in zip(cumulative, cumulative[1:]))
        slowing = sum(r["window_invalid"] for r in tail) < sum(
            r["window_invalid"] for r in head
        )
        seed_ok = (
            last <= 0.6 * first and monotone and slowing and elapsed <= 900.0
        )
        ok = ok and seed_ok
        details.append(
            f"seed {seed}: {first:.3f}->{last:.3f} ({elapsed:.0f}s)"
        )
    report(
        5,
        "learning-trend",
        ok,
        "last-quarter invalid rate <= 60% of first quarter on 3 seeds: "
        + ", ".join(details),
    )


# --------------------------------------------------------------------------
# criterion 6: alpha steers the delay/cost trade-off
# --------------------------------------------------------------------------


def test_criterion_06_tradeoff_direction(report, small_rows, large_rows):
    details = []
    ok = True
    for preset, rows in (("small", small_rows), ("large", large_rows)):
        for candidate in ("agent", "joint-milp"):
            delay_fast, n1 = _mean(rows, candidate, 0.0, "delay_ms_per_req")
            delay_cheap, n2 = _mean(rows, candidate, 0.5, "delay_ms_per_req")
            cost_fast, _ = _mean(rows, candidate, 0.0, "cost")
            cost_cheap, _ = _mean(rows, candidate, 0.5, "cost")
            pair_ok = (
                delay_fast < delay_cheap and cost_cheap < cost_fast
                and min(n1, n2) >= EVAL_SNAPSHOTS * 0.9
            )
            ok = ok and pair_ok
            details.append(
                f"{preset}/{candidate}: delay {delay_fast:.2f}<{delay_cheap:.2f}, "
                f"cost {cost_cheap:.1f}<{cost_fast:.1f}"
            )
    report(6, "tradeoff-direction", ok, "; ".join(details))


# --------------------------------------------------------------------------
# criterion 7: decisions come faster than the exact solver
# --------------------------------------------------------------------------


def test_criterion_07_decision_time(report, large_rows):
    agent_ms = [r.decision_time_ms for r in large_rows if r.candidate == "agent" and r.valid]
    milp_ms = [r.decision_time_ms for r in large_rows if r.candidate == "joint-milp" and r.valid]
    ratio = float(np.mean(milp_ms)) / float(np.mean(agent_ms))
    ok = ratio >= 2.0
    report(
        7,
        "decision-time",
        ok,
        f"large preset: agent mean {np.mean(agent_ms):.2f} ms vs exact solver mean "
        f"{np.mean(milp_ms):.1f} ms -> {ratio:.1f}x faster (needs >= 2x)",
    )


# --------------------------------------------------------------------------
# criterion 8: solution quality near the optimum
# --------------------------------------------------------------------------


def test_criterion_08_quality_gap(report, small_rows):
    agent_delay, n_agent = _mean(small_rows, "agent", 0.0, "delay_ms_per_req")
    milp_delay, _ = _mean(small_rows, "joint-milp", 0.0, "delay_ms_per_req")
    gap = agent_delay / milp_delay
    ok = gap <= 3.0 and n_agent >= EVAL_SNAPSHOTS * 0.9
    report(
        8,
        "quality-gap",
        ok,
        f"small preset alpha=0: agent {agent_delay:.3f} ms/req vs optimal "
        f"{milp_delay:.3f} -> {gap:.2f}x (needs <= 3x, {n_agent} valid snapshots)",
    )


# --------------------------------------------------------------------------
# criterion 9: decision verifier soundness
# --------------------------------------------------------------------------


def _corruptions(doc: dict):
    """Four corruption families applied to one decision document."""
    out = []
    scaled = copy.deepcopy(doc)
    f = 0
    scaled["routes"][f][0] = [1.5 * v for v in scaled["routes"][f][0]]
    out.append(("route-sum", scaled))

    excluded = copy.deepcopy(doc)
    found = False
    for f, row in enumerate(excluded["placements"]):
        for j, flag in enumerate(row):
            if flag == 1 and any(r[j] > 1e-9 for r in excluded["routes"][f]):
                row[j] = 0  # routes still target node j -> exclusion breach
                found = True
                break
        if found:
            break
    out.append(("route-outside-placement", excluded))

    overload = copy.deepcopy(doc)
    overload["workload"] = [[50.0 * v for v in row] for row in overload["workload"]]
    overload["total_delay"] = 50.0 * overload["total_delay"]
    overload["total_cost"] = 50.0 * overload["total_cost"]
    out.append(("core-capacity", overload))

    bloated = copy.deepcopy(doc)
    bloated["placements"] = [[1] * len(row) for row in bloated["placements"]]
    out.append(("memory-capacity", bloated))
    return out


def _agent_decision_docs(scenario, agents, rows):
    """Each agent row's decision document, from its episode re-run on its evaluation snapshot."""
    cfg = preset_workload_config("small-payload", EVAL_SNAPSHOTS)
    snapshots = generate_workloads(
        scenario.n_functions, scenario.n_nodes, cfg, rng_stream(EVAL_SEED, "workload-eval")
    )
    docs = []
    for row in rows:
        assert row.candidate == "agent"
        workload = snapshots[row.snapshot]
        record = run_episode(agents[row.alpha], PlacementEnv(scenario, row.alpha), workload)
        placements = np.array([record.placements[f] for f in range(scenario.n_functions)])
        docs.append(
            decision_to_dict(
                scenario.name, workload, placements, record.routes, record.total_delay,
                record.total_cost, row.candidate, row.alpha, row.snapshot,
            )
        )
    return docs


def test_criterion_09_verifier_soundness(report, small_agents, small_rows, tmp_path):
    scenario = build_preset("small-payload")
    scenario_path = tmp_path / "scenario.json"
    save_scenario(str(scenario_path), scenario)
    docs = _agent_decision_docs(scenario, small_agents, [r for r in small_rows if r.valid][:10])
    assert len(docs) == 10
    good_paths = []
    for k, doc in enumerate(docs):
        path = tmp_path / f"good-{k}.json"
        save_decision(str(path), doc)
        good_paths.append(str(path))
    good_code = main(["verify", "--scenario", str(scenario_path), *good_paths])

    corrupted = list(
        itertools.islice(
            (c for doc in docs for c in _corruptions(doc)), 20
        )
    )
    assert len(corrupted) == 20
    caught = 0
    for k, (kind, doc) in enumerate(corrupted):
        path = tmp_path / f"bad-{k}-{kind}.json"
        save_decision(str(path), doc)
        code = main(["verify", "--scenario", str(scenario_path), str(path)])
        if code == EXIT_INVALID:
            caught += 1
    ok = good_code == EXIT_OK and caught == 20
    report(
        9,
        "verifier-soundness",
        ok,
        f"{len(good_paths)} solver outputs accepted: {good_code == EXIT_OK}, "
        f"corrupted files rejected: {caught}/20",
    )


# --------------------------------------------------------------------------
# criterion 10: byte-identical reruns
# --------------------------------------------------------------------------


def _artifact_bytes(out_dir):
    return {
        p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
    }


def test_criterion_10_determinism(report, tmp_path):
    scenario_path = tmp_path / "scenario.json"
    save_scenario(str(scenario_path), build_preset("small-payload"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"workload": {"drift_prob": 0.5}}))
    runs = []
    for attempt in ("a", "b"):
        train_dir = tmp_path / f"train-{attempt}"
        code = main(
            [
                "train", "--scenario", str(scenario_path), "--alpha", "0",
                "--seed", "11", "--timesteps", "1024", "--train-snapshots", "6",
                "--out", str(train_dir),
            ]
        )
        assert code == EXIT_OK
        cmp_dir = tmp_path / f"compare-{attempt}"
        code = main(
            [
                "compare", "--scenario", str(scenario_path), "--alphas", "0,0.5",
                "--seed", "11", "--timesteps", "1024", "--train-snapshots", "6",
                "--snapshots", "4", "--milp-budget", "150", "--no-timing",
                "--config", str(cfg_path), "--out", str(cmp_dir),
            ]
        )
        assert code == EXIT_OK
        runs.append((_artifact_bytes(train_dir), _artifact_bytes(cmp_dir)))
    train_same = runs[0][0] == runs[1][0]
    compare_same = runs[0][1] == runs[1][1]
    n_files = len(runs[0][0]) + len(runs[0][1])
    ok = train_same and compare_same and n_files >= 7
    report(
        10,
        "determinism",
        ok,
        f"train artifacts identical: {train_same}, compare artifacts identical: "
        f"{compare_same} ({n_files} files compared)",
    )
