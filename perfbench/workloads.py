"""The edgeplace benchmark workloads, driven through the package's public API.

Every workload is a fixed amount of work derived from ``(seed, seconds)``:
the same arguments always give the same inputs, and at one commit the same
decisions and counts on any machine, so counts repeat exactly and timings
compare like for like. Decisions form a closed loop with one caller: each is
issued after the previous one returns, and each is re-checked by
``verify.verify_decision`` outside its timed region.

A trained policy's latency and training speed depend on its seed far more
than on the code, so train-small pools many independently seeded trainings
and the decide workloads use agents trained from fixed seeds.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from edgeplace import baselines, bench, env, verify, workload
from edgeplace.ppo import PPOConfig
from edgeplace.scenarios import build_preset, preset_workload_config

import tracing

CANDIDATES = ("agent", "joint-milp", "vsvbp", "cr-eua")
TRAIN_SNAPSHOTS = 50  # training set each train_agent call draws, as `compare` uses
EXACT_RTOL = 1e-9
_EVAL_STREAM = 0x5EED  # benchmark-side stream for evaluation snapshots


@dataclass(frozen=True)
class Plan:
    kind: str  # "train": agents are trained in the timed phase; "decide": in set-up
    preset: str
    alphas: tuple[float, ...]
    train_steps: int  # env steps per bench.train_agent call
    agents: int  # train: timed training jobs; decide: agents trained per alpha
    snapshots: int  # evaluation snapshots every agent and greedy baseline decides
    milp_snapshots: int = 0  # evenly spaced subset the exact solver decides too
    rounds: int = 1  # passes of the agents (and greedy baselines) over the snapshot set
    milp_budget: int = 2000  # LP solves, as bench.evaluate_candidates passes it
    setup_repeats: int = 3  # set-up runs per benchmark run; setup_s is their median
    input_batch: int = 1  # input generations per set-up, timed as one unit and averaged


def plan_for(name: str, seconds: int) -> Plan:
    """Work sized so one run measures about `seconds` on a 2-core Xeon VM.

    Agent counts and snapshot counts give at least 100 agent decisions, so
    at least ten samples lie beyond p90.
    """
    if name == "train-small":
        return Plan(
            "train", "small-payload", (0.0,), 2048, max(2, round(seconds)), 8, rounds=3,
            setup_repeats=5, input_batch=20,  # inputs take well under a millisecond
        )
    if name == "decide-small":
        return Plan(
            "decide", "small-payload", (0.0, 0.5), 2048, 2, 50,
            milp_snapshots=max(1, round(0.6 * seconds)), rounds=max(1, round(seconds / 3)),
        )
    if name == "decide-large":
        milp = max(1, round(seconds / 12))  # a budget-bound solve takes about 11 s
        return Plan(
            "decide", "large-payload", (0.0,), 2048, 2, 50, milp_snapshots=milp, rounds=3 * milp,
        )
    raise ValueError(f"unknown workload {name!r}")


def subseed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------


@dataclass
class Setup:
    scenario: object
    snapshots: list[np.ndarray]
    agents: dict = field(default_factory=dict)  # (alpha, k) -> PolicyAgent
    trainings: list[dict] = field(default_factory=list)
    parts: list[tuple[float, float]] = field(default_factory=list)  # (wall s, slowness)


def _train(scenario, plan: Plan, alpha: float, seed: int) -> tuple[object, dict]:
    cfg = preset_workload_config(plan.preset, TRAIN_SNAPSHOTS)
    started = time.perf_counter()
    result = bench.train_agent(scenario, alpha, seed, cfg, PPOConfig(), plan.train_steps)
    wall = time.perf_counter() - started
    steps = result.log_rows[-1]["timesteps"]
    return result.agent, {"steps": steps, "wall_s": wall, "slowness": 1.0}


def set_up(plan: Plan, seed: int, cal=None) -> Setup:
    """Scenario, evaluation snapshots and, for decide workloads, the agents.

    With a calibrator, the inputs and every training are timed units of their
    own, so each is rescaled by the machine speed measured around it.
    """
    started = time.perf_counter()
    for _ in range(plan.input_batch):
        scenario = build_preset(plan.preset)
        # One drifting sequence, drawn as `evaluate` draws its snapshots. Drift
        # can move both hotspots onto one node; those capacity-bound snapshots
        # are the ones that exhaust joint-milp's budget on large-payload.
        snapshots = workload.generate_workloads(
            scenario.n_functions, scenario.n_nodes,
            preset_workload_config(plan.preset, plan.snapshots),
            np.random.default_rng([seed, _EVAL_STREAM]),
        )
    setup = Setup(scenario=scenario, snapshots=snapshots)
    setup.parts.append(((time.perf_counter() - started) / plan.input_batch, _close(cal)))
    if plan.kind == "decide":
        # Agents play the part of a shipped checkpoint: trained from the fixed
        # seeds 1..agents, so --seed varies only the snapshots they decide and a
        # policy drawn from a lucky or unlucky seed does not move the latency.
        for alpha in plan.alphas:
            for k in range(plan.agents):
                agent, info = _train(scenario, plan, alpha, k + 1)
                _stamp(cal, [], (info,))
                setup.agents[(alpha, k)] = agent
                setup.trainings.append(info)
                setup.parts.append((info["wall_s"], info["slowness"]))
    return setup


# --------------------------------------------------------------------------
# one decision
# --------------------------------------------------------------------------


@dataclass
class Decision:
    candidate: str
    alpha: float
    snapshot: int
    agent: int = 0  # which trained agent decided (agent rows only)
    wall_s: float | None = None
    slowness: float = 1.0  # machine slowness over the pass that made it (calibration.py)
    valid: bool = False
    objective: float | None = None
    optimal: bool = False
    lp_solves: int = 0
    problems: list[str] = field(default_factory=list)  # verifier findings
    error: str | None = None  # traceback when the call raised

    @property
    def broken(self) -> bool:
        """The call raised or its decision failed verification: a program error."""
        return self.error is not None or bool(self.problems)

    @property
    def failed(self) -> bool:
        """Broken, or the candidate itself reported no valid decision."""
        return self.broken or not self.valid


def decide(scenario, candidate: str, alpha: float, snapshot: int, snap, agent=None,
           agent_id: int = 0, milp_budget: int = 2000) -> Decision:
    """Time one decision, then verify it and score it outside the timed region."""
    row = Decision(candidate, alpha, snapshot, agent_id)
    try:
        started = time.perf_counter()
        if candidate == "agent":
            record = env.run_episode(agent, env.PlacementEnv(scenario, alpha), snap,
                                     deterministic=True)
            row.wall_s = time.perf_counter() - started
            row.valid = record.valid
            delay, cost = record.total_delay, record.total_cost
            placements = np.zeros((scenario.n_functions, scenario.n_nodes), dtype=bool)
            for f, p in record.placements.items():
                placements[f] = p
            routes = record.routes
        else:
            if candidate == "joint-milp":
                sol = baselines.solve_joint_milp(
                    scenario, snap, alpha=alpha, node_budget=milp_budget, tie_exact=False
                )
            elif candidate == "vsvbp":
                sol = baselines.solve_vsvbp(scenario, snap)
            else:
                sol = baselines.solve_creua(scenario, snap)
            row.wall_s = time.perf_counter() - started
            row.valid, row.optimal, row.lp_solves = sol.feasible, sol.optimal, sol.lp_solves
            delay, cost = sol.total_delay, sol.total_cost
            placements, routes = sol.placements, sol.routes
        if not row.valid:
            return row
        doc = verify.decision_to_dict(
            scenario_name=scenario.name, workload=snap, placements=placements, routes=routes,
            total_delay=delay, total_cost=cost, candidate=candidate, alpha=alpha,
            snapshot=snapshot,
        )
        row.problems = verify.verify_decision(scenario, doc)
        lam_t, lam_c = baselines.joint_objective_weights(scenario, snap, alpha)
        row.objective = lam_t * delay + lam_c * cost
    except Exception:  # a crash is one failed decision; the run reports it and goes on
        row.error = traceback.format_exc(limit=4)
    return row


# --------------------------------------------------------------------------
# timed phases
# --------------------------------------------------------------------------


@dataclass
class Outcome:
    decisions: list[Decision] = field(default_factory=list)
    trainings: list[dict] = field(default_factory=list)  # timed trainings (train kind)
    train_errors: list[str] = field(default_factory=list)


def _tag(tracer, context: str) -> None:
    if tracer is not None:
        tracer.set_context(context)


def _close(cal) -> float:
    """Slowness of the timed unit that just ended; 1.0 without a calibrator."""
    return 1.0 if cal is None else cal.close()


def _stamp(cal, rows: list[Decision], trainings: tuple[dict, ...] = ()) -> None:
    """Close a timed unit: give its decisions and trainings the unit's slowness."""
    slowness = _close(cal)
    for row in rows:
        row.slowness = slowness
    for info in trainings:
        info["slowness"] = slowness


def run_train(plan: Plan, setup: Setup, seed: int, tracer=None, cal=None) -> Outcome:
    """Independently seeded training jobs; each trained agent then decides the
    snapshot set `rounds` times."""
    out = Outcome()
    alpha = plan.alphas[0]
    for k in range(plan.agents):
        _tag(tracer, f"train{k}")
        try:
            agent, info = _train(setup.scenario, plan, alpha, subseed(seed, k))
        except Exception:
            out.train_errors.append(traceback.format_exc(limit=4))
            continue
        _stamp(cal, [], (info,))
        out.trainings.append(info)
        for _ in range(plan.rounds):
            rows = []
            for i, snap in enumerate(setup.snapshots):
                _tag(tracer, f"train{k}/agent/s{i}")
                rows.append(decide(setup.scenario, "agent", alpha, i, snap, agent, k))
            _stamp(cal, rows)
            out.decisions += rows
    return out


def milp_indices(plan: Plan) -> list[int]:
    """Centres of `milp_snapshots` equal slices of the snapshot set."""
    k = min(plan.milp_snapshots, plan.snapshots)
    return [int((j + 0.5) * plan.snapshots / k) for j in range(k)]


def run_decide(plan: Plan, setup: Setup, seed: int, tracer=None, cal=None) -> Outcome:
    """`rounds` rounds, each a pass per candidate in `evaluate`'s candidate order.

    Every round the agents and greedy baselines decide the whole snapshot set
    and joint-milp decides its share of the exact-solver subset, so the cheap
    candidates are timed warm, as `evaluate` runs them, at several points
    spread over the run rather than in one short window.
    """
    out = Outcome()
    scenario, snaps = setup.scenario, setup.snapshots
    exact = [(i, alpha) for i in milp_indices(plan) for alpha in plan.alphas]
    blocks: list[list] = [[] for _ in range(plan.rounds)]
    for j, pair in enumerate(exact):  # spread the long solves evenly over the rounds
        blocks[int((j + 0.5) * plan.rounds / len(exact))].append(pair)
    for block in blocks:
        rows = []
        for alpha in plan.alphas:
            for k in range(plan.agents):
                for i, snap in enumerate(snaps):
                    _tag(tracer, f"a{alpha:g}/agent{k}/s{i}")
                    rows.append(
                        decide(scenario, "agent", alpha, i, snap, setup.agents[(alpha, k)], k)
                    )
        _stamp(cal, rows)
        out.decisions += rows
        rows = []
        for candidate in ("vsvbp", "cr-eua"):
            for alpha in plan.alphas:
                for i, snap in enumerate(snaps):
                    _tag(tracer, f"a{alpha:g}/{candidate}/s{i}")
                    rows.append(decide(scenario, candidate, alpha, i, snap))
        _stamp(cal, rows)
        out.decisions += rows
        for i, alpha in block:
            _tag(tracer, f"a{alpha:g}/joint-milp/s{i}")
            row = decide(scenario, "joint-milp", alpha, i, snaps[i], milp_budget=plan.milp_budget)
            _stamp(cal, [row])
            out.decisions.append(row)
    return out


def execute(plan: Plan, setup: Setup, seed: int, tracer=None, cal=None) -> Outcome:
    runner = run_train if plan.kind == "train" else run_decide
    return runner(plan, setup, seed, tracer, cal)


# --------------------------------------------------------------------------
# correctness and summaries
# --------------------------------------------------------------------------


def exactness_check(decisions: list[Decision]) -> tuple[list[str], int]:
    """Breaches of a proven joint-milp optimum, and snapshots beating a non-proven one."""
    groups: dict = defaultdict(list)
    for d in decisions:
        groups[(d.alpha, d.snapshot)].append(d)
    breaches, beaten = [], 0
    for (alpha, snapshot), rows in sorted(groups.items()):
        milp = [d for d in rows if d.candidate == "joint-milp" and not d.failed]
        if not milp:
            continue
        ref = milp[0].objective
        others = [d for d in rows if d.candidate != "joint-milp" and not d.failed]
        better = [d for d in others if d.objective < ref - EXACT_RTOL * abs(ref)]
        if not better:
            continue
        if milp[0].optimal:
            best = min(better, key=lambda d: d.objective)
            breaches.append(
                f"alpha={alpha:g} snapshot={snapshot}: {best.candidate} objective "
                f"{best.objective!r} beats proven joint-milp optimum {ref!r}"
            )
        else:
            beaten += 1
    return breaches, beaten


def tally(plan: Plan, out: Outcome, broken_only: bool = False) -> tuple[int, int]:
    """(attempted, failed): decisions, plus the timed trainings of a train workload.

    A decision fails when it is `failed` (or, with `broken_only`, `broken`);
    a training fails when it raised.
    """
    failed = sum(d.broken if broken_only else d.failed for d in out.decisions)
    failed += len(out.train_errors)
    trainings = len(out.trainings) + len(out.train_errors) if plan.kind == "train" else 0
    return len(out.decisions) + trainings, failed


def _ms(rows: list[Decision], rescale: bool) -> list[float]:
    """Milliseconds per decision; a decision timed in several passes gives the
    median of its repeats, so one slow pass does not move the percentiles."""
    repeats: dict = defaultdict(list)
    for d in rows:
        if d.wall_s is not None:
            key = (d.candidate, d.alpha, d.agent, d.snapshot)
            repeats[key].append(1000.0 * d.wall_s / (d.slowness if rescale else 1.0))
    return [statistics.median(v) for v in repeats.values()]


def _metric(value, unit: str, base: str) -> dict:
    return {"value": value, "unit": unit, "base": base}


def _timings(plan: Plan, setups: list[Setup], trainings: list[dict],
             decisions: list[Decision], rescale: bool) -> dict:
    """Timing metrics at the reference speed (rescale) or as wall time."""
    suffix = "" if rescale else ".wall"
    how = "at reference speed" if rescale else "wall"

    def fix(wall: float, slowness: float) -> float:
        return wall / slowness if rescale else wall

    def pct(values: list[float], q: float):
        return float(np.percentile(values, q)) if values else None

    agent_ms = _ms([d for d in decisions if d.candidate == "agent"], rescale)
    per = f"{how}, {len(agent_ms)} agent decisions, each the median of {plan.rounds} passes"
    train_s = sum(fix(t["wall_s"], t["slowness"]) for t in trainings)
    where = " in set-up" if plan.kind == "decide" else ""
    m = {
        "setup_s": _metric(
            statistics.median(sum(fix(w, sl) for w, sl in s.parts) for s in setups), "s",
            f"{how}, median of {len(setups)} set-ups",
        ),
        "train_steps_per_s": _metric(
            # total over total: one time-weighted rate for all the runs
            sum(t["steps"] for t in trainings) / train_s if trainings else None, "steps/s",
            f"{how}, {len(trainings)} train_agent runs of {plan.train_steps} steps{where}",
        ),
        "agent_ms_p50": _metric(pct(agent_ms, 50), "ms", per),
        "agent_ms_p90": _metric(pct(agent_ms, 90), "ms", per),
    }
    if plan.kind == "decide":
        milp_s = [v / 1000.0 for v in _ms([d for d in decisions if d.candidate == "joint-milp"],
                                          rescale)]
        m["milp_s_per_decision"] = _metric(
            float(np.mean(milp_s)) if milp_s else None, "s",
            f"{how}, mean of {len(milp_s)} decisions",
        )
        for name, cand in (("vsvbp_ms_p50", "vsvbp"), ("creua_ms_p50", "cr-eua")):
            ms = _ms([d for d in decisions if d.candidate == cand], rescale)
            m[name] = _metric(
                pct(ms, 50), "ms", f"{how}, {len(ms)} decisions, each the median of "
                f"{plan.rounds} passes",
            )
    return {name + suffix: v for name, v in m.items()}


def summarize(plan: Plan, setups: list[Setup], out: Outcome, slowness: list[float]) -> dict:
    """Every metric the workload defines, each with its unit and its base.

    `setups` holds every set-up of the run. Training speed comes from
    the timed trainings of a train workload and from the set-up trainings
    (all repeats) of a decide workload. Timings appear twice: rescaled to the
    reference speed (the gated ones) and as wall time (suffix `.wall`).
    """
    decisions = out.decisions
    trainings = out.trainings if plan.kind == "train" else [t for s in setups for t in s.trainings]
    m = {
        **_timings(plan, setups, trainings, decisions, rescale=True),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "whole process"
        ),
        "machine.slowness": _metric(
            statistics.median(slowness) if slowness else None, "x",
            f"median of {len(slowness)} calibration samples, range "
            f"{min(slowness, default=0):.3g}-{max(slowness, default=0):.3g}",
        ),
        **_timings(plan, setups, trainings, decisions, rescale=False),
    }
    attempted, failed = tally(plan, out)
    m["failed_pct"] = _metric(
        100.0 * failed / attempted if attempted else None, "%", f"{attempted} attempted"
    )
    if plan.kind == "decide":
        milp = [d for d in decisions if d.candidate == "joint-milp"]
        shared = {(d.alpha, d.snapshot) for d in milp}
        for cand, key in zip(CANDIDATES, ("agent", "milp", "vsvbp", "creua")):
            objs = [
                d.objective for d in decisions
                if d.candidate == cand and not d.failed and (d.alpha, d.snapshot) in shared
            ]
            m[f"{key}_objective"] = _metric(
                float(np.mean(objs)) if objs else None, "objective",
                f"{len(objs)} valid decisions on the {len(shared)} (alpha, snapshot) pairs "
                "joint-milp decided",
            )
        optimal = sum(d.optimal for d in milp)
        m["milp_optimal_pct"] = _metric(
            100.0 * optimal / len(milp) if milp else None, "%", f"{len(milp)} joint-milp decisions"
        )
        m["milp_lp_solves"] = _metric(
            sum(d.lp_solves for d in milp), "count", f"{len(milp)} joint-milp decisions"
        )
    return m


def reference_seconds(setup: Setup, out: Outcome) -> float:
    """Timed work at the reference speed: set-up, trainings and decisions."""
    return (
        sum(wall / slowness for wall, slowness in setup.parts)
        + sum(t["wall_s"] / t["slowness"] for t in out.trainings)
        + sum(d.wall_s / d.slowness for d in out.decisions if d.wall_s is not None)
    )


def failures(out: Outcome) -> list[str]:
    lines = [f"train_agent raised: {err}" for err in out.train_errors]
    for d in out.decisions:
        if d.failed:
            what = d.error or ("; ".join(d.problems) if d.problems else "invalid decision")
            lines.append(f"{d.candidate} alpha={d.alpha:g} snapshot={d.snapshot}: {what}")
    return lines


# --------------------------------------------------------------------------
# per-layer metrics from a traced pass
# --------------------------------------------------------------------------

VIOLATIONS = ("empty-placement", "memory", "routing-infeasible", "cores")


def layer_metrics(tracer: tracing.Tracer, out: Outcome, timed: tuple[float, float],
                  wall_traced: float) -> dict:
    """Per-layer metrics of a traced pass, each with its unit and, for a ratio
    or a property count, its base.

    `timed` holds the `reference_seconds` of an untraced and of the traced pass
    of the same work; the tracing overhead compares the two. `wall_traced` is
    the traced pass's wall time, which the layers' self times account for.

    A metric whose layer callable no longer exists (its wrap target was not
    found) is left out rather than reported as zero.
    """
    times = tracer.layer_times()
    counts = tracer.counts

    def t(name: str, field_: str) -> float:
        return times.get(name, {}).get(field_, 0)

    def pct(num: float, den: float) -> float:
        return 100.0 * num / den if den else 0.0

    routing_calls = t("routing.solve_routing", "calls")
    steps = t("env.PlacementEnv.step", "calls")
    invalid = sum(counts[f"env.violations.{v}"] for v in VIOLATIONS)
    _, beaten = exactness_check(out.decisions)
    layer_self = sum(v["self_ms"] for k, v in times.items() if k not in tracing.OWN_SPANS)
    work_ms = 1000.0 * wall_traced - t(tracing.CALIBRATION_SPAN, "ms")
    milp_calls = t("baselines.solve_joint_milp", "calls")
    per_call = f"{routing_calls} solve_routing calls"
    per_step = f"{steps} env steps"
    per_milp = f"{milp_calls} joint-milp decisions"
    # {span measured at, or None for the benchmark's own data: {name: (value, unit[, base])}}
    by_span = {
        "routing.solve_routing": {
            "routing.solve_routing.calls": (routing_calls, "count"),
            "routing.solve_routing.ms": (t("routing.solve_routing", "ms"), "ms"),
            "routing.infeasible_pct": (
                pct(counts["routing.infeasible"], routing_calls), "%", per_call
            ),
            "routing.nearest_fits_pct": (
                pct(counts["routing.nearest_fits"], routing_calls), "%", per_call
            ),
        },
        "env.PlacementEnv.step": {
            "env.PlacementEnv.step.calls": (steps, "count"),
            "env.PlacementEnv.step.self_ms": (t("env.PlacementEnv.step", "self_ms"), "ms"),
            "env.invalid_step_pct": (pct(invalid, steps), "%", per_step),
            **{
                f"env.violations.{v}": (counts[f"env.violations.{v}"], "count", per_step)
                for v in VIOLATIONS
            },
        },
        "env.PlacementEnv.reset": {
            "env.PlacementEnv.reset.ms": (t("env.PlacementEnv.reset", "ms"), "ms"),
        },
        "env.run_episode": {
            "env.run_episode.self_ms": (t("env.run_episode", "self_ms"), "ms"),
        },
        "nn.MLP.forward": {
            "nn.MLP.forward.calls": (t("nn.MLP.forward", "calls"), "count"),
            "nn.MLP.forward.ms": (t("nn.MLP.forward", "ms"), "ms"),
        },
        "nn.MLP.forward_backward": {
            "nn.MLP.forward_backward.calls": (t("nn.MLP.forward_backward", "calls"), "count"),
            "nn.MLP.forward_backward.ms": (t("nn.MLP.forward_backward", "ms"), "ms"),
        },
        "ppo.ppo_update": {
            "ppo.ppo_update.calls": (t("ppo.ppo_update", "calls"), "count"),
            "ppo.ppo_update.self_ms": (t("ppo.ppo_update", "self_ms"), "ms"),
        },
        "bench.train_agent": {
            "bench.train_agent.self_ms": (t("bench.train_agent", "self_ms"), "ms"),
        },
        "baselines.solve_joint_milp": {
            "baselines.solve_joint_milp.calls": (milp_calls, "count"),
            "baselines.solve_joint_milp.self_ms": (
                t("baselines.solve_joint_milp", "self_ms"), "ms"
            ),
            "baselines.lp_solves": (counts["baselines.lp_solves"], "count", per_milp),
        },
        "scipy.linprog": {
            "scipy.linprog.calls": (t("scipy.linprog", "calls"), "count"),
            "scipy.linprog.ms": (t("scipy.linprog", "ms"), "ms"),
        },
        "baselines.solve_vsvbp": {
            "baselines.solve_vsvbp.self_ms": (t("baselines.solve_vsvbp", "self_ms"), "ms"),
        },
        "baselines.solve_creua": {
            "baselines.solve_creua.ms": (t("baselines.solve_creua", "ms"), "ms"),
        },
        "verify.verify_decision": {
            "verify.verify_decision.calls": (t("verify.verify_decision", "calls"), "count"),
            "verify.verify_decision.ms": (t("verify.verify_decision", "ms"), "ms"),
        },
        "workload.generate_workloads": {
            "workload.generate_workloads.ms": (t("workload.generate_workloads", "ms"), "ms"),
        },
        None: {
            "baselines.milp_beaten": (beaten, "count", per_milp),
            "harness.self_ms": (t(tracing.ROOT_SPAN, "self_ms"), "ms"),
            "trace.hooks.ms": (t(tracing.HOOK_SPAN, "ms"), "ms"),
            "trace.calibration.ms": (t(tracing.CALIBRATION_SPAN, "ms"), "ms"),
            "trace.overhead_pct": (
                pct(timed[1] - timed[0], timed[0]), "%",
                f"timed work at reference speed: untraced {timed[0]:.3f} s, "
                f"traced {timed[1]:.3f} s",
            ),
            "trace.layers_pct": (
                pct(layer_self, work_ms), "%",
                f"edgeplace layers' self time in {work_ms / 1000.0:.3f} s of traced wall time "
                "outside calibration; harness and hooks make up the rest",
            ),
        },
    }
    return {
        name: {"value": v[0], "unit": v[1], **({"base": v[2]} if len(v) > 2 else {})}
        for span, group in by_span.items()
        if span is None or span in tracer.installed
        for name, v in group.items()
    }
