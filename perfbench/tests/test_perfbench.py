"""Tests of the benchmark's own code: output schema, determinism, failure counting.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They use reduced plans, so they check behaviour, not speed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from edgeplace import verify  # noqa: E402

SPEC = run.load_spec()
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
DECIDE_ONLY = [
    "milp_s_per_decision", "vsvbp_ms_p50", "creua_ms_p50", "agent_objective",
    "milp_objective", "vsvbp_objective", "creua_objective", "milp_optimal_pct", "failed_pct",
]
TINY = {
    "train-small": wl.Plan("train", "small-payload", (0.0,), 256, 2, 3, setup_repeats=2),
    "decide-small": wl.Plan(
        "decide", "small-payload", (0.0, 0.5), 256, 1, 3, milp_snapshots=2, setup_repeats=2
    ),
    "decide-large": wl.Plan(
        "decide", "large-payload", (0.0,), 256, 1, 2, milp_snapshots=1, milp_budget=40,
        setup_repeats=1,
    ),
}


@pytest.fixture(scope="module")
def reports():
    return {
        (name, trace): run.run(name, 3, 1, trace, plan=plan)
        for name, plan in TINY.items()
        for trace in (False, True)
    }


def test_spec_lists_the_three_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == ["train-small", "decide-small", "decide-large"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_result_schema(reports, name):
    for trace, listed in ((False, END_TO_END), (True, PER_LAYER)):
        report = reports[(name, trace)]
        assert report["correct"] is True
        assert 0 <= report["failed"] <= report["attempted"] and report["attempted"] >= 1
        assert list(report["gated"]) == listed
        for metric in report["gated"].values():
            assert isinstance(metric["value"], (int, float)) and metric["unit"]
    untraced = reports[(name, False)]["metrics"]
    assert all(untraced[m]["value"] is not None for m in END_TO_END + ["failed_pct"])
    if name.startswith("decide"):  # objectives may be None when a tiny agent fails
        assert set(DECIDE_ONLY) <= set(untraced)
    assert reports[(name, True)]["metrics"]["trace.missing_targets"]["value"] == []


def test_traced_run_covers_every_layer(reports):
    metrics = reports[("decide-small", True)]["metrics"]
    for name in ("routing.solve_routing.calls", "env.PlacementEnv.step.calls",
                 "nn.MLP.forward_backward.calls", "ppo.ppo_update.calls",
                 "baselines.solve_joint_milp.calls", "scipy.linprog.calls",
                 "verify.verify_decision.calls"):
        assert metrics[name]["value"] > 0, name
    assert metrics["baselines.lp_solves"]["value"] == metrics["scipy.linprog.calls"]["value"]


def test_counts_and_objectives_repeat_exactly(reports):
    plan = TINY["decide-small"]
    again = {trace: run.run("decide-small", 3, 1, trace, plan=plan) for trace in (False, True)}
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "%")]
    exact.remove("trace.overhead_pct")
    exact.remove("trace.layers_pct")
    for name in exact:
        assert again[True]["metrics"][name] == reports[("decide-small", True)]["metrics"][name]
    for name in DECIDE_ONLY + ["milp_lp_solves"]:
        if name.endswith(("_objective", "_pct", "_lp_solves")):
            first = reports[("decide-small", False)]["metrics"][name]["value"]
            assert again[False]["metrics"][name]["value"] == first, name


def test_tampered_decision_counts_as_failed(monkeypatch):
    real = verify.decision_to_dict

    def tampered(**kwargs):
        doc = real(**kwargs)
        doc["routes"][0][0] = [0.9 * v for v in doc["routes"][0][0]]  # row sums to 0.9
        return doc

    monkeypatch.setattr(verify, "decision_to_dict", tampered)
    report = run.run("train-small", 3, 1, False, plan=replace(TINY["train-small"], agents=1))
    assert report["correct"] is False
    assert report["failed"] == 3
    assert report["metrics"]["failed_pct"]["value"] == pytest.approx(75.0)
    assert any("route-sum" in line for line in report["failures"])


def test_exactness_check():
    def row(candidate, objective, optimal=False):
        return wl.Decision(candidate, 0.0, 0, wall_s=0.1, valid=True, objective=objective,
                           optimal=optimal)

    breaches, beaten = wl.exactness_check([row("joint-milp", 1.0, optimal=True),
                                           row("agent", 0.9)])
    assert len(breaches) == 1 and beaten == 0
    breaches, beaten = wl.exactness_check([row("joint-milp", 1.0), row("vsvbp", 0.9)])
    assert breaches == [] and beaten == 1
    breaches, beaten = wl.exactness_check([row("joint-milp", 1.0, optimal=True),
                                           row("cr-eua", 1.0 - 1e-12)])
    assert breaches == [] and beaten == 0


def test_missing_wrap_target_is_reported_not_fatal():
    tracer = tracing.Tracer()
    tracer.install([("edgeplace.env", "no_such_function", "env.gone"),
                    ("edgeplace.env", "run_episode", "env.run_episode")])
    tracer.uninstall()
    assert tracer.missing == ["edgeplace.env.no_such_function"]
    metrics = wl.layer_metrics(tracer, wl.Outcome(), (1.0, 1.1), 1.2)
    assert "env.run_episode.self_ms" in metrics and "trace.overhead_pct" in metrics
    assert "scipy.linprog.calls" not in metrics


def test_nearest_host_fits():
    from edgeplace.routing import RoutingProblem

    delays = np.array([[0.0, 1.0], [1.0, 0.0]])
    problem = RoutingProblem(delays, np.array([2.0, 2.0]), np.array([True, True]),
                             np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    assert tracing.nearest_host_fits(problem)
    assert not tracing.nearest_host_fits(replace(problem, available_cores=np.array([1.0, 2.0])))


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cli_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-small", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == END_TO_END
    report = json.loads(proc.stdout.strip().splitlines()[-2])
    assert report["metadata"]["seed"] == 2
    assert report["metadata"]["threads"]["OMP_NUM_THREADS"] == "1"
    assert report["metadata"]["threads"]["EDGEPLACE_THREADS"] is None
