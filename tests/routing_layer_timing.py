"""Microseconds per slow routing slot: solve_routing against LockstepEnv's own path.

Trains as train-small trains (small-payload, alpha 0, 2048 steps, 50 training
snapshots, default PPO settings) and captures every batch of slots that
LockstepEnv.step routes past the nearest-host fast path. Then, on those
slots, it times:

- LockstepEnv._route_exactly, the in-step path (route_flows on lists cut
  from the step's arrays, then unit_rows on the batch), per slot;
- solve_routing on one RoutingProblem per slot, this tree's version and,
  with --baseline REV, the routing.py of git revision REV loaded beside it.

Each figure is the median over --repeats passes of the total time divided
by the slot count; the passes alternate between the timed paths.

    PYTHONPATH=src python3 tests/routing_layer_timing.py --seed 1 --baseline HEAD~1
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from edgeplace import bench, routing
from edgeplace.env import LockstepEnv
from edgeplace.ppo import PPOConfig
from edgeplace.scenarios import build_preset, preset_workload_config


def capture(seed: int) -> tuple[LockstepEnv, list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """(env, [(rows, placement, caps) of each step's slow slots]) from one training."""
    batches = []
    original = LockstepEnv._route_exactly

    def recording(self, rows, placement, caps):
        batches.append((rows.copy(), placement.copy(), caps.copy()))
        return original(self, rows, placement, caps)

    LockstepEnv._route_exactly = recording
    try:
        scenario = build_preset("small-payload")
        cfg = preset_workload_config("small-payload", 50)
        bench.train_agent(scenario, 0.0, seed, cfg, PPOConfig(), 2048)
    finally:
        LockstepEnv._route_exactly = original
    return LockstepEnv(scenario), batches


def load_routing(rev: str):
    """routing.py as of git revision `rev`, imported under its own name."""
    source = subprocess.run(
        ["git", "show", f"{rev}:src/edgeplace/routing.py"],
        check=True, capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1],
    ).stdout
    path = Path(tempfile.mkdtemp()) / "baseline_routing.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("baseline_routing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def problems(module, delays: np.ndarray, batches) -> list:
    """One RoutingProblem per slot; capacities pass as cores at one core per request."""
    out = []
    for rows, placement, caps in batches:
        for w, hosted, cap in zip(rows, placement, caps):
            out.append(module.RoutingProblem(delays=delays, workload_row=w, placement=hosted,
                                             available_cores=cap, cores_per_request=np.ones_like(cap)))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--baseline", default=None, help="git revision of a routing.py to time too")
    args = parser.parse_args()

    env, batches = capture(args.seed)
    slots = sum(len(rows) for rows, _, _ in batches)
    delays = env.scenario.topology.delays
    paths = {"LockstepEnv._route_exactly": lambda: [env._route_exactly(*b) for b in batches]}
    routers = {"solve_routing": routing}
    if args.baseline:
        routers[f"solve_routing@{args.baseline}"] = load_routing(args.baseline)
    results = [env._route_exactly(*b) for b in batches]
    routable = np.concatenate([ok for ok, _ in results])
    exact = np.concatenate([x for _, x in results])
    traffic = np.concatenate([rows for rows, _, _ in batches]) > 0
    for name, module in routers.items():
        cases = problems(module, delays, batches)
        solved = [module.solve_routing(p) for p in cases]
        same = all(
            sol.feasible == ok and (not ok or np.array_equal(sol.routing[used], x[used]))
            for sol, ok, x, used in zip(solved, routable, exact, traffic)
        )
        print(f"{name}: routings {'equal' if same else 'DIFFER'} to the in-step path's")
        paths[name] = lambda module=module, cases=cases: [module.solve_routing(p) for p in cases]
    samples = {name: [] for name in paths}
    for _ in range(args.repeats):
        for name, run in paths.items():
            started = time.perf_counter()
            run()
            samples[name].append((time.perf_counter() - started) / slots * 1e6)
    print(f"seed {args.seed}: {slots} slow slots in {len(batches)} lockstep steps")
    for name, values in samples.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name:>32}: {med:7.1f} us per slot [quartiles {q1:.1f}, {q3:.1f}]")


if __name__ == "__main__":
    main()
