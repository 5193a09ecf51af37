"""edgeplace benchmark: one workload per invocation, result as the last stdout line.

Usage, from the repository root:

    python3 perfbench/run.py --workload decide-small --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end metrics.
Their timings are rescaled to a reference machine speed by a calibration
kernel timed around every unit of work (see calibration.py); the report
also gives each one as plain wall time, suffixed ``.wall``.
``--trace 1`` runs the same work twice, untraced and then with every layer
wrapped, and reports per-layer metrics plus the tracing overhead; the spans
are written to ``.perfbench/trace-<workload>-seed<seed>.jsonl.gz``.

Earlier stdout lines hold a readable table and the full report (run
metadata, every metric with its base, failures); the report is also written
to ``.perfbench/``. The exit code is 1 when a decision fails verification,
a proven joint-milp optimum is beaten, or a call raised; 2 when the package
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Native thread pools pinned to one thread, set before numpy is imported.
PINNED_THREADS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def load_spec() -> dict:
    """BENCHMARK.json: workload names and whys, and the metrics each mode reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git_sha() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    """sha256 over the package sources, which identifies a checkout without git."""
    import hashlib

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "edgeplace")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metadata(args, plan) -> dict:
    import platform
    from dataclasses import asdict

    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": args.seed,
        "seconds": args.seconds,
        "argv": sys.argv,
        "threads": {k: os.environ.get(k) for k in (*PINNED_THREADS, "EDGEPLACE_THREADS")},
        "closed_loop": "one caller; each decision is issued after the previous one returns",
        "plan": asdict(plan),
    }


def run(workload_name: str, seed: int, seconds: int, trace: bool, plan=None) -> dict:
    """Run one workload and return its report (see module docstring)."""
    import time

    import calibration
    import tracing
    import workloads as wl

    spec = load_spec()
    plan = plan or wl.plan_for(workload_name, seconds)
    if not trace:
        cal = calibration.Calibrator()
        cal.sample()
        setups = [wl.set_up(plan, seed, cal) for _ in range(plan.setup_repeats)]
        out = wl.execute(plan, setups[-1], seed, cal=cal)
        metrics = wl.summarize(plan, setups, out, cal.samples)
        outs = [out]
    else:
        # Both passes are calibrated unit by unit, so the overhead compares the
        # same work at the same reference speed.
        cal = calibration.Calibrator()
        cal.sample()
        setup = wl.set_up(plan, seed, cal)
        plain = wl.execute(plan, setup, seed, cal=cal)
        untraced_s = wl.reference_seconds(setup, plain)

        def traced():
            setup = wl.set_up(plan, seed, cal)
            return setup, wl.execute(plan, setup, seed, tracer, cal)

        tracer = tracing.Tracer()
        tracer.install((*tracing.WRAP_TARGETS, tracing.CALIBRATION_TARGET))
        try:
            started = time.perf_counter()
            setup, out = tracer.run_root(traced)
            wall_traced = time.perf_counter() - started
        finally:
            tracer.uninstall()
        timed = (untraced_s, wl.reference_seconds(setup, out))
        metrics = wl.layer_metrics(tracer, out, timed, wall_traced)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{workload_name}-seed{seed}.jsonl.gz"))
        outs = [plain, out]
        metrics["trace.missing_targets"] = {"value": tracer.missing, "unit": "names"}
    # the result line carries the metrics BENCHMARK.json lists for this mode;
    # a layer metric whose callable is gone is absent
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    gated = {
        m["name"]: {"value": metrics[m["name"]]["value"], "unit": metrics[m["name"]]["unit"]}
        for m in listed
        if m["name"] in metrics
    }
    breaches = []
    for o in outs:
        breaches += wl.exactness_check(o.decisions)[0]
    failed_rows = wl.failures(out)
    broken = any(d.broken for o in outs for d in o.decisions) or any(o.train_errors for o in outs)
    # the result line's `failed` counts program errors only; a decision the
    # candidate itself reports invalid is an outcome, counted in failed_pct
    attempted, failed = wl.tally(plan, out, broken_only=True)
    return {
        "workload": workload_name,
        "why": {w["name"]: w["why"] for w in spec["workloads"]}[workload_name],
        "trace": int(trace),
        "correct": not (breaches or broken),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "gated": gated,
        "exactness_breaches": breaches,
        "failures": failed_rows,
    }


def _print_table(report: dict) -> None:
    print(f"# {report['workload']}: {report['why']}")
    for name, m in report["metrics"].items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        base = f"  [{m['base']}]" if "base" in m else ""
        print(f"{name:36s} {shown:>14s} {m['unit']}{base}")
    for line in report["failures"]:
        print(f"FAILED {line}")
    for line in report["exactness_breaches"]:
        print(f"EXACTNESS {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-small", "decide-small", "decide-large"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    # One thread everywhere and the package's evaluation pool off, so timings
    # measure the program rather than the scheduler of a small machine.
    os.environ.update(PINNED_THREADS)
    os.environ.pop("EDGEPLACE_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "edgeplace", "__init__.py")):
        print(f"edgeplace sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads as wl

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report["metadata"] = metadata(args, wl.plan_for(args.workload, args.seconds))
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    _print_table(report)
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["gated"],
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
