"""Command-line front end.

Batch-style subcommands over the library: generate scenarios and workload
traces, train the placement agent, evaluate candidates, run the full
comparison, and verify decision files (written with verify.save_decision).

Exit codes: 0 success, 1 usage error, 2 validation/verification failure,
3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import bench
from .contract import CONFIG, COUNT, SEED, UNIT, conform
from .env import state_dim
from .model import ScenarioError, load_scenario, save_scenario
from .nn import PolicyArchitectureError
from .ppo import PPOConfig, load_policy
from .scenarios import PRESETS, build_preset, preset_workload_config, random_scenario
from .util import load_json, rng_stream
from .verify import verify_file
from .workload import WorkloadError, WorkloadGenConfig, generate_workloads, ingest_trace, write_trace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3

# snapshot count of gen-workload and of evaluate and compare without a trace
_EVAL_SNAPSHOTS = 150


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # no prefix matching: compare would otherwise read a removed --alpha as --alphas
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    pass


# argparse types: a flag's text parsed, then held to its contract.Rule (a refusal exits 1)
def positive_int(text: str) -> int:
    return conform(int(text), COUNT, "the value", argparse.ArgumentTypeError)


def seed_int(text: str) -> int:
    return conform(int(text), SEED, "the value", argparse.ArgumentTypeError)


def unit_interval(text: str) -> float:
    return conform(float(text), UNIT, "the value", argparse.ArgumentTypeError)


def _add_seed_out(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--seed", type=seed_int, default=0, help="root seed for all sub-streams, 0..2**32-1"
    )
    sub.add_argument("--out", required=True, help="output file or directory")


def _add_common(sub: argparse.ArgumentParser, alpha: bool = False) -> None:
    """Flags of the commands that read a scenario and a config and write output."""
    sub.add_argument("--scenario", required=True, help="scenario JSON path")
    if alpha:
        sub.add_argument("--alpha", type=unit_interval, default=0.0, help="cost weight in [0, 1]")
    _add_seed_out(sub)
    sub.add_argument("--config", default=None, help="JSON file with config overrides")


def _add_training(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--timesteps", type=positive_int, default=20000)
    sub.add_argument("--train-snapshots", type=positive_int, default=50)


def _add_evaluation(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--snapshots", type=positive_int, default=_EVAL_SNAPSHOTS)
    sub.add_argument(
        "--milp-budget", type=positive_int, default=2000,
        help="HiGHS branch-and-bound nodes per joint-milp call",
    )
    sub.add_argument(
        "--no-timing", dest="timing", action="store_false",
        help="leave wall-clock times out of the outputs",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="edgeplace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenario", help="write a preset or randomized scenario")
    _add_seed_out(p)
    p.add_argument("--preset", choices=PRESETS, default=None)
    p.add_argument("--nodes", type=positive_int, default=None, help="random scenario (default 5)")
    p.add_argument(
        "--functions", type=positive_int, default=None, help="random scenario (default 4)"
    )
    # None marks a random-scenario flag left unset; --preset refuses the ones that are set
    p.set_defaults(seed=None)

    p = sub.add_parser("gen-workload", help="write workload snapshots as a trace CSV")
    _add_common(p)
    p.add_argument("--snapshots", type=positive_int, default=_EVAL_SNAPSHOTS)

    p = sub.add_parser("train", help="train the placement agent")
    _add_common(p, alpha=True)
    _add_training(p)

    p = sub.add_parser("evaluate", help="evaluate candidates on fresh or traced snapshots")
    _add_common(p, alpha=True)
    p.add_argument("--checkpoint", default=None, help="trained policy for the agent candidate")
    p.add_argument("--candidates", default=",".join(bench.CANDIDATES))
    p.add_argument("--trace", default=None, help="evaluate on snapshots from this trace CSV")
    _add_evaluation(p)
    p.set_defaults(snapshots=None)  # None marks --snapshots left unset, which --trace needs

    p = sub.add_parser("compare", help="train at each alpha, evaluate everything, print table")
    _add_common(p)
    p.add_argument("--alphas", default="0,0.5", help="comma-separated cost weights")
    _add_training(p)
    _add_evaluation(p)

    p = sub.add_parser("verify", help="check decision files against a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("decisions", nargs="+", help="decision JSON files")

    return parser


# --------------------------------------------------------------------------
# config plumbing
# --------------------------------------------------------------------------


def _load_overrides(path: str | None, sections: tuple[str, ...]) -> dict:
    """The config file's overrides, held to contract.CONFIG with lists made tuples; a section
    outside `sections`, the ones the command reads, is a usage error. Workload values meet
    their ranges in generate_workloads, where one outside is invalid input (exit 2)."""
    if path is None:
        return {}
    doc = load_json(path, UsageError, "config")
    for section, patch in doc.items():
        if section not in sections:
            raise UsageError(
                f"config {path}: this command reads no {section!r} section; "
                + (f"choose from {sorted(sections)}" if sections else "it reads no section")
            )
        if not isinstance(patch, dict):
            raise UsageError(f"config {path}: section {section!r} must be a JSON object")
        fields = CONFIG[section]
        unknown = sorted(set(patch) - set(fields))
        if unknown:
            raise UsageError(
                f"config {path}: unknown {section} key(s) {unknown}; choose from {sorted(fields)}"
            )
        for key, value in patch.items():
            patch[key] = conform(value, fields[key], f"config {path}: '{section}.{key}'",
                                 UsageError, ranged=section == "ppo")
    return doc


def _ppo_config(overrides: dict) -> PPOConfig:
    return replace(PPOConfig(), **overrides.get("ppo", {}))


def _workload_config(scenario, n_snapshots: int, overrides: dict) -> WorkloadGenConfig:
    if scenario.name in PRESETS:
        cfg = preset_workload_config(scenario.name, n_snapshots)
    else:
        cfg = WorkloadGenConfig(n_snapshots=n_snapshots, hotspot_count=min(2, scenario.n_nodes))
    patch = overrides.get("workload", {})
    ranges = patch.get("per_function_rate_ranges")
    if ranges is not None and len(ranges) != scenario.n_functions:
        raise UsageError(
            f"config: 'workload.per_function_rate_ranges' has {len(ranges)} entries, "
            f"scenario {scenario.name!r} has {scenario.n_functions} functions"
        )
    return replace(cfg, **patch)


def _alpha_list(spec: str) -> tuple[float, ...]:
    """--alphas parsed; ExperimentPlan holds the values to their range."""
    try:
        return tuple(float(a) for a in spec.split(",") if a.strip() != "")
    except ValueError as exc:
        raise UsageError(f"bad --alphas value {spec!r}: {exc}") from exc


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_gen_scenario(args) -> int:
    shape = {"--nodes": args.nodes, "--functions": args.functions, "--seed": args.seed}
    if args.preset:
        given = [flag for flag, value in shape.items() if value is not None]
        if given:
            raise UsageError(f"--preset takes no {', '.join(given)}: they shape a random scenario")
        scenario = build_preset(args.preset)
    else:
        scenario = random_scenario(
            5 if args.nodes is None else args.nodes,
            4 if args.functions is None else args.functions,
            rng_stream(0 if args.seed is None else args.seed, "gen-scenario"),
            name="random",
        )
    save_scenario(args.out, scenario)
    print(f"wrote scenario {scenario.name!r} to {args.out}")
    return EXIT_OK


def cmd_gen_workload(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = _load_overrides(args.config, ("workload",))
    cfg = _workload_config(scenario, args.snapshots, overrides)
    snapshots = generate_workloads(
        scenario.n_functions, scenario.n_nodes, cfg, rng_stream(args.seed, "workload-eval")
    )
    write_trace(args.out, snapshots)
    print(f"wrote {len(snapshots)} snapshots to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = _load_overrides(args.config, ("ppo", "workload"))
    ppo_cfg = _ppo_config(overrides)
    workload_cfg = _workload_config(scenario, args.train_snapshots, overrides)
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before the training
    result = bench.train_agent(
        scenario, args.alpha, args.seed, workload_cfg, ppo_cfg, args.timesteps
    )
    policy_path, log_path = bench.save_training(args.out, result)
    last = result.log_rows[-1]
    print(f"trained {last['timesteps']} steps over {last['episodes']} episodes")
    print(f"wrote {policy_path}")
    print(f"wrote {log_path}")
    return EXIT_OK


def _build_plan(args, scenario, overrides, n_snapshots, **fields) -> bench.ExperimentPlan:
    """The plan of an evaluate or compare run; fields are the command's own plan fields. A
    plan that ExperimentPlan refuses is a usage error."""
    workload_cfg = _workload_config(scenario, n_snapshots, overrides)
    try:
        return bench.ExperimentPlan(
            scenario=scenario,
            workload_cfg=workload_cfg,
            eval_snapshots=n_snapshots,
            milp_node_budget=args.milp_budget,
            timing=args.timing,
            **fields,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_evaluate(args) -> int:
    scenario = load_scenario(args.scenario)
    candidates = tuple(c.strip() for c in args.candidates.split(","))
    if args.trace and args.snapshots is not None:
        raise UsageError("--trace takes no --snapshots: the trace sets the snapshot count")
    if args.checkpoint and "agent" not in candidates:
        raise UsageError("--checkpoint needs the agent among --candidates")
    # the trace holds the snapshots, so no workload section has anything to set
    overrides = _load_overrides(args.config, () if args.trace else ("workload",))
    plan = _build_plan(
        args, scenario, overrides, args.snapshots or _EVAL_SNAPSHOTS,
        alphas=(args.alpha,), candidates=candidates,
    )
    agents = {}
    if "agent" in plan.candidates:
        if not args.checkpoint:
            raise UsageError("--checkpoint is required when evaluating the agent candidate")
        checkpoint = load_policy(
            args.checkpoint,
            expect_input_dim=state_dim(scenario.n_nodes),
            expect_n_actions=scenario.n_nodes,
        )
        agents[args.alpha] = checkpoint.agent
    snapshots = None
    if args.trace:
        snapshots = ingest_trace(args.trace, (scenario.n_functions, scenario.n_nodes))
        plan = replace(plan, eval_snapshots=len(snapshots))
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before the evaluation
    rows = bench.evaluate_candidates(plan, args.seed, agents, snapshots=snapshots)
    paths, summary = bench.emit_results(args.out, rows, plan, args.seed)
    print(bench.render_summary_table(summary), end="")
    print(f"wrote {paths['results']}")
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = _load_overrides(args.config, ("ppo", "workload"))
    alphas = _alpha_list(args.alphas)
    plan = _build_plan(
        args, scenario, overrides, args.snapshots, alphas=alphas,
        train_snapshots=args.train_snapshots, total_timesteps=args.timesteps,
        ppo=_ppo_config(overrides),
    )
    outcome = bench.run_compare(plan, args.seed, args.out)
    print(bench.render_summary_table(outcome["summary"]), end="")
    print(f"wrote {outcome['paths']['results']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    failures = 0
    for path in args.decisions:
        problems = verify_file(scenario, path)
        if problems:
            failures += 1
            print(f"FAIL {path}")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"OK   {path}")
    if failures:
        print(f"{failures} of {len(args.decisions)} decision files failed verification")
        return EXIT_INVALID
    print(f"all {len(args.decisions)} decision files verified")
    return EXIT_OK


_COMMANDS = {
    "gen-scenario": cmd_gen_scenario,
    "gen-workload": cmd_gen_workload,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"edgeplace: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # reads fail as the loaders' own errors, so this is a write
        print(f"edgeplace: error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScenarioError, WorkloadError, PolicyArchitectureError) as exc:
        print(f"edgeplace: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - defensive
        print(f"edgeplace: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
