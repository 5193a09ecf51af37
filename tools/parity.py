"""Check that this tree's outputs are reproducible and byte-identical to those of
another commit.

Usage, from the repository root:

    python3 tools/parity.py BASE

BASE is any commit git can name (HEAD^, a branch, a SHA). The script adds a
git worktree of BASE in a temporary directory and runs one fixed command set
once in that tree and twice in this one, each on its own src/, with
OMP_NUM_THREADS and OPENBLAS_NUM_THREADS set to 1:

- `compare --no-timing --seed 7919 --timesteps 2048 --snapshots 6` on both
  presets;
- on a 10-node, 15-function scenario (seed 1): a 1024-step training, and an
  evaluation of the agent, vsvbp and cr-eua on 4 snapshots;
- on a 20-node, 30-function scenario (seed 1): a 150-snapshot workload, then
  the same training and evaluation;
- `perfbench/run.py --workload decide-large --seed 1 --seconds 3 --trace 1`,
  of which it keeps every count and every share of calls or steps (the
  metrics in `%` that are not the tracer's timing shares).

It first compares this tree's two runs byte for byte: when they differ it
prints `not reproducible:` with those files, their summary.json tables and
moved counts, and exits 1, whatever CHANGES.md says. Then it compares this
tree's outputs with BASE's and prints `identical`, or the files that differ,
each differing run's old and new summary.json tables side by side, and the
counts that moved. Exit status: 0 when the outputs are identical; 1 when
this tree's runs differ, or when its outputs differ from BASE's unless a line
this tree adds to CHANGES.md starts with `BIT-IDENTITY ENDS:`, which declares
the break (the differences are printed all the same, for the change to
record); 2 when BASE cannot be checked out or a command fails.

Nothing here holds digests: numpy's BLAS picks its kernels by CPU, so the
two trees are run on the same machine instead. Only git and the package's
own requirements are needed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DECLARED = "BIT-IDENTITY ENDS:"
COUNTS = "decide-large-counts.json"

# the edgeplace CLI, run from the scenario's output directory
_CLI = "import sys; from edgeplace.cli import main; sys.exit(main())"
_COMMANDS = [
    line.split()
    for line in (
        "gen-scenario --preset small-payload --out small.json",
        "compare --scenario small.json --seed 7919 --timesteps 2048 --snapshots 6 --no-timing"
        " --out cmp-small",
        "gen-scenario --preset large-payload --out large.json",
        "compare --scenario large.json --seed 7919 --timesteps 2048 --snapshots 6 --no-timing"
        " --out cmp-large",
        "gen-scenario --nodes 10 --functions 15 --seed 1 --out scenario-10.json",
        "train --scenario scenario-10.json --alpha 0 --seed 1 --timesteps 1024 --out train-10",
        "evaluate --scenario scenario-10.json --alpha 0 --seed 1 --snapshots 4"
        " --checkpoint train-10/policy-alpha0-seed1.json --candidates agent,vsvbp,cr-eua"
        " --no-timing --out eval-10",
        "gen-scenario --nodes 20 --functions 30 --seed 1 --out scenario-20.json",
        "gen-workload --scenario scenario-20.json --snapshots 150 --seed 2 --out trace-20.csv",
        "train --scenario scenario-20.json --alpha 0 --seed 1 --timesteps 1024 --out train-20",
        "evaluate --scenario scenario-20.json --alpha 0 --seed 1 --snapshots 4"
        " --checkpoint train-20/policy-alpha0-seed1.json --candidates agent,vsvbp,cr-eua"
        " --no-timing --out eval-20",
    )
]
_BENCH = "--workload decide-large --seed 1 --seconds 3 --trace 1".split()


class CommandFailed(Exception):
    pass


def _run(argv: list[str], cwd: str, env: dict | None = None) -> str:
    """argv's stdout; CommandFailed with its stderr when it exits non-zero."""
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode:
        raise CommandFailed(f"{' '.join(argv)} (in {cwd}) exited {done.returncode}:\n"
                            f"{done.stderr.strip()}")
    return done.stdout


def run_tree(tree: str, out: str) -> None:
    """Run the command set on tree's package, writing every output under out."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    os.makedirs(out)
    for args in _COMMANDS:
        _run([sys.executable, "-c", _CLI, *args], cwd=out, env=env)
    report = _run([sys.executable, os.path.join("perfbench", "run.py"), *_BENCH], cwd=tree, env=env)
    metrics = json.loads(report.splitlines()[-1])["metrics"]
    counts = {
        name: metric["value"] for name, metric in metrics.items()
        if metric["unit"] == "count" or (metric["unit"] == "%" and not name.startswith("trace."))
    }
    with open(os.path.join(out, COUNTS), "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)


def _files(top: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(folder, name), top)
        for folder, _, names in os.walk(top) for name in names
    }


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def differing(old: str, new: str) -> list[str]:
    """The relative paths whose bytes differ, or that exist on one side only."""
    return [
        path for path in sorted(_files(old) | _files(new))
        if _read(os.path.join(old, path)) != _read(os.path.join(new, path))
    ]


def _table(path: str) -> list[str]:
    from edgeplace.bench import render_summary_table

    data = _read(path)
    return ["(missing)"] if data is None else render_summary_table(json.loads(data)).splitlines()


def side_by_side(old: list[str], new: list[str]) -> str:
    left, right = ["old", *old], ["new", *new]
    width = max(map(len, left)) + 4
    return "\n".join(
        f"{a:<{width}}{b}".rstrip() for a, b in itertools.zip_longest(left, right, fillvalue="")
    )


def report(old: str, new: str, paths: list[str]) -> str:
    """The differing files, the summary tables of their runs and the moved counts."""
    lines = ["differ:", *(f"  {path}" for path in paths)]
    present = _files(old) | _files(new)
    for run in sorted({os.path.dirname(path) for path in paths} - {""}):
        summary = os.path.join(run, "summary.json")
        if summary in present:
            lines += ["", f"{summary}:", side_by_side(_table(os.path.join(old, summary)),
                                                      _table(os.path.join(new, summary)))]
    if COUNTS in paths:
        before, after = (json.loads(_read(os.path.join(top, COUNTS)) or b"{}") for top in (old, new))
        lines += ["", f"{COUNTS}:"] + [
            f"  {name}: {before.get(name)} -> {after.get(name)}"
            for name in sorted(before.keys() | after.keys()) if before.get(name) != after.get(name)
        ]
    return "\n".join(lines)


def declares_break(old_changes: str, new_changes: str) -> bool:
    """Whether a line new_changes adds to old_changes starts with DECLARED."""
    added = set(new_changes.splitlines()) - set(old_changes.splitlines())
    return any(line.lstrip().startswith(DECLARED) for line in added)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE", help="the commit to compare this tree against")
    base = parser.parse_args(argv).base
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        commit = _run(["git", "rev-parse", "--verify", f"{base}^{{commit}}"], cwd=ROOT).strip()
        with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
            base_tree, old, new, again = (
                os.path.join(tmp, name) for name in ("tree", "old", "new", "again")
            )
            _run(["git", "worktree", "add", "--detach", base_tree, commit], cwd=ROOT)
            try:
                run_tree(base_tree, old)
            finally:
                _run(["git", "worktree", "remove", "--force", base_tree], cwd=ROOT)
            run_tree(ROOT, new)
            run_tree(ROOT, again)
            unstable = differing(new, again)
            if unstable:
                print("not reproducible:")
                print(report(new, again, unstable))
                return 1
            paths = differing(old, new)
            if not paths:
                print("identical")
                return 0
            print(report(old, new, paths))
    except CommandFailed as exc:
        print(f"parity: {exc}", file=sys.stderr)
        return 2
    try:
        old_changes = _run(["git", "show", f"{commit}:CHANGES.md"], cwd=ROOT)
    except CommandFailed:  # BASE has no CHANGES.md
        old_changes = ""
    with open(os.path.join(ROOT, "CHANGES.md"), encoding="utf-8") as fh:
        new_changes = fh.read()
    if declares_break(old_changes, new_changes):
        print(f"\nCHANGES.md declares the break ({DECLARED}); record the tables above.")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
