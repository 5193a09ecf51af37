"""tools/parity.py's comparison and its declared-break rule, on hand-made output trees."""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                     "parity.py")
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

_SUMMARY = [{"candidate": "agent", "alpha": 0.0, "snapshots": 2, "valid_fraction": 1.0,
             "mean_delay_ms_per_req": 0.5, "mean_total_delay": 9.0, "mean_cost": 3.0,
             "mean_decision_time_ms": None}]


def _write(top, files):
    for path, data in files.items():
        os.makedirs(os.path.dirname(os.path.join(top, path)), exist_ok=True)
        with open(os.path.join(top, path), "w", encoding="utf-8") as fh:
            fh.write(data)


def test_identical_trees_have_no_differing_file(tmp_path):
    files = {"cmp/summary.json": json.dumps(_SUMMARY), "trace.csv": "a,b\n"}
    _write(tmp_path / "old", files)
    _write(tmp_path / "new", files)
    assert parity.differing(tmp_path / "old", tmp_path / "new") == []


def test_a_difference_lists_the_files_and_prints_both_tables_and_the_counts(tmp_path):
    moved = [dict(_SUMMARY[0], mean_cost=3.5)]
    _write(tmp_path / "old", {"cmp/summary.json": json.dumps(_SUMMARY), "cmp/log.csv": "1\n",
                              parity.COUNTS: json.dumps({"calls": 4, "steps": 2})})
    _write(tmp_path / "new", {"cmp/summary.json": json.dumps(moved), "extra.csv": "",
                              parity.COUNTS: json.dumps({"calls": 5, "steps": 2})})
    paths = parity.differing(tmp_path / "old", tmp_path / "new")
    assert paths == ["cmp/log.csv", "cmp/summary.json", parity.COUNTS, "extra.csv"]
    text = parity.report(tmp_path / "old", tmp_path / "new", paths)
    header, row = [line for line in text.splitlines() if line.startswith(("candidate", "agent"))]
    assert header.count("candidate") == 2
    assert "3.0000" in row and row.index("3.0000") < row.index("3.5000")
    assert "  calls: 4 -> 5" in text.splitlines() and "steps" not in text


@pytest.mark.parametrize("new, declared", [
    ("entry\nBIT-IDENTITY ENDS: rewards move\n", True),
    ("entry\nan entry that mentions BIT-IDENTITY ENDS: in passing\n", False),
    ("BIT-IDENTITY ENDS: an older break\nentry\n", False),
])
def test_only_an_added_line_that_starts_with_the_marker_declares_a_break(new, declared):
    old = "BIT-IDENTITY ENDS: an older break\n"
    assert parity.declares_break(old, new) is declared


def _fake_runs(monkeypatch, tmp_path, outputs, changes):
    """Point parity.main at hand-made trees: run_tree writes outputs' next entry, git
    answers without a repository, and CHANGES.md goes from changes[0] to changes[1]."""
    (tmp_path / "CHANGES.md").write_text(changes[1])
    monkeypatch.setattr(parity, "ROOT", str(tmp_path))
    monkeypatch.setattr(sys, "path", list(sys.path))
    trees = []

    def run_tree(tree, out):
        trees.append(tree)
        _write(out, outputs[len(trees) - 1])

    def run(argv, cwd, env=None):
        assert argv[0] == "git"
        return changes[0] if argv[1] == "show" else "0123abcd\n"

    monkeypatch.setattr(parity, "run_tree", run_tree)
    monkeypatch.setattr(parity, "_run", run)
    return trees


_DECLARED = ("entry\n", "entry\nBIT-IDENTITY ENDS: rewards move\n")


def test_a_tree_whose_two_runs_differ_exits_1_despite_a_declared_break(monkeypatch, tmp_path,
                                                                       capsys):
    runs = [{"trace.csv": "base\n"}, {"trace.csv": "first\n", "log.csv": "1\n"},
            {"trace.csv": "second\n", "log.csv": "1\n"}]
    trees = _fake_runs(monkeypatch, tmp_path, runs, _DECLARED)
    assert parity.main(["HEAD^"]) == 1
    assert trees[1:] == [str(tmp_path)] * 2 and trees[0] != str(tmp_path)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "not reproducible:" and "  trace.csv" in out and "  log.csv" not in out


@pytest.mark.parametrize("base, changes, code", [
    ("a\n", ("entry\n", "entry\n"), 0),
    ("b\n", _DECLARED, 0),
    ("b\n", ("entry\n", "entry\n"), 1),
])
def test_a_reproducible_tree_is_then_compared_with_base(monkeypatch, tmp_path, capsys, base,
                                                        changes, code):
    runs = [{"trace.csv": base}, {"trace.csv": "a\n"}, {"trace.csv": "a\n"}]
    trees = _fake_runs(monkeypatch, tmp_path, runs, changes)
    assert parity.main(["HEAD^"]) == code
    assert len(trees) == 3
    out = capsys.readouterr().out
    assert "not reproducible" not in out
    assert out.startswith("identical" if base == "a\n" else "differ:\n  trace.csv")
