"""The input contract: its rules, and a property test that no edited input exits 3.

The property test edits one input of a small command run (a scenario file of
either preset, a config file, a checkpoint or a trace) one or two times, and
runs the command in-process through cli.main. An edit replaces a value, drops
a key or a list entry, or duplicates a list entry. Every exit must be 0, 1 or
2, and an exit 2 must name the field that was edited.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import tempfile
import warnings

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from edgeplace import contract
from edgeplace.cli import EXIT_INVALID, EXIT_OK, EXIT_USAGE, main
from edgeplace.contract import BOUND, conform
from edgeplace.env import state_dim
from edgeplace.model import ScenarioError, scenario_from_dict, scenario_to_dict
from edgeplace.nn import MLP
from edgeplace.ppo import PolicyAgent, PPOConfig, save_policy
from edgeplace.scenarios import build_preset
from edgeplace.workload import TRACE_COLUMNS, WorkloadGenConfig


def test_config_rules_name_every_config_field():
    """n_snapshots is set by the snapshot flags, not by a config file."""
    assert list(contract.CONFIG["ppo"]) == [f.name for f in fields(PPOConfig)]
    assert list(contract.CONFIG["workload"]) == [
        f.name for f in fields(WorkloadGenConfig) if f.name != "n_snapshots"]


@pytest.mark.parametrize(
    "value, rule, fits",
    [
        (np.int64(3), contract.COUNT, True), (3.0, contract.COUNT, False),
        (True, contract.COUNT, False), ("3", contract.COUNT, False),
        (2**31, contract.COUNT, False), (7, contract.UNIT, False), (1, contract.UNIT, True),
        (np.float32(0.5), contract.UNIT, True), (float("nan"), contract.UNIT, False),
        (10**400, contract.POSITIVE, False), (float("inf"), contract.POSITIVE, False),
        (BOUND, contract.AMOUNT, True), (math.nextafter(BOUND, math.inf), contract.AMOUNT, False),
        (0.0, contract.AMOUNT, False), (0.0, contract.MAGNITUDE, True),
    ],
)
def test_a_rule_admits_its_kind_in_its_range(value, rule, fits):
    assert rule.admits(value) is fits


def test_conform_names_the_first_entry_that_fails():
    spec = {"a": [{"b": contract.COUNT}], "c": contract.Either(None, (contract.UNIT,) * 2)}
    assert conform({"a": [{"b": 1}], "c": [0, 1]}, spec, "doc")["c"] == [0, 1]
    assert conform([[1, 2]], [(contract.UNIT, contract.COUNT)], "x") == ((1, 2),)
    with pytest.raises(ValueError, match=r"^doc.a\[1\].b is 0, not an integer in 1..2147483647$"):
        conform({"a": [{"b": 1}, {"b": 0}]}, spec, "doc")
    with pytest.raises(ValueError, match=r"^doc.c is 'x', not null or a list of 2$"):
        conform({"a": [], "c": "x"}, spec, "doc")
    with pytest.raises(KeyError, match="doc.a"):
        conform({"c": None}, spec, "doc")
    with pytest.raises(TypeError, match=r"^n is 0.5, not a number in \[0, 0.25\]$"):
        conform(0.5, contract.Rule(float, 0.0, 0.25), "n", TypeError)
    assert conform(float("nan"), contract.UNIT, "n", ranged=False) != 0  # the kind only


def test_every_scenario_number_at_the_bound_loads_and_past_it_is_refused():
    doc = scenario_to_dict(build_preset("small-payload"))
    n = len(doc["nodes"])
    doc["nodes"] = [dict(node, cores=BOUND, memory=BOUND) for node in doc["nodes"]]
    doc["delays"] = [[0.0 if i == j else BOUND for j in range(n)] for i in range(n)]
    doc["functions"] = [dict(f, memory=BOUND, cores_per_request=BOUND) for f in doc["functions"]]
    doc["workload"] = [[BOUND] * n for _ in doc["workload"]]
    scenario_from_dict(doc)
    doc["workload"][2][3] = math.nextafter(BOUND, math.inf)
    with pytest.raises(ScenarioError, match=r"workload\[2\]\[3\] is 1000000000000.0001, not a"):
        scenario_from_dict(doc)


# what a replacing edit puts in place of a value
_VALUES = (None, "2", True, 0, -1, 1e308, -1e308, 2**63, 10**400, BOUND,
           math.nextafter(BOUND, math.inf), [], {})
_SCENARIOS = {name: scenario_to_dict(build_preset(name)) for name in ("small-payload",
                                                                        "large-payload")}
_PPO = {"learning_rate": 3e-4, "clip_ratio": 0.2, "gamma": 0.99, "gae_lambda": 0.95,
        "epochs": 2, "minibatch_size": 32, "entropy_coef": 0.01, "value_coef": 0.5,
        "update_interval": 32, "hidden": [8]}
_CONFIG = {"ppo": _PPO, "workload": {"rate_range": [24, 56], "hotspot_count": 2,
                                     "concentration": 0.8, "drift_prob": 0.3,
                                     "per_function_rate_ranges": [[24, 56]] * 4}}
_COMMANDS = {
    "gen-workload": ["gen-workload", "--snapshots", "2"],
    "train": ["train", "--timesteps", "32", "--train-snapshots", "2"],
    "evaluate": ["evaluate", "--candidates", "vsvbp,cr-eua", "--no-timing"],
    "joint-milp": ["evaluate", "--candidates", "joint-milp", "--milp-budget", "50",
                   "--no-timing"],
}


def _checkpoint() -> dict:
    n = 5  # the presets' node count
    net = MLP(state_dim(n), n, hidden=(8,), rng=np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "policy.json")
        save_policy(path, PolicyAgent(net=net, state_scale=np.ones(state_dim(n))),
                    extras={"alpha": 0.0, "seed": 1})
        with open(path) as fh:
            return json.load(fh)


def _trace() -> list[list[str]]:
    rows = [list(TRACE_COLUMNS)]
    for s in range(2):
        rows += [[str(s), str(f), str(j), "30.5"] for f in range(4) for j in range(5)]
    return rows


_DOCS = {"scenario": _SCENARIOS, "config": _CONFIG, "checkpoint": _checkpoint(),
         "trace": _trace()}


@st.composite
def _edit(draw, doc):
    """One edit of a copy of doc, as (edited doc, the path of keys and indices it touched)."""
    doc = copy.deepcopy(doc)
    parent, path = doc, []
    while True:  # descend one level at least, then stop at any container or number
        keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
        key = draw(st.sampled_from(keys))
        path.append(key)
        child = parent[key]
        if not isinstance(child, (dict, list)) or not child or draw(st.booleans()):
            break
        parent = child
    action = draw(st.sampled_from(["replace", "drop", "duplicate"]))
    if action == "replace":
        parent[key] = copy.deepcopy(draw(st.sampled_from(_VALUES)))
    elif action == "drop" or isinstance(parent, dict):
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return doc, path


@st.composite
def _case(draw):
    """(input kind, preset, edited document, command, edited paths)."""
    kind = draw(st.sampled_from(sorted(_DOCS)))
    preset = draw(st.sampled_from(sorted(_SCENARIOS))) if kind == "scenario" else "small-payload"
    doc = _SCENARIOS[preset] if kind == "scenario" else _DOCS[kind]
    paths = []
    for _ in range(draw(st.integers(1, 2))):
        doc, path = draw(_edit(doc))
        paths.append(path)
    command = {"config": "train", "checkpoint": "evaluate", "trace": "evaluate"}.get(kind)
    if command is None:  # a scenario: joint-milp is the slow one, so it is drawn rarely
        command = draw(st.sampled_from(["gen-workload", "train", "evaluate"] * 5 + ["joint-milp"]))
    return kind, preset, doc, command, paths


def _write(path, content):
    with open(path, "w", newline="") as fh:
        if path.endswith(".csv"):  # an edit may leave a row that is not a list
            csv.writer(fh).writerows(row if isinstance(row, list) else [row] for row in content)
        else:
            json.dump(content, fh)
    return path


def _run(kind, preset, doc, command, tmp):
    """The exit code and stderr of the command on the edited input."""
    scenario = doc if kind == "scenario" else _SCENARIOS[preset]
    argv = [*_COMMANDS[command], "--scenario", _write(os.path.join(tmp, "scenario.json"), scenario),
            "--out", os.path.join(tmp, "out")]
    if command == "train":
        config = doc if kind == "config" else {"ppo": _PPO}
        argv += ["--config", _write(os.path.join(tmp, "config.json"), config)]
    if kind == "checkpoint":  # the last --candidates wins
        argv += ["--candidates", "agent", "--checkpoint",
                 _write(os.path.join(tmp, "policy.json"), doc)]
    if kind == "trace":
        argv += ["--trace", _write(os.path.join(tmp, "trace.csv"), doc)]
    elif command in ("evaluate", "joint-milp"):
        argv += ["--snapshots", "2"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)  # the installed script prints them
        code = main(argv)
    return code, err.getvalue()


def _names_the_field(message, kind, paths):
    """Whether an exit-2 message names a field an edit touched: the nearest object key on
    its path, or that key's singular. A trace's message names a line, a column or the header,
    since a dropped or duplicated line renumbers the lines after it."""
    if kind == "trace":
        return any(name in message for name in ("line ", "header", "snapshot", "function",
                                                 "node", "rate"))
    for path in paths:
        keys = [key for key in path if isinstance(key, str)]
        if keys and (keys[-1] in message or keys[-1].rstrip("s") in message):
            return True
    return False


_CPR_1E308 = copy.deepcopy(_SCENARIOS["small-payload"])
_CPR_1E308["functions"][0]["cores_per_request"][0] = 1e308


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=_case())
@example(case=("scenario", "small-payload", _CPR_1E308, "joint-milp",
               [["functions", 0, "cores_per_request", 0]]))
def test_no_edited_input_exits_3(case):
    kind, preset, doc, command, paths = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run(kind, preset, doc, command, tmp)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVALID), err
    if code == EXIT_INVALID and "training diverged" not in err:
        assert _names_the_field(err, kind, paths), (paths, err)
