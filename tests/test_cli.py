from __future__ import annotations

import csv
import json
import reprlib

import numpy as np
import pytest

from edgeplace import bench, cli
from edgeplace.cli import EXIT_INTERNAL, EXIT_INVALID, EXIT_OK, EXIT_USAGE, main
from edgeplace.env import state_dim
from edgeplace.model import load_scenario, save_scenario
from edgeplace.nn import MLP
from edgeplace.ppo import PolicyAgent, save_policy
from edgeplace.verify import load_decision, save_decision
from edgeplace.workload import ingest_trace


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse-level usage failures
        return exc.code


@pytest.fixture
def scenario_path(tri_scenario, tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(str(path), tri_scenario)
    return str(path)


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "ppo": {"update_interval": 64, "minibatch_size": 32, "epochs": 2, "hidden": [16]},
                "workload": {"rate_range": [4, 12]},
            }
        )
    )
    return str(path)


def test_usage_errors_exit_1(tmp_path):
    assert run_cli() == EXIT_USAGE  # no subcommand
    assert run_cli("no-such-command") == EXIT_USAGE
    assert run_cli("gen-scenario") == EXIT_USAGE  # --out missing
    assert run_cli("gen-scenario", "--out", str(tmp_path / "s.json"), "--nodes", "0") == EXIT_USAGE
    assert run_cli("gen-workload", "--out", str(tmp_path / "t.csv")) == EXIT_USAGE  # no scenario


def test_gen_scenario_preset_round_trip(tmp_path):
    out = tmp_path / "small.json"
    assert run_cli("gen-scenario", "--preset", "small-payload", "--out", str(out)) == EXIT_OK
    scenario = load_scenario(str(out))
    assert scenario.name == "small-payload" and scenario.n_nodes == 5
    out2 = tmp_path / "small2.json"
    assert run_cli("gen-scenario", "--preset", "small-payload", "--out", str(out2)) == EXIT_OK
    assert out.read_bytes() == out2.read_bytes()


def test_gen_scenario_random_respects_shape(tmp_path):
    out = tmp_path / "rand.json"
    code = run_cli(
        "gen-scenario", "--nodes", "4", "--functions", "3", "--seed", "5", "--out", str(out)
    )
    assert code == EXIT_OK
    scenario = load_scenario(str(out))
    assert scenario.n_nodes == 4 and scenario.n_functions == 3


def test_gen_workload_writes_ingestible_trace(scenario_path, tmp_path):
    out = tmp_path / "trace.csv"
    code = run_cli(
        "gen-workload", "--scenario", scenario_path, "--snapshots", "5",
        "--seed", "2", "--out", str(out),
    )
    assert code == EXIT_OK
    snapshots = ingest_trace(str(out), (2, 3))
    assert len(snapshots) == 5
    assert all(s.shape == (2, 3) for s in snapshots)


def _first_node(doc, **fields):
    return dict(doc, nodes=[dict(doc["nodes"][0], **fields)] + doc["nodes"][1:])


def _first_cpr(doc, value):
    first = doc["functions"][0]
    cpr = [value] + first["cores_per_request"][1:]
    return dict(doc, functions=[dict(first, cores_per_request=cpr)] + doc["functions"][1:])


@pytest.mark.parametrize(
    "edit, cause",
    [
        (lambda doc: {"topology": {}}, "malformed scenario document: 'nodes'"),
        # int() would read the criticality 2.5 as 2, and float() the cores "40" as 40.0
        (lambda doc: dict(doc, criticality=[2.5] + [1] * (len(doc["functions"]) - 1)),
         "criticality[0] is 2.5, not an integer"),
        (lambda doc: _first_node(doc, cores="40"), "nodes[0].cores is '40', not a number"),
        # float() raises OverflowError on an integer this large
        (lambda doc: _first_node(doc, cores=10**400),
         f"nodes[0].cores is {reprlib.repr(10**400)}, not a number"),
        # finite, but rate * cores_per_request overflows in joint-milp's objective
        (lambda doc: _first_cpr(doc, 1e308),
         "functions[0].cores_per_request[0] is 1e+308, not a number in (0, 1e+12]"),
    ],
    ids=["no-topology", "float-criticality", "string-cores", "huge-cores", "huge-finite-cpr"],
)
def test_invalid_scenario_file_exits_2(scenario_path, tmp_path, capsys, edit, cause):
    bad = tmp_path / "bad.json"
    with open(scenario_path) as fh:
        bad.write_text(json.dumps(edit(json.load(fh))))
    assert run_cli("gen-workload", "--scenario", str(bad), "--out", str(tmp_path / "t.csv")) == EXIT_INVALID
    assert cause in capsys.readouterr().err


def _arch_doc(hidden, n_params):
    return json.dumps({
        "schema_version": 1, "arch": {"input_dim": state_dim(3), "n_actions": 3, "hidden": hidden},
        "params": [0.0] * n_params, "state_scale": [1.0] * state_dim(3),
    })


@pytest.mark.parametrize(
    "content",
    [
        None, "not json", json.dumps({"schema_version": 1}),
        _arch_doc([10**12], 1),  # the layer alone would take about 200 TiB
        _arch_doc([0], 4),  # as many params as a zero-width layer implies
        # 112 params fit hidden [4], which int() would make of [4.5] and of "4"
        _arch_doc([4.5], 112),
        _arch_doc("4", 112),
    ],
    ids=["missing", "not-json", "no-arch", "arch-params-mismatch", "zero-width-layer",
         "float-width", "string-hidden"],
)
def test_bad_checkpoint_exits_2(scenario_path, tmp_path, content):
    checkpoint = tmp_path / "policy.json"
    if content is not None:
        checkpoint.write_text(content)
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
        "--checkpoint", str(checkpoint), "--snapshots", "2",
    )
    assert code == EXIT_INVALID


@pytest.mark.parametrize(
    "field, value",
    [
        ("params", "x"),
        ("state_scale", [[1.0], [1.0, 2.0]]),
        # np.array(dtype=float) would read these as 0.5 and 1.0
        ("params", "0.5"),
        ("params", True),
        ("state_scale", "0.5"),
        ("state_scale", True),
        # and these as OverflowError
        ("params", 10**400),
        ("state_scale", 10**400),
    ],
    ids=["non-numeric-params", "ragged-state-scale", "string-number-params", "bool-params",
         "string-number-state-scale", "bool-state-scale", "huge-int-params",
         "huge-int-state-scale"],
)
def test_malformed_checkpoint_numbers_exit_2(scenario_path, tmp_path, capsys, field, value):
    """A list value replaces the whole field, any other value its first entry."""
    checkpoint = tmp_path / "policy.json"
    net = MLP(state_dim(3), 3, hidden=(4,), rng=np.random.default_rng(0))
    save_policy(str(checkpoint), PolicyAgent(net=net, state_scale=np.ones(state_dim(3))))
    doc = json.loads(checkpoint.read_text())
    if isinstance(value, list):
        doc[field] = value
    else:
        doc[field][0] = value
    checkpoint.write_text(json.dumps(doc))
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
        "--checkpoint", str(checkpoint), "--snapshots", "2",
    )
    assert code == EXIT_INVALID
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, cause",
    [
        ("params", float("nan"), "params"),
        ("params", float("inf"), "params"),
        ("state_scale", float("nan"), "state_scale"),
        ("state_scale", float("inf"), "state_scale"),
        ("state_scale", 0.0, "state_scale"),
        ("state_scale", -1.0, "state_scale"),
    ],
    ids=["nan-params", "inf-params", "nan-scale", "inf-scale", "zero-scale", "negative-scale"],
)
def test_non_finite_or_non_positive_checkpoint_exits_2(
    scenario_path, tmp_path, capsys, field, value, cause
):
    checkpoint = tmp_path / "policy.json"
    net = MLP(state_dim(3), 3, hidden=(4,), rng=np.random.default_rng(0))
    save_policy(str(checkpoint), PolicyAgent(net=net, state_scale=np.ones(state_dim(3))))
    doc = json.loads(checkpoint.read_text())
    doc[field] = [value] * len(doc[field])  # json writes NaN and Infinity, and reads them back
    checkpoint.write_text(json.dumps(doc))
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
        "--checkpoint", str(checkpoint), "--snapshots", "2",
    )
    assert code == EXIT_INVALID
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"plan": {"ppo": {"epochs": 1}}}, "plan"),
        ({"ppo": {"learning_rat": 1e-3}}, "learning_rat"),
        ({"workload": {"n_snapshots": 3}}, "n_snapshots"),
        ({"polciy": {}}, "polciy"),
        ({"ppo": {"epochs": "2"}}, "ppo.epochs"),
        ({"workload": {"rate_range": 5}}, "workload.rate_range"),
        ({"ppo": {"epochs": 0}}, "ppo.epochs"),
        ({"ppo": {"minibatch_size": 0}}, "ppo.minibatch_size"),
        ({"ppo": {"update_interval": 0}}, "ppo.update_interval"),
        ({"ppo": {"hidden": [0, 64]}}, "ppo.hidden"),
        ({"workload": {"per_function_rate_ranges": [[1, 2], [3, 4], [5, 6]]}},
         "workload.per_function_rate_ranges"),
        ({"ppo": {"learning_rate": float("nan")}}, "ppo.learning_rate"),
        ({"ppo": {"learning_rate": 0.0}}, "ppo.learning_rate"),
        ({"ppo": {"clip_ratio": -1.0}}, "ppo.clip_ratio"),
        ({"ppo": {"gamma": -3.0}}, "ppo.gamma"),
        ({"ppo": {"gae_lambda": 1.5}}, "ppo.gae_lambda"),
        ({"ppo": {"entropy_coef": -0.01}}, "ppo.entropy_coef"),
        ({"ppo": {"value_coef": float("inf")}}, "ppo.value_coef"),
        ({"ppo": {"learning_rate": 10**400}}, "ppo.learning_rate"),
        ({"ppo": {"clip_ratio": 10**400}}, "ppo.clip_ratio"),
        ({"workload": {"rate_range": [1, 10**400]}}, "workload.rate_range"),
    ],
    ids=["plan-section", "misspelled-ppo-key", "flag-owned-workload-key", "unknown-section",
         "string-for-int", "number-for-pair", "zero-epochs", "zero-minibatch",
         "zero-update-interval", "zero-width-layer", "rate-ranges-per-function-count",
         "nan-learning-rate", "zero-learning-rate", "negative-clip-ratio", "negative-gamma",
         "gae-lambda-above-1", "negative-entropy-coef", "infinite-value-coef",
         "huge-int-learning-rate", "huge-int-clip-ratio", "huge-int-rate-range"],
)
def test_bad_config_exits_1_naming_the_key(scenario_path, tmp_path, capsys, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli(
        "compare", "--scenario", scenario_path, "--alphas", "0",
        "--timesteps", "64", "--train-snapshots", "2", "--snapshots", "2",
        "--milp-budget", "50", "--no-timing", "--config", str(path), "--out", str(tmp_path / "c"),
    )
    assert code == EXIT_USAGE
    assert repr(key) in capsys.readouterr().err


_SMALL_RUN = {
    "gen-workload": ["--snapshots", "2"],
    "train": ["--timesteps", "64", "--train-snapshots", "2"],
    "evaluate": ["--snapshots", "2", "--candidates", "cr-eua"],
    "compare": ["--alphas", "0", "--timesteps", "64", "--train-snapshots", "2",
                "--snapshots", "2", "--milp-budget", "50"],
}


@pytest.mark.parametrize("command", ["gen-workload", "evaluate"])
def test_config_section_the_command_does_not_read_exits_1(scenario_path, tmp_path, capsys,
                                                          command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"ppo": {"epochs": 1, "hidden": [8]}}))
    code = run_cli(
        command, "--scenario", scenario_path, "--out", str(tmp_path / "o"),
        *_SMALL_RUN[command], "--config", str(path),
    )
    assert code == EXIT_USAGE
    assert "'ppo'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("gen-scenario", "--scenario", "s.json"),
        ("gen-scenario", "--alpha", "0.5"),
        ("gen-scenario", "--config", "c.json"),
        ("gen-workload", "--alpha", "0.5"),
        ("compare", "--alpha", "0.5"),  # not read as an abbreviated --alphas
        ("verify", "--alpha", "0.5"),
        ("verify", "--seed", "1"),
        ("verify", "--out", "o"),
        ("verify", "--config", "c.json"),
        ("evaluate", "--timing", None),
        ("compare", "--timing", None),
    ],
)
def test_flag_a_command_does_not_read_exits_1(scenario_path, tmp_path, capsys, command, flag,
                                               value):
    valid = {
        "gen-scenario": ["--preset", "small-payload", "--out", str(tmp_path / "s.json")],
        "gen-workload": ["--scenario", scenario_path, "--snapshots", "2",
                         "--out", str(tmp_path / "t.csv")],
        "evaluate": ["--scenario", scenario_path, *_SMALL_RUN["evaluate"],
                     "--out", str(tmp_path / "e")],
        "compare": ["--scenario", scenario_path, *_SMALL_RUN["compare"],
                    "--out", str(tmp_path / "c")],
        "verify": ["--scenario", scenario_path, str(tmp_path / "d.json")],
    }[command]
    extra = [flag] if value is None else [flag, value]
    assert run_cli(command, *valid, *extra) == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("gen-workload", "--snapshots"),
        ("evaluate", "--snapshots"),
        ("compare", "--snapshots"),
        ("train", "--timesteps"),
        ("compare", "--timesteps"),
        ("train", "--train-snapshots"),
        ("compare", "--train-snapshots"),
        ("evaluate", "--milp-budget"),
        ("compare", "--milp-budget"),
    ],
)
def test_non_positive_count_exits_1(scenario_path, tmp_path, capsys, command, flag, value):
    code = run_cli(
        command, "--scenario", scenario_path, "--out", str(tmp_path / "o"),
        *_SMALL_RUN[command], flag, value,  # the last occurrence of a flag wins
    )
    assert code == EXIT_USAGE
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "4294967296", "4294967297"])
@pytest.mark.parametrize("command", ["gen-scenario", "gen-workload", "train", "evaluate",
                                     "compare"])
def test_seed_outside_32_bits_exits_1(scenario_path, tmp_path, capsys, command, value):
    """A seed that rng_stream's 32 bits would fold onto another seed is refused."""
    out = tmp_path / "o"
    scenario = [] if command == "gen-scenario" else ["--scenario", scenario_path]
    code = run_cli(command, *scenario, "--out", str(out), *_SMALL_RUN.get(command, []),
                   "--seed", value)
    assert code == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_milp_budget_past_32_bits_exits_1_before_any_work(scenario_path, tmp_path, capsys,
                                                          command):
    """HiGHS reads mip_max_nodes as a 32-bit int, so a larger budget fails before training."""
    out = tmp_path / "o"
    code = run_cli(command, "--scenario", scenario_path, "--out", str(out),
                   *_SMALL_RUN[command], "--milp-budget", "2147483648")
    assert code == EXIT_USAGE
    assert "--milp-budget" in capsys.readouterr().err
    assert not out.exists()


def test_milp_budget_at_the_32_bit_edge_runs(scenario_path, tmp_path):
    assert run_cli("evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
                   "--candidates", "joint-milp", "--snapshots", "1", "--no-timing",
                   "--milp-budget", "2147483647") == EXIT_OK


def test_seed_at_the_32_bit_edges_runs(tmp_path):
    for seed in ("0", "4294967295"):
        assert run_cli("gen-scenario", "--out", str(tmp_path / f"{seed}.json"),
                       "--seed", seed) == EXIT_OK


@pytest.mark.parametrize(
    "command, workload",
    [
        ("train", {"rate_range": [-5, -1]}),
        ("evaluate", {"rate_range": [5, 1]}),
        ("gen-workload", {"per_function_rate_ranges": [[9, -7], [1, 2]]}),
        ("compare", {"rate_range": [-5, -1]}),
    ],
    ids=["train-negative", "evaluate-inverted", "gen-workload-per-function", "compare-negative"],
)
def test_bad_rate_range_exits_2(scenario_path, tmp_path, capsys, command, workload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"workload": workload}))
    code = run_cli(
        command, "--scenario", scenario_path, "--out", str(tmp_path / "o"),
        *_SMALL_RUN[command], "--config", str(path),
    )
    assert code == EXIT_INVALID
    assert "rate_range" in capsys.readouterr().err


def test_one_node_generated_scenario_trains(tmp_path):
    scenario = tmp_path / "one.json"
    code = run_cli("gen-scenario", "--nodes", "1", "--functions", "1", "--out", str(scenario))
    assert code == EXIT_OK
    for command in ("train", "evaluate", "gen-workload"):
        code = run_cli(
            command, "--scenario", str(scenario), "--out", str(tmp_path / command),
            *_SMALL_RUN[command],
        )
        assert code == EXIT_OK, command


@pytest.mark.parametrize("out", ["no/such/dir/s.json", ""], ids=["missing-dir", "empty"])
def test_unwritable_output_exits_1(tmp_path, capsys, out):
    out = str(tmp_path / out) if out else out
    assert run_cli("gen-scenario", "--preset", "small-payload", "--out", out) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "cannot write output" in err and repr(out) in err


@pytest.mark.parametrize("out", ["under-a-file", ""])
@pytest.mark.parametrize("command, work", [("train", "train_agent"),
                                           ("evaluate", "evaluate_candidates")])
def test_unusable_out_exits_1_before_the_work(scenario_path, tmp_path, monkeypatch, capsys,
                                              command, work, out):
    def fail(*args, **kwargs):  # a call would end as an internal error, exit 3
        raise RuntimeError(f"{work} ran")

    monkeypatch.setattr(bench, work, fail)
    if out:
        (tmp_path / "file").write_text("")
        out = str(tmp_path / "file" / "runs")
    code = run_cli(command, "--scenario", scenario_path, "--out", out, *_SMALL_RUN[command])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "cannot write output" in err and repr(out) in err


def test_an_unexpected_failure_exits_3(tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("edgeplace.cli.save_scenario", fail)
    out = str(tmp_path / "s.json")
    assert run_cli("gen-scenario", "--preset", "small-payload", "--out", out) == EXIT_INTERNAL
    assert "internal error: boom" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("train", "--alpha", "1.5"),
        ("train", "--alpha", "nan"),
        ("evaluate", "--alpha", "-0.1"),
        ("compare", "--alphas", "0,x"),  # test_bad_alphas_rejected takes one above 1
    ],
    ids=["train-above-1", "train-nan", "evaluate-negative", "alphas-non-numeric"],
)
def test_cost_weight_outside_unit_interval_exits_1(scenario_path, tmp_path, capsys, command,
                                                   flag, value):
    out = tmp_path / "o"
    code = run_cli(
        command, "--scenario", scenario_path, "--out", str(out), *_SMALL_RUN[command],
        flag, value,  # the last occurrence of a flag wins
    )
    assert code == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "content, cause",
    [
        (None, "cannot read config"),
        ('{"ppo": ', "cannot read config"),
        ("[]", "is not a JSON object"),
        (json.dumps({"ppo": [["epochs", 1]]}), "section 'ppo' must be a JSON object"),
    ],
    ids=["missing", "unparseable", "list", "section-list"],
)
def test_unreadable_config_exits_1(scenario_path, tmp_path, capsys, content, cause):
    path = tmp_path / "config.json"
    if content is not None:
        path.write_text(content)
    code = run_cli(
        "train", "--scenario", scenario_path, "--out", str(tmp_path / "o"),
        *_SMALL_RUN["train"], "--config", str(path),
    )
    assert code == EXIT_USAGE
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["scenario", "checkpoint", "decision"])
def test_a_file_holding_a_json_list_is_refused(scenario_path, tmp_path, capsys, kind):
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    out = str(tmp_path / "o")
    argv = {
        "scenario": ["gen-workload", "--scenario", str(listed), "--out", out],
        "checkpoint": ["evaluate", "--scenario", scenario_path, "--out", out,
                       "--snapshots", "2", "--checkpoint", str(listed)],
        "decision": ["verify", "--scenario", scenario_path, str(listed)],
    }[kind]
    assert run_cli(*argv) == EXIT_INVALID
    captured = capsys.readouterr()
    # verify reports a file it cannot read as a FAIL line on stdout
    report = captured.out if kind == "decision" else captured.err
    assert f"{listed} is not a JSON object" in report
    if kind == "decision":
        assert f"FAIL {listed}" in report


@pytest.mark.parametrize(
    "field, cause",
    [
        ("placements", "placements shape"),
        ("routes", "non-finite route entry"),
        # float() and np.array(dtype=float) raise OverflowError on 10**400
        ("total_delay", "malformed document"),
        ("workload", "malformed document"),
        # float(), np.array(dtype=float) and True == 1 take these as numbers
        ("schema_version", "unsupported schema_version True"),
        ("totals", "malformed document: total_delay is '"),
        ("placements-bool", "malformed document: placements[0][0] is "),
        ("routes-str", "malformed document: routes[0][0][0] is '"),
    ],
)
def test_verify_refuses_a_misshapen_or_non_finite_decision(scenario_path, tri_scenario, tmp_path,
                                                          capsys, field, cause):
    from edgeplace.baselines import solve_vsvbp
    from edgeplace.verify import decision_to_dict

    sol = solve_vsvbp(tri_scenario)
    doc = decision_to_dict(
        tri_scenario.name, tri_scenario.workload, sol.placements, sol.routes,
        sol.total_delay, sol.total_cost, "vsvbp", 0.0, 0,
    )
    if field == "placements":
        doc["placements"] = doc["placements"][:-1]
    elif field == "routes":
        doc["routes"][0][0][0] = float("inf")  # json writes an Infinity literal
    elif field == "total_delay":
        doc["total_delay"] = 10**400
    elif field == "workload":
        doc["workload"][0][0] = 10**400
    elif field == "schema_version":
        doc["schema_version"] = True
    elif field == "totals":
        doc["total_delay"], doc["total_cost"] = repr(sol.total_delay), repr(sol.total_cost)
    elif field == "placements-bool":
        doc["placements"] = [[bool(v) for v in row] for row in doc["placements"]]
    else:
        doc["routes"][0][0] = [repr(v) for v in doc["routes"][0][0]]
    path = tmp_path / "decision.json"
    path.write_text(json.dumps(doc))
    assert run_cli("verify", "--scenario", scenario_path, str(path)) == EXIT_INVALID
    out = capsys.readouterr().out
    assert "FAIL" in out and cause in out


def test_a_refusal_names_the_last_entry_at_depth(scenario_path, tri_scenario, tmp_path, capsys):
    """The path is assembled from the failing entry outward, so the last index at each depth
    and a config name's own quotes both reach the message."""
    from edgeplace.baselines import solve_vsvbp
    from edgeplace.verify import decision_to_dict

    sol = solve_vsvbp(tri_scenario)
    doc = decision_to_dict(
        tri_scenario.name, tri_scenario.workload, sol.placements, sol.routes,
        sol.total_delay, sol.total_cost, "vsvbp", 0.0, 0,
    )
    doc["routes"][-1][-1][-1] = repr(doc["routes"][-1][-1][-1])
    decision = tmp_path / "decision.json"
    decision.write_text(json.dumps(doc))
    assert run_cli("verify", "--scenario", scenario_path, str(decision)) == EXIT_INVALID
    f, n = tri_scenario.n_functions - 1, tri_scenario.n_nodes - 1
    assert f"malformed document: routes[{f}][{n}][{n}] is '" in capsys.readouterr().out
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ppo": {"hidden": [16, 8, 0]}}))
    code = run_cli(
        "train", "--scenario", scenario_path, "--out", str(tmp_path / "t"),
        *_SMALL_RUN["train"], "--config", str(config),
    )
    assert code == EXIT_USAGE
    assert f"config {config}: 'ppo.hidden'[2] is 0, not an integer" in capsys.readouterr().err


def test_checkpoint_state_scale_of_the_wrong_length_exits_2(scenario_path, tmp_path, capsys):
    checkpoint = tmp_path / "policy.json"
    net = MLP(state_dim(3), 3, hidden=(4,), rng=np.random.default_rng(0))
    save_policy(str(checkpoint), PolicyAgent(net=net, state_scale=np.ones(state_dim(3))))
    doc = json.loads(checkpoint.read_text())
    doc["state_scale"] = doc["state_scale"][:-1]
    checkpoint.write_text(json.dumps(doc))
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
        "--checkpoint", str(checkpoint), "--snapshots", "2",
    )
    assert code == EXIT_INVALID
    assert "state_scale length" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, cause",
    [
        ("0,1,0", "expected 4 columns, got 3"),
        ("0,-1,0,1.0", "function_id is -1, not an integer >= 0"),
        # refused before any snapshot is made: dense snapshots to this index take 745 GiB
        ("0,99999999999,0,1.0", "function 99999999999, node 0 is outside"),
        ("0,2,0,1.0", "function 2, node 0 is outside the scenario's 2 functions and 3 nodes"),
        ("0,0,3,1.0", "function 0, node 3 is outside"),
    ],
    ids=["three-columns", "negative-function", "far-function", "next-function", "next-node"],
)
def test_evaluate_refuses_a_bad_trace_line(scenario_path, tmp_path, capsys, line, cause):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"snapshot,function_id,node_id,rate\n0,0,0,1.0\n{line}\n")
    code = run_cli("evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
                   "--candidates", "vsvbp", "--trace", str(trace))
    assert code == EXIT_INVALID
    assert f"line 3: {cause}" in capsys.readouterr().err


def test_train_refuses_a_diverged_policy(scenario_path, fast_config, tmp_path, monkeypatch,
                                          capsys):
    """A training whose parameters end non-finite exits 2 naming it and saves no policy."""
    real_train = bench.train_agent

    def diverged(*args, **kwargs):
        result = real_train(*args, **kwargs)
        result.agent.net.params[0] = np.nan
        return result

    monkeypatch.setattr(bench, "train_agent", diverged)
    train_dir = tmp_path / "train"
    code = run_cli(
        "train", "--scenario", scenario_path, "--alpha", "0", "--seed", "1",
        "--timesteps", "64", "--train-snapshots", "4",
        "--config", fast_config, "--out", str(train_dir),
    )
    assert code == EXIT_INVALID
    assert "params are not all finite" in capsys.readouterr().err
    assert not (train_dir / "policy-alpha0-seed1.json").exists()


def test_diverged_training_stops_early_and_writes_its_log(tmp_path, monkeypatch, capsys):
    """A learning rate far too large stops the training after the update that diverged."""
    scenario = tmp_path / "scenario.json"
    assert run_cli("gen-scenario", "--preset", "small-payload", "--out", str(scenario)) == EXIT_OK
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ppo": {"learning_rate": 1e300}}))
    calls = []
    real_update = bench.ppo_update

    def counting(*args, **kwargs):
        calls.append(1)
        return real_update(*args, **kwargs)

    monkeypatch.setattr(bench, "ppo_update", counting)
    train_dir = tmp_path / "train"
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the point
        code = run_cli(
            "train", "--scenario", str(scenario), "--alpha", "0", "--seed", "1",
            "--timesteps", "8192", "--config", str(config), "--out", str(train_dir),
        )
    assert code == EXIT_INVALID
    assert "params are not all finite" in capsys.readouterr().err
    assert 1 <= len(calls) <= 2  # an 8192-step budget would run 32 updates
    with open(train_dir / "train-log-alpha0-seed1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["iteration"]) for row in rows] == list(range(1, len(calls) + 1))
    assert not (train_dir / "policy-alpha0-seed1.json").exists()


def test_train_then_evaluate_pipeline(scenario_path, fast_config, tmp_path, capsys):
    train_dir = tmp_path / "train"
    code = run_cli(
        "train", "--scenario", scenario_path, "--alpha", "0", "--seed", "1",
        "--timesteps", "64", "--train-snapshots", "4",
        "--config", fast_config, "--out", str(train_dir),
    )
    assert code == EXIT_OK
    policy = train_dir / "policy-alpha0-seed1.json"
    assert policy.exists() and (train_dir / "train-log-alpha0-seed1.csv").exists()

    eval_dir = tmp_path / "eval"
    eval_config = tmp_path / "eval-config.json"  # evaluate reads the workload section only
    eval_config.write_text(json.dumps({"workload": {"rate_range": [4, 12]}}))
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--alpha", "0", "--seed", "1",
        "--checkpoint", str(policy), "--snapshots", "3", "--milp-budget", "200",
        "--config", str(eval_config), "--no-timing", "--out", str(eval_dir),
    )
    assert code == EXIT_OK
    table = capsys.readouterr().out
    assert "candidate" in table and "agent" in table and "joint-milp" in table
    results = (eval_dir / "results.csv").read_text().splitlines()
    assert len(results) == 1 + 4 * 3  # header + candidates x snapshots


def test_evaluate_requires_checkpoint_for_agent(scenario_path, tmp_path):
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
        "--snapshots", "2",
    )
    assert code == EXIT_USAGE


def test_evaluate_rejects_unknown_candidate(scenario_path, tmp_path):
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
        "--candidates", "bogus", "--snapshots", "2",
    )
    assert code == EXIT_USAGE


def test_evaluate_baselines_only_without_checkpoint(scenario_path, tmp_path):
    out = tmp_path / "base"
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--out", str(out),
        "--candidates", "vsvbp,cr-eua", "--snapshots", "2", "--no-timing",
    )
    assert code == EXIT_OK
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2


def test_evaluate_on_trace_rejects_shape_mismatch(scenario_path, tmp_path):
    trace = tmp_path / "trace.csv"
    code = run_cli(
        "gen-workload", "--scenario", scenario_path, "--snapshots", "2",
        "--out", str(trace),
    )
    assert code == EXIT_OK
    other = tmp_path / "other.json"
    assert run_cli("gen-scenario", "--preset", "small-payload", "--out", str(other)) == EXIT_OK
    code = run_cli(
        "evaluate", "--scenario", str(other), "--out", str(tmp_path / "e"),
        "--candidates", "vsvbp", "--trace", str(trace),
    )
    assert code == EXIT_INVALID


def test_untimed_evaluate_is_reproducible(scenario_path, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run_cli(
            "evaluate", "--scenario", scenario_path, "--out", str(out),
            "--candidates", "joint-milp,vsvbp", "--snapshots", "3",
            "--seed", "9", "--no-timing",
        )
        assert code == EXIT_OK
        outs.append(
            (out / "results.csv").read_bytes() + (out / "summary.json").read_bytes()
        )
    assert outs[0] == outs[1]


def test_verify_command_pass_and_fail(scenario_path, tri_scenario, tmp_path, capsys):
    from edgeplace.baselines import solve_joint_milp
    from edgeplace.verify import decision_to_dict

    sol = solve_joint_milp(tri_scenario, alpha=0.0)
    doc = decision_to_dict(
        tri_scenario.name, tri_scenario.workload, sol.placements, sol.routes,
        sol.total_delay, sol.total_cost, "milp", 0.0, 0,
    )
    good = tmp_path / "good.json"
    save_decision(str(good), doc)
    assert run_cli("verify", "--scenario", scenario_path, str(good)) == EXIT_OK
    assert "OK" in capsys.readouterr().out

    bad_doc = dict(doc, total_cost=doc["total_cost"] + 5.0)
    bad = tmp_path / "bad.json"
    save_decision(str(bad), bad_doc)
    code = run_cli("verify", "--scenario", scenario_path, str(good), str(bad))
    assert code == EXIT_INVALID
    out = capsys.readouterr().out
    assert "FAIL" in out and "cost-mismatch" in out


def test_compare_smoke(scenario_path, fast_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run_cli(
        "compare", "--scenario", scenario_path, "--alphas", "0",
        "--timesteps", "64", "--train-snapshots", "4", "--snapshots", "2",
        "--milp-budget", "200", "--config", fast_config, "--no-timing",
        "--seed", "4", "--out", str(out),
    )
    assert code == EXIT_OK
    assert (out / "policy-alpha0-seed4.json").exists()
    assert (out / "results.csv").exists()
    table = capsys.readouterr().out
    assert "cr-eua" in table


def test_bad_alphas_rejected(scenario_path, tmp_path):
    code = run_cli(
        "compare", "--scenario", scenario_path, "--alphas", "0,2",
        "--out", str(tmp_path / "x"),
    )
    assert code == EXIT_USAGE


def test_compare_with_no_alpha_exits_1(scenario_path, tmp_path, capsys):
    out = tmp_path / "o"
    code = run_cli(
        "compare", "--scenario", scenario_path, "--out", str(out), *_SMALL_RUN["compare"],
        "--alphas", ",",
    )
    assert code == EXIT_USAGE
    assert "alphas is empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("compare", "--alphas", "0,0"),
        # two floats, but both runs would be saved as alpha0.1
        ("compare", "--alphas", "0.1,0.1000001"),
        # equal floats that print apart: run_compare keeps one agent for both
        ("compare", "--alphas", "0,-0"),
        ("evaluate", "--candidates", "cr-eua,cr-eua"),
    ],
)
def test_list_entry_given_twice_exits_1(scenario_path, tmp_path, capsys, command, flag, value):
    out = tmp_path / "o"
    code = run_cli(
        command, "--scenario", scenario_path, "--out", str(out), *_SMALL_RUN[command],
        flag, value, "--no-timing",
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert all(entry in err for entry in value.split(","))
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--nodes", "4"), ("--functions", "3"), ("--seed", "1")])
def test_gen_scenario_preset_refuses_random_scenario_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "s.json"
    code = run_cli("gen-scenario", "--preset", "small-payload", flag, value, "--out", str(out))
    assert code == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


def _trace(scenario_path, tmp_path):
    trace = tmp_path / "trace.csv"
    code = run_cli(
        "gen-workload", "--scenario", scenario_path, "--snapshots", "2", "--out", str(trace)
    )
    assert code == EXIT_OK
    return str(trace)


def test_evaluate_trace_with_a_skipped_snapshot_exits_2(scenario_path, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("snapshot,function_id,node_id,rate\n0,0,0,1.0\n200000,0,0,1.0\n")
    code = run_cli("evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
                   "--candidates", "vsvbp", "--trace", str(trace))
    assert code == EXIT_INVALID
    assert "no line for snapshot 1" in capsys.readouterr().err


def test_evaluate_trace_refuses_snapshots(scenario_path, tmp_path, capsys):
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
        "--candidates", "vsvbp", "--trace", _trace(scenario_path, tmp_path), "--snapshots", "5",
    )
    assert code == EXIT_USAGE
    assert "--snapshots" in capsys.readouterr().err


def test_evaluate_trace_refuses_workload_section(scenario_path, tmp_path, capsys):
    # the trace holds the snapshots, so even an inverted rate range would go unread
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workload": {"rate_range": [5, 1]}}))
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
        "--candidates", "cr-eua", "--trace", _trace(scenario_path, tmp_path), "--no-timing",
        "--config", str(config),
    )
    assert code == EXIT_USAGE
    assert "'workload'" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_evaluate_checkpoint_without_agent_exits_1(scenario_path, tmp_path, capsys):
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--out", str(tmp_path / "e"),
        "--candidates", "vsvbp,cr-eua", "--snapshots", "2",
        "--checkpoint", str(tmp_path / "policy.json"),
    )
    assert code == EXIT_USAGE
    assert "--checkpoint" in capsys.readouterr().err


def test_evaluate_metadata_names_only_evaluation_settings(scenario_path, tmp_path):
    out = tmp_path / "e"
    code = run_cli(
        "evaluate", "--scenario", scenario_path, "--out", str(out), "--candidates", "cr-eua",
        "--trace", _trace(scenario_path, tmp_path), "--no-timing",
    )
    assert code == EXIT_OK
    meta = json.loads((out / "metadata.json").read_text())
    assert sorted(meta) == [
        "alphas", "candidates", "eval_snapshots", "milp_node_budget", "scenario", "seed", "timing",
    ]
    assert meta["eval_snapshots"] == 2
    summary = json.loads((out / "summary.json").read_text())
    assert [entry["snapshots"] for entry in summary] == [2]


def test_bad_drift_prob_exits_2(scenario_path, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"workload": {"drift_prob": 7.5}}))
    code = run_cli(
        "gen-workload", "--scenario", scenario_path, "--out", str(tmp_path / "t.csv"),
        *_SMALL_RUN["gen-workload"], "--config", str(path),
    )
    assert code == EXIT_INVALID
    assert "drift_prob" in capsys.readouterr().err


def test_config_lists_arrive_as_the_tuples_their_fields_declare(tri_scenario, tmp_path):
    """A list never equals a tuple, so each == holds only for tuples at every depth."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "ppo": {"hidden": [16, 8]},
        "workload": {"rate_range": [4, 12], "per_function_rate_ranges": [[1, 2], [3.5, 4]]},
    }))
    overrides = cli._load_overrides(str(path), ("ppo", "workload"))
    assert cli._ppo_config(overrides).hidden == (16, 8)
    workload = cli._workload_config(tri_scenario, 2, overrides)
    assert workload.rate_range == (4, 12)
    assert workload.per_function_rate_ranges == ((1, 2), (3.5, 4))


def test_verify_refuses_a_nan_total(scenario_path, tri_scenario, tmp_path, capsys):
    from edgeplace.baselines import solve_vsvbp
    from edgeplace.verify import decision_to_dict

    sol = solve_vsvbp(tri_scenario)
    doc = decision_to_dict(
        tri_scenario.name, tri_scenario.workload, sol.placements, sol.routes,
        sol.total_delay, sol.total_cost, "vsvbp", 0.0, 0,
    )
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(dict(doc, total_delay=float("nan"))))  # a NaN literal
    assert np.isnan(load_decision(str(path))["total_delay"])
    assert run_cli("verify", "--scenario", scenario_path, str(path)) == EXIT_INVALID
    out = capsys.readouterr().out
    assert "FAIL" in out and "delay-mismatch" in out


def test_evaluate_trace_with_a_zero_traffic_snapshot(tmp_path):
    """A snapshot whose lines all give rate 0 has no traffic; its per-request delay is blank."""
    scenario = tmp_path / "small.json"
    assert run_cli("gen-scenario", "--preset", "small-payload", "--out", str(scenario)) == EXIT_OK
    full = tmp_path / "full.csv"
    code = run_cli("gen-workload", "--scenario", str(scenario), "--snapshots", "3",
                   "--out", str(full))
    assert code == EXIT_OK
    lines = full.read_text().splitlines()
    trace = tmp_path / "trace.csv"
    zeroed = [line.rsplit(",", 1)[0] + ",0.0" if line.startswith("1,") else line
              for line in lines]
    trace.write_text("\n".join(zeroed) + "\n")
    out = tmp_path / "e"
    code = run_cli(
        "evaluate", "--scenario", str(scenario), "--out", str(out), "--trace", str(trace),
        "--candidates", "joint-milp,vsvbp,cr-eua", "--milp-budget", "50", "--no-timing",
    )
    assert code == EXIT_OK
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    for row in rows:
        assert row["valid"] == "true"
        assert (row["delay_ms_per_req"] == "") == (row["snapshot"] == "1")
    summary = json.loads((out / "summary.json").read_text())
    for entry in summary:
        per_request = [float(r["delay_ms_per_req"]) for r in rows
                       if r["candidate"] == entry["candidate"] and r["snapshot"] != "1"]
        assert entry["mean_delay_ms_per_req"] == pytest.approx(sum(per_request) / 2)
