from __future__ import annotations

import numpy as np
import pytest

from edgeplace.model import validate_scenario
from edgeplace.scenarios import (
    PRESETS,
    build_preset,
    preset_workload_config,
    random_scenario,
)
from edgeplace.util import rng_stream


@pytest.mark.parametrize("name", PRESETS)
def test_presets_are_valid_scenarios(name):
    scenario = build_preset(name)
    assert validate_scenario(scenario) == []
    assert scenario.name == name
    assert scenario.n_nodes == 5
    assert scenario.criticality is not None
    assert len(scenario.criticality) == scenario.n_functions


def test_preset_function_counts_differ():
    assert build_preset("small-payload").n_functions == 4
    assert build_preset("large-payload").n_functions == 10


def test_presets_share_cluster_but_not_demand_slicing():
    a, b = (build_preset(n) for n in PRESETS)
    np.testing.assert_array_equal(a.topology.delays, b.topology.delays)
    np.testing.assert_array_equal(a.topology.cores, b.topology.cores)
    cfg_a = preset_workload_config("small-payload", 10)
    cfg_b = preset_workload_config("large-payload", 10)
    assert cfg_a.rate_range[0] > cfg_b.rate_range[1]  # heavier per-function demand


def test_preset_hub_is_remote_but_cheap():
    scenario = build_preset("small-payload")
    hub = scenario.n_nodes - 1
    others = range(hub)
    assert all(scenario.topology.delays[i, hub] >= 6.0 for i in others)
    cpr = scenario.cores_per_request
    assert np.all(cpr[:, hub] < cpr[:, list(others)].min())


def test_build_preset_is_deterministic():
    a = build_preset("small-payload")
    b = build_preset("small-payload")
    np.testing.assert_array_equal(a.workload, b.workload)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        build_preset("tiny")
    with pytest.raises(ValueError, match="unknown preset"):
        preset_workload_config("tiny", 5)


def test_random_scenario_valid_and_seeded():
    a = random_scenario(4, 3, rng_stream(11, "gen-scenario"))
    assert validate_scenario(a) == []
    assert a.n_nodes == 4 and a.n_functions == 3
    b = random_scenario(4, 3, rng_stream(11, "gen-scenario"))
    np.testing.assert_array_equal(a.topology.delays, b.topology.delays)
    np.testing.assert_array_equal(a.workload, b.workload)
    c = random_scenario(4, 3, rng_stream(12, "gen-scenario"))
    assert not np.array_equal(a.workload, c.workload)
