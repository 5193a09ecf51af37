from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace.model import validate_scenario
from edgeplace.scenarios import (
    PRESETS,
    build_preset,
    preset_workload_config,
    random_scenario,
)
from edgeplace.util import rng_stream
from oracles import random_scenario_reference


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


@settings(max_examples=100, deadline=None)
@given(n_nodes=st.integers(1, 12), n_functions=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_random_scenario_matches_reference_bit_for_bit(n_nodes, n_functions, seed):
    """Every array is the one-node-and-function-at-a-time reference's, byte for
    byte, and the generator is left where the reference leaves it."""
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    scenario = random_scenario(n_nodes, n_functions, rng)
    expected = random_scenario_reference(n_nodes, n_functions, reference_rng)
    for name in ("cores", "memory", "delays"):
        assert getattr(scenario.topology, name).tobytes() == \
            getattr(expected.topology, name).tobytes()
    for name in ("function_memory", "cores_per_request", "workload"):
        assert getattr(scenario, name).shape == getattr(expected, name).shape
        assert getattr(scenario, name).tobytes() == getattr(expected, name).tobytes()
    assert rng.random() == reference_rng.random()
