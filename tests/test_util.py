from __future__ import annotations

import numpy as np
import pytest

from edgeplace.bench import train_agent
from edgeplace.ppo import PPOConfig
from edgeplace.scenarios import build_preset, preset_workload_config
from edgeplace.util import dump_json, load_json, rng_stream


def test_dump_json_refusal_leaves_files_as_they_were(tmp_path):
    new = tmp_path / "new.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        dump_json(str(new), {"value": float("nan")})
    assert not new.exists()
    old = tmp_path / "old.json"
    dump_json(str(old), {"value": 1.5})
    before = old.read_bytes()
    with pytest.raises(ValueError, match="JSON compliant"):
        dump_json(str(old), {"value": float("inf")})
    assert old.read_bytes() == before
    assert load_json(str(old), ValueError, "file") == {"value": 1.5}


@pytest.mark.parametrize("seed", [-1, 2**32, 2**32 + 1, 2.5, 2.0, True, "7"])
def test_rng_stream_refuses_seeds_outside_32_bits(seed):
    """A seed folded to 32 bits would repeat another seed's draws, and so would one that
    int() reads: 2.5 as seed 2, True as seed 1 and "7" as seed 7. So each raises."""
    with pytest.raises(ValueError, match=f"seed is {seed!r}, not an integer in 0..4294967295"):
        rng_stream(seed, "draw")


def test_rng_stream_takes_numpy_integers():
    assert rng_stream(np.uint32(7), "draw").random() == rng_stream(7, "draw").random()


def test_rng_stream_keeps_its_draws_at_the_32_bit_edges():
    assert rng_stream(0, "draw").random() == 0.626084088079401
    assert rng_stream(2**32 - 1, "draw").random() == 0.8074869507029785


def test_train_agent_refuses_a_seed_outside_32_bits_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("edgeplace.bench.generate_workloads", no_training)
    for seed in (2**32, 2.5):
        with pytest.raises(ValueError, match=f"seed is {seed}, not"):
            train_agent(build_preset("small-payload"), 0.0, seed,
                        preset_workload_config("small-payload", 4), PPOConfig(), 64)
