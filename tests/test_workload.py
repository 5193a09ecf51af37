from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace.util import rng_stream
from edgeplace.workload import (
    WorkloadError,
    WorkloadGenConfig,
    generate_workloads,
    ingest_trace,
    write_trace,
)
from oracles import generate_workloads_reference


def test_shapes_and_nonnegativity():
    cfg = WorkloadGenConfig(n_snapshots=20)
    snaps = generate_workloads(3, 5, cfg, rng_stream(0, "w"))
    assert len(snaps) == 20
    for s in snaps:
        assert s.shape == (3, 5)
        assert np.all(s >= 0) and np.all(np.isfinite(s))


def test_deterministic_given_seed():
    cfg = WorkloadGenConfig(n_snapshots=5)
    a = generate_workloads(2, 4, cfg, rng_stream(7, "w"))
    b = generate_workloads(2, 4, cfg, rng_stream(7, "w"))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    c = generate_workloads(2, 4, cfg, rng_stream(8, "w"))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_totals_respect_rate_range():
    cfg = WorkloadGenConfig(n_snapshots=50, rate_range=(10.0, 20.0))
    snaps = generate_workloads(2, 5, cfg, rng_stream(1, "w"))
    totals = np.array([s.sum(axis=1) for s in snaps])
    assert np.all(totals >= 10.0 - 1e-9) and np.all(totals <= 20.0 + 1e-9)


def test_hotspots_concentrate_mass():
    cfg = WorkloadGenConfig(
        n_snapshots=1, hotspot_count=1, concentration=0.9, drift_prob=0.0
    )
    snap = generate_workloads(1, 10, cfg, rng_stream(3, "w"))[0]
    top = snap[0].max()
    assert top / snap[0].sum() >= 0.9  # hotspot holds its share plus base


def test_drift_moves_hotspots():
    cfg = WorkloadGenConfig(n_snapshots=40, hotspot_count=1, drift_prob=0.5)
    snaps = generate_workloads(1, 6, cfg, rng_stream(4, "w"))
    peaks = {int(np.argmax(s[0])) for s in snaps}
    assert len(peaks) > 1


def test_per_function_rate_ranges():
    cfg = WorkloadGenConfig(
        n_snapshots=10,
        per_function_rate_ranges=((1.0, 2.0), (100.0, 200.0)),
    )
    snaps = generate_workloads(2, 3, cfg, rng_stream(5, "w"))
    for s in snaps:
        assert s[0].sum() <= 2.0 + 1e-9
        assert s[1].sum() >= 100.0 - 1e-9


def test_config_validation():
    with pytest.raises(WorkloadError):
        generate_workloads(1, 2, WorkloadGenConfig(1, hotspot_count=5), rng_stream(0, "w"))
    with pytest.raises(WorkloadError):
        generate_workloads(
            1, 2, WorkloadGenConfig(1, concentration=1.5), rng_stream(0, "w")
        )
    for drift in (7.5, -0.1, float("nan")):
        with pytest.raises(WorkloadError, match="drift_prob"):
            generate_workloads(1, 2, WorkloadGenConfig(1, drift_prob=drift), rng_stream(0, "w"))


@pytest.mark.parametrize(
    "ranges, match",
    [
        ({"rate_range": (-5.0, -1.0)}, r"rate range \[-5.0, -1.0\] needs"),
        ({"rate_range": (5.0, 1.0)}, r"rate range \[5.0, 1.0\] needs"),
        ({"rate_range": (1.0, float("inf"))}, "needs 0 <= low <= high < inf"),
        ({"rate_range": (float("nan"), 1.0)}, "needs 0 <= low <= high < inf"),
        ({"per_function_rate_ranges": ((1.0, 2.0), (9.0, -7.0))}, "of function 1 needs"),
    ],
    ids=["negative", "inverted", "infinite", "nan", "per-function-inverted"],
)
def test_bad_rate_range_raises(ranges, match):
    with pytest.raises(WorkloadError, match=match):
        generate_workloads(2, 3, WorkloadGenConfig(1, **ranges), rng_stream(0, "w"))


@pytest.mark.parametrize("n_ranges", [1, 3], ids=["short", "long"])
def test_per_function_rate_ranges_of_the_wrong_length_raise(n_ranges):
    cfg = WorkloadGenConfig(1, per_function_rate_ranges=((1.0, 2.0),) * n_ranges)
    with pytest.raises(WorkloadError, match=f"has {n_ranges} entries for 2 functions"):
        generate_workloads(2, 3, cfg, rng_stream(0, "w"))


_share = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_rate_range = st.one_of(
    st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2).map(sorted),
    st.lists(st.integers(0, 100), min_size=2, max_size=2).map(sorted),  # as a JSON config gives
    st.one_of(st.floats(0.0, 1e6), st.integers(0, 100)).map(lambda x: [x, x]),
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(
    n_functions=st.integers(0, 12),
    n_nodes=st.integers(1, 12),
    concentration=_share,
    drift_prob=_share,
    n_snapshots=st.integers(0, 20),
    per_function=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_snapshots_match_reference_bit_for_bit(n_functions, n_nodes, concentration, drift_prob,
                                               n_snapshots, per_function, seed, data):
    """Every snapshot's bytes are the one-function-at-a-time reference's, at every
    hotspot_count, and the generator is left where the reference leaves it."""
    if per_function:
        ranges = {"per_function_rate_ranges": tuple(data.draw(_rate_range)
                                                    for _ in range(n_functions))}
    else:
        ranges = {"rate_range": data.draw(_rate_range)}
    for hotspot_count in range(1, n_nodes + 1):
        cfg = WorkloadGenConfig(n_snapshots, hotspot_count=hotspot_count,
                                concentration=concentration, drift_prob=drift_prob, **ranges)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        snaps = generate_workloads(n_functions, n_nodes, cfg, rng)
        expected = generate_workloads_reference(n_functions, n_nodes, cfg, reference_rng)
        assert len(snaps) == n_snapshots
        for snap, ref in zip(snaps, expected):
            assert snap.dtype == ref.dtype and snap.shape == ref.shape
            assert snap.tobytes() == ref.tobytes()
        assert rng.random() == reference_rng.random()


def test_degenerate_rate_range_allowed():
    zero = WorkloadGenConfig(3, rate_range=(0.0, 0.0))
    assert all(not s.any() for s in generate_workloads(2, 3, zero, rng_stream(0, "w")))
    fixed = WorkloadGenConfig(3, rate_range=(6.0, 6.0))
    totals = [s.sum() for s in generate_workloads(1, 3, fixed, rng_stream(0, "w"))]
    np.testing.assert_allclose(totals, 6.0)


def test_trace_round_trip_bit_exact(tmp_path):
    cfg = WorkloadGenConfig(n_snapshots=7)
    snaps = generate_workloads(3, 4, cfg, rng_stream(11, "w"))
    path = tmp_path / "trace.csv"
    write_trace(str(path), snaps)
    loaded = ingest_trace(str(path), (3, 4))
    assert len(loaded) == 7
    for a, b in zip(snaps, loaded):
        np.testing.assert_array_equal(a, b)


def test_ingest_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header,entirely,x\n")
    with pytest.raises(WorkloadError, match="header"):
        ingest_trace(str(path), (1, 2))
    path.write_text("snapshot,function_id,node_id,rate\n0,0,0,-3.5\n")
    with pytest.raises(WorkloadError, match="bad rate"):
        ingest_trace(str(path), (1, 2))
    path.write_text("snapshot,function_id,node_id,rate\n0,0,zero,1.0\n")
    with pytest.raises(WorkloadError):
        ingest_trace(str(path), (1, 2))
    path.write_text("snapshot,function_id,node_id,rate\n")
    with pytest.raises(WorkloadError, match="no samples"):
        ingest_trace(str(path), (1, 2))


def test_ingest_refuses_a_skipped_snapshot_index(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("snapshot,function_id,node_id,rate\n0,0,0,1.5\n3,0,0,2.0\n200000,0,0,1.0\n")
    with pytest.raises(WorkloadError, match="no line for snapshot 1 but gives snapshot 200000"):
        ingest_trace(str(path), (1, 2))
    # a snapshot whose lines all give rate 0 is there, with no traffic
    path.write_text("snapshot,function_id,node_id,rate\n1,0,1,1.5\n0,0,0,0.0\n")
    assert [s.tolist() for s in ingest_trace(str(path), (1, 2))] == [[[0.0, 0.0]], [[0.0, 1.5]]]


def test_ingest_refuses_a_cell_given_twice(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("snapshot,function_id,node_id,rate\n0,0,0,1.5\n0,0,1,2.0\n0,0,0,999.0\n")
    with pytest.raises(WorkloadError, match="line 4: snapshot 0, function 0, node 0 .* line 2"):
        ingest_trace(str(path), (1, 2))
