from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace import env as env_module
from edgeplace.env import (
    _CORE_TOL,
    _QUEUE_STATS_ENTRIES,
    PENALTY_REWARD,
    VIOLATIONS,
    LockstepEnv,
    PlacementEnv,
    RewardBounds,
    _queue_stats,
    build_state_scale,
    cost_increment,
    make_queue,
    normalize_and_reward,
    observe,
    queue_memory,
    queue_order,
    run_episode,
    state_dim,
    t_max_bound,
)
from edgeplace.nn import MLP
from edgeplace.ppo import PolicyAgent
from edgeplace.routing import RoutingProblem, solve_routing
from edgeplace.scenarios import PRESETS, build_preset, preset_workload_config, random_scenario
from edgeplace.util import rng_stream
from edgeplace.workload import WorkloadGenConfig, generate_workloads

from conftest import count_highs_fallbacks, make_scenario
from oracles import (
    build_state,
    commit,
    empty_state,
    lockstep_rewards_reference,
    state_scale_reference,
)


def _agent(scenario, snapshots):
    net = MLP(state_dim(scenario.n_nodes), scenario.n_nodes, rng=np.random.default_rng(0))
    return PolicyAgent(net=net, state_scale=build_state_scale(scenario, snapshots))


def test_state_dim_formula():
    assert state_dim(3) == 9 + 9 + 4
    assert state_dim(5) == 25 + 15 + 4


def test_build_state_layout(tri_scenario):
    v = PlacementEnv(tri_scenario, alpha=0.0).reset()
    reference = build_state(tri_scenario, empty_state(tri_scenario.topology),
                            tri_scenario.workload, make_queue(tri_scenario))
    np.testing.assert_array_equal(v, reference)
    assert v.shape == (state_dim(3),)
    np.testing.assert_array_equal(v[:9], tri_scenario.topology.delays.ravel())
    # interleaved (cores, memory) per node
    np.testing.assert_array_equal(v[9:15], [30, 64, 20, 32, 40, 128])
    # queue is [f1, f0]; current workload row is f1's
    np.testing.assert_array_equal(v[15:18], [2, 6, 8])
    # (current fn memory, mean of rest, std of rest) then cumulative delay
    np.testing.assert_array_equal(v[18:21], [4, 8, 0])
    assert v[21] == 0.0


def test_queue_orders_by_load_then_memory_then_id():
    scenario = make_scenario(
        delays=[[0, 1], [1, 0]],
        cores=[50, 50],
        memory=[64, 64],
        fn_memory=[2, 8, 8, 1],
        workload=[[5, 5], [8, 8], [10, 8], [10, 8]],
    )
    assert make_queue(scenario) == [2, 3, 1, 0]


def test_queue_order_pins_ties_for_one_snapshot_and_a_stack():
    """Equal totals go larger memory first; equal totals and memory go smaller id first."""
    memory = np.array([4.0, 8.0, 8.0, 4.0, 8.0])
    workloads = np.array([
        [[1, 1], [2, 0], [1, 1], [2, 0], [0, 2]],  # every total is 2
        [[3, 0], [0, 0], [1, 2], [0, 3], [0, 0]],  # totals 3, 0, 3, 3, 0
    ], dtype=float)
    expected = [[1, 2, 4, 0, 3], [2, 0, 3, 1, 4]]
    assert queue_order(memory, workloads).tolist() == expected
    for snapshot, order in zip(workloads, expected):
        assert queue_order(memory, snapshot).tolist() == order


def test_state_scale_positive_and_sized(tri_scenario):
    scale = build_state_scale(tri_scenario, [tri_scenario.workload])
    assert scale.shape == (state_dim(3),)
    assert np.all(scale > 0)
    assert scale[0] == 5.0  # largest pairwise delay
    assert scale[-1] == t_max_bound(tri_scenario, tri_scenario.workload)


def _assert_scale_matches_reference(scenario, snapshots):
    scale = build_state_scale(scenario, snapshots)
    reference = state_scale_reference(scenario, snapshots)
    assert scale.shape == reference.shape == (state_dim(scenario.n_nodes),)
    np.testing.assert_array_equal(scale[:-1], reference[:-1])
    # the delay bound's sum runs in another order in the reference
    assert scale[-1] == pytest.approx(reference[-1], rel=1e-12)


@pytest.mark.parametrize("preset", PRESETS)
def test_state_scale_matches_reference_on_presets(preset):
    scenario = build_preset(preset)
    snapshots = generate_workloads(
        scenario.n_functions, scenario.n_nodes, preset_workload_config(preset, 20),
        rng_stream(3, "workload-train"),
    )
    _assert_scale_matches_reference(scenario, snapshots)


def test_state_scale_matches_reference_on_random_scenarios():
    rng = np.random.default_rng(11)
    for _ in range(20):
        scenario = random_scenario(int(rng.integers(1, 8)), int(rng.integers(1, 11)), rng)
        # rates below 1 half the time, where the scale's floor of 1 applies
        cfg = WorkloadGenConfig(
            n_snapshots=int(rng.integers(1, 6)), rate_range=(0.0, float(rng.choice([0.5, 80.0]))),
            hotspot_count=1,
        )
        snapshots = generate_workloads(scenario.n_functions, scenario.n_nodes, cfg, rng)
        _assert_scale_matches_reference(scenario, snapshots)
        _assert_scale_matches_reference(scenario, [])  # no snapshots: rate and bound are 1


def test_state_scale_stack_equals_the_per_snapshot_loop():
    """The stacked rate maximum and delay bound are the per-snapshot loop's, bit for bit:
    the largest of each snapshot's own max() and t_max_bound."""
    rng = np.random.default_rng(5)
    cases = [(build_preset(p), preset_workload_config(p, 50)) for p in PRESETS]
    cases += [(random_scenario(n, f, np.random.default_rng(1)), WorkloadGenConfig(n_snapshots=50))
              for n, f in ((10, 15), (20, 30))]
    cases += [(random_scenario(int(rng.integers(1, 8)), int(rng.integers(1, 11)), rng),
               WorkloadGenConfig(n_snapshots=int(rng.integers(1, 6)), hotspot_count=1))
              for _ in range(10)]
    for scenario, cfg in cases:
        n = scenario.n_nodes
        snapshots = generate_workloads(scenario.n_functions, n, cfg, rng)
        rate_max = max(float(s.max()) for s in snapshots)
        t_max = max(t_max_bound(scenario, s) for s in snapshots)
        scale = build_state_scale(scenario, snapshots)
        rows = scale[n * n + 2 * n : n * n + 3 * n]
        assert rows.tobytes() == np.full(n, max(rate_max, 1.0)).tobytes()
        assert scale[-1] == max(t_max, 1.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_queue_memory_stack_matches_one_queue_at_a_time(data):
    """Each row of an (E, F) stack, and the same queue passed alone, are 1-D
    mean/std byte for byte; F >= 9 leaves 8 or more functions after the head,
    numpy's pairwise-sum branch."""
    n_functions = data.draw(st.integers(min_value=1, max_value=12), label="F")
    memory = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=n_functions, max_size=n_functions,
    ), label="memory"))
    queues = np.array(data.draw(st.lists(
        st.permutations(range(n_functions)), min_size=1, max_size=8,
    ), label="queues"))
    stack = queue_memory(memory, queues)
    assert stack.shape == (*queues.shape, 3)
    for queue, stats in zip(queues, stack):
        assert queue_memory(memory, queue.tolist()).tobytes() == stats.tobytes()
        queued = memory[queue]
        for k, entry in enumerate(stats):
            rest = queued[k + 1 :]
            expected = [queued[k], rest.mean(), rest.std()] if rest.size else [queued[k], 0.0, 0.0]
            assert entry.tobytes() == np.array(expected).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_queue_stats_memo_hits_and_misses_equal_queue_memory(data):
    """The memo PlacementEnv.reset reads gives queue_memory's bytes on a miss and
    on the hit after it, as one read-only array; F >= 9 takes numpy's pairwise sums."""
    n_functions = data.draw(st.integers(min_value=1, max_value=20), label="F")
    memory = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=n_functions, max_size=n_functions,
    ), label="memory"))
    queue = data.draw(st.permutations(range(n_functions)), label="queue")
    expected = queue_memory(memory, queue).tobytes()
    _queue_stats.cache_clear()
    miss = _queue_stats(memory[queue].tobytes())
    hit = _queue_stats(memory[queue].tobytes())
    info = _queue_stats.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert hit is miss and miss.tobytes() == expected and miss.shape == (n_functions, 3)
    assert not miss.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        miss[0, 0] = 1.0


def test_queue_stats_memo_stays_within_its_cap(tri_scenario):
    """The memo keeps its _QUEUE_STATS_ENTRIES most recently used queues, and a
    reset whose queued memories it has seen reads them from it."""
    _queue_stats.cache_clear()
    keys = [np.array([float(k), 1.0, 2.0]).tobytes() for k in range(_QUEUE_STATS_ENTRIES + 10)]
    for key in keys:
        _queue_stats(key)
    info = _queue_stats.cache_info()
    assert info.maxsize == _QUEUE_STATS_ENTRIES
    assert (info.currsize, info.misses) == (_QUEUE_STATS_ENTRIES, len(keys))
    _queue_stats(keys[-1])  # still held
    _queue_stats(keys[0])  # the least recently used went out first
    assert _queue_stats.cache_info()[:2] == (1, len(keys) + 1)
    env = PlacementEnv(tri_scenario, alpha=0.0)
    first = env.reset()
    hits = _queue_stats.cache_info().hits
    assert env.reset().tobytes() == first.tobytes()
    assert _queue_stats.cache_info().hits == hits + 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_observations_are_observe_of_the_state_and_stay_as_handed_out(data):
    """Every observation reset() and step() return is observe() of the env's state
    at that step, with the queue statistics of queue_memory's stack path. F >= 9,
    so the statistics take numpy's pairwise sums. No observation changes after
    it is handed out: not at later steps, nor at the next episode's."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n_nodes = data.draw(st.integers(min_value=1, max_value=6), label="N")
    n_functions = data.draw(st.integers(min_value=9, max_value=14), label="F")
    scenario = random_scenario(n_nodes, n_functions, rng)
    env = PlacementEnv(scenario, alpha=data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="alpha"))
    delays = scenario.topology.delays.ravel()
    handed_out = []
    for _ in range(2):
        workload = scenario.workload * data.draw(st.sampled_from([0.5, 1.0, 3.0]), label="scale")
        state = env.reset(workload)
        queue = list(env.queue)
        stats = queue_memory(scenario.function_memory, np.array([queue]))[0]
        for k, fid in enumerate(queue):
            expected = observe(delays, env.available_cores, env.available_memory,
                               workload[fid], stats[k], env.total_delay)
            assert state.tobytes() == expected.tobytes()
            handed_out.append((state, state.copy()))
            density = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]), label="density")
            state = env.step(rng.random(n_nodes) < density).state
        assert state is None
    for state, copy in handed_out:
        assert state.tobytes() == copy.tobytes()


def test_t_max_bound_hand_value(tri_scenario):
    # row sums of the delay matrix: 7, 5, 8
    assert t_max_bound(tri_scenario, tri_scenario.workload) == pytest.approx(
        (10 * 7 + 4 * 5) + (2 * 7 + 6 * 5 + 8 * 8)
    )
    stack = np.stack([tri_scenario.workload, tri_scenario.workload * 0.3])
    assert t_max_bound(tri_scenario, stack).tolist() == [t_max_bound(tri_scenario, w) for w in stack]


def test_cost_increment_hand_value():
    routing = np.array([[0.5, 0.5], [0.0, 1.0]])
    workload_row = np.array([4.0, 6.0])
    cpr = np.array([1.0, 2.0])
    # node 0 serves 2 requests at 1 core, node 1 serves 8 at 2 cores
    assert cost_increment(routing, workload_row, cpr) == pytest.approx(2 + 16)


def test_reward_bounds_only_widen(tri_scenario):
    env = PlacementEnv(tri_scenario, alpha=0.0)
    env.reset()
    wide = replace(env.bounds)
    assert wide == RewardBounds(t_max=t_max_bound(tri_scenario, tri_scenario.workload),
                                c_max=90.0)  # the cluster's total cores
    env.reset(tri_scenario.workload * 0.5)
    assert env.bounds == wide  # a smaller snapshot's bound never narrows the window
    env.reset(tri_scenario.workload * 3.0)
    big = t_max_bound(tri_scenario, tri_scenario.workload * 3.0)
    assert env.bounds == replace(wide, t_max=big)  # a larger one widens only t_max
    reward, seen = normalize_and_reward(25.0, -1.0, RewardBounds(t_max=10.0, c_max=5.0), 0.5)
    assert seen == RewardBounds(t_min=0.0, t_max=25.0, c_min=-1.0, c_max=5.0)
    assert reward == pytest.approx(-(0.5 * -1.0 + 0.5 * 1.0))  # at the widened edges
    assert normalize_and_reward(3.0, 2.0, seen, 0.5)[1] == seen  # inside: nothing moves


def test_degenerate_window_scores_best():
    reward, _ = normalize_and_reward(0.0, 0.0, RewardBounds(), alpha=0.7)
    assert reward == pytest.approx(1.0)


def test_reward_blend_and_range():
    bounds = RewardBounds(t_max=100.0, c_max=40.0)
    reward, _ = normalize_and_reward(25.0, 30.0, bounds, alpha=0.25)
    t_norm = 2 * 25 / 100 - 1
    c_norm = 2 * 30 / 40 - 1
    assert reward == pytest.approx(-(0.25 * c_norm + 0.75 * t_norm))
    rng = np.random.default_rng(0)
    for _ in range(200):
        r, bounds = normalize_and_reward(
            rng.uniform(0, 500), rng.uniform(0, 200), bounds, rng.random()
        )
        assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


def test_observation_beyond_window_widens_it():
    bounds = RewardBounds(t_max=10.0, c_max=10.0)
    reward, bounds = normalize_and_reward(30.0, 0.0, bounds, alpha=0.0)
    assert bounds.t_max == 30.0
    assert reward == pytest.approx(-1.0)  # worst seen so far


def _assert_window_matches_reference(bounds, alpha, t_uppers, delays, costs, valid):
    """score_window's rewards and final bounds have the bits of the one-step-at-a-time
    reference, and scoring raises no warning."""
    t_uppers, delays, costs = (np.array(v, dtype=float) for v in (t_uppers, delays, costs))
    valid = np.array(valid, dtype=bool).reshape(delays.shape)
    scorer = replace(bounds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rewards = scorer.score_window(t_uppers, delays, costs, valid, alpha)
    want, want_bounds = lockstep_rewards_reference(t_uppers, delays, costs, valid, bounds, alpha)
    assert rewards.tobytes() == want.tobytes()
    got = (scorer.t_min, scorer.t_max, scorer.c_min, scorer.c_max)
    assert np.array(got).tobytes() == np.array(list(want_bounds.to_dict().values())).tobytes()
    assert all(type(value) is float for value in got)


_RUN_START = RewardBounds(c_max=90.0)  # a fresh run's bounds: c_max at the cluster's cores


@pytest.mark.parametrize(
    "bounds, t_uppers, delays, costs, valid",
    [
        # all-invalid windows: only each episode's t_upper moves a bound
        (_RUN_START, [40.0, 70.0], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
         [[False, False], [False, False]]),
        # zero-traffic episodes: t_upper 0 and every total 0, a degenerate delay span
        (_RUN_START, [0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
         [[True, True], [True, False]]),
        (RewardBounds(), [0.0], [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]], [[True, True, True]]),
        # a span of exactly 1e-12 is still degenerate
        (RewardBounds(), [1e-12], [[0.0, 1e-12]], [[0.0, 0.0]], [[True, True]]),
        # a zero-traffic episode after a busy one scores against the busy one's bounds
        (_RUN_START, [50.0, 0.0], [[12.0, 30.0], [0.0, 0.0]], [[4.0, 9.0], [0.0, 0.0]],
         [[True, True], [True, True]]),
        # one episode, and one step
        (_RUN_START, [50.0], [[12.0, 12.0, 60.0]], [[4.0, 4.0, 100.0]], [[True, False, True]]),
        (_RUN_START, [50.0], [[12.0]], [[4.0]], [[True]]),
        (RewardBounds(t_min=3.0, t_max=8.0, c_min=1.0, c_max=2.0), [5.0], [[1.0]], [[9.0]],
         [[True]]),
    ],
    ids=["all-invalid", "zero-traffic", "zero-traffic-fresh-bounds", "span-at-the-edge",
         "zero-after-busy", "one-episode", "one-step", "one-step-moves-every-bound"],
)
@pytest.mark.parametrize("alpha", [0.0, 1.0, 0.3])
def test_window_scores_match_step_by_step_reference(bounds, t_uppers, delays, costs, valid, alpha):
    _assert_window_matches_reference(bounds, alpha, t_uppers, delays, costs, valid)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_window_scores_match_step_by_step_reference_on_random_windows(data):
    n_episodes = data.draw(st.integers(1, 5), label="episodes")
    n_steps = data.draw(st.integers(1, 5), label="steps")
    # non-negative like every total and t_max_bound; the pool makes ties and spans
    # at the degenerate edge (1e-12 - 0.0 is exactly 1e-12) common
    value = st.one_of(st.sampled_from([0.0, 1e-12, 2.5, 40.0]), st.floats(0.0, 1e4))
    values = st.lists(value, min_size=n_episodes * n_steps, max_size=n_episodes * n_steps)
    validity = data.draw(st.sampled_from(["mixed", "all-invalid", "all-valid"]), label="valid")
    if validity == "mixed":
        valid = data.draw(st.lists(st.booleans(), min_size=n_episodes * n_steps,
                                   max_size=n_episodes * n_steps), label="mask")
    else:
        valid = [validity == "all-valid"] * (n_episodes * n_steps)
    t_uppers = data.draw(st.lists(value, min_size=n_episodes, max_size=n_episodes))
    delays = np.reshape(data.draw(values, label="delays"), (n_episodes, n_steps))
    costs = np.reshape(data.draw(values, label="costs"), (n_episodes, n_steps))
    for e in data.draw(st.sets(st.integers(0, n_episodes - 1)), label="zero-traffic episodes"):
        t_uppers[e] = 0.0
        delays[e] = costs[e] = 0.0
    bounds = RewardBounds(*data.draw(st.lists(value, min_size=4, max_size=4), label="bounds"))
    alpha = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), label="alpha")
    _assert_window_matches_reference(bounds, alpha, t_uppers, delays, costs, valid)


def test_valid_step_commits_and_scores(tri_scenario):
    env = PlacementEnv(tri_scenario, alpha=0.0)
    env.reset()
    # queue head is f1 (heaviest); send all of its traffic to node 0
    out = env.step(np.array([True, False, False]))
    assert out.valid and out.violation is None and out.function_id == 1
    assert env.total_delay == pytest.approx(2 * 0 + 6 * 2 + 8 * 5)
    assert env.total_cost == pytest.approx(16.0)
    assert env.available_cores[0] == pytest.approx(30 - 16)
    assert env.available_memory[0] == pytest.approx(64 - 4)
    # t window is [0, 198] from the reset-time bound, alpha=0 ignores cost
    assert out.reward == pytest.approx(1 - 2 * 52 / 198)
    assert not out.done and out.state is not None
    np.testing.assert_array_equal(out.state[15:18], [10, 4, 0])  # f0's workload row


def test_empty_placement_penalized_without_commit(tri_scenario):
    env = PlacementEnv(tri_scenario, alpha=0.5)
    env.reset()
    before = _snapshot(env)
    out = env.step(np.zeros(3, dtype=bool))
    assert not out.valid and out.violation == "empty-placement"
    assert out.reward == PENALTY_REWARD
    _assert_snapshot(env, before)  # nothing committed
    assert env.invalid_steps == 1
    assert 1 not in env.placements


def test_memory_violation():
    scenario = make_scenario(
        delays=[[0, 1], [1, 0]],
        cores=[50, 50],
        memory=[10, 3],
        fn_memory=[8],
        workload=[[1, 1]],
    )
    env = PlacementEnv(scenario, alpha=0.0)
    env.reset()
    out = env.step(np.array([True, True]))  # node 1 lacks memory
    assert out.violation == "memory" and out.reward == PENALTY_REWARD


def test_routing_infeasible_violation():
    scenario = make_scenario(
        delays=[[0, 1], [1, 0]],
        cores=[5, 50],
        memory=[64, 64],
        fn_memory=[1],
        workload=[[6, 6]],
    )
    env = PlacementEnv(scenario, alpha=0.0)
    env.reset()
    out = env.step(np.array([True, False]))  # 12 requests into 5 cores
    assert out.violation == "routing-infeasible"
    assert env.total_cost == 0.0


def test_step_after_end_raises(tri_scenario):
    env = PlacementEnv(tri_scenario, alpha=0.0)
    env.reset()
    env.step(np.ones(3, dtype=bool))
    env.step(np.ones(3, dtype=bool))
    with pytest.raises(RuntimeError, match="reset"):
        env.step(np.ones(3, dtype=bool))


def test_wrong_shape_actions_raise():
    """An action that is not one entry per node (per episode, in lockstep) is
    refused before anything steps, not broadcast into a decision."""
    scenario = build_preset("small-payload")
    n = scenario.n_nodes
    env = PlacementEnv(scenario, alpha=0.0)
    env.reset()
    for action in (np.array([True]), np.ones(n + 1, dtype=bool), np.ones((1, n), dtype=bool)):
        with pytest.raises(ValueError, match=rf"expected \({n},\)"):
            env.step(action)
    assert len(env.queue) == scenario.n_functions and env.invalid_steps == 0
    assert env.step(np.ones(n, dtype=bool)).valid
    lockstep = LockstepEnv(scenario, alpha=0.0)
    lockstep.reset([scenario.workload] * 3)
    for actions in (np.ones((3, 1), dtype=bool), np.ones((2, n), dtype=bool),
                    np.ones(n, dtype=bool)):
        with pytest.raises(ValueError, match=rf"expected \(3, {n}\)"):
            lockstep.step(actions)
    assert lockstep.position == 0
    codes, _ = lockstep.step(np.ones((3, n), dtype=bool))
    assert not codes.any()


def test_bounds_survive_reset(tri_scenario):
    env = PlacementEnv(tri_scenario, alpha=0.0)
    env.reset()
    big = env.bounds.t_max
    env.reset(tri_scenario.workload * 0.01)
    assert env.bounds.t_max == big  # never narrows for smaller snapshots


def test_one_reward_window_widens_in_place(tri_scenario):
    """normalize_and_reward leaves the window it is given as it was, and each
    environment widens its one window across resets and scored windows."""
    given = RewardBounds(t_min=1.0, t_max=10.0, c_min=2.0, c_max=5.0)
    _, widened = normalize_and_reward(25.0, -1.0, given, 0.5)
    assert widened is not given
    assert widened == RewardBounds(t_min=1.0, t_max=25.0, c_min=-1.0, c_max=5.0)
    assert given.to_dict() == {"t_min": 1.0, "t_max": 10.0, "c_min": 2.0, "c_max": 5.0}

    workload = tri_scenario.workload
    single = PlacementEnv(tri_scenario, alpha=0.5)
    window = single.bounds
    for scale in (1.0, 0.5, 3.0):
        single.reset(workload * scale)
        while single.step(np.ones(3, dtype=bool)).state is not None:
            pass
        assert single.bounds is window
    assert window.t_max == t_max_bound(tri_scenario, workload * 3.0)

    lockstep = LockstepEnv(tri_scenario, alpha=0.5)
    window = lockstep.bounds
    for scales in ((1.0,), (0.5, 3.0)):
        lockstep.reset([workload * s for s in scales])
        for _ in range(tri_scenario.n_functions):
            lockstep.step(np.ones((len(scales), 3), dtype=bool))
        lockstep.rewards()
        assert lockstep.bounds is window
    assert window == single.bounds  # the same episodes widen both windows alike


def test_run_episode_deterministic_cold_start(tri_scenario):
    # zero-initialized head gives probs 0.5 which the threshold maps to
    # "place everywhere": all traffic serves locally, zero delay
    agent = _agent(tri_scenario, [tri_scenario.workload])
    env = PlacementEnv(tri_scenario, alpha=0.0)
    record = run_episode(agent, env, tri_scenario.workload, deterministic=True)
    assert record.valid and env.invalid_steps == 0
    assert record.total_delay == pytest.approx(0.0)
    assert record.total_cost == pytest.approx(30.0)
    assert sorted(record.placements) == [0, 1]
    assert all(p.all() for p in record.placements.values())


class _ReferenceEnv:
    """The placement step written from the copying oracles.commit and build_state."""

    def __init__(self, scenario, alpha):
        self.scenario = scenario
        self.alpha = alpha
        self.bounds = RewardBounds(c_max=float(scenario.topology.cores.sum()))

    def reset(self, workload):
        self.workload = workload
        t_upper = t_max_bound(self.scenario, workload)
        self.bounds = replace(self.bounds, t_max=max(self.bounds.t_max, t_upper))
        self.state = empty_state(self.scenario.topology)
        self.queue = make_queue(self.scenario, workload)
        return build_state(self.scenario, self.state, workload, self.queue)

    def step(self, action):
        fid = self.queue.pop(0)
        placement = np.asarray(action, dtype=bool)
        row = self.workload[fid]
        memory, cpr = self.scenario.function_memory[fid], self.scenario.cores_per_request[fid]
        state = self.state
        violation = None
        if not placement.any():
            violation = "empty-placement"
        elif np.any(state.available_memory - np.where(placement, memory, 0.0) < -_CORE_TOL):
            violation = "memory"
        else:
            sol = solve_routing(
                RoutingProblem(self.scenario.topology.delays, row, placement,
                               state.available_cores, cpr)
            )
            if not sol.feasible:
                violation = "routing-infeasible"
            else:
                cost = cost_increment(sol.routing, row, cpr)
                state = commit(state, self.scenario, fid, placement, sol.routing, row,
                               sol.objective_delay, cost)
                if np.any(state.available_cores < -_CORE_TOL):
                    violation = "cores"
        if violation is None:
            self.state = state
            reward, self.bounds = normalize_and_reward(
                state.total_delay, state.total_cost, self.bounds, self.alpha
            )
        else:
            reward = PENALTY_REWARD
        observation = build_state(self.scenario, self.state, self.workload, self.queue) \
            if self.queue else None
        return reward, violation, observation


def _equivalence_cases(tri_scenario):
    rng = np.random.default_rng(20261018)
    # one function whose load exceeds the node's cores by 5e-10 relative: routing
    # accepts it within its feasibility tolerance, the core check does not
    overdraft = make_scenario(
        delays=[[0]], cores=[100], memory=[64], fn_memory=[1, 2],
        workload=[[100 * (1 + 5e-10)], [3]],
    )
    scenarios = [tri_scenario, overdraft] + [
        random_scenario(int(rng.integers(2, 6)), int(rng.integers(3, 13)), rng)
        for _ in range(8)
    ] + [random_scenario(int(rng.integers(8, 13)), int(rng.integers(3, 9)), rng) for _ in range(2)]
    contested = np.random.default_rng(20261019)
    return scenarios + [_contested_scenario(n, 7, contested) for n in (5, 6, 9)], rng


def _contested_scenario(n_nodes, n_functions, rng):
    """random_scenario with random non-metric delays and 15% of its cores.

    Routing problems that miss the nearest-host fast path then often fail
    the greedy start's certificate and go to HiGHS, which the metric, roomy
    presets never do.
    """
    scenario = random_scenario(n_nodes, n_functions, rng, name="contested")
    delays = rng.uniform(0.0, 10.0, (n_nodes, n_nodes))
    np.fill_diagonal(delays, 0.0)
    topology = replace(scenario.topology, cores=0.15 * scenario.topology.cores, delays=delays)
    return replace(scenario, topology=topology)


def _snapshot(state):
    """A copy of the episode state a PlacementEnv or oracles.ReferenceState holds."""
    return (state.available_cores.copy(), state.available_memory.copy(),
            {f: p.copy() for f, p in state.placements.items()},
            {f: r.copy() for f, r in state.routes.items()}, state.total_delay, state.total_cost)


def _assert_snapshot(state, snap):
    cores, memory, placements, routes, delay, cost = snap
    np.testing.assert_array_equal(state.available_cores, cores)
    np.testing.assert_array_equal(state.available_memory, memory)
    _assert_dicts_equal(state.placements, placements)
    _assert_dicts_equal(state.routes, routes)
    assert (state.total_delay, state.total_cost) == (delay, cost)


def _assert_dicts_equal(actual, expected):
    assert sorted(actual) == sorted(expected)
    for key, value in expected.items():
        np.testing.assert_array_equal(actual[key], value)


def test_step_matches_commit_and_build_state_reference(tri_scenario, monkeypatch):
    """PlacementEnv.step against the copying reference, then LockstepEnv.step
    on all of a scenario's episodes at once against PlacementEnv.step."""
    fallbacks = count_highs_fallbacks(monkeypatch)
    scenarios, rng = _equivalence_cases(tri_scenario)
    seen = set()
    for scenario in scenarios:
        alpha = float(rng.choice([0.0, 0.5, 1.0]))
        env = PlacementEnv(scenario, alpha)
        ref = _ReferenceEnv(scenario, alpha)
        episodes = []  # (workload, first state, [(action, reward, PlacementEnv step record)])
        for episode in range(6):
            workload = scenario.workload * (rng.choice([0.5, 3.0]) if episode % 2 else 1.0)
            state = env.reset(workload)
            np.testing.assert_array_equal(state, ref.reset(workload))
            episodes.append((workload, state, []))
            done = False
            while not done:
                action = rng.random(scenario.n_nodes) < rng.choice([0.0, 0.3, 0.7, 1.0])
                reward, violation, ref_state = ref.step(action)
                before = _snapshot(env)
                out = env.step(action)
                assert (out.reward, out.violation, out.valid) == (
                    reward, violation, violation is None
                )
                if violation is not None:
                    seen.add(violation)
                    _assert_snapshot(env, before)  # an invalid step changes nothing
                _assert_snapshot(env, _snapshot(ref.state))
                assert env.bounds == ref.bounds
                done = out.done
                if done:
                    assert ref_state is None and out.state is None
                else:
                    np.testing.assert_array_equal(out.state, ref_state)
                routing = None if violation else env.routes[out.function_id]
                episodes[-1][2].append((action, out.reward, out.violation, _snapshot(env),
                                        routing, out.state))
        before = len(fallbacks)
        _assert_lockstep_matches(scenario, alpha, episodes, env.bounds)
        if scenario.name == "contested":
            assert len(fallbacks) > before  # LockstepEnv's own slow slots went to HiGHS
    assert seen == {"empty-placement", "memory", "cores", "routing-infeasible"}


def _assert_lockstep_matches(scenario, alpha, episodes, bounds):
    """LockstepEnv, one slot per episode, repeats PlacementEnv's steps bit for bit,
    and its window's rewards and bounds are those of the one PlacementEnv that
    ran the episodes in slot order."""
    env = LockstepEnv(scenario, alpha)
    states = env.reset([workload for workload, _, _ in episodes])
    np.testing.assert_array_equal(states, [state for _, state, _ in episodes])
    n = scenario.n_nodes
    for k in range(scenario.n_functions):
        with pytest.raises(RuntimeError, match="finished window"):
            env.rewards()
        codes, states = env.step(np.array([steps[k][0] for _, _, steps in episodes]))
        for e, (_, _, steps) in enumerate(episodes):
            _, _, violation, (cores, memory, _, _, delay, cost), routing, state = steps[k]
            assert codes[e] == (0 if violation is None else VIOLATIONS.index(violation) + 1)
            np.testing.assert_array_equal(env.available_cores[e], cores)
            np.testing.assert_array_equal(env.available_memory[e], memory)
            assert (env.total_delay[e], env.total_cost[e]) == (delay, cost)
            np.testing.assert_array_equal(
                env.routing[e], np.zeros((n, n)) if routing is None else routing
            )
            if state is None:
                assert states is None
            else:
                np.testing.assert_array_equal(states[e], state)
    with pytest.raises(RuntimeError, match="reset"):
        env.step(np.ones((len(episodes), n), dtype=bool))
    rewards = env.rewards()
    for e, (_, _, steps) in enumerate(episodes):
        assert rewards[e].tolist() == [reward for _, reward, *_ in steps]
    assert env.bounds == bounds
    with pytest.raises(RuntimeError, match="once"):
        env.rewards()


def test_episode_record_survives_later_episodes(tri_scenario):
    agent = _agent(tri_scenario, [tri_scenario.workload])
    # a policy whose decisions change with the state, so later episodes place differently
    agent.net.set_params(np.random.default_rng(9).normal(size=agent.net.n_params))
    env = PlacementEnv(tri_scenario, alpha=0.0)
    record = run_episode(agent, env, tri_scenario.workload)
    placements = {f: p.copy() for f, p in record.placements.items()}
    routes = {f: r.copy() for f, r in record.routes.items()}
    assert placements
    later = [run_episode(agent, env, tri_scenario.workload * s) for s in (0.5, 2.0)]
    assert any(not np.array_equal(r.placements[1], placements[1]) for r in later)
    _assert_dicts_equal(record.placements, placements)
    _assert_dicts_equal(record.routes, routes)


def test_run_episode_is_deterministic_only(tri_scenario):
    agent = _agent(tri_scenario, [tri_scenario.workload])
    with pytest.raises(ValueError, match="deterministic"):
        run_episode(agent, PlacementEnv(tri_scenario, 0.0), tri_scenario.workload,
                    deterministic=False)


@pytest.mark.parametrize("preset", PRESETS)
def test_placement_steps_route_through_the_traced_solve_routing(preset, monkeypatch):
    """Every PlacementEnv step that passes the empty-placement and memory checks
    makes one edgeplace.env.solve_routing call on a RoutingProblem of that step's
    arrays: the name perfbench's tracer wraps, and the problem its
    nearest_host_fits hook reads. Checked on run_episode's steps and on random
    actions."""
    calls = []

    def recording(problem):
        solution = solve_routing(problem)
        calls.append((problem, solution))
        return solution

    monkeypatch.setattr(env_module, "solve_routing", recording)
    scenario = build_preset(preset)
    snapshots = generate_workloads(scenario.n_functions, scenario.n_nodes,
                                   preset_workload_config(preset, 4), rng_stream(5, "traced"))
    agent = _agent(scenario, snapshots)
    agent.net.set_params(np.random.default_rng(3).normal(size=agent.net.n_params))
    env = PlacementEnv(scenario, alpha=0.0)
    step = env.step
    steps = []  # (action, cores before the step, workload row, outcome, routing calls)

    def traced_step(action):
        cores, fid, before = env.available_cores, env.queue[0], len(calls)
        row = env.workload[fid]
        outcome = step(action)
        steps.append((action, cores, row, outcome, calls[before:]))
        return outcome

    env.step = traced_step  # run_episode calls the instance's step
    for snapshot in snapshots:
        run_episode(agent, env, snapshot)
    agent_steps = len(steps)
    rng = np.random.default_rng(11)
    for snapshot in snapshots:
        env.reset(snapshot * rng.choice([1.0, 3.0]))
        for _ in range(scenario.n_functions):
            traced_step(rng.random(scenario.n_nodes) < rng.choice([0.0, 0.3, 0.7, 1.0]))
    assert len(calls) == sum(len(routed) for *_, routed in steps)
    assert any(outcome.violation is None for *_, outcome, _ in steps[:agent_steps])
    seen = set()
    for action, cores, row, outcome, routed in steps:
        seen.add(outcome.violation)
        if outcome.violation in ("empty-placement", "memory"):
            assert routed == []
            continue
        [(problem, solution)] = routed
        assert type(problem) is RoutingProblem
        assert problem.delays is scenario.topology.delays
        np.testing.assert_array_equal(problem.workload_row, row)
        np.testing.assert_array_equal(problem.placement, np.asarray(action, dtype=bool))
        assert problem.available_cores is cores
        np.testing.assert_array_equal(problem.cores_per_request,
                                      scenario.cores_per_request[outcome.function_id])
        assert solution.feasible == (outcome.violation != "routing-infeasible")
        again = replace(problem, available_cores=cores.copy())
        assert type(again) is RoutingProblem and again.placement is problem.placement
        assert solve_routing(again).feasible == solution.feasible
    assert {None, "empty-placement", "memory", "routing-infeasible"} <= seen
