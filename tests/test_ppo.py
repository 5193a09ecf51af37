from __future__ import annotations

import re

import numpy as np
import pytest

from edgeplace.nn import MLP, Adam, PolicyArchitectureError
from edgeplace.ppo import (
    PolicyAgent,
    PPOConfig,
    Trajectory,
    _sigmoid,
    compute_gae,
    deterministic_action,
    deterministic_action_from_logits,
    forward,
    load_policy,
    log_prob_from_logits,
    ppo_loss_and_grad,
    ppo_update,
    sample_actions,
    save_policy,
)

from edgeplace import bench
from edgeplace.env import LockstepEnv, RewardBounds, build_state_scale, state_dim
from edgeplace.scenarios import PRESETS, build_preset, preset_workload_config
from edgeplace.util import rng_stream
from edgeplace.workload import generate_workloads

from oracles import AdamReference, finite_difference_grad, gae_reference, ppo_update_reference


def _traj(rewards, values, episode_steps, n_actions=2):
    rng = np.random.default_rng(0)
    t_len = len(rewards)
    return Trajectory(
        states=rng.normal(size=(t_len, 3)),
        actions=rng.random((t_len, n_actions)) < 0.5,
        log_probs=np.full(t_len, -1.0),
        values=np.asarray(values, dtype=float),
        rewards=np.asarray(rewards, dtype=float),
        episode_steps=episode_steps,
    )


def test_forward_probabilities_and_value():
    net = MLP(3, 4, hidden=(6,), rng=np.random.default_rng(0))
    probs, value = forward(net, np.array([0.2, -0.1, 0.5]))
    np.testing.assert_allclose(probs, 0.5 * np.ones(4))  # zero head
    assert value == 0.0


def test_sample_action_log_prob_uniform():
    rng = np.random.default_rng(1)
    uniforms = rng.random((3, 5))
    actions, lp = sample_actions(np.zeros((3, 5)), uniforms)  # every probability 0.5
    np.testing.assert_array_equal(actions, uniforms < 0.5)
    np.testing.assert_allclose(lp, 5 * np.log(0.5), rtol=1e-15)


def test_sample_action_certain_probs():
    rng = np.random.default_rng(2)
    actions, lp = sample_actions(np.full((2, 4), 50.0), rng.random((2, 4)))  # sigmoid is 1.0
    assert actions.all()
    np.testing.assert_array_equal(lp, [0.0, 0.0])


def test_sample_actions_log_prob_matches_logits():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(7, 5))
    actions, lp = sample_actions(logits, rng.random((7, 5)))
    np.testing.assert_allclose(lp, log_prob_from_logits(logits, actions), rtol=1e-12)


def test_deterministic_action_threshold():
    probs = np.array([0.49, 0.5, 0.51])
    np.testing.assert_array_equal(deterministic_action(probs), [False, True, True])


def test_action_from_logits_matches_the_probability_threshold():
    """The logit rule picks the nodes whose sigmoid is >= 0.5, bit for bit.

    The sigmoid rounds to exactly 0.5 from z = -2**-53 up, where tanh(z / 2)
    is z / 2 = -2**-54; the sweep takes every float within 200,000 steps of
    that point, and the specials and a spread of ordinary logits ride along.
    """
    switch = np.array([-(2.0**-53)]).view(np.int64)
    sweep = (switch + np.arange(-200_000, 200_000)).view(np.float64)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 2.0**-1074, -(2.0**-1074)])
    spread = np.random.default_rng(0).normal(scale=40.0, size=100_000)
    for logits in (sweep, specials, spread):
        expected = deterministic_action(_sigmoid(logits))
        np.testing.assert_array_equal(deterministic_action_from_logits(logits), expected)
    decided = deterministic_action_from_logits(sweep)
    assert decided.any() and not decided.all()
    np.testing.assert_array_equal(deterministic_action_from_logits(specials),
                                  [True, True, True, False, False, False, True, True])


def test_log_prob_from_logits_matches_direct():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 4))
    actions = rng.random((6, 4)) < 0.5
    p = 1.0 / (1.0 + np.exp(-logits))
    direct = np.sum(np.log(np.where(actions, p, 1 - p)), axis=1)
    np.testing.assert_allclose(log_prob_from_logits(logits, actions), direct, rtol=1e-12)


def test_gae_single_step_episode():
    t = _traj([2.5], [0.7], 1)
    adv, ret = compute_gae(t, gamma=0.99, lam=0.95)
    assert adv[0] == pytest.approx(2.5 - 0.7)  # advantage = reward - value
    assert ret[0] == pytest.approx(2.5)


def test_gae_matches_reference_recursion():
    rng = np.random.default_rng(5)
    rewards = rng.normal(size=12)
    values = rng.normal(size=12)
    dones = [False, False, True] * 4
    t = _traj(rewards, values, 3)
    adv, ret = compute_gae(t, gamma=0.9, lam=0.8)
    expected = gae_reference(rewards, values, dones, 0.9, 0.8)
    np.testing.assert_allclose(adv, expected, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(ret, expected + values, rtol=1e-10, atol=1e-12)


def _grad_check_batch(rng, net, b=6, margin=0.3):
    """Batch whose ratios sit safely away from the clip boundary so the
    analytic gradient is differentiable at the test point."""
    n = net.n_actions
    states = rng.normal(size=(b, net.input_dim))
    actions = rng.random((b, n)) < 0.5
    logits, _ = net.forward(states)
    lp = log_prob_from_logits(logits, actions)
    # offsets keep every ratio inside (1-eps+margin*eps, 1+eps-margin*eps)
    eps = 0.2
    lo = np.log(1 - eps * (1 - margin))
    hi = np.log(1 + eps * (1 - margin))
    old_lp = lp - rng.uniform(lo, hi, size=b)
    adv = rng.normal(size=b)
    adv[np.abs(adv) < 0.1] = 0.5  # keep advantages clear of zero
    returns = rng.normal(size=b)
    return {
        "states": states,
        "actions": actions,
        "old_log_probs": old_lp,
        "advantages": adv,
        "returns": returns,
    }


def test_ppo_gradient_matches_finite_differences():
    cfg = PPOConfig()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(5):
        net = MLP(3, 2, hidden=(4,), rng=rng)
        params = net.get_params() + rng.normal(scale=0.4, size=net.n_params)
        net.set_params(params)
        batch = _grad_check_batch(rng, net)
        _, grad = ppo_loss_and_grad(net, batch, cfg)

        def loss_at(flat):
            probe = MLP(3, 2, hidden=(4,))
            probe.set_params(flat)
            stats, _ = ppo_loss_and_grad(probe, batch, cfg)
            return stats["loss"]

        fd = finite_difference_grad(loss_at, net.get_params())
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-4)
        worst = max(worst, float(np.max(np.abs(grad - fd) / denom)))
    assert worst <= 1e-4


def test_update_is_noop_at_equilibrium():
    # zero advantages, perfect value targets, no entropy pressure
    cfg = PPOConfig(entropy_coef=0.0, epochs=1, minibatch_size=8)
    net = MLP(3, 2, hidden=(4,), rng=np.random.default_rng(8))
    params = net.get_params() + 0.3
    net.set_params(params.copy())
    rng = np.random.default_rng(9)
    states = rng.normal(size=(8, 3))
    logits, values = net.forward(states)
    actions = rng.random((8, 2)) < 0.5
    batch = {
        "states": states,
        "actions": actions,
        "old_log_probs": log_prob_from_logits(logits, actions),
        "advantages": np.zeros(8),
        "returns": values.copy(),
    }
    _, grad = ppo_loss_and_grad(net, batch, cfg)
    np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-12)


def test_ppo_update_improves_simple_preference():
    # one state, reward favors action bit 0 on and bit 1 off
    cfg = PPOConfig(update_interval=128, minibatch_size=32)
    net = MLP(2, 2, hidden=(8,), rng=np.random.default_rng(10))
    opt = Adam(lr=cfg.learning_rate)
    rng = np.random.default_rng(11)
    state = np.array([1.0, -1.0])
    states = np.tile(state, (cfg.update_interval, 1))
    for _ in range(30):
        logits, values = net.forward(states)
        a, lp = sample_actions(logits, rng.random(logits.shape))
        r = np.where(a[:, 0], 1.0, -1.0) + np.where(a[:, 1], -1.0, 1.0)
        t = Trajectory(states=states, actions=a, log_probs=lp, values=values, rewards=r,
                       episode_steps=1)
        ppo_update(net, t, cfg, opt, rng)
    probs, _ = forward(net, state)
    assert probs[0] > 0.9 and probs[1] < 0.1


@pytest.mark.parametrize("preset, episodes", [
    *(pytest.param(preset, None, id=preset) for preset in PRESETS),
    pytest.param("large-payload", 1, id="large-payload-short-window"),
])
def test_ppo_update_matches_per_minibatch_reference(preset, episodes):
    """Two updates on rollouts of the preset equal the plain reference bit for bit.

    The default config cuts small-payload's 256-step window into even
    minibatches and large-payload's 260-step window into a ragged last one.
    One large-payload episode is a 10-step window, shorter than one
    minibatch, which the update's workspace is sized to.
    """
    scenario = build_preset(preset)
    cfg = PPOConfig()
    snapshots = generate_workloads(scenario.n_functions, scenario.n_nodes,
                                   preset_workload_config(preset, 4), rng_stream(1, "workload"))
    net = MLP(state_dim(scenario.n_nodes), scenario.n_nodes, hidden=cfg.hidden,
              rng=np.random.default_rng(3))
    agent = PolicyAgent(net=net, state_scale=build_state_scale(scenario, snapshots))
    env = LockstepEnv(scenario)
    bounds = RewardBounds(c_max=scenario.topology.total_cores)
    window = episodes or -(-cfg.update_interval // scenario.n_functions)
    rollout_rng = np.random.default_rng(4)
    trajectories = []
    for offset in range(2):
        workloads = [snapshots[(offset + e) % len(snapshots)] for e in range(window)]
        trajectory = bench._rollout_window(agent, env, workloads, rollout_rng, bounds, 0.0)
        trajectories.append(trajectory)
    reference_net = MLP(net.input_dim, net.n_actions, hidden=cfg.hidden)
    reference_net.set_params(net.params)
    opt, reference_opt = Adam(lr=cfg.learning_rate), AdamReference(lr=cfg.learning_rate)
    rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
    for trajectory in trajectories:
        diag = ppo_update(net, trajectory, cfg, opt, rng)
        expected = ppo_update_reference(reference_net, trajectory, cfg, reference_opt,
                                        reference_rng)
        assert diag == expected
        assert net.params.tobytes() == reference_net.params.tobytes()
        assert opt.m.tobytes() == reference_opt.m.tobytes()
        assert opt.v.tobytes() == reference_opt.v.tobytes()
        assert opt.t == reference_opt.t
    assert opt.t == 2 * cfg.epochs * -(-len(trajectories[0]) // cfg.minibatch_size)
    assert episodes is None or len(trajectories[0]) < cfg.minibatch_size
    assert set(diag) == {"policy_loss", "value_loss", "entropy", "clip_fraction", "approx_kl",
                         "loss", "mean_reward"}


@pytest.mark.parametrize(
    "field, value, cause",
    [
        ("minibatch_size", 0, "ppo.minibatch_size is 0, not an integer in 1..2147483647"),
        ("update_interval", 0, "ppo.update_interval is 0, not an integer in 1..2147483647"),
        ("epochs", 0, "ppo.epochs is 0, not an integer in 1..2147483647"),
        ("epochs", 2.5, "ppo.epochs is 2.5, not an integer in 1..2147483647"),
        ("hidden", (0,), "ppo.hidden[0] is 0, not an integer in 1..2147483647"),
        ("learning_rate", float("nan"), "ppo.learning_rate is nan, not a number in (0, inf)"),
        ("clip_ratio", -1, "ppo.clip_ratio is -1, not a number in (0, inf)"),
        ("gamma", 2, "ppo.gamma is 2, not a number in [0, 1]"),
    ],
    ids=["minibatch-size-0", "update-interval-0", "epochs-0", "epochs-fractional", "hidden-0",
         "learning-rate-nan", "clip-ratio-negative", "gamma-above-1"],
)
def test_ppo_config_outside_the_contract_is_refused(field, value, cause):
    with pytest.raises(ValueError, match=re.escape(cause)):
        PPOConfig(**{field: value})


def test_checkpoint_round_trip(tmp_path):
    net = MLP(4, 3, hidden=(5,), rng=np.random.default_rng(12))
    net.set_params(net.get_params() + 0.1)
    agent = PolicyAgent(net=net, state_scale=np.array([1.0, 2.0, 4.0, 8.0]))
    path = tmp_path / "policy.json"
    save_policy(str(path), agent, extras={"alpha": 0.5})
    loaded = load_policy(str(path), expect_input_dim=4, expect_n_actions=3)
    np.testing.assert_array_equal(loaded.agent.net.params, net.params)
    np.testing.assert_array_equal(loaded.agent.state_scale, agent.state_scale)
    assert loaded.extras["alpha"] == 0.5
    # byte-identical re-save
    path2 = tmp_path / "policy2.json"
    save_policy(str(path2), loaded.agent, extras={"alpha": 0.5})
    assert path.read_bytes() == path2.read_bytes()


def test_save_policy_refuses_non_finite_params(tmp_path):
    net = MLP(4, 3, hidden=(5,), rng=np.random.default_rng(15))
    net.params[7] = np.nan
    agent = PolicyAgent(net=net, state_scale=np.ones(4))
    path = tmp_path / "policy.json"
    with pytest.raises(PolicyArchitectureError, match="not all finite"):
        save_policy(str(path), agent)
    assert not path.exists()


def test_checkpoint_dimension_mismatch(tmp_path):
    net = MLP(4, 3, hidden=(5,), rng=np.random.default_rng(13))
    agent = PolicyAgent(net=net, state_scale=np.ones(4))
    path = tmp_path / "p.json"
    save_policy(str(path), agent)
    with pytest.raises(PolicyArchitectureError, match="input_dim"):
        load_policy(str(path), expect_input_dim=9)
    with pytest.raises(PolicyArchitectureError, match="n_actions"):
        load_policy(str(path), expect_input_dim=4, expect_n_actions=2)


def test_checkpoint_schema_version_checked(tmp_path):
    net = MLP(2, 2, hidden=(3,), rng=np.random.default_rng(14))
    agent = PolicyAgent(net=net, state_scale=np.ones(2))
    path = tmp_path / "p.json"
    save_policy(str(path), agent)
    doc = path.read_text().replace('"schema_version": 1', '"schema_version": 99')
    path.write_text(doc)
    with pytest.raises(PolicyArchitectureError, match="schema_version"):
        load_policy(str(path))
