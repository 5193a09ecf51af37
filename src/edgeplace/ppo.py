"""Clipped-surrogate PPO for multi-binary placement actions, in plain numpy.

The policy emits one Bernoulli per node; the joint action log-probability is
the sum over nodes. Gradients of the full objective (clipped surrogate +
value MSE - entropy bonus) are computed analytically and verified against
finite differences in the tests, so every sign here is load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .nn import MLP, Adam, PolicyArchitectureError, layer_shapes
from .util import dump_json, load_json

POLICY_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PPOConfig:
    learning_rate: float = 3e-4
    clip_ratio: float = 0.2
    gamma: float = 0.99
    gae_lambda: float = 0.95
    epochs: int = 10
    minibatch_size: int = 64
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    update_interval: int = 256  # env steps collected per update
    hidden: tuple[int, ...] = (64, 64)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["hidden"] = list(self.hidden)
        return doc


# --------------------------------------------------------------------------
# policy wrapper and action interface
# --------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


@dataclass
class PolicyAgent:
    """Network plus the fixed per-component state scaling it was trained with."""

    net: MLP
    state_scale: np.ndarray  # positive, same length as the state vector


def forward(net: MLP, state: np.ndarray):
    """Per-node activation probabilities and state value for one raw state."""
    logits, values = net.forward(state)
    return _sigmoid(logits[0]), float(values[0])


def sample_actions(logits: np.ndarray, uniforms: np.ndarray):
    """Draw multi-binary actions for a batch of logit rows from pre-drawn uniforms.

    Node i of row b is active when uniforms[b, i] < sigmoid(logits[b, i]).
    Returns (bool actions, joint log-prob per row).
    """
    probs = _sigmoid(logits)
    actions = uniforms < probs
    picked = np.where(actions, probs, 1.0 - probs)
    return actions, np.sum(np.log(np.maximum(picked, 1e-300)), axis=1)


def deterministic_action(probs: np.ndarray) -> np.ndarray:
    """Evaluation-mode action: activate every node with probability >= 0.5."""
    return np.asarray(probs, dtype=float) >= 0.5


def log_prob_from_logits(logits: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Joint log-prob per row; log p(a) = sum_i a_i z_i - softplus(z_i).

    actions are 0/1 floats, or bools, which the product casts to them.
    """
    return np.sum(actions * logits - _softplus(logits), axis=1)


# --------------------------------------------------------------------------
# trajectories and advantage estimation
# --------------------------------------------------------------------------


@dataclass
class Trajectory:
    """One update window's transitions in rollout order, one row per step."""

    states: np.ndarray  # (T, D) the net inputs
    actions: np.ndarray  # (T, N) bool
    log_probs: np.ndarray  # (T,) joint log-prob of each action when it was drawn
    values: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,)
    episode_steps: int  # F: the T rows are T / F whole episodes, each ending at its last row

    def __len__(self) -> int:
        return len(self.rewards)


def compute_gae(trajectory: Trajectory, gamma: float, lam: float):
    """Generalized advantage estimation over whole episodes of F steps each.

    The recursion runs backwards over the F steps of all T / F episodes at
    once, and each episode's last step bootstraps from 0. Returns raw
    advantages and value targets (advantage + value); batch normalization is
    the updater's job so a single transition keeps the textbook identity
    advantage = reward - value.
    """
    steps = trajectory.episode_steps
    rewards = trajectory.rewards.reshape(-1, steps)
    values = trajectory.values.reshape(-1, steps)
    advantages = np.empty_like(rewards)
    next_adv = next_value = 0.0
    for t in range(steps - 1, -1, -1):
        delta = rewards[:, t] + gamma * next_value - values[:, t]
        next_adv = delta + gamma * lam * next_adv
        advantages[:, t] = next_adv
        next_value = values[:, t]
    return advantages.ravel(), (advantages + values).ravel()


# --------------------------------------------------------------------------
# loss, gradient, update
# --------------------------------------------------------------------------


def ppo_loss_and_grad(net: MLP, batch: dict, config: PPOConfig, with_stats: bool = True):
    """Analytic loss and flat parameter gradient for one minibatch.

    batch: states (B,D), actions (B,N) as 0/1 floats, old_log_probs (B,),
    advantages (B,) (already normalized), returns (B,). Returns (stats dict,
    grad vector); with_stats=False skips the loss and its diagnostics and
    returns None for the stats, with the same gradient.
    """
    states = batch["states"]
    actions = batch["actions"]
    old_lp = batch["old_log_probs"]
    adv = batch["advantages"]
    rets = batch["returns"]
    b = states.shape[0]
    eps = config.clip_ratio
    stats: dict = {}

    def d_out(logits, values):
        probs = _sigmoid(logits)
        new_lp = log_prob_from_logits(logits, actions)
        ratio = np.exp(new_lp - old_lp)
        # gradient flows only where the unclipped branch attains the min
        active = np.where(adv >= 0.0, ratio <= 1.0 + eps, ratio >= 1.0 - eps)
        d_head = np.empty((b, logits.shape[1] + 1))
        d_logits = d_head[:, :-1]
        np.multiply(-(active * ratio * adv)[:, None], actions - probs, out=d_logits)
        d_logits /= b
        d_logits += config.entropy_coef * (logits * probs * (1.0 - probs)) / b
        v_err = values - rets
        d_head[:, -1] = config.value_coef * 2.0 * v_err / b
        if with_stats:
            clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps)
            surr = np.minimum(ratio * adv, clipped * adv)
            ent = _softplus(logits) - probs * logits
            stats["policy_loss"] = float(-np.mean(surr))
            stats["value_loss"] = float(np.mean(v_err**2))
            stats["entropy"] = float(np.mean(np.sum(ent, axis=1)))
            stats["clip_fraction"] = float(np.mean(np.abs(ratio - 1.0) > eps))
            stats["approx_kl"] = float(np.mean(old_lp - new_lp))
        return d_head

    _, _, grad = net.forward_backward(states, d_out)
    if not with_stats:
        return None, grad
    stats["loss"] = (
        stats["policy_loss"]
        + config.value_coef * stats["value_loss"]
        - config.entropy_coef * stats["entropy"]
    )
    return stats, grad


def ppo_update(
    net: MLP,
    trajectory: Trajectory,
    config: PPOConfig,
    optimizer: Adam,
    rng: np.random.Generator,
) -> dict:
    """Multi-epoch minibatch PPO update in place.

    Each epoch gathers the trajectory's columns once in a fresh shuffled
    order and cuts its minibatches from them. Returns the loss diagnostics of
    the last minibatch of the last epoch, the only one they are computed
    for, plus the window's mean reward.
    """
    adv_raw, returns = compute_gae(trajectory, config.gamma, config.gae_lambda)
    adv = (adv_raw - adv_raw.mean()) / (adv_raw.std() + 1e-8)
    t_len = len(trajectory)
    size = config.minibatch_size
    columns = {
        "states": trajectory.states,
        "actions": trajectory.actions.astype(float),
        "old_log_probs": trajectory.log_probs,
        "advantages": adv,
        "returns": returns,
    }
    diag: dict = {}
    for epoch in range(config.epochs):
        perm = rng.permutation(t_len)
        shuffled = {key: column[perm] for key, column in columns.items()}
        for start in range(0, t_len, size):
            batch = {key: column[start : start + size] for key, column in shuffled.items()}
            last = epoch == config.epochs - 1 and start + size >= t_len
            stats, grad = ppo_loss_and_grad(net, batch, config, with_stats=last)
            optimizer.step(net.params, grad)
            if last:
                diag = stats
    diag["mean_reward"] = float(np.mean(trajectory.rewards))
    return diag


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------


def save_policy(path: str, agent: PolicyAgent, extras: dict | None = None) -> None:
    doc = {
        "schema_version": POLICY_SCHEMA_VERSION,
        "arch": agent.net.arch_dict(),
        "params": agent.net.params.tolist(),
        "state_scale": agent.state_scale.tolist(),
    }
    if extras:
        doc["extras"] = extras
    dump_json(path, doc)


@dataclass
class PolicyCheckpoint:
    agent: PolicyAgent
    extras: dict


def load_policy(
    path: str, expect_input_dim: int | None = None, expect_n_actions: int | None = None
) -> PolicyCheckpoint:
    """Read a checkpoint; any unreadable or incomplete file is a PolicyArchitectureError."""
    try:
        doc = load_json(path)
    except (OSError, ValueError) as exc:
        raise PolicyArchitectureError(f"cannot read policy {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise PolicyArchitectureError(f"policy {path} is not a JSON object")
    try:
        return _checkpoint_from_doc(doc, expect_input_dim, expect_n_actions)
    except KeyError as exc:
        raise PolicyArchitectureError(f"policy {path} lacks key {exc}") from exc
    except PolicyArchitectureError:
        raise
    except (TypeError, ValueError) as exc:  # non-numeric or ragged arrays, bad field types
        raise PolicyArchitectureError(f"policy {path} is malformed: {exc}") from exc


def _checkpoint_from_doc(
    doc: dict, expect_input_dim: int | None, expect_n_actions: int | None
) -> PolicyCheckpoint:
    version = doc.get("schema_version")
    if version != POLICY_SCHEMA_VERSION:
        raise PolicyArchitectureError(f"unsupported policy schema_version {version}")
    arch = doc["arch"]
    if expect_input_dim is not None and arch["input_dim"] != expect_input_dim:
        raise PolicyArchitectureError(
            f"policy expects input_dim {arch['input_dim']}, scenario needs {expect_input_dim}"
        )
    if expect_n_actions is not None and arch["n_actions"] != expect_n_actions:
        raise PolicyArchitectureError(
            f"policy expects n_actions {arch['n_actions']}, scenario needs {expect_n_actions}"
        )
    params = np.array(doc["params"], dtype=float)
    shapes = layer_shapes(arch["input_dim"], arch["n_actions"], arch["hidden"])
    if min(b for _, b in shapes) < 1:
        raise PolicyArchitectureError(f"arch has a layer narrower than 1: hidden {arch['hidden']}")
    n_params = sum(a * b + b for a, b in shapes)
    if params.shape != (n_params,):  # checked before MLP allocates the declared layers
        raise PolicyArchitectureError(f"params have shape {params.shape}, arch needs ({n_params},)")
    net = MLP(arch["input_dim"], arch["n_actions"], hidden=tuple(arch["hidden"]))
    net.set_params(params)
    if not np.isfinite(net.params).all():
        raise PolicyArchitectureError("params are not all finite")
    scale = np.array(doc["state_scale"], dtype=float)
    if scale.shape != (net.input_dim,):
        raise PolicyArchitectureError("state_scale length does not match input_dim")
    if not (np.isfinite(scale) & (scale > 0.0)).all():
        raise PolicyArchitectureError("state_scale entries are not all finite and positive")
    return PolicyCheckpoint(
        agent=PolicyAgent(net=net, state_scale=scale), extras=doc.get("extras", {})
    )
