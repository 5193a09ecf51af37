"""Clipped-surrogate PPO for multi-binary placement actions, in plain numpy.

The policy emits one Bernoulli per node; the joint action log-probability is
the sum over nodes. Gradients of the full objective (clipped surrogate +
value MSE - entropy bonus) are computed analytically and verified against
finite differences in the tests, so every sign here is load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contract import CHECKPOINT, CONFIG, conform
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

    def __post_init__(self) -> None:
        """A field outside contract.CONFIG["ppo"] is a ValueError naming it, as ppo.<field>."""
        conform(vars(self), CONFIG["ppo"], "ppo")


# --------------------------------------------------------------------------
# policy wrapper and action interface
# --------------------------------------------------------------------------


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (1 + tanh(0.5 * z)), built in place in out, or in a new array."""
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


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


def deterministic_action_from_logits(logits: np.ndarray) -> np.ndarray:
    """deterministic_action(_sigmoid(logits)) bit for bit, without the probabilities.

    _sigmoid(z) >= 0.5 is fl(1 + t) >= 1 for t = tanh(z / 2), since halving
    is exact, and that holds exactly when t >= -2**-54: 1 - 2**-54 lies
    halfway between 1 - 2**-53 and 1 and rounds to the even 1.0, anything
    below it to 1 - 2**-53. A NaN logit fails both tests. This skips the
    sigmoid's add and multiply.
    """
    return np.tanh(logits * 0.5) >= -(2.0**-54)


def log_prob_from_logits(logits: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Joint log-prob per row; log p(a) = sum_i a_i z_i - softplus(z_i).

    actions are 0/1 floats, or bools, which the product casts to them.
    """
    return np.add.reduce(actions * logits - _softplus(logits), axis=1)


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


def ppo_loss_and_grad(net: MLP, batch: dict, config: PPOConfig):
    """Analytic loss and flat parameter gradient for one minibatch.

    batch: states (B,D), actions (B,N) as 0/1 floats, old_log_probs (B,),
    advantages (B,) (already normalized), returns (B,). Returns (stats dict,
    grad vector), the gradient a new array.
    """
    states = batch["states"]
    return _loss_and_grad(
        net, states, batch["actions"], batch["old_log_probs"], batch["advantages"],
        batch["returns"], config, True, net.workspace(len(states)),
    )


def _loss_and_grad(net, states, actions, old_lp, adv, rets, config, with_stats, workspace):
    """ppo_loss_and_grad on the minibatch's columns, with the network's arrays in workspace
    (an nn.Workspace) and the loss head's made afresh; with_stats=False skips the loss and
    its diagnostics and returns None for the stats, with the same gradient."""
    b = states.shape[0]
    eps = config.clip_ratio
    stats: dict = {}

    def d_out(head_logits, values):
        # head_logits is a column slice of the head output; elementwise work is faster on a copy
        logits = head_logits.copy()
        probs = _sigmoid(logits)
        new_lp = log_prob_from_logits(logits, actions)
        ratio = np.exp(new_lp - old_lp)
        # gradient flows only where the unclipped branch attains the min
        active = np.where(adv >= 0.0, ratio <= 1.0 + eps, ratio >= 1.0 - eps)
        # d_logits = -(active * ratio * adv)[:, None] * (actions - probs) / b
        #            + entropy_coef * (logits * probs * (1 - probs)) / b,
        # in that operation order, built in place in a contiguous array and
        # copied into d_head once: on d_head's strided columns each step is slower
        weight = active * ratio
        weight *= adv
        np.negative(weight, out=weight)
        d_logits = actions - probs
        d_logits *= weight[:, None]
        d_logits /= b
        entropy_grad = logits * probs
        entropy_grad *= 1.0 - probs
        entropy_grad *= config.entropy_coef
        entropy_grad /= b
        d_logits += entropy_grad
        v_err = values - rets
        d_head = np.empty((b, net.n_actions + 1))
        d_head[:, :-1] = d_logits
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

    _, _, grad = net.forward_backward(states, d_out, workspace)
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

    Each epoch gathers each of the trajectory's columns once, in a fresh
    shuffled order, and cuts minibatch k as rows k*size to (k+1)*size of
    those gathered arrays, so the last one is ragged when size does not
    divide the window. The update owns one network workspace, sized for
    min(size, window) rows: every minibatch's activations, deltas and
    gradient are written into it (a ragged one into its leading rows), and
    it is dropped when the update returns; the loss head's arrays are made
    per minibatch. Returns the loss diagnostics of the last minibatch of the
    last epoch, the only one they are computed for, plus the window's mean
    reward.
    """
    adv_raw, returns = compute_gae(trajectory, config.gamma, config.gae_lambda)
    adv = (adv_raw - adv_raw.mean()) / (adv_raw.std() + 1e-8)
    t_len = len(trajectory)
    size = config.minibatch_size
    columns = (
        trajectory.states,
        trajectory.actions.astype(float),
        trajectory.log_probs,
        adv,
        returns,
    )
    workspace = net.workspace(min(size, t_len))
    diag: dict = {}
    for epoch in range(config.epochs):
        perm = rng.permutation(t_len)
        states, actions, old_lp, advantages, rets = (column[perm] for column in columns)
        for start in range(0, t_len, size):
            stop = start + size
            last = epoch == config.epochs - 1 and stop >= t_len
            stats, grad = _loss_and_grad(
                net, states[start:stop], actions[start:stop], old_lp[start:stop],
                advantages[start:stop], rets[start:stop], config, last, workspace,
            )
            optimizer.step(net.params, grad)
            if last:
                diag = stats
    diag["mean_reward"] = float(np.mean(trajectory.rewards))
    return diag


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------


def save_policy(path: str, agent: PolicyAgent, extras: dict | None = None) -> None:
    """Write a checkpoint load_policy reads back; params that are not all finite,
    as a diverged training leaves them, are a PolicyArchitectureError and write nothing."""
    if not np.isfinite(agent.net.params).all():
        raise PolicyArchitectureError(
            f"refusing to save policy {path}: params are not all finite (training diverged)"
        )
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
    doc = load_json(path, PolicyArchitectureError, "policy")
    try:
        return _checkpoint_from_doc(doc, expect_input_dim, expect_n_actions)
    except KeyError as exc:
        raise PolicyArchitectureError(f"policy {path} lacks key {exc}") from exc
    except PolicyArchitectureError:
        raise
    except (TypeError, ValueError) as exc:  # non-numbers, ragged arrays, bad field types
        raise PolicyArchitectureError(f"policy {path} is malformed: {exc}") from exc


def _checkpoint_from_doc(
    doc: dict, expect_input_dim: int | None, expect_n_actions: int | None
) -> PolicyCheckpoint:
    version = doc.get("schema_version")
    if version != POLICY_SCHEMA_VERSION:
        raise PolicyArchitectureError(f"unsupported policy schema_version {version}")
    conform(doc, CHECKPOINT, "")  # a ValueError, which load_policy reports as malformed
    arch = doc["arch"]
    input_dim, n_actions, hidden = arch["input_dim"], arch["n_actions"], arch["hidden"]
    if expect_input_dim is not None and input_dim != expect_input_dim:
        raise PolicyArchitectureError(
            f"policy expects input_dim {input_dim}, scenario needs {expect_input_dim}"
        )
    if expect_n_actions is not None and n_actions != expect_n_actions:
        raise PolicyArchitectureError(
            f"policy expects n_actions {n_actions}, scenario needs {expect_n_actions}"
        )
    params = np.array(doc["params"], dtype=float)
    n_params = sum(a * b + b for a, b in layer_shapes(input_dim, n_actions, hidden))
    if params.shape != (n_params,):  # checked before MLP allocates the declared layers
        raise PolicyArchitectureError(
            f"params have shape {params.shape}, arch (input_dim {input_dim}, n_actions "
            f"{n_actions}, hidden {hidden}) needs ({n_params},)"
        )
    net = MLP(input_dim, n_actions, hidden=tuple(hidden))
    net.set_params(params)
    scale = np.array(doc["state_scale"], dtype=float)
    if scale.shape != (net.input_dim,):
        raise PolicyArchitectureError("state_scale length does not match input_dim")
    return PolicyCheckpoint(
        agent=PolicyAgent(net=net, state_scale=scale), extras=doc.get("extras", {})
    )
