"""Minimal dense network with analytic gradients, used by the PPO engine.

Two tanh hidden layers feed a combined linear head: the first n_actions
outputs are Bernoulli logits, the last output is the state value. The final
layer starts at zero so an untrained policy emits probability 0.5 per node
and value 0, which keeps early exploration symmetric.

All parameters live in one flat array, `MLP.params`: per layer the weights
(row-major), then the biases. `weights` and `biases` are views into it, so
`Adam.step` updating `params` in place updates the network, and
`forward_backward` returns the gradient in the same layout.

`forward_backward` writes every array it makes into a `Workspace`: the
hidden activations and the head output (through `np.matmul(..., out=)`),
the backward deltas and the flat gradient, whose per-layer views are made
with the workspace. A workspace for B rows serves any batch of at most B
rows in its leading rows, sliced to the batch on each call. The caller
owns it: `ppo_update` builds one per update and hands it to each
minibatch's call, so the arrays one call returns are overwritten by the
next, and drops it when the update returns. A workspace rebuilt per minibatch cost about 5%
of training steps/s. The PPO loss head's small arrays are not in it: made
per minibatch, they measured flat in training steps/s. Called without one,
`forward_backward` builds a fresh workspace, so its results are new
arrays. The backward pass reuses each hidden activation, once used, as
the buffer for its tanh derivative 1 - a^2. Nothing is kept on the
network between calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class PolicyArchitectureError(ValueError):
    """Checkpoint and caller disagree about the network shape."""


def layer_shapes(input_dim: int, n_actions: int, hidden) -> list[tuple[int, int]]:
    """Each layer's (inputs, outputs); MLP.params holds a * b weights then b biases per layer."""
    sizes = [int(input_dim), *(int(h) for h in hidden), int(n_actions) + 1]
    return list(zip(sizes[:-1], sizes[1:]))


@dataclass
class Workspace:
    """MLP.forward_backward's buffers for batches of up to `rows` rows (see the module doc)."""

    rows: int
    acts: list[np.ndarray]  # per hidden layer, (rows, width): its tanh activations
    head: np.ndarray  # (rows, n_actions + 1): the head output, logits then value
    deltas: list[np.ndarray]  # per hidden layer, (rows, width): the loss gradient at its input
    grad: np.ndarray  # laid out like MLP.params
    grads_w: list[np.ndarray]  # per layer, the weight gradient's view of grad
    grads_b: list[np.ndarray]  # per layer, the bias gradient's view of grad

    def cut(self, b: int) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
        """acts, head and deltas cut to their leading b rows, as fresh views."""
        if b > self.rows:
            raise ValueError(f"batch of {b} rows exceeds the workspace's {self.rows}")
        return [a[:b] for a in self.acts], self.head[:b], [d[:b] for d in self.deltas]


class MLP:
    def __init__(
        self,
        input_dim: int,
        n_actions: int,
        hidden: tuple[int, ...] = (64, 64),
        rng: np.random.Generator | None = None,
    ):
        self.input_dim = int(input_dim)
        self.n_actions = int(n_actions)
        self.hidden = tuple(int(h) for h in hidden)
        rng = rng or np.random.default_rng(0)
        self._shapes = layer_shapes(self.input_dim, self.n_actions, self.hidden)
        self.params = np.zeros(sum(a * b + b for a, b in self._shapes))
        self.weights, self.biases = self._layer_views(self.params)
        for w in self.weights:
            bound = 1.0 / np.sqrt(w.shape[0])
            w[:] = rng.uniform(-bound, bound, size=w.shape)
        self.weights[-1][:] = 0.0  # zero head: p=0.5, v=0 before training

    def _layer_views(self, flat: np.ndarray):
        """Per-layer (weights, biases) views into a flat parameter-layout array."""
        weights, biases = [], []
        pos = 0
        for a, b in self._shapes:
            weights.append(flat[pos : pos + a * b].reshape(a, b))
            pos += a * b
            biases.append(flat[pos : pos + b])
            pos += b
        return weights, biases

    # ---- parameter vector interface ----

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != self.params.shape:
            raise PolicyArchitectureError(
                f"parameter vector has shape {flat.shape}, network needs {self.params.shape}"
            )
        self.params[:] = flat

    @property
    def n_params(self) -> int:
        return self.params.size

    # ---- forward / backward ----

    def forward(self, x: np.ndarray):
        """Batch forward. Returns (logits (B, n_actions), values (B,))."""
        h = np.asarray(x, dtype=float)
        if h.ndim == 1:
            h = h[None]  # one state as a (1, D) batch, multiplied as a batch row is
        for layer in range(len(self.weights) - 1):
            h = h @ self.weights[layer]
            h += self.biases[layer]
            np.tanh(h, out=h)
        out = h @ self.weights[-1]
        out += self.biases[-1]
        return out[:, : self.n_actions], out[:, self.n_actions]

    def workspace(self, rows: int) -> Workspace:
        """Buffers for forward_backward on batches of up to `rows` rows."""
        grad = np.empty_like(self.params)
        grads_w, grads_b = self._layer_views(grad)
        return Workspace(
            rows=int(rows),
            acts=[np.empty((rows, h)) for h in self.hidden],
            head=np.empty((rows, self.n_actions + 1)),
            deltas=[np.empty((rows, h)) for h in self.hidden],
            grad=grad,
            grads_w=grads_w,
            grads_b=grads_b,
        )

    def forward_backward(self, x: np.ndarray, d_out_fn, workspace: Workspace | None = None):
        """Forward pass, then backprop of d_out_fn(logits, values).

        d_out_fn returns the gradient of a scalar loss w.r.t. the combined
        head output (B, n_actions+1). Returns (logits, values, grad), where
        grad is laid out like `params`: each layer's acts.T @ delta and
        delta summed over the batch are written into their views of it with
        `out=`. Every array lives in `workspace`, in its leading B rows, or
        in a fresh one when none is given; the returned logits and values
        are views of its head output, which the backward pass leaves as it
        is. Each hidden activation is overwritten in place with 1 - a^2
        after its weight gradient is taken.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None]  # one state as a (1, D) batch, multiplied as a batch row is
        ws = self.workspace(len(x)) if workspace is None else workspace
        hidden, out, deltas = ws.cut(len(x))
        acts = [x, *hidden]
        for layer in range(len(hidden)):
            h = np.matmul(acts[layer], self.weights[layer], out=acts[layer + 1])
            h += self.biases[layer]
            np.tanh(h, out=h)
        np.matmul(acts[-1], self.weights[-1], out=out)
        out += self.biases[-1]
        logits, values = out[:, : self.n_actions], out[:, self.n_actions]
        delta = d_out_fn(logits, values)
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[layer].T, delta, out=ws.grads_w[layer])
            np.add.reduce(delta, axis=0, out=ws.grads_b[layer])
            if layer > 0:
                tanh_grad = acts[layer]  # the activation is spent: reuse it for 1 - a^2
                np.square(tanh_grad, out=tanh_grad)
                np.subtract(1.0, tanh_grad, out=tanh_grad)
                delta = np.matmul(delta, self.weights[layer].T, out=deltas[layer - 1])
                delta *= tanh_grad
        return logits, values, ws.grad

    def arch_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "n_actions": self.n_actions,
            "hidden": list(self.hidden),
        }


@dataclass
class Adam:
    """Plain Adam that updates a flat parameter vector in place.

    m, v and the parameters are updated in place through one scratch buffer,
    with the textbook update's operations in its order, so each step gives
    the out-of-place formula's bits.
    """

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = field(default=0, init=False)
    m: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False)
    v: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False)
    _scratch: np.ndarray = field(
        default_factory=lambda: np.zeros((2, 0)), init=False, repr=False, compare=False
    )

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        if self.m.size != params.size:
            self.m = np.zeros(params.size)
            self.v = np.zeros(params.size)
            self._scratch = np.empty((2, params.size))
        self.t += 1
        num, den = self._scratch
        # m = beta1 * m + (1 - beta1) * g
        self.m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=num)
        self.m += num
        # v = beta2 * v + ((1 - beta2) * g) * g
        self.v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=num)
        num *= grad
        self.v += num
        # params -= (lr * m_hat) / (sqrt(v_hat) + eps)
        np.divide(self.m, 1.0 - self.beta1**self.t, out=num)
        num *= self.lr
        np.divide(self.v, 1.0 - self.beta2**self.t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        params -= num
