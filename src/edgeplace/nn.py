"""Minimal dense network with analytic gradients, used by the PPO engine.

Two tanh hidden layers feed a combined linear head: the first n_actions
outputs are Bernoulli logits, the last output is the state value. The final
layer starts at zero so an untrained policy emits probability 0.5 per node
and value 0, which keeps early exploration symmetric.

All parameters live in one flat array, `MLP.params`: per layer the weights
(row-major), then the biases. `weights` and `biases` are views into it, so
`Adam.step` updating `params` in place updates the network, and
`forward_backward` returns the gradient as a new array in the same layout.
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
        logits, values, _ = self._forward_cached(x)
        return logits, values

    def _forward_cached(self, x: np.ndarray):
        h = np.asarray(x, dtype=float)
        if h.ndim == 1:
            h = h[None]  # one state as a (1, D) batch, multiplied as a batch row is
        activations = [h]
        for layer in range(len(self.weights) - 1):
            h = h @ self.weights[layer]
            h += self.biases[layer]
            np.tanh(h, out=h)
            activations.append(h)
        out = h @ self.weights[-1]
        out += self.biases[-1]
        return out[:, : self.n_actions], out[:, self.n_actions], activations

    def forward_backward(self, x: np.ndarray, d_out_fn):
        """Forward pass, then backprop of d_out_fn(logits, values).

        d_out_fn returns the gradient of a scalar loss w.r.t. the combined
        head output (B, n_actions+1). Returns (logits, values, grad), where
        grad is a new flat array laid out like `params`.
        """
        logits, values, acts = self._forward_cached(x)
        delta = d_out_fn(logits, values)
        grad = np.empty_like(self.params)
        grads_w, grads_b = self._layer_views(grad)
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer][:] = acts[layer].T @ delta
            grads_b[layer][:] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (1.0 - acts[layer] ** 2)
        return logits, values, grad

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
