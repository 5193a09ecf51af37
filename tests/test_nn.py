from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplace.nn import MLP, Adam, PolicyArchitectureError

from oracles import (
    AdamReference,
    adam_reference,
    finite_difference_grad,
    forward_backward_reference,
)


def test_cold_start_outputs_zero():
    net = MLP(6, 3, hidden=(8,), rng=np.random.default_rng(0))
    logits, values = net.forward(np.random.default_rng(1).normal(size=(4, 6)))
    np.testing.assert_array_equal(logits, np.zeros((4, 3)))
    np.testing.assert_array_equal(values, np.zeros(4))


def test_param_vector_round_trip():
    net = MLP(5, 2, hidden=(7, 3), rng=np.random.default_rng(2))
    flat = net.get_params()
    assert flat.size == net.n_params == 5 * 7 + 7 + 7 * 3 + 3 + 3 * 3 + 3
    other = MLP(5, 2, hidden=(7, 3), rng=np.random.default_rng(99))
    other.set_params(flat)
    x = np.random.default_rng(3).normal(size=(6, 5))
    np.testing.assert_array_equal(net.forward(x)[0], other.forward(x)[0])
    with pytest.raises(PolicyArchitectureError):
        other.set_params(flat[:-1])


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    net = MLP(4, 2, hidden=(5,), rng=rng)
    # give the zero head some life so the loss is not locally flat
    params = net.get_params()
    params = params + rng.normal(scale=0.3, size=params.size)
    net.set_params(params)
    x = rng.normal(size=(3, 4))
    target_logits = rng.normal(size=(3, 2))
    target_values = rng.normal(size=3)

    def d_out(logits, values):
        d = np.concatenate(
            [2 * (logits - target_logits), 2 * (values - target_values)[:, None]], axis=1
        )
        return d / logits.shape[0]

    _, _, grad = net.forward_backward(x, d_out)

    def loss_at(flat):
        probe = MLP(4, 2, hidden=(5,))
        probe.set_params(flat)
        logits, values = probe.forward(x)
        return float(
            np.mean(np.sum((logits - target_logits) ** 2, axis=1))
            + np.mean((values - target_values) ** 2)
        )

    fd = finite_difference_grad(loss_at, net.get_params())
    # per-spec style check: worst relative error with an absolute floor
    denom = np.maximum(np.abs(fd), 1e-4)
    assert np.max(np.abs(grad - fd) / denom) <= 1e-4


def test_backward_matches_reference_bit_for_bit():
    """forward_backward equals the fresh-array oracle at the minibatch sizes training
    meets (4 is large-payload's ragged last one), called alternately on one network,
    and a returned gradient is not touched by the calls that follow it."""
    rng = np.random.default_rng(9)
    net = MLP(44, 5, hidden=(64, 64), rng=rng)
    net.set_params(net.get_params() + rng.normal(scale=0.2, size=net.n_params))

    def d_out(logits, values):
        d = np.concatenate([np.tanh(logits) - 0.25, (values - 1.0)[:, None]], axis=1)
        return d / logits.shape[0]

    earlier = []  # (grad as returned, its bytes at return)
    for size in (64, 4, 65, 1, 64, 65, 4, 1):
        x = rng.normal(size=(size, 44))
        logits, values, grad = net.forward_backward(x, d_out)
        ref_logits, ref_values, ref_grad = forward_backward_reference(net, x, d_out)
        assert logits.tobytes() == ref_logits.tobytes()
        assert values.tobytes() == ref_values.tobytes()
        assert grad.shape == net.params.shape
        assert grad.tobytes() == ref_grad.tobytes(), size
        assert not np.shares_memory(grad, net.params)
        for kept, kept_bytes in earlier:
            assert kept.tobytes() == kept_bytes
        earlier.append((grad, grad.tobytes()))


def test_workspace_backward_matches_reference_bit_for_bit():
    """forward_backward into one 64-row workspace equals the fresh-array oracle at 64,
    4 and 1 rows, called alternately on one network; each call's results live in the
    workspace's leading rows, and a batch larger than it is refused."""
    rng = np.random.default_rng(10)
    net = MLP(44, 5, hidden=(64, 64), rng=rng)
    net.set_params(net.get_params() + rng.normal(scale=0.2, size=net.n_params))
    workspace = net.workspace(64)

    def d_out(logits, values):
        d = np.concatenate([np.tanh(logits) - 0.25, (values - 1.0)[:, None]], axis=1)
        return d / logits.shape[0]

    for size in (64, 4, 1, 64, 1, 4, 64):
        x = rng.normal(size=(size, 44))
        logits, values, grad = net.forward_backward(x, d_out, workspace)
        ref_logits, ref_values, ref_grad = forward_backward_reference(net, x, d_out)
        assert logits.tobytes() == ref_logits.tobytes()
        assert values.tobytes() == ref_values.tobytes()
        assert grad.tobytes() == ref_grad.tobytes(), size
        assert grad is workspace.grad
        assert np.shares_memory(logits, workspace.head)
    with pytest.raises(ValueError, match="exceeds the workspace"):
        net.forward_backward(rng.normal(size=(65, 44)), d_out, workspace)


def test_weights_and_biases_are_views_of_params():
    net = MLP(5, 2, hidden=(7, 3), rng=np.random.default_rng(5))
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)
    copy = net.get_params()
    assert not np.shares_memory(copy, net.params)
    copy += 1.0
    assert not np.array_equal(copy, net.params)
    # set_params writes through the views: weights row-major, then biases
    net.set_params(np.arange(net.n_params, dtype=float))
    np.testing.assert_array_equal(net.weights[0].ravel(), np.arange(5 * 7))
    np.testing.assert_array_equal(net.biases[0], np.arange(5 * 7, 5 * 7 + 7))


def test_adam_step_on_params_changes_forward():
    net = MLP(4, 2, hidden=(5,), rng=np.random.default_rng(6))
    x = np.random.default_rng(7).normal(size=(3, 4))
    before = net.forward(x)[0].copy()
    Adam(lr=0.01).step(net.params, np.ones(net.n_params))
    assert not np.array_equal(net.forward(x)[0], before)


def test_adam_moves_toward_minimum():
    opt = Adam(lr=0.05)
    params = np.array([5.0, -3.0])
    for _ in range(400):
        opt.step(params, 2 * params)  # d/dx of |x|^2
    assert np.all(np.abs(params) < 1e-2)


def test_adam_in_place_matches_out_of_place_reference():
    rng = np.random.default_rng(8)
    params = rng.normal(size=11)
    grads = [rng.normal(size=11) for _ in range(50)]
    opt = Adam(lr=0.01)
    live = params.copy()
    for grad, expected in zip(grads, adam_reference(params, grads, lr=0.01)):
        opt.step(live, grad)
        np.testing.assert_array_equal(live, expected)
    assert opt.t == 50


@st.composite
def _adam_run(draw):
    """Hyperparameters, a start point and a few gradients, with zeros, tiny and huge entries."""
    n, steps = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 1.0]),
                      st.floats(-1e200, 1e200, allow_nan=False, allow_infinity=False))
    params = np.array([draw(value) for _ in range(n)])
    grads = [np.array([draw(value) for _ in range(n)]) for _ in range(steps)]
    hyper = {
        "lr": draw(st.sampled_from([3e-4, 1e-2, 0.5])),
        "beta1": draw(st.sampled_from([0.9, 0.5, 0.0])),
        "beta2": draw(st.sampled_from([0.999, 0.9])),
        "eps": draw(st.sampled_from([1e-8, 1e-3])),
    }
    return params, grads, hyper


@settings(max_examples=200, deadline=None)
@given(run=_adam_run())
def test_adam_step_is_the_textbook_formula_bit_for_bit(run):
    params, grads, hyper = run
    opt, reference = Adam(**hyper), AdamReference(**hyper)
    live, expected = params.copy(), params.copy()
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for grad in grads:
            opt.step(live, grad)
            reference.step(expected, grad)
            assert live.tobytes() == expected.tobytes()
            assert opt.m.tobytes() == reference.m.tobytes()
            assert opt.v.tobytes() == reference.v.tobytes()
    assert opt.t == reference.t == len(grads)
