"""Network contracts: init, forward, losses, weights, serialization, gradients."""

from __future__ import annotations

import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refinectl import controller as controller_mod
from refinectl.confidence import FeatureVector
from refinectl.controller import (
    CONV_STRIDE,
    Action,
    Decision,
    SerializationError,
    _batchnorm_backward,
    _batchnorm_train,
    _conv1d,
    _conv1d_backward,
    deserialize,
    forward,
    infer,
    init,
    parameter_count,
    serialize,
)
from refinectl.training import (
    Adam,
    TrainConfig,
    batch_loss_and_grads,
    class_weights,
    evaluate_accuracy,
    loss,
)

CONV = [(1, 64, 5), (64, 128, 5), (128, 256, 3)]


def analytic_parameter_count(n_actions: int) -> int:
    """Independent layer-by-layer sum: conv w+b, bn gamma+beta, head fc w+b."""
    total = 0
    for cin, cout, k in CONV:
        total += cout * cin * k + cout  # conv
        total += 2 * cout               # batch-norm scale/shift
    total += 128 * 256 + 128 + n_actions * 128 + n_actions  # action head
    total += 128 * 256 + 128 + 1 * 128 + 1                  # success head
    return total


# ---------------------------------------------------------------------------
# init / parameter count
# ---------------------------------------------------------------------------

def test_parameter_count_in_published_band():
    model = init(3, 16, seed=0)
    count = parameter_count(model)
    assert 200_000 <= count <= 220_000
    assert count == analytic_parameter_count(3)


def test_parameter_count_four_actions():
    model = init(4, 16, seed=0)
    assert parameter_count(model) == analytic_parameter_count(4)


def test_same_seed_identical_weights():
    a, b = init(3, 16, seed=11), init(3, 16, seed=11)
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.value, pb.value)


def test_different_seed_different_weights():
    a, b = init(3, 16, seed=1), init(3, 16, seed=2)
    assert any(not np.array_equal(pa.value, pb.value)
               for pa, pb in zip(a.parameters(), b.parameters()))


def test_invalid_action_count_rejected():
    with pytest.raises(ValueError):
        init(5, 16, seed=0)
    with pytest.raises(ValueError):
        init(2, 16, seed=0)


def test_all_weights_finite():
    model = init(4, 16, seed=3)
    for p in model.parameters():
        assert np.all(np.isfinite(p.value))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_probs_on_simplex(rng):
    model = init(3, 16, seed=5)
    for _ in range(20):
        d = forward(model, FeatureVector(rng.normal(12, 4, 16)))
        assert abs(sum(d.probs) - 1.0) < 1e-6
        assert all(p >= 0 for p in d.probs)
        assert 0.0 <= d.success_prob <= 1.0


def test_zero_weights_give_uniform():
    model = init(3, 16, seed=0)
    for p in model.parameters():
        p.value[...] = 0.0
    d = forward(model, FeatureVector(np.random.default_rng(0).normal(0, 1, 16)))
    np.testing.assert_allclose(d.probs, [1 / 3] * 3, atol=1e-12)
    assert d.action is Action.HALT  # argmax ties break to the lowest code


def test_inference_bitwise_stable(rng):
    model = init(3, 16, seed=9)
    f = FeatureVector(rng.normal(10, 2, 16))
    first = forward(model, f)
    for _ in range(5):
        again = forward(model, f)
        assert again.probs == first.probs
        assert again.success_prob == first.success_prob


def reference_conv1d(x, w, b, stride):
    """Reference for ``_conv1d``: pad, take sliding windows, contract with
    einsum. (B, C_in, L) -> (out (B, C_out, L_out), cols (B, C_in, L_out, K))."""
    n, kernel = x.shape[2], w.shape[2]
    n_out = -(-n // stride)
    pad_total = max((n_out - 1) * stride + kernel - n, 0)
    pad_l = pad_total // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad_l, pad_total - pad_l)))
    cols = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=2)[:, :, ::stride, :]
    out = np.einsum("bilk,oik->bol", cols, w, optimize=True) + b[None, :, None]
    return out, cols


def reference_infer(model, x):
    """Reference for ``infer``, the eval-mode forward written the textbook
    way: reference convolution, batch norm (h - running mean) / sqrt(running
    var + eps) * gamma + beta, ReLU, mean pool, then the two heads."""
    h = x[:, None, :]
    for blk in model.blocks:
        h = reference_conv1d(h, blk.w.value, blk.b.value, CONV_STRIDE)[0]
        h = ((h - blk.running_mean[None, :, None])
             / np.sqrt(blk.running_var[None, :, None] + 1e-5)
             * blk.gamma.value[None, :, None] + blk.beta.value[None, :, None])
        h = np.maximum(h, 0.0)
    z = h.mean(axis=2)

    def head(fc1, fc2):
        hidden = np.maximum(z @ fc1.w.value.T + fc1.b.value, 0.0)
        return hidden @ fc2.w.value.T + fc2.b.value

    return (head(model.action_fc1, model.action_fc2),
            head(model.success_fc1, model.success_fc2)[:, 0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_actions=st.sampled_from([3, 4]),
       batch=st.integers(1, 64), length=st.integers(8, 33))
def test_infer_matches_forward_batch(seed, n_actions, batch, length):
    rng = np.random.default_rng(seed)
    model = init(n_actions, length, seed=seed)
    # a train-mode pass moves the running statistics off their defaults
    model.forward_batch(rng.normal(10, 3, (16, length)), dropout_rng=None)
    x = rng.normal(10, 3, (batch, length))

    logits, s_logits = infer(model, x)
    ref_logits, ref_s = reference_infer(model, x)
    scale = max(np.abs(ref_logits).max(), np.abs(ref_s).max(), 1.0)
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(s_logits, ref_s, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_array_equal(logits.argmax(axis=1), ref_logits.argmax(axis=1))

    h = x[:, None, :]
    for blk in model.blocks:
        out, windows = _conv1d(h.transpose(1, 0, 2), blk.w.value, blk.b.value, CONV_STRIDE)
        out, cols = out.transpose(1, 0, 2), windows.transpose(2, 0, 3, 1)
        ref_out, ref_cols = reference_conv1d(h, blk.w.value, blk.b.value, CONV_STRIDE)
        np.testing.assert_array_equal(cols, ref_cols)
        np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12 * np.abs(ref_out).max())
        h = np.maximum(out, 0.0)


def moved_model(seed=5):
    """A model whose running statistics a train-mode pass moved off their
    defaults, and the generator that drew that pass."""
    rng = np.random.default_rng(seed)
    model = init(3, 16, seed=seed)
    model.forward_batch(rng.normal(10, 3, (32, 16)), dropout_rng=None)
    return model, rng


@pytest.mark.parametrize("rows", [255, 256, 257, 513])
def test_infer_runs_large_batches_in_row_blocks(rows):
    """A large batch is its 256-row blocks run one after another: bitwise the
    concatenation of those blocks' logits, and still the reference's."""
    model, rng = moved_model()
    x = rng.normal(10, 3, (rows, 16))
    logits, s_logits = infer(model, x)
    blocks = [infer(model, x[i:i + 256]) for i in range(0, rows, 256)]
    np.testing.assert_array_equal(logits, np.concatenate([a for a, _ in blocks]))
    np.testing.assert_array_equal(s_logits, np.concatenate([s for _, s in blocks]))
    ref_logits, ref_s = reference_infer(model, x)
    scale = max(np.abs(ref_logits).max(), np.abs(ref_s).max(), 1.0)
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(s_logits, ref_s, rtol=1e-12, atol=1e-12 * scale)


def test_infer_memory_does_not_grow_with_the_batch():
    """Eval memory is one block's: a whole-batch pass would hold every row's
    conv windows at once, about 29 KB a row."""
    model, rng = moved_model()
    x = rng.normal(10, 3, (4096, 16))
    peaks = []
    for rows in (256, 4096):
        infer(model, x[:rows])  # warm the memoised window indices
        tracemalloc.start()
        try:
            infer(model, x[:rows])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def test_evaluate_accuracy_over_several_blocks():
    model, rng = moved_model()
    x = rng.normal(10, 3, (513, 16))
    labels = rng.integers(0, 3, 513)
    ref_logits, _ = reference_infer(model, x)
    assert evaluate_accuracy(model, x, labels) == float((ref_logits.argmax(axis=1)
                                                         == labels).mean())


def reference_eval(model, x):
    """``infer``'s arithmetic written out on :func:`reference_conv1d`'s
    windows, 256 rows at a time: each block's windows contracted with its
    kernel in one matrix product plus the bias, batch norm as the affine of
    the running statistics, ReLU, the mean pool and the two heads. These are
    the operations ``infer`` documents, in its order, so it must match bit
    for bit."""
    actions, successes = [], []
    for start in range(0, len(x), 256):
        h = x[start:start + 256, None, :]
        for blk in model.blocks:
            cols = reference_conv1d(h, blk.w.value, blk.b.value, CONV_STRIDE)[1]
            bsz, c_in, n_out, kernel = cols.shape
            windows = np.ascontiguousarray(cols.transpose(1, 3, 0, 2))
            w = blk.w.value.reshape(len(blk.b.value), c_in * kernel)
            out = w @ windows.reshape(c_in * kernel, bsz * n_out) + blk.b.value[:, None]
            scale = blk.gamma.value / np.sqrt(blk.running_var + 1e-5)
            out = out * scale[:, None] + (blk.beta.value - blk.running_mean * scale)[:, None]
            h = np.maximum(out, 0.0).reshape(-1, bsz, n_out).transpose(1, 0, 2)
        z = h.mean(axis=2)

        def head(fc1, fc2):
            hidden = np.maximum(z @ fc1.w.value.T + fc1.b.value, 0.0)
            return hidden @ fc2.w.value.T + fc2.b.value

        actions.append(head(model.action_fc1, model.action_fc2))
        successes.append(head(model.success_fc1, model.success_fc2)[:, 0])
    return np.concatenate(actions), np.concatenate(successes)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), rounds=st.integers(1, 3), batch=st.integers(1, 300),
       length=st.sampled_from([8, 16, 24, 33]))
def test_infer_is_the_reference_bit_for_bit(seed, rounds, batch, length):
    """On weights and running statistics that training moved, at batch
    sizes on both sides of the 256-row block, ``infer`` is
    :func:`reference_eval` bit for bit; and ``decide`` after ``Adam.step``
    or ``load_state_arrays`` is ``decide`` on a fresh copy of that state, so
    no earlier state can leak into it."""
    rng = np.random.default_rng(seed)
    model = init(3, length, seed=seed)
    optimizer = Adam(model.theta, model.grad, lr=1e-2)
    feature = FeatureVector(rng.normal(10, 3, length))
    for _ in range(rounds):
        model.decide(feature)
        model.zero_grads()
        a, s, tape = model.forward_batch(rng.normal(10, 3, (16, length)), dropout_rng=rng)
        model.backward_batch(tape, rng.normal(size=a.shape), rng.normal(size=s.shape))
        optimizer.step()
        assert model.decide(feature) == deserialize(serialize(model)).decide(feature)

    x = rng.normal(10, 3, (batch, length))
    logits, s_logits = infer(model, x)
    ref_logits, ref_s = reference_eval(model, x)
    np.testing.assert_array_equal(logits, ref_logits)
    np.testing.assert_array_equal(s_logits, ref_s)

    other = init(3, length, seed=seed + 1)
    model.load_state_arrays(other.state_arrays())
    assert model.decide(feature) == deserialize(serialize(other)).decide(feature)


def reference_conv1d_backward(grad, cols, w, n, stride):
    """Reference for ``_conv1d_backward``: two einsum contractions and a loop
    over output positions. Returns (dW, db, dx)."""
    kernel, n_out = w.shape[2], grad.shape[2]
    pad_total = max((n_out - 1) * stride + kernel - n, 0)
    pad_l = pad_total // 2
    dw = np.einsum("bol,bilk->oik", grad, cols, optimize=True)
    db = grad.sum(axis=(0, 2))
    dcols = np.einsum("bol,oik->bilk", grad, w, optimize=True)
    dxp = np.zeros(cols.shape[:2] + (n + pad_total,))
    for j in range(n_out):
        dxp[:, :, j * stride:j * stride + kernel] += dcols[:, :, j, :]
    return dw, db, dxp[:, :, pad_l:pad_l + n]


def reference_batchnorm_backward(x, gamma, grad):
    """Reference for ``_batchnorm_backward``: the chain rule through the
    variance and the mean, one term at a time. Returns (dgamma, dbeta, dx)."""
    mean, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    centered = x - mean[None, :, None]
    xhat = centered * inv_std[None, :, None]
    dgamma = (grad * xhat).sum(axis=(0, 2))
    dbeta = grad.sum(axis=(0, 2))
    dxhat = grad * gamma[None, :, None]
    m = x.shape[0] * x.shape[2]
    dvar = (dxhat * centered).sum(axis=(0, 2)) * (-0.5) * inv_std ** 3
    dmean = (-dxhat * inv_std[None, :, None]).sum(axis=(0, 2)) \
        + dvar * (-2.0 / m) * centered.sum(axis=(0, 2))
    dx = (dxhat * inv_std[None, :, None] + (2.0 / m) * dvar[None, :, None] * centered
          + dmean[None, :, None] / m)
    return dgamma, dbeta, dx


def assert_close_to_reference(actual, ref, scale):
    """Equal up to rounding: rtol 1e-12, and atol 1e-12 times ``scale``, the
    largest magnitude among the terms the result sums."""
    np.testing.assert_allclose(actual, ref, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), batch=st.integers(1, 64), c_in=st.integers(1, 16),
       c_out=st.integers(1, 16), kernel=st.integers(1, 5), stride=st.integers(1, 3),
       length=st.integers(1, 33), channel_major=st.booleans())
def test_backward_matches_reference(seed, batch, c_in, c_out, kernel, stride, length,
                                    channel_major):
    rng = np.random.default_rng(seed)

    def draw(shape):
        """A standard-normal array, either C-ordered or (like the trunk's
        activations) a (B, C, L) view of a channel-major buffer."""
        if channel_major:
            return rng.normal(0.0, 1.0, (shape[1], shape[0], shape[2])).transpose(1, 0, 2)
        return rng.normal(0.0, 1.0, shape)

    w, b = rng.normal(0.0, 1.0, (c_out, c_in, kernel)), rng.normal(0.0, 1.0, c_out)
    x = draw((batch, c_in, length))
    out, windows = _conv1d(x.transpose(1, 0, 2), w, b, stride)
    assert out.flags.c_contiguous  # channel-major (C_out, B, L_out), as promised
    out, cols = out.transpose(1, 0, 2), windows.transpose(2, 0, 3, 1)
    n_out = out.shape[2]
    assert windows.shape == (c_in, kernel, batch, n_out)
    assert windows.flags.c_contiguous  # the buffer _conv1d's docstring promises
    grad = draw(out.shape)
    dw, db, dx = _conv1d_backward(grad, windows, w, length, stride)
    ref_dw, ref_db, ref_dx = reference_conv1d_backward(
        grad, reference_conv1d(x, w, b, stride)[1], w, length, stride)
    terms = np.abs(grad).max()
    assert_close_to_reference(dw, ref_dw, terms * np.abs(cols).max())
    assert_close_to_reference(db, ref_db, terms)
    assert_close_to_reference(dx, ref_dx, terms * np.abs(w).max())
    dw_only, db_only, no_dx = _conv1d_backward(grad, windows, w, length, stride,
                                               input_grad=False)
    assert no_dx is None
    np.testing.assert_array_equal(dw_only, dw)
    np.testing.assert_array_equal(db_only, db)

    gamma, beta = rng.normal(0.0, 1.0, c_out), rng.normal(0.0, 1.0, c_out)
    x = 3.0 + 2.0 * draw((batch, c_out, length))
    _, xhat, inv_std, _, _ = _batchnorm_train(x, gamma, beta)
    grad = draw(x.shape)
    dgamma, dbeta, dx = _batchnorm_backward(grad, xhat, inv_std, gamma)
    ref_dgamma, ref_dbeta, ref_dx = reference_batchnorm_backward(x, gamma, grad)
    terms = np.abs(grad).max()
    assert_close_to_reference(dgamma, ref_dgamma, terms * np.abs(xhat).max())
    assert_close_to_reference(dbeta, ref_dbeta, terms)
    # the x̂ · mean(g · x̂) term scales with x̂ squared
    dx_terms = terms * np.abs(gamma * inv_std).max() * max(np.abs(xhat).max(), 1) ** 2
    assert_close_to_reference(dx, ref_dx, dx_terms)


def test_tapes_are_independent():
    """Two forward passes, then their backward passes in the other order,
    give what forward and backward one batch at a time give: each tape holds
    its own pass, and nothing of it stays on the model."""
    rng = np.random.default_rng(8)
    xa, xb = rng.normal(10, 3, (8, 16)), rng.normal(10, 3, (5, 16))
    ga = (rng.normal(size=(8, 3)), rng.normal(size=8))
    gb = (rng.normal(size=(5, 3)), rng.normal(size=5))

    sequential = init(3, 16, seed=12)
    dropout = np.random.default_rng(0)
    out_a = sequential.forward_batch(xa, dropout)
    sequential.backward_batch(out_a[2], *ga)
    sequential.backward_batch(sequential.forward_batch(xb, dropout)[2], *gb)

    model = init(3, 16, seed=12)
    dropout = np.random.default_rng(0)
    logits_a, success_a, tape_a = model.forward_batch(xa, dropout)
    tape_b = model.forward_batch(xb, dropout)[2]
    model.backward_batch(tape_b, *gb)
    model.backward_batch(tape_a, *ga)

    np.testing.assert_array_equal(logits_a, out_a[0])
    np.testing.assert_array_equal(success_a, out_a[1])
    np.testing.assert_allclose(model.grad, sequential.grad, rtol=1e-12)
    assert serialize(model) == serialize(sequential)  # running statistics too


def test_decide_is_thread_safe():
    model = init(3, 16, seed=13)
    model.forward_batch(np.random.default_rng(0).normal(10, 3, (8, 16)), dropout_rng=None)
    blob = serialize(model)
    model = deserialize(blob)
    features = [[FeatureVector(np.random.default_rng((t, i)).normal(10, 3, 16))
                 for i in range(50)] for t in range(8)]
    attributes = set(vars(model))
    expected = [[model.decide(f) for f in fs] for fs in features]
    got: list = [None] * len(features)
    start = threading.Barrier(len(features), timeout=60)

    def worker(t: int) -> None:
        start.wait()
        got[t] = [model.decide(f) for f in features[t]]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside every decide
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(features))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert got == expected
    # decide wrote nothing: no weight or statistic, no new attribute, no gradient
    assert serialize(model) == blob
    assert set(vars(model)) == attributes
    assert not model.grad.any()


def test_length_mismatch_rejected():
    model = init(3, 16, seed=0)
    with pytest.raises(ValueError):
        forward(model, FeatureVector(np.ones(8)))


def test_decision_validation():
    with pytest.raises(ValueError):
        Decision(action=Action.HALT, probs=(0.5, 0.2, 0.2), success_prob=0.5)
    with pytest.raises(ValueError):
        Decision(action=Action.RETHINK, probs=(0.8, 0.1, 0.1), success_prob=0.5)
    # a tie goes to the lowest code
    assert Decision(action=Action.HALT, probs=(0.4, 0.4, 0.2), success_prob=0.5).action \
        is Action.HALT
    with pytest.raises(ValueError):
        Decision(action=Action.RETHINK, probs=(0.4, 0.4, 0.2), success_prob=0.5)


# ---------------------------------------------------------------------------
# loss values
# ---------------------------------------------------------------------------

def _cfg(kind, lam=0.0, gamma=2.0):
    return TrainConfig(loss_kind=kind, step_penalty=lam, focal_gamma=gamma)


def test_perfect_prediction_zero_loss_all_kinds():
    probs = (1.0, 0.0, 0.0)
    for kind in ("cross_entropy", "focal", "weighted_ce"):
        value = loss(probs, success_prob=1.0, label=Action.HALT, success_label=True,
                     t=0, cfg=_cfg(kind), weights=(1.0, 1.0, 1.0))
        assert value == pytest.approx(0.0, abs=1e-9)


def test_focal_gamma_zero_reduces_to_weighted_ce(rng):
    for _ in range(50):
        probs = rng.dirichlet(np.ones(3))
        label = int(rng.integers(3))
        weights = rng.uniform(0.2, 5.0, 3)
        t = int(rng.integers(5))
        a = loss(probs, 0.7, label, True, t, _cfg("focal", lam=0.1, gamma=0.0), weights)
        b = loss(probs, 0.7, label, True, t, _cfg("weighted_ce", lam=0.1), weights)
        assert a == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0, 2.0])
def test_focal_gradient_matches_finite_differences(gamma):
    """dL/d(action bias) is the summed logit gradient; the bias sits after
    the last ReLU, so central differences are exact up to O(h^2)."""
    rng = np.random.default_rng(3)
    model = init(3, 16, seed=4)
    x = rng.normal(10, 3, (4, 16))
    labels, success, steps = np.array([0, 1, 2, 1]), np.array([1, 0, 0, 1], bool), np.zeros(4)
    cfg = TrainConfig(loss_kind="focal", focal_gamma=gamma)
    weights = np.array([0.5, 1.5, 2.0])

    def value() -> float:
        return batch_loss_and_grads(model, x, labels, success, steps, cfg, weights,
                                    dropout_rng=None)

    model.zero_grads()
    value()
    analytic = model.action_fc2.b.grad.copy()
    bias, h = model.action_fc2.b.value, 1e-5
    numeric = np.empty(3)
    for i in range(3):
        bias[i] += h
        plus = value()
        bias[i] -= 2 * h
        minus = value()
        bias[i] += h
        numeric[i] = (plus - minus) / (2 * h)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


def test_cross_entropy_direct_arithmetic():
    # -log(0.5) + 0.1 * 2, success term zeroed by a perfect success prediction
    value = loss((0.5, 0.3, 0.2), success_prob=1.0, label=0, success_label=True,
                 t=2, cfg=_cfg("cross_entropy", lam=0.1))
    assert value == pytest.approx(0.6931 + 0.2, abs=1e-4)


def test_success_bce_term():
    value = loss((1.0, 0.0, 0.0), success_prob=0.5, label=0, success_label=True,
                 t=0, cfg=_cfg("cross_entropy"))
    assert value == pytest.approx(np.log(2.0), abs=1e-9)


def test_zero_prob_label_is_clamped():
    value = loss((1.0, 0.0, 0.0), success_prob=1.0, label=1, success_label=True,
                 t=0, cfg=_cfg("cross_entropy"))
    assert np.isfinite(value)
    assert value == pytest.approx(-np.log(1e-12), rel=1e-6)


# ---------------------------------------------------------------------------
# class weights
# ---------------------------------------------------------------------------

def test_balanced_counts_give_unit_weights():
    for s in (0.0, 0.5, 1.0):
        np.testing.assert_allclose(class_weights([25, 25, 25, 25], s), 1.0)


def test_smoothing_dampens_18x_ratio():
    # raw inverse-frequency ratio 18x; square-root smoothing lands near 4.3x
    w = class_weights([1800, 100, 100], 0.5)
    ratio = w[1] / w[0]
    assert ratio == pytest.approx(np.sqrt(18.0), rel=1e-9)
    assert abs(ratio - 4.3) / 4.3 < 0.02


def test_zero_smoothing_flattens():
    np.testing.assert_allclose(class_weights([900, 50, 50], 0.0), 1.0)


def test_zero_count_class_rejected():
    with pytest.raises(ValueError):
        class_weights([10, 0, 5], 0.5)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_roundtrip_byte_exact(rng):
    model = init(3, 16, seed=21)
    # give running stats a non-default value so they participate
    model.forward_batch(rng.normal(10, 3, (8, 16)), dropout_rng=None)
    blob = serialize(model)
    again = serialize(deserialize(blob))
    assert blob == again


def test_fixture_roundtrips_without_drawing_weights(monkeypatch):
    blob = (Path(__file__).resolve().parent.parent / "perfbench" / "fixture"
            / "controller.rcn").read_bytes()

    def drew(*args, **kwargs):
        raise AssertionError("deserialize drew random weights it then overwrote")

    monkeypatch.setattr(np.random, "default_rng", drew)
    assert serialize(deserialize(blob)) == blob


def test_roundtrip_preserves_inference(rng):
    model = init(4, 16, seed=22)
    model.forward_batch(rng.normal(10, 3, (8, 16)), dropout_rng=None)
    f = FeatureVector(rng.normal(10, 3, 16))
    before = forward(model, f)
    after = forward(deserialize(serialize(model)), f)
    assert before.probs == after.probs
    assert before.success_prob == after.success_prob


def test_version_mismatch_rejected():
    blob = bytearray(serialize(init(3, 16, seed=0)))
    blob[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(SerializationError):
        deserialize(bytes(blob))


def test_bad_magic_rejected():
    blob = b"XXXX" + serialize(init(3, 16, seed=0))[4:]
    with pytest.raises(SerializationError):
        deserialize(blob)


def test_truncated_payload_rejected():
    blob = serialize(init(3, 16, seed=0))
    with pytest.raises(SerializationError):
        deserialize(blob[: len(blob) // 2])


@pytest.fixture
def small_blob(monkeypatch):
    """A serialized model with a shrunken trunk and head, small enough to
    deserialize every prefix of."""
    monkeypatch.setattr(controller_mod, "CONV_CHANNELS", (2, 3, 4))
    monkeypatch.setattr(controller_mod, "HEAD_HIDDEN", 3)
    blob = serialize(init(3, 16, seed=0))
    assert deserialize(blob).n_actions == 3
    return blob


def test_every_strict_prefix_rejected(small_blob):
    for end in range(len(small_blob)):
        with pytest.raises(SerializationError):
            deserialize(small_blob[:end])


def test_trailing_bytes_rejected(small_blob):
    with pytest.raises(SerializationError, match="trailing"):
        deserialize(small_blob + b"\0")


def test_bad_action_count_rejected(small_blob):
    blob = bytearray(small_blob)
    blob[8:12] = (7).to_bytes(4, "little")
    with pytest.raises(SerializationError):
        deserialize(bytes(blob))


def _array_size_offsets(blob: bytes) -> list[int]:
    """Byte offsets of the per-array size fields of a serialized model."""
    n_blocks = int.from_bytes(blob[16:20], "little")
    pos = 20 + 16 * n_blocks + 4 + 8
    n_arrays = int.from_bytes(blob[pos:pos + 4], "little")
    pos += 4
    offsets = []
    for _ in range(n_arrays):
        offsets.append(pos)
        pos += 8 + 8 * int.from_bytes(blob[pos:pos + 8], "little")
    assert pos == len(blob)
    return offsets


@pytest.mark.parametrize("delta", [-1, 1, 2 ** 62])
def test_wrong_array_size_rejected(small_blob, delta):
    for offset in _array_size_offsets(small_blob):
        blob = bytearray(small_blob)
        size = int.from_bytes(blob[offset:offset + 8], "little")
        blob[offset:offset + 8] = (size + delta).to_bytes(8, "little")
        with pytest.raises(SerializationError):
            deserialize(bytes(blob))


def test_shrunk_array_rejected(small_blob):
    blob = bytearray(small_blob)
    offset = _array_size_offsets(small_blob)[0]
    # shrink the first array and drop its last value, keeping the rest aligned
    size = int.from_bytes(blob[offset:offset + 8], "little")
    blob[offset:offset + 8] = (size - 1).to_bytes(8, "little")
    del blob[offset + 8 * size:offset + 8 * size + 8]
    with pytest.raises(SerializationError, match="does not fit"):
        deserialize(bytes(blob))


def assert_views_of_flat_buffers(model) -> None:
    params = model.parameters()
    for p in params:
        assert np.shares_memory(p.value, model.theta)
        assert np.shares_memory(p.grad, model.grad)
    np.testing.assert_array_equal(np.concatenate([p.value.ravel() for p in params]),
                                  model.theta)


def test_params_stay_views_of_the_flat_buffers(rng):
    model = init(3, seed=5)
    assert_views_of_flat_buffers(model)
    restored = deserialize(serialize(model))
    assert_views_of_flat_buffers(restored)
    restored.load_state_arrays([a.copy() for a in init(3, seed=6).state_arrays()])
    assert_views_of_flat_buffers(restored)
    np.testing.assert_array_equal(restored.theta, init(3, seed=6).theta)

    # a training step on a loaded model must reach the weights decide reads
    feature = FeatureVector(rng.normal(10, 2, 16))
    before = restored.decide(feature).probs
    restored.zero_grads()
    batch_loss_and_grads(restored, rng.normal(10, 2, (8, 16)), np.arange(8) % 3,
                         np.arange(8) % 2 == 0, np.zeros(8), TrainConfig(), None)
    assert np.any(restored.grad != 0)
    Adam(restored.theta, restored.grad, lr=1e-2).step()
    assert restored.decide(feature).probs != before
    assert_views_of_flat_buffers(restored)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def relu_pattern(model, x: np.ndarray) -> np.ndarray:
    """Concatenated on/off pattern of every ReLU in the net, read from a
    training tape. Central differences are only valid when the pattern is
    the same at both evaluation points (the loss is piecewise-smooth in the
    parameters)."""
    _, _, tape = model.forward_batch(x)
    masks = [blk.relu for blk in tape.blocks] + [tape.action[1], tape.success[1]]
    return np.concatenate([m.ravel() for m in masks])


def run_gradient_check(n_triples: int = 100, coords_per_triple: int = 5,
                       h: float = 1e-4, seed: int = 7):
    """Compare hand-written gradients against central differences on random
    (model, input, label) triples; returns the worst relative error.
    Coordinates whose +/-h probes straddle a ReLU kink are resampled."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for accepted in range(n_triples):
        model = init(3 if accepted % 2 == 0 else 4, 16, seed=int(rng.integers(2**31)))
        x = rng.normal(0.0, 1.5, (1, 16))
        n_actions = model.n_actions
        label = np.array([int(rng.integers(n_actions))])
        success = np.array([bool(rng.integers(2))])
        steps = np.array([float(rng.integers(6))])
        kind = ("cross_entropy", "focal", "weighted_ce")[accepted % 3]
        cfg = TrainConfig(loss_kind=kind, step_penalty=0.1, focal_gamma=2.0)
        weights = rng.uniform(0.3, 4.0, n_actions)

        def value() -> float:
            out = batch_loss_and_grads(model, x, label, success, steps, cfg, weights,
                                       dropout_rng=None)
            model.zero_grads()
            return out

        model.zero_grads()
        batch_loss_and_grads(model, x, label, success, steps, cfg, weights,
                             dropout_rng=None)
        params = model.parameters()
        grads = [p.grad.copy() for p in params]
        model.zero_grads()

        checked = 0
        guard = 0
        while checked < coords_per_triple and guard < 200:
            guard += 1
            pi = int(rng.integers(len(params)))
            p = params[pi]
            idx = tuple(int(rng.integers(s)) for s in p.value.shape)
            orig = p.value[idx]

            def probe(step: float) -> float:
                p.value[idx] = orig + step
                out = value()
                p.value[idx] = orig
                return out

            p.value[idx] = orig + h
            pattern_plus = relu_pattern(model, x)
            p.value[idx] = orig - h
            pattern_minus = relu_pattern(model, x)
            p.value[idx] = orig
            if not np.array_equal(pattern_plus, pattern_minus):
                continue  # differentiability precondition violated; resample
            checked += 1
            # central differences at h and h/2, Richardson-combined to cancel
            # the O(h^2 * f''') truncation term (single-sample batch-norm
            # statistics make the curvature arbitrarily steep at some points)
            d_h = (probe(h) - probe(-h)) / (2 * h)
            d_h2 = (probe(h / 2) - probe(-h / 2)) / h
            numeric = (4 * d_h2 - d_h) / 3
            analytic = grads[pi][idx]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
            worst = max(worst, rel)
    return worst


def test_gradients_match_finite_differences():
    worst = run_gradient_check(n_triples=100, coords_per_triple=5, h=1e-4)
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


def test_save_and_load_with_sidecar(tmp_path, rng):
    from refinectl.controller import load_model, save_model
    model = init(3, 16, seed=4)
    path = tmp_path / "ctl.bin"
    save_model(path, model, metadata={"seed": 4, "loss": "focal", "dataset": "abc123"})
    restored, metadata = load_model(path)
    assert metadata == {"seed": 4, "loss": "focal", "dataset": "abc123"}
    assert serialize(restored) == serialize(model)


@pytest.mark.parametrize("sidecar", [b"{broken", b"[1, 2]", b'"seed"', b"\xff"])
def test_a_sidecar_that_is_not_a_json_object_is_a_serialization_error(tmp_path, sidecar):
    from refinectl.controller import SerializationError, load_model, save_model
    path = tmp_path / "ctl.bin"
    save_model(path, init(3, 16, seed=1))
    (tmp_path / "ctl.bin.json").write_bytes(sidecar)
    with pytest.raises(SerializationError, match="ctl.bin.json"):
        load_model(path)


def test_load_without_sidecar(tmp_path):
    from refinectl.controller import load_model, save_model
    path = tmp_path / "ctl.bin"
    save_model(path, init(3, 16, seed=1))
    _, metadata = load_model(path)
    assert metadata is None
