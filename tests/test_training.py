"""Training behaviour: separable archetypes, determinism, undersampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refinectl.confidence import ConfidenceTrace, downsample
from refinectl.controller import Action, infer
from refinectl.labeler import LabeledTrace
from refinectl.training import (
    _BLOCK,
    Adam,
    TrainConfig,
    evaluate_accuracy,
    train,
    undersample_halt,
)


def archetype_dataset(n: int, seed: int, rising_frac: float = 0.5) -> list[LabeledTrace]:
    """Separable synthetic traces: a rising tail marks HALT, a falling tail
    marks RETHINK. A threshold on the last pooled bin separates the classes
    perfectly (see separability oracle below)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        rising = rng.random() < rising_frac
        n_tokens = int(rng.integers(80, 240))
        base = rng.normal(15.0, 0.5)
        values = rng.normal(base, 0.4, n_tokens)
        tail = max(4, n_tokens // 5)
        values[-tail:] += 4.0 if rising else -4.0
        trace = ConfidenceTrace(values)
        out.append(LabeledTrace(
            feature=downsample(trace, 16),
            label=Action.HALT if rising else Action.RETHINK,
            t=int(rng.integers(3)),
            problem_id=f"p{i}",
        ))
    return out


def threshold_oracle_accuracy(dataset) -> float:
    """Best single-threshold classifier on the final bin, by enumeration."""
    lastbin = np.array([item.feature.bins[-1] for item in dataset])
    labels = np.array([int(item.label) for item in dataset])
    candidates = np.sort(lastbin)
    best = 0.0
    for cut in candidates:
        pred = np.where(lastbin >= cut, int(Action.HALT), int(Action.RETHINK))
        best = max(best, float((pred == labels).mean()))
    return best


def test_archetypes_are_separable_by_oracle():
    data = archetype_dataset(400, seed=0)
    assert threshold_oracle_accuracy(data) >= 0.99


def test_training_reaches_95_percent_on_separable_set():
    data = archetype_dataset(2000, seed=1)
    cfg = TrainConfig(epochs=30, batch_size=32, rng_seed=0)
    model, report = train(data, cfg)
    assert report.best_val_accuracy >= 0.95
    assert len(report.epoch_losses) == 30


def test_training_deterministic_per_seed():
    data = archetype_dataset(300, seed=2)
    cfg = TrainConfig(epochs=3, batch_size=32, rng_seed=5)
    model_a, report_a = train(data, cfg)
    model_b, report_b = train(data, cfg)
    assert report_a.epoch_losses == report_b.epoch_losses
    for arr_a, arr_b in zip(model_a.state_arrays(), model_b.state_arrays()):
        np.testing.assert_array_equal(arr_a, arr_b)


def test_loss_decreases_over_first_epochs():
    data = archetype_dataset(800, seed=3)
    cfg = TrainConfig(epochs=6, batch_size=32, rng_seed=0)
    _, report = train(data, cfg)
    smoothed = np.convolve(report.epoch_losses, np.ones(3) / 3, mode="valid")
    assert all(b < a for a, b in zip(smoothed, smoothed[1:])), report.epoch_losses


def test_step_penalty_is_additive_reporting_term():
    """The step penalty adds a constant (per sample) to the loss and carries
    no gradient, so paired runs differing only in its scale produce the
    same weights; only reported losses shift."""
    data = archetype_dataset(300, seed=4)
    base = TrainConfig(epochs=3, batch_size=32, rng_seed=7, step_penalty=0.0)
    heavy = TrainConfig(epochs=3, batch_size=32, rng_seed=7, step_penalty=10.0)
    model_a, report_a = train(data, base)
    model_b, report_b = train(data, heavy)
    for arr_a, arr_b in zip(model_a.state_arrays(), model_b.state_arrays()):
        np.testing.assert_array_equal(arr_a, arr_b)
    mean_t = np.mean([item.t for item in data])
    # reported losses differ by roughly lambda * mean(t)
    assert report_b.epoch_losses[0] - report_a.epoch_losses[0] == pytest.approx(
        10.0 * mean_t, rel=0.15)
    held_out = np.stack([i.feature.bins for i in archetype_dataset(100, seed=9)])
    np.testing.assert_array_equal(infer(model_a, held_out)[0].argmax(1),
                                  infer(model_b, held_out)[0].argmax(1))


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train([], TrainConfig())


def test_single_class_warns_but_trains(caplog):
    data = [item for item in archetype_dataset(60, seed=5) if item.label is Action.HALT]
    cfg = TrainConfig(epochs=1, batch_size=16, rng_seed=0)
    import logging
    with caplog.at_level(logging.WARNING, logger="refinectl.training"):
        model, _ = train(data, cfg)
    assert any("single class" in record.message for record in caplog.records)
    assert model is not None


def test_undersampling_caps_halt_share():
    labels = np.array([0] * 90 + [1] * 6 + [2] * 4)
    keep = undersample_halt(labels, ratio=0.67, rng=np.random.default_rng(0))
    kept = labels[keep]
    halt_share = (kept == 0).mean()
    assert halt_share <= 0.67 + 1e-9
    # every minority sample survives
    assert (kept == 1).sum() == 6
    assert (kept == 2).sum() == 4


def test_undersampling_never_removes_minority(rng):
    for _ in range(20):
        labels = rng.integers(0, 3, size=rng.integers(10, 200))
        if not (labels != 0).any() or not (labels == 0).any():
            continue
        keep = undersample_halt(labels, ratio=0.5, rng=rng)
        kept = labels[keep]
        assert (kept == 1).sum() == (labels == 1).sum()
        assert (kept == 2).sum() == (labels == 2).sum()


def test_train_applies_undersampling():
    data = archetype_dataset(400, seed=6, rising_frac=0.9)
    cfg = TrainConfig(epochs=1, batch_size=32, rng_seed=0, halt_undersample_ratio=0.67)
    _, report = train(data, cfg)
    counts = report.class_counts
    total = sum(counts.values())
    assert counts[int(Action.HALT)] / total <= 0.68


def test_validation_dataset_can_be_supplied():
    train_data = archetype_dataset(300, seed=7)
    val_data = archetype_dataset(100, seed=8)
    cfg = TrainConfig(epochs=2, batch_size=32, rng_seed=0)
    model, report = train(train_data, cfg, val_dataset=val_data)
    assert report.val_size == 100
    assert report.train_size == 300
    feats = np.stack([i.feature.bins for i in val_data])
    labels = np.array([int(i.label) for i in val_data])
    assert evaluate_accuracy(model, feats, labels) == pytest.approx(
        report.val_accuracies[report.best_epoch])


def test_out_of_range_label_rejected():
    data = archetype_dataset(10, seed=0)
    bad = data + [LabeledTrace(feature=data[0].feature, label=Action.REFUSE, t=0,
                               problem_id="x")]
    with pytest.raises(ValueError):
        train(bad, TrainConfig(epochs=1), n_actions=3)


def reference_adam(values, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as a loop over arrays, one (m, v) pair each; ``grads[t][i]`` is
    the gradient of ``values[i]`` at step t + 1. Updates ``values`` in place."""
    m = [np.zeros_like(p) for p in values]
    v = [np.zeros_like(p) for p in values]
    for t, step_grads in enumerate(grads, start=1):
        b1c = 1.0 - beta1 ** t
        b2c = 1.0 - beta2 ** t
        for p, g, m_i, v_i in zip(values, step_grads, m, v):
            m_i[...] = beta1 * m_i + (1 - beta1) * g
            v_i[...] = beta2 * v_i + (1 - beta2) * g ** 2
            p -= lr * (m_i / b1c) / (np.sqrt(v_i / b2c) + eps)


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3),
                       min_size=1, max_size=6),
       steps=st.integers(1, 50), lr=st.floats(1e-5, 1.0), seed=st.integers(0, 2**31 - 1))
def test_flat_adam_matches_per_array_reference(shapes, steps, lr, seed):
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=s) for s in shapes]
    # gradients over many magnitudes, with exact zeros
    grads = [[rng.normal(size=s) * 10.0 ** rng.integers(-8, 4) * (rng.random(s) > 0.2)
              for s in shapes] for _ in range(steps)]
    theta = np.concatenate([p.ravel() for p in values])
    grad = np.zeros_like(theta)
    optimizer = Adam(theta, grad, lr)
    for step_grads in grads:
        grad[...] = np.concatenate([g.ravel() for g in step_grads])
        optimizer.step()
    reference_adam(values, grads, lr)
    assert theta.tobytes() == np.concatenate([p.ravel() for p in values]).tobytes()


def test_flat_adam_exact_over_several_blocks():
    """A buffer that spans several of the step's blocks and ends mid-block
    steps bitwise like the per-array reference."""
    rng = np.random.default_rng(4)
    sizes = (_BLOCK + 3, 2 * _BLOCK - 7, 1000)  # 3 blocks + 996
    values = [rng.normal(size=n) for n in sizes]
    grads = [[rng.normal(size=n) * 10.0 ** rng.integers(-8, 2, n) * (rng.random(n) > 0.2)
              for n in sizes] for _ in range(5)]
    theta = np.concatenate(values)
    grad = np.zeros_like(theta)
    optimizer = Adam(theta, grad, lr=1e-3)
    for step_grads in grads:
        grad[...] = np.concatenate(step_grads)
        optimizer.step()
    reference_adam(values, grads, lr=1e-3)
    assert theta.tobytes() == np.concatenate(values).tobytes()
