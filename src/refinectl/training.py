"""Supervised training for the refinement-decision network.

Loss variants for class imbalance: plain cross-entropy, focal loss
(down-weights well-classified samples by (1-p)^gamma), and weighted
cross-entropy with smoothed inverse-frequency class weights. Every variant
adds a per-sample step penalty lambda*t and a unit-weight BCE term on the
success head. The step penalty is an additive constant with respect to the
weights, so it shows up in reported losses but carries no gradient.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .controller import Action, ControllerModel, infer, init, sigmoid, softmax

logger = logging.getLogger(__name__)

_EPS = 1e-12  # clamp on log arguments

LOSS_KINDS = ("cross_entropy", "focal", "weighted_ce")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 30
    step_penalty: float = 0.1
    loss_kind: str = "cross_entropy"
    focal_gamma: float = 2.0
    halt_undersample_ratio: float | None = None
    rng_seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.step_penalty < 0:
            raise ValueError("step_penalty must be >= 0")
        if self.focal_gamma < 0:
            raise ValueError("focal_gamma must be >= 0")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.halt_undersample_ratio is not None and not (0 < self.halt_undersample_ratio < 1):
            raise ValueError("halt_undersample_ratio must be in (0, 1)")
        if not (0.0 < self.val_fraction < 1.0):
            raise ValueError("val_fraction must be in (0, 1)")


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_accuracy: float = 0.0
    class_counts: dict[int, int] = field(default_factory=dict)
    train_size: int = 0
    val_size: int = 0


def class_weights(counts, smoothing: float) -> np.ndarray:
    """Smoothed inverse-frequency weights: (N / (K * n_c)) ** s.

    Balanced classes give all-ones for any smoothing; s=0 flattens any
    imbalance to ones; s=0.5 dampens an 18x raw ratio to about 4.2x.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 1:
        raise ValueError("counts must be a non-empty 1-D sequence")
    if np.any(counts <= 0):
        raise ValueError("every class must have at least one sample")
    raw = counts.sum() / (counts.size * counts)
    return raw ** smoothing


def _action_term(p_label: float, label: int, cfg: TrainConfig,
                 weights: np.ndarray | None) -> float:
    q = max(p_label, _EPS)
    if cfg.loss_kind == "cross_entropy":
        return -float(np.log(q))
    w = 1.0 if weights is None else float(weights[label])
    if cfg.loss_kind == "weighted_ce":
        return -w * float(np.log(q))
    # focal
    return -w * (1.0 - q) ** cfg.focal_gamma * float(np.log(q))


def loss(probs, success_prob: float, label: Action | int, success_label: bool,
         t: int, cfg: TrainConfig, weights=None) -> float:
    """Per-sample loss value on already-softmaxed outputs.

    action term (per cfg.loss_kind) + step_penalty * t
    + binary cross-entropy on the success head (unit weight).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if abs(probs.sum() - 1.0) > 1e-6 or np.any(probs < 0):
        raise ValueError("probs must be a valid distribution")
    label = int(label)
    if not (0 <= label < probs.size):
        raise ValueError("label out of range")
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    value = _action_term(float(probs[label]), label, cfg, w)
    value += cfg.step_penalty * t
    s = min(max(float(success_prob), _EPS), 1.0 - _EPS)
    value += -(np.log(s) if success_label else np.log(1.0 - s))
    return float(value)


# ---------------------------------------------------------------------------
# Batch loss + gradients (on logits, for the training loop and grad checks)
# ---------------------------------------------------------------------------

def batch_loss_and_grads(
    model: ControllerModel,
    x: np.ndarray,
    labels: np.ndarray,
    success_labels: np.ndarray,
    steps: np.ndarray,
    cfg: TrainConfig,
    weights: np.ndarray | None,
    dropout_rng: np.random.Generator | None = None,
) -> float:
    """Forward the batch in train mode, accumulate parameter gradients of
    the mean loss, and return its value. Gradients are added into
    ``model.grad``; call ``model.zero_grads()`` first when starting a fresh
    step."""
    b = x.shape[0]
    logits, s_logits, tape = model.forward_batch(x, dropout_rng)
    probs = softmax(logits)
    q = np.clip(probs[np.arange(b), labels], _EPS, 1.0 - _EPS)
    s = np.clip(sigmoid(s_logits), _EPS, 1.0 - _EPS)
    y = success_labels.astype(np.float64)

    if cfg.loss_kind == "cross_entropy":
        w = np.ones(b)
        action_losses = -np.log(q)
        # dL/dq for CE handled via the standard softmax shortcut below
        focal_factor = None
    else:
        w = (np.ones(b) if weights is None else weights[labels]).astype(np.float64)
        if cfg.loss_kind == "weighted_ce":
            action_losses = -w * np.log(q)
            focal_factor = None
        else:
            focal_factor = (1.0 - q) ** cfg.focal_gamma
            action_losses = -w * focal_factor * np.log(q)

    success_losses = -(y * np.log(s) + (1.0 - y) * np.log(1.0 - s))
    total = float(np.mean(action_losses + cfg.step_penalty * steps + success_losses))

    # gradient wrt action logits
    onehot = np.zeros_like(probs)
    onehot[np.arange(b), labels] = 1.0
    if focal_factor is None:
        dlogits = w[:, None] * (probs - onehot) / b
    else:
        g = cfg.focal_gamma
        # dL/dq = w * (g*(1-q)^(g-1)*log q - (1-q)^g / q); dq/dz = q*(onehot - p).
        # q <= 1 - 1e-12, so (1-q)^(g-1) stays finite for 0 < g < 1.
        dLdq = w * (g * (1.0 - q) ** (g - 1.0) * np.log(q)
                    - focal_factor / q) if g > 0 else -w / q
        dlogits = (dLdq * q)[:, None] * (onehot - probs) / b

    ds_logits = (s - y) / b
    model.backward_batch(tape, dlogits, ds_logits)
    return total


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

_BLOCK = 1 << 15  # elements per Adam pass: the six 256 KiB slices of a block stay in cache


class Adam:
    """Adam with beta=(0.9, 0.999), eps=1e-8, on one flat parameter buffer
    ``theta`` and its gradient ``grad`` (``ControllerModel.theta`` and
    ``.grad``). ``step`` updates ``theta`` in place."""

    def __init__(self, theta: np.ndarray, grad: np.ndarray, lr: float):
        self.theta, self.grad = theta, grad
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        # scratch for one block: no full-size temporaries per step
        self._num = np.empty(min(theta.size, _BLOCK))
        self._den = np.empty_like(self._num)
        self.t = 0

    def step(self) -> None:
        """theta -= lr * (m / b1c) / (sqrt(v / b2c) + eps), one operation at a
        time in the textbook expression's order, so it rounds identically.
        They run one cache-sized block at a time, which changes no element's
        sequence of operations."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for lo in range(0, self.theta.size, _BLOCK):
            theta, m, v, g = (a[lo:lo + _BLOCK] for a in (self.theta, self.m, self.v, self.grad))
            num, den = self._num[:g.size], self._den[:g.size]
            m *= self.beta1  # m = beta1 * m + (1 - beta1) * g
            np.multiply(g, 1 - self.beta1, out=num)
            m += num
            v *= self.beta2  # v = beta2 * v + (1 - beta2) * g ** 2
            np.square(g, out=num)
            num *= 1 - self.beta2
            v += num
            np.divide(v, b2c, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            np.divide(m, b1c, out=num)
            num *= self.lr
            num /= den
            theta -= num


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def undersample_halt(labels: np.ndarray, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Indices after downsampling HALT so it makes up at most ``ratio`` of the
    result. Minority-class samples are never removed."""
    halt_idx = np.flatnonzero(labels == int(Action.HALT))
    other_idx = np.flatnonzero(labels != int(Action.HALT))
    if other_idx.size == 0 or halt_idx.size == 0:
        return np.arange(labels.size)
    target_halt = int(np.floor(ratio / (1.0 - ratio) * other_idx.size))
    if halt_idx.size > target_halt:
        halt_idx = rng.choice(halt_idx, size=max(target_halt, 1), replace=False)
    keep = np.sort(np.concatenate([halt_idx, other_idx]))
    return keep


def _extract_arrays(dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    feats = np.stack([np.asarray(item.feature.bins, dtype=np.float64) for item in dataset])
    labels = np.array([int(item.label) for item in dataset], dtype=np.int64)
    steps = np.array([int(item.t) for item in dataset], dtype=np.float64)
    return feats, labels, steps


def train(dataset, cfg: TrainConfig, n_actions: int = 3,
          val_dataset=None) -> tuple[ControllerModel, TrainReport]:
    """Train from scratch on labeled traces.

    ``dataset`` items need ``feature`` (FeatureVector), ``label`` (action
    code), and ``t`` (iteration). Success labels are label == HALT, since
    the oracle assigns HALT exactly to traces whose answer was correct.
    When no ``val_dataset`` is given, ``cfg.val_fraction`` of the shuffled
    data is held out. The weights returned are the ones with the best
    validation accuracy (first epoch wins ties).
    """
    if not dataset:
        raise ValueError("dataset is empty")
    feats, labels, steps = _extract_arrays(dataset)
    if labels.max() >= n_actions:
        raise ValueError("label out of range for n_actions")
    input_length = feats.shape[1]

    unique = np.unique(labels)
    if unique.size == 1:
        logger.warning("dataset has a single class (%s); training anyway",
                       Action(int(unique[0])).name)

    rng = np.random.default_rng(cfg.rng_seed)

    if val_dataset is not None:
        val_feats, val_labels, _ = _extract_arrays(val_dataset)
    else:
        perm = rng.permutation(len(labels))
        n_val = max(1, int(round(cfg.val_fraction * len(labels))))
        val_sel, train_sel = perm[:n_val], perm[n_val:]
        if train_sel.size == 0:
            train_sel = val_sel
        val_feats, val_labels = feats[val_sel], labels[val_sel]
        feats, labels, steps = feats[train_sel], labels[train_sel], steps[train_sel]

    if cfg.halt_undersample_ratio is not None:
        keep = undersample_halt(labels, cfg.halt_undersample_ratio, rng)
        feats, labels, steps = feats[keep], labels[keep], steps[keep]

    counts = np.bincount(labels, minlength=n_actions)
    if cfg.loss_kind in ("focal", "weighted_ce"):
        weights = class_weights(np.maximum(counts, 1), smoothing=0.5)
    else:
        weights = None

    model = init(n_actions=n_actions, input_length=input_length, seed=cfg.rng_seed)
    optimizer = Adam(model.theta, model.grad, lr=cfg.learning_rate)
    success = (labels == int(Action.HALT))

    report = TrainReport(class_counts={int(c): int(n) for c, n in enumerate(counts)},
                         train_size=len(labels), val_size=len(val_labels))
    best_state: list[np.ndarray] | None = None

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(labels))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            model.zero_grads()
            batch_loss = batch_loss_and_grads(
                model, feats[sel], labels[sel], success[sel], steps[sel],
                cfg, weights, dropout_rng=rng)
            optimizer.step()
            epoch_loss += batch_loss * len(sel)
        report.epoch_losses.append(epoch_loss / len(labels))

        val_acc = evaluate_accuracy(model, val_feats, val_labels)
        report.val_accuracies.append(val_acc)
        if val_acc > report.best_val_accuracy or best_state is None:
            report.best_val_accuracy = val_acc
            report.best_epoch = epoch
            best_state = [arr.copy() for arr in model.state_arrays()]
        logger.debug("epoch %d: loss=%.4f val_acc=%.4f", epoch,
                     report.epoch_losses[-1], val_acc)

    assert best_state is not None
    model.load_state_arrays(best_state)
    return model, report


def evaluate_accuracy(model: ControllerModel, feats: np.ndarray, labels: np.ndarray) -> float:
    if len(labels) == 0:
        return 0.0
    logits, _ = infer(model, feats)
    pred = logits.argmax(axis=1)
    return float((pred == labels).mean())


__all__ = [
    "Adam",
    "TrainConfig",
    "TrainReport",
    "batch_loss_and_grads",
    "class_weights",
    "evaluate_accuracy",
    "loss",
    "train",
    "undersample_halt",
]
