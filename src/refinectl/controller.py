"""The refinement-decision network.

A small 1-D convolutional policy: three conv blocks (64/128/256 channels,
kernels 5/5/3, stride 2, each with batch-norm, ReLU, and dropout 0.3),
a global average pool over the temporal axis, and two MLP heads off the
shared 256-vector: an action head (256 -> 128 -> n_actions) producing the
HALT/RETHINK/ALTERNATIVE(/REFUSE) distribution and a success head
(256 -> 128 -> 1) producing a sigmoid success probability. About 207k
parameters at input length 16 with 3 actions.

Everything is plain numpy with hand-written backward passes, so the
gradient path can be checked against finite differences rather than
trusted.
"""

from __future__ import annotations

import functools
import io
import json
import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .confidence import FeatureVector

_EPS_BN = 1e-5

MAGIC = b"RCN1"
FORMAT_VERSION = 1


class Action(IntEnum):
    HALT = 0
    RETHINK = 1
    ALTERNATIVE = 2
    REFUSE = 3  # valid only for 4-action models


class SerializationError(Exception):
    """Model blob is corrupt, truncated, or from another format version."""


@dataclass(frozen=True)
class Decision:
    """One controller verdict: an action, its distribution, and the
    success-head probability (exposed but not used by the default policy)."""

    action: Action
    probs: tuple[float, ...]
    success_prob: float

    def __post_init__(self) -> None:
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"probs must sum to 1 (got {total})")
        if not (0.0 <= self.success_prob <= 1.0):
            raise ValueError("success_prob must be in [0, 1]")
        if int(self.action) != _argmax(self.probs):
            raise ValueError("action must be the argmax of probs (ties -> lowest code)")

    @staticmethod
    def from_probs(probs, success_prob: float = 0.5) -> "Decision":
        probs = tuple(float(p) for p in probs)
        return Decision(action=Action(_argmax(probs)), probs=probs,
                        success_prob=float(success_prob))

    @property
    def halting(self) -> bool:
        return self.action in (Action.HALT, Action.REFUSE)


def _argmax(values: tuple[float, ...]) -> int:
    """Index of the first maximum, the tie rule of ``np.argmax``."""
    return values.index(max(values))


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

class Param:
    """A trainable array of a given shape. ``ControllerModel`` sets ``value``
    to a view of its flat weight buffer and ``grad`` to a view of its
    gradient buffer; a fresh model's ``value`` is uniform in
    +/-1/sqrt(fan_in) when ``fan_in`` is set, else the constant ``fill``."""

    __slots__ = ("shape", "fan_in", "fill", "value", "grad")

    def __init__(self, shape: tuple[int, ...], fan_in: int | None = None, fill: float = 0.0):
        self.shape, self.fan_in, self.fill = shape, fan_in, fill
        self.value = self.grad = None


@functools.lru_cache(maxsize=16)
def _windows(batch: int, n: int, kernel: int, stride: int) -> tuple[np.ndarray, int, int]:
    """Same padding for a (batch, n) input: the (K, B, L_out) gather index
    into the padded input flattened to (B * padded), the left padding and
    the padded length."""
    n_out = -(-n // stride)  # ceil division
    pad_total = max((n_out - 1) * stride + kernel - n, 0)
    padded = n + pad_total
    index = (np.arange(kernel)[:, None, None] + padded * np.arange(batch)[:, None]
             + stride * np.arange(n_out))
    index.setflags(write=False)  # shared by every caller
    return index, pad_total // 2, padded


@functools.lru_cache(maxsize=8)
def _scatter_index(channels: int, batch: int, n: int, kernel: int, stride: int) -> np.ndarray:
    """The gather index of :func:`_windows` repeated for every channel of a
    (channels, batch * padded) buffer, flat in (C, K, B, L_out) order: where
    each window element's gradient lands in the padded input."""
    index, _, padded = _windows(batch, n, kernel, stride)
    flat = (batch * padded * np.arange(channels)[:, None, None, None] + index).ravel()
    flat.setflags(write=False)  # shared by every caller
    return flat


def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
            stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded strided 1-D convolution of x (B, C_in, L) with
    w (C_out, C_in, K). Returns the output (B, C_out, L_out) and the input
    windows ``cols`` (B, C_in, L_out, K) that the backward pass needs.

    Both are views of channel-major buffers: the output of a contiguous
    (C_out, B, L_out) array, the windows of a contiguous (C_in, K, B, L_out)
    array, so the contraction is one matrix product over reshaped views and
    per-channel reductions over batch and position read contiguous memory.
    Allocates its results and writes nothing else, so concurrent calls on
    shared weights are safe.
    """
    bsz, c_in, n = x.shape
    c_out, _, kernel = w.shape
    index, pad_l, padded = _windows(bsz, n, kernel, stride)
    xp = np.zeros((c_in, bsz, padded))
    xp[:, :, pad_l:pad_l + n] = x.transpose(1, 0, 2)
    windows = np.take(xp.reshape(c_in, bsz * padded), index, axis=1)  # (C_in, K, B, L_out)
    n_out = index.shape[2]
    out = w.reshape(c_out, c_in * kernel) @ windows.reshape(c_in * kernel, bsz * n_out)
    out += b[:, None]
    return (out.reshape(c_out, bsz, n_out).transpose(1, 0, 2),
            windows.transpose(2, 0, 3, 1))


class Conv1d:
    """Same-padded strided 1-D convolution, im2col style."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int):
        fan_in = in_ch * kernel
        self.in_ch, self.out_ch, self.kernel, self.stride = in_ch, out_ch, kernel, stride
        self.w = Param((out_ch, in_ch, kernel), fan_in=fan_in)
        self.b = Param((out_ch,), fan_in=fan_in)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, cols = _conv1d(x, self.w.value, self.b.value, self.stride)
        self._cache = (cols, x.shape[2])
        return out

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate dW and db for the output gradient ``grad``
        (B, C_out, L_out) and return the input gradient (B, C_in, L), or
        None when ``input_grad`` is false (the first layer's input is data).

        With G the gradient as a (C_out, B * L_out) matrix and the cached
        windows as (C_in * K, B * L_out), dW = G @ windows.T and the window
        gradient is W.T @ G, two matrix products; the window gradient goes
        back to the padded input with one ``bincount`` over the memoised
        gather index, which adds every window element into its input position.
        """
        cols, n = self._cache
        windows = cols.transpose(1, 3, 0, 2)  # the contiguous (C_in, K, B, L_out) buffer
        c_in, kernel, bsz, n_out = windows.shape
        g = grad.transpose(1, 0, 2).reshape(self.out_ch, bsz * n_out)
        self.w.grad += (g @ windows.reshape(c_in * kernel, bsz * n_out).T).reshape(
            self.w.shape)
        self.b.grad += g.sum(axis=1)
        if not input_grad:
            return None
        dwin = self.w.value.reshape(self.out_ch, c_in * kernel).T @ g
        _, pad_l, padded = _windows(bsz, n, kernel, self.stride)
        dxp = np.bincount(_scatter_index(c_in, bsz, n, kernel, self.stride),
                          weights=dwin.ravel(), minlength=c_in * bsz * padded)
        return dxp.reshape(c_in, bsz, padded)[:, :, pad_l:pad_l + n].transpose(1, 0, 2)


class BatchNorm1d:
    """Per-channel batch norm over (batch, length); running stats with
    momentum 0.1 are used at inference so single-sample decisions never
    depend on batch composition.

    The forward pass caches only the normalised input x̂ and 1/std. In train
    mode the statistics are the batch's, and the input gradient is the
    closed form γ/std · (g − mean(g) − x̂ · mean(g · x̂)), means per channel
    over batch and position; in eval mode it is γ/std · g.
    """

    momentum = 0.1

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Param((channels,), fill=1.0)
        self.beta = Param((channels,))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool, update_stats: bool = True) -> np.ndarray:
        if train:
            mean = x.mean(axis=(0, 2))
            xhat = x - mean[None, :, None]  # centred here, scaled in place below
            var = np.square(xhat).mean(axis=(0, 2))
            if update_stats:  # in place: the model's state list holds these arrays
                m = self.momentum
                self.running_mean[...] = (1 - m) * self.running_mean + m * mean
                self.running_var[...] = (1 - m) * self.running_var + m * var
        else:
            xhat = x - self.running_mean[None, :, None]
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + _EPS_BN)
        xhat *= inv_std[None, :, None]
        self._cache = (xhat, inv_std, train)
        return self.gamma.value[None, :, None] * xhat + self.beta.value[None, :, None]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std, train = self._cache
        sum_gx = np.einsum("bcl,bcl->c", grad, xhat)
        sum_g = grad.sum(axis=(0, 2))
        self.gamma.grad += sum_gx
        self.beta.grad += sum_g
        scale = (self.gamma.value * inv_std)[None, :, None]
        if not train:
            return grad * scale
        m = grad.shape[0] * grad.shape[2]
        dx = xhat * (-sum_gx / m)[None, :, None]
        dx += grad
        dx -= (sum_g / m)[None, :, None]
        dx *= scale
        return dx


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class Dropout:
    def __init__(self, rate: float):
        self.rate = rate
        self._mask = None

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None) -> np.ndarray:
        if not train or self.rate <= 0 or rng is None:
            self._mask = None
            return x
        # the mask takes x's memory layout (channel-major in the trunk), so the
        # products here and in backward stream both operands in one order
        self._mask = np.empty_like(x)
        np.divide(rng.random(x.shape) >= self.rate, 1.0 - self.rate, out=self._mask)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


def _linear(layer: Linear, x: np.ndarray) -> np.ndarray:
    return x @ layer.w.value.T + layer.b.value


class Linear:
    def __init__(self, in_features: int, out_features: int):
        self.in_features, self.out_features = in_features, out_features
        self.w = Param((out_features, in_features), fan_in=in_features)
        self.b = Param((out_features,), fan_in=in_features)
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        return _linear(self, x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._cache
        self.w.grad += grad.T @ x
        self.b.grad += grad.sum(axis=0)
        return grad @ self.w.value


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

CONV_CHANNELS = (64, 128, 256)
CONV_KERNELS = (5, 5, 3)
CONV_STRIDE = 2
HEAD_HIDDEN = 128
DROPOUT_RATE = 0.3


class ControllerModel:
    """Conv1D trunk + action/success heads. Build via :func:`init`.

    ``rng`` draws the initial weights; with None they are left unset, for a
    caller that loads every array right after construction (:func:`deserialize`).
    """

    def __init__(self, n_actions: int, input_length: int, rng: np.random.Generator | None,
                 dropout_rate: float = DROPOUT_RATE):
        if n_actions not in (3, 4):
            raise ValueError("n_actions must be 3 or 4")
        if input_length < 8:
            raise ValueError("input_length must be >= 8")
        self.n_actions = n_actions
        self.input_length = input_length
        self.dropout_rate = dropout_rate
        self.version = FORMAT_VERSION

        self.convs: list[Conv1d] = []
        self.bns: list[BatchNorm1d] = []
        self.relus: list[ReLU] = []
        self.drops: list[Dropout] = []
        in_ch = 1
        for out_ch, kernel in zip(CONV_CHANNELS, CONV_KERNELS):
            self.convs.append(Conv1d(in_ch, out_ch, kernel, CONV_STRIDE))
            self.bns.append(BatchNorm1d(out_ch))
            self.relus.append(ReLU())
            self.drops.append(Dropout(dropout_rate))
            in_ch = out_ch

        trunk = CONV_CHANNELS[-1]
        self.action_fc1 = Linear(trunk, HEAD_HIDDEN)
        self.action_relu = ReLU()
        self.action_fc2 = Linear(HEAD_HIDDEN, n_actions)
        self.success_fc1 = Linear(trunk, HEAD_HIDDEN)
        self.success_relu = ReLU()
        self.success_fc2 = Linear(HEAD_HIDDEN, 1)
        self._gap_length = None

        # The state order, written once: serialization, ``parameters()`` and
        # the flat buffers all follow it. Trainable entries are Params, batch
        # norm's running statistics are plain arrays.
        self._state: list[Param | np.ndarray] = []
        for conv, bn in zip(self.convs, self.bns):
            self._state += [conv.w, conv.b, bn.gamma, bn.beta, bn.running_mean, bn.running_var]
        for layer in (self.action_fc1, self.action_fc2, self.success_fc1, self.success_fc2):
            self._state += [layer.w, layer.b]
        # Every Param's value and grad are views into two flat buffers, so
        # the optimizer steps all weights with a few whole-buffer operations.
        # Weights are drawn in state order, straight into their views.
        params = self.parameters()
        sizes = [math.prod(p.shape) for p in params]
        self.theta = np.empty(sum(sizes))
        self.grad = np.zeros(sum(sizes))
        start = 0
        for p, size in zip(params, sizes):
            p.value = self.theta[start:start + size].reshape(p.shape)
            p.grad = self.grad[start:start + size].reshape(p.shape)
            start += size
            if rng is None:
                continue
            if p.fan_in is None:
                p.value.fill(p.fill)
            else:
                bound = 1.0 / np.sqrt(p.fan_in)
                p.value[...] = rng.uniform(-bound, bound, size=p.shape)

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[Param]:
        return [s for s in self._state if isinstance(s, Param)]

    def zero_grads(self) -> None:
        self.grad.fill(0.0)

    def state_arrays(self) -> list[np.ndarray]:
        """All arrays needed to reproduce behaviour, in the state order set in
        ``__init__``. These are the model's own arrays, not copies."""
        return [s.value if isinstance(s, Param) else s for s in self._state]

    def load_state_arrays(self, arrays: list[np.ndarray]) -> None:
        """Copy ``arrays`` (in :meth:`state_arrays` order) into the model's
        arrays in place, so the weights stay views of ``theta``. Gradients are
        left alone: a new model's are zero, and a training step starts with
        :meth:`zero_grads`."""
        targets = self.state_arrays()
        if len(arrays) != len(targets):
            raise SerializationError(f"expected {len(targets)} arrays, got {len(arrays)}")
        for target, arr in zip(targets, arrays):
            target[...] = np.reshape(arr, target.shape)

    # -- forward / backward -------------------------------------------------

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.input_length:
            raise ValueError(f"expected input of shape (B, {self.input_length})")

    def forward_batch(self, x: np.ndarray, train: bool = False,
                      dropout_rng: np.random.Generator | None = None,
                      update_stats: bool | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Run a (B, L) batch; returns (action logits (B, A), success logits (B,)).

        The differentiable path: every layer caches what ``backward_batch``
        needs, so one model must not run it from two threads. Inference goes
        through :func:`infer` instead.
        """
        self._check_input(x)
        if update_stats is None:
            update_stats = train
        h = x[:, None, :].astype(np.float64)
        for conv, bn, relu, drop in zip(self.convs, self.bns, self.relus, self.drops):
            h = conv.forward(h)
            h = bn.forward(h, train, update_stats)
            h = relu.forward(h)
            h = drop.forward(h, train, dropout_rng)
        self._gap_length = h.shape[2]
        z = h.mean(axis=2)  # global average pool -> (B, 256)
        a = self.action_fc2.forward(self.action_relu.forward(self.action_fc1.forward(z)))
        s = self.success_fc2.forward(self.success_relu.forward(self.success_fc1.forward(z)))
        return a, s[:, 0]

    def backward_batch(self, grad_action: np.ndarray, grad_success: np.ndarray) -> None:
        """Accumulate parameter gradients given head-logit gradients."""
        da = self.action_fc1.backward(
            self.action_relu.backward(self.action_fc2.backward(grad_action)))
        ds = self.success_fc1.backward(
            self.success_relu.backward(self.success_fc2.backward(grad_success[:, None])))
        dz = da + ds
        # the pool's gradient, broadcast over the temporal axis of a
        # channel-major (C, B) copy so it streams in the trunk's memory order
        dz = np.ascontiguousarray(dz.T) / self._gap_length
        g = np.broadcast_to(dz[:, :, None], dz.shape + (self._gap_length,)).transpose(1, 0, 2)
        for i in reversed(range(len(self.convs))):
            g = self.drops[i].backward(g)
            g = self.relus[i].backward(g)
            g = self.bns[i].backward(g)
            g = self.convs[i].backward(g, input_grad=i > 0)

    def decide(self, feature: FeatureVector) -> Decision:
        return forward(self, feature)


def init(n_actions: int, input_length: int = 16, seed: int = 0) -> ControllerModel:
    """Fresh model with fan-in-scaled uniform weights; same seed, same weights."""
    rng = np.random.default_rng(seed)
    return ControllerModel(n_actions=n_actions, input_length=input_length, rng=rng)


def parameter_count(model: ControllerModel) -> int:
    return model.theta.size


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def infer(model: ControllerModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode forward of a (B, L) batch: (action logits (B, A), success
    logits (B,)).

    A pure function of the model's current parameters: batch norm is the
    per-channel affine of its running statistics, computed on each call, and
    dropout is off. It writes to no object, so any number of threads may
    call it on one model. Agrees with ``forward_batch(x, train=False)`` up to
    rounding.
    """
    model._check_input(x)
    h = x[:, None, :]
    for conv, bn in zip(model.convs, model.bns):
        h, _ = _conv1d(h, conv.w.value, conv.b.value, conv.stride)
        scale = bn.gamma.value / np.sqrt(bn.running_var + _EPS_BN)
        h *= scale[:, None]
        h += (bn.beta.value - bn.running_mean * scale)[:, None]
        np.maximum(h, 0.0, out=h)
    z = h.mean(axis=2)  # global average pool -> (B, 256)
    a = _linear(model.action_fc2, np.maximum(_linear(model.action_fc1, z), 0.0))
    s = _linear(model.success_fc2, np.maximum(_linear(model.success_fc1, z), 0.0))
    return a, s[:, 0]


def forward(model: ControllerModel, feature: FeatureVector) -> Decision:
    """Single-feature inference producing a :class:`Decision`.

    Runs :func:`infer`: dropout is off and batch norm uses running
    statistics, so repeated calls on a frozen model are bitwise stable, and
    the call is thread-safe.
    """
    if feature.length != model.input_length:
        raise ValueError(
            f"feature length {feature.length} != model input length {model.input_length}")
    logits, s_logit = infer(model, feature.bins[None, :])
    probs = tuple(softmax(logits[0]).tolist())
    s = float(s_logit[0])
    e = math.exp(-abs(s))  # the two-branch form of ``sigmoid``, on one float
    success = (1.0 if s >= 0 else e) / (1.0 + e)
    return Decision(action=Action(_argmax(probs)), probs=probs, success_prob=success)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize(model: ControllerModel) -> bytes:
    """Little-endian binary: magic, version, architecture descriptor, then
    flat float64 arrays in declared layer order."""
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", FORMAT_VERSION))
    buf.write(struct.pack("<III", model.n_actions, model.input_length, len(model.convs)))
    for conv in model.convs:
        buf.write(struct.pack("<IIII", conv.in_ch, conv.out_ch, conv.kernel, conv.stride))
    buf.write(struct.pack("<I", HEAD_HIDDEN))
    buf.write(struct.pack("<d", model.dropout_rate))
    arrays = model.state_arrays()
    buf.write(struct.pack("<I", len(arrays)))
    for arr in arrays:
        flat = np.ascontiguousarray(arr, dtype="<f8").ravel()
        buf.write(struct.pack("<Q", flat.size))
        buf.write(flat.tobytes())
    return buf.getvalue()


def deserialize(blob: bytes) -> ControllerModel:
    view = memoryview(blob)  # slices and arrays read the blob without copying it
    pos = 0

    def read(n: int) -> memoryview:
        nonlocal pos
        if n > len(view) - pos:
            raise SerializationError("truncated model blob")
        pos += n
        return view[pos - n:pos]

    if read(4) != MAGIC:
        raise SerializationError("bad magic: not a controller model blob")
    (version,) = struct.unpack("<I", read(4))
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {version} (expected {FORMAT_VERSION})")
    n_actions, input_length, n_blocks = struct.unpack("<III", read(12))
    blocks = [struct.unpack("<IIII", read(16)) for _ in range(n_blocks)]
    (head_hidden,) = struct.unpack("<I", read(4))
    (dropout_rate,) = struct.unpack("<d", read(8))

    expected_blocks = [(1 if i == 0 else CONV_CHANNELS[i - 1], CONV_CHANNELS[i],
                        CONV_KERNELS[i], CONV_STRIDE) for i in range(len(CONV_CHANNELS))]
    if n_blocks != len(expected_blocks) or [tuple(b) for b in blocks] != expected_blocks \
            or head_hidden != HEAD_HIDDEN:
        raise SerializationError("architecture descriptor does not match this build")

    (n_arrays,) = struct.unpack("<I", read(4))
    arrays = []
    for _ in range(n_arrays):
        (size,) = struct.unpack("<Q", read(8))
        arrays.append(np.frombuffer(read(size * 8), dtype="<f8"))
    if pos != len(view):
        raise SerializationError(f"{len(view) - pos} trailing bytes after the last array")
    try:
        model = ControllerModel(n_actions=n_actions, input_length=input_length,
                                rng=None, dropout_rate=dropout_rate)
        model.load_state_arrays(arrays)
    except ValueError as exc:
        raise SerializationError(f"model blob does not fit the architecture: {exc}") from exc
    return model


def save_model(path: str | Path, model: ControllerModel, metadata: dict | None = None) -> None:
    """Write the binary blob plus a JSON sidecar with training metadata."""
    path = Path(path)
    path.write_bytes(serialize(model))
    if metadata is not None:
        Path(str(path) + ".json").write_text(json.dumps(metadata, indent=2), encoding="utf-8")


def load_model(path: str | Path) -> tuple[ControllerModel, dict | None]:
    path = Path(path)
    model = deserialize(path.read_bytes())
    sidecar = Path(str(path) + ".json")
    metadata = json.loads(sidecar.read_text(encoding="utf-8")) if sidecar.exists() else None
    return model, metadata


__all__ = [
    "Action",
    "ControllerModel",
    "Decision",
    "SerializationError",
    "deserialize",
    "forward",
    "infer",
    "init",
    "load_model",
    "parameter_count",
    "save_model",
    "serialize",
    "sigmoid",
    "softmax",
]
