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
    """A trainable array. ``ControllerModel`` turns ``value`` into a view of
    its flat weight buffer and sets ``grad`` to a view of its gradient
    buffer."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class _Undrawn:
    """Stands in for the generator when every weight is loaded right after
    construction: the layers get uninitialised arrays instead of draws."""

    @staticmethod
    def uniform(low: float, high: float, size) -> np.ndarray:
        return np.empty(size)


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


def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
            stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded strided 1-D convolution of x (B, C_in, L) with
    w (C_out, C_in, K). Returns the output (B, C_out, L_out) and the input
    windows ``cols`` (B, C_in, L_out, K) that the backward pass needs.

    Both are views of channel-major buffers (channel, batch, position), so
    the contraction is one matrix product and per-channel reductions over
    batch and position read contiguous memory. Allocates its results and
    writes nothing else, so concurrent calls on shared weights are safe.
    """
    bsz, c_in, n = x.shape
    c_out, _, kernel = w.shape
    index, pad_l, padded = _windows(bsz, n, kernel, stride)
    xp = np.zeros((c_in, bsz, padded))
    xp[:, :, pad_l:pad_l + n] = x.transpose(1, 0, 2)
    windows = xp.reshape(c_in, bsz * padded)[:, index]  # (C_in, K, B, L_out)
    n_out = index.shape[2]
    out = w.reshape(c_out, c_in * kernel) @ windows.reshape(c_in * kernel, bsz * n_out)
    out += b[:, None]
    return (out.reshape(c_out, bsz, n_out).transpose(1, 0, 2),
            windows.transpose(2, 0, 3, 1))


class Conv1d:
    """Same-padded strided 1-D convolution, im2col style."""

    def __init__(self, in_ch: int, out_ch: int, kernel: int, stride: int,
                 rng: np.random.Generator):
        fan_in = in_ch * kernel
        self.in_ch, self.out_ch, self.kernel, self.stride = in_ch, out_ch, kernel, stride
        self.w = Param(_uniform(rng, (out_ch, in_ch, kernel), fan_in))
        self.b = Param(_uniform(rng, (out_ch,), fan_in))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, cols = _conv1d(x, self.w.value, self.b.value, self.stride)
        self._cache = (cols, x.shape[2])
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        cols, n = self._cache
        _, pad_l, padded = _windows(cols.shape[0], n, self.kernel, self.stride)
        self.w.grad += np.einsum("bol,bilk->oik", grad, cols, optimize=True)
        self.b.grad += grad.sum(axis=(0, 2))
        dcols = np.einsum("bol,oik->bilk", grad, self.w.value, optimize=True)
        dxp = np.zeros(cols.shape[:2] + (padded,))
        for j in range(grad.shape[2]):
            start = j * self.stride
            dxp[:, :, start:start + self.kernel] += dcols[:, :, j, :]
        return dxp[:, :, pad_l:pad_l + n]


class BatchNorm1d:
    """Per-channel batch norm over (batch, length); running stats with
    momentum 0.1 are used at inference so single-sample decisions never
    depend on batch composition."""

    momentum = 0.1

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = Param(np.ones(channels))
        self.beta = Param(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def forward(self, x: np.ndarray, train: bool, update_stats: bool = True) -> np.ndarray:
        if train:
            mean = x.mean(axis=(0, 2))
            var = x.var(axis=(0, 2))
            if update_stats:  # in place: the model's state list holds these arrays
                m = self.momentum
                self.running_mean[...] = (1 - m) * self.running_mean + m * mean
                self.running_var[...] = (1 - m) * self.running_var + m * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + _EPS_BN)
        xhat = (x - mean[None, :, None]) * inv_std[None, :, None]
        self._cache = (xhat, inv_std, x - mean[None, :, None], train, x.shape)
        return self.gamma.value[None, :, None] * xhat + self.beta.value[None, :, None]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std, centered, train, shape = self._cache
        self.gamma.grad += (grad * xhat).sum(axis=(0, 2))
        self.beta.grad += grad.sum(axis=(0, 2))
        dxhat = grad * self.gamma.value[None, :, None]
        if not train:
            return dxhat * inv_std[None, :, None]
        m = shape[0] * shape[2]
        dvar = (dxhat * centered).sum(axis=(0, 2)) * (-0.5) * inv_std ** 3
        dmean = (-dxhat * inv_std[None, :, None]).sum(axis=(0, 2)) \
            + dvar * (-2.0 / m) * centered.sum(axis=(0, 2))
        return (dxhat * inv_std[None, :, None]
                + (2.0 / m) * dvar[None, :, None] * centered
                + dmean[None, :, None] / m)


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
        self._mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


def _linear(layer: Linear, x: np.ndarray) -> np.ndarray:
    return x @ layer.w.value.T + layer.b.value


class Linear:
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features, self.out_features = in_features, out_features
        self.w = Param(_uniform(rng, (out_features, in_features), in_features))
        self.b = Param(_uniform(rng, (out_features,), in_features))
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
    """Conv1D trunk + action/success heads. Build via :func:`init`."""

    def __init__(self, n_actions: int, input_length: int, rng: np.random.Generator,
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
            self.convs.append(Conv1d(in_ch, out_ch, kernel, CONV_STRIDE, rng))
            self.bns.append(BatchNorm1d(out_ch))
            self.relus.append(ReLU())
            self.drops.append(Dropout(dropout_rate))
            in_ch = out_ch

        trunk = CONV_CHANNELS[-1]
        self.action_fc1 = Linear(trunk, HEAD_HIDDEN, rng)
        self.action_relu = ReLU()
        self.action_fc2 = Linear(HEAD_HIDDEN, n_actions, rng)
        self.success_fc1 = Linear(trunk, HEAD_HIDDEN, rng)
        self.success_relu = ReLU()
        self.success_fc2 = Linear(HEAD_HIDDEN, 1, rng)
        self._gap_length = None

        # The state order, written once: serialization, ``parameters()`` and
        # the flat buffers all follow it. Trainable entries are Params, batch
        # norm's running statistics are plain arrays.
        self._state: list[Param | np.ndarray] = []
        for conv, bn in zip(self.convs, self.bns):
            self._state += [conv.w, conv.b, bn.gamma, bn.beta, bn.running_mean, bn.running_var]
        for layer in (self.action_fc1, self.action_fc2, self.success_fc1, self.success_fc2):
            self._state += [layer.w, layer.b]
        # Every Param's value and grad become views into two flat buffers, so
        # the optimizer steps all weights with a few whole-buffer operations.
        params = self.parameters()
        self.theta = np.concatenate([p.value.ravel() for p in params])
        self.grad = np.zeros_like(self.theta)
        start = 0
        for p in params:
            stop = start + p.value.size
            p.value = self.theta[start:stop].reshape(p.value.shape)
            p.grad = self.grad[start:stop].reshape(p.value.shape)
            start = stop

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
        arrays in place, so the weights stay views of ``theta``, and zero the
        gradients."""
        targets = self.state_arrays()
        if len(arrays) != len(targets):
            raise SerializationError(f"expected {len(targets)} arrays, got {len(arrays)}")
        for target, arr in zip(targets, arrays):
            target[...] = np.reshape(arr, target.shape)
        self.zero_grads()

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
        g = np.repeat(dz[:, :, None], self._gap_length, axis=2) / self._gap_length
        for conv, bn, relu, drop in zip(reversed(self.convs), reversed(self.bns),
                                        reversed(self.relus), reversed(self.drops)):
            g = drop.backward(g)
            g = relu.backward(g)
            g = bn.backward(g)
            g = conv.backward(g)

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
    buf = io.BytesIO(blob)

    def read(n: int) -> bytes:
        if n > len(blob) - buf.tell():
            raise SerializationError("truncated model blob")
        return buf.read(n)

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
    if buf.tell() != len(blob):
        raise SerializationError(f"{len(blob) - buf.tell()} trailing bytes after the last array")
    try:
        model = ControllerModel(n_actions=n_actions, input_length=input_length,
                                rng=_Undrawn(), dropout_rate=dropout_rate)
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
