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
trusted. The weights are plain records over one flat buffer, and the layers
are module-level functions. Training is a forward pass that returns a tape
(``forward_batch``) plus a backward pass that consumes it
(``backward_batch``); :func:`infer` is the only eval path.
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
from typing import NamedTuple

import numpy as np

from .confidence import FeatureVector

_EPS_BN = 1e-5
_BN_MOMENTUM = 0.1

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


def _argmax(values: tuple[float, ...]) -> int:
    """Index of the first maximum, the tie rule of ``np.argmax``."""
    return values.index(max(values))


# ---------------------------------------------------------------------------
# Weights and the training tape
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


class ConvBlock(NamedTuple):
    """One trunk block's weights, fields in state order: the conv kernel
    (C_out, C_in, K) and bias, batch norm's scale and shift, and its running
    statistics (momentum 0.1), which inference normalises with so that a
    single-sample decision never depends on batch composition."""

    w: Param
    b: Param
    gamma: Param
    beta: Param
    running_mean: np.ndarray
    running_var: np.ndarray


class Dense(NamedTuple):
    """A head layer: weight (out, in) and bias."""

    w: Param
    b: Param


def _dense(in_features: int, out_features: int) -> Dense:
    return Dense(Param((out_features, in_features), fan_in=in_features),
                 Param((out_features,), fan_in=in_features))


class BlockTape(NamedTuple):
    """What one trunk block's backward pass reads."""

    windows: np.ndarray  # the conv's input windows (C_in, K, B, L_out)
    n: int  # the conv's input length
    xhat: np.ndarray  # batch norm's normalised input
    inv_std: np.ndarray
    relu: np.ndarray  # the ReLU's on/off mask
    keep: np.ndarray | None  # dropout's scaled keep mask; None when dropout is off


class Tape(NamedTuple):
    """One train-mode forward pass, as :meth:`ControllerModel.backward_batch`
    reads it; it refers to no model state, so several may be alive. Each
    head's entry is its hidden ReLU output and that ReLU's mask."""

    blocks: list[BlockTape]
    z: np.ndarray  # the pooled trunk output (B, 256)
    action: tuple[np.ndarray, np.ndarray]
    success: tuple[np.ndarray, np.ndarray]


# ---------------------------------------------------------------------------
# Layer functions
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _windows(batch: int, n: int, kernel: int, stride: int) -> np.ndarray:
    """Same padding for a (batch, n) input flattened to (batch * n) columns
    and followed by one zero column: the (K, B, L_out) gather index of every
    window element, with each tap that falls in the padding sent to that
    zero column (index batch * n)."""
    n_out = -(-n // stride)  # ceil division
    pad_l = max((n_out - 1) * stride + kernel - n, 0) // 2
    pos = np.arange(kernel)[:, None, None] + stride * np.arange(n_out) - pad_l  # (K, 1, L_out)
    index = np.where((pos >= 0) & (pos < n), pos + n * np.arange(batch)[:, None], batch * n)
    index.setflags(write=False)  # shared by every caller
    return index


@functools.lru_cache(maxsize=8)
def _scatter_index(channels: int, batch: int, n: int, kernel: int, stride: int) -> np.ndarray:
    """The gather index of :func:`_windows` repeated for every channel of a
    (channels, batch * n + 1) buffer, flat in (C, K, B, L_out) order: where
    each window element's gradient lands in the input or, for a pad tap, in
    the channel's zero column."""
    flat = ((batch * n + 1) * np.arange(channels)[:, None, None, None]
            + _windows(batch, n, kernel, stride)).ravel()
    flat.setflags(write=False)  # shared by every caller
    return flat


def _conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray,
            stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Same-padded strided 1-D convolution of the channel-major activations
    x (C_in, B, L) with w (C_out, C_in, K). Returns the output as a
    contiguous channel-major (C_out, B, L_out) array and the input windows,
    a contiguous (C_in, K, B, L_out) array that the backward pass reads.

    The windows are gathered straight from x as a (C_in, B * L) matrix with
    one zero column appended, which every pad tap reads, so the contraction
    is one matrix product and per-channel reductions over batch and position
    read contiguous memory. Allocates its results and writes nothing else,
    so concurrent calls on shared weights are safe.
    """
    c_in, bsz, n = x.shape
    c_out, _, kernel = w.shape
    index = _windows(bsz, n, kernel, stride)
    flat = np.concatenate((x.reshape(c_in, bsz * n), np.zeros((c_in, 1))), axis=1)
    windows = flat.take(index, axis=1)
    n_out = index.shape[2]
    out = w.reshape(c_out, c_in * kernel) @ windows.reshape(c_in * kernel, bsz * n_out)
    out += b[:, None]
    return out.reshape(c_out, bsz, n_out), windows


def _global_pool(h: np.ndarray) -> np.ndarray:
    """The mean of ``h`` (B, C, L) over positions, (B, C). Two positions are
    added as two columns: the sum ``mean`` takes, without its loop over a
    length-2 axis."""
    if h.shape[2] == 2:
        return (h[:, :, 0] + h[:, :, 1]) / 2
    return h.mean(axis=2)


def _conv1d_backward(grad: np.ndarray, windows: np.ndarray, w: np.ndarray, n: int, stride: int,
                     input_grad: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Gradients of :func:`_conv1d` for the output gradient ``grad``
    (B, C_out, L_out), given its ``windows`` (C_in, K, B, L_out) and input
    length ``n``: (dW, db, dx (B, C_in, n)), with dx None when
    ``input_grad`` is false (the first block's input is data).

    With G the gradient as a (C_out, B * L_out) matrix and the windows as
    (C_in * K, B * L_out), dW = G @ windows.T and the window gradient is
    W.T @ G, two matrix products; the window gradient goes back to the
    input with one ``bincount`` over the memoised gather index, which adds
    every window element into its input position (and every pad tap into
    the zero column, which is dropped).
    """
    c_in, kernel, bsz, n_out = windows.shape
    c_out = w.shape[0]
    g = grad.transpose(1, 0, 2).reshape(c_out, bsz * n_out)
    dw = (g @ windows.reshape(c_in * kernel, bsz * n_out).T).reshape(w.shape)
    db = g.sum(axis=1)
    if not input_grad:
        return dw, db, None
    dwin = w.reshape(c_out, c_in * kernel).T @ g
    dxp = np.bincount(_scatter_index(c_in, bsz, n, kernel, stride),
                      weights=dwin.ravel(), minlength=c_in * (bsz * n + 1))
    return dw, db, dxp.reshape(c_in, bsz * n + 1)[:, :-1].reshape(c_in, bsz, n).transpose(1, 0, 2)


def _batchnorm_train(x: np.ndarray, gamma: np.ndarray,
                     beta: np.ndarray) -> tuple[np.ndarray, ...]:
    """Batch norm of x (B, C, L) with the batch's per-channel statistics
    over batch and position: (output, x̂, 1/std, mean, variance)."""
    mean = x.mean(axis=(0, 2))
    xhat = x - mean[None, :, None]  # centred here, scaled in place below
    var = np.square(xhat).mean(axis=(0, 2))
    inv_std = 1.0 / np.sqrt(var + _EPS_BN)
    xhat *= inv_std[None, :, None]
    return gamma[None, :, None] * xhat + beta[None, :, None], xhat, inv_std, mean, var


def _batchnorm_backward(grad: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                        gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of :func:`_batchnorm_train`: (dγ, dβ, dx), with dx the
    closed form γ/std · (g − mean(g) − x̂ · mean(g · x̂)), means per channel
    over batch and position."""
    sum_gx = np.einsum("bcl,bcl->c", grad, xhat)
    sum_g = grad.sum(axis=(0, 2))
    m = grad.shape[0] * grad.shape[2]
    dx = xhat * (-sum_gx / m)[None, :, None]
    dx += grad
    dx -= (sum_g / m)[None, :, None]
    dx *= (gamma * inv_std)[None, :, None]
    return sum_gx, sum_g, dx


def _relu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU output and its on/off mask, the factor of the backward pass."""
    mask = x > 0
    return x * mask, mask


def _linear(layer: Dense, x: np.ndarray) -> np.ndarray:
    return x @ layer.w.value.T + layer.b.value


def _head_backward(fc1: Dense, fc2: Dense, z: np.ndarray, hidden: np.ndarray,
                   mask: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Add fc1's and fc2's weight gradients for the head-output gradient
    ``grad``; returns the gradient of the head input ``z``."""
    fc2.w.grad += grad.T @ hidden
    fc2.b.grad += grad.sum(axis=0)
    grad = (grad @ fc2.w.value) * mask
    fc1.w.grad += grad.T @ z
    fc1.b.grad += grad.sum(axis=0)
    return grad @ fc1.w.value


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

        self.blocks = []
        for in_ch, out_ch, kernel in zip((1,) + CONV_CHANNELS[:-1], CONV_CHANNELS,
                                         CONV_KERNELS):
            fan_in = in_ch * kernel
            self.blocks.append(ConvBlock(
                Param((out_ch, in_ch, kernel), fan_in=fan_in), Param((out_ch,), fan_in=fan_in),
                Param((out_ch,), fill=1.0), Param((out_ch,)), np.zeros(out_ch), np.ones(out_ch)))
        trunk = CONV_CHANNELS[-1]
        self.action_fc1 = _dense(trunk, HEAD_HIDDEN)
        self.action_fc2 = _dense(HEAD_HIDDEN, n_actions)
        self.success_fc1 = _dense(trunk, HEAD_HIDDEN)
        self.success_fc2 = _dense(HEAD_HIDDEN, 1)

        # The state order, written once: serialization, ``parameters()`` and
        # the flat buffers all follow it. Trainable entries are Params, batch
        # norm's running statistics are plain arrays.
        self._state: list[Param | np.ndarray] = []
        for record in self.blocks + [self.action_fc1, self.action_fc2,
                                     self.success_fc1, self.success_fc2]:
            self._state += record
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

    # -- training: a forward that records a tape, a backward that reads it ---

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.input_length:
            raise ValueError(f"expected input of shape (B, {self.input_length})")

    def forward_batch(self, x: np.ndarray, dropout_rng: np.random.Generator | None = None
                      ) -> tuple[np.ndarray, np.ndarray, Tape]:
        """Train-mode forward of a (B, L) batch: (action logits (B, A),
        success logits (B,), the tape for :meth:`backward_batch`). Batch norm
        uses the batch's statistics and moves the running ones toward them;
        dropout applies when ``dropout_rng`` is given and the rate is > 0."""
        self._check_input(x)
        dropout = dropout_rng is not None and self.dropout_rate > 0
        h = x[:, None, :].astype(np.float64)
        blocks = []
        for blk in self.blocks:
            n = h.shape[2]
            # the conv takes and gives channel-major (C, B, L) arrays; the
            # rest of the block works on their (B, C, L) views
            out, windows = _conv1d(h.transpose(1, 0, 2), blk.w.value, blk.b.value, CONV_STRIDE)
            h, xhat, inv_std, mean, var = _batchnorm_train(
                out.transpose(1, 0, 2), blk.gamma.value, blk.beta.value)
            # in place: the model's state list holds these arrays
            blk.running_mean[...] = (1 - _BN_MOMENTUM) * blk.running_mean + _BN_MOMENTUM * mean
            blk.running_var[...] = (1 - _BN_MOMENTUM) * blk.running_var + _BN_MOMENTUM * var
            h, relu = _relu(h)
            keep = None
            if dropout:
                # the mask takes h's memory layout (channel-major), so the
                # products here and in backward stream both operands in one order
                keep = np.empty_like(h)
                np.divide(dropout_rng.random(h.shape) >= self.dropout_rate,
                          1.0 - self.dropout_rate, out=keep)
                h = h * keep
            blocks.append(BlockTape(windows, n, xhat, inv_std, relu, keep))
        z = _global_pool(h)  # global average pool -> (B, 256)
        action, success = _relu(_linear(self.action_fc1, z)), _relu(_linear(self.success_fc1, z))
        return (_linear(self.action_fc2, action[0]), _linear(self.success_fc2, success[0])[:, 0],
                Tape(blocks, z, action, success))

    def backward_batch(self, tape: Tape, grad_action: np.ndarray,
                       grad_success: np.ndarray) -> None:
        """Add into ``grad`` the parameter gradients for the head-logit
        gradients (B, A) and (B,) of the forward pass that made ``tape``."""
        dz = (_head_backward(self.action_fc1, self.action_fc2, tape.z, *tape.action,
                             grad_action)
              + _head_backward(self.success_fc1, self.success_fc2, tape.z, *tape.success,
                               grad_success[:, None]))
        # the pool's gradient, broadcast over the temporal axis of a
        # channel-major (C, B) copy so it streams in the trunk's memory order
        length = tape.blocks[-1].relu.shape[2]
        dz = np.ascontiguousarray(dz.T) / length
        g = np.broadcast_to(dz[:, :, None], dz.shape + (length,)).transpose(1, 0, 2)
        for i in reversed(range(len(self.blocks))):
            blk, step = self.blocks[i], tape.blocks[i]
            if step.keep is not None:
                g = g * step.keep
            g = g * step.relu
            dgamma, dbeta, g = _batchnorm_backward(g, step.xhat, step.inv_std, blk.gamma.value)
            blk.gamma.grad += dgamma
            blk.beta.grad += dbeta
            dw, db, g = _conv1d_backward(g, step.windows, blk.w.value, step.n, CONV_STRIDE,
                                         input_grad=i > 0)
            blk.w.grad += dw
            blk.b.grad += db

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


# Rows per block of one eval pass: a larger batch runs as consecutive blocks,
# so the conv windows held at once stay one block's (about 7.4 MB) whatever
# the batch size. 64-row blocks hold less but cost more CPU: they leave
# glibc's trim threshold low, so the training steps between two evaluations
# fault their buffers back in.
_INFER_ROWS = 256


def infer(model: ControllerModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode forward of a (B, L) batch: (action logits (B, A), success
    logits (B,)).

    A pure function of the model's current parameters: batch norm is the
    per-channel affine of its running statistics, computed on each call, and
    dropout is off. It writes to no object, so any number of threads may
    call it on one model. This is the model's only eval-mode path. A batch
    of more than ``_INFER_ROWS`` rows runs as consecutive blocks of that
    many, whose logits are concatenated.

    Each trunk block's activations stay one contiguous channel-major
    (C, B, L) array: :func:`_conv1d` gathers the next windows straight from
    it, and batch norm's affine and the ReLU are applied to it in place.
    """
    model._check_input(x)
    if len(x) > _INFER_ROWS:
        blocks = [infer(model, x[i:i + _INFER_ROWS]) for i in range(0, len(x), _INFER_ROWS)]
        return (np.concatenate([a for a, _ in blocks]),
                np.concatenate([s for _, s in blocks]))
    h = x[None]  # channel-major (C, B, L) from here on
    for blk in model.blocks:
        h, _ = _conv1d(h, blk.w.value, blk.b.value, CONV_STRIDE)
        scale = blk.gamma.value / np.sqrt(blk.running_var + _EPS_BN)
        h *= scale[:, None, None]
        h += (blk.beta.value - blk.running_mean * scale)[:, None, None]
        np.maximum(h, 0.0, out=h)
    z = _global_pool(h.transpose(1, 0, 2))  # global average pool -> (B, 256)
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
    buf.write(struct.pack("<III", model.n_actions, model.input_length, len(model.blocks)))
    for blk in model.blocks:
        c_out, c_in, kernel = blk.w.shape
        buf.write(struct.pack("<IIII", c_in, c_out, kernel, CONV_STRIDE))
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
    """The model at ``path`` and its sidecar's metadata, or None without
    one. A sidecar that is not a JSON object raises ``SerializationError``."""
    path = Path(path)
    model = deserialize(path.read_bytes())
    sidecar = Path(str(path) + ".json")
    if not sidecar.exists():
        return model, None
    try:
        metadata = json.loads(sidecar.read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise SerializationError(f"{sidecar}: not JSON: {exc}") from exc
    if not isinstance(metadata, dict):
        raise SerializationError(f"{sidecar}: not a JSON object")
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
