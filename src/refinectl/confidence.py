"""Confidence traces and fixed-length feature vectors.

Token confidence at position i is the negative mean of the top-k token
logprobs there: peaked next-token distributions concentrate probability in
the top alternatives and score low in magnitude, spread-out distributions
score high. A full completion yields a confidence trace C_1..C_N, which is
average-pooled down to a fixed number of bins for the controller, optionally
z-scored against per-iteration baselines, and summarized into the statistics
the labeling heuristics and compaction use.

All functions here are pure; concurrent use needs no coordination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

DEFAULT_BINS = 16


@dataclass(frozen=True, eq=False)
class ConfidenceTrace:
    """Per-token confidence values for one completion."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("trace must be a non-empty 1-D array")
        object.__setattr__(self, "values", arr)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConfidenceTrace) and np.array_equal(self.values, other.values)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class FeatureVector:
    """Fixed-length pooled trace; the controller's sole input.

    ``iteration`` is the generation index the trace came from (0 for the
    first attempt) and drives per-iteration normalization.
    """

    bins: np.ndarray
    iteration: int = 0
    normalized: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.bins, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("bins must be a non-empty 1-D array")
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")
        object.__setattr__(self, "bins", arr)

    @property
    def length(self) -> int:
        return int(self.bins.size)


@dataclass(frozen=True)
class NormalizationTable:
    """Per-iteration z-score baselines (mu_t, sigma_t) for t = 0, 1, 2+."""

    mu: tuple[float, float, float] = (15.65, 12.94, 8.5)
    sigma: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if len(self.mu) != 3 or len(self.sigma) != 3:
            raise ValueError("table needs rows for iterations 0, 1, and 2+")
        if not all(math.isfinite(v) for v in (*self.mu, *self.sigma)):
            raise ValueError("mu and sigma must be finite")
        if any(s <= 0 for s in self.sigma):
            raise ValueError("sigma must be positive")

    def row(self, iteration: int) -> tuple[float, float]:
        idx = min(max(iteration, 0), 2)
        return self.mu[idx], self.sigma[idx]


DEFAULT_NORMALIZATION = NormalizationTable()


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of one trace.

    head/mid/tail are the means of the first 10%, central 80%, and final
    10% of tokens; for traces shorter than 10 tokens all three equal the
    full-trace mean. ``slope`` is the least-squares trend of the pooled
    bins over normalized bin position in [0, 1], so it is comparable
    across trace lengths. ``cv`` is std/|mean|.

    ``bins`` is the pooled trace the slope was fitted to, the bins
    :func:`downsample` gives at the same length, so a caller that needs
    that feature does not pool again. It takes no part in equality.
    """

    mean: float
    min: float
    head_mean: float
    mid_mean: float
    tail_mean: float
    slope: float
    cv: float
    bins: np.ndarray | None = field(default=None, compare=False, repr=False)


def token_confidence(entries: Sequence[float], k: int) -> float:
    """Negative mean logprob over the top-k' entries, k' = min(k, available).

    Endpoints sometimes return fewer than k alternatives; averaging over
    what is available degrades gracefully instead of failing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(entries) == 0:
        raise ValueError("no logprob entries: cannot score an empty distribution")
    use = np.asarray(entries[: min(k, len(entries))], dtype=np.float64)
    return float(-use.mean())


def build_trace(values: np.ndarray, counts: np.ndarray, k: int) -> ConfidenceTrace:
    """Score every output position from row-major logprobs, ``counts[i]`` of
    them in row i in served order: ``token_confidence`` of each row sorted
    descending, as one masked row mean.

    Rows are padded with -inf only when they are ragged, and sorted only when
    k < w. They are summed as given and only the sums negated, so no negated
    copy of them is made; ``0.0 - total`` keeps a zero confidence +0.0, the
    sign a sum of negated rows gets from its +0.0 start."""
    if k < 1 or counts.size == 0:
        raise ValueError(f"need k >= 1 (got {k}) and at least one logprob row")
    width = int(counts.max())
    if values.size == counts.size * width:  # every row full: nothing to pad
        rows = values.reshape(-1, width)
    else:
        rows = np.full((counts.size, width), -np.inf)
        rows[np.arange(width) < counts[:, None]] = values
    if k < width:  # each row's k largest, largest first; the padding sorts last
        rows = np.sort(rows, axis=1)[:, ::-1][:, :k]
    take = np.minimum(counts, k)
    total = rows.sum(axis=1, where=np.arange(rows.shape[1]) < take[:, None])
    return ConfidenceTrace((0.0 - total) / take)


def downsample(trace: ConfidenceTrace, length: int = DEFAULT_BINS, iteration: int = 0) -> FeatureVector:
    """Average-pool a trace to a fixed number of bins.

    Bin j (1-based) covers token indices [floor((j-1)*N/L), floor(j*N/L)),
    which partitions the trace into contiguous, near-equal slices. Traces
    shorter than L are right-padded with their last value first, so the
    terminal confidence level survives pooling.
    """
    return FeatureVector(bins=_pool(trace.values, length), iteration=iteration, normalized=False)


def _pool(values: np.ndarray, length: int) -> np.ndarray:
    """The bins of :func:`downsample`."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if values.size < length:
        pad = np.full(length - values.size, values[-1])
        values = np.concatenate([values, pad])
    n = values.size
    edges = (np.arange(length + 1) * n) // length
    sums = np.add.reduceat(values, edges[:-1])
    widths = np.diff(edges)
    return sums / widths


def normalize(feature: FeatureVector, table: NormalizationTable = DEFAULT_NORMALIZATION) -> FeatureVector:
    """Z-score bins against the baseline row for the feature's iteration."""
    if feature.normalized:
        raise ValueError("feature is already normalized")
    mu, sigma = table.row(feature.iteration)
    return FeatureVector(
        bins=(feature.bins - mu) / sigma,
        iteration=feature.iteration,
        normalized=True,
    )


@functools.lru_cache(maxsize=8)
def _slope_basis(length: int) -> tuple[np.ndarray, float]:
    """Centred bin positions in [0, 1] and their sum of squares."""
    x = np.linspace(0.0, 1.0, length) if length > 1 else np.zeros(1)
    xc = x - x.mean()
    xc.setflags(write=False)  # shared by every caller
    return xc, float((xc * xc).sum())


def stats(trace: ConfidenceTrace, pool_length: int = DEFAULT_BINS) -> TraceStats:
    """Compute trace statistics used by heuristics and compaction.

    The trace is pooled once; the slope is fitted to those bins, which the
    result carries. Each mean is ``np.add.reduce(x) / n`` and the std is
    numpy's own two steps, so every field has the bits the ndarray methods
    give, without their per-call overhead.
    """
    values = trace.values
    n = values.size
    mean = float(np.add.reduce(values) / n)
    if n < 10:
        head = mid = tail = mean
    else:
        h = max(1, n // 10)
        head = float(np.add.reduce(values[:h]) / h)
        tail = float(np.add.reduce(values[-h:]) / h)
        mid = float(np.add.reduce(values[h:n - h]) / (n - 2 * h)) if n > 2 * h else mean

    bins = _pool(values, pool_length)
    xc, denom = _slope_basis(bins.size)
    centred = bins - np.add.reduce(bins) / bins.size
    slope = float(np.add.reduce(xc * centred) / denom) if denom > 0 else 0.0

    dev = values - mean
    std = math.sqrt(np.add.reduce(dev * dev) / n)
    if abs(mean) < 1e-12:
        cv = 0.0 if std < 1e-12 else math.inf
    else:
        cv = std / abs(mean)

    return TraceStats(
        mean=mean,
        min=float(np.minimum.reduce(values)),
        head_mean=head,
        mid_mean=mid,
        tail_mean=tail,
        slope=slope,
        cv=cv,
        bins=bins,
    )


__all__ = [
    "ConfidenceTrace",
    "DEFAULT_BINS",
    "DEFAULT_NORMALIZATION",
    "FeatureVector",
    "NormalizationTable",
    "TraceStats",
    "build_trace",
    "downsample",
    "normalize",
    "stats",
    "token_confidence",
]
