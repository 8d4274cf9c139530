"""The one-pass statistics and the trace reduction give the bits of the
plain numpy formulations.

``reference_stats`` / ``reference_downsample`` are statistics and pooling
written with ndarray methods (``mean``, ``std``, ``min``) and a second
pooling for the slope. ``stats`` and ``downsample`` compute the same sums in
the same order with less per-call overhead, so every field must match byte
for byte, not just to a tolerance. ``reference_trace`` scores logprob rows
padded with -inf and negated; ``build_trace`` sums the rows as given and
negates the sums, and must match it byte for byte, sign of zero included.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from refinectl.confidence import DEFAULT_BINS, ConfidenceTrace, build_trace, downsample, stats

FIELDS = ("mean", "min", "head_mean", "mid_mean", "tail_mean", "slope", "cv")


def reference_downsample(trace: ConfidenceTrace, length: int = DEFAULT_BINS) -> np.ndarray:
    values = trace.values
    if values.size < length:
        pad = np.full(length - values.size, values[-1])
        values = np.concatenate([values, pad])
    n = values.size
    edges = (np.arange(length + 1) * n) // length
    sums = np.add.reduceat(values, edges[:-1])
    widths = np.diff(edges)
    return sums / widths


def reference_stats(trace: ConfidenceTrace, pool_length: int = DEFAULT_BINS) -> dict:
    values = trace.values
    n = values.size
    mean = float(values.mean())
    if n < 10:
        head = mid = tail = mean
    else:
        h = max(1, n // 10)
        head = float(values[:h].mean())
        tail = float(values[-h:].mean())
        mid = float(values[h:n - h].mean()) if n > 2 * h else mean

    bins = reference_downsample(trace, pool_length)
    x = np.linspace(0.0, 1.0, bins.size) if bins.size > 1 else np.zeros(1)
    xc = x - x.mean()
    denom = float((xc * xc).sum())
    slope = float((xc * (bins - bins.mean())).sum() / denom) if denom > 0 else 0.0

    std = float(values.std())
    if abs(mean) < 1e-12:
        cv = 0.0 if std < 1e-12 else math.inf
    else:
        cv = std / abs(mean)
    return dict(mean=mean, min=float(values.min()), head_mean=head, mid_mean=mid,
                tail_mean=tail, slope=slope, cv=cv)


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw) -> np.ndarray:
    """Constant, noisy and arbitrary traces of 1-600 tokens, weighted toward
    the short ones: under 10 tokens (head/mid/tail collapse), 10-25 (the
    smallest head and tail slices) and under 32 (padded before pooling)."""
    n = draw(st.one_of(st.integers(1, 9), st.integers(10, 25), st.integers(1, 32),
                       st.integers(1, 600)))
    kind = draw(st.sampled_from(["constant", "noisy", "arbitrary"]))
    if kind == "constant":
        return np.full(n, draw(st.one_of(st.just(0.0), finite)))
    if kind == "noisy":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        loc = draw(st.floats(-20.0, 20.0))
        return rng.normal(loc, draw(st.floats(1e-9, 10.0)), n)
    return draw(arrays(np.float64, n, elements=finite))


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(traces(), st.integers(1, 32))
def test_stats_and_bins_are_bitwise_the_reference(values, length):
    trace = ConfidenceTrace(values)
    got = stats(trace, length)
    want = reference_stats(trace, length)
    assert {name: bits(getattr(got, name)) for name in FIELDS} == \
        {name: bits(value) for name, value in want.items()}
    expected_bins = reference_downsample(trace, length)
    assert got.bins.tobytes() == expected_bins.tobytes()
    feature = downsample(trace, length, iteration=2)
    assert feature.bins.tobytes() == expected_bins.tobytes()
    assert feature.iteration == 2 and not feature.normalized



def reference_trace(values: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    width = counts.max()
    padded = np.full((counts.size, width), -np.inf)
    padded[np.arange(width) < counts[:, None]] = values
    neg = -padded  # the padding becomes +inf and sorts after every entry
    if k < width:
        neg = np.sort(neg, axis=1)[:, :k]
    take = np.minimum(counts, k)
    return neg.sum(axis=1, where=np.arange(neg.shape[1]) < take[:, None]) / take


logprobs = st.one_of(st.sampled_from([0.0, -0.0, -1.0, -0.5]),
                     st.floats(-60.0, 0.0),
                     st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


@st.composite
def logprob_rows(draw) -> tuple[np.ndarray, np.ndarray, int]:
    """Row-major logprobs, row lengths and k: ragged or full rows of 1-24
    entries (past the 8 where numpy's pairwise sums start), some rows all
    zeros of either sign, and k below, at and above the widest row."""
    width = draw(st.integers(1, 24))
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        counts = np.full(n, width, dtype=np.intp)
    else:
        counts = draw(arrays(np.intp, n, elements=st.integers(1, width)))
    values = draw(arrays(np.float64, int(counts.sum()), elements=logprobs))
    return values, counts, draw(st.integers(1, width + 3))


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(logprob_rows())
def test_build_trace_is_bitwise_the_reference(rows):
    values, counts, k = rows
    got = build_trace(values, counts, k).values
    want = reference_trace(values, counts, k)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # zeros keep the reference's sign


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(logprob_rows(), st.data())
def test_build_trace_in_parts_is_bitwise_the_whole(rows, data):
    """Rows scored in two parts, each padded to the whole's widest row, get
    the whole's bits; where that row is wider than k, so does a part padded
    only past k, as the scan scores a window before the body's widest row
    is known."""
    values, counts, k = rows
    whole = build_trace(values, counts, k).values
    cut = data.draw(st.integers(0, counts.size))
    split, width = int(counts[:cut].sum()), int(counts.max())
    parts = [(values[:split], counts[:cut]), (values[split:], counts[cut:])]
    got = np.concatenate([build_trace(v, c, k, width).values for v, c in parts if c.size])
    assert got.tobytes() == whole.tobytes()
    if k < width:
        got = np.concatenate([build_trace(v, c, k, k + 1).values for v, c in parts if c.size])
        assert got.tobytes() == whole.tobytes()
