"""Confidence math: the scoring formula, pooling, normalization, stats."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refinectl.backend import MockRecord, ScriptError, parse_chat_body, parse_chat_response
from refinectl.confidence import (
    ConfidenceTrace,
    FeatureVector,
    NormalizationTable,
    build_trace,
    downsample,
    normalize,
    stats,
    token_confidence,
)


# ---------------------------------------------------------------------------
# token_confidence
# ---------------------------------------------------------------------------

def test_uniform_top20_at_p005():
    entries = [math.log(0.05)] * 20
    assert token_confidence(entries, k=20) == pytest.approx(-math.log(0.05), abs=1e-9)
    assert token_confidence(entries, k=20) == pytest.approx(2.99573, abs=1e-5)


def test_certainty_gives_zero():
    assert token_confidence([0.0], k=1) == 0.0


def test_mean_of_magnitudes_oracle():
    # independent arithmetic: mean of |logprob| over the three entries
    entries = [-0.1, -2.0, -4.0]
    expected = (0.1 + 2.0 + 4.0) / 3
    assert token_confidence(entries, k=3) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(2.0333333333, abs=1e-9)


def test_partial_topk_averages_available():
    assert token_confidence([-1.0, -3.0], k=20) == pytest.approx(2.0)


def test_topk_truncates_extra_entries():
    assert token_confidence([-1.0, -2.0, -100.0], k=2) == pytest.approx(1.5)


def test_empty_entries_error():
    with pytest.raises(ValueError):
        token_confidence([], k=5)


def test_nonnegative_when_logprobs_nonpositive(rng):
    for _ in range(50):
        entries = -rng.exponential(2.0, size=rng.integers(1, 21))
        assert token_confidence(list(entries), k=20) >= 0.0


# ---------------------------------------------------------------------------
# build_trace
# ---------------------------------------------------------------------------

def test_trace_from_uniform_completion():
    record = MockRecord(text="abc", logprobs=[[math.log(0.05)] * 20] * 3)
    trace = record.to_completion(20).trace
    assert trace.n == 3
    np.testing.assert_allclose(trace.values, [-math.log(0.05)] * 3)


def test_trace_passthrough_from_scripted_confidences():
    record = MockRecord(text="abc", confidences=[4.0, 5.5, 1.25])
    trace = record.to_completion(20).trace
    np.testing.assert_array_equal(trace.values, [4.0, 5.5, 1.25])


def test_empty_completion_errors():
    with pytest.raises(ScriptError):
        MockRecord(text="", confidences=[]).to_completion(20)
    with pytest.raises(ValueError):
        build_trace(np.empty(0), np.empty(0, dtype=np.intp), k=20)


# Columnar scoring against the scalar reference: ragged, unsorted rows of
# non-positive logprobs; a row flagged ``fallback`` is served with an empty
# top_logprobs list and scored on the sampled token's own logprob.
_logprob = st.floats(min_value=-60.0, max_value=0.0, allow_nan=False)
_row = st.one_of(
    st.tuples(st.lists(_logprob, min_size=1, max_size=25), st.just(False)),
    st.tuples(st.lists(_logprob, min_size=1, max_size=1), st.just(True)),
)


def _served_body(rows) -> bytes:
    content = [{"token": "t", "logprob": lps[0],
                "top_logprobs": [] if fallback else [{"token": "u", "logprob": lp} for lp in lps]}
               for lps, fallback in rows]
    body = {"choices": [{"message": {"content": "x"}, "logprobs": {"content": content},
                         "finish_reason": "stop"}],
            "usage": {"completion_tokens": len(rows), "prompt_tokens": 1}}
    return json.dumps(body, separators=(",", ":")).encode()


def _reference(rows, k):
    return [token_confidence(sorted(lps, reverse=True), k) for lps, _ in rows]


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_row, min_size=1, max_size=30), k=st.integers(1, 25))
def test_columnar_trace_matches_scalar_reference(rows, k):
    """The JSON path, the byte scan (which takes bodies without fallback
    rows) and the mock give one trace, close to the scalar reference."""
    expected = _reference(rows, k)
    body = _served_body(rows)
    parsed = parse_chat_response(json.loads(body), k).trace
    mocked = MockRecord(logprobs=[lps for lps, _ in rows]).to_completion(k).trace
    for trace in (parse_chat_body(body, k).trace, mocked):
        np.testing.assert_array_equal(trace.values, parsed.values)
        np.testing.assert_array_equal(np.signbit(trace.values), np.signbit(parsed.values))
    assert parsed.n == len(rows)
    np.testing.assert_allclose(parsed.values, expected, rtol=1e-12, atol=0)


def test_build_trace_rejects_k_below_one():
    with pytest.raises(ValueError):
        build_trace(np.array([-1.0]), np.array([1]), k=0)


# ---------------------------------------------------------------------------
# downsample
# ---------------------------------------------------------------------------

def oracle_bins(values, length):
    """Brute-force binning: enumerate member indices straight from the
    boundary formula (right-padding short traces first)."""
    vals = list(values)
    if len(vals) < length:
        vals = vals + [vals[-1]] * (length - len(vals))
    n = len(vals)
    out = []
    for j in range(1, length + 1):
        members = [vals[i] for i in range(n) if (j - 1) * n // length <= i < j * n // length]
        out.append(sum(members) / len(members))
    return out


def test_pairwise_means():
    trace = ConfidenceTrace(np.arange(1.0, 33.0))
    got = downsample(trace, 16).bins
    np.testing.assert_allclose(got, np.arange(1.5, 32.0, 2.0))


def test_constant_invariance(rng):
    for _ in range(10):
        n = int(rng.integers(1, 200))
        trace = ConfidenceTrace(np.full(n, 7.25))
        np.testing.assert_allclose(downsample(trace, 16).bins, 7.25)


def test_short_trace_pads_with_last_value():
    trace = ConfidenceTrace(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    got = downsample(trace, 16).bins
    np.testing.assert_allclose(got, oracle_bins([1, 2, 3, 4, 5], 16))
    assert got[-1] == 5.0


def test_binning_matches_bruteforce_oracle(rng):
    for _ in range(300):
        n = int(rng.integers(1, 400))
        length = int(rng.integers(1, 40))
        values = rng.normal(10, 3, n)
        got = downsample(ConfidenceTrace(values), length).bins
        np.testing.assert_allclose(got, oracle_bins(values, length), atol=1e-9)


def test_mean_preservation_when_length_divides(rng):
    for _ in range(20):
        length = int(rng.integers(1, 20))
        n = length * int(rng.integers(1, 30))
        values = rng.normal(0, 5, n)
        bins = downsample(ConfidenceTrace(values), length).bins
        assert abs(bins.mean() - values.mean()) < 1e-9


def test_permutation_within_bin_invariant(rng):
    values = rng.normal(10, 2, 64)
    base = downsample(ConfidenceTrace(values), 16).bins
    shuffled = values.copy()
    # permute inside bin 3 (indices 12..16)
    shuffled[12:16] = shuffled[12:16][::-1]
    np.testing.assert_allclose(downsample(ConfidenceTrace(shuffled), 16).bins, base)


def test_constant_shift_moves_every_bin(rng):
    values = rng.normal(10, 2, 100)
    delta = 3.75
    base = downsample(ConfidenceTrace(values), 16).bins
    shifted = downsample(ConfidenceTrace(values + delta), 16).bins
    np.testing.assert_allclose(shifted, base + delta, atol=1e-9)


def test_downsample_records_iteration():
    trace = ConfidenceTrace(np.ones(20))
    assert downsample(trace, 16, iteration=4).iteration == 4


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_baseline_zeroes_iteration0():
    f = FeatureVector(np.full(16, 15.65), iteration=0)
    np.testing.assert_allclose(normalize(f).bins, 0.0, atol=1e-12)


def test_identity_table():
    table = NormalizationTable(mu=(0, 0, 0), sigma=(1, 1, 1))
    f = FeatureVector(np.arange(16.0), iteration=1)
    np.testing.assert_array_equal(normalize(f, table).bins, f.bins)


def test_direct_arithmetic_iteration2plus():
    table = NormalizationTable(mu=(0, 0, 8.5), sigma=(1, 1, 2.0))
    f = FeatureVector(np.array([10.0] * 16), iteration=2)
    np.testing.assert_allclose(normalize(f, table).bins, 0.75)
    # iterations beyond 2 use the same row
    f5 = FeatureVector(np.array([10.0] * 16), iteration=5)
    np.testing.assert_allclose(normalize(f5, table).bins, 0.75)


def test_double_normalization_rejected():
    f = normalize(FeatureVector(np.ones(16)))
    with pytest.raises(ValueError):
        normalize(f)


def test_normalize_uses_the_row_of_each_iteration(rng):
    table = NormalizationTable(mu=(15.65, 12.94, 8.5), sigma=(2.0, 1.5, 3.0))
    for t in range(4):
        f = FeatureVector(rng.normal(12, 4, 16), iteration=t)
        row = min(t, 2)
        np.testing.assert_array_equal(normalize(f, table).bins,
                                      (f.bins - table.mu[row]) / table.sigma[row])


def test_sigma_must_be_positive():
    with pytest.raises(ValueError):
        NormalizationTable(sigma=(1.0, 0.0, 1.0))


@pytest.mark.parametrize("field", ["mu", "sigma"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, 1, 2])
def test_table_rows_must_be_finite(field, bad, row):
    """A NaN sigma passes ``s <= 0``, and a non-finite row would reach the
    controller as non-finite bins; the table refuses it where it is made."""
    values = [1.0, 1.0, 1.0]
    values[row] = bad
    with pytest.raises(ValueError, match="finite"):
        NormalizationTable(**{field: tuple(values)})


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_increasing_trace_has_positive_slope():
    s = stats(ConfidenceTrace(np.linspace(5, 15, 120)))
    assert s.slope > 0


def test_constant_trace_stats():
    s = stats(ConfidenceTrace(np.full(50, 4.0)))
    assert s.mean == s.min == s.head_mean == s.mid_mean == s.tail_mean == 4.0
    assert s.slope == pytest.approx(0.0, abs=1e-12)
    assert s.cv == pytest.approx(0.0, abs=1e-12)


def test_head_tail_slicing_oracle():
    # 200 tokens at 16 then 2 tokens at 12: slice indices computed by hand
    values = np.concatenate([np.full(200, 16.0), np.full(2, 12.0)])
    s = stats(ConfidenceTrace(values))
    h = 202 // 10  # 20
    head_expected = values[:h].mean()
    tail_expected = values[-h:].mean()  # 18*16 + 2*12 over 20
    mid_expected = values[h:-h].mean()
    assert s.head_mean == pytest.approx(head_expected)
    assert s.tail_mean == pytest.approx(tail_expected)
    assert s.tail_mean == pytest.approx(15.6)
    assert s.mid_mean == pytest.approx(mid_expected)


def test_short_trace_stats_collapse_to_mean():
    s = stats(ConfidenceTrace(np.array([1.0, 2.0, 3.0])))
    assert s.head_mean == s.mid_mean == s.tail_mean == s.mean == 2.0


def test_min_le_mean(rng):
    for _ in range(20):
        values = rng.normal(10, 3, int(rng.integers(1, 300)))
        s = stats(ConfidenceTrace(values))
        assert s.min <= s.mean + 1e-12


def test_constant_shift_moves_stats(rng):
    values = rng.normal(10, 2, 150)
    delta = 2.5
    a, b = stats(ConfidenceTrace(values)), stats(ConfidenceTrace(values + delta))
    assert b.mean == pytest.approx(a.mean + delta)
    assert b.head_mean == pytest.approx(a.head_mean + delta)
    assert b.mid_mean == pytest.approx(a.mid_mean + delta)
    assert b.tail_mean == pytest.approx(a.tail_mean + delta)
    assert b.slope == pytest.approx(a.slope, abs=1e-9)

