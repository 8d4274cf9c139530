"""From logprobs to controller features.

Walks the signal path: the top-k logprobs of a response become a per-token
confidence trace where the response is parsed, the trace is average-pooled to 16 bins, optionally
z-scored against per-iteration baselines, and summarized into statistics.

Run: python demos/01_confidence_traces.py
"""

import numpy as np

from refinectl.backend import MockRecord
from refinectl.confidence import (
    NormalizationTable,
    build_trace,
    downsample,
    normalize,
    stats,
)

rng = np.random.default_rng(0)

# --- a completion with full top-20 logprob rows -----------------------------
# The score is the mean improbability of the top-k alternatives. A peaked
# distribution leaves tokens 2..k with almost no mass, so it scores HIGH;
# mass spread evenly across the top-k scores low.
peaked_row = [-0.05] + [-9.0] * 19
spread_row = [np.log(0.05)] * 20

rows = [peaked_row] * 30 + [spread_row] * 10
# row-major values and row lengths, as a server body gives them
trace = build_trace(np.concatenate(rows), np.full(len(rows), 20), k=20)
# a backend serving a request for 20 top logprobs applies the same reduction
record = MockRecord(text="...reasoning... \\boxed{42}", logprobs=rows)
print(f"the mock serves that trace: {record.to_completion(20).trace == trace}")
print(f"trace length: {trace.n} tokens")
print(f"confidence on peaked rows:  {trace.values[0]:.3f}")
print(f"confidence on spread rows:  {trace.values[-1]:.3f}")

# --- pooling to the fixed controller input ----------------------------------
feature = downsample(trace, 16)
print("\n16-bin feature:", np.round(feature.bins, 2))

# Long traces pool the same way; the bins keep the macro shape while the
# token-level noise averages out.
long_values = np.concatenate([
    rng.normal(16.5, 0.8, 4000),          # steady early reasoning
    rng.normal(14.0, 2.5, 800),           # a shaky middle stretch
    rng.normal(17.0, 0.5, 200),           # confident wrap-up
])
long_trace = MockRecord(text="long", confidences=list(long_values)).to_completion(20).trace
print("long trace bins:", np.round(downsample(long_trace, 16).bins, 1))

# --- per-iteration normalization ---------------------------------------------
# Later refinement iterations sit at systematically lower confidence levels,
# so features are z-scored against iteration-specific baselines before the
# controller sees them.
table = NormalizationTable(mu=(15.65, 12.94, 8.5), sigma=(2.0, 2.0, 2.0))
for iteration in (0, 1, 2):
    f = downsample(long_trace, 16, iteration=iteration)
    z = normalize(f, table)
    print(f"iteration {iteration}: first bin {f.bins[0]:6.2f} -> z {z.bins[0]:+.2f}")

# --- summary statistics -------------------------------------------------------
s = stats(long_trace)
print(f"\nstats: mean={s.mean:.2f} min={s.min:.2f} head={s.head_mean:.2f} "
      f"mid={s.mid_mean:.2f} tail={s.tail_mean:.2f} slope={s.slope:+.3f} cv={s.cv:.3f}")
