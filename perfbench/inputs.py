"""Deterministic inputs for the benchmark workloads.

Everything here is a pure function of a seed and a size, so the same seed
always gives the same inputs. The seed decides content: problem statements,
answer strings, per-token confidence noise and the exact response lengths.
The amount of work a sweep does (how many generations, how long they are,
which trace shape each one has) comes from fixed tables and hashes of
structural request fields, so two seeds load the program equally and the
run-to-run spread of the timings reflects the program, not the draw.

Trace shapes: a confidence trace is one of three classes that the stored
controller fixture was trained to tell apart.

- ``HALT``: low, flat confidence values (a peaked next-token distribution).
- ``RETHINK``: values that climb across the trace, i.e. confidence lost
  towards the end of the reasoning.
- ``ALTERNATIVE``: high and volatile values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from refinectl.backend import MockRecord
from refinectl.confidence import (
    ConfidenceTrace,
    FeatureVector,
    NormalizationTable,
    downsample,
    normalize,
)
from refinectl.controller import Action
from refinectl.datasets import Problem
from refinectl.labeler import LabeledTrace

CLASSES = (Action.HALT, Action.RETHINK, Action.ALTERNATIVE)

# Both sweep workloads z-score features with this table, so the per-iteration
# normalization step runs; the fixture was trained on features scaled the same way.
NORMALIZATION = NormalizationTable(mu=(9.0, 9.0, 9.0), sigma=(4.0, 4.0, 4.0))

# Top-k logprobs per token in the HTTP responses (the GenerationConfig default).
TOP_K = 20
# Confidence values are quantized to this step so every token of a response can
# be rendered from a small table of pre-formatted JSON fragments.
LEVEL_STEP = 0.05
MAX_LEVEL = 30.0


def stable_hash(*parts) -> int:
    """64-bit hash of the parts' text, identical across processes and runs."""
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def confidence_trace(cls: Action, n: int, rng: np.random.Generator) -> np.ndarray:
    """Per-token confidence values of one class; always > 0 (logprobs <= 0)."""
    if cls is Action.HALT:
        values = 3.0 + 0.8 * rng.standard_normal(n)
    elif cls is Action.RETHINK:
        values = np.linspace(4.0, 12.0, n) + 1.0 * rng.standard_normal(n)
    else:
        values = 15.0 + 3.0 * rng.standard_normal(n)
    return np.clip(values, LEVEL_STEP, MAX_LEVEL)


def feature_of(values: np.ndarray) -> np.ndarray:
    """The controller input a sweep builds from these token confidences."""
    fv = downsample(ConfidenceTrace(values), 16)
    return normalize(fv, NORMALIZATION).bins


# ---------------------------------------------------------------------------
# Labeled features (fixture training and the train workload)
# ---------------------------------------------------------------------------

def labeled_set(seed: int, n: int, label_noise: float = 0.0,
                min_len: int = 16, max_len: int = 4096) -> list[LabeledTrace]:
    """``n`` labeled 16-bin features, classes in a fixed rotation.

    Trace lengths are log-uniform in [min_len, max_len]. With ``label_noise``
    a fixed share of samples (every k-th one) carries a wrong label, so
    validation accuracy stays below 100 % by the same margin on every seed.
    """
    rng = np.random.default_rng(seed)
    flip_every = int(round(1 / label_noise)) if label_noise > 0 else 0
    out = []
    for i in range(n):
        cls = CLASSES[i % 3]
        length = int(round(np.exp(rng.uniform(np.log(min_len), np.log(max_len)))))
        bins = feature_of(confidence_trace(cls, length, rng))
        label = cls
        if flip_every and i % flip_every == flip_every - 1:
            label = CLASSES[(i + 1 + (i // flip_every) % 2) % 3]  # never cls
        out.append(LabeledTrace(feature=FeatureVector(bins=bins, normalized=True),
                                label=label, t=i % 3, problem_id=f"s{i}"))
    return out


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

_WORDS = ("sum", "integer", "prime", "triangle", "area", "digits", "roots",
          "sequence", "product", "remainder", "circle", "angle", "divisor",
          "polynomial", "ratio", "chord", "lattice", "points", "modulo", "series")


def problem(seed: int, tag: int) -> Problem:
    """Math problem tagged ``#tag`` with seeded text and answer.

    The stub server reads the tag to pick responses, so a problem's tag, not
    its random text, decides how much work it causes.
    """
    rng = np.random.default_rng([seed, tag])
    words = " ".join(rng.choice(_WORDS, size=24))
    truth = str(int(rng.integers(10, 10_000)))
    return Problem(id=f"p{tag}", statement=f"#{tag} Find the value: {words}.",
                   ground_truth=truth, mode="math_boxed")


def problems(seed: int, tags) -> list[Problem]:
    return [problem(seed, tag) for tag in tags]


def decoy(truth: str, j: int) -> str:
    """A wrong answer distinct from ``truth`` and from every other decoy index."""
    return f"{truth}{j + 1}"


def filler_text(n_chars: int, rng: np.random.Generator) -> str:
    words = rng.choice(_WORDS, size=max(1, n_chars // 7))
    return " ".join(words)[:n_chars]


# ---------------------------------------------------------------------------
# seq_mock: FIFO mock scripts
# ---------------------------------------------------------------------------

# Refinement steps before the halting trace, per problem slot. Mean 9.5; every
# value stays below the workload's 20-iteration cap.
SEQ_STEPS = (2, 11, 5, 14, 8, 17, 3, 12, 6, 15, 9, 18, 4, 13, 7, 16)
SEQ_MIN_TOKENS, SEQ_MAX_TOKENS = 16, 256


@dataclass
class MockScript:
    records: list[MockRecord]
    tokens: np.ndarray  # tokens of each record, for served-token accounting


def seq_script(seed: int, dataset: list[Problem]) -> MockScript:
    """One FIFO record per planned iteration of every problem, in order.

    Problem k gets ``SEQ_STEPS[k % 16]`` refinement traces (RETHINK and
    ALTERNATIVE shapes with distinct wrong answers, so the consistency
    override does not fire) and then one HALT-shaped trace whose answer is
    correct for three slots in four.
    """
    rng = np.random.default_rng(seed + 1)
    records: list[MockRecord] = []
    lengths: list[int] = []
    position = 0
    for k, problem in enumerate(dataset):
        steps = SEQ_STEPS[k % len(SEQ_STEPS)]
        plan = [CLASSES[1 + (k + j) % 2] for j in range(steps)] + [Action.HALT]
        for j, cls in enumerate(plan):
            # log-spaced length table walked by position, jittered by the seed
            frac = ((position * 0.618034) % 1.0 + rng.uniform(-0.02, 0.02)) % 1.0
            n = int(round(SEQ_MIN_TOKENS * (SEQ_MAX_TOKENS / SEQ_MIN_TOKENS) ** frac))
            position += 1
            if cls is Action.HALT:
                answer = problem.ground_truth if k % 4 != 3 else decoy(problem.ground_truth, 99)
            else:
                answer = decoy(problem.ground_truth, j)
            text = f"{filler_text(4 * n, rng)} so the answer is \\boxed{{{answer}}}"
            conf = confidence_trace(cls, n, rng)
            records.append(MockRecord(text=text, confidences=[float(c) for c in conf]))
            lengths.append(n)
    return MockScript(records=records, tokens=np.array(lengths, dtype=np.int64))


# ---------------------------------------------------------------------------
# tree_http: the stub server's response bank
# ---------------------------------------------------------------------------

BANK_SIZE = 16
# Bank slots whose response is cut off at max_tokens (finish_reason "length").
TRUNCATED_SLOTS = frozenset({5})
# Trace class of each bank slot.
BANK_CLASSES = (Action.HALT, Action.RETHINK, Action.HALT, Action.ALTERNATIVE,
                Action.HALT, Action.ALTERNATIVE, Action.RETHINK, Action.HALT,
                Action.HALT, Action.RETHINK, Action.ALTERNATIVE, Action.HALT,
                Action.RETHINK, Action.HALT, Action.ALTERNATIVE, Action.HALT)
# Problem tags of one tree_http sweep. With the slots their requests hash to,
# tag 7 grows a 22-node tree three levels deep, hits the truncated slot and
# votes the right answer; tag 15 stops after warm-up with a wrong answer. Both
# votes are free of ties, so the answer, like the work, is the same on every
# seed.
TREE_TAGS = (7, 15)


@dataclass
class BankEntry:
    levels: np.ndarray  # quantized confidence level index per token
    finish_reason: str

    @property
    def tokens(self) -> int:
        return int(self.levels.size)


def bank(seed: int, min_tokens: int, max_tokens: int) -> list[BankEntry]:
    """``BANK_SIZE`` responses with log-uniform lengths in [min, max].

    Lengths are stratified (one per log-spaced stratum, jittered inside it by
    the seed), so the bank's total size barely moves between seeds.
    """
    rng = np.random.default_rng(seed + 2)
    ratio = max_tokens / min_tokens
    entries = []
    for i in range(BANK_SIZE):
        frac = (i + rng.uniform(0.25, 0.75)) / BANK_SIZE
        n = int(round(min_tokens * ratio ** frac))
        conf = confidence_trace(BANK_CLASSES[i], n, rng)
        levels = np.rint(conf / LEVEL_STEP).astype(np.int64)
        entries.append(BankEntry(levels=levels,
                                 finish_reason="length" if i in TRUNCATED_SLOTS else "stop"))
    return entries


def bank_slot(tag: int, sampling_seed: int) -> int:
    """Bank slot serving a request, from its problem tag and sampling seed.

    Only structural fields go in: a truncation retry repeats its request and
    gets the same slot, and responses never depend on arrival order.
    """
    return stable_hash("slot", tag, sampling_seed) % BANK_SIZE


def answer_for(tag: int, sampling_seed: int, slot: int, truth: str) -> str:
    """Answer text of one response: halting slots are right three times in
    four, other slots pick one of three wrong answers."""
    h = stable_hash("answer", tag, sampling_seed)
    if BANK_CLASSES[slot] is Action.HALT and h % 4 != 0:
        return truth
    return decoy(truth, h % 3)


def token_fragment(level: int) -> str:
    """JSON for one token whose top-k logprobs average to -level*LEVEL_STEP."""
    c = level * LEVEL_STEP
    weights = (np.arange(TOP_K) + 0.5) / (TOP_K / 2)  # mean 1, ascending
    lps = -c * weights
    tok = f"t{level % 97}"
    tops = ",".join(f'{{"token":"{tok}{j}","logprob":{lp:.4f}}}' for j, lp in enumerate(lps))
    return f'{{"token":"{tok}","logprob":{lps[0]:.4f},"top_logprobs":[{tops}]}}'
