"""Retrospective action labels for confidence traces.

A trace whose answer was correct is always labeled HALT. Incorrect traces
from sequential runs get causal labels from what actually fixed them: if a
later iteration of the same problem succeeded and every continuation on the
way there was a re-examination, the right call was RETHINK; if reaching
success involved switching approach, it was ALTERNATIVE. Incorrect traces
with no usable history (parallel samples, or runs that never succeeded)
fall back to confidence-shape heuristics.

The 4-class variant adds REFUSE for multiple-choice tasks with an explicit
"insufficient information" option, partitioning refusals by mean trace
confidence.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .confidence import (
    ConfidenceTrace,
    DEFAULT_BINS,
    FeatureVector,
    TraceStats,
    downsample,
    stats,
)
from .controller import Action


@dataclass(frozen=True)
class RawTrace:
    """One generated trace plus the bookkeeping needed to label it."""

    problem_id: str
    iteration: int
    source: str  # "parallel" | "sequential"
    trace: ConfidenceTrace
    answer: str | None
    correct: bool
    ground_truth: str
    produced_by: Action | None = None  # action that triggered this iteration

    def __post_init__(self) -> None:
        if self.source not in ("parallel", "sequential"):
            raise ValueError("source must be 'parallel' or 'sequential'")
        if self.source == "parallel" and self.iteration != 0:
            raise ValueError("parallel traces have iteration 0")


@dataclass(frozen=True)
class LabeledTrace:
    feature: FeatureVector
    label: Action
    t: int
    problem_id: str


@dataclass(frozen=True)
class HeuristicThresholds:
    """Knobs for the history-less labeling rules.

    The trend/drop rules depend on which direction means "more confident";
    models differ, so the orientation is explicit rather than assumed.
    The slope threshold is in confidence units per unit of normalized bin
    position, making it trace-length invariant. refusal_low/refusal_high
    partition refusal traces by mean confidence in the 4-class setting.
    """

    declining_slope: float = 0.2
    volatility_cv: float = 0.5
    stable_eps: float = 0.5
    late_drop: float = 1.0
    refusal_low: float = 10.5
    refusal_high: float = 11.5
    orientation: str = "higher_is_confident"

    def __post_init__(self) -> None:
        if self.refusal_low >= self.refusal_high:
            raise ValueError("refusal_low must be < refusal_high")
        if self.orientation not in ("higher_is_confident", "lower_is_confident"):
            raise ValueError("unknown orientation")


DEFAULT_THRESHOLDS = HeuristicThresholds()


def heuristic_label(s: TraceStats, th: HeuristicThresholds = DEFAULT_THRESHOLDS) -> Action:
    """Label an incorrect trace from its confidence shape alone.

    Declining trend -> RETHINK (foundational error); stable early confidence
    with a late drop -> RETHINK (slip near the end); high volatility ->
    ALTERNATIVE (unstable approach). When nothing fires, RETHINK: it is the
    least destructive repair action.
    """
    sign = 1.0 if th.orientation == "higher_is_confident" else -1.0
    if sign * s.slope < -th.declining_slope:
        return Action.RETHINK
    stable_early = abs(s.head_mean - s.mid_mean) < th.stable_eps
    late_drop = sign * (s.tail_mean - s.head_mean) < -th.late_drop
    if stable_early and late_drop:
        return Action.RETHINK
    if s.cv > th.volatility_cv:
        return Action.ALTERNATIVE
    return Action.RETHINK


def _causal_label(current: RawTrace, later: Sequence[RawTrace]) -> Action | None:
    """Label from iteration history: did a later iteration succeed, and did
    getting there require switching approach?"""
    successes = [tr for tr in later if tr.correct]
    if not successes:
        return None
    first_success = min(successes, key=lambda tr: tr.iteration)
    chain = [tr for tr in later if tr.iteration <= first_success.iteration]
    if any(tr.produced_by == Action.ALTERNATIVE for tr in chain):
        return Action.ALTERNATIVE
    return Action.RETHINK


def label_math(
    traces: Iterable[RawTrace],
    th: HeuristicThresholds = DEFAULT_THRESHOLDS,
    feature_length: int = DEFAULT_BINS,
) -> list[LabeledTrace]:
    """Oracle labels for the 3-class math setting."""
    by_problem: dict[str, list[RawTrace]] = defaultdict(list)
    for tr in traces:
        by_problem[tr.problem_id].append(tr)

    out: list[LabeledTrace] = []
    for pid, group in by_problem.items():
        truths = {tr.ground_truth for tr in group}
        if len(truths) > 1:
            raise ValueError(f"problem {pid!r} has inconsistent ground truths: {sorted(truths)}")
        group.sort(key=lambda tr: tr.iteration)
        for tr in group:
            if tr.correct:
                label = Action.HALT
            elif tr.source == "sequential":
                later = [other for other in group
                         if other.source == "sequential" and other.iteration > tr.iteration]
                label = _causal_label(tr, later) or heuristic_label(stats(tr.trace), th)
            else:
                label = heuristic_label(stats(tr.trace), th)
            out.append(LabeledTrace(
                feature=downsample(tr.trace, feature_length, iteration=tr.iteration),
                label=label,
                t=tr.iteration,
                problem_id=pid,
            ))
    return out


def label_refusal(
    extracted: str | None,
    ground_truth: str,
    unsure_letter: str,
    mean_conf: float,
    th: HeuristicThresholds,
    s: TraceStats,
) -> Action:
    """Oracle label for the 4-class MCQ-with-refusal setting.

    Correct answers HALT. Refusals partition by mean confidence:
    at or below refusal_low the model refused despite looking sure of
    itself (push it to ALTERNATIVE), above refusal_high the uncertainty
    looks genuine (REFUSE), in between RETHINK. Other wrong answers use
    the confidence-shape heuristics.
    """
    if extracted is not None and extracted == ground_truth:
        return Action.HALT
    if extracted is not None and extracted == unsure_letter:
        if mean_conf <= th.refusal_low:
            return Action.ALTERNATIVE
        if mean_conf > th.refusal_high:
            return Action.REFUSE
        return Action.RETHINK
    return heuristic_label(s, th)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def split(
    dataset: Sequence,
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 0,
    stratify_by_correctness: bool = True,
) -> tuple[list, list, list]:
    """Partition items into train/val/test at problem granularity.

    All traces of one problem land in one subset, so near-duplicate traces
    never leak across the split. Items need ``problem_id`` and ``correct``
    attributes. Stratification groups problems by majority correctness and
    splits each stratum separately so subsets have comparable correct rates.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    by_problem: dict[str, list] = defaultdict(list)
    for item in dataset:
        by_problem[item.problem_id].append(item)
    if len(by_problem) < 3:
        raise ValueError("need at least 3 problems to split")

    def majority_correct(items) -> bool:
        return sum(1 for it in items if it.correct) * 2 >= len(items)

    if stratify_by_correctness:
        strata: dict[bool, list[str]] = defaultdict(list)
        for pid in sorted(by_problem):
            strata[majority_correct(by_problem[pid])].append(pid)
        groups = [strata[key] for key in sorted(strata)]
    else:
        groups = [sorted(by_problem)]

    rng = np.random.default_rng(seed)
    buckets: tuple[list, list, list] = ([], [], [])
    allocated = [0, 0, 0]
    seen = 0
    for pids in groups:
        pids = list(pids)
        rng.shuffle(pids)
        n = len(pids)
        seen += n
        counts = _apportion(n, ratios, allocated, seen)
        for k in range(3):
            allocated[k] += counts[k]
        start = 0
        for bucket, count in zip(buckets, counts):
            for pid in pids[start:start + count]:
                bucket.extend(by_problem[pid])
            start += count
    return buckets


def _apportion(n: int, ratios, allocated, seen) -> list[int]:
    """Largest-remainder seat allocation within one stratum. Remainder ties
    are broken toward the subset currently furthest below its global quota,
    so exact overall sizes (e.g. 70/15/15 of 100) survive stratification."""
    quotas = [r * n for r in ratios]
    counts = [int(np.floor(q)) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    shortfall = [ratios[k] * seen - (allocated[k] + counts[k]) for k in range(3)]
    order = sorted(range(3), key=lambda k: (-remainders[k], -shortfall[k], k))
    for k in order[: n - sum(counts)]:
        counts[k] += 1
    return counts


__all__ = [
    "DEFAULT_THRESHOLDS",
    "HeuristicThresholds",
    "LabeledTrace",
    "RawTrace",
    "heuristic_label",
    "label_math",
    "label_refusal",
    "split",
]
