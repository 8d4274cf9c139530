"""Oracle labeling rules and the problem-level stratified split."""

from __future__ import annotations

import numpy as np
import pytest

from refinectl.confidence import ConfidenceTrace, TraceStats, stats
from refinectl.controller import Action
from refinectl.labeler import (
    DEFAULT_THRESHOLDS,
    HeuristicThresholds,
    RawTrace,
    heuristic_label,
    label_math,
    label_refusal,
    split,
)


def make_trace(values) -> ConfidenceTrace:
    return ConfidenceTrace(np.asarray(values, dtype=float))


def flat_trace(level: float = 15.0, n: int = 60) -> ConfidenceTrace:
    return make_trace(np.full(n, level))


def raw(pid, t, source, correct, trace=None, produced_by=None, answer="a",
        ground_truth="42") -> RawTrace:
    return RawTrace(problem_id=pid, iteration=t, source=source,
                    trace=trace or flat_trace(), answer=answer, correct=correct,
                    ground_truth=ground_truth, produced_by=produced_by)


def fake_stats(slope=0.0, cv=0.0, head=15.0, mid=15.0, tail=15.0) -> TraceStats:
    return TraceStats(mean=15.0, min=10.0, head_mean=head, mid_mean=mid,
                      tail_mean=tail, slope=slope, cv=cv)


# ---------------------------------------------------------------------------
# heuristic_label
# ---------------------------------------------------------------------------

def test_declining_trend_is_rethink():
    assert heuristic_label(fake_stats(slope=-1.0)) is Action.RETHINK


def test_high_volatility_is_alternative():
    assert heuristic_label(fake_stats(slope=0.0, cv=0.9)) is Action.ALTERNATIVE


def test_stable_early_with_late_drop_is_rethink():
    # cv high too, but the late-drop rule is checked first
    s = fake_stats(slope=0.0, cv=0.9, head=15.0, mid=15.2, tail=13.0)
    assert heuristic_label(s) is Action.RETHINK


def test_constant_trace_defaults_to_rethink():
    assert heuristic_label(fake_stats()) is Action.RETHINK


def test_orientation_flips_trend_rules():
    th = HeuristicThresholds(orientation="lower_is_confident")
    # rising raw values = falling confidence under this orientation
    assert heuristic_label(fake_stats(slope=+1.0), th) is Action.RETHINK
    assert heuristic_label(fake_stats(slope=-1.0), th) is Action.RETHINK  # default branch
    s = fake_stats(head=13.0, mid=13.2, tail=15.0)
    assert heuristic_label(s, th) is Action.RETHINK  # late drop, flipped


# ---------------------------------------------------------------------------
# label_math
# ---------------------------------------------------------------------------

def test_correct_trace_is_halt_regardless_of_source():
    labeled = label_math([raw("p", 0, "parallel", correct=True)])
    assert labeled[0].label is Action.HALT
    labeled = label_math([raw("p", 2, "sequential", correct=True)])
    assert labeled[0].label is Action.HALT


def test_sequential_rethink_chain():
    traces = [
        raw("p", 1, "sequential", correct=False),
        raw("p", 2, "sequential", correct=True, produced_by=Action.RETHINK),
    ]
    labeled = {lt.t: lt.label for lt in label_math(traces)}
    assert labeled[1] is Action.RETHINK
    assert labeled[2] is Action.HALT


def test_sequential_alternative_chain():
    traces = [
        raw("p", 1, "sequential", correct=False),
        raw("p", 2, "sequential", correct=False, produced_by=Action.RETHINK),
        raw("p", 3, "sequential", correct=True, produced_by=Action.ALTERNATIVE),
    ]
    labeled = {lt.t: lt.label for lt in label_math(traces)}
    assert labeled[1] is Action.ALTERNATIVE
    assert labeled[2] is Action.ALTERNATIVE


def test_causal_label_beats_heuristics():
    # declining trace would heuristically be RETHINK, but the history shows
    # success needed a different approach
    declining = make_trace(np.linspace(18, 10, 100))
    traces = [
        RawTrace("p", 1, "sequential", declining, "x", False, "42"),
        raw("p", 2, "sequential", correct=True, produced_by=Action.ALTERNATIVE),
    ]
    labeled = {lt.t: lt.label for lt in label_math(traces)}
    assert labeled[1] is Action.ALTERNATIVE


def test_unsuccessful_sequential_falls_back_to_heuristic():
    declining = make_trace(np.linspace(18, 10, 100))
    traces = [
        RawTrace("p", 1, "sequential", declining, "x", False, "42"),
        RawTrace("p", 2, "sequential", declining, "y", False, "42",
                 produced_by=Action.RETHINK),
    ]
    labeled = {lt.t: lt.label for lt in label_math(traces)}
    assert labeled[1] is Action.RETHINK


def test_parallel_incorrect_uses_heuristic():
    # amplitude 9 on mean 10: cv ~ 0.64, above the volatility threshold
    volatile = make_trace(10 + 9 * np.sin(np.arange(200)))
    labeled = label_math([RawTrace("p", 0, "parallel", volatile, "x", False, "42")])
    assert labeled[0].label is Action.ALTERNATIVE


def test_inconsistent_ground_truth_rejected():
    traces = [raw("p", 0, "parallel", True, ground_truth="1"),
              raw("p", 0, "parallel", True, ground_truth="2")]
    with pytest.raises(ValueError):
        label_math(traces)


def test_features_are_16_bins_with_iteration():
    labeled = label_math([raw("p", 3, "sequential", correct=True)])
    assert labeled[0].feature.length == 16
    assert labeled[0].feature.iteration == 3
    assert labeled[0].t == 3


# ---------------------------------------------------------------------------
# label_refusal
# ---------------------------------------------------------------------------

TH = DEFAULT_THRESHOLDS
FLAT = stats(flat_trace())


def test_correct_answer_halts():
    assert label_refusal("D", "D", "A", 12.0, TH, FLAT) is Action.HALT


def test_refusal_partition():
    assert label_refusal("A", "D", "A", 9.0, TH, FLAT) is Action.ALTERNATIVE
    assert label_refusal("A", "D", "A", 13.0, TH, FLAT) is Action.REFUSE
    assert label_refusal("A", "D", "A", 11.0, TH, FLAT) is Action.RETHINK


def test_refusal_boundaries_exact():
    assert label_refusal("A", "D", "A", 10.5, TH, FLAT) is Action.ALTERNATIVE
    assert label_refusal("A", "D", "A", 10.5 + 1e-9, TH, FLAT) is Action.RETHINK
    assert label_refusal("A", "D", "A", 11.5, TH, FLAT) is Action.RETHINK
    assert label_refusal("A", "D", "A", 11.5 + 1e-9, TH, FLAT) is Action.REFUSE


def test_refusal_partition_is_total(rng):
    for _ in range(200):
        conf = float(rng.uniform(0, 25))
        label = label_refusal("A", "D", "A", conf, TH, FLAT)
        assert label in (Action.ALTERNATIVE, Action.RETHINK, Action.REFUSE)


def test_wrong_nonrefusal_uses_heuristic():
    declining = stats(make_trace(np.linspace(18, 10, 100)))
    assert label_refusal("B", "D", "A", 12.0, TH, declining) is Action.RETHINK


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def synthetic_problem_set(n_problems=100, traces_per=3, correct_rate=0.6, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for p in range(n_problems):
        correct = rng.random() < correct_rate
        for t in range(traces_per):
            out.append(raw(f"p{p:03d}", 0, "parallel", correct=correct))
    return out


def test_split_sizes_100_problems():
    data = synthetic_problem_set(100)
    train_set, val_set, test_set = split(data, seed=3)
    problems = lambda items: {item.problem_id for item in items}
    assert len(problems(train_set)) == 70
    assert len(problems(val_set)) == 15
    assert len(problems(test_set)) == 15


def test_split_deterministic():
    data = synthetic_problem_set(40)
    a = split(data, seed=9)
    b = split(data, seed=9)
    for subset_a, subset_b in zip(a, b):
        assert [i.problem_id for i in subset_a] == [i.problem_id for i in subset_b]


def test_split_is_partition_at_problem_level():
    data = synthetic_problem_set(30)
    subsets = split(data, seed=1)
    ids = [{item.problem_id for item in subset} for subset in subsets]
    assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])
    assert ids[0] | ids[1] | ids[2] == {item.problem_id for item in data}
    assert sum(len(s) for s in subsets) == len(data)


def test_split_stratification_bounds_correct_rate_gap():
    data = synthetic_problem_set(100, correct_rate=0.6, seed=4)

    def correct_rate(items):
        # exhaustive counting oracle at problem level
        per_problem = {}
        for item in items:
            per_problem[item.problem_id] = item.correct
        return sum(per_problem.values()) / len(per_problem)

    for seed in range(5):
        subsets = split(data, seed=seed, stratify_by_correctness=True)
        rates = [correct_rate(s) for s in subsets]
        assert max(rates) - min(rates) <= 0.10 + 1e-9, rates


def test_split_needs_three_problems():
    data = synthetic_problem_set(2)
    with pytest.raises(ValueError):
        split(data)


def test_split_bad_ratios():
    with pytest.raises(ValueError):
        split(synthetic_problem_set(10), ratios=(0.5, 0.2, 0.2))

