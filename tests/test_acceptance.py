"""Acceptance suite: one test per numbered criterion, with stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from refinectl.backend import GenerationConfig
from refinectl.bench import conf_filtered_vote, majority_vote
from refinectl.confidence import ConfidenceTrace, downsample, stats, token_confidence
from refinectl.controller import (
    Action,
    SerializationError,
    deserialize,
    init,
    parameter_count,
    serialize,
)
from refinectl.labeler import DEFAULT_THRESHOLDS, label_refusal
from refinectl.refine import LoopConfig, build_initial_prompt, build_prompt, run
from refinectl.training import TrainConfig, class_weights, loss, train
from refinectl.tree import TreeConfig, early_stop_check, run_tree, tree_metrics

from conftest import StubController, boxed_record, mock_backend
from test_controller import analytic_parameter_count, run_gradient_check
from test_labeler import flat_trace
from test_refine import MCQ_PROBLEM
from test_training import archetype_dataset
from test_tree import synthetic_run

CFG = GenerationConfig()


def report(number: int, description: str) -> None:
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_01_token_confidence_unit_suite():
    started = time.perf_counter()
    uniform = [math.log(0.05)] * 20
    value = token_confidence(uniform, k=20)
    # -ln(0.05) = 2.9957322736...; the 1e-6 tolerance is checked against the
    # full-precision constant (the 5-decimal print of it already sits 2.3e-6
    # away from the true value)
    assert abs(value - 2.9957322736) <= 1e-6
    assert abs(value - (-math.log(0.05))) < 1e-12
    assert token_confidence([0.0], k=1) == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"token confidence formula exact (uniform top-20 -> {value:.5f}, "
              f"certainty -> 0) in {elapsed:.3f}s")


def test_criterion_02_downsampling_suite():
    started = time.perf_counter()
    # pairwise-mean case, exact
    bins = downsample(ConfidenceTrace(np.arange(1.0, 33.0)), 16).bins
    np.testing.assert_array_equal(bins, np.arange(1.5, 32.0, 2.0))
    # mean preservation when L | N
    rng = np.random.default_rng(0)
    for _ in range(50):
        length = int(rng.integers(1, 24))
        values = rng.normal(0, 5, length * int(rng.integers(1, 40)))
        got = downsample(ConfidenceTrace(values), length).bins
        assert abs(got.mean() - values.mean()) < 1e-9
    # brute-force bin-membership oracle, 1000 random (N, L) pairs
    for _ in range(1000):
        n = int(rng.integers(1, 1200))
        length = int(rng.integers(1, 48))
        values = rng.normal(10, 3, n)
        padded = values if n >= length else np.concatenate(
            [values, np.full(length - n, values[-1])])
        m = padded.size
        expected = [padded[(j - 1) * m // length: j * m // length].mean()
                    for j in range(1, length + 1)]
        np.testing.assert_allclose(downsample(ConfidenceTrace(values), length).bins,
                                   expected, atol=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(2, f"average pooling exact vs brute-force oracle on 1000 (N, L) pairs "
              f"in {elapsed:.2f}s")


def test_criterion_03_parameter_count():
    model = init(3, 16, seed=0)
    count = parameter_count(model)
    assert 200_000 <= count <= 220_000
    assert count == analytic_parameter_count(3)
    report(3, f"controller has {count:,} parameters, inside [200k, 220k], "
              f"matching the analytic layer sum exactly")


def test_criterion_04_gradient_check():
    started = time.perf_counter()
    worst = run_gradient_check(n_triples=100, coords_per_triple=5, h=1e-4, seed=7)
    elapsed = time.perf_counter() - started
    assert worst < 1e-4
    assert elapsed < 30.0
    report(4, f"analytic gradients match central differences (h=1e-4): worst "
              f"relative error {worst:.2e} over 100 triples in {elapsed:.1f}s")


def test_criterion_05_synthetic_training():
    data = archetype_dataset(2000, seed=1)
    cfg = TrainConfig(epochs=30, batch_size=32, rng_seed=0)
    started = time.perf_counter()
    model, rep = train(data, cfg)
    elapsed = time.perf_counter() - started
    assert rep.best_val_accuracy >= 0.95
    assert elapsed < 120.0
    model2, rep2 = train(data, cfg)
    assert rep2.epoch_losses == rep.epoch_losses
    for a, b in zip(model.state_arrays(), model2.state_arrays()):
        np.testing.assert_array_equal(a, b)
    report(5, f"separable archetypes: val accuracy {rep.best_val_accuracy:.3f} "
              f">= 0.95 in {elapsed:.0f}s, bitwise deterministic per seed")


def test_criterion_06_loss_algebra():
    rng = np.random.default_rng(3)
    for _ in range(100):
        probs = rng.dirichlet(np.ones(3))
        label = int(rng.integers(3))
        weights = rng.uniform(0.2, 5.0, 3)
        a = loss(probs, 1.0, label, True, 0,
                 TrainConfig(loss_kind="focal", focal_gamma=0.0, step_penalty=0.0),
                 weights)
        b = loss(probs, 1.0, label, True, 0,
                 TrainConfig(loss_kind="weighted_ce", step_penalty=0.0), weights)
        assert abs(a - b) <= 1e-9
    np.testing.assert_allclose(class_weights([25, 25, 25, 25], 0.5), 1.0)
    ratio = class_weights([1800, 100, 100], 0.5)
    damped = ratio[1] / ratio[0]
    assert abs(damped - 4.3) / 4.3 < 0.02
    report(6, f"focal(gamma=0) == weighted CE within 1e-9; balanced weights 1.0; "
              f"18x raw ratio dampens to {damped:.2f}x (within 2% of 4.3x)")


def _two_iteration_run():
    backend = mock_backend(boxed_record("5", [8.0] * 40), boxed_record("7", [16.0] * 30))
    controller = StubController(fn=lambda f: Action.RETHINK if f.bins.mean() < 12
                                else Action.HALT)
    return run("p", backend, controller, CFG, LoopConfig())


def test_criterion_07_sequential_loop_end_to_end():
    outcomes = []
    for _ in range(5):
        result = _two_iteration_run()
        outcomes.append((result.final_answer, result.iterations_used,
                         result.terminated_by, result.total_tokens,
                         tuple(tuple(d.probs) for d in result.decisions),
                         tuple(result.nodes)))
    assert len(set(outcomes)) == 1
    result = _two_iteration_run()
    assert result.terminated_by == "halt"
    assert result.iterations_used == 2
    assert result.total_tokens == 70

    backend = mock_backend(*[boxed_record("8", [9.0] * 10) for _ in range(3)])
    controller = StubController(actions=[Action.RETHINK, Action.ALTERNATIVE,
                                         Action.RETHINK])
    override = run("p", backend, controller, CFG, LoopConfig())
    assert override.terminated_by == "consistency_override"
    assert override.iterations_used == 3
    report(7, "scripted 2-iteration loop halts with exact token totals, "
              "byte-identical over 5 runs; consistency override fires at the "
              "3rd identical answer")


def test_criterion_08_tree_suite():
    cfg = TreeConfig(warmup=4, branch_factor=2, max_depth=3)
    assert cfg.max_nodes() == 60
    rng = np.random.default_rng(2024)
    worst = 0
    for _ in range(500):
        p = rng.dirichlet([2.0, 2.0, 2.0])
        actions = [Action(int(a)) for a in rng.choice(3, size=60, p=p)]
        backend = mock_backend(*[boxed_record(str(int(rng.integers(3))), [9.0] * 4)
                                 for _ in range(60)])
        tree = run_tree("p", backend, StubController(actions=actions), CFG, cfg,
                        LoopConfig())
        worst = max(worst, len(tree.nodes))
        assert len(tree.nodes) <= 60

    # truth table for the stopping rule
    halt, rethink = Action.HALT, Action.RETHINK
    assert early_stop_check([halt, halt, halt, rethink], ["a"] * 3) is True
    assert early_stop_check([halt, halt, rethink, rethink], ["a", "a"]) is True
    assert early_stop_check([halt, halt, rethink, rethink], ["a", "b"]) is False
    assert early_stop_check([rethink] * 4, []) is False

    # one-correct-node scenario: a single halted node carries the answer
    records = [boxed_record("2304", [17.0] * 10), boxed_record("40", [9.0] * 10),
               boxed_record("20", [9.0] * 10)]
    records += [boxed_record(str(i), [9.0] * 10) for i in range(12)]
    actions = [Action.HALT, Action.RETHINK, Action.ALTERNATIVE]
    actions += [Action.RETHINK, Action.ALTERNATIVE] * 2 + [Action.RETHINK] * 8
    tree = run_tree("p", mock_backend(*records), StubController(actions=actions), CFG,
                    TreeConfig(warmup=3, branch_factor=2, max_depth=2), LoopConfig())
    assert tree.halted_node_ids == [0]
    assert tree.final_answer == "2304"
    report(8, f"node bound 60 held over 500 randomized runs (max seen {worst}); "
              f"stopping-rule truth table exact; scripted scenario halts only on "
              f"the correct node")


def test_criterion_09_halt_precision():
    truth, runs = {}, []
    for i in range(120):
        pid = f"p{i}"
        truth[pid] = "1"
        if i < 87:
            runs.append(synthetic_run(pid, "1", halting=3, total=5))
        elif i < 94:
            runs.append(synthetic_run(pid, "2", halting=3, total=5))
        else:
            runs.append(synthetic_run(pid, "2", halting=1, total=5, early=False))
    metrics = tree_metrics(runs, truth)
    assert metrics.high_halt_count == 94
    assert metrics.halt_precision == pytest.approx(87 / 94)
    assert abs(metrics.halt_precision * 100 - 92.6) < 0.1
    report(9, f"counting oracle: 87 correct of 94 high-halt runs -> halt precision "
              f"{metrics.halt_precision * 100:.1f}% (92.6 +/- rounding)")


def test_criterion_10_refusal_labels_and_two_phase_prompts():
    s = stats(flat_trace())
    th = DEFAULT_THRESHOLDS
    assert label_refusal("A", "D", "A", 10.5, th, s) is Action.ALTERNATIVE
    assert label_refusal("A", "D", "A", np.nextafter(10.5, 11), th, s) is Action.RETHINK
    assert label_refusal("A", "D", "A", 11.5, th, s) is Action.RETHINK
    assert label_refusal("A", "D", "A", np.nextafter(11.5, 12), th, s) is Action.REFUSE

    neutral = build_initial_prompt(MCQ_PROBLEM)[0]["content"]
    assert all(f"{letter}." in neutral for letter in "ABCDE")
    from test_refine import summary_for_tests
    aggressive = build_prompt(MCQ_PROBLEM, [summary_for_tests("E")], Action.RETHINK,
                              phase=1, two_phase=True)[0]["content"]
    assert "REMOVED" in aggressive
    assert "D." in aggressive and "E." not in aggressive
    report(10, "refusal thresholds partition exactly at 10.5/11.5; neutral prompt "
               "shows 5 choices at iteration 0, aggressive prompt shows 4 with a "
               "removal notice at iteration 1")


def test_criterion_11_voting_equivalence():
    rng = np.random.default_rng(5)
    symbols = ("A", "B", "C")
    checked = 0
    for size in range(0, 7):
        for combo in itertools.combinations_with_replacement(symbols, size):
            confs = rng.uniform(5, 20, size=size)
            assert conf_filtered_vote(list(zip(combo, confs)), keep_fraction=1.0,
                                      weighted=False) == majority_vote(list(combo))
            checked += 1
    assert conf_filtered_vote([("D", 10.0), ("D", 11.0), ("Unsure", 13.0)],
                              exclude_max=11.5) == "D"
    report(11, f"filtered voting with no filter equals majority voting on all "
               f"{checked} answer multisets (size <= 6 over 3 symbols); "
               f"exclude_max=11.5 silences a confidence-13 trace")


def test_criterion_12_serialization():
    model = init(3, 16, seed=77)
    model.forward_batch(np.random.default_rng(0).normal(12, 3, (8, 16)), dropout_rng=None)
    blob = serialize(model)
    assert serialize(deserialize(blob)) == blob
    tampered = bytearray(blob)
    tampered[4:8] = (2).to_bytes(4, "little")
    with pytest.raises(SerializationError):
        deserialize(bytes(tampered))
    report(12, "model round-trips byte-exactly; version mismatch rejected")
