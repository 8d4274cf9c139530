"""Tree refinement: bounds, early stopping, aggregation, metrics."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from refinectl.backend import GenerationConfig, MockBackend, MockRecord
from refinectl.controller import Action
from refinectl.datasets import Problem
from refinectl.refine import LoopConfig, Node, RefinementError, RunResult, write_run_log
from refinectl.refine import run as run_loop
from refinectl.tree import (
    TreeConfig,
    aggregate,
    early_stop_check,
    run_tree,
    tree_metrics,
    write_tree_dump,
)

from conftest import StubController, boxed_record, make_decision, mock_backend

CFG = GenerationConfig()
LOOP = LoopConfig()


def node(nid, answer, action, conf=10.0, depth=0, parent=None) -> Node:
    return Node(id=nid, parent=parent, depth=depth,
                decision=make_decision(action, 4 if action is Action.REFUSE else 3),
                action=action, answer=answer, confidence_mean=conf, confidence_min=conf,
                tokens=10, compacted_text="")


# ---------------------------------------------------------------------------
# early_stop_check
# ---------------------------------------------------------------------------

def test_exceeds_half_stops():
    actions = [Action.HALT] * 3 + [Action.RETHINK]
    assert early_stop_check(actions, ["7", "7", "7"]) is True


def test_exactly_half_needs_consistent_answers():
    actions = [Action.HALT] * 2 + [Action.RETHINK] * 2
    assert early_stop_check(actions, ["A", "A"]) is True
    assert early_stop_check(actions, ["A", "B"]) is False


def test_no_halts_no_stop():
    assert early_stop_check([Action.RETHINK] * 4, []) is False


def test_empty_decisions_rejected():
    with pytest.raises(ValueError):
        early_stop_check([], [])


def test_refuse_counts_as_halting():
    actions = [Action.REFUSE, Action.REFUSE, Action.RETHINK]
    assert early_stop_check(actions, [None, None]) is True


def test_actions_accepted_directly():
    assert early_stop_check([Action.HALT, Action.HALT, Action.RETHINK], ["x", "x"])


def test_monotone_in_halt_count(rng):
    for _ in range(100):
        n = int(rng.integers(1, 10))
        actions = [Action(int(a)) for a in rng.integers(0, 3, n)]
        halted = ["z"] * sum(1 for a in actions if a is Action.HALT)
        before = early_stop_check(actions, halted)
        after = early_stop_check(actions + [Action.HALT], halted + ["z"])
        assert not (before and not after)


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

def test_majority_over_halted():
    halted = [node(0, "A", Action.HALT), node(1, "A", Action.HALT),
              node(2, "B", Action.HALT)]
    assert aggregate(halted, "majority") == "A"


def test_confidence_weighted_oracle():
    # weighted-sum oracle over two nodes: B's 25 beats A's 10
    halted = [node(0, "A", Action.HALT, conf=10.0), node(1, "B", Action.HALT, conf=25.0)]
    assert aggregate(halted, "confidence_weighted") == "B"
    # and with a second A the sums flip: A 10+20=30 > B 25
    halted.append(node(2, "A", Action.HALT, conf=20.0))
    assert aggregate(halted, "confidence_weighted") == "A"


def test_empty_halted_falls_back_to_leaves():
    leaves = [node(0, "C", Action.RETHINK), node(1, "C", Action.ALTERNATIVE)]
    assert aggregate([], "majority", fallback_all=leaves) == "C"


def test_all_refuse_returns_none():
    halted = [node(0, None, Action.REFUSE), node(1, None, Action.REFUSE)]
    assert aggregate(halted, "majority", fallback_all=[node(2, "X", Action.RETHINK)]) is None


def test_empty_everything_returns_none():
    assert aggregate([], "majority", fallback_all=[]) is None


def test_single_halted_node_wins_every_method():
    single = [node(0, "Q", Action.HALT, conf=3.0)]
    for method in ("majority", "confidence_weighted", "high_confidence_majority"):
        assert aggregate(single, method) == "Q"


def test_majority_tie_breaks_by_summed_confidence_then_lexicographic():
    halted = [node(0, "B", Action.HALT, conf=30.0), node(1, "A", Action.HALT, conf=5.0)]
    assert aggregate(halted, "majority") == "B"
    even = [node(0, "B", Action.HALT, conf=10.0), node(1, "A", Action.HALT, conf=10.0)]
    assert aggregate(even, "majority") == "A"


def test_high_confidence_majority_filters_low():
    halted = [node(0, "A", Action.HALT, conf=20.0), node(1, "A", Action.HALT, conf=18.0),
              node(2, "B", Action.HALT, conf=5.0), node(3, "B", Action.HALT, conf=4.0),
              node(4, "B", Action.HALT, conf=3.0)]
    # median cut keeps the top half: B's majority evaporates
    assert aggregate(halted, "majority") == "B"
    assert aggregate(halted, "high_confidence_majority") == "A"


# ---------------------------------------------------------------------------
# run_tree
# ---------------------------------------------------------------------------

def test_immediate_consensus_four_warmup_halts():
    backend = mock_backend(*[boxed_record("7", [15.0] * 10) for _ in range(4)])
    controller = StubController(actions=[Action.HALT] * 4)
    run = run_tree("p", backend, controller, CFG, TreeConfig(), LOOP)
    assert run.early_stopped is True
    assert len(run.nodes) == 4
    assert run.final_answer == "7"
    assert run.total_tokens == 40
    assert all(n.depth == 0 and n.parent is None for n in run.nodes)


def test_one_correct_node_halts_rest_refine():
    # warmup of 3: one high-confidence correct trace halts; every other node
    # keeps refining until the depth cap, so exactly one halted node exists
    records = [boxed_record("2304", [17.0] * 10),
               boxed_record("40", [9.0] * 10),
               boxed_record("20", [9.0] * 10)]
    records += [boxed_record(str(10 + i), [9.0] * 10) for i in range(4)]   # depth 1
    records += [boxed_record(str(50 + i), [9.0] * 10) for i in range(8)]   # depth 2
    actions = [Action.HALT, Action.RETHINK, Action.ALTERNATIVE]
    actions += [Action.RETHINK, Action.ALTERNATIVE] * 2
    actions += [Action.RETHINK] * 8
    backend = mock_backend(*records)
    controller = StubController(actions=list(actions))
    run = run_tree("p", backend, controller, CFG,
                   TreeConfig(warmup=3, branch_factor=2, max_depth=2), LOOP)
    assert len(run.nodes) == 15
    assert run.halted_node_ids == [0]
    assert run.final_answer == "2304"
    assert run.early_stopped is False
    assert run.max_depth_explored() == 2


def test_node_ids_and_parents_level_ordered():
    records = [boxed_record("a", [9.0] * 5)] * 2 + [boxed_record("b", [9.0] * 5)] * 4
    backend = mock_backend(*records)
    controller = StubController(actions=[Action.RETHINK, Action.ALTERNATIVE] +
                                [Action.HALT] * 4)
    run = run_tree("p", backend, controller, CFG,
                   TreeConfig(warmup=2, branch_factor=2, max_depth=1), LOOP)
    assert [n.id for n in run.nodes] == list(range(6))
    assert [n.parent for n in run.nodes] == [None, None, 0, 0, 1, 1]
    assert [run.nodes[n.parent].action for n in run.nodes[2:]] == [
        Action.RETHINK, Action.RETHINK, Action.ALTERNATIVE, Action.ALTERNATIVE]


def test_children_only_from_refining_nodes(rng):
    for trial in range(30):
        k, b, depth = 3, 2, 2
        max_nodes = TreeConfig(warmup=k, branch_factor=b, max_depth=depth).max_nodes()
        backend = mock_backend(*[boxed_record(str(int(rng.integers(5))), [9.0] * 5)
                                 for _ in range(max_nodes)])
        actions = [Action(int(a)) for a in rng.integers(0, 3, max_nodes)]
        controller = StubController(actions=actions)
        run = run_tree("p", backend, controller, CFG,
                       TreeConfig(warmup=k, branch_factor=b, max_depth=depth), LOOP)
        by_id = {n.id: n for n in run.nodes}
        for n in run.nodes:
            if n.parent is not None:
                assert by_id[n.parent].action in (Action.RETHINK, Action.ALTERNATIVE)
        # halting nodes are leaves
        parents = {n.parent for n in run.nodes if n.parent is not None}
        for n in run.nodes:
            if n.halting:
                assert n.id not in parents


def test_node_bound_never_exceeded_500_random_runs():
    cfg = TreeConfig(warmup=4, branch_factor=2, max_depth=3)
    assert cfg.max_nodes() == 60
    rng = np.random.default_rng(2024)
    for trial in range(500):
        p = rng.dirichlet([2.0, 2.0, 2.0])
        actions = [Action(int(a)) for a in rng.choice(3, size=60, p=p)]
        backend = mock_backend(*[boxed_record(str(int(rng.integers(3))), [9.0] * 4)
                                 for _ in range(60)])
        controller = StubController(actions=actions)
        run = run_tree("p", backend, controller, CFG, cfg, LOOP)
        assert len(run.nodes) <= 60


def test_tree_deterministic():
    def one():
        records = [boxed_record("2304", [17.0] * 10), boxed_record("40", [9.0] * 10),
                   boxed_record("20", [9.0] * 10)]
        records += [boxed_record(str(i), [9.0] * 10) for i in range(12)]
        actions = [Action.HALT, Action.RETHINK, Action.ALTERNATIVE]
        actions += [Action.RETHINK, Action.ALTERNATIVE] * 2 + [Action.RETHINK] * 8
        backend = MockBackend(records)
        run = run_tree("p", backend, StubController(actions=list(actions)), CFG,
                       TreeConfig(warmup=3, branch_factor=2, max_depth=2), LOOP)
        return run

    first = one()
    assert all(one() == first for _ in range(4))


def test_early_stop_at_level_boundary():
    # warmup 1 HALT of 4 (no stop); depth-1 children all halt on one answer
    records = [boxed_record("9", [15.0] * 5)] + \
              [boxed_record("x", [9.0] * 5)] * 3 + \
              [boxed_record("9", [14.0] * 5)] * 6
    actions = [Action.HALT] + [Action.RETHINK] * 3 + [Action.HALT] * 6
    backend = mock_backend(*records)
    run = run_tree("p", backend, StubController(actions=list(actions)), CFG,
                   TreeConfig(warmup=4, branch_factor=2, max_depth=3), LOOP)
    assert run.early_stopped is True
    assert len(run.nodes) == 10  # stopped before depth 2
    assert run.final_answer == "9"


def test_refuse_nodes_halt_but_cast_no_vote():
    records = [boxed_record("E", [12.0] * 5), boxed_record("B", [12.0] * 5),
               boxed_record("E", [12.0] * 5), boxed_record("B", [12.0] * 5)]
    actions = [Action.REFUSE, Action.HALT, Action.REFUSE, Action.HALT]
    backend = mock_backend(*records)
    run = run_tree("p", backend, StubController(actions=list(actions), n_actions=4),
                   CFG, TreeConfig(), LOOP)
    assert run.early_stopped is True  # 4/4 halting
    assert run.final_answer == "B"    # refusals contribute no answer


def test_refuse_nodes_cast_no_vote_even_when_their_answer_would_win():
    # refusals extract "A" twice; only the two halting "B"s may vote
    records = [boxed_record("A", [12.0] * 5), boxed_record("B", [12.0] * 5),
               boxed_record("A", [12.0] * 5), boxed_record("B", [12.0] * 5)]
    actions = [Action.REFUSE, Action.HALT, Action.REFUSE, Action.HALT]
    backend = mock_backend(*records)
    run = run_tree("p", backend, StubController(actions=list(actions), n_actions=4),
                   CFG, TreeConfig(), LOOP)
    assert run.final_answer == "B"


def test_refusing_answers_leave_the_agreement_test():
    # exactly half of the warmup halts; the refusal's "9" must not count as
    # a disagreeing answer, so the lone voting answer "7" stops the tree
    records = [boxed_record(a, [12.0] * 8) for a in ("7", "9", "1", "2", "3", "4", "5", "6")]
    actions = [Action.HALT, Action.REFUSE] + [Action.RETHINK] * 6
    backend = mock_backend(*records)
    run = run_tree("p", backend, StubController(actions=actions, n_actions=4),
                   CFG, TreeConfig(branch_factor=1, max_depth=2), LOOP)
    assert run.early_stopped is True
    assert len(run.nodes) == 4 and run.total_tokens == 32
    assert backend.remaining == 4
    assert run.final_answer == "7"


def test_votes_and_agreement_compare_answers_by_one_key():
    halted = [node(0, "{8}", Action.HALT), node(1, "8", Action.HALT),
              node(2, "9", Action.HALT)]
    assert aggregate(halted, "majority") == "8"
    actions = [Action.HALT, Action.HALT, Action.RETHINK, Action.RETHINK]
    assert early_stop_check(actions, ["8", "{ 8 }"]) is True


class EightBinController(StubController):
    input_length = 8


@pytest.mark.parametrize("mode", ["run", "run_tree"])
@pytest.mark.parametrize("controller_cls, bins", [(EightBinController, 8),
                                                  (StubController, 16)])
def test_features_pool_to_the_controller_input_length(mode, controller_cls, bins):
    """Features take the controller's ``input_length``; a scripted controller
    without one gets ``DEFAULT_BINS``."""
    backend = mock_backend(*[boxed_record("1", [12.0] * 20) for _ in range(4)])
    controller = controller_cls(fn=lambda f: Action.HALT)
    if mode == "run":
        run_loop("p", backend, controller, CFG, LOOP)
    else:
        run_tree("p", backend, controller, CFG, TreeConfig(max_depth=0), LOOP)
    assert controller.seen
    assert all(f.length == bins for f in controller.seen)


def test_failed_retry_at_depth_fails_its_slot_and_keeps_its_tokens():
    records = [boxed_record("1", [9.0] * 3),                   # warmup, refines
               boxed_record("2", [9.0] * 5),                   # depth 1, slot 0
               boxed_record("3", [9.0] * 7, finish="length"),  # depth 1, slot 1 ...
               MockRecord(error="boom")]                       # ... whose retry fails
    backend = mock_backend(*records)
    controller = StubController(actions=[Action.RETHINK, Action.HALT])
    run = run_tree("p", backend, controller, CFG,
                   TreeConfig(warmup=1, branch_factor=2, max_depth=1),
                   LoopConfig(max_truncation_retries=1))
    assert [n.answer for n in run.nodes] == ["1", "2"]
    assert run.total_tokens == 3 + 5 + 7
    assert backend.remaining == 0


class SeedRecordingBackend(MockBackend):
    def __init__(self, records):
        super().__init__(records)
        self.retry_backoff = 0.0
        self.seeds = []

    def _generate_once(self, messages, cfg):
        self.seeds.append(cfg.seed)
        return super()._generate_once(messages, cfg)


def test_a_failed_slot_keeps_its_seed_sent():
    """Slot seeds count the slots sent, not the nodes scored, so the level
    after a failed slot draws fresh seeds."""
    records = ([boxed_record("1", [9.0] * 3)] * 2 + [MockRecord(error="boom")]
               + [boxed_record("2", [9.0] * 3)] * 4)
    backend = SeedRecordingBackend(records)
    controller = StubController(actions=[Action.RETHINK] * 2 + [Action.HALT] * 4)
    run = run_tree("p", backend, controller, GenerationConfig(seed=0),
                   TreeConfig(warmup=3, branch_factor=2, max_depth=1), LOOP)
    assert len(run.nodes) == 6
    assert backend.seeds == list(range(7))


def test_the_loop_sends_its_own_seed_on_every_step_and_retry():
    """The loop is the tree of width 1 but keeps its own seed rule: every
    step and every truncation retry sends the run's seed, not seed + slot."""
    records = [boxed_record("1", [9.0] * 3, finish="length"), boxed_record("1", [9.0] * 3),
               boxed_record("2", [9.0] * 3, finish="length"),
               boxed_record("2", [9.0] * 3, finish="length"),  # still truncated: ALTERNATIVE
               boxed_record("3", [9.0] * 3)]
    backend = SeedRecordingBackend(records)
    controller = StubController(actions=[Action.RETHINK, Action.RETHINK, Action.HALT])
    run = run_loop("p", backend, controller, GenerationConfig(seed=5),
                   LoopConfig(max_truncation_retries=1))
    assert (run.terminated_by, len(run.nodes)) == ("halt", 3)
    assert backend.seeds == [5] * 5


def test_a_level_of_failed_children_ends_the_tree_but_fails_the_loop():
    """The tree and the loop share one level loop but not its failure
    policy. When every child of depth 1 fails, the tree ends "no_refinement"
    and votes over its warmup leaves, while the loop raises; both count the
    failed slots' served tokens."""
    warmup = [boxed_record("4", [9.0] * 2), boxed_record("4", [9.0] * 3),
              boxed_record("5", [9.0] * 4)]
    children = [boxed_record("6", [9.0] * 6, finish="length"),  # its retry fails
                MockRecord(error="boom"), MockRecord(error="boom"), MockRecord(error="boom")]
    retry = LoopConfig(max_truncation_retries=1)
    backend = mock_backend(*warmup, *children)
    run = run_tree("p", backend, StubController(actions=[Action.RETHINK] * 3), CFG,
                   TreeConfig(warmup=3, branch_factor=1, max_depth=2), retry)
    assert (run.terminated_by, run.final_answer) == ("no_refinement", "4")
    assert [n.depth for n in run.nodes] == [0, 0, 0]
    assert run.total_tokens == 2 + 3 + 4 + 6
    assert backend.remaining == 0

    backend = mock_backend(warmup[0], *children[:2])
    with pytest.raises(RefinementError) as err:
        run_loop("p", backend, StubController(actions=[Action.RETHINK]), CFG, retry)
    assert (len(err.value.partial.nodes), err.value.partial.total_tokens) == (1, 2 + 6)


def test_all_warmup_failed_partial_says_it_failed():
    # slot 0 is truncated and its retry fails; slot 1 fails outright
    backend = mock_backend(boxed_record("5", [9.0] * 3, finish="length"),
                           MockRecord(error="boom"), MockRecord(error="boom"))
    with pytest.raises(RefinementError) as err:
        run_tree("p", backend, StubController(actions=[]), CFG,
                 TreeConfig(warmup=2, max_depth=0), LOOP)
    partial = err.value.partial
    assert isinstance(partial, RunResult)
    assert (partial.terminated_by, partial.nodes, partial.total_tokens) == ("failed", [], 3)


@pytest.mark.parametrize("warmup, children, max_depth, ended", [
    ([Action.HALT] * 2, [], 1, "early_stop"),
    ([Action.RETHINK] * 2, [], 0, "max_depth"),
    # half the decisions halt but on two answers, and nothing is left to refine
    ([Action.RETHINK] * 2, [Action.HALT] * 2, 2, "no_refinement"),
], ids=["early_stop", "max_depth", "no_refinement"])
def test_each_tree_ending_is_named(warmup, children, max_depth, ended):
    backend = mock_backend(*[boxed_record(str(i), [9.0] * 2)
                             for i in range(len(warmup) + len(children))])
    run = run_tree("p", backend, StubController(actions=warmup + children), CFG,
                   TreeConfig(warmup=len(warmup), branch_factor=1, max_depth=max_depth), LOOP)
    assert len(run.nodes) == len(warmup) + len(children)
    assert run.terminated_by == ended
    assert run.early_stopped is (ended == "early_stop")


# ---------------------------------------------------------------------------
# tree_metrics
# ---------------------------------------------------------------------------

def synthetic_run(pid: str, answer: str, halting: int, total: int,
                  early: bool = True) -> RunResult:
    nodes = []
    for i in range(total):
        action = Action.HALT if i < halting else Action.RETHINK
        nodes.append(node(i, answer if action is Action.HALT else "junk",
                          action, depth=0 if i < 4 else 1))
    return RunResult(problem_id=pid, nodes=nodes, final_answer=answer,
                     total_tokens=10 * total,
                     terminated_by="early_stop" if early else "max_depth")


def test_reconstructed_halt_precision():
    # 120 runs: 94 with halting majority, 87 of those correct
    truth, runs = {}, []
    for i in range(120):
        pid = f"p{i}"
        if i < 87:
            truth[pid] = "1"
            runs.append(synthetic_run(pid, "1", halting=3, total=5))
        elif i < 94:
            truth[pid] = "1"
            runs.append(synthetic_run(pid, "2", halting=3, total=5))
        else:
            truth[pid] = "1"
            runs.append(synthetic_run(pid, "2", halting=1, total=5, early=False))
    report = tree_metrics(runs, truth)
    assert report.high_halt_count == 94
    assert report.halt_precision == pytest.approx(87 / 94, abs=1e-12)
    assert abs(report.halt_precision * 100 - 92.6) < 0.1


def test_all_halt_correct_at_warmup():
    truth = {"p0": "5"}
    runs = [synthetic_run("p0", "5", halting=4, total=4)]
    report = tree_metrics(runs, truth)
    assert report.early_stop_rate == 1.0
    assert report.halt_precision == 1.0
    assert report.early_stop_accuracy == 1.0


def test_no_high_halt_precision_absent():
    truth = {"p0": "5"}
    runs = [synthetic_run("p0", "5", halting=1, total=5, early=False)]
    report = tree_metrics(runs, truth)
    assert report.halt_precision is None
    assert report.early_stop_rate == 0.0


def test_action_distribution_sums_to_one():
    truth = {"p0": "1", "p1": "1"}
    runs = [synthetic_run("p0", "1", 2, 5), synthetic_run("p1", "1", 3, 6)]
    report = tree_metrics(runs, truth)
    assert sum(report.action_distribution.values()) == pytest.approx(1.0)


def test_mcq_letters_scored_with_the_bench_rule():
    """An MCQ run answers with a choice's letter; the truth is the choice's text."""
    problem = Problem(id="m0", statement="pick", ground_truth="beta", mode="mcq",
                      choices=("alpha", "beta"))
    right, wrong = synthetic_run("m0", "B", halting=4, total=4), \
        synthetic_run("m1", "A", halting=4, total=4)
    report = tree_metrics([right, wrong], {"m0": problem, "m1": replace(problem, id="m1")})
    assert report.early_stop_accuracy == 0.5
    assert report.halt_precision == 0.5
    # the bare-string form stays a math answer: the letter is not the text
    assert tree_metrics([right], {"m0": "beta"}).early_stop_accuracy == 0.0


def test_refusal_is_right_on_an_unanswerable_problem():
    refused = synthetic_run("u0", None, halting=4, total=4)
    unanswerable = Problem(id="u0", statement="?", ground_truth="", unanswerable=True)
    assert tree_metrics([refused], {"u0": unanswerable}).halt_precision == 1.0
    answerable = replace(unanswerable, unanswerable=False)
    assert tree_metrics([refused], {"u0": answerable}).halt_precision == 0.0
    assert tree_metrics([refused], {}).halt_precision == 0.0


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

RUN_LOG = [
    '{"problem_id": "p0", "t": 1, "action": "ALTERNATIVE", "probs": [0.05, 0.9, 0.05], '
    '"answer": null, "confidence_mean": 8.0, "tokens": 4}',
    '{"problem_id": "p0", "t": 2, "action": "HALT", "probs": [0.9, 0.05, 0.05], '
    '"answer": "7", "confidence_mean": 9.0, "tokens": 6}',
]
TREE_DUMP = [
    '{"problem_id": "p1", "nodes": ['
    '{"id": 0, "parent": null, "depth": 0, "answer": "3", "action": "HALT", '
    '"probs": [0.9, 0.05, 0.05], "conf": 9.0, "tokens": 2}, '
    '{"id": 1, "parent": null, "depth": 0, "answer": "4", "action": "ALTERNATIVE", '
    '"probs": [0.05, 0.05, 0.9], "conf": 5.0, "tokens": 3}, '
    '{"id": 2, "parent": null, "depth": 0, "answer": "5", "action": "RETHINK", '
    '"probs": [0.05, 0.9, 0.05], "conf": 6.0, "tokens": 1}, '
    '{"id": 3, "parent": 1, "depth": 1, "answer": "3", "action": "HALT", '
    '"probs": [0.9, 0.05, 0.05], "conf": 11.0, "tokens": 5}, '
    '{"id": 4, "parent": 2, "depth": 1, "answer": "3", "action": "HALT", '
    '"probs": [0.9, 0.05, 0.05], "conf": 10.0, "tokens": 4}], '
    '"early_stopped": true, "final_answer": "3"}',
]


def test_run_log_and_tree_dump_bytes(tmp_path):
    """Both formats, key order included. The stub's probs and the constant
    confidences are exact binary fractions of no BLAS or numpy version."""
    loop = run_loop(Problem(id="p0", statement="q", ground_truth="7"),
                    mock_backend(MockRecord(text="no box", confidences=[8.0] * 4,
                                            finish_reason="length"),
                                 boxed_record("7", [9.0] * 6)),
                    StubController(actions=[Action.RETHINK, Action.HALT]), CFG,
                    LoopConfig(max_truncation_retries=0))
    tree = run_tree(Problem(id="p1", statement="q", ground_truth="3"),
                    mock_backend(boxed_record("3", [9.0] * 2), boxed_record("4", [5.0] * 3),
                                 boxed_record("5", [6.0] * 1), boxed_record("3", [11.0] * 5),
                                 boxed_record("3", [10.0] * 4)),
                    StubController(actions=[Action.HALT, Action.ALTERNATIVE, Action.RETHINK,
                                            Action.HALT, Action.HALT]),
                    CFG, TreeConfig(warmup=3, branch_factor=1, max_depth=1), LOOP)
    write_run_log(tmp_path / "run.jsonl", [loop])
    write_tree_dump(tmp_path / "tree.jsonl", [tree])
    assert (tmp_path / "run.jsonl").read_bytes() == ("\n".join(RUN_LOG) + "\n").encode()
    assert (tmp_path / "tree.jsonl").read_bytes() == ("\n".join(TREE_DUMP) + "\n").encode()
