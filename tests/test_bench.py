"""Harness: dataset loading, voting, benchmark execution, reports."""

from __future__ import annotations

import gc
import itertools
import json
import re
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from refinectl.backend import Backend, GenerationConfig, MockBackend, MockRecord
from refinectl.bench import (
    CONTROLLED,
    METHODS,
    DatasetError,
    Problem,
    ReportRow,
    RunSpec,
    conf_filtered_vote,
    correct_letter,
    emit_report,
    fold_change,
    is_correct,
    load_dataset,
    load_report,
    majority_vote,
    presented_choices,
    run_benchmark,
)
from refinectl.controller import Action, init
from refinectl.datasets import is_unsure_choice
from refinectl.refine import LoopConfig, run
from refinectl.tree import TreeConfig, run_tree

from conftest import KeyedBackend, StubController, boxed_record, mock_backend


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def test_load_wellformed_dataset(tmp_path):
    rows = [{"id": f"p{i}", "statement": f"problem {i}", "answer": str(i)}
            for i in range(30)]
    path = tmp_path / "d.jsonl"
    write_jsonl(path, rows)
    problems = load_dataset(path)
    assert len(problems) == 30
    assert problems[7].ground_truth == "7"


def test_mcq_ground_truth_must_be_a_choice(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": "q", "statement": "s", "answer": "nope",
                        "mode": "mcq", "choices": ["a", "b"]}])
    with pytest.raises(DatasetError, match="d.jsonl:1"):
        load_dataset(path)


def test_repeated_mcq_choices_rejected(tmp_path):
    """A choice listed twice has two letters, and only the first would score."""
    with pytest.raises(ValueError, match="distinct"):
        Problem(id="q", statement="s", ground_truth="4", mode="mcq", choices=("4", "4", "5"))
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": "p", "statement": "s", "answer": "1"},
                       {"id": "q", "statement": "s", "answer": "4", "mode": "mcq",
                        "choices": ["4", "4", "5"]}])
    with pytest.raises(DatasetError, match="d.jsonl:2: mcq choices must be distinct"):
        load_dataset(path)


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": "p", "statement": "s", "answer": "1"},
                       {"id": "p", "statement": "s2", "answer": "2"}])
    with pytest.raises(DatasetError, match="duplicate"):
        load_dataset(path)


@pytest.mark.parametrize("row", [[1, 2], "s", {"id": "q", "statement": "s", "answer": "a",
                                                "mode": "mcq", "choices": 5}],
                         ids=["list", "string", "choices not a list"])
def test_a_row_of_the_wrong_type_names_its_line(tmp_path, row):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": "p", "statement": "s", "answer": "1"}, row])
    with pytest.raises(DatasetError, match="d.jsonl:2: "):
        load_dataset(path)


@pytest.mark.parametrize("field, value, match", [
    ("unanswerable", "false", "unanswerable must be true or false"),
    ("unanswerable", 0, "unanswerable must be true or false"),
    ("unanswerable", None, "unanswerable must be true or false"),
    ("choices", "abc", "choices must be a list of strings"),
    ("choices", ["a", 2], "choices must be a list of strings"),
    ("choices", {"a": "b"}, "choices must be a list of strings"),
    *[(field, value, f"{field} must be a string or a number")
      for field in ("id", "statement", "answer") for value in (None, True, ["a"], {"v": "a"})],
])
def test_fields_of_the_wrong_json_type_are_rejected_not_coerced(tmp_path, field, value, match):
    """A string "false" is truthy and a string iterates as its letters, and a
    null answer would load as the string "None" and be scored against it:
    each would load as something the row does not say."""
    row = {"id": "q", "statement": "s", "answer": "a", "mode": "mcq", "choices": ["a", "b"]}
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": "p", "statement": "s", "answer": "1"}, {**row, field: value}])
    with pytest.raises(DatasetError, match=f"d.jsonl:2: {match}"):
        load_dataset(path)
    write_jsonl(path, [row, {"id": "u", "statement": "s", "answer": "1", "unanswerable": True}])
    assert [p.unanswerable for p in load_dataset(path)] == [False, True]


def test_numeric_text_fields_load_as_their_str(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": 3, "statement": 2.5, "answer": 7}])
    problem = load_dataset(path)[0]
    assert (problem.id, problem.statement, problem.ground_truth) == ("3", "2.5", "7")


def test_mcq_takes_at_most_26_choices(tmp_path):
    """A 27th choice has no letter: the sweep would die in ``choice_letter``."""
    choices = [f"c{i}" for i in range(27)]
    with pytest.raises(ValueError, match="at most 26 choices"):
        Problem(id="q", statement="s", ground_truth="c0", mode="mcq", choices=tuple(choices))
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": "p", "statement": "s", "answer": "1"},
                       {"id": "q", "statement": "s", "answer": "c26", "mode": "mcq",
                        "choices": choices}])
    with pytest.raises(DatasetError, match="d.jsonl:2: mcq problems take at most 26 choices"):
        load_dataset(path)
    write_jsonl(path, [{"id": "q", "statement": "s", "answer": "c25", "mode": "mcq",
                        "choices": choices[:26]}])
    assert correct_letter(load_dataset(path)[0]) == "Z"


def test_a_file_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_bytes(b'{"id": "p", "statement": "s", "answer": "1"}\n'
                     b'\xff\xfe{"id": "q"}\n')
    with pytest.raises(DatasetError, match="d.jsonl:2: not UTF-8: "):
        load_dataset(path)


def test_unsure_choice_detected(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(path, [{"id": "q", "statement": "s", "answer": "b", "mode": "mcq",
                        "choices": ["a", "b", "Insufficient information to answer"]}])
    problem = load_dataset(path)[0]
    assert problem.unsure_index() == 2


def test_choice_randomization_tracks_ground_truth(rng):
    problem = Problem(id="q", statement="s", ground_truth="beta", mode="mcq",
                      choices=("alpha", "beta", "gamma", "delta"))
    seen = set()
    for _ in range(10):
        pres = presented_choices(problem, rng)
        letter = correct_letter(replace(problem, choices=pres))
        seen.add(letter)
        assert pres[ord(letter) - 65] == "beta"
    assert len(seen) > 1  # the shuffle actually moves the answer around


# ---------------------------------------------------------------------------
# voting
# ---------------------------------------------------------------------------

def test_majority_basic_and_tie():
    assert majority_vote(["A", "A", "B"]) == "A"
    assert majority_vote(["A", "B"]) == "A"  # lexicographic tie rule
    assert majority_vote([None, "", None]) is None


def test_majority_matches_counting_oracle(rng):
    symbols = np.array(["A", "B", "C"])
    for _ in range(30):
        answers = list(rng.choice(symbols, size=512, p=[0.5, 0.3, 0.2]))
        counts = Counter(answers)
        top = max(counts.values())
        oracle = sorted(a for a, c in counts.items() if c == top)[0]
        assert majority_vote(answers) == oracle


def test_votes_compare_answers_by_one_key():
    # three votes for 45 once "{45}" and "45" share a key, two for 46
    answers = ["{45}", "{45}", "45", "46", "46"]
    assert majority_vote(answers) == "45"
    assert conf_filtered_vote([(a, 10.0) for a in answers]) == "45"


def test_conf_filtered_keep_fraction():
    traces = [("A", 16.0), ("A", 15.0), ("B", 9.0)]
    assert conf_filtered_vote(traces, keep_fraction=2 / 3) == "A"
    # keeping everything, B still loses 1-2
    assert conf_filtered_vote(traces, keep_fraction=1.0) == "A"


def test_exclude_band_drops_confident_refusal():
    traces = [("D", 10.0), ("D", 11.0), ("Unsure", 13.0)]
    # the conf-13 trace falls above the exclusion ceiling and casts no vote
    assert conf_filtered_vote(traces, exclude_max=11.5) == "D"
    kept_all = conf_filtered_vote([("Unsure", 13.0)] * 3 + [("D", 10.0)],
                                  exclude_max=11.5)
    assert kept_all == "D"


def test_exclude_min():
    traces = [("A", 5.0), ("B", 13.0)]
    assert conf_filtered_vote(traces, exclude_min=12.0) == "B"


def test_all_excluded_returns_none():
    assert conf_filtered_vote([("A", 5.0)], exclude_min=10.0) is None


def test_weighted_single_trace():
    assert conf_filtered_vote([("Z", 4.0)], keep_fraction=1.0, weighted=True) == "Z"


def test_weighted_vote_uses_confidence_mass():
    traces = [("A", 5.0), ("A", 5.0), ("B", 11.0)]
    assert conf_filtered_vote(traces, weighted=True) == "B"
    assert conf_filtered_vote(traces, weighted=False) == "A"


def test_equivalence_with_majority_on_exhaustive_multisets(rng):
    symbols = ("A", "B", "C")
    for size in range(0, 7):
        for combo in itertools.combinations_with_replacement(symbols, size):
            confs = rng.uniform(5, 20, size=size)
            traces = list(zip(combo, confs))
            assert conf_filtered_vote(traces, keep_fraction=1.0, weighted=False) \
                == majority_vote(list(combo)), combo


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_math_scoring_normalizes():
    problem = Problem(id="p", statement="s", ground_truth="42")
    assert is_correct(problem, " {42} ")
    assert not is_correct(problem, "41")
    assert not is_correct(problem, None)


def test_unanswerable_scores_refusal_as_correct():
    problem = Problem(id="p", statement="s", ground_truth="42", unanswerable=True)
    assert is_correct(problem, None)


def test_mcq_scoring_uses_presentation():
    problem = Problem(id="q", statement="s", ground_truth="beta", mode="mcq",
                      choices=("alpha", "beta"))
    assert is_correct(problem, "B")
    assert is_correct(replace(problem, choices=("beta", "alpha")), "A")


# ---------------------------------------------------------------------------
# run_benchmark
# ---------------------------------------------------------------------------

def three_problem_dataset():
    return [Problem(id=f"p{i}", statement=f"q{i}", ground_truth=str(i))
            for i in range(3)]


def test_pass1_accuracy_and_tokens():
    made = []

    def factory(seed):
        backend = MockBackend([boxed_record(str(i), [12.0] * (10 + i))
                               for i in range(3)])
        made.append(backend)
        return backend

    spec = RunSpec(method="pass1", seeds=(0,))
    row = run_benchmark(three_problem_dataset(), spec, backend=None,
                        backend_factory=factory, dataset_name="toy")
    assert row.accuracy_mean == 100.0
    assert row.accuracy_std == 0.0
    assert row.tokens_total == 10 + 11 + 12
    assert row.iterations_mean == 1.0


def test_majority_sequential_issues_exactly_3k_calls():
    k = 3
    backends = []

    def factory(seed):
        backend = MockBackend([boxed_record("1", [12.0] * 5) for _ in range(3 * k)])
        backends.append(backend)
        return backend

    spec = RunSpec(method="majority_sequential", k=k, seeds=(0,))
    run_benchmark(three_problem_dataset(), spec, backend=None, backend_factory=factory)
    assert backends[0].remaining == 0  # 3 problems x K calls, no more, no fewer


def test_majority_parallel_votes():
    def factory(seed):
        records = []
        for _ in range(3):  # per problem: 2 votes for the truth, 1 against
            records += [boxed_record("7", [12.0] * 5), boxed_record("7", [12.0] * 5),
                        boxed_record("0", [12.0] * 5)]
        return MockBackend(records)

    dataset = [Problem(id=f"p{i}", statement="q", ground_truth="7") for i in range(3)]
    spec = RunSpec(method="majority_parallel", k=3, seeds=(0, 1))
    row = run_benchmark(dataset, spec, backend=None, backend_factory=factory)
    assert row.accuracy_mean == 100.0
    assert row.tokens_total == 2 * 3 * 3 * 5


def test_conf_filtered_method():
    def factory(seed):
        return MockBackend([boxed_record("9", [16.0] * 5), boxed_record("9", [15.0] * 5),
                            boxed_record("0", [6.0] * 5)])

    dataset = [Problem(id="p", statement="q", ground_truth="9")]
    spec = RunSpec(method="conf_filtered", k=3, seeds=(0,), keep_fraction=2 / 3)
    row = run_benchmark(dataset, spec, backend=None, backend_factory=factory)
    assert row.accuracy_mean == 100.0


def test_corefine_two_iteration_mean():
    def factory(seed):
        return MockBackend([boxed_record("5", [8.0] * 40), boxed_record("7", [16.0] * 30)])

    dataset = [Problem(id="p", statement="q", ground_truth="7")]
    spec = RunSpec(method="corefine", seeds=(0,))
    controller = StubController(fn=lambda f: Action.RETHINK if f.bins.mean() < 12
                                else Action.HALT)
    row = run_benchmark(dataset, spec, backend=None, controller=controller,
                        backend_factory=factory)
    assert row.iterations_mean == 2.0
    assert row.accuracy_mean == 100.0
    assert row.tokens_total == 70


def test_corefine_tree_counts_nodes():
    def factory(seed):
        return MockBackend([boxed_record("7", [15.0] * 10) for _ in range(4)])

    dataset = [Problem(id="p", statement="q", ground_truth="7")]
    spec = RunSpec(method="corefine_tree", seeds=(0,))
    controller = StubController(actions=[Action.HALT] * 4)
    row = run_benchmark(dataset, spec, backend=None, controller=controller,
                        backend_factory=factory)
    assert row.iterations_mean == 4.0  # four warmup nodes
    assert row.accuracy_mean == 100.0


def test_refinement_methods_require_controller():
    with pytest.raises(ValueError):
        run_benchmark(three_problem_dataset(), RunSpec(method="corefine", seeds=(0,)),
                      backend=mock_backend())


def test_per_problem_failures_recorded_not_fatal():
    def factory(seed):
        from refinectl.backend import MockRecord
        return MockBackend([boxed_record("0", [12.0] * 5), MockRecord(error="boom"),
                            boxed_record("2", [12.0] * 5)])

    spec = RunSpec(method="pass1", seeds=(0,))
    row = run_benchmark(three_problem_dataset(), spec, backend=None,
                        backend_factory=factory)
    assert row.accuracy_mean == pytest.approx(100 * 2 / 3, abs=1e-9)


def test_corefine_failed_run_scored_incorrect_with_exact_tokens():
    from refinectl.backend import MockRecord
    served = []

    def factory(seed):
        records = [boxed_record("5", [8.0] * 40), MockRecord(error="boom"),
                   boxed_record("1", [16.0] * 30)]
        served.extend(len(r.confidences or ()) for r in records)
        return MockBackend(records)

    dataset = three_problem_dataset()[:2]
    spec = RunSpec(method="corefine", seeds=(0,))
    controller = StubController(actions=[Action.RETHINK, Action.HALT])
    row = run_benchmark(dataset, spec, backend=None, controller=controller,
                        backend_factory=factory)
    assert row.accuracy_mean == 50.0  # p0 failed mid-run, p1 halted on "1"
    assert row.tokens_total == sum(served) == 70
    assert row.iterations_mean == 1.0  # one generation each


@pytest.mark.parametrize("method", ["majority_parallel", "majority_sequential"])
def test_failed_sample_scored_incorrect_with_served_tokens(method):
    from refinectl.backend import MockRecord

    def factory(seed):
        return MockBackend([boxed_record("7", [12.0] * 4), boxed_record("7", [12.0] * 6),
                            MockRecord(error="boom")])

    dataset = [Problem(id="p", statement="q", ground_truth="7")]
    spec = RunSpec(method=method, k=3, seeds=(0,))
    row = run_benchmark(dataset, spec, backend=None, backend_factory=factory)
    assert row.accuracy_mean == 0.0  # slot 2 failed: the problem is lost
    assert row.tokens_total == 10  # slots 0 and 1 were still served
    assert row.iterations_mean == 2.0


def test_corefine_failed_truncation_retry_keeps_tokens():
    from refinectl.backend import MockRecord

    def factory(seed):
        return MockBackend([boxed_record("5", [8.0] * 7, finish="length"),
                            MockRecord(error="boom")])

    dataset = [Problem(id="p", statement="q", ground_truth="5")]
    spec = RunSpec(method="corefine", seeds=(0,))
    row = run_benchmark(dataset, spec, backend=None,
                        controller=StubController(actions=[Action.HALT]),
                        backend_factory=factory)
    assert row.accuracy_mean == 0.0
    assert row.tokens_total == 7


def test_corefine_tree_failed_warmup_retry_scored_incorrect_with_served_tokens():
    from refinectl.backend import MockRecord

    def factory(seed):
        return MockBackend([boxed_record("5", [8.0] * 7, finish="length"),
                            MockRecord(error="boom")])

    dataset = [Problem(id="p", statement="q", ground_truth="5")]
    spec = RunSpec(method="corefine_tree", seeds=(0,), tree_cfg=TreeConfig(warmup=1))
    row = run_benchmark(dataset, spec, backend=None,
                        controller=StubController(fn=lambda f: Action.HALT),
                        backend_factory=factory)
    assert row.accuracy_mean == 0.0  # the only warmup slot failed on its retry
    assert row.tokens_total == 7     # but its truncated first attempt was served


@pytest.mark.parametrize("method", ["corefine", "corefine_tree"])
@pytest.mark.parametrize("bad", [
    MockRecord(text="\\boxed{7}", confidences=[1.0, float("inf")]),
    MockRecord(text="\\boxed{7}", logprobs=[[-0.5], [float("nan"), -1.0]]),
], ids=["inf_confidence", "nan_logprob"])
def test_non_finite_sample_fails_its_problem_not_the_sweep(method, bad):
    """A trained controller turns a non-finite trace into NaN probabilities;
    the sample must fail its node before that, so the sweep goes on."""
    def factory(seed):
        return MockBackend([bad, boxed_record("7", [12.0] * 4)])

    dataset = [Problem(id="p0", statement="q0", ground_truth="7"),
               Problem(id="p1", statement="q1", ground_truth="7")]
    spec = RunSpec(method=method, seeds=(0,),
                   loop_cfg=LoopConfig(consistency_override_count=1),
                   tree_cfg=TreeConfig(warmup=1, max_depth=0))
    row = run_benchmark(dataset, spec, backend=None, controller=init(3, seed=0),
                        backend_factory=factory)
    assert row.accuracy_mean == 50.0  # p0 failed on its only sample, p1 scored
    assert row.tokens_total == 4  # a rejected sample is never served
    assert row.iterations_mean == 0.5


@pytest.mark.parametrize("method", ["corefine", "corefine_tree"])
def test_a_controller_bug_leaves_the_sweep_and_no_thread_outlives_it(method):
    """A ``ValueError`` from the third ``decide`` is a bug, not a problem's
    failure: it leaves ``run_benchmark`` with problems in flight as it does
    one problem at a time. The problem threads end with each sweep, and the
    drain pool's workers once the backend is collected. Every drain of a
    backend runs on its one pool, so the trees' requests come from at most
    ``max_inflight + 1`` threads over both sweeps."""
    dataset = [Problem(id=f"p{i}", statement=f"question {i}", ground_truth="3")
               for i in range(4)]
    spec = RunSpec(method=method, seeds=(0,), loop_cfg=LoopConfig(max_iterations=3),
                   tree_cfg=TreeConfig(warmup=2, max_depth=1))
    before = threading.active_count()
    for slots in (1, 2):
        backend = KeyedBackend(lambda statement, seed: boxed_record("3", [0.5] * 4),
                               [p.statement for p in dataset], slots)
        row = run_benchmark(dataset, spec, backend,
                            controller=StubController(fn=lambda f: Action.RETHINK))
        assert row.accuracy_mean == 100.0 and row.tokens_total == backend.tokens
        calls, lock = itertools.count(1), threading.Lock()

        def third_raises(feature):
            with lock:
                if next(calls) == 3:
                    raise ValueError("the third decide")
            return Action.RETHINK

        with pytest.raises(ValueError, match="the third decide"):
            run_benchmark(dataset, spec, backend, controller=StubController(fn=third_raises))
    assert backend.peak == 2  # the problems did share the slots
    if method == "corefine_tree":
        assert len(backend.threads) <= 3
    del backend
    gc.collect()
    deadline = time.monotonic() + 2.0
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before


def test_std_over_seeds():
    flip = {"n": 0}

    def factory(seed):
        flip["n"] += 1
        answer = "0" if flip["n"] % 2 else "1"
        return MockBackend([boxed_record(answer, [12.0] * 5)])

    dataset = [Problem(id="p", statement="q", ground_truth="0")]
    spec = RunSpec(method="pass1", seeds=(0, 1, 2, 3))
    row = run_benchmark(dataset, spec, backend=None, backend_factory=factory)
    assert row.accuracy_mean == 50.0
    expected_std = np.std([100, 0, 100, 0], ddof=1)
    assert row.accuracy_std == pytest.approx(expected_std)


class PromptRecordingBackend(MockBackend):
    def __init__(self, records):
        super().__init__(records)
        self.prompts: list[str] = []

    def _generate_once(self, messages, cfg):
        self.prompts.append(messages[-1]["content"])
        return super()._generate_once(messages, cfg)


MIXED_DATASET = [
    Problem(id="m", statement="What is 2+5?", ground_truth="7"),
    Problem(id="q", statement="Which gene?", ground_truth="BRCA2", mode="mcq",
            choices=("BRCA1", "BRCA2", "Insufficient information to answer")),
]


@pytest.mark.parametrize("method", METHODS)
def test_mixed_mode_dataset_scores_every_problem_in_its_own_mode(method):
    """One math and one MCQ problem under the default spec: each is prompted
    and scored in its own mode, whatever the method."""
    k = 3
    per_problem = {"pass1": 1, "corefine": 1, "corefine_tree": TreeConfig().warmup}.get(method, k)
    backend = PromptRecordingBackend(
        [boxed_record("7", [12.0] * 5)] * per_problem
        + [MockRecord(text="weighing the choices...\nB", confidences=[12.0] * 4)] * per_problem)
    row = run_benchmark(MIXED_DATASET, RunSpec(method=method, k=k, seeds=(0,)), backend,
                        controller=StubController(fn=lambda f: Action.HALT))
    assert row.accuracy_mean == 100.0
    assert row.tokens_total == per_problem * (5 + 4)
    assert backend.remaining == 0
    math_prompts, mcq_prompts = backend.prompts[:per_problem], backend.prompts[per_problem:]
    assert all("\\boxed{}" in p and "Choices" not in p for p in math_prompts)
    assert all("Which gene?" in p and "A. BRCA1\nB. BRCA2\nC. Insufficient" in p
               for p in mcq_prompts)


CHOICE_LINE = re.compile(r"^([A-Z])\. (.*)$", re.MULTILINE)


class PromptReadingBackend(Backend):
    """Answers what the prompt shows: the letter printed next to the ground
    truth, or, with ``refuse_while_shown``, next to the refusal choice while
    the prompt lists it. Records each MCQ prompt's (letter, text) lines, and
    every refinement prompt line whose letter the problem's last initial
    prompt gave to another choice."""

    max_inflight = 1

    def __init__(self, problems, refuse_while_shown=False):
        self.problems = problems
        self.refuse_while_shown = refuse_while_shown
        self.shown: list[tuple[str, list[tuple[str, str]]]] = []
        self.initial: dict[str, dict[str, str]] = {}
        self.relettered: list[tuple[str, str, str]] = []

    def _generate_once(self, messages, cfg):
        content = messages[-1]["content"]
        problem = next(p for p in self.problems if p.statement in content)
        if problem.mode == "math_boxed":
            text = f"working... \\boxed{{{problem.ground_truth}}}"
        else:
            lines = CHOICE_LINE.findall(content)
            self.shown.append((problem.id, lines))
            if content.startswith("Answer the following"):
                self.initial[problem.id] = dict(lines)
            self.relettered += [(problem.id, letter, choice) for letter, choice in lines
                                if self.initial[problem.id][letter] != choice]
            target = next((c for _, c in lines if self.refuse_while_shown
                           and is_unsure_choice(c)), problem.ground_truth)
            text = "weighing the choices...\n" + next(k for k, c in lines if c == target)
        return MockRecord(text=text, confidences=[12.0] * 4).to_completion(cfg.logprob_count)


REFUSAL_FIRST = Problem(id="r0", statement="Which one, first?", ground_truth="beta",
                        mode="mcq", choices=("Insufficient information", "alpha", "beta",
                                             "gamma"))
REFUSAL_MIDDLE = Problem(id="r1", statement="Which one, middle?", ground_truth="beta",
                         mode="mcq", choices=("alpha", "Insufficient information", "beta",
                                              "gamma"))
TWO_PHASE = LoopConfig(two_phase_refusal=True, consistency_override_count=2)
TWO_LEVELS = TreeConfig(warmup=2, branch_factor=2, max_depth=2)


def rethink_then_halt():
    return StubController(fn=lambda f: Action.RETHINK if f.iteration == 0 else Action.HALT)


@pytest.mark.parametrize("problem, refusal, truth",
                         [(REFUSAL_FIRST, "A", "C"), (REFUSAL_MIDDLE, "B", "C")],
                         ids=["first", "middle"])
def test_two_phase_refusal_keeps_every_letter(problem, refusal, truth):
    """The model picks the refusal choice while it is shown, then the truth:
    the two letters never count as one answer, in the loop or the tree."""
    backend = PromptReadingBackend([problem], refuse_while_shown=True)
    done = run(problem, backend, rethink_then_halt(), GenerationConfig(), TWO_PHASE)
    assert [n.answer for n in done.nodes] == [refusal, truth]
    assert done.terminated_by == "halt"
    assert is_correct(problem, done.final_answer)

    tree = run_tree(problem, backend, rethink_then_halt(), GenerationConfig(seed=0),
                    TWO_LEVELS, TWO_PHASE)
    assert {(n.depth, n.answer) for n in tree.nodes} == {(0, refusal), (1, truth)}
    assert tree.final_answer == truth
    assert is_correct(problem, tree.final_answer)
    assert backend.relettered == []


@pytest.mark.parametrize("randomize", [False, True], ids=["stored", "randomized"])
@pytest.mark.parametrize("method", METHODS)
def test_two_phase_refusal_scores_every_method(method, randomize):
    dataset = [REFUSAL_FIRST, REFUSAL_MIDDLE]
    backend = PromptReadingBackend(dataset, refuse_while_shown=method in CONTROLLED)
    spec = RunSpec(method=method, k=3, seeds=(0, 1, 2), loop_cfg=TWO_PHASE,
                   tree_cfg=TWO_LEVELS, randomize_choices=randomize)
    row = run_benchmark(dataset, spec, backend, controller=rethink_then_halt())
    assert row.accuracy_mean == 100.0
    assert backend.relettered == []


def test_randomized_choice_orders_follow_the_seed_rng():
    """Each seed draws the MCQ problems' choice orders from default_rng(seed)
    in dataset order, and the prompts list the choices in that order."""
    dataset = [REFUSAL_FIRST, MIXED_DATASET[0], MIXED_DATASET[1], REFUSAL_MIDDLE]
    backend = PromptReadingBackend(dataset)
    seeds = (3, 4, 5)
    run_benchmark(dataset, RunSpec(method="pass1", seeds=seeds, randomize_choices=True),
                  backend)
    expected = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        expected += [presented_choices(p, rng) for p in dataset if p.mode == "mcq"]
    assert [tuple(c for _, c in lines) for _, lines in backend.shown] == expected


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def row(method="pass1", dataset="d", acc=90.0, std=1.0, tokens=1000, time_s=1.0,
        iters=1.0):
    return ReportRow(method=method, dataset=dataset, accuracy_mean=acc,
                     accuracy_std=std, tokens_total=tokens, wall_time=time_s,
                     iterations_mean=iters)


def test_csv_single_row():
    blob = emit_report([row()], format="csv").decode()
    lines = blob.strip().split("\n")
    assert lines[0] == "method,dataset,acc_mean,acc_std,tokens,time_s,iters_mean"
    assert len(lines) == 2
    assert lines[1].startswith("pass1,d,90.0")


def test_fold_change_formatting():
    # 35.5e7 tokens down to 0.38e7 reads as a 1/93 fold change
    assert fold_change(35.5, 0.38) == "1/93"
    assert fold_change(100.0, 100.0) == "1/1"
    assert fold_change(50.0, 100.0) == "x2.0"


def test_markdown_fold_and_delta_columns():
    rows = [row(method="majority_parallel", tokens=355_000_000, acc=85.3),
            row(method="corefine", tokens=3_800_000, acc=90.0)]
    text = emit_report(rows, format="markdown").decode()
    assert "1/93" in text
    assert "+4.7" in text
    assert text.startswith("| Method ")


def test_json_roundtrip():
    rows = [row(), row(method="corefine", tokens=50)]
    blob = emit_report(rows, format="json")
    again = load_report(blob)
    assert again == rows


def test_report_bytes_stable():
    rows = [row(), row(method="x")]
    assert emit_report(rows, "markdown") == emit_report(rows, "markdown")
    assert emit_report(rows, "csv") == emit_report(rows, "csv")


def test_empty_rows_rejected():
    with pytest.raises(ValueError):
        emit_report([], format="csv")
