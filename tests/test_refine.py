"""Sequential loop: extraction, compaction, prompts, and full mock runs."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from refinectl.backend import GenerationConfig, MockBackend, MockRecord
from refinectl.confidence import ConfidenceTrace, NormalizationTable, stats
from refinectl.controller import Action
from refinectl.datasets import Problem, choice_letter
from refinectl.refine import (
    LoopConfig,
    Node,
    RefinementError,
    build_initial_prompt,
    build_prompt,
    compact,
    extract_answer,
    normalize_math_answer,
    run,
)

from conftest import StubController, boxed_record, make_decision, mock_backend

CFG = GenerationConfig()


# ---------------------------------------------------------------------------
# extract_answer
# ---------------------------------------------------------------------------

def oracle_boxed(text: str) -> str | None:
    """Stack-based brace matcher, independent of the production scanner."""
    best = None
    for m in re.finditer(r"\\boxed\s*\{", text):
        depth, i, buf = 1, m.end(), []
        while i < len(text) and depth:
            ch = text[i]
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
            if depth:
                buf.append(ch)
            i += 1
        if depth == 0:
            best = "".join(buf)
    return best


def test_simple_boxed():
    assert extract_answer("therefore \\boxed{42}.", "math_boxed") == "42"


def test_nested_braces_match_oracle():
    cases = [
        "\\boxed{\\frac{1}{2}}",
        "x = \\boxed{\\sqrt{a + \\frac{b}{c}}} done",
        "first \\boxed{1} then \\boxed{{2}}",
        "\\boxed {  spaced  }",
    ]
    for text in cases:
        got = extract_answer(text, "math_boxed")
        want = oracle_boxed(text)
        assert got == (want.strip() if want is not None else None), text
    assert extract_answer("\\boxed{\\frac{1}{2}}", "math_boxed") == "\\frac{1}{2}"


def test_no_box_returns_none():
    assert extract_answer("no box here", "math_boxed") is None
    assert extract_answer("", "math_boxed") is None


def test_last_box_wins():
    assert extract_answer("\\boxed{1} ... \\boxed{2}", "math_boxed") == "2"


def test_unbalanced_box_falls_back_to_earlier():
    assert extract_answer("\\boxed{ok} junk \\boxed{broken", "math_boxed") == "ok"


def test_mcq_final_letter():
    assert extract_answer("thinking...\nThe answer is clear.\nD", "mcq") == "D"
    assert extract_answer("blah\nAnswer: c\n", "mcq") == "C"
    assert extract_answer("reasons\n(B)", "mcq") == "B"
    assert extract_answer("\\boxed{E}", "mcq") == "E"


def test_mcq_absent():
    assert extract_answer("no letter anywhere in this long final line of text, "
                          "which keeps going well past forty characters", "mcq") is None


def test_math_answer_normalization():
    assert normalize_math_answer(" {42} ") == "42"
    assert normalize_math_answer("{ \\frac{1}{2} }") == "\\frac{1}{2}"
    assert normalize_math_answer(None) is None


# ---------------------------------------------------------------------------
# compact
# ---------------------------------------------------------------------------

def _stats(values):
    return stats(ConfidenceTrace(np.asarray(values, dtype=float)))


def test_compaction_budget_and_answer_retained():
    response = "step " * 2000  # 10k chars
    out = compact(response, "42", _stats([15.0] * 50), budget=1000)
    assert len(out) <= 1000
    assert "42" in out
    assert len(out) < len(response) * 0.11  # >= ~90% reduction


def test_short_response_kept_verbatim():
    response = "short reasoning \\boxed{3}"
    out = compact(response, "3", _stats([15.0] * 50), budget=4000)
    assert response in out
    assert "Confidence:" in out


def test_missing_answer_marked():
    out = compact("text", None, _stats([15.0] * 50), budget=500)
    assert "(none)" in out


def test_compact_never_exceeds_budget(rng):
    for _ in range(20):
        n = int(rng.integers(0, 5000))
        budget = int(rng.integers(100, 3000))
        out = compact("x" * n, "77", _stats([12.0] * 30), budget=budget)
        assert len(out) <= budget


def test_a_node_keeps_the_last_3200_characters_within_4000():
    response = "".join(f"{i:05d}" for i in range(2000))  # 10k chars, no repeats
    backend = mock_backend(MockRecord(text=response, confidences=[15.0] * 50))
    node = run("p", backend, StubController(actions=[Action.HALT]), CFG, LoopConfig()).nodes[0]
    assert len(node.compacted_text) <= 4000
    assert node.compacted_text.endswith("\n" + response[-3200:])


# ---------------------------------------------------------------------------
# prompts
# ---------------------------------------------------------------------------

def summary_for_tests(answer="41"):
    return Node(id=0, parent=None, depth=0, decision=make_decision(Action.RETHINK),
                action=Action.RETHINK, answer=answer, confidence_mean=14.2,
                confidence_min=9.1, tokens=100, compacted_text="Answer: 41\nsketch")


def test_rethink_prompt_contents():
    messages = build_prompt("what is 6*7?", [summary_for_tests()], Action.RETHINK)
    text = messages[0]["content"]
    assert "what is 6*7?" in text
    assert "41" in text
    assert "Re-examine your reasoning step by step" in text
    assert "\\boxed{}" in text


def test_alternative_prompt_contents():
    messages = build_prompt("p?", [summary_for_tests()], Action.ALTERNATIVE)
    text = messages[0]["content"]
    assert "COMPLETELY DIFFERENT" in text


def test_prompt_rejects_halt_and_refuse():
    for action in (Action.HALT, Action.REFUSE):
        with pytest.raises(ValueError):
            build_prompt("p", [], action)


def test_prompt_size_bounded():
    problem = "p" * 500
    budget = 1000
    history = []
    for t in range(1, 8):
        history.append(Node(t - 1, t - 2 if t > 1 else None, t - 1,
                            make_decision(Action.RETHINK), Action.RETHINK, "1", 10.0, 9.0,
                            10, "x" * budget))
        messages = build_prompt(problem, history, Action.ALTERNATIVE)
        size = len(messages[0]["content"])
        assert size <= len(problem) + len(history) * (budget + 40) + 800


MCQ_PROBLEM = Problem(
    id="q1", statement="Which gene?", ground_truth="BRCA2", mode="mcq",
    choices=("BRCA1", "BRCA2", "TP53", "EGFR", "Insufficient information to answer"))


def test_mcq_neutral_prompt_lists_all_choices():
    messages = build_initial_prompt(MCQ_PROBLEM)
    text = messages[0]["content"]
    assert text.count("\n") >= 5
    for letter in ("A.", "B.", "C.", "D.", "E."):
        assert letter in text
    assert "Insufficient information" in text
    assert "single letter" in text


def test_prompts_take_the_answer_mode_from_the_problem():
    for action in (Action.RETHINK, Action.ALTERNATIVE):
        text = build_prompt(MCQ_PROBLEM, [], action)[0]["content"]
        assert "\\boxed" not in text and "single letter" in text
        assert all(f"{letter}. " in text for letter in "ABCDE")
    assert "\\boxed{}" in build_prompt("p?", [], Action.RETHINK)[0]["content"]
    assert "\\boxed{}" in build_initial_prompt("p?")[0]["content"]


def test_mcq_aggressive_prompt_removes_unsure():
    messages = build_prompt(MCQ_PROBLEM, [summary_for_tests("E")], Action.RETHINK,
                            phase=1, two_phase=True)
    text = messages[0]["content"]
    assert "REMOVED" in text
    assert "E." not in text  # only 4 letters remain
    assert "D." in text
    # the refusal text survives only inside the removal notice
    assert "Insufficient information to answer" not in text


def test_mcq_phase0_refinement_keeps_choices():
    messages = build_prompt(MCQ_PROBLEM, [], Action.RETHINK, phase=0,
                            two_phase=True)
    assert "E." in messages[0]["content"]


def test_mcq_without_two_phase_keeps_unsure():
    messages = build_prompt(MCQ_PROBLEM, [], Action.RETHINK, phase=2,
                            two_phase=False)
    text = messages[0]["content"]
    assert "E." in text
    assert "REMOVED" not in text


CHOICE_LINE = re.compile(r"^([A-Z])\. (.*)$", re.MULTILINE)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.integers(0, 99).map(lambda k: f"option {k}"),
                      min_size=1, max_size=6, unique=True),
       unsure=st.one_of(st.none(), st.integers(0, 5)),
       phase=st.integers(0, 3), two_phase=st.sampled_from([None, False, True]),
       action=st.sampled_from([Action.RETHINK, Action.ALTERNATIVE]))
def test_mcq_choice_lines_keep_their_letters(texts, unsure, phase, two_phase, action):
    """Every choice line reads "<letter of its index>. <text>" in every
    prompt; the refusal line is missing exactly when two-phase refusal is on
    (it is off when not passed), the phase is >= 1 and a refusal choice
    exists."""
    choices = list(texts)
    if unsure is not None:
        choices.insert(min(unsure, len(choices)), "Insufficient information")
    assume(2 <= len(choices) <= 6)
    problem = Problem(id="q", statement="Which?", ground_truth=choices[-1], mode="mcq",
                      choices=tuple(choices))
    kwargs = {} if two_phase is None else {"two_phase": two_phase}
    removed = bool(two_phase) and phase >= 1 and unsure is not None
    expected = [(choice_letter(i), c) for i, c in enumerate(choices)
                if not (removed and c == "Insufficient information")]
    refined = build_prompt(problem, [summary_for_tests("B")], action,
                           phase=phase, **kwargs)[0]["content"]
    assert CHOICE_LINE.findall(refined) == expected
    assert ("REMOVED" in refined) == removed
    initial = build_initial_prompt(problem)[0]["content"]
    assert CHOICE_LINE.findall(initial) == list(zip(map(choice_letter, range(len(choices))),
                                                    choices))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

class RecordingBackend(MockBackend):
    def __init__(self, records):
        super().__init__(records)
        self.retry_backoff = 0.0
        self.prompts: list[str] = []

    def _generate_once(self, messages, cfg):
        self.prompts.append(messages[-1]["content"])
        return super()._generate_once(messages, cfg)


def test_two_iteration_scenario():
    backend = mock_backend(
        boxed_record("5", [8.0] * 40),    # low confidence, wrong
        boxed_record("7", [16.0] * 30),   # high confidence, right
    )
    controller = StubController(fn=lambda f: Action.RETHINK if f.bins.mean() < 12
                                else Action.HALT)
    result = run("2+5?", backend, controller, CFG, LoopConfig())
    assert result.iterations_used == 2
    assert result.terminated_by == "halt"
    assert result.final_answer == "7"
    assert result.total_tokens == 70
    assert len(result.nodes[:-1]) == 1
    assert len(result.decisions) == 2


def test_always_halt_single_iteration():
    backend = mock_backend(boxed_record("9", [15.0] * 10))
    result = run("p", backend, StubController(actions=[Action.HALT]), CFG, LoopConfig())
    assert result.iterations_used == 1
    assert result.final_answer == "9"
    assert result.nodes[:-1] == []


def test_consistency_override_at_third_identical_answer():
    backend = mock_backend(*[boxed_record("8", [9.0] * 10) for _ in range(3)])
    controller = StubController(actions=[Action.RETHINK, Action.ALTERNATIVE,
                                         Action.RETHINK])
    result = run("p", backend, controller, CFG,
                 LoopConfig(consistency_override_count=3))
    assert result.terminated_by == "consistency_override"
    assert result.iterations_used == 3
    assert result.final_answer == "8"


def test_consistency_override_compares_answers_by_key():
    backend = mock_backend(boxed_record("8", [9.0] * 10), boxed_record("{8}", [9.0] * 10),
                           boxed_record("8", [9.0] * 10), boxed_record("8", [9.0] * 10))
    controller = StubController(actions=[Action.RETHINK] * 3 + [Action.HALT])
    result = run("p", backend, controller, CFG, LoopConfig(consistency_override_count=3))
    assert result.terminated_by == "consistency_override"
    assert result.iterations_used == 3
    assert result.final_answer == "8"


def test_differing_answers_do_not_trigger_override():
    backend = mock_backend(boxed_record("1", [9.0] * 5), boxed_record("2", [9.0] * 5),
                           boxed_record("1", [9.0] * 5), boxed_record("3", [9.0] * 5))
    controller = StubController(actions=[Action.RETHINK] * 3 + [Action.HALT])
    result = run("p", backend, controller, CFG,
                 LoopConfig(consistency_override_count=3))
    assert result.terminated_by == "halt"
    assert result.iterations_used == 4


def test_max_iterations_returns_last_answer():
    backend = mock_backend(*[boxed_record(str(i), [9.0] * 5) for i in range(4)])
    controller = StubController(actions=[Action.RETHINK] * 4)
    result = run("p", backend, controller, CFG, LoopConfig(max_iterations=4))
    assert result.terminated_by == "max_iterations"
    assert result.iterations_used == 4
    assert result.final_answer == "3"
    # halting at the cap means exactly 4 generation calls were made
    assert backend.remaining == 0


def test_refuse_terminates_with_no_answer():
    backend = mock_backend(boxed_record("4", [12.0] * 5))
    controller = StubController(actions=[Action.REFUSE], n_actions=4)
    result = run("p", backend, controller, CFG, LoopConfig())
    assert result.terminated_by == "refuse"
    assert result.final_answer is None


def test_truncation_retry_then_alternative():
    backend = RecordingBackend([
        boxed_record("5", [9.0] * 10, finish="length"),
        boxed_record("5", [9.0] * 10, finish="length"),  # retry also truncated
        boxed_record("6", [15.0] * 10),
    ])
    controller = StubController(actions=[Action.RETHINK, Action.HALT])
    result = run("p", backend, controller, CFG, LoopConfig(max_truncation_retries=1))
    assert result.terminated_by == "halt"
    assert result.iterations_used == 2
    # the follow-up prompt used the switch-approach template, not RETHINK
    assert "COMPLETELY DIFFERENT" in backend.prompts[2]
    assert result.total_tokens == 30


def test_backend_failure_carries_partial_result():
    backend = mock_backend(boxed_record("5", [9.0] * 10),
                           MockRecord(error="boom"))
    controller = StubController(actions=[Action.RETHINK])
    with pytest.raises(RefinementError) as err:
        run("p", backend, controller, CFG, LoopConfig())
    assert err.value.partial is not None
    assert err.value.partial.iterations_used == 1


def test_failed_truncation_retry_counts_served_tokens():
    backend = mock_backend(boxed_record("5", [9.0] * 7, finish="length"),
                           MockRecord(error="boom"))
    with pytest.raises(RefinementError) as err:
        run("p", backend, StubController(actions=[]), CFG,
            LoopConfig(max_truncation_retries=1))
    assert err.value.partial.total_tokens == 7
    assert err.value.partial.iterations_used == 0


def test_a_failed_runs_partial_says_it_failed():
    backend = mock_backend(boxed_record("5", [9.0] * 10), MockRecord(error="boom"))
    with pytest.raises(RefinementError) as err:
        run("p", backend, StubController(actions=[Action.RETHINK]), CFG, LoopConfig())
    assert err.value.partial.terminated_by == "failed"
    assert err.value.partial.final_answer is None


def test_run_deterministic_byte_identical():
    records = [boxed_record("5", [8.0] * 40), boxed_record("7", [16.0] * 30)]
    outcomes = []
    for _ in range(5):
        backend = MockBackend(list(records))
        controller = StubController(fn=lambda f: Action.RETHINK if f.bins.mean() < 12
                                    else Action.HALT)
        result = run("p", backend, controller, CFG, LoopConfig())
        outcomes.append((result.final_answer, result.iterations_used,
                         result.total_tokens,
                         tuple(tuple(d.probs) for d in result.decisions),
                         tuple(result.nodes)))
    assert len(set(outcomes)) == 1


def test_normalization_applied_to_features():
    table = NormalizationTable(mu=(8.0, 0.0, 0.0), sigma=(2.0, 1.0, 1.0))
    backend = mock_backend(boxed_record("5", [8.0] * 32))
    seen = []

    class Spy(StubController):
        def decide(self, feature):
            seen.append(feature)
            return super().decide(feature)

    run("p", backend, Spy(actions=[Action.HALT]), CFG,
        LoopConfig(normalization=table))
    assert seen[0].normalized
    np.testing.assert_allclose(seen[0].bins, 0.0, atol=1e-12)


def test_iteration_index_feeds_normalization():
    backend = mock_backend(boxed_record("1", [10.0] * 8), boxed_record("2", [10.0] * 8))
    seen = []

    class Spy(StubController):
        def decide(self, feature):
            seen.append(feature.iteration)
            return super().decide(feature)

    run("p", backend, Spy(actions=[Action.RETHINK, Action.HALT]), CFG, LoopConfig())
    assert seen == [0, 1]  # generations are indexed from zero


def test_history_length_tracks_iterations(rng):
    for n_iters in (1, 2, 4):
        records = [boxed_record(str(i), [9.0] * 5) for i in range(n_iters)]
        backend = mock_backend(*records)
        controller = StubController(actions=[Action.RETHINK] * (n_iters - 1) +
                                    [Action.HALT])
        result = run("p", backend, controller, CFG, LoopConfig())
        assert result.iterations_used == n_iters
        assert len(result.nodes[:-1]) == n_iters - 1


def test_mcq_two_phase_end_to_end():
    mcq_text = "thinking about the options...\nE"
    backend = RecordingBackend([
        MockRecord(text=mcq_text, confidences=[11.0] * 20),
        MockRecord(text="reconsidering...\nB", confidences=[13.0] * 20),
    ])
    controller = StubController(actions=[Action.RETHINK, Action.HALT], n_actions=4)
    loop_cfg = LoopConfig(two_phase_refusal=True)
    result = run(MCQ_PROBLEM, backend, controller, CFG, loop_cfg)
    assert result.final_answer == "B"
    assert result.iterations_used == 2
    neutral, aggressive = backend.prompts
    assert "E." in neutral and "REMOVED" not in neutral
    assert "REMOVED" in aggressive and "E." not in aggressive


def test_mcq_refuse_run():
    backend = mock_backend(MockRecord(text="I lean toward\nE", confidences=[12.0] * 10))
    controller = StubController(actions=[Action.REFUSE], n_actions=4)
    result = run(MCQ_PROBLEM, backend, controller, CFG, LoopConfig())
    assert result.terminated_by == "refuse"
    assert result.final_answer is None
