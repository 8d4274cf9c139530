"""One answer key: every vote, the early-stop agreement, the consistency
override and scoring key an answer by ``normalize_math_answer``, and an
answer with nothing left after normalizing (``""``, ``"{ }"``) has no key,
exactly like a missing one."""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from refinectl.backend import GenerationConfig, MockRecord
from refinectl.bench import conf_filtered_vote, is_correct, majority_vote
from refinectl.controller import Action
from refinectl.datasets import Problem, normalize_math_answer
from refinectl.refine import LoopConfig, Node, run
from refinectl.tree import VOTE_METHODS, aggregate, early_stop_check

from conftest import StubController, make_decision, mock_backend

ANSWERS = (None, "", "{ }", "3", "{3}", " 3 ", "4")
answers_st = st.lists(st.sampled_from(ANSWERS), min_size=1, max_size=8)


def halted(answers, confs) -> list[Node]:
    return [Node(id=i, parent=None, depth=0, decision=make_decision(Action.HALT),
                 action=Action.HALT, answer=a, confidence_mean=c, confidence_min=c,
                 tokens=1, compacted_text="") for i, (a, c) in enumerate(zip(answers, confs))]


def reply(answer: str | None) -> MockRecord:
    return MockRecord(text="no box" if answer is None else f"so \\boxed{{{answer}}}",
                      confidences=[9.0] * 2)


@settings(max_examples=300, deadline=None)
@given(answers=answers_st, confs=st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=8,
                                          max_size=8),
       method=st.sampled_from(VOTE_METHODS), override=st.integers(1, 3))
def test_every_vote_and_check_keys_answers_alike(answers, confs, method, override):
    keys = [normalize_math_answer(a) for a in answers]
    keyed = {k for k in keys if k is not None}
    assert "" not in keys

    # a vote returns one of the keys, and None only when no answer has one
    for voted in (majority_vote(answers),
                  conf_filtered_vote(list(zip(answers, confs))),
                  aggregate(halted(answers, confs), method)):
        assert voted in keyed if keyed else voted is None

    # halted answers agree only when each has a key, and all the same one
    assert early_stop_check([Action.HALT, Action.RETHINK] * len(answers), answers) is (
        set(keys) == keyed and len(keyed) == 1)

    # the override fires on the first key seen ``override`` times, never on
    # an answer without one
    counts: Counter[str] = Counter()
    fired = None
    for t, key in enumerate(keys, start=1):
        counts[key] += key is not None
        if key is not None and counts[key] == override:
            fired = t
            break
    result = run("p", mock_backend(*map(reply, answers)),
                 StubController(fn=lambda feature: Action.RETHINK), GenerationConfig(),
                 LoopConfig(max_iterations=len(answers), consistency_override_count=override))
    assert (result.terminated_by == "consistency_override") is (fired is not None)
    assert result.iterations_used == (fired or len(answers))

    # scoring treats an answer without a key as absent
    unanswerable = Problem(id="u", statement="?", ground_truth="3", unanswerable=True)
    answerable = Problem(id="a", statement="?", ground_truth="3")
    for answer, key in zip(answers, keys):
        assert is_correct(unanswerable, answer) is (key is None or key == "3")
        assert is_correct(answerable, answer) is (key == "3")
