"""Sequential confidence-guided refinement.

One run: generate, score the trace, ask the controller, and either accept
the answer or synthesize a refinement prompt (compacted history + action-
specific instruction) and generate again, up to an iteration cap. Two
safety valves sit above the controller: an answer-consistency override that
accepts any answer seen enough times, and the cap itself.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .backend import Backend, BackendError, Completion, GenerationConfig, drain_concurrent
from .confidence import (
    DEFAULT_BINS,
    FeatureVector,
    NormalizationTable,
    TraceStats,
    downsample,
    normalize,
    stats,
)
from .controller import Action, Decision
from .datasets import Problem, as_problem, choice_letter, normalize_math_answer

TERMINATIONS = ("halt", "refuse", "max_iterations", "consistency_override",
                "early_stop", "max_depth", "no_refinement", "failed")
_Ending = tuple[str, str | None]  # how a run ends: its terminated_by and final_answer


@dataclass(frozen=True)
class LoopConfig:
    max_iterations: int = 20
    consistency_override_count: int = 3
    normalization: NormalizationTable | None = None
    two_phase_refusal: bool = False
    max_truncation_retries: int = 1

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.consistency_override_count < 1:
            raise ValueError("consistency_override_count must be >= 1")


@dataclass(frozen=True)
class Node:
    """One scored generation, as the loop and the tree both keep it.
    ``parent`` is the id of the node it refines (None for a first
    generation); ``action`` is the executed action, which differs from
    ``decision.action`` only on truncation."""

    id: int
    parent: int | None
    depth: int
    decision: Decision
    action: Action
    answer: str | None
    confidence_mean: float
    confidence_min: float
    tokens: int
    compacted_text: str = field(repr=False)

    @property
    def halting(self) -> bool:
        return self.action in (Action.HALT, Action.REFUSE)


@dataclass
class RunResult:
    """One run of the loop or the tree. ``nodes[i].id == i``: the loop's
    nodes form one chain, a tree's come level by level. ``total_tokens``
    counts every token served; the rest are views of ``nodes`` and
    ``terminated_by``, which reads "failed" until the run ends."""

    problem_id: str
    nodes: list[Node] = field(default_factory=list)
    final_answer: str | None = None
    total_tokens: int = 0
    terminated_by: str = "failed"

    def __post_init__(self) -> None:
        if self.terminated_by not in TERMINATIONS:
            raise ValueError(f"terminated_by must be one of {TERMINATIONS}")

    @property
    def iterations_used(self) -> int:
        return len(self.nodes)

    @property
    def decisions(self) -> list[Decision]:
        return [n.decision for n in self.nodes]

    @property
    def early_stopped(self) -> bool:
        return self.terminated_by == "early_stop"

    @property
    def halted_node_ids(self) -> list[int]:
        return [n.id for n in self.nodes if n.halting]

    def max_depth_explored(self) -> int:
        return max((n.depth for n in self.nodes), default=0)

    def ancestry(self, node: Node) -> list[Node]:
        """``node`` and its ancestors, root first: its children's history."""
        chain = [node]
        while chain[-1].parent is not None:
            chain.append(self.nodes[chain[-1].parent])
        return chain[::-1]


class RefinementError(Exception):
    """Backend failure mid-run; ``partial`` is the ``RunResult`` so far, which
    reads "failed" and counts every token served, the failed node's included."""

    def __init__(self, message: str, partial: RunResult):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# Answer extraction
# ---------------------------------------------------------------------------

_ANSWER_LINE = re.compile(
    r"^(?:final\s+)?answer\s*(?:is)?\s*[:\-]?\s*\(?([A-Za-z])\)?\s*\.?$", re.IGNORECASE)


def _last_boxed(text: str) -> str | None:
    starts = [m.start() for m in re.finditer(r"\\boxed", text)]
    for idx in reversed(starts):
        scan = idx + len("\\boxed")
        while scan < len(text) and text[scan].isspace():
            scan += 1
        if scan >= len(text) or text[scan] != "{":
            continue
        depth = 0
        for end in range(scan, len(text)):
            if text[end] == "{":
                depth += 1
            elif text[end] == "}":
                depth -= 1
                if depth == 0:
                    return text[scan + 1:end]
        # unbalanced: try an earlier \boxed
    return None


def _final_choice_letter(text: str) -> str | None:
    boxed = _last_boxed(text)
    if boxed is not None and len(boxed.strip()) == 1 and boxed.strip().isalpha():
        return boxed.strip().upper()
    for line in reversed(text.splitlines()):
        stripped = line.strip().strip("*_`")
        if not stripped:
            continue
        bare = stripped.strip("().:").strip()
        if len(bare) == 1 and bare.isalpha():
            return bare.upper()
        m = _ANSWER_LINE.match(stripped)
        if m:
            return m.group(1).upper()
        # only the trailing non-empty lines can carry the final letter
        if len(stripped) > 40:
            break
    return None


def extract_answer(text: str, mode: str = "math_boxed") -> str | None:
    """Pull the final answer out of a response; absent answers come back as
    None, never as an exception (extraction failures are a known runtime
    condition the loop has to tolerate)."""
    if not text:
        return None
    if mode == "math_boxed":
        content = _last_boxed(text)
        return content.strip() if content is not None else None
    if mode == "mcq":
        return _final_choice_letter(text)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------

def format_confidence_stats(s: TraceStats) -> str:
    return (f"mean={s.mean:.2f} min={s.min:.2f} tail={s.tail_mean:.2f} "
            f"slope={s.slope:+.2f}")


def compact(response: str, answer: str | None, s: TraceStats, budget: int) -> str:
    """Lossy summary of one attempt: answer, confidence statistics, and a
    trailing window of the reasoning, capped at ``budget`` characters. The
    window is 800 tokens at 4 characters per token, so no tokenizer is
    needed."""
    header = (f"Answer: {answer if answer is not None else '(none)'}\n"
              f"Confidence: {format_confidence_stats(s)}\n"
              f"Reasoning tail:\n")
    room = budget - len(header)
    tail = response[-min(3200, max(room, 0)):] if room > 0 else ""
    return (header + tail)[:budget]


# ---------------------------------------------------------------------------
# Prompt synthesis
# ---------------------------------------------------------------------------

MATH_INITIAL = (
    "Solve the following problem.\n\n"
    "Problem: {problem}\n\n"
    "Please provide your solution with final answer in \\boxed{{}}."
)

MATH_RETHINK = (
    "You are solving a mathematical problem. Your previous attempt may have errors.\n\n"
    "Problem: {problem}\n\n"
    "Previous Attempts:\n{history}\n\n"
    "Previous Answer: {previous_answer}\n"
    "Confidence: {confidence_stats}\n\n"
    "Task: Re-examine your reasoning step by step. Verify each calculation and "
    "logical inference. Consider whether your approach is sound. If you find "
    "errors, correct them. If your reasoning is correct, confirm your answer.\n\n"
    "Please provide your solution with final answer in \\boxed{{}}."
)

MATH_ALTERNATIVE = (
    "You are solving a mathematical problem. Your previous approaches have not "
    "succeeded.\n\n"
    "Problem: {problem}\n\n"
    "Previous Attempts:\n{history}\n\n"
    "Task: Your previous approaches may have fundamental issues. Try a COMPLETELY "
    "DIFFERENT method or problem formulation. Consider:\n"
    "- Alternative problem representations\n"
    "- Different mathematical techniques\n"
    "- Unconventional solution paths\n\n"
    "Please provide your solution with final answer in \\boxed{{}}."
)

MCQ_ANSWER_FORMAT = "Answer with a single letter on the final line."

REMOVAL_NOTICE = (
    "Your previous answer was 'Insufficient information' - but that option has "
    "been REMOVED. You MUST now select from the remaining choices."
)

MCQ_RETHINK_TASK = (
    "Task: Re-examine your reasoning step by step. Verify each inference against "
    "the choices. If you find errors, correct them. If your reasoning is correct, "
    "confirm your answer."
)

MCQ_ALTERNATIVE_TASK = (
    "Task: Your previous approach may have fundamental issues. Try a COMPLETELY "
    "DIFFERENT line of reasoning before committing to a choice."
)


def _format_choices(choices: Iterable[tuple[int, str]]) -> str:
    """One line per (index, text) pair, lettered by the choice's index in
    ``Problem.choices``, so a letter names the same choice in every phase."""
    return "\n".join(f"{choice_letter(i)}. {c}" for i, c in choices)


def _history_text(history: Sequence[Node]) -> str:
    if not history:
        return "(none)"
    return "\n\n".join(f"[Attempt {n.depth + 1}]\n{n.compacted_text}" for n in history)


def _mcq_choices_for_phase(problem: Problem, phase: int,
                           two_phase: bool) -> tuple[list[tuple[int, str]], bool]:
    """Returns ((index, text) of each choice to show, whether the refusal
    option was removed)."""
    shown = list(enumerate(problem.choices or ()))
    unsure = problem.unsure_index()
    removed = two_phase and phase >= 1 and unsure is not None
    if removed:
        del shown[unsure]
    return shown, removed


def build_initial_prompt(problem: Problem | str) -> list[dict]:
    problem = as_problem(problem)
    if problem.mode == "math_boxed":
        content = MATH_INITIAL.format(problem=problem.statement)
    else:
        content = (f"Answer the following multiple-choice question.\n\n"
                   f"Question: {problem.statement}\n\n"
                   f"Choices:\n{_format_choices(enumerate(problem.choices))}\n\n"
                   f"Think it through, then answer. {MCQ_ANSWER_FORMAT}")
    return [{"role": "user", "content": content}]


def build_prompt(
    problem: Problem | str,
    history: Sequence[Node],
    action: Action,
    phase: int = 0,
    two_phase: bool = False,
) -> list[dict]:
    """Synthesis prompt for a refinement step. ``history`` is the refined
    node's chain of ancestors, oldest first, ending with the node itself;
    the answer mode is the problem's.

    RETHINK embeds the previous answer and a verification instruction;
    ALTERNATIVE embeds the compacted history and a switch-method
    instruction. In refusal mode, phase >= 1 uses the aggressive template:
    the refusal choice is removed and the prompt says so; the other
    choices keep their letters.
    """
    if action not in (Action.RETHINK, Action.ALTERNATIVE):
        raise ValueError(f"no synthesis prompt exists for {action.name}")
    problem = as_problem(problem)
    history_text = _history_text(history)

    if problem.mode == "math_boxed":
        if action is Action.RETHINK:
            last = history[-1] if history else None
            content = MATH_RETHINK.format(
                problem=problem.statement,
                history=history_text,
                previous_answer=last.answer if last and last.answer else "(none)",
                confidence_stats=(f"mean={last.confidence_mean:.2f} "
                                  f"min={last.confidence_min:.2f}") if last else "(none)",
            )
        else:
            content = MATH_ALTERNATIVE.format(problem=problem.statement,
                                              history=history_text)
        return [{"role": "user", "content": content}]

    if problem.mode != "mcq":
        raise ValueError(f"unknown mode {problem.mode!r}")
    choices, removed = _mcq_choices_for_phase(problem, phase, two_phase)
    task = MCQ_RETHINK_TASK if action is Action.RETHINK else MCQ_ALTERNATIVE_TASK
    parts = [
        "You are answering a multiple-choice question. Your previous attempt "
        "needs another look.",
        f"Question: {problem.statement}",
        f"Previous Attempts:\n{history_text}",
    ]
    if removed:
        parts.append(REMOVAL_NOTICE)
    parts.append(f"Choices:\n{_format_choices(choices)}")
    parts.append(task)
    parts.append(MCQ_ANSWER_FORMAT)
    return [{"role": "user", "content": "\n\n".join(parts)}]


# ---------------------------------------------------------------------------
# The level loop: one loop for the sequential run and the tree
# ---------------------------------------------------------------------------

def score_node(completion: Completion, tokens: int, node_id: int, parent: Node | None,
               controller, loop_cfg: LoopConfig, mode: str) -> Node:
    """Score one served generation into node ``node_id``, a child of
    ``parent``: statistics of its trace, feature pooled to the controller's
    ``input_length`` (``DEFAULT_BINS`` for a controller without one) and
    normalized, the controller's decision, the executed action, the answer
    extracted in ``mode`` and the compacted summary later prompts embed.
    The node's depth is the feature's iteration. The feature reuses the
    bins ``stats`` pooled, unless the controller wants another length."""
    depth = parent.depth + 1 if parent is not None else 0
    trace = completion.trace
    trace_stats = stats(trace)
    length = getattr(controller, "input_length", DEFAULT_BINS)
    feature = (FeatureVector(trace_stats.bins, iteration=depth) if length == DEFAULT_BINS
               else downsample(trace, length, iteration=depth))
    if loop_cfg.normalization is not None:
        feature = normalize(feature, loop_cfg.normalization)
    decision = controller.decide(feature)
    # a completion still truncated after retries is unproductive: switch
    # approach instead of trusting its decision
    action = Action.ALTERNATIVE if completion.finish_reason == "length" else decision.action
    answer = extract_answer(completion.text, mode)
    return Node(id=node_id, parent=parent.id if parent is not None else None, depth=depth,
                decision=decision, action=action, answer=answer,
                confidence_mean=trace_stats.mean, confidence_min=trace_stats.min,
                tokens=tokens,
                compacted_text=compact(completion.text, answer, trace_stats, budget=4000))


def _run_levels(problem: Problem | str, backend: Backend, controller, loop_cfg: LoopConfig,
                policy) -> RunResult:
    """Run one problem level by level under ``policy`` (``_Chain`` or
    ``tree._TreePolicy``). Level 0 is ``policy.width`` slots of the initial
    prompt; each later level holds ``policy.branch`` slots per refining node
    of the last, prompted with its ancestry. Each level is served through
    ``drain_concurrent``, scored in id order and offered to ``policy.ending``."""
    problem = as_problem(problem)
    result = RunResult(problem_id=problem.id)

    def serve(messages: list[dict], cfg: GenerationConfig) -> tuple[Completion | BackendError, int]:
        # one slot with its truncation retries: the last completion or the
        # BackendError that failed it, and the tokens of every attempt served
        tokens = 0
        try:
            for _ in range(loop_cfg.max_truncation_retries + 1):
                completion = backend.generate(messages, cfg)
                tokens += completion.completion_tokens
                if completion.finish_reason != "length":
                    break
        except BackendError as exc:
            return exc, tokens
        return completion, tokens

    depth = sent = 0
    level = [(None, build_initial_prompt(problem))] * policy.width
    while True:
        requests = [(prompt, policy.gen_cfg(sent + i)) for i, (_, prompt) in enumerate(level)]
        sent += len(level)
        frontier = []
        for (parent, _), (completion, tokens) in zip(
                level, drain_concurrent(backend, requests, serve)):
            result.total_tokens += tokens
            if isinstance(completion, BackendError):
                policy.failed(completion, result)
                continue
            frontier.append(score_node(completion, tokens, len(result.nodes), parent,
                                       controller, loop_cfg, problem.mode))
            result.nodes.append(frontier[-1])
        # free the level's last response (its text and trace) before the next level
        del completion
        ending = policy.ending(result, frontier, depth)
        if ending is not None:
            result.terminated_by, result.final_answer = ending
            return result
        depth += 1
        level = [(n, build_prompt(problem, result.ancestry(n), n.action, phase=depth,
                                  two_phase=loop_cfg.two_phase_refusal))
                 for n in frontier if not n.halting]
        level = [slot for slot in level for _ in range(policy.branch)]


class _Chain:
    """The loop's policy: width and branch 1, the run's own ``gen_cfg`` on
    every step, and ``run``'s failure and ending rules."""

    width = branch = 1

    def __init__(self, gen_cfg: GenerationConfig, loop_cfg: LoopConfig):
        self.cfg, self.loop_cfg = gen_cfg, loop_cfg
        self.answer_counts: Counter[str | None] = Counter()

    def gen_cfg(self, slot: int) -> GenerationConfig:
        return self.cfg

    def failed(self, error: BackendError, result: RunResult) -> None:
        raise RefinementError(str(error), partial=result) from error

    def ending(self, result: RunResult, level: list[Node], depth: int) -> _Ending | None:
        (node,) = level
        key = normalize_math_answer(node.answer)
        self.answer_counts[key] += 1
        if key is not None and self.answer_counts[key] >= self.loop_cfg.consistency_override_count:
            return "consistency_override", node.answer
        if node.action is Action.HALT:
            return "halt", node.answer
        if node.action is Action.REFUSE:
            return "refuse", None
        if depth + 1 == self.loop_cfg.max_iterations:
            return "max_iterations", node.answer
        return None


def run(
    problem: Problem | str,
    backend: Backend,
    controller,
    gen_cfg: GenerationConfig,
    loop_cfg: LoopConfig,
) -> RunResult:
    """Run the refinement loop on one problem.

    ``controller`` is anything with ``decide(FeatureVector) -> Decision``
    (the trained network, or a scripted stand-in for tests). Termination:
    the controller's HALT (or REFUSE on 4-action models), the answer-
    consistency override, or the iteration cap, whichever comes first. A
    failed node raises ``RefinementError`` whose partial result counts the
    tokens already served, the failed node's included.
    """
    return _run_levels(problem, backend, controller, loop_cfg, _Chain(gen_cfg, loop_cfg))


def write_run_log(path: str | Path, results: Iterable[RunResult]) -> None:
    """One JSON line per node: problem_id, t, action, probs, answer,
    confidence_mean, tokens."""
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            for n in result.nodes:
                fh.write(json.dumps({
                    "problem_id": result.problem_id, "t": n.depth + 1,
                    "action": n.action.name, "probs": list(n.decision.probs),
                    "answer": n.answer, "confidence_mean": n.confidence_mean,
                    "tokens": n.tokens,
                }) + "\n")


__all__ = [
    "LoopConfig",
    "Node",
    "RefinementError",
    "RunResult",
    "build_initial_prompt",
    "build_prompt",
    "compact",
    "extract_answer",
    "format_confidence_stats",
    "normalize_math_answer",
    "run",
    "write_run_log",
]
