"""Hybrid parallel/sequential refinement over a tree of traces.

Warmup samples K traces in parallel; every trace the controller marks for
refinement spawns B children built from its compacted history and the
action-specific synthesis prompt; halting traces become leaves. After each
completed depth level the cumulative halt rate over all decisions so far is
checked: above one half the tree stops early, and exactly one half also
stops when the halted traces agree on an answer. The final answer is voted
over halted nodes (majority, confidence-weighted, or high-confidence
majority), falling back to the leaves when nothing halted.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .backend import Backend, BackendError, GenerationConfig, drain_concurrent
from .confidence import build_trace, downsample, normalize, stats
from .controller import Action, Decision
from .datasets import Problem
from .refine import (
    IterationSummary,
    LoopConfig,
    RefinementError,
    _as_problem,
    build_initial_prompt,
    build_prompt,
    compact,
    extract_answer,
    normalize_math_answer,
)

logger = logging.getLogger(__name__)

VOTE_METHODS = ("majority", "confidence_weighted", "high_confidence_majority")


@dataclass(frozen=True)
class TreeConfig:
    warmup: int = 4
    branch_factor: int = 2
    max_depth: int = 3
    halt_rate_threshold: float = 0.5
    vote: str = "majority"
    high_conf_quantile: float = 0.5

    def __post_init__(self) -> None:
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1")
        if self.branch_factor < 1:
            raise ValueError("branch_factor must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.vote not in VOTE_METHODS:
            raise ValueError(f"vote must be one of {VOTE_METHODS}")

    def max_nodes(self) -> int:
        return self.warmup * sum(self.branch_factor ** d for d in range(self.max_depth + 1))


@dataclass
class TreeNode:
    id: int
    parent: int | None
    depth: int
    answer: str | None
    decision: Decision
    action: Action  # executed action; differs from decision.action only on truncation
    trace_mean_conf: float
    tokens: int
    spawned_by: Action | None = None
    history: tuple[IterationSummary, ...] = field(default=(), repr=False)

    @property
    def halting(self) -> bool:
        return self.action in (Action.HALT, Action.REFUSE)


@dataclass
class TreeRun:
    problem_id: str
    nodes: list[TreeNode]
    early_stopped: bool
    final_answer: str | None
    halted_node_ids: list[int]
    total_tokens: int

    def max_depth_explored(self) -> int:
        return max((n.depth for n in self.nodes), default=0)

    def to_json(self) -> str:
        return json.dumps({
            "problem_id": self.problem_id,
            "nodes": [{
                "id": n.id, "parent": n.parent, "depth": n.depth,
                "answer": n.answer, "action": n.action.name,
                "probs": list(n.decision.probs), "conf": n.trace_mean_conf,
                "tokens": n.tokens,
            } for n in self.nodes],
            "early_stopped": self.early_stopped,
            "final_answer": self.final_answer,
        })


def early_stop_check(decisions: Sequence, answers_of_halted: Sequence[str | None]) -> bool:
    """Stop when halting decisions exceed half of all decisions so far, or
    hit exactly half while every halted trace carries the same answer.
    Accepts Decision objects or raw Actions; REFUSE counts as halting."""
    if not decisions:
        raise ValueError("decisions must be non-empty")
    actions = [d.action if isinstance(d, Decision) else Action(d) for d in decisions]
    halting = sum(1 for a in actions if a in (Action.HALT, Action.REFUSE))
    if 2 * halting > len(actions):
        return True
    if 2 * halting == len(actions) and len(answers_of_halted) >= 1:
        first = answers_of_halted[0]
        return all(a == first for a in answers_of_halted)
    return False


def aggregate(
    halted: Sequence[TreeNode],
    method: str = "majority",
    fallback_all: Sequence[TreeNode] = (),
    high_conf_quantile: float = 0.5,
) -> str | None:
    """Vote a final answer. An empty halted set falls back to the given
    nodes (normally the leaves); a halted set whose members all abstained
    yields None. Ties break toward the higher summed trace confidence,
    then lexicographically smallest answer."""
    pool = list(halted) if halted else list(fallback_all)
    candidates = [n for n in pool if n.answer is not None]
    if not candidates:
        return None

    if method == "high_confidence_majority":
        cut = float(np.quantile([n.trace_mean_conf for n in candidates], high_conf_quantile))
        kept = [n for n in candidates if n.trace_mean_conf >= cut]
        candidates = kept or candidates
        method = "majority"

    counts: dict[str, float] = {}
    conf_sums: dict[str, float] = {}
    for n in candidates:
        counts[n.answer] = counts.get(n.answer, 0.0) + 1.0
        conf_sums[n.answer] = conf_sums.get(n.answer, 0.0) + n.trace_mean_conf

    if method == "majority":
        score = counts
    elif method == "confidence_weighted":
        score = conf_sums
    else:
        raise ValueError(f"unknown vote method {method!r}")
    return min(score, key=lambda a: (-score[a], -conf_sums[a], a))


def run_tree(
    problem: Problem | str,
    backend: Backend,
    controller,
    gen_cfg: GenerationConfig,
    tree_cfg: TreeConfig,
    loop_cfg: LoopConfig,
    presentation: tuple[str, ...] | None = None,
) -> TreeRun:
    """Execute one tree: warmup, branching refinement, early stopping, vote.

    Node ids are assigned level by level in (parent id, child index) order
    and controller decisions are evaluated in node-id order, so runs on the
    mock backend are deterministic regardless of completion scheduling.
    """
    problem = _as_problem(problem, loop_cfg.mode)
    if loop_cfg.mode == "mcq" and presentation is None:
        presentation = tuple(problem.choices or ())

    run = TreeRun(problem_id=problem.id, nodes=[], early_stopped=False,
                  final_answer=None, halted_node_ids=[], total_tokens=0)

    def slot_cfg(ordinal: int) -> GenerationConfig:
        if gen_cfg.seed is None:
            return gen_cfg
        return gen_cfg.with_seed(gen_cfg.seed + ordinal)

    def evaluate_level(requests, parents: list[TreeNode | None], depth: int) -> list[TreeNode]:
        """Generate one level concurrently, then score and decide serially in
        id order. Failed slots are logged and skipped (sibling isolation)."""
        results = drain_concurrent(backend, requests)
        created: list[TreeNode] = []
        for (messages, cfg), parent, outcome in zip(requests, parents, results):
            if isinstance(outcome, BackendError):
                logger.warning("tree node generation failed: %s", outcome)
                continue
            completion, tokens = outcome, outcome.completion_tokens
            truncated = completion.finish_reason == "length"
            retries = 0
            while truncated and retries < loop_cfg.max_truncation_retries:
                retries += 1
                try:
                    completion = backend.generate(messages, cfg)
                except BackendError as exc:
                    logger.warning("truncation retry failed: %s", exc)
                    break
                tokens += completion.completion_tokens
                truncated = completion.finish_reason == "length"
            run.total_tokens += tokens

            trace = build_trace(completion, gen_cfg.logprob_count)
            feature = downsample(trace, loop_cfg.feature_length, iteration=depth)
            if loop_cfg.normalization is not None:
                feature = normalize(feature, loop_cfg.normalization)
            decision = controller.decide(feature)
            action = Action.ALTERNATIVE if truncated else decision.action
            answer = extract_answer(completion.text, loop_cfg.mode)
            trace_stats = stats(trace)
            summary = IterationSummary(
                iteration=depth + 1, answer=answer, action_taken=action,
                confidence_mean=trace_stats.mean, confidence_min=trace_stats.min,
                compacted_text=compact(completion.text, answer, trace_stats,
                                       loop_cfg.compaction_budget_chars,
                                       loop_cfg.rethink_window_chars),
                tokens_used=tokens)
            node = TreeNode(
                id=len(run.nodes), parent=parent.id if parent else None,
                depth=depth, answer=answer, decision=decision, action=action,
                trace_mean_conf=trace_stats.mean, tokens=tokens,
                spawned_by=parent.action if parent else None,
                history=(parent.history + (summary,)) if parent else (summary,))
            run.nodes.append(node)
            created.append(node)
        return created

    # Phase 1: warmup
    warmup_requests = [
        (build_initial_prompt(problem, loop_cfg.mode, presentation), slot_cfg(i))
        for i in range(tree_cfg.warmup)
    ]
    frontier = evaluate_level(warmup_requests, [None] * tree_cfg.warmup, depth=0)
    if not run.nodes:
        raise RefinementError("all warmup generations failed")

    def should_stop() -> bool:
        halted_answers = [n.answer for n in run.nodes if n.halting]
        return early_stop_check([n.action for n in run.nodes], halted_answers)

    stopped = should_stop()

    # Phase 2: branching refinement, level-synchronous
    depth = 0
    while not stopped and depth < tree_cfg.max_depth:
        depth += 1
        refining = [n for n in frontier if n.action in (Action.RETHINK, Action.ALTERNATIVE)]
        if not refining:
            break
        requests, parents = [], []
        for parent in refining:
            prompt = build_prompt(problem, list(parent.history), parent.action,
                                  loop_cfg.mode, phase=depth, presentation=presentation,
                                  two_phase=loop_cfg.two_phase_refusal)
            for b in range(tree_cfg.branch_factor):
                requests.append((prompt, slot_cfg(len(run.nodes) + len(requests))))
                parents.append(parent)
        frontier = evaluate_level(requests, parents, depth=depth)
        if not frontier:
            break
        stopped = should_stop()

    run.early_stopped = stopped
    halted = [n for n in run.nodes if n.halting]
    run.halted_node_ids = [n.id for n in halted]
    parent_ids = {n.parent for n in run.nodes if n.parent is not None}
    leaves = [n for n in run.nodes if n.id not in parent_ids]
    run.final_answer = aggregate(halted, tree_cfg.vote, fallback_all=leaves,
                                 high_conf_quantile=tree_cfg.high_conf_quantile)
    return run


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class TreeMetrics:
    runs: int
    early_stop_rate: float
    early_stop_accuracy: float | None
    nodes_explored_mean: float
    depth_mean: float
    high_halt_count: int
    halt_precision: float | None
    action_distribution: dict[str, float]


def tree_metrics(runs: Sequence[TreeRun], ground_truth: Mapping[str, str]) -> TreeMetrics:
    """Aggregate behaviour statistics over many tree runs.

    A run counts as high-halt when at least half of its decisions were
    halting; halt precision is the correct fraction among those runs and
    is None when no run qualifies.
    """
    if not runs:
        raise ValueError("no runs to report on")

    def is_correct(run: TreeRun) -> bool:
        truth = ground_truth.get(run.problem_id)
        if truth is None or run.final_answer is None:
            return False
        return normalize_math_answer(run.final_answer) == normalize_math_answer(truth)

    early = [r for r in runs if r.early_stopped]
    high_halt = [r for r in runs if 2 * sum(1 for n in r.nodes if n.halting) >= len(r.nodes)
                 and r.nodes]
    action_counts: dict[str, int] = {}
    total_decisions = 0
    for r in runs:
        for n in r.nodes:
            action_counts[n.action.name] = action_counts.get(n.action.name, 0) + 1
            total_decisions += 1

    return TreeMetrics(
        runs=len(runs),
        early_stop_rate=len(early) / len(runs),
        early_stop_accuracy=(sum(1 for r in early if is_correct(r)) / len(early))
        if early else None,
        nodes_explored_mean=float(np.mean([len(r.nodes) for r in runs])),
        depth_mean=float(np.mean([r.max_depth_explored() for r in runs])),
        high_halt_count=len(high_halt),
        halt_precision=(sum(1 for r in high_halt if is_correct(r)) / len(high_halt))
        if high_halt else None,
        action_distribution={k: v / total_decisions for k, v in sorted(action_counts.items())}
        if total_decisions else {},
    )


def write_tree_dump(path, runs: Iterable[TreeRun]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for run in runs:
            fh.write(run.to_json() + "\n")


__all__ = [
    "TreeConfig",
    "TreeMetrics",
    "TreeNode",
    "TreeRun",
    "aggregate",
    "early_stop_check",
    "run_tree",
    "tree_metrics",
    "write_tree_dump",
]
