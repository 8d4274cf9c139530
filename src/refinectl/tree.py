"""Hybrid parallel/sequential refinement over a tree of traces.

Warmup samples K traces in parallel; every trace the controller marks for
refinement spawns B children built from its compacted history and the
action-specific synthesis prompt; halting traces become leaves. After each
completed depth level the cumulative halt rate over all decisions so far is
checked: above one half the tree stops early, and exactly one half also
stops when the HALT traces agree on an answer. The final answer is voted
over halted nodes (majority, confidence-weighted, or high-confidence
majority), falling back to the leaves when nothing halted; refusing nodes
halt but cast no vote and take no part in the agreement. A tree is the
sequential loop's level loop, ``refine._run_levels``, under ``_TreePolicy``.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .backend import Backend, BackendError, GenerationConfig
from .controller import Action
from .datasets import Problem, is_correct, normalize_math_answer
from .refine import LoopConfig, Node, RefinementError, RunResult, _Ending, _run_levels

logger = logging.getLogger(__name__)

VOTE_METHODS = ("majority", "confidence_weighted", "high_confidence_majority")


@dataclass(frozen=True)
class TreeConfig:
    warmup: int = 4
    branch_factor: int = 2
    max_depth: int = 3
    vote: str = "majority"

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


def early_stop_check(actions: Sequence[Action], answers_of_halted: Sequence[str | None]) -> bool:
    """Stop when halting actions exceed half of all actions so far, or hit
    exactly half while every answer in ``answers_of_halted`` has the same
    ``normalize_math_answer`` key; answers without a key never agree.
    REFUSE counts as halting, but ``run_tree`` passes only the answers of
    HALT nodes, since refusing nodes cast no vote."""
    if not actions:
        raise ValueError("actions must be non-empty")
    halting = sum(1 for a in actions if a in (Action.HALT, Action.REFUSE))
    if 2 * halting > len(actions):
        return True
    keys = {normalize_math_answer(a) for a in answers_of_halted}
    return 2 * halting == len(actions) and len(keys) == 1 and None not in keys


def aggregate(
    halted: Sequence[Node],
    method: str = "majority",
    fallback_all: Sequence[Node] = (),
) -> str | None:
    """Vote a final answer, keyed by ``normalize_math_answer``. An empty
    halted set falls back to the given nodes (normally the leaves); refusing
    nodes and answers without a key cast no vote, so a halted set whose
    members all refused or abstained yields None. Ties break toward the
    higher summed trace confidence, then lexicographically smallest answer.
    The high-confidence vote keeps the candidates at or above their median
    confidence."""
    pool = list(halted) if halted else list(fallback_all)
    candidates = [n for n in pool if n.action is not Action.REFUSE
                  and normalize_math_answer(n.answer) is not None]
    if not candidates:
        return None

    if method == "high_confidence_majority":
        cut = float(np.quantile([n.confidence_mean for n in candidates], 0.5))
        kept = [n for n in candidates if n.confidence_mean >= cut]
        candidates = kept or candidates
        method = "majority"

    counts: dict[str, float] = {}
    conf_sums: dict[str, float] = {}
    for n in candidates:
        key = normalize_math_answer(n.answer)
        counts[key] = counts.get(key, 0.0) + 1.0
        conf_sums[key] = conf_sums.get(key, 0.0) + n.confidence_mean

    if method == "majority":
        score = counts
    elif method == "confidence_weighted":
        score = conf_sums
    else:
        raise ValueError(f"unknown vote method {method!r}")
    return min(score, key=lambda a: (-score[a], -conf_sums[a], a))


class _TreePolicy:
    """The tree's policy: width ``warmup``, branch ``branch_factor``, slot i
    of the run sampled with seed + i, and ``run_tree``'s failure and endings."""

    def __init__(self, gen_cfg: GenerationConfig, tree_cfg: TreeConfig):
        self.cfg, self.tree_cfg = gen_cfg, tree_cfg
        self.width, self.branch = tree_cfg.warmup, tree_cfg.branch_factor

    def gen_cfg(self, slot: int) -> GenerationConfig:
        return self.cfg if self.cfg.seed is None else self.cfg.with_seed(self.cfg.seed + slot)

    def failed(self, error: BackendError, run: RunResult) -> None:
        logger.warning("tree node generation failed: %s", error)

    def ending(self, run: RunResult, level: list[Node], depth: int) -> _Ending | None:
        if not run.nodes:
            raise RefinementError("all warmup generations failed", partial=run)
        if level and early_stop_check(
                [n.action for n in run.nodes],
                [n.answer for n in run.nodes if n.action is Action.HALT]):  # refusals cast no vote
            ending = "early_stop"
        elif depth == self.tree_cfg.max_depth:
            ending = "max_depth"
        elif all(n.halting for n in level):
            ending = "no_refinement"
        else:
            return None
        parent_ids = {n.parent for n in run.nodes if n.parent is not None}
        leaves = [n for n in run.nodes if n.id not in parent_ids]
        return ending, aggregate([n for n in run.nodes if n.halting], self.tree_cfg.vote,
                                 fallback_all=leaves)


def run_tree(
    problem: Problem | str,
    backend: Backend,
    controller,
    gen_cfg: GenerationConfig,
    tree_cfg: TreeConfig,
    loop_cfg: LoopConfig,
) -> RunResult:
    """Execute one tree: warmup, branching refinement, early stopping, vote.

    Node ids are assigned level by level in (parent id, child index) order
    and controller decisions are evaluated in node-id order, so runs on the
    mock backend are deterministic regardless of completion scheduling.
    The run ends on "early_stop", "max_depth" or "no_refinement".

    A failed generation or failed truncation retry fails its slot only: the
    slot is logged and skipped, and the tokens it was served still count in
    ``total_tokens``. When every warmup slot fails, ``RefinementError``
    carries the node-less run as its partial result.
    """
    return _run_levels(problem, backend, controller, loop_cfg, _TreePolicy(gen_cfg, tree_cfg))


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


def tree_metrics(runs: Sequence[RunResult],
                 ground_truth: Mapping[str, Problem | str]) -> TreeMetrics:
    """Aggregate behaviour statistics over many tree runs.

    ``ground_truth`` maps a problem id to its :class:`Problem` or to a bare
    ``math_boxed`` truth; answers are scored by :func:`is_correct`, the
    bench's rule. A run counts as high-halt when at least half of its
    decisions were halting; halt precision is the correct fraction among
    those runs and is None when no run qualifies.
    """
    if not runs:
        raise ValueError("no runs to report on")

    def correct(run: RunResult) -> bool:
        truth = ground_truth.get(run.problem_id)
        if isinstance(truth, str):
            truth = Problem(id=run.problem_id, statement="", ground_truth=truth)
        return truth is not None and is_correct(truth, run.final_answer)

    early = [r for r in runs if r.early_stopped]
    high_halt = [r for r in runs if r.nodes and 2 * len(r.halted_node_ids) >= len(r.nodes)]
    action_counts = Counter(n.action.name for r in runs for n in r.nodes)
    total_decisions = sum(action_counts.values())

    return TreeMetrics(
        runs=len(runs),
        early_stop_rate=len(early) / len(runs),
        early_stop_accuracy=(sum(1 for r in early if correct(r)) / len(early))
        if early else None,
        nodes_explored_mean=float(np.mean([len(r.nodes) for r in runs])),
        depth_mean=float(np.mean([r.max_depth_explored() for r in runs])),
        high_halt_count=len(high_halt),
        halt_precision=(sum(1 for r in high_halt if correct(r)) / len(high_halt))
        if high_halt else None,
        action_distribution={k: v / total_decisions for k, v in sorted(action_counts.items())}
        if total_decisions else {},
    )


def write_tree_dump(path, runs: Iterable[RunResult]) -> None:
    """One JSON line per run: problem_id, nodes, early_stopped, final_answer."""
    with open(path, "w", encoding="utf-8") as fh:
        for run in runs:
            fh.write(json.dumps({
                "problem_id": run.problem_id,
                "nodes": [{
                    "id": n.id, "parent": n.parent, "depth": n.depth,
                    "answer": n.answer, "action": n.action.name,
                    "probs": list(n.decision.probs), "conf": n.confidence_mean,
                    "tokens": n.tokens,
                } for n in run.nodes],
                "early_stopped": run.early_stopped,
                "final_answer": run.final_answer,
            }) + "\n")


__all__ = [
    "TreeConfig",
    "TreeMetrics",
    "aggregate",
    "early_stop_check",
    "run_tree",
    "tree_metrics",
    "write_tree_dump",
]
