"""Benchmark harness: baselines, token accounting, and reports.

Methods: pass@1, parallel and sequential majority voting at K samples,
confidence-filtered voting (optional exclusion band on mean trace
confidence, top-fraction keep, optional confidence weighting), and the two
refinement strategies. Every stochastic method runs once per seed; rows
report mean/std accuracy over seeds plus exact generation-token totals.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .backend import Backend, BackendError, GenerationConfig, drain_concurrent
from .datasets import (  # re-exported: the dataset surface lives with the harness
    DatasetError,
    Problem,
    choice_letter,
    correct_letter,
    is_correct,
    load_dataset,
    normalize_math_answer,
    presented_choices,
)
from .refine import LoopConfig, RefinementError, build_initial_prompt, extract_answer, run
from .tree import TreeConfig, run_tree

logger = logging.getLogger(__name__)

METHODS = ("pass1", "majority_parallel", "majority_sequential", "conf_filtered",
           "corefine", "corefine_tree")
CONTROLLED = ("corefine", "corefine_tree")  # the methods that need a controller


@dataclass(frozen=True)
class RunSpec:
    method: str
    k: int = 1
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    keep_fraction: float = 1.0
    weighted: bool = False
    exclude_min: float | None = None
    exclude_max: float | None = None
    gen_cfg: GenerationConfig = field(default_factory=GenerationConfig)
    loop_cfg: LoopConfig = field(default_factory=LoopConfig)
    tree_cfg: TreeConfig = field(default_factory=TreeConfig)
    randomize_choices: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0 < self.keep_fraction <= 1):
            raise ValueError("keep_fraction must be in (0, 1]")
        if not self.seeds:
            raise ValueError("need at least one seed")


@dataclass
class ReportRow:
    method: str
    dataset: str
    accuracy_mean: float  # percent
    accuracy_std: float   # percent, n-1 denominator over seeds
    tokens_total: int
    wall_time: float
    iterations_mean: float

    def to_dict(self) -> dict:
        return {
            "method": self.method, "dataset": self.dataset,
            "acc_mean": self.accuracy_mean, "acc_std": self.accuracy_std,
            "tokens": self.tokens_total, "time_s": self.wall_time,
            "iters_mean": self.iterations_mean,
        }

    @staticmethod
    def from_dict(d: dict) -> "ReportRow":
        return ReportRow(method=d["method"], dataset=d["dataset"],
                         accuracy_mean=float(d["acc_mean"]), accuracy_std=float(d["acc_std"]),
                         tokens_total=int(d["tokens"]), wall_time=float(d["time_s"]),
                         iterations_mean=float(d["iters_mean"]))


# ---------------------------------------------------------------------------
# Voting
# ---------------------------------------------------------------------------

def majority_vote(answers: Sequence[str | None]) -> str | None:
    """Modal non-empty answer, keyed by ``normalize_math_answer``; ties break
    lexicographically; all-empty -> None."""
    counts = Counter(filter(None, map(normalize_math_answer, answers)))
    if not counts:
        return None
    return min(counts, key=lambda a: (-counts[a], a))


def conf_filtered_vote(
    traces: Sequence[tuple[str | None, float]],
    keep_fraction: float = 1.0,
    weighted: bool = False,
    exclude_min: float | None = None,
    exclude_max: float | None = None,
) -> str | None:
    """Vote over (answer, mean confidence) pairs after confidence filtering.

    Traces outside [exclude_min, exclude_max] are dropped first, then only
    the top ``keep_fraction`` by confidence vote, by count or by summed
    confidence, keyed by ``normalize_math_answer``. With keep_fraction=1,
    no exclusions, and unweighted voting this reduces exactly to
    :func:`majority_vote` (including the lexicographic tie rule).
    """
    if not (0 < keep_fraction <= 1):
        raise ValueError("keep_fraction must be in (0, 1]")
    kept = [(a, c) for a, c in traces
            if (exclude_min is None or c >= exclude_min)
            and (exclude_max is None or c <= exclude_max)]
    if not kept:
        return None
    take = max(1, math.ceil(keep_fraction * len(kept)))
    kept.sort(key=lambda t: -t[1])
    kept = kept[:take]
    score: dict[str, float] = {}
    for a, c in kept:
        key = normalize_math_answer(a)
        if key is not None:
            score[key] = score.get(key, 0.0) + (c if weighted else 1.0)
    if not score:
        return None
    return min(score, key=lambda a: (-score[a], a))


# ---------------------------------------------------------------------------
# Method execution
# ---------------------------------------------------------------------------

@dataclass
class _ProblemOutcome:
    correct: bool
    tokens: int
    generations: int


def _sample_k(problem: Problem, backend: Backend, spec: RunSpec, seed: int,
              sequential: bool) -> tuple[list[tuple[str | None, float, int]], BackendError | None]:
    """K samples of the same prompt -> ((answer, mean confidence, tokens) of
    every served sample, the first failure or None). Sequential sampling
    stops at the first failure; parallel sampling serves every other slot."""
    messages = build_initial_prompt(problem)
    base = spec.gen_cfg if spec.gen_cfg.seed is not None else spec.gen_cfg.with_seed(seed)
    if sequential:
        results: list = []
        for i in range(spec.k):
            try:
                results.append(backend.generate(messages, base.with_seed(base.seed + i)))
            except BackendError as exc:
                results.append(exc)
                break
    else:
        results = drain_concurrent(
            backend, [(messages, base.with_seed(base.seed + i)) for i in range(spec.k)])
    samples: list[tuple[str | None, float, int]] = []
    failure = None
    for completion in results:
        if isinstance(completion, BackendError):
            failure = failure if failure is not None else completion
            continue
        answer = extract_answer(completion.text, problem.mode)
        samples.append((answer, completion.trace.mean, completion.completion_tokens))
    return samples, failure


def _run_problem(problem: Problem, spec: RunSpec, backend: Backend, controller,
                 seed: int) -> _ProblemOutcome:
    if spec.method in ("pass1", "majority_parallel", "majority_sequential", "conf_filtered"):
        k = 1 if spec.method == "pass1" else spec.k
        samples, failure = _sample_k(
            problem, backend, replace(spec, k=k), seed,
            sequential=spec.method in ("pass1", "majority_sequential"))
        tokens = sum(t for _, _, t in samples)
        if failure is not None:
            logger.warning("problem %s failed: %s", problem.id, failure)
            return _ProblemOutcome(False, tokens, len(samples))
        if spec.method == "pass1":
            answer = samples[0][0]
        elif spec.method == "conf_filtered":
            answer = conf_filtered_vote([(a, c) for a, c, _ in samples],
                                        keep_fraction=spec.keep_fraction,
                                        weighted=spec.weighted,
                                        exclude_min=spec.exclude_min,
                                        exclude_max=spec.exclude_max)
        else:
            answer = majority_vote([a for a, _, _ in samples])
        return _ProblemOutcome(is_correct(problem, answer), tokens, k)

    gen = spec.gen_cfg if spec.gen_cfg.seed is not None else spec.gen_cfg.with_seed(seed)
    if spec.method == "corefine":
        done = run(problem, backend, controller, gen, spec.loop_cfg)
    elif spec.method == "corefine_tree":
        done = run_tree(problem, backend, controller, gen, spec.tree_cfg, spec.loop_cfg)
    else:
        raise ValueError(f"unknown method {spec.method!r}")
    return _ProblemOutcome(is_correct(problem, done.final_answer), done.total_tokens,
                           len(done.nodes))


T = TypeVar("T")


def solve_each(solve: Callable[[Problem], T], problems: Sequence[Problem],
               backend: Backend) -> Iterator[T | RefinementError]:
    """``solve(problem)`` of each problem, or the ``RefinementError`` it
    raised, yielded in problem order.

    Up to ``backend.max_inflight`` problems are solved at once, one thread
    each, so their requests share the backend's slots and its drain pool.
    At 1 (``MockBackend``, whose FIFO script must be consumed in problem
    order) they are solved one after another in the calling thread. Any
    other exception propagates when its problem's turn comes: problems not
    yet started are cancelled, and those running finish first.
    """
    def attempt(problem: Problem) -> T | RefinementError:
        try:
            return solve(problem)
        except RefinementError as exc:
            return exc

    width = min(backend.max_inflight, len(problems))
    if width <= 1:
        yield from map(attempt, problems)
        return
    with ThreadPoolExecutor(width, thread_name_prefix="refinectl-problem") as pool:
        yield from pool.map(attempt, problems)


def run_benchmark(
    dataset: Sequence[Problem],
    spec: RunSpec,
    backend: Backend,
    controller=None,
    dataset_name: str = "dataset",
    backend_factory=None,
) -> ReportRow:
    """Evaluate one method over the dataset, once per seed.

    Refinement methods need a controller. ``backend_factory(seed)`` can
    supply a fresh backend per seed (mock scripts are consumed by a run);
    otherwise the given backend is reused. A seed's problems run through
    :func:`solve_each`: up to ``max_inflight`` of them at once, each on its
    own thread, and one after another on a backend with one slot. Outcomes
    are folded in dataset order, so the row does not depend on which problem
    finishes first. Wall time covers generation and voting, not report I/O.
    Per-problem failures are logged and scored as incorrect rather than
    aborting the sweep; a failed problem still counts the tokens of every
    generation served to it before or beside the failure. With
    ``spec.randomize_choices`` each seed reorders every MCQ problem's
    choices up front, drawn in dataset order from ``default_rng(seed)``.
    """
    if spec.method in CONTROLLED and controller is None:
        raise ValueError(f"{spec.method} needs a controller model")

    per_seed_acc: list[float] = []
    tokens_total = 0
    generations_total = 0
    started = time.perf_counter()
    for seed in spec.seeds:
        seed_backend = backend_factory(seed) if backend_factory is not None else backend
        rng = np.random.default_rng(seed)
        problems = [replace(p, choices=presented_choices(p, rng))
                    if spec.randomize_choices and p.mode == "mcq" else p for p in dataset]
        correct = 0
        outcomes = solve_each(
            lambda problem: _run_problem(problem, spec, seed_backend, controller, seed),
            problems, seed_backend)
        for problem, outcome in zip(problems, outcomes):
            if isinstance(outcome, RefinementError):
                logger.warning("problem %s failed: %s", problem.id, outcome)
                outcome = _ProblemOutcome(False, outcome.partial.total_tokens,
                                          len(outcome.partial.nodes))
            correct += outcome.correct
            tokens_total += outcome.tokens
            generations_total += outcome.generations
        per_seed_acc.append(correct / len(dataset) if dataset else 0.0)
    wall = time.perf_counter() - started

    acc = np.array(per_seed_acc) * 100.0
    std = float(acc.std(ddof=1)) if len(acc) > 1 else 0.0
    return ReportRow(
        method=spec.method,
        dataset=dataset_name,
        accuracy_mean=float(acc.mean()),
        accuracy_std=std,
        tokens_total=tokens_total,
        wall_time=wall,
        iterations_mean=generations_total / (len(dataset) * len(spec.seeds)) if dataset else 0.0,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("method", "dataset", "acc_mean", "acc_std", "tokens", "time_s", "iters_mean")


def fold_change(baseline_tokens: float, tokens: float) -> str:
    """Format a token reduction as '1/N' (or 'xM' when tokens grew)."""
    if tokens <= 0 or baseline_tokens <= 0:
        return "-"
    ratio = baseline_tokens / tokens
    if ratio >= 1:
        return f"1/{round(ratio)}"
    return f"x{1 / ratio:.1f}"


def emit_report(rows: Sequence[ReportRow], format: str = "csv") -> bytes:
    """Render rows as csv, json, or a markdown table.

    The markdown table adds token fold-change and accuracy-delta columns
    against the most expensive (highest-token) row of each dataset.
    """
    if not rows:
        raise ValueError("no rows to report")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row.to_dict())
        return buf.getvalue().encode("utf-8")
    if format == "json":
        return json.dumps([row.to_dict() for row in rows], indent=2).encode("utf-8")
    if format == "markdown":
        baseline: dict[str, ReportRow] = {}
        for row in rows:
            cur = baseline.get(row.dataset)
            if cur is None or row.tokens_total > cur.tokens_total:
                baseline[row.dataset] = row
        lines = [
            "| Method | Dataset | Acc (%) | Std | Tokens | Fold | dAcc | Time (s) | Iters |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for row in rows:
            base = baseline[row.dataset]
            fold = "-" if row is base else fold_change(base.tokens_total, row.tokens_total)
            delta = "-" if row is base else f"{row.accuracy_mean - base.accuracy_mean:+.1f}"
            lines.append(
                f"| {row.method} | {row.dataset} | {row.accuracy_mean:.1f} "
                f"| {row.accuracy_std:.1f} | {row.tokens_total} | {fold} | {delta} "
                f"| {row.wall_time:.2f} | {row.iterations_mean:.2f} |")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {format!r}")


class ReportError(ValueError):
    """Report blob violates the json format; message names the bad row."""


def load_report(blob: bytes) -> list[ReportRow]:
    """Inverse of the json format of :func:`emit_report`."""
    try:
        rows = json.loads(blob)
    except ValueError as exc:
        raise ReportError(f"invalid JSON: {exc}") from exc
    if not isinstance(rows, list):
        raise ReportError(f"a report is a JSON list of rows, not a {type(rows).__name__}")
    out = []
    for i, d in enumerate(rows):
        try:
            out.append(ReportRow.from_dict(d))
        except (KeyError, TypeError, ValueError) as exc:
            raise ReportError(f"row {i}: {type(exc).__name__}: {exc}") from exc
    return out


__all__ = [
    "CSV_COLUMNS",
    "DatasetError",
    "Problem",
    "ReportError",
    "ReportRow",
    "RunSpec",
    "choice_letter",
    "conf_filtered_vote",
    "correct_letter",
    "emit_report",
    "fold_change",
    "is_correct",
    "load_dataset",
    "load_report",
    "majority_vote",
    "presented_choices",
    "run_benchmark",
    "solve_each",
]
