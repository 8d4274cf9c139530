"""Problem records and the JSONL dataset loader.

Dataset rows: {"id": ..., "statement": ..., "answer": ..., "mode":
"math_boxed"|"mcq", "choices": [str, ...]?, "unanswerable": bool?}, with
JSON's types checked, not coerced: "false" is not a boolean. For MCQ
problems the stored answer is the text of the correct choice, and a choice's
letter is its index in ``Problem.choices``; the bench randomizes choice order
by reordering a problem's choices, which keeps the ground truth valid.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODES = ("math_boxed", "mcq")

UNSURE_MARKERS = ("insufficient information", "unsure", "cannot be determined")


class DatasetError(ValueError):
    """Dataset file violates the schema; message carries the line number."""


def is_unsure_choice(text: str) -> bool:
    low = text.lower()
    return any(marker in low for marker in UNSURE_MARKERS)


@dataclass(frozen=True)
class Problem:
    id: str
    statement: str
    ground_truth: str
    mode: str = "math_boxed"
    choices: tuple[str, ...] | None = None
    unanswerable: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.mode == "mcq":
            if not self.choices or len(self.choices) < 2:
                raise ValueError("mcq problems need at least 2 choices")
            if self.ground_truth not in self.choices:
                raise ValueError("mcq ground truth must be one of the choices")
            if len(set(self.choices)) != len(self.choices):
                raise ValueError("mcq choices must be distinct")

    def unsure_index(self) -> int | None:
        """Index of the refusal choice in ``choices``."""
        for i, c in enumerate(self.choices or ()):
            if is_unsure_choice(c):
                return i
        return None


def as_problem(problem: Problem | str) -> Problem:
    """A bare statement becomes an ad-hoc ``math_boxed`` problem with no
    ground truth."""
    if isinstance(problem, Problem):
        return problem
    return Problem(id="adhoc", statement=str(problem), ground_truth="")


def choice_letter(index: int) -> str:
    return string.ascii_uppercase[index]


def presented_choices(problem: Problem, rng: np.random.Generator) -> tuple[str, ...]:
    """A random choice order for one sample (guards against position bias)."""
    assert problem.choices is not None
    order = list(problem.choices)
    rng.shuffle(order)
    return tuple(order)


def correct_letter(problem: Problem) -> str:
    return choice_letter(problem.choices.index(problem.ground_truth))


def normalize_math_answer(answer: str | None) -> str | None:
    """Strip whitespace and one layer of surrounding braces for string
    comparison; no CAS equivalence is attempted."""
    if answer is None:
        return None
    out = answer.strip()
    while len(out) >= 2 and out[0] == "{" and out[-1] == "}":
        out = out[1:-1].strip()
    return " ".join(out.split())


def is_correct(problem: Problem, answer: str | None) -> bool:
    """String-match scoring; an MCQ answer is the letter of the choice's
    index in ``problem.choices``. REFUSE/absent answers count as incorrect
    unless the dataset marks the problem unanswerable."""
    if answer is None:
        return problem.unanswerable
    if problem.mode == "math_boxed":
        return normalize_math_answer(answer) == normalize_math_answer(problem.ground_truth)
    return answer.strip().upper() == correct_letter(problem)


def load_dataset(path: str | Path) -> list[Problem]:
    """Parse and validate a JSONL dataset; schema errors carry line numbers."""
    problems: list[Problem] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                pid = str(rec["id"])
                if pid in seen:
                    raise ValueError(f"duplicate id {pid!r}")
                seen.add(pid)
                choices = rec.get("choices")
                if choices is not None and not (
                        isinstance(choices, list) and all(isinstance(c, str) for c in choices)):
                    raise TypeError(f"choices must be a list of strings, not {choices!r}")
                unanswerable = rec.get("unanswerable", False)
                if not isinstance(unanswerable, bool):
                    raise TypeError(f"unanswerable must be true or false, not {unanswerable!r}")
                problem = Problem(
                    id=pid,
                    statement=str(rec["statement"]),
                    ground_truth=str(rec["answer"]),
                    mode=rec.get("mode", "math_boxed"),
                    choices=tuple(choices) if choices is not None else None,
                    unanswerable=unanswerable,
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from exc
            problems.append(problem)
    return problems


__all__ = [
    "DatasetError",
    "Problem",
    "as_problem",
    "choice_letter",
    "correct_letter",
    "is_correct",
    "is_unsure_choice",
    "load_dataset",
    "normalize_math_answer",
    "presented_choices",
]
