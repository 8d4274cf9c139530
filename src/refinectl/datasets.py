"""Problem records and the JSONL dataset loader.

Dataset rows: {"id": ..., "statement": ..., "answer": ..., "mode":
"math_boxed"|"mcq", "choices": [str, ...]?, "unanswerable": bool?}, with
JSON's types checked, not coerced: "false" is not a boolean, and an id,
statement or answer is a string or a number (a number loads as its ``str``),
never null, a boolean, a list or an object. For MCQ problems the stored
answer is the text of the correct choice, and a choice's letter is its index
in ``Problem.choices``, so a problem takes 2 to 26 distinct choices (A-Z);
the bench randomizes choice order by reordering a problem's choices, which
keeps the ground truth valid. :func:`load_dataset` rejects a file that is not
UTF-8, or any row that breaks these rules, with a ``DatasetError`` naming the
path and line.
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
            if len(self.choices) > len(string.ascii_uppercase):
                raise ValueError("mcq problems take at most 26 choices, one per letter A-Z")
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
    """An answer's key at every vote and check: whitespace collapsed, braces
    stripped, no CAS; nothing left (``""``, ``"{ }"``) means no key."""
    if answer is None:
        return None
    out = answer.strip()
    while len(out) >= 2 and out[0] == "{" and out[-1] == "}":
        out = out[1:-1].strip()
    return " ".join(out.split()) or None


def is_correct(problem: Problem, answer: str | None) -> bool:
    """String-match scoring; an MCQ answer is the letter of the choice's
    index in ``problem.choices``. Answers without a key (REFUSE, absent,
    empty) count as incorrect unless the problem is marked unanswerable."""
    if normalize_math_answer(answer) is None:
        return problem.unanswerable
    if problem.mode == "math_boxed":
        return normalize_math_answer(answer) == normalize_math_answer(problem.ground_truth)
    return answer.strip().upper() == correct_letter(problem)


def _text_field(rec: dict, key: str) -> str:
    """A row's string field; a JSON number loads as its ``str``."""
    value = rec[key]
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    raise TypeError(f"{key} must be a string or a number, not {value!r}")


def load_dataset(path: str | Path) -> list[Problem]:
    """Parse and validate a JSONL dataset; schema errors carry line numbers."""
    problems: list[Problem] = []
    seen: set[str] = set()
    with open(path, "rb") as fh:  # decoded line by line, so an error names its line
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                pid = _text_field(rec, "id")
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
                    statement=_text_field(rec, "statement"),
                    ground_truth=_text_field(rec, "answer"),
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
