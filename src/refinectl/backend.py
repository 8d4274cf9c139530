"""Text-generation backends with top-k logprob capture.

Two interchangeable backends: an OpenAI-compatible chat-completions HTTP
client, and a scripted mock that replays canned completions for offline,
deterministic tests. Both return the same ``Completion`` structure carrying
the confidence trace of the served top-k logprobs and token usage counts.
"""

from __future__ import annotations

import http.client
import io
import json
import logging
import os
import re
import sys
import threading
import time
import urllib.error
import urllib.request
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from .confidence import ConfidenceTrace, build_trace

logger = logging.getLogger(__name__)

FINISH_REASONS = ("stop", "length", "other")

DEFAULT_API_KEY_ENV = "REFINECTL_API_KEY"


class BackendError(Exception):
    """Base class for generation-backend failures."""


class TransportError(BackendError):
    """Network or server failure that may succeed on retry."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class MissingLogprobsError(BackendError):
    """The endpoint answered but returned no token logprobs.

    This is a capability problem, not a transient one, so it is never
    retried.
    """


class ScriptError(BackendError):
    """Mock script exhausted or malformed."""


@dataclass(frozen=True)
class GenerationConfig:
    """Sampling settings attached to every generation request.

    Defaults follow the common reasoning-eval setup: temperature 0.7,
    top-p 0.95, and 20 logprobs per emitted token. Every request also
    samples from the top 20 tokens.
    """

    temperature: float = 0.7
    top_p: float = 0.95
    max_tokens: int = 32_000
    logprob_count: int = 20
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not (0 < self.top_p <= 1):
            raise ValueError("top_p must be in (0, 1]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.logprob_count < 1:
            raise ValueError("logprob_count must be >= 1")

    def with_seed(self, seed: int | None) -> "GenerationConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class Completion:
    """One model response: its text, usage accounting and confidence trace.

    ``trace`` holds one confidence per output position, reduced from the
    top-k logprobs served there with the request's ``logprob_count`` as k
    when the response was parsed; its values are read-only.
    """

    text: str
    trace: ConfidenceTrace
    completion_tokens: int
    prompt_tokens: int
    finish_reason: str = "stop"

    def __post_init__(self) -> None:
        if self.finish_reason not in FINISH_REASONS:
            raise ValueError(f"finish_reason must be one of {FINISH_REASONS}")
        if self.completion_tokens < 0 or self.prompt_tokens < 0:
            raise ValueError("token counts must be >= 0")
        if self.trace.n != self.completion_tokens:
            raise ValueError("trace length must equal completion_tokens")
        self.trace.values.flags.writeable = False


def _finite_trace(values: np.ndarray, counts: np.ndarray | None, k: int) -> ConfidenceTrace:
    """The trace of served ``values``: row-major logprobs with ``counts[i]``
    in row i reduced with top-``k`` means, or the confidences themselves
    when ``counts`` is None.

    Raises ``BackendError`` on a non-finite served value (JSON's NaN and
    -Infinity parse, and 1e400 overflows to inf) and on a non-finite
    confidence (finite logprobs such as two of -1e308 whose sum overflows):
    neither is a log probability or a confidence, and one would poison every
    statistic of the trace."""
    if not np.isfinite(values).all():
        raise BackendError("malformed response: non-finite logprob")
    if counts is None:
        return ConfidenceTrace(values)
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        trace = build_trace(values, counts, k)
    if not np.isfinite(trace.values).all():
        raise BackendError("malformed response: a token's logprobs sum past the float range")
    return trace


Message = dict  # {"role": ..., "content": ...}


def _validate_messages(messages: list[Message]) -> None:
    if not messages:
        raise ValueError("messages must be non-empty")
    for m in messages:
        if "role" not in m or "content" not in m:
            raise ValueError("each message needs 'role' and 'content'")


_POOL_LOCK = threading.Lock()  # makes each backend's drain pool once


class Backend:
    """Common retry/ordering behaviour shared by all backends.

    Subclasses implement ``_generate_once``; retries apply to
    ``TransportError`` only (3 attempts, exponential backoff), and the
    backoff sleeps hold no request slot. ``max_inflight`` bounds the
    requests a backend has outstanding at its server. A backend with
    ``max_inflight`` above 1 enforces that bound itself, however many
    threads call ``generate``, and owns one pool of ``max_inflight + 1``
    worker threads that every ``drain_concurrent`` on it shares: a reply
    can be read and parsed while the next request is out, and each worker
    holds a window of its reply rather than the whole body, however many
    problems are in flight. The pool is made on the first concurrent drain;
    its idle workers exit once the backend is collected.
    """

    max_inflight: int = 8
    retry_attempts: int = 3
    retry_backoff: float = 0.5
    _workers: ThreadPoolExecutor | None = None

    def _generate_once(self, messages: list[Message], cfg: GenerationConfig) -> Completion:
        raise NotImplementedError

    def generate(self, messages: list[Message], cfg: GenerationConfig) -> Completion:
        """Generate one completion, retrying transient transport failures."""
        _validate_messages(messages)
        last: TransportError | None = None
        for attempt in range(1, self.retry_attempts + 1):
            try:
                return self._generate_once(messages, cfg)
            except TransportError as exc:
                last = TransportError(str(exc), attempts=attempt)
                if attempt < self.retry_attempts:
                    delay = self.retry_backoff * (2 ** (attempt - 1))
                    logger.warning("transport error (attempt %d/%d): %s; retrying in %.1fs",
                                   attempt, self.retry_attempts, exc, delay)
                    if delay > 0:
                        time.sleep(delay)
        assert last is not None
        raise last

    def _pool(self) -> ThreadPoolExecutor:
        """The drain pool, made on first use. Its workers hold only a weak
        reference to it, so it is collected with the backend, and that wakes
        them to exit."""
        with _POOL_LOCK:
            if self._workers is None:
                self._workers = ThreadPoolExecutor(self.max_inflight + 1,
                                                   thread_name_prefix="refinectl-drain")
            return self._workers


def drain_concurrent(
    backend: Backend,
    requests: list[tuple[list[Message], GenerationConfig]],
    serve: Callable[[list[Message], GenerationConfig], object] | None = None,
) -> list:
    """Issue many generation requests; results come back in request order.

    Each slot holds what ``serve(messages, cfg)`` returned (by default
    ``backend.generate``, so a ``Completion``) or the ``BackendError`` it
    raised; one failure never aborts its siblings. Ordering is a pure
    function of the request list, never of completion timing. Backends with
    ``max_inflight`` 1 (the mock, whose FIFO script order is its determinism
    contract) are drained in order in the calling thread; others fan out
    over the backend's one pool of ``max_inflight + 1`` threads, shared by
    drains from any number of threads. The backend bounds its own
    outstanding requests, so the spare thread sends the next request while
    another parses its reply.
    """
    serve = serve or backend.generate

    def one(req: tuple[list[Message], GenerationConfig]):
        try:
            return serve(*req)
        except BackendError as exc:
            return exc

    if backend.max_inflight <= 1:
        return [one(r) for r in requests]
    return list(backend._pool().map(one, requests))


# ---------------------------------------------------------------------------
# Mock backend
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MockRecord:
    """One scripted response.

    Confidence values may be given directly (``confidences``) so tests can
    author trace shapes without synthesizing logprob rows; they become the
    trace as given. Alternatively full ``logprobs`` rows (one list of floats
    per token, in served order) may be given, which are reduced with the
    request's ``logprob_count`` as k. ``error`` makes the request fail with
    that message instead of returning; so does a non-finite value, with the
    ``BackendError`` the HTTP path raises, a record with no values, and a
    record whose fields do not convert (``ScriptError``).

    The record is built into its ``Completion`` on the first serve and
    stored, once per k for ``logprobs`` and once in all for
    ``confidences``; every later serve, by any backend, returns that same
    immutable object, so the value lists must not change once served. A
    record that fails stores nothing, so it fails every serve.
    """

    text: str = ""
    confidences: list[float] | None = None
    logprobs: list[list[float]] | None = None
    finish_reason: str = "stop"
    prompt_tokens: int = 0
    error: str | None = None
    _served: dict[int | None, Completion] = field(default_factory=dict, init=False,
                                                  compare=False, repr=False)

    def to_completion(self, k: int) -> Completion:
        """This record served to a request for ``k`` top logprobs per token."""
        key = k if self.logprobs is not None else None
        completion = self._served.get(key)
        if completion is None:
            # setdefault keeps the first of two racing builds, so every
            # caller gets the same object
            completion = self._served.setdefault(key, self._build(k))
        return completion

    def _build(self, k: int) -> Completion:
        if self.confidences is not None and self.logprobs is not None:
            raise ScriptError("record may set confidences or logprobs, not both")
        if not isinstance(self.text, str) or not _is_count(self.prompt_tokens):
            raise ScriptError("record needs a string text and an integer prompt_tokens >= 0")
        try:
            if self.confidences is not None:
                values, counts = np.array(self.confidences, dtype=np.float64), None
            else:
                rows = self.logprobs or ()
                counts = np.fromiter(map(len, rows), dtype=np.intp)
                if not counts.all():
                    raise ScriptError(f"logprobs row {int(np.argmin(counts))} is empty")
                values = np.fromiter(chain.from_iterable(rows), dtype=np.float64,
                                     count=int(counts.sum()))
            if not values.size:
                raise ScriptError("record has neither confidences nor logprobs")
            trace = _finite_trace(values, counts, k)
            return Completion(
                text=self.text,
                trace=trace,
                completion_tokens=trace.n,
                prompt_tokens=self.prompt_tokens,
                finish_reason=self.finish_reason,
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScriptError(f"malformed mock record: {exc}") from exc


class MockBackend(Backend):
    """Replays scripted completions in FIFO order.

    Identical script + identical call sequence gives byte-identical
    completions; consumption is serialized under one lock, and requests
    are drained one at a time so script order follows request order.
    """

    max_inflight = 1

    def __init__(self, records: list[MockRecord]):
        self._records = list(records)
        self._cursor = 0
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int:
        return len(self._records) - self._cursor

    def _generate_once(self, messages: list[Message], cfg: GenerationConfig) -> Completion:
        with self._lock:
            if self._cursor >= len(self._records):
                raise ScriptError("mock script exhausted")
            record = self._records[self._cursor]
            self._cursor += 1
        if record.error is not None:
            raise BackendError(record.error)
        return record.to_completion(cfg.logprob_count)


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _numbers(value: object) -> bool:
    """Whether ``value`` is a JSON list of numbers."""
    return isinstance(value, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)


def _script_record(row: object) -> MockRecord:
    """The record of one script row; ``ValueError`` says what is wrong."""
    if not isinstance(row, dict):
        raise ValueError("not an object")
    text = row.get("text", "")
    confidences, logprobs = row.get("confidences"), row.get("logprobs")
    finish_reason = row.get("finish_reason", "stop")
    prompt_tokens = row.get("prompt_tokens", 0)
    if not isinstance(text, str):
        raise ValueError("text is not a string")
    if confidences is not None and not _numbers(confidences):
        raise ValueError("confidences is not a list of numbers")
    if logprobs is not None and not (isinstance(logprobs, list) and all(
            lps and _numbers(lps) for lps in logprobs)):
        raise ValueError("logprobs is not a list of non-empty lists of numbers")
    error = row.get("error")
    if error is not None and not isinstance(error, str):
        raise ValueError("error is not a string")
    if confidences is not None and logprobs is not None:
        raise ValueError("sets both confidences and logprobs")
    if confidences == [] or logprobs == []:
        raise ValueError(f"{'logprobs' if logprobs == [] else 'confidences'} is empty")
    # false for NaN, infinities and integers past the float range (isfinite raises on those)
    values = confidences or chain.from_iterable(logprobs or ())
    if not all(abs(v) <= sys.float_info.max for v in values):
        raise ValueError(f"non-finite logprob in {'confidences' if confidences else 'logprobs'}")
    if error is None and confidences is None and logprobs is None:
        raise ValueError("sets neither confidences nor logprobs, and no error")
    if finish_reason not in FINISH_REASONS:
        raise ValueError(f"finish_reason {finish_reason!r} is not one of {FINISH_REASONS}")
    if not _is_count(prompt_tokens):
        raise ValueError(f"prompt_tokens {prompt_tokens!r} is not an integer >= 0")
    return MockRecord(text=text, confidences=confidences, logprobs=logprobs,
                      finish_reason=finish_reason, prompt_tokens=prompt_tokens,
                      error=error)


def load_mock_script(path: str | Path) -> list[MockRecord]:
    """Load a mock script file: {"responses": [{text, confidences|logprobs,
    finish_reason, prompt_tokens, error}]}. A file that is not one, or a row
    with a field of the wrong type, an empty values list, a value that is
    NaN, infinite or past the float range, or both or (with no error)
    neither of confidences and logprobs, raises ``ScriptError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ScriptError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("responses"), list):
        raise ScriptError("script file must be an object with a 'responses' list")
    records = []
    for i, row in enumerate(doc["responses"]):
        try:
            records.append(_script_record(row))
        except ValueError as exc:
            raise ScriptError(f"responses[{i}]: {exc}") from exc
    return records


# ---------------------------------------------------------------------------
# OpenAI-compatible HTTP backend
# ---------------------------------------------------------------------------

def build_chat_payload(messages: list[Message], cfg: GenerationConfig, model: str) -> dict:
    """Assemble the chat-completions request body, always asking for logprobs."""
    payload: dict = {
        "model": model,
        "messages": messages,
        "temperature": cfg.temperature,
        "top_p": cfg.top_p,
        "max_tokens": cfg.max_tokens,
        "logprobs": True,
        "top_logprobs": cfg.logprob_count,
        "top_k": 20,  # honored by vLLM-style servers
    }
    if cfg.seed is not None:
        payload["seed"] = cfg.seed
    return payload


def _choice(obj: dict) -> tuple[dict, str, object]:
    """``choices[0]``, its message text and its logprob content."""
    try:
        choice = obj["choices"][0]
        text = (choice.get("message") or {}).get("content")
        content = (choice.get("logprobs") or {}).get("content")
    except (AttributeError, KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"malformed response: {exc!r}") from exc
    if text is not None and not isinstance(text, str):
        raise BackendError(f"malformed response: message content {type(text).__name__}")
    if not content:
        raise MissingLogprobsError("endpoint returned no logprobs content")
    return choice, text or "", content


def _completion(obj: dict, choice: dict, text: str, values: np.ndarray,
                counts: np.ndarray, k: int) -> Completion:
    """Check row-major logprob ``values`` (``counts[i]`` for row i) against
    the body's usage, reduce them to the trace with top-``k`` means, and wrap
    it with the body's text and finish reason."""
    usage = obj.get("usage") or {}
    try:
        completion_tokens = int(usage.get("completion_tokens", counts.size))
        prompt_tokens = int(usage.get("prompt_tokens", 0))
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise BackendError(f"malformed response: {exc!r}") from exc
    trace = _finite_trace(values, counts, k)
    if completion_tokens != counts.size:
        raise BackendError(f"usage reports {completion_tokens} completion tokens "
                           f"but logprobs cover {counts.size}")
    if prompt_tokens < 0:
        raise BackendError(f"malformed response: usage reports {prompt_tokens} prompt tokens")
    finish = choice.get("finish_reason")
    if finish not in FINISH_REASONS:
        finish = "other"
    return Completion(
        text=text,
        trace=trace,
        completion_tokens=completion_tokens,
        prompt_tokens=prompt_tokens,
        finish_reason=finish,
    )


def _logprob_rows(content: object) -> tuple[np.ndarray, np.ndarray]:
    """The row-major logprobs of parsed logprob ``content`` and the count of
    each row: its top_logprobs, or the sampled token's own where a server
    omits them."""
    try:
        tops = [tok.get("top_logprobs") or (tok,) for tok in content]
        counts = np.fromiter(map(len, tops), dtype=np.intp)
        values = np.fromiter(map(itemgetter("logprob"), chain.from_iterable(tops)),
                             dtype=np.float64, count=int(counts.sum()))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BackendError(f"malformed response: {exc!r}") from exc
    return values, counts


def parse_chat_response(obj: dict, k: int) -> Completion:
    """Parse a chat-completions JSON body into a ``Completion`` whose trace
    takes the mean of the ``k`` largest logprobs at each position.

    Raises ``MissingLogprobsError`` when the response carries no
    per-token logprob content, and ``BackendError`` when the choice or that
    content is malformed, the message content is neither a string nor null,
    a logprob is NaN or infinite, or ``usage.completion_tokens`` disagrees
    with its length.
    """
    choice, text, content = _choice(obj)
    return _completion(obj, choice, text, *_logprob_rows(content), k)


# The compact form in which OpenAI-compatible servers render
# ``choices[0].logprobs.content``: token objects keyed token, logprob, an
# optional bytes list, then a non-empty top_logprobs list of entries keyed
# the same way without top_logprobs. Strings and numbers follow JSON's
# grammar. Integer parts stop at 300 digits, short of the 309 where the JSON
# path's integers overflow a float; longer ones take that path.
_STR = rb'"[^"\\\x00-\x1f]*(?:"|(?:\\(?:["\\/bfnrt]|u[0-9A-Fa-f]{4})[^"\\\x00-\x1f]*)+")'
_NUM = rb'-?(?:0|[1-9][0-9]{0,299})(?:\.[0-9]+|)(?:[eE][+-]?[0-9]+|)'
_INT = rb'(?:0|[1-9][0-9]*)'
_ENTRY = rb'\{"token":' + _STR + rb',"logprob":'
_BYTES = rb'(?:,"bytes":(?:\[(?:' + _INT + rb'(?:,' + _INT + rb')*|)\]|null)|)'
_TOKEN = _ENTRY + _NUM + _BYTES + rb',"top_logprobs":\['
_TOP = _ENTRY + rb'(' + _NUM + rb')' + _BYTES + rb'\}'  # one top entry, its logprob captured
# The array is scanned in windows of whole rows. A row is the array's "["
# (only at its start) or a ",", then a token object: the token up to its
# top_logprobs, its entries, "]}". The array's closing "]" is in no window.
_CONTENT = b'"logprobs":{"content":['
_TOP_LOGPROBS = b',"top_logprobs":['
_LOGPROB = b'"logprob":'
_CONTENT_END = b"}]}]"
# In a tiled array, the end of one row and the start of the next: no string
# holds an unescaped quote, and an entry's bytes list ends in a digit or "[".
_ROW_BREAK = b'}]},{"token":'
# Bytes of the array matched at a time, plus the rest of the row a window
# ends in; the one buffer a body is read into holds two windows.
_WINDOW = 1 << 18
# The widest first row the row pattern is compiled for: wider bodies take JSON.
_MAX_ROW_WIDTH = 64


@lru_cache(maxsize=None)
def _row_pattern(width: int) -> re.Pattern:
    """One match per row of ``width`` top entries, capturing their logprobs,
    or of the rest of the window, capturing nothing: matches tile a window
    exactly when its rows have this form. Every match ends a row."""
    return re.compile(rb'(?:\A\[|,)' + _TOKEN + b",".join([_TOP] * width)
                      + rb'\]\}|(?s:.+)')


def _row_width(raw: bytearray, lo: int, hi: int) -> int:
    """The logprob keys in ``raw[lo:hi]``, counted up to one past
    ``_MAX_ROW_WIDTH``."""
    width = 0
    at = raw.find(_LOGPROB, lo, hi)
    while at >= 0 and width <= _MAX_ROW_WIDTH:
        width += 1
        at = raw.find(_LOGPROB, at + 1, hi)
    return width


def _not_json(head: bytes | bytearray) -> BackendError:
    return BackendError(f"non-JSON response: {head[:200].decode('utf-8', errors='replace')}")


def _parse_json(raw: bytes | bytearray, k: int) -> Completion:
    """The JSON path: ``parse_chat_response`` of the whole decoded body."""
    try:
        obj = json.loads(raw.decode("utf-8", errors="replace"))
    except (ValueError, RecursionError) as exc:
        raise _not_json(raw) from exc
    return parse_chat_response(obj, k)


def _finish(prefix: bytes, captured: array, rows: int, width: int, tail: bytearray,
            k: int) -> Completion:
    """The ``Completion`` of a body read to its end, from ``prefix``, its bytes
    before the logprob array's "[", the ``captured`` logprobs of the array's
    first ``rows`` rows, ``width`` to a row, and ``tail``, the rest of the
    body. The tail starts at the array's "]" when every row was matched, and
    otherwise at the "," before the first row that was not, where the JSON
    path resumes; with no row matched, the JSON path reads the whole body.

    Matched rows are JSON, so the body is JSON exactly when the rows after
    them are the rest of a JSON array and the body parses with a stand-in
    for the whole array. The stand-in is a number literal that occurs nowhere
    else, so the parse hands back a marker for it alone, and the array is
    the choice's logprob content exactly when the marker lands there;
    anywhere else, ``parse_chat_response`` reads no row of it."""
    if not rows:
        return _parse_json(prefix + tail, k)
    head, rest = prefix.decode("utf-8", errors="replace"), tail.decode("utf-8", errors="replace")
    more, at = [], 1
    try:
        if rest[0] == ",":  # the rows not matched, from a token's "{": never none
            more, at = json.JSONDecoder().raw_decode("[" + rest[1:])
        stand_in, marker = "-0.0", object()
        while stand_in in head or rest.find(stand_in, at) >= 0:
            stand_in += "0"
        obj = json.loads(head + stand_in + " " + rest[at:],
                         parse_float=lambda s: marker if s == stand_in else float(s))
    except (ValueError, RecursionError) as exc:
        raise _not_json(prefix) from exc
    choice, text, content = _choice(obj)
    if content is not marker:
        return parse_chat_response(obj, k)
    values, counts = np.frombuffer(captured), np.full(rows, width, dtype=np.intp)
    if more:
        more_values, more_counts = _logprob_rows(more)
        values = np.concatenate([values, more_values])
        counts = np.concatenate([counts, more_counts])
    return _completion(obj, choice, text, values, counts, k)


class _Body:
    """The bytes of a body read and not yet matched, ``buf[:filled]``, in one
    buffer that ``readinto`` fills at its end and matching empties from its
    front: reused window after window, it grows only for a row longer than a
    window, or to hold what no window matches. ``end`` is where the logprob
    array's "}]}]" starts once found, searched for from ``end_from``."""

    def __init__(self, readinto: Callable[[memoryview], int]):
        self.readinto = readinto
        self.buf = bytearray(2 * _WINDOW)
        self.filled = 0
        self.end = self.end_from = -1

    def more(self) -> bool:
        """Read once into the free end of the buffer; False at the body's end."""
        if self.filled == len(self.buf):
            self.buf.extend(bytes(len(self.buf)))
        with memoryview(self.buf) as view, view[self.filled:] as free:
            n = self.readinto(free)
        self.filled += n
        return n > 0

    def drop(self, n: int) -> None:
        """Forget the first ``n`` bytes."""
        with memoryview(self.buf) as view:
            view[:self.filled - n] = view[n:self.filled]
        self.filled -= n
        self.end -= n
        self.end_from = max(self.end_from - n, 0)

    def rest(self) -> bytearray:
        """Everything not yet matched, the body read to its end."""
        while self.more():
            pass
        del self.buf[self.filled:]
        return self.buf

    def find(self, sub: bytes, at: int) -> int:
        """The first ``sub`` from ``at``, read on until it has arrived; -1 if
        the body ends first."""
        while (found := self.buf.find(sub, at, self.filled)) < 0:
            at = max(at, self.filled - len(sub) + 1)
            if not self.more():
                return -1
        return found

    def boundary(self, cut_from: int) -> tuple[int, bool]:
        """The first row break from ``cut_from``, else the array's end, and
        whether it is that end; read on until one has arrived, and (-1,
        False) if the body ends first."""
        while True:
            if self.end < 0:
                self.end = self.buf.find(_CONTENT_END, self.end_from, self.filled)
                self.end_from = max(self.end_from, self.filled - len(_CONTENT_END) + 1)
            cut = self.buf.find(_ROW_BREAK, cut_from, self.filled if self.end < 0 else self.end)
            if cut >= 0 or self.end >= 0:
                return (cut, False) if cut >= 0 else (self.end, True)
            cut_from = max(cut_from, self.filled - len(_ROW_BREAK) + 1)
            if not self.more():
                return -1, False


def _parse_stream(readinto: Callable[[memoryview], int], k: int) -> Completion:
    """``parse_chat_body`` of the body that ``readinto`` fills in. The logprob
    array is matched a window of whole rows at a time as it arrives, and only
    its captured logprobs are kept, with the bytes before and after it. The
    first window the rows of the first row's width do not tile keeps the
    rest of the body for the JSON path. The body is read to its end before
    any parse error is raised, so one cut short fails as the read does."""
    body = _Body(readinto)
    key = body.find(_CONTENT, 0)
    if key < 0:
        return _parse_json(body.rest(), k)
    start = key + len(_CONTENT) - 1
    prefix = bytes(body.buf[:start])
    body.drop(start)  # the array's "[" at 0, the only place \A matches
    captured = array("d")  # grown in place, so the values are held once
    rows = 0
    # The array ends at the first "}]}]" after its first top_logprobs key; if
    # a token holds one, the window that ends there does not tile.
    body.end_from = first_row = body.find(_TOP_LOGPROBS, 0)
    cut = body.boundary(first_row)[0] if first_row >= 0 else -1
    width = _row_width(body.buf, first_row, cut) if cut >= 0 else 0
    if 0 < width <= _MAX_ROW_WIDTH:
        whole_rows = _row_pattern(width)
        while True:
            # A window ends at a row's "}]}", where a row break starts.
            cut, at_end = body.boundary(_WINDOW)
            if cut < 0:
                break
            # float() reads the integer -0 as -0.0 where JSON reads 0, a sign
            # no confidence depends on
            found = whole_rows.findall(body.buf, 0, cut + 3)
            if not (found[-1] if width == 1 else found[-1][0]):  # one group: no tuples
                break
            captured.extend(map(float, found if width == 1 else chain.from_iterable(found)))
            rows += len(found)
            body.drop(cut + 3)
            if at_end:
                break
    return _finish(prefix, captured, rows, width, body.rest(), k)


def parse_chat_body(raw: bytes, k: int) -> Completion:
    """Parse an undecoded chat-completions body into a ``Completion``.

    Returns what ``parse_chat_response(json.loads(raw.decode("utf-8",
    errors="replace")), k)`` returns and raises the same ``BackendError``
    subclasses, plus ``BackendError`` for a body that is not JSON. It is the
    reader ``HttpBackend`` runs on each reply as it arrives: a body whose
    ``choices[0].logprobs.content`` is in the compact form servers send, with
    every row as wide as the first, is read by a validating byte scan of that
    array, one match per row over bounded windows, and a JSON parse of the
    rest, without building a dict per top-k entry or holding the array; from
    the first window that is not in that form, the JSON path reads on.
    """
    return _parse_stream(io.BytesIO(raw).readinto, k)


def _reader(resp: http.client.HTTPResponse) -> Callable[[memoryview], int]:
    """``resp.readinto``, raising ``IncompleteRead`` where a body of known
    length ends short (http.client reads 0 bytes from a closed connection).
    A length past ``sys.maxsize`` is a malformed reply: ``BackendError``, not
    retried, raised before any read."""
    if resp.length is not None and resp.length > sys.maxsize:
        raise BackendError(f"malformed response: Content-Length {resp.length}")

    def readinto(view: memoryview) -> int:
        n = resp.readinto(view)
        if not n and resp.length:
            raise http.client.IncompleteRead(b"", resp.length)
        return n

    return readinto


class HttpBackend(Backend):
    """OpenAI-compatible chat-completions client.

    Credentials come from an environment variable (``api_key_env``); the
    endpoint URL is passed explicitly (config file or ``--endpoint`` flag).
    At most ``max_inflight`` requests are outstanding at once, from any
    number of threads: a request holds its slot from sending until its
    reply's headers arrive, and its body is then read and parsed as it
    arrives, outside the slot.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout: float = 300.0,
        max_inflight: int = 8,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key = os.environ.get(api_key_env, "")
        self.timeout = timeout
        if max_inflight < 1:  # no slot would ever be free
            raise ValueError(f"max_inflight must be >= 1 (got {max_inflight})")
        self._max_inflight = max_inflight
        self._slots = threading.BoundedSemaphore(max_inflight)

    @property
    def max_inflight(self) -> int:
        """Fixed at construction: the request slots, the drain pool's size
        and the problems a sweep keeps in flight all follow it."""
        return self._max_inflight

    def _generate_once(self, messages: list[Message], cfg: GenerationConfig) -> Completion:
        url = f"{self.endpoint}/chat/completions"
        body = json.dumps(build_chat_payload(messages, cfg, self.model)).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        req = urllib.request.Request(url, data=body, headers=headers, method="POST")
        try:
            with self._slots:  # held until the reply's headers are in or the request fails
                resp = urllib.request.urlopen(req, timeout=self.timeout)
            with resp:
                return _parse_stream(_reader(resp), cfg.logprob_count)
        except urllib.error.HTTPError as exc:
            exc.close()  # its socket, which the error would hold until collected
            if exc.code == 429 or exc.code >= 500:
                raise TransportError(f"HTTP {exc.code}: {exc.reason}") from exc
            raise BackendError(f"HTTP {exc.code}: {exc.reason}") from exc
        # URLError and timeouts are OSErrors; a body cut short by a closed
        # connection raises http.client.IncompleteRead, an HTTPException.
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(str(exc)) from exc


__all__ = [
    "Backend",
    "BackendError",
    "Completion",
    "GenerationConfig",
    "HttpBackend",
    "MissingLogprobsError",
    "MockBackend",
    "MockRecord",
    "ScriptError",
    "TransportError",
    "build_chat_payload",
    "drain_concurrent",
    "load_mock_script",
    "parse_chat_body",
    "parse_chat_response",
]
