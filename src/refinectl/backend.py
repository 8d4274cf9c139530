"""Text-generation backends with top-k logprob capture.

Two interchangeable backends: an OpenAI-compatible chat-completions HTTP
client, and a scripted mock that replays canned completions for offline,
deterministic tests. Both return the same ``Completion`` structure carrying
the confidence trace of the served top-k logprobs and token usage counts.
"""

from __future__ import annotations

import http.client
import json
import logging
import mmap
import os
import re
import sys
import threading
import time
import urllib.error
import urllib.request
from array import array
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
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
    can be parsed while the next request is out, and at most that many
    bodies are alive however many problems are in flight. The pool is made
    on the first concurrent drain; its idle workers exit once the backend
    is collected.
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

@dataclass
class MockRecord:
    """One scripted response.

    Confidence values may be given directly (``confidences``) so tests can
    author trace shapes without synthesizing logprob rows; they become the
    trace as given. Alternatively full ``logprobs`` rows (one list of floats
    per token, in served order) may be given, which are reduced with the
    request's ``logprob_count`` as k. ``error`` makes the request fail with
    that message instead of returning; so does a non-finite value, with the
    ``BackendError`` the HTTP path raises, and a record with no values.
    """

    text: str = ""
    confidences: list[float] | None = None
    logprobs: list[list[float]] | None = None
    finish_reason: str = "stop"
    prompt_tokens: int = 0
    error: str | None = None

    def to_completion(self, k: int) -> Completion:
        """This record served to a request for ``k`` top logprobs per token."""
        if self.confidences is not None and self.logprobs is not None:
            raise ScriptError("record may set confidences or logprobs, not both")
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


def load_mock_script(path: str | Path) -> list[MockRecord]:
    """Load a mock script file: {"responses": [{text, confidences|logprobs, finish_reason}]}."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "responses" not in doc:
        raise ScriptError("script file must be an object with a 'responses' list")
    records = []
    for i, row in enumerate(doc["responses"]):
        if not isinstance(row, dict):
            raise ScriptError(f"responses[{i}] is not an object")
        records.append(MockRecord(
            text=row.get("text", ""),
            confidences=row.get("confidences"),
            logprobs=row.get("logprobs"),
            finish_reason=row.get("finish_reason", "stop"),
            prompt_tokens=int(row.get("prompt_tokens", 0)),
            error=row.get("error"),
        ))
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
        text = (choice.get("message") or {}).get("content") or ""
        content = (choice.get("logprobs") or {}).get("content")
    except (AttributeError, KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"malformed response: {exc!r}") from exc
    if not content:
        raise MissingLogprobsError("endpoint returned no logprobs content")
    return choice, text, content


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


def parse_chat_response(obj: dict, k: int) -> Completion:
    """Parse a chat-completions JSON body into a ``Completion`` whose trace
    takes the mean of the ``k`` largest logprobs at each position.

    Raises ``MissingLogprobsError`` when the response carries no
    per-token logprob content, and ``BackendError`` when the choice or that
    content is malformed, a logprob is NaN or infinite, or
    ``usage.completion_tokens`` disagrees with its length.
    """
    choice, text, content = _choice(obj)
    # Some servers omit top_logprobs but keep the sampled token's own.
    try:
        tops = [tok.get("top_logprobs") or (tok,) for tok in content]
        counts = np.fromiter(map(len, tops), dtype=np.intp)
        values = np.fromiter(map(itemgetter("logprob"), chain.from_iterable(tops)),
                             dtype=np.float64, count=int(counts.sum()))
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BackendError(f"malformed response: {exc!r}") from exc
    return _completion(obj, choice, text, values, counts, k)


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
# One match per top-logprobs entry, capturing its logprob. The first match
# also takes the array's "[" and the first token up to its top_logprobs; an
# entry that ends a row takes the next token the same way, or the array's
# end. So consecutive matches tile the array exactly when it has this form;
# anything else falls to the last branch, which takes the rest and captures
# nothing.
_TOP_ENTRY = re.compile(
    rb'(?:\A\[' + _TOKEN + rb'|)' + _ENTRY + rb'(' + _NUM + rb')' + _BYTES
    + rb'\}(?:,|\]\}(?:,' + _TOKEN + rb'|\]))|[\s\S]+')
_CONTENT = b'"logprobs":{"content":['
_TOP_LOGPROBS = b',"top_logprobs":['
_LOGPROB = b'"logprob":'
_CONTENT_END = b"}]}]"
# Bytes of the array scanned at a time, plus the rest of the row a window
# ends in: what one window's captures and row counts hold in memory.
_WINDOW = 1 << 18


def _scan_body(raw: bytes | mmap.mmap, k: int) -> Completion | None:
    """``parse_chat_body`` for a body whose logprob content has the compact
    form, or None when it may not."""
    key = raw.find(_CONTENT, 0)  # a mapping's find starts at its file position
    if key < 0:
        return None
    start = key + len(_CONTENT) - 1
    # The first top_logprobs key belongs to the first token, inside the first
    # match. In a tiled array '"logprob":' and every later top_logprobs key
    # occur only as keys (a quote inside a string is escaped), and each such
    # key ends a row and a match, so a window ends right after one. The
    # array ends at the first "}]}]" that ends a row that tiles: a token may
    # hold "}]}]" too.
    first_row = raw.find(_TOP_LOGPROBS, start) + len(_TOP_LOGPROBS)
    if first_row < len(_TOP_LOGPROBS):
        return None
    end = raw.find(_CONTENT_END, first_row)
    captured = array("d")  # grown in place, so the values are held once
    counts: list[int] = []
    lo = start
    spare = len(raw)  # bytes that failed end candidates may rescan: keeps the scan linear
    # The view is released on every exit: a mapping cannot close while one lives.
    with memoryview(raw)[start:] as view:  # \A matches only at the array's "["
        while True:
            if end < 0:
                return None
            cut = raw.find(_TOP_LOGPROBS, max(lo + _WINDOW, first_row), end)
            if cut < 0:  # stop short of the row that the candidate end is in
                cut = raw.rfind(_TOP_LOGPROBS, max(lo, first_row), end)
            hi = end + len(_CONTENT_END) if cut < 0 else cut + len(_TOP_LOGPROBS)
            logprobs = _TOP_ENTRY.findall(view, lo - start, hi - start)
            if not logprobs[-1]:
                spare -= hi - lo
                if cut >= 0 or spare < 0:
                    return None
                end = raw.find(_CONTENT_END, end + 1)
                continue
            # float() reads the integer -0 as -0.0 where JSON reads 0, a sign
            # no confidence depends on
            captured.extend(map(float, logprobs))
            # The segment between two top_logprobs keys holds one row's entries
            # plus the next token's own logprob. A mapping has no count, so
            # the segments come from one copy of the window.
            rows = raw[max(lo, first_row):hi].split(_TOP_LOGPROBS)
            counts.extend(row.count(_LOGPROB) - 1 for row in rows[:-1])
            if cut < 0:
                counts.append(rows[-1].count(_LOGPROB))
                break
            lo = hi
    values = np.frombuffer(captured)
    # Parse the rest of the body with a NaN in place of the array, and have
    # the parser hand back a marker for it: the body is that JSON with the
    # array at choices[0].logprobs.content only if the marker lands there
    # and no other NaN or Infinity was parsed.
    constants: list[str] = []

    def marker(name: str) -> list[str]:
        constants.append(name)
        return constants

    rest = raw[:start] + b"NaN" + raw[hi:]
    try:
        obj = json.loads(rest.decode("utf-8", errors="replace"), parse_constant=marker)
        choice, text, content = _choice(obj)
    except (ValueError, RecursionError, BackendError):
        return None
    if content is not constants or len(constants) != 1:
        return None
    return _completion(obj, choice, text, values, np.array(counts, dtype=np.intp), k)


def parse_chat_body(raw: bytes | mmap.mmap, k: int) -> Completion:
    """Parse an undecoded chat-completions body, ``bytes`` or a mapping
    holding them, into a ``Completion``.

    Returns what ``parse_chat_response(json.loads(raw.decode("utf-8",
    errors="replace")), k)`` returns and raises the same ``BackendError``
    subclasses, plus ``BackendError`` for a body that is not JSON. A body
    whose ``choices[0].logprobs.content`` is in the compact form servers
    send is read by a validating byte scan of that array, one bounded
    window at a time, and a JSON parse of the rest, without building a dict
    per top-k entry or copying the array; any other body takes the JSON
    path.
    """
    completion = _scan_body(raw, k)
    if completion is not None:
        return completion
    try:
        obj = json.loads(str(raw, "utf-8", "replace"))  # decodes a mapping without a copy
    except (ValueError, RecursionError) as exc:
        raise BackendError(
            f"non-JSON response: {raw[:200].decode('utf-8', errors='replace')}") from exc
    return parse_chat_response(obj, k)


def _read_body(resp: http.client.HTTPResponse) -> nullcontext[bytes] | mmap.mmap:
    """The body of ``resp``, as a context that yields it and frees it on exit.

    A body of known, nonzero length is read into an anonymous mapping, whose
    pages go back to the OS when it closes: a multi-megabyte ``bytes`` would
    pass through malloc and leave its pages in a thread's arena. Any other
    body is read as ``bytes``. A length no mapping can have is a malformed
    reply: ``BackendError``, not retried."""
    length = resp.length
    if not length:  # no size to map, or nothing to map
        return nullcontext(resp.read())
    if length > sys.maxsize:
        raise BackendError(f"malformed response: Content-Length {length}")
    body = mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE)  # faults in faster than shared
    try:
        with memoryview(body) as view:
            filled = 0
            while filled < length:
                with view[filled:] as rest:
                    n = resp.readinto(rest)
                if not n:  # readinto reads 0 bytes from a closed connection
                    raise http.client.IncompleteRead(view[:filled].tobytes(), length - filled)
                filled += n
    except BaseException:
        body.close()
        raise
    return body


class HttpBackend(Backend):
    """OpenAI-compatible chat-completions client.

    Credentials come from an environment variable (``api_key_env``); the
    endpoint URL is passed explicitly (config file or ``--endpoint`` flag).
    At most ``max_inflight`` requests are outstanding at once, from any
    number of threads: a request holds its slot from sending until its body
    is read, and is parsed after releasing it.
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
        try:  # the slot is released however the request or the read ends
            with self._slots, urllib.request.urlopen(req, timeout=self.timeout) as resp:
                reply = _read_body(resp)
        except urllib.error.HTTPError as exc:
            exc.close()  # its socket, which the error would hold until collected
            if exc.code == 429 or exc.code >= 500:
                raise TransportError(f"HTTP {exc.code}: {exc.reason}") from exc
            raise BackendError(f"HTTP {exc.code}: {exc.reason}") from exc
        # URLError and timeouts are OSErrors; a body cut short by a closed
        # connection raises http.client.IncompleteRead, an HTTPException.
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(str(exc)) from exc
        with reply as raw:
            return parse_chat_body(raw, cfg.logprob_count)


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
