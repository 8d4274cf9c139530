"""HttpBackend over a real loopback socket: status mapping, retries,
timeouts, bodies cut short, and one bad response failing one slot."""

from __future__ import annotations

import itertools
import json
import mmap
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import refinectl.backend as backend_mod
from refinectl.backend import (
    BackendError,
    Completion,
    GenerationConfig,
    HttpBackend,
    TransportError,
    drain_concurrent,
    parse_chat_body,
    parse_chat_response,
)
from refinectl.bench import Problem, RunSpec, run_benchmark
from refinectl.cli import main
from refinectl.controller import Action, init, save_model
from refinectl.refine import LoopConfig
from refinectl.tree import TreeConfig

from chat_bodies import (
    assert_same_outcome,
    chat_bodies,
    compact_body,
    json_path,
    mutated_bodies,
    outcome,
    uniform_bodies,
)
from conftest import StubController

MSG = [{"role": "user", "content": "hi"}]
K = GenerationConfig().logprob_count  # the k every request here asks for
BODY = compact_body([[-0.5, -1.5], [-0.25]], with_bytes=False)
# a 2-token body whose second logprob is -Infinity, which json.loads accepts
NON_FINITE = compact_body([[-0.5], [float("-inf")]], with_bytes=False)
USAGE_MISMATCH = compact_body([[-0.5]], with_bytes=True, usage_tokens=4)


class ScriptedServer:
    """Loopback chat-completions endpoint. Each request takes the next step
    of the script kept under its sampling seed, so answers do not depend on
    arrival order:

    - ``("body", raw)``: 200 with ``raw`` (``b""`` sends Content-Length: 0);
    - ``("unsized", raw)``: 200 with ``raw``, no Content-Length, then close;
    - ``("status", code)``: that status with a small JSON error body;
    - ``("sleep", seconds)``: answer 200 after sleeping;
    - ``("cut", length)``: announce ``length`` bytes, send 12, close the
      connection; ``("cut", length, raw)`` sends ``raw`` instead of the 12;
    - ``("hold", raw, n)``: 200 with ``raw``, whose headers and first ``n``
      bytes are sent at once and the rest once ``release`` is set, or after
      2 s; ``held`` records for each such reply whether it was released.

    ``active`` counts the requests received and not yet answered, and
    ``peak`` its highest value since ``script``. A ``hook(seed)`` given to
    ``script`` runs on each request's handler thread once it is counted; a
    step it returns is answered in place of the scripted one.
    """

    def __init__(self):
        self.lock = threading.Condition()
        self.scripts: dict[int, list[tuple]] = {}
        self.requests: Counter = Counter()
        self.active = self.peak = 0
        self.hook = None
        self.release = threading.Event()
        self.held: list[bool] = []
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):
                pass

            def do_POST(self):
                request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                seed = request["seed"]
                with server.lock:
                    server.requests[seed] += 1
                    server.active += 1
                    server.peak = max(server.peak, server.active)
                    server.lock.notify_all()
                    script = server.scripts.get(seed) or [("status", 418)]
                    step, hook = script.pop(0), server.hook
                if hook is not None:
                    step = hook(seed) or step
                try:
                    self.answer(step)
                except OSError:  # the client gave up first
                    pass

            def answer(self, step):
                kind = step[0]
                if kind == "status":
                    code, raw = step[1], b"{}"
                elif kind == "cut":
                    code, raw = 200, step[2] if len(step) > 2 else b'{"choices": ['
                elif kind == "sleep":
                    time.sleep(step[1])
                    code, raw = 200, BODY
                else:
                    code, raw = 200, step[1]
                with server.lock:  # before its client can read the reply
                    server.active -= 1
                    server.lock.notify_all()
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                if kind != "unsized":
                    self.send_header("Content-Length", str(step[1] if kind == "cut" else len(raw)))
                self.end_headers()
                if kind == "hold":
                    self.wfile.write(raw[:step[2]])
                    server.held.append(server.release.wait(timeout=2.0))
                    raw = raw[step[2]:]
                self.wfile.write(raw)
                self.close_connection = True

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()

    def script(self, scripts: dict[int, list[tuple]], hook=None) -> None:
        with self.lock:  # once the requests of earlier scripts are answered
            assert self.lock.wait_for(lambda: not self.active, timeout=5)
            self.scripts = {seed: list(steps) for seed, steps in scripts.items()}
            self.requests = Counter()
            self.peak = 0
            self.hook = hook
            self.release.clear()
            self.held = []

    def backend(self, timeout: float = 5.0, max_inflight: int = 1) -> HttpBackend:
        backend = HttpBackend(f"http://127.0.0.1:{self.httpd.server_address[1]}/v1", "m",
                              timeout=timeout, max_inflight=max_inflight)
        backend.retry_backoff = 0.0
        return backend

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.fixture(scope="module")
def server():
    srv = ScriptedServer()
    yield srv
    srv.close()


def generate(server, steps, **kwargs):
    server.script({0: steps})
    return server.backend(**kwargs).generate(MSG, GenerationConfig(seed=0))


def test_200_body_parses(server):
    assert generate(server, [("body", BODY)]) == parse_chat_response(json.loads(BODY), K)
    assert server.requests[0] == 1


@pytest.mark.parametrize("code", [429, 500])
def test_retryable_status_is_tried_three_times(server, code):
    with pytest.raises(TransportError, match=f"HTTP {code}") as info:
        generate(server, [("status", code)] * 3)
    assert info.value.attempts == 3 and server.requests[0] == 3
    assert generate(server, [("status", code), ("body", BODY)]).completion_tokens == 2


def test_client_error_is_tried_once(server):
    with pytest.raises(BackendError, match="HTTP 400") as info:
        generate(server, [("status", 400), ("body", BODY)])
    assert not isinstance(info.value, TransportError)
    assert server.requests[0] == 1


def test_each_http_error_is_closed_before_raising(server, monkeypatch):
    """A failed status frees its socket at once, not when the error that
    carries it is collected: every ``HTTPError`` raised, the 400 slot's
    cause and the 500 slot's three attempts, is closed."""
    real, raised = urllib.request.urlopen, []

    def urlopen(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except urllib.error.HTTPError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    server.script({0: [("status", 400)], 1: [("status", 500)] * 3})
    results = drain_concurrent(server.backend(max_inflight=2),
                               [(MSG, GenerationConfig(seed=i)) for i in range(2)])
    assert sorted(exc.code for exc in raised) == [400, 500, 500, 500]
    assert any(exc is results[0].__cause__ for exc in raised)
    assert isinstance(results[1], TransportError) and results[1].attempts == 3
    assert all(exc.fp.closed for exc in raised)


def test_sleep_past_timeout_is_a_retried_transport_error(server):
    with pytest.raises(TransportError) as info:
        generate(server, [("sleep", 0.4)] * 3, timeout=0.1)
    assert info.value.attempts == 3 and server.requests[0] == 3


def test_connection_closed_mid_body_is_a_retried_transport_error(server):
    with pytest.raises(TransportError, match="IncompleteRead") as info:
        generate(server, [("cut", 1000)] * 3)
    assert info.value.attempts == 3 and server.requests[0] == 3
    assert generate(server, [("cut", 1000), ("body", BODY)]).completion_tokens == 2


def test_a_length_beyond_ssize_t_fails_its_slot_not_the_drain(server, responses):
    """A Content-Length past ``sys.maxsize`` is a malformed reply: one
    request, no retry and no byte of it read; its response is closed, and
    its sibling parses."""
    server.script({0: [("cut", 10**20), ("body", BODY)], 1: [("body", BODY)]})
    results = drain_concurrent(server.backend(max_inflight=2),
                               [(MSG, GenerationConfig(seed=i)) for i in range(2)])
    assert type(results[0]) is BackendError and "Content-Length" in str(results[0])
    assert results[1] == parse_chat_response(json.loads(BODY), K)
    assert dict(server.requests) == {0: 1, 1: 1}
    assert len(responses) == 2 and all(resp.closed for resp in responses)
    assert sorted(resp.bytes_read for resp in responses) == [0, len(BODY)]


@pytest.mark.parametrize("raw, match", [
    (BODY[:-10], "non-JSON"),
    (b"", "non-JSON"),
    (USAGE_MISMATCH, "4 completion tokens.*cover 1"),
])
def test_bad_200_body_fails_once_without_retry(server, raw, match):
    with pytest.raises(BackendError, match=match) as info:
        generate(server, [("body", raw), ("body", BODY)])
    assert not isinstance(info.value, TransportError)
    assert server.requests[0] == 1


@contextmanager
def recording_responses():
    """Every response ``urlopen`` returns, recorded, with the bytes read
    from it counted in its ``bytes_read``."""
    opened, real = [], urllib.request.urlopen

    def recording(*args, **kwargs):
        resp = real(*args, **kwargs)
        resp.bytes_read, readinto = 0, resp.readinto

        def counting(view):
            n = readinto(view)
            resp.bytes_read += n
            return n

        resp.readinto = counting
        opened.append(resp)
        return resp

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(urllib.request, "urlopen", recording)
        yield opened


@pytest.fixture
def responses():
    with recording_responses() as opened:
        yield opened


@pytest.mark.parametrize("steps, want", [
    ([("body", BODY)], parse_chat_response(json.loads(BODY), K)),
    ([("body", BODY[:-10])], BackendError),
    ([("body", USAGE_MISMATCH)], BackendError),
    ([("body", NON_FINITE)], BackendError),
    ([("cut", 1000)] * 3, TransportError),
    ([("status", 500), ("body", BODY)], parse_chat_response(json.loads(BODY), K)),
], ids=["good", "non-JSON", "usage mismatch", "non-finite", "cut thrice", "500 then good"])
def test_every_response_is_closed(server, responses, steps, want):
    """A reply's response is closed once its body is parsed, whether parsing
    succeeds or raises, and when the read itself fails."""
    assert outcome(lambda steps: generate(server, steps), steps) == want
    assert len(responses) == sum(step[0] != "status" for step in steps)
    assert all(resp.closed for resp in responses)


@pytest.mark.parametrize("raw", [BODY, NON_FINITE, BODY[:-10]])
def test_a_body_without_length_parses_like_its_bytes(server, responses, raw):
    assert outcome(lambda raw: generate(server, [("unsized", raw)]), raw) == \
        outcome(parse_chat_body, raw, K)
    assert server.requests[0] == 1
    assert len(responses) == 1 and responses[0].closed


# Shorter than any row, so every row boundary is a window boundary (as in
# test_chat_body.py).
TINY_WINDOW = 40


@pytest.mark.parametrize("window", [None, TINY_WINDOW])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=st.one_of(chat_bodies(), mutated_bodies(), uniform_bodies(odd=True)),
       kind=st.sampled_from(["body", "unsized", "hold"]))
def test_a_response_parses_like_its_bytes(server, raw, window, kind):
    """A reply read from the socket, sized, unsized or sent in two parts,
    parses as its bytes do, and its response is closed afterwards."""
    step = ("hold", raw, len(raw) // 2) if kind == "hold" else (kind, raw)
    with pytest.MonkeyPatch.context() as mp, recording_responses() as opened:
        if window is not None:
            mp.setattr(backend_mod, "_WINDOW", window)
        server.script({0: [step]})
        server.release.set()
        got = outcome(lambda: server.backend().generate(MSG, GenerationConfig(seed=0)))
        assert_same_outcome(got, outcome(parse_chat_body, raw, K))
    assert server.requests[0] == 1 and len(opened) == 1 and opened[0].closed


@pytest.mark.parametrize("defect", ["none", "first row", "no array"])
def test_a_body_cut_short_is_a_transport_error_whatever_it_held(server, monkeypatch, defect):
    """No parse error is raised before a body has been read to its end: a
    body cut short is a retried ``TransportError``, even where its first
    windows are malformed or hold no logprob array at all."""
    monkeypatch.setattr(backend_mod, "_WINDOW", TINY_WINDOW)
    raw = compact_body([[-0.5, -1.5]] * 50, with_bytes=False)
    raw = {"none": raw, "first row": raw.replace(b"-1.5", b"-01.5", 1),
           "no array": raw.replace(b'"logprobs":{', b'"logprobs": {')}[defect]
    cut = ("cut", len(raw), raw[:len(raw) * 3 // 4])
    with pytest.raises(TransportError, match="IncompleteRead") as info:
        generate(server, [cut] * 3)
    assert info.value.attempts == 3 and server.requests[0] == 3


def test_a_large_reply_is_read_in_bounded_memory(server, monkeypatch):
    """A compact body of over 10 MB read through ``HttpBackend``: the traced
    peak of the read and parse, plus the size of any mapping opened, stays
    under a quarter of the body's size."""
    rng = np.random.default_rng(0)
    raw = compact_body(np.sort(-rng.exponential(2.0, size=(10_000, 20)))[:, ::-1].tolist(),
                       with_bytes=True)
    assert len(raw) > 10 * 2**20
    expected = parse_chat_body(raw, K)
    mapped, real = [], mmap.mmap  # the size of each mapping opened

    def recording(*args, **kwargs):
        body = real(*args, **kwargs)
        mapped.append(len(body))
        return body

    monkeypatch.setattr(mmap, "mmap", recording)
    server.script({0: [("body", raw)]})
    backend = server.backend()
    tracemalloc.start()
    try:
        got = backend.generate(MSG, GenerationConfig(seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak + sum(mapped) < len(raw) / 4, (peak, mapped, len(raw))


RETRYABLE = [("status", 429), ("status", 500), ("cut", 1000)]
final_steps = st.one_of(
    st.just(("status", 400)),
    st.tuples(st.sampled_from(["body", "unsized"]),
              st.one_of(chat_bodies(max_tokens=3), mutated_bodies(max_tokens=3))),
)
scripts = st.lists(
    st.tuples(st.lists(st.sampled_from(RETRYABLE), max_size=3), final_steps)
    .map(lambda t: t[0] + [t[1]]),
    min_size=1, max_size=6)


def expected(steps: list[tuple]):
    """What ``generate`` returns for a script, and how many requests it makes."""
    for attempt, step in enumerate(steps[:3], start=1):
        if step in RETRYABLE:
            continue
        if step[0] == "status":
            return BackendError, attempt
        return outcome(json_path, step[1], K), attempt
    return TransportError, 3


@pytest.mark.parametrize("max_inflight", [1, 4])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scripts=scripts)
def test_drain_fails_bad_slots_and_keeps_siblings(server, max_inflight, scripts):
    server.script(dict(enumerate(scripts)))
    backend = server.backend(max_inflight=max_inflight)
    results = drain_concurrent(
        backend, [(MSG, GenerationConfig(seed=i)) for i in range(len(scripts))])
    for seed, (steps, result) in enumerate(zip(scripts, results)):
        want, requests = expected(steps)
        assert isinstance(result, (Completion, BackendError))
        assert (result if isinstance(result, Completion) else type(result)) == want
        assert server.requests[seed] == requests


# ---------------------------------------------------------------------------
# Request slots: max_inflight bounds the requests out at the server
# ---------------------------------------------------------------------------

def test_max_inflight_is_at_least_one_and_fixed():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_inflight"):
            HttpBackend("http://127.0.0.1:1/v1", "m", max_inflight=bad)
    backend = HttpBackend("http://127.0.0.1:1/v1", "m", max_inflight=3)
    with pytest.raises(AttributeError):
        backend.max_inflight = 5
    assert backend.max_inflight == 3


@pytest.mark.parametrize("max_inflight", [2, 4])
def test_the_server_never_sees_more_than_max_inflight_requests(server, max_inflight):
    """Each request waits at the server until one more than ``max_inflight``
    are in, or 0.1 s pass: the drain's spare worker must wait for a slot."""
    n = 3 * max_inflight

    def crowd(seed):
        with server.lock:
            server.lock.wait_for(lambda: server.active > max_inflight, timeout=0.1)

    server.script({i: [("body", BODY)] for i in range(n)}, hook=crowd)
    results = drain_concurrent(server.backend(max_inflight=max_inflight),
                               [(MSG, GenerationConfig(seed=i)) for i in range(n)])
    assert results == [parse_chat_response(json.loads(BODY), K)] * n
    assert dict(server.requests) == dict.fromkeys(range(n), 1)
    assert server.peak <= max_inflight


def test_the_next_request_goes_out_while_a_reply_is_parsed(server, monkeypatch):
    """Both slots' replies are held in parsing until the server receives the
    third request, which only the spare worker can send, and only if a slot
    is released once its reply's headers are in."""
    third = threading.Event()
    server.script({i: [("body", BODY)] for i in range(3)},
                  hook=lambda seed: third.set() if seed == 2 else None)
    waits, parse = [], backend_mod._parse_stream

    def held(readinto, k):
        waits.append(third.wait(timeout=5))
        return parse(readinto, k)

    monkeypatch.setattr(backend_mod, "_parse_stream", held)
    results = drain_concurrent(server.backend(max_inflight=2),
                               [(MSG, GenerationConfig(seed=i)) for i in range(3)])
    assert results == [parse_chat_response(json.loads(BODY), K)] * 3
    assert waits == [True] * 3


def test_a_slot_is_released_once_the_headers_are_in(server):
    """With one slot, a second request reaches the server while the first
    reply's body is still on its way: a request holds its slot from sending
    until its reply's headers arrive, and its body is read outside it."""
    server.script({0: [("hold", BODY, 10)], 1: [("body", BODY)]},
                  hook=lambda seed: server.release.set() if seed == 1 else None)
    backend = server.backend(max_inflight=1)
    with ThreadPoolExecutor(2) as pool:
        first = pool.submit(backend.generate, MSG, GenerationConfig(seed=0))
        with server.lock:  # the second request is sent after the first arrived
            assert server.lock.wait_for(lambda: server.requests[0], timeout=5)
        second = pool.submit(backend.generate, MSG, GenerationConfig(seed=1))
        results = [first.result(), second.result()]
    assert results == [parse_chat_response(json.loads(BODY), K)] * 2
    assert server.held == [True]


FAILURES = {
    "400": [("status", 400)],
    "429 thrice": [("status", 429)] * 3,
    "500 thrice": [("status", 500)] * 3,
    "cut thrice": [("cut", 1000)] * 3,
    "timeout thrice": [("sleep", 0.15)] * 3,  # past the 0.05 s the failures get
    "huge length": [("cut", 10**20)],
    "non-JSON": [("body", BODY[:-10])],
}


@settings(max_examples=20, deadline=None)
@given(kinds=st.lists(st.sampled_from(sorted(FAILURES)), min_size=1, max_size=4),
       max_inflight=st.integers(4, 5))
def test_a_failed_request_releases_its_slot(server, kinds, max_inflight):
    """After each failed request, all ``max_inflight`` slots can be out at
    once: a drain whose server holds each request until that many are in
    still completes. A lost slot fails the test rather than hanging it: a
    request the barrier gave up on is answered with a body that fails once
    read, and there are more slots than one request's three attempts."""
    backend = server.backend(max_inflight=max_inflight)
    requests = [(MSG, GenerationConfig(seed=i)) for i in range(max_inflight)]
    for kind in kinds:
        server.script({0: FAILURES[kind]})
        backend.timeout = 0.05
        assert isinstance(drain_concurrent(backend, requests[:1])[0], BackendError)
        backend.timeout = 5.0
        barrier = threading.Barrier(max_inflight, timeout=2.0)

        def together(seed):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return ("body", USAGE_MISMATCH)

        server.script({i: [("body", BODY)] for i in range(max_inflight)}, hook=together)
        assert drain_concurrent(backend, requests) == \
            [parse_chat_response(json.loads(BODY), K)] * max_inflight, kind


# ---------------------------------------------------------------------------
# run_benchmark over HTTP: token accounting
# ---------------------------------------------------------------------------

SEVEN = compact_body([[-0.5]] * 2, with_bytes=False)  # 2 tokens, \boxed{7}
CUT_SHORT = compact_body([[-0.5]] * 3, with_bytes=False).replace(
    b'"finish_reason":"stop"', b'"finish_reason":"length"')  # 3 tokens, truncated
TWO_PROBLEMS = [Problem(id=f"p{i}", statement=f"question {i}", ground_truth="7")
                for i in range(2)]


@pytest.mark.parametrize("spec, scripts, tokens, accuracy, requests", [
    # one seed for every iteration: p0 is served after a 500 and a
    # truncation retry; p1's request gets a 400
    (RunSpec(method="corefine", seeds=(0,)),
     {0: [("status", 500), ("body", CUT_SHORT), ("body", SEVEN), ("status", 400)]},
     3 + 2, 50.0, {0: 4}),
    # one warmup slot per seed: served after a 500, served after a truncation
    # retry, failed by a 400 (its siblings still vote)
    (RunSpec(method="corefine_tree", seeds=(0,), tree_cfg=TreeConfig(warmup=3, max_depth=0)),
     {0: [("status", 500), ("body", SEVEN)], 1: [("body", CUT_SHORT), ("body", SEVEN)],
      2: [("status", 400)]},
     2 + 3 + 2, 100.0, {0: 2, 1: 2, 2: 1}),
    # one sample per seed; the 400 loses the problem, not the served tokens
    (RunSpec(method="majority_parallel", k=3, seeds=(0,)),
     {0: [("status", 500), ("body", SEVEN)], 1: [("body", CUT_SHORT)], 2: [("status", 400)]},
     2 + 3, 0.0, {0: 2, 1: 1, 2: 1}),
], ids=["corefine", "corefine_tree", "majority_parallel"])
def test_run_benchmark_counts_the_tokens_of_served_bodies(server, spec, scripts, tokens,
                                                          accuracy, requests):
    server.script(scripts)
    dataset = TWO_PROBLEMS if spec.method == "corefine" else TWO_PROBLEMS[:1]
    row = run_benchmark(dataset, spec, server.backend(max_inflight=3),
                        controller=StubController(fn=lambda f: Action.HALT))
    assert row.tokens_total == tokens  # a request retried after a 500 counts once
    assert row.accuracy_mean == accuracy
    assert dict(server.requests) == requests


@pytest.mark.parametrize("spec, scripts, tokens, accuracy", [
    # p0's truncation retry is served the bad body; p1 still scores
    (RunSpec(method="corefine", seeds=(0,), loop_cfg=LoopConfig(max_iterations=1)),
     {0: [("body", CUT_SHORT), ("body", NON_FINITE), ("body", SEVEN)]}, 3 + 2, 50.0),
    # both warmup slots fail, one after a truncation retry
    (RunSpec(method="corefine_tree", seeds=(0,), tree_cfg=TreeConfig(warmup=2, max_depth=0)),
     {0: [("body", CUT_SHORT), ("body", NON_FINITE)], 1: [("body", NON_FINITE)]}, 3, 0.0),
], ids=["corefine", "corefine_tree"])
def test_a_non_finite_logprob_fails_its_problem_not_the_sweep(server, spec, scripts, tokens,
                                                                accuracy):
    """A trained controller, unlike a stub, turns an infinite trace into
    NaN probabilities; the body must fail its slot before that."""
    server.script(scripts)
    dataset = TWO_PROBLEMS if spec.method == "corefine" else TWO_PROBLEMS[:1]
    row = run_benchmark(dataset, spec, server.backend(max_inflight=2),
                        controller=init(3, 16, seed=0))
    assert row.tokens_total == tokens
    assert row.accuracy_mean == accuracy


@pytest.mark.parametrize("content", [b"7", b"true", b"[1]", b'{"a":1}'])
def test_a_message_content_that_is_no_string_fails_its_problem_not_the_sweep(server, content):
    """A served body whose message content is JSON but no string fails its
    slot with ``BackendError``, where its text would have reached the answer
    extraction; the other problem still scores, and the tokens served count."""
    bad = compact_body([[-0.5]] * 2, with_bytes=False, text="X").replace(
        b'"content":"X"', b'"content":' + content)
    server.script({0: [("body", bad), ("body", SEVEN)]})
    row = run_benchmark(TWO_PROBLEMS, RunSpec(method="corefine", seeds=(0,)),
                        server.backend(max_inflight=1),
                        controller=StubController(fn=lambda f: Action.HALT))
    assert (row.accuracy_mean, row.tokens_total) == (50.0, 2)
    assert outcome(parse_chat_body, bad, K) is outcome(json_path, bad, K) is BackendError


def tree_body(seed: int) -> bytes:
    """2-5 tokens by seed, each of a confidence equal to that length, answer
    7 or 8; seed 4 truncated."""
    n = 2 + seed % 4
    body = compact_body([[-float(n)]] * n, with_bytes=False,
                        text=f"so \\boxed{{{7 + seed % 2}}}")
    return body.replace(b'"stop"', b'"length"') if seed == 4 else body


BY_LENGTH = {2: Action.RETHINK, 3: Action.HALT, 4: Action.ALTERNATIVE, 5: Action.RETHINK}


def rows_by_max_inflight(server, spec: RunSpec) -> list[tuple]:
    """The sweep's row without its wall time, and the requests per seed, at
    1, 2 and 4 slots. The server holds each request by its seed, so replies
    arrive out of request order, and two problems are in flight from 2 slots
    on. The controller is a function of the reply's trace length, so which
    reply a node holds decides the vote, whichever problem asked first."""
    seen = []
    for max_inflight in (1, 2, 4):
        server.script({seed: [("body", tree_body(seed))] * 8 for seed in range(32)},
                      hook=lambda seed: time.sleep(0.005 * (3 - seed % 4)))
        controller = StubController(fn=lambda feature: BY_LENGTH[round(feature.bins[0])])
        row = run_benchmark(TWO_PROBLEMS, spec, server.backend(max_inflight=max_inflight),
                            controller=controller)
        seen.append((replace(row, wall_time=0.0), dict(server.requests)))
    return seen


def test_tree_reports_do_not_depend_on_max_inflight(server):
    """The same sweep at 1, 2 and 4 slots: the same row, tokens included, and
    the same requests per seed."""
    spec = RunSpec(method="corefine_tree", seeds=(0,),
                   tree_cfg=TreeConfig(warmup=3, branch_factor=2, max_depth=2))
    seen = rows_by_max_inflight(server, spec)
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0].iterations_mean > spec.tree_cfg.warmup  # the trees branch


@pytest.mark.parametrize("spec", [
    RunSpec(method="corefine", seeds=(0,)),
    RunSpec(method="majority_sequential", k=3, seeds=(0,)),
], ids=["corefine", "majority_sequential"])
def test_loop_and_voting_reports_do_not_depend_on_max_inflight(server, spec):
    seen = rows_by_max_inflight(server, spec)
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0].iterations_mean > 1


def test_problems_in_flight_share_the_request_slots(server):
    """Two refinement loops at two slots have two requests out at once, where
    problems run one after another would have one; four trees at two slots
    never have more than two out, whatever their drains ask for."""
    def pair(seed):
        with server.lock:
            server.lock.wait_for(lambda: server.active >= 2, timeout=0.5)

    server.script({0: [("body", SEVEN)] * 2}, hook=pair)
    halt = StubController(fn=lambda feature: Action.HALT)
    row = run_benchmark(TWO_PROBLEMS, RunSpec(method="corefine", seeds=(0,)),
                        server.backend(max_inflight=2), controller=halt)
    assert row.accuracy_mean == 100.0 and server.peak == 2

    def crowd(seed):
        with server.lock:
            server.lock.wait_for(lambda: server.active > 2, timeout=0.1)

    four = [Problem(id=f"p{i}", statement=f"question {i}", ground_truth="7") for i in range(4)]
    server.script({seed: [("body", SEVEN)] * 4 for seed in range(2)}, hook=crowd)
    row = run_benchmark(four, RunSpec(method="corefine_tree", seeds=(0,),
                                      tree_cfg=TreeConfig(warmup=2, max_depth=0)),
                        server.backend(max_inflight=2), controller=halt)
    assert row.accuracy_mean == 100.0 and row.tokens_total == 4 * 2 * 2
    assert server.peak == 2


@pytest.mark.parametrize("command, out_flag", [
    (["run", "--max-iters", "1"], "--log"),
    (["tree", "--warmup", "1", "--depth", "0"], "--dump"),
], ids=["run", "tree"])
def test_cli_keeps_problem_order_with_problems_in_flight(server, tmp_path, capsys, command,
                                                         out_flag):
    """The first request to arrive is held longest, so its problem finishes
    last; the CLI's lines and its log or dump still follow the problem file."""
    arrivals = itertools.count()
    server.script({0: [("body", SEVEN)] * 3},
                  hook=lambda seed: time.sleep(0.3) if next(arrivals) == 0 else None)
    problems = tmp_path / "problems.jsonl"
    problems.write_text("".join(json.dumps({"id": f"p{i}", "statement": f"question {i}",
                                            "answer": "7"}) + "\n" for i in range(3)))
    model = tmp_path / "controller.bin"
    save_model(model, init(3, 16, seed=0))
    out = tmp_path / "out.jsonl"
    code = main(command + ["--endpoint", f"http://127.0.0.1:{server.httpd.server_address[1]}/v1",
                           "--model", "m", "--problem-file", str(problems),
                           "--model-file", str(model), "--seed", "0", out_flag, str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["p0", "p1", "p2"]
    assert [json.loads(row)["problem_id"] for row in out.read_text().splitlines()] == \
        ["p0", "p1", "p2"]
    assert server.peak >= 2  # another problem was served while the first was held
