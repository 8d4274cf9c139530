"""parse_chat_body: the streaming reader, which scans compact logprob
content a window at a time and resumes on the JSON path, agrees with the JSON
path on every body, valid or not, however the body is cut into reads."""

from __future__ import annotations

import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import refinectl.backend as backend_mod
from refinectl.backend import (
    BackendError,
    MissingLogprobsError,
    MockRecord,
    parse_chat_body,
    parse_chat_response,
)
from refinectl.bench import Problem, RunSpec, run_benchmark
from refinectl.controller import init
from refinectl.refine import LoopConfig

from chat_bodies import (
    INVALID_BYTES,
    INVALID_NUMBERS,
    INVALID_STRINGS,
    TRICKY_TOKENS,
    VALID_BYTES,
    VALID_NUMBERS,
    assert_same_outcome,
    chat_bodies,
    compact_body,
    json_path,
    mutated_bodies,
    outcome,
    uniform_bodies,
)
from conftest import boxed_record, mock_backend


# Top logprobs scored per token where a test fixes it: more than any row
# holds, so every entry counts. The properties draw k below and above the
# widths of the drawn rows (1-4).
K = 20
ks = st.integers(1, 5)


def assert_paths_agree(raw: bytes, k: int = K) -> None:
    """The scan and the JSON path give the same outcome."""
    assert_same_outcome(outcome(parse_chat_body, raw, k), outcome(json_path, raw, k))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(chat_bodies(), chat_bodies(), mutated_bodies()), ks)
def test_scan_agrees_with_json_path(raw, k):
    assert_paths_agree(raw, k)


# Shorter than any row (at least 50 bytes from one top_logprobs key to the
# next), so every row boundary is a window boundary, yet longer than a
# token's own header, so a window can start at an array nested in a row.
TINY_WINDOW = 40


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(chat_bodies(), chat_bodies(), mutated_bodies()), ks)
def test_scan_agrees_with_json_path_in_tiny_windows(raw, k):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backend_mod, "_WINDOW", TINY_WINDOW)
        assert_paths_agree(raw, k)


def read_by_rows(raw: bytes, k: int = K) -> bool:
    """Whether the row pattern reads every row of the body's logprob array
    and the rest of the body parses with that array as the choice's logprob
    content: no row is left to the JSON path."""
    read, finish, parse = [], backend_mod._finish, backend_mod.parse_chat_response

    def recording(prefix, captured, rows, width, tail, k):
        read.append(rows > 0 and tail[:1] == b"]")
        return finish(prefix, captured, rows, width, tail, k)

    def json_path_taken(obj, k):
        read.append(False)
        return parse(obj, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backend_mod, "_finish", recording)
        mp.setattr(backend_mod, "parse_chat_response", json_path_taken)
        try:
            parse_chat_body(raw, k)
        except BackendError as exc:
            read.append(not str(exc).startswith("non-JSON"))
    return all(read) and read[:1] == [True]


def chunked(raw: bytes, sizes: list[int]):
    """A ``readinto`` that serves ``raw`` in reads of the next of ``sizes``
    bytes, cycled, or fewer where the buffer or the body ends."""
    at, turns = 0, itertools.cycle(sizes)

    def readinto(view) -> int:
        nonlocal at
        n = min(next(turns), len(view), len(raw) - at)
        view[:n] = raw[at:at + n]
        at += n
        return n

    return readinto


read_sizes = st.lists(st.one_of(st.integers(1, 64), st.integers(1, 1 << 19)), min_size=1,
                      max_size=6)


@pytest.mark.parametrize("window", [None, TINY_WINDOW])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=st.one_of(chat_bodies(), mutated_bodies(), uniform_bodies(),
                     uniform_bodies(odd=True), uniform_bodies(odd=True)),
       sizes=read_sizes, k=ks)
def test_the_reader_fed_in_chunks_agrees_with_json_path(raw, sizes, window, k):
    """Reads of any size from 1 byte up, split anywhere in a row, a key or
    the array's end, give the outcome JSON gives: ragged rows spliced in at
    any row, tokens holding "}]}]", an extra NaN or Infinity, a second
    content or logprobs key, a decoy array before the choices and message
    contents that are no string included."""
    with pytest.MonkeyPatch.context() as mp:
        if window is not None:
            mp.setattr(backend_mod, "_WINDOW", window)
        assert_same_outcome(outcome(backend_mod._parse_stream, chunked(raw, sizes), k),
                            outcome(json_path, raw, k))


TEMPLATE = compact_body([[-0.5, -1.5], [-2.5, -3.5]], with_bytes=True)
SPLICES = ([(b'"t11"', json.dumps(t).encode()) for t in TRICKY_TOKENS]
           + [(b'"t11"', s) for s in INVALID_STRINGS]
           + [(b"-1.5", n) for n in VALID_NUMBERS + INVALID_NUMBERS]
           + [(b"[116,49,49]", b) for b in VALID_BYTES[1:] + INVALID_BYTES]
           + [(b',"bytes":[116,49,49]', b"")]
           # the rest of the body: another NaN or Infinity, a second logprobs key
           + [(b'"finish_reason":"stop"', b'"finish_reason":"stop","logprobs":' + lp)
              for lp in (b'{"content":NaN}', b'{"content":[]}', b"null")]
           + [(b'"prompt_tokens":5', b'"prompt_tokens":NaN'),
              (b'"role":"assistant"', b'"role":-Infinity'),
              (b'"chatcmpl-1"', b'"NaN"')]
           # numbers in the rest that a stand-in for the array could be taken
           # for, read or not, and bytes glued to the array's "]"
           + [(b'"prompt_tokens":5', b'"prompt_tokens":' + n) for n in (b"-0.0", b"-0.00")]
           + [(b'"finish_reason":"stop"', b'"finish_reason":"stop","logprobs":{"content":-0.0}'),
              (b']},"finish_reason"', b'],"content":-0.0},"finish_reason"'),
              (b'"index":0', b'"index":-0.0')]
           + [(b']},"finish_reason"', b"]" + glued + b'},"finish_reason"')
              for glued in (b"e1", b"0", b".5", b"E+2")])


@pytest.mark.parametrize("old, new", SPLICES)
def test_each_token_form_agrees_with_json_path(old, new):
    """One string, number or bytes list of a compact body replaced: the
    scan takes what JSON takes, with the same values, and no more."""
    assert TEMPLATE.count(old) == 1
    assert_paths_agree(TEMPLATE.replace(old, new))


@pytest.mark.parametrize("old, new", SPLICES)
def test_each_token_form_agrees_in_tiny_windows(monkeypatch, old, new):
    monkeypatch.setattr(backend_mod, "_WINDOW", TINY_WINDOW)
    assert_paths_agree(TEMPLATE.replace(old, new))


def test_a_window_starting_at_a_nested_array_does_not_tile(monkeypatch):
    """Only the array's own "[" may open a token: a middle row whose
    top_logprobs opens a second array fails the scan even where a window
    starts right at that "[" and reaches past the nested token's key."""
    raw = compact_body([[-0.5], [-1.5], [-2.5]], with_bytes=False).replace(
        b'"top_logprobs":[{"token":"t10"',
        b'"top_logprobs":[[{"token":"x","logprob":-1,"top_logprobs":[{"token":"t10"')
    monkeypatch.setattr(backend_mod, "_WINDOW", TINY_WINDOW)
    assert not read_by_rows(raw)
    assert outcome(parse_chat_body, raw, K) is outcome(json_path, raw, K) is BackendError


@pytest.mark.parametrize("with_bytes", [False, True])
def test_compact_bodies_take_the_scan_path(monkeypatch, with_bytes):
    rows = [[-0.5, -1.25, -3e-05], [-0.0, -2.0, -1.0], [-7.5, -7.5, -7.5]]
    raw = compact_body(rows, with_bytes=with_bytes, text='say "NaN" \\boxed{7}')
    expected = parse_chat_response(json.loads(raw), K)

    def json_path_taken(*args):
        raise AssertionError("the JSON path parsed a compact body")

    monkeypatch.setattr(backend_mod, "parse_chat_response", json_path_taken)
    completion = parse_chat_body(raw, K)
    assert completion == expected
    np.testing.assert_allclose(completion.trace.values, [(0.5 + 1.25 + 3e-05) / 3, 1.0, 7.5],
                               rtol=1e-12)
    assert completion.text == 'say "NaN" \\boxed{7}'


@pytest.mark.parametrize("window", [None, TINY_WINDOW])
@pytest.mark.parametrize("tokens", [["t11"], ["t21"], ["t2"],
                                    ["t0", "t00", "t01", "t1", "t10", "t11", "t2", "t20", "t21"]],
                         ids=["middle_row", "last_row", "last_token", "every_token"])
def test_tokens_holding_the_array_end_take_the_json_path(monkeypatch, tokens, window):
    """A token string holding "}]}]" after the first top_logprobs key is
    taken for the array's end: the window that ends there does not tile, and
    the JSON path resumes at that window."""
    raw = compact_body([[-0.5, -1.5], [-2.5, -3.5], [-4.5, -5.5]], with_bytes=True)
    for token in tokens:
        raw = raw.replace(f'"{token}"'.encode(), b'"x}]}]"')
    expected = parse_chat_response(json.loads(raw), K)
    if window is not None:
        monkeypatch.setattr(backend_mod, "_WINDOW", window)
    assert not read_by_rows(raw)
    assert parse_chat_body(raw, K) == expected


@pytest.mark.parametrize("window", [None, TINY_WINDOW])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=uniform_bodies(), k=ks)
def test_uniform_rows_with_ragged_rows_spliced_in_agree_with_json_path(raw, window, k):
    """Rows matched whole, and the JSON path from the first window that has
    a row of another width: the same outcome as JSON, and the row pattern
    reads every row exactly when the body is JSON, every row is as wide as
    the first and no token after the first top_logprobs key holds "}]}]",
    which the scan would take for the array's end."""
    with pytest.MonkeyPatch.context() as mp:
        if window is not None:
            mp.setattr(backend_mod, "_WINDOW", window)
        assert_paths_agree(raw, k)
        try:  # a junk byte may break a string's escape
            content = json.loads(raw.decode("utf-8", errors="replace"))[
                "choices"][0]["logprobs"]["content"]
        except ValueError:
            content = []
        read = (len({len(row["top_logprobs"]) for row in content}) == 1
                and raw.count(b"}]}]", raw.index(b',"top_logprobs":[')) == 1)
        assert read_by_rows(raw, k) == read


class Recording:
    """A compiled pattern whose ``findall`` calls are recorded as
    ``(name, pos, endpos)``."""

    def __init__(self, pattern, name: str, calls: list):
        self.pattern, self.name, self.calls = pattern, name, calls

    def findall(self, string, pos, endpos):
        self.calls.append((self.name, pos, endpos))
        return self.pattern.findall(string, pos, endpos)


def assert_windows_tile_the_array(windows: list[tuple[int, int]], raw: bytes) -> None:
    """Windows, as offsets into the array, meet end to end from its "[" to
    the "}]}" of its last row."""
    assert windows[0][0] == 0
    assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
    start = raw.index(b'"content":[{') + len(b'"content":')
    assert windows[-1][1] == raw.rindex(b"}]}]") + 3 - start


def record_scans(mp) -> list[tuple[str, int, int]]:
    """Record every window the row pattern scans."""
    calls: list[tuple[str, int, int]] = []
    row_pattern = backend_mod._row_pattern
    mp.setattr(backend_mod, "_row_pattern", lambda w: Recording(row_pattern(w), "row", calls))
    return calls


def array_spans(calls: list[tuple[str, int, int]]) -> list[tuple[int, int]]:
    """The windows scanned, as offsets into the array. The buffer drops each
    window once matched, so every window is matched from its start and
    begins where the one before ended."""
    assert all(pos == 0 for _, pos, _ in calls)
    ends = list(itertools.accumulate(endpos for _, _, endpos in calls))
    return list(zip([0] + ends[:-1], ends))


@pytest.mark.parametrize("window", [None, TINY_WINDOW])
@pytest.mark.parametrize("with_bytes", [False, True])
@pytest.mark.parametrize("width", [1, 3, 20])
def test_uniform_rows_take_the_row_pattern_alone(monkeypatch, width, with_bytes, window):
    rng = np.random.default_rng(width)
    rows = (-rng.exponential(2.0, size=(300, width))).tolist()
    rows[5][0] = -0.0
    raw = compact_body(rows, with_bytes=with_bytes)
    expected = parse_chat_response(json.loads(raw), K)
    if window is not None:
        monkeypatch.setattr(backend_mod, "_WINDOW", window)
    assert read_by_rows(raw)
    calls = record_scans(monkeypatch)
    assert_same_outcome(parse_chat_body(raw, K), expected)
    assert {name for name, *_ in calls} == {"row"}
    assert_windows_tile_the_array(array_spans(calls), raw)
    if window is not None:
        assert len(calls) == 300  # a row per window


@pytest.mark.parametrize("window", [None, TINY_WINDOW])
@pytest.mark.parametrize("ragged", [0, 7, 299])
def test_a_row_of_another_width_takes_the_json_path(monkeypatch, ragged, window):
    """Windows are scanned in order, once each, up to the one holding the
    first row of another width: the row pattern fails there, and the JSON
    path resumes at that window and agrees."""
    rows = [[-0.5, -1.5]] * 300
    rows[ragged] = [-0.5, -1.5, -2.5]
    raw = compact_body(rows, with_bytes=True)
    expected = parse_chat_response(json.loads(raw), K)
    if window is not None:
        monkeypatch.setattr(backend_mod, "_WINDOW", window)
    assert not read_by_rows(raw)
    calls = record_scans(monkeypatch)
    assert_same_outcome(parse_chat_body(raw, K), expected)
    windows = array_spans(calls)
    assert windows[0][0] == 0
    assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
    if window is not None:
        # a row per window: a ragged first row sets the width the second lacks
        assert len(windows) == max(ragged, 1) + 1


# Commas and brackets between rows and between entries dropped, doubled or
# misplaced, and a token dropped from before its entries: none of these
# bodies is JSON.
# The last row's: the row before keeps its row break, so the width comes
# from the first row and the splice falls in the last window.
BOUNDARY_SPLICES = [(b'}]},{"token":"t2"', b'}]}' + new + b'{"token":"t2"')
                    for new in (b"", b",,", b",[", b"[", b"]},", b",]},")]
BOUNDARY_SPLICES += [(b'},{"token":"t21"', b"}" + new + b'{"token":"t21"')
                     for new in (b"", b",,", b"]},", b",[")]
# a row that does not end before the next, and a row's entries right after
# the row before it, without the token they belong to
BOUNDARY_SPLICES += [(b'}]},{"token":"t2"', b'},,{"token":"t2"'),
                     (b',{"token":"t2","logprob":-0.5,"top_logprobs":[', b"")]


@pytest.mark.parametrize("window", [None, TINY_WINDOW])
@pytest.mark.parametrize("rows", [[[-0.5, -1.5]] * 3, [[-0.5, -1.5, -2.5], [-0.5], [-0.5, -1.5]]],
                         ids=["uniform", "ragged"])
@pytest.mark.parametrize("old, new", BOUNDARY_SPLICES)
def test_a_broken_boundary_is_not_tiled(monkeypatch, rows, old, new, window):
    """Whole rows or single entries, the scan rejects a row or entry that
    does not follow a "," and a "," that does not follow a row or entry."""
    raw = compact_body(rows, with_bytes=False)
    assert raw.count(old) == 1
    raw = raw.replace(old, new)
    if window is not None:
        monkeypatch.setattr(backend_mod, "_WINDOW", window)
    assert not read_by_rows(raw)
    assert outcome(parse_chat_body, raw, K) is outcome(json_path, raw, K) is BackendError


@pytest.mark.parametrize("window", [None, TINY_WINDOW])
def test_each_window_is_scanned_at_most_once(monkeypatch, window):
    """A broken last row followed by many "}]}]" is not rescanned once per
    candidate end: the row pattern's findall runs at most once per window,
    and the JSON path resumes at the broken row."""
    raw = compact_body([[-0.5, -1.5]] * 49 + [[-2.5, -3.5]], with_bytes=False)
    raw = raw.replace(b"-3.5", b"-03.5") + b"}]}]" * 2000
    calls = record_scans(monkeypatch)
    if window is not None:
        monkeypatch.setattr(backend_mod, "_WINDOW", window)
    assert outcome(parse_chat_body, raw, K) is BackendError
    windows = array_spans(calls)
    assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
    assert len(windows) == (1 if window is None else 50)  # a row per tiny window


def test_scan_memory_stays_below_the_body():
    """Parsing holds a window of the logprob array at a time, not copies of
    the whole of it: the peak stays below the body's own size."""
    rng = np.random.default_rng(0)
    rows = np.sort(-rng.exponential(2.0, size=(3000, 20)))[:, ::-1].tolist()
    raw = compact_body(rows, with_bytes=True)
    expected = parse_chat_body(raw, K)
    tracemalloc.start()
    try:
        completion = parse_chat_body(raw, K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert completion == expected
    assert peak < len(raw), (peak, len(raw))


@pytest.mark.parametrize("raw, error", [
    (b"", BackendError),
    (b'{"choices": [', BackendError),
    (b"[1]", BackendError),
    (b'{"choices": [{"message": 5}]}', BackendError),
    (b'{"choices": [{"message": {"content": "x"}}]}', MissingLogprobsError),
    (b'{"choices": [], "n": ' + b"1" * 5000 + b"}", BackendError),
    (compact_body([[-1.0]], with_bytes=False, usage_tokens=2), BackendError),
    (compact_body([[-1.0]], with_bytes=False).replace(b":5,", b":-1,"), BackendError),
    (compact_body([[-1.0]], with_bytes=False).replace(b":5,", b":1e400,"), BackendError),
    (compact_body([[-1.0]], with_bytes=True)[:-3], BackendError),
    (compact_body([[-1.0]], with_bytes=False, text="x").replace(b'"x"', b"7"), BackendError),
    (compact_body([[-1.0]], with_bytes=False, text="x").replace(b'"x"', b"[]"), BackendError),
])
def test_bad_bodies_raise_backend_errors(raw, error):
    assert outcome(parse_chat_body, raw, K) is error
    assert outcome(json_path, raw, K) is error


@pytest.mark.parametrize("number", [b"-Infinity", b"Infinity", b"NaN", b"-1e400", b"1e400"])
@pytest.mark.parametrize("window", [None, TINY_WINDOW])
def test_a_non_finite_logprob_is_a_backend_error(monkeypatch, number, window):
    """JSON's constants and numbers that overflow a float are no log
    probability: both paths fail the body, whichever row holds the value."""
    if window is not None:
        monkeypatch.setattr(backend_mod, "_WINDOW", window)
    for old in (b"-0.5", b"-3.5"):
        raw = compact_body([[-0.5, -1.5], [-2.5, -3.5]], with_bytes=False).replace(old, number)
        with pytest.raises(BackendError, match="non-finite logprob"):
            parse_chat_body(raw, K)
        assert outcome(json_path, raw, K) is BackendError


# Any two of these sum past -DBL_MAX, so a row of them overflows at every k >= 2.
huge_logprobs = st.floats(-1.7976931348623157e308, -9e307)


@st.composite
def overflowing_rows(draw) -> list[list[float]]:
    """Finite logprob rows, one of which sums past the float range."""
    rows = draw(st.lists(st.lists(st.floats(-20.0, 0.0), min_size=1, max_size=4), max_size=3))
    rows.insert(draw(st.integers(0, len(rows))),
                draw(st.lists(huge_logprobs, min_size=2, max_size=4)))
    return rows


CONTROLLER = init(3, 16, seed=0)  # a trained controller's probabilities go NaN on an inf


@settings(max_examples=60, deadline=None)
@given(overflowing_rows(), st.integers(2, 5), st.sampled_from([None, TINY_WINDOW]))
def test_logprobs_whose_sum_overflows_fail_their_slot(rows, k, window):
    """Finite logprobs whose top-k sum is infinite give no confidence: the
    scan, the JSON path and the mock raise the same ``BackendError``, and a
    sweep scores that problem failed with the tokens served before it."""
    raw = compact_body(rows, with_bytes=False)
    errors = []
    with pytest.MonkeyPatch.context() as mp:
        if window is not None:
            mp.setattr(backend_mod, "_WINDOW", window)
        mock = lambda _, k: MockRecord(logprobs=rows).to_completion(k)  # noqa: E731
        for parse in (parse_chat_body, json_path, mock):
            with pytest.raises(BackendError, match="float range") as info:
                parse(raw, k)
            errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] == errors[2]

    backend = mock_backend(boxed_record("7", [0.5] * 3, finish="length"),
                           MockRecord(text="\\boxed{7}", logprobs=rows),
                           boxed_record("7", [0.5] * 2))
    problems = [Problem(id=f"p{i}", statement=f"question {i}", ground_truth="7")
                for i in range(2)]
    row = run_benchmark(problems, RunSpec(method="corefine", seeds=(0,),
                                          loop_cfg=LoopConfig(max_iterations=1)),
                        backend, controller=CONTROLLER)
    assert (row.tokens_total, row.accuracy_mean) == (3 + 2, 50.0)
    assert backend.remaining == 0
