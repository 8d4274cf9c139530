"""Backend contracts: scripted replay, ordering, retries, HTTP parsing."""

from __future__ import annotations

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refinectl.backend import (
    Backend,
    BackendError,
    Completion,
    GenerationConfig,
    MissingLogprobsError,
    MockBackend,
    MockRecord,
    ScriptError,
    TransportError,
    build_chat_payload,
    drain_concurrent,
    load_mock_script,
    parse_chat_response,
)

from refinectl.confidence import ConfidenceTrace, build_trace
from refinectl.controller import Action
from refinectl.refine import LoopConfig
from refinectl.tree import TreeConfig, run_tree

from conftest import StubController, mock_backend

MSG = [{"role": "user", "content": "hi"}]
CFG = GenerationConfig()


def test_mock_scripted_passthrough():
    backend = mock_backend(MockRecord(text="x \\boxed{7}", confidences=[1.0, 2.0, 3.0]))
    completion = backend.generate(MSG, CFG)
    assert completion.text == "x \\boxed{7}"
    assert completion.completion_tokens == 3
    assert completion.finish_reason == "stop"
    # direct confidence values come back as the trace
    np.testing.assert_array_equal(completion.trace.values, [1.0, 2.0, 3.0])


def test_mock_fifo_and_exhaustion():
    backend = mock_backend(MockRecord(text="a", confidences=[1]),
                           MockRecord(text="b", confidences=[1]))
    assert backend.generate(MSG, CFG).text == "a"
    assert backend.generate(MSG, CFG).text == "b"
    with pytest.raises(ScriptError):
        backend.generate(MSG, CFG)


def test_mock_determinism_byte_equality():
    records = [MockRecord(text="a", confidences=[1.5, 2.5]),
               MockRecord(text="b", logprobs=[[-0.1, -0.2], [-0.3]])]
    first = [MockBackend(list(records)).generate(MSG, CFG) for _ in range(1)]
    second = [MockBackend(list(records)).generate(MSG, CFG) for _ in range(1)]
    assert first == second


NON_FINITE_RECORDS = [
    MockRecord(text="\\boxed{7}", confidences=[1.0, float("inf")]),
    MockRecord(text="\\boxed{7}", logprobs=[[-0.5], [float("nan"), -1.0]]),
]


@pytest.mark.parametrize("record", NON_FINITE_RECORDS, ids=["inf_confidence", "nan_logprob"])
def test_mock_non_finite_value_fails_the_request(record):
    """The mock rejects what the HTTP path rejects: no served trace carries
    a non-finite logprob."""
    backend = mock_backend(record, MockRecord(text="next", confidences=[1.0]))
    with pytest.raises(BackendError, match="non-finite logprob"):
        backend.generate(MSG, CFG)
    assert backend.generate(MSG, CFG).text == "next"


def test_script_file_with_infinity_fails_the_request(tmp_path):
    path = tmp_path / "script.json"
    path.write_text('{"responses": [{"text": "\\\\boxed{7}", "confidences": [1.0, Infinity]}]}')
    with pytest.raises(BackendError, match="non-finite logprob"):
        mock_backend(*load_mock_script(path)).generate(MSG, CFG)


def test_empty_messages_rejected():
    backend = mock_backend(MockRecord(text="a", confidences=[1]))
    with pytest.raises(ValueError):
        backend.generate([], CFG)


def test_generation_config_invariants():
    with pytest.raises(ValueError):
        GenerationConfig(temperature=-0.1)
    with pytest.raises(ValueError):
        GenerationConfig(logprob_count=0)
    with pytest.raises(ValueError):
        GenerationConfig(max_tokens=0)
    with pytest.raises(ValueError):
        GenerationConfig(top_p=0.0)


def test_token_logprobs_sorted_descending():
    # rows keep the served order; scoring takes the top-k in descending order
    record = MockRecord(logprobs=[[-3.0, -0.5, -1.0]])
    assert record.to_completion(2).trace.values.tolist() == [0.75]
    assert record.to_completion(1).trace.values.tolist() == [0.5]


def test_completion_token_count_consistency():
    with pytest.raises(ValueError):
        Completion(text="x", trace=ConfidenceTrace(np.array([1.0])),
                   completion_tokens=2, prompt_tokens=0)


def test_mock_ragged_rows_padded_with_neg_inf():
    """A short row is scored over its own entries: the padding that lines
    it up with the longest row takes no part in its mean."""
    record = MockRecord(logprobs=[[-0.25, -0.5, -0.75], [-0.5]])
    np.testing.assert_array_equal(record.to_completion(20).trace.values, [0.5, 0.5])
    np.testing.assert_array_equal(record.to_completion(2).trace.values, [0.375, 0.5])
    with pytest.raises(ScriptError):
        MockRecord(logprobs=[[-0.1], []]).to_completion(20)


@st.composite
def logprob_rows(draw) -> list[list[float]]:
    """Rows of logprobs: ragged, all full or all of width one."""
    shape = draw(st.sampled_from(["ragged", "full", "width one"]))
    width = 1 if shape == "width one" else draw(st.integers(1, 5))
    lengths = [draw(st.integers(1, width)) if shape == "ragged" else width
               for _ in range(draw(st.integers(1, 6)))]
    value = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
    return [draw(st.lists(value, min_size=k, max_size=k)) for k in lengths]


@settings(max_examples=200, deadline=None)
@given(rows=logprob_rows(), k=st.integers(1, 6))
def test_padded_rows_equal_the_masked_fill(rows, k):
    """Script rows reach the one reduction as the flat values and row
    lengths a server body gives, whatever their shape; the trace served is
    its result, read-only."""
    counts = np.array([len(row) for row in rows], dtype=np.intp)
    values = np.array([v for row in rows for v in row], dtype=np.float64)
    with np.errstate(over="ignore"):
        want = build_trace(values, counts, k).values
    if not np.isfinite(want).all():  # a row's sum overflows: no trace is served
        with pytest.raises(BackendError, match="float range"):
            MockRecord(logprobs=rows).to_completion(k)
        return
    completion = MockRecord(logprobs=rows).to_completion(k)
    np.testing.assert_array_equal(completion.trace.values, want)
    np.testing.assert_array_equal(np.signbit(completion.trace.values), np.signbit(want))
    assert completion.completion_tokens == len(rows)
    with pytest.raises(ValueError, match="read-only"):
        completion.trace.values[...] = 0.0


def test_completion_equality_and_immutability():
    a = MockRecord(text="a", logprobs=[[-0.1, -0.2], [-0.3]]).to_completion(20)
    b = MockRecord(text="a", logprobs=[[-0.1, -0.2], [-0.3]]).to_completion(20)
    c = MockRecord(text="a", logprobs=[[-0.1, -0.2], [-0.4]]).to_completion(20)
    assert a == b and a != c and a != "a"
    with pytest.raises(ValueError):
        a.trace.values[0] = 0.0


def test_record_serves_one_stored_completion():
    """A record is built once: every backend over it, at any seed, serves
    the same immutable object, and its trace stays read-only."""
    record = MockRecord(text="x \\boxed{7}", confidences=[0.5, 1.5, 2.5])
    served = [MockBackend([record]).generate(MSG, CFG.with_seed(seed)) for seed in (0, 1)]
    assert served[0] is served[1] is record.to_completion(3)
    assert record == MockRecord(text="x \\boxed{7}", confidences=[0.5, 1.5, 2.5])
    assert "Completion" not in repr(record)
    with pytest.raises(ValueError, match="read-only"):
        served[0].trace.values[0] = 0.0
    np.testing.assert_array_equal(served[1].trace.values, [0.5, 1.5, 2.5])
    with pytest.raises(AttributeError):
        record.text = "y"  # frozen


def test_logprob_record_stores_one_completion_per_k():
    record = MockRecord(logprobs=[[-3.0, -0.5, -1.0]])
    two, one = record.to_completion(2), record.to_completion(1)
    assert two.trace.values.tolist() == [0.75] and one.trace.values.tolist() == [0.5]
    assert record.to_completion(2) is two and record.to_completion(1) is one


FAILING_RECORDS = NON_FINITE_RECORDS + [
    MockRecord(logprobs=[[-1e308, -1e308]]),  # finite values, infinite confidence
    MockRecord(confidences=[1.0], logprobs=[[-1.0]]),  # ScriptError
    MockRecord(error="scripted failure"),
]


@pytest.mark.parametrize("record", FAILING_RECORDS,
                         ids=["inf", "nan", "overflow", "both", "error"])
def test_failing_record_fails_every_serve_and_stores_nothing(record):
    for _ in range(2):
        with pytest.raises(BackendError):
            MockBackend([record]).generate(MSG, CFG)
    assert record._served == {}


def test_threads_serving_one_record_get_equal_completions():
    record = MockRecord(text="x", logprobs=[[-0.1, -0.2, -0.3]] * 64)
    start = threading.Barrier(8, timeout=60)
    got: list = [None] * 8

    def worker(t: int) -> None:
        backend = MockBackend([record])
        start.wait()
        got[t] = backend.generate(MSG, CFG)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside every build
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert all(c == got[0] for c in got)
    assert all(c is record.to_completion(CFG.logprob_count) for c in got)


def test_drain_concurrent_order_and_isolation():
    backend = mock_backend(
        MockRecord(text="A", confidences=[1]),
        MockRecord(text="B", confidences=[1]),
        MockRecord(error="scripted failure"),
        MockRecord(text="D", confidences=[1]),
    )
    results = drain_concurrent(backend, [(MSG, CFG)] * 4)
    assert [getattr(r, "text", None) for r in results] == ["A", "B", None, "D"]
    assert isinstance(results[2], BackendError)


def test_drain_concurrent_empty():
    backend = mock_backend()
    assert drain_concurrent(backend, []) == []


def test_retry_retries_transport_errors_only():
    calls = {"n": 0}

    class Flaky(MockBackend):
        def _generate_once(self, messages, cfg):
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransportError("connection reset")
            return super()._generate_once(messages, cfg)

    backend = Flaky([MockRecord(text="ok", confidences=[1])])
    backend.retry_backoff = 0.0
    assert backend.generate(MSG, CFG).text == "ok"
    assert calls["n"] == 3


def test_retry_gives_up_with_attempt_count():
    class Dead(MockBackend):
        def _generate_once(self, messages, cfg):
            raise TransportError("down")

    backend = Dead([])
    backend.retry_backoff = 0.0
    with pytest.raises(TransportError) as err:
        backend.generate(MSG, CFG)
    assert err.value.attempts == 3


def test_missing_logprobs_not_retried():
    calls = {"n": 0}

    class NoLogprobs(MockBackend):
        def _generate_once(self, messages, cfg):
            calls["n"] += 1
            raise MissingLogprobsError("no logprobs")

    backend = NoLogprobs([])
    backend.retry_backoff = 0.0
    with pytest.raises(MissingLogprobsError):
        backend.generate(MSG, CFG)
    assert calls["n"] == 1


def test_script_file_roundtrip(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"responses": [
        {"text": "hello \\boxed{1}", "confidences": [2.0, 3.0]},
        {"text": "t", "logprobs": [[-0.5, -1.5]], "finish_reason": "length"},
    ]}))
    records = load_mock_script(path)
    assert len(records) == 2
    assert records[1].finish_reason == "length"
    completion = MockBackend(records).generate(MSG, CFG)
    assert completion.completion_tokens == 2


def write_script_rows(tmp_path, rows) -> str:
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"responses": rows}))
    return str(path)


@pytest.mark.parametrize("field, value, message", [
    ("confidences", "abc", "confidences is not a list of numbers"),
    ("confidences", [1.0, "2"], "confidences is not a list of numbers"),
    ("confidences", [True], "confidences is not a list of numbers"),
    ("logprobs", [-0.5], "logprobs is not a list of non-empty lists of numbers"),
    ("logprobs", [[-0.5], []], "logprobs is not a list of non-empty lists of numbers"),
    ("logprobs", [[None]], "logprobs is not a list of non-empty lists of numbers"),
    ("prompt_tokens", "5", "prompt_tokens '5' is not an integer >= 0"),
    ("prompt_tokens", 1.5, "prompt_tokens 1.5 is not an integer >= 0"),
    ("prompt_tokens", -1, "prompt_tokens -1 is not an integer >= 0"),
    ("text", 7, "text is not a string"),
    ("finish_reason", "tool", "finish_reason 'tool' is not one of"),
])
def test_a_script_row_of_the_wrong_type_is_rejected_at_load(tmp_path, field, value, message):
    row = {"text": "x \\boxed{7}", "confidences": [1.0], field: value}
    if field == "logprobs":
        del row["confidences"]
    path = write_script_rows(tmp_path, [{"text": "ok", "confidences": [1.0]}, row])
    with pytest.raises(ScriptError, match=r"^responses\[1\]: " + message.replace("[", r"\[")):
        load_mock_script(path)


@pytest.mark.parametrize("row, message", [
    ({"text": "x", "confidences": [1.0], "logprobs": [[-0.5]]},
     "sets both confidences and logprobs"),
    ({"text": "x \\boxed{7}"}, "sets neither confidences nor logprobs, and no error"),
    ({"text": "x", "confidences": []}, "confidences is empty"),
    ({"text": "x", "logprobs": []}, "logprobs is empty"),
    ({"text": "x", "logprobs": [], "error": "boom"}, "logprobs is empty"),
    ({"error": 5}, "error is not a string"),
    ({"error": ["boom"], "confidences": [1.0]}, "error is not a string"),
    # json.dumps writes these as NaN, Infinity, -Infinity and 400 digits
    ({"text": "x", "confidences": [1.0, float("nan")]}, "non-finite logprob in confidences"),
    ({"text": "x", "confidences": [float("inf")]}, "non-finite logprob in confidences"),
    ({"text": "x", "confidences": [-float("inf")]}, "non-finite logprob in confidences"),
    ({"text": "x", "confidences": [10 ** 400]}, "non-finite logprob in confidences"),
    ({"text": "x", "confidences": [-10 ** 400]}, "non-finite logprob in confidences"),
    ({"text": "x", "logprobs": [[-0.5], [-float("inf")]]}, "non-finite logprob in logprobs"),
    ({"text": "x", "logprobs": [[float("nan")]]}, "non-finite logprob in logprobs"),
    ({"text": "x", "logprobs": [[-10 ** 400]]}, "non-finite logprob in logprobs"),
])
def test_a_script_row_that_cannot_be_served_is_rejected_at_load(tmp_path, row, message):
    path = write_script_rows(tmp_path, [{"text": "ok", "confidences": [1.0]}, row])
    with pytest.raises(ScriptError, match=r"^responses\[1\]: " + message):
        load_mock_script(path)


def test_an_error_row_needs_no_values(tmp_path):
    path = write_script_rows(tmp_path, [{"error": "boom"}, {"text": "ok", "confidences": [1.0]}])
    backend = MockBackend(load_mock_script(path))
    with pytest.raises(BackendError, match="^boom$"):
        backend.generate(MSG, CFG)
    assert backend.generate(MSG, CFG).text == "ok"


@pytest.mark.parametrize("record", [
    MockRecord(text="x", confidences="abc"),
    MockRecord(text="x", confidences=[[1.0, 2.0], [3.0]]),
    MockRecord(text="x", logprobs=[[-0.5], "ab"]),
    MockRecord(text="x", logprobs=5),
    MockRecord(text="x", confidences=[10 ** 400]),
    MockRecord(text=7, confidences=[1.0]),
    MockRecord(text="x", confidences=[1.0], prompt_tokens=-1),
    MockRecord(text="x", confidences=[1.0], finish_reason="tool"),
])
def test_a_record_built_in_code_fails_only_its_request(record):
    backend = mock_backend(record, MockRecord(text="next", confidences=[1.0]))
    with pytest.raises(ScriptError):
        backend.generate(MSG, CFG)
    assert backend.generate(MSG, CFG).text == "next"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 400, 10 ** 400) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=2),
    max_leaves=6)
script_fields = {
    "text": st.text() | json_values,
    "confidences": st.lists(st.floats(), max_size=4) | json_values,
    "logprobs": st.lists(st.lists(st.floats(max_value=0), max_size=3), max_size=3) | json_values,
    "finish_reason": st.sampled_from(["stop", "length", "other"]) | json_values,
    "prompt_tokens": st.integers(-2, 10) | json_values,
    "error": st.none() | json_values,
}
script_rows = st.fixed_dictionaries({}, optional=script_fields) | json_values


@settings(max_examples=300, deadline=None)
@given(st.lists(script_rows, min_size=1, max_size=4))
def test_a_script_either_fails_to_load_or_serves_only_backend_errors(tmp_path_factory, rows):
    """Rows with fields of any JSON type: the load raises ``ScriptError``,
    or every record is served or fails its own request with a
    ``BackendError``, the next record still served."""
    path = write_script_rows(tmp_path_factory.mktemp("script"), rows)
    try:
        records = load_mock_script(path)
    except ScriptError:
        return
    backend = MockBackend(records)
    for _ in records:
        try:
            completion = backend.generate(MSG, CFG)
        except BackendError:
            continue
        assert isinstance(completion.text, str) and completion.completion_tokens >= 1
    assert backend.remaining == 0


def test_http_payload_carries_logprob_count():
    payload = build_chat_payload(MSG, GenerationConfig(logprob_count=20, seed=7), "m")
    assert payload["logprobs"] is True
    assert payload["top_logprobs"] == 20
    assert payload["seed"] == 7


def test_http_payload_bytes_are_pinned():
    """Key order and values of one request body, the sampling top-k included."""
    messages = [{"role": "user", "content": "hi"}]
    assert json.dumps(build_chat_payload(messages, GenerationConfig(seed=3), "m")) == (
        '{"model": "m", "messages": [{"role": "user", "content": "hi"}], '
        '"temperature": 0.7, "top_p": 0.95, "max_tokens": 32000, "logprobs": true, '
        '"top_logprobs": 20, "top_k": 20, "seed": 3}')


def _chat_response(top_counts, finish="stop"):
    content = []
    for i, n in enumerate(top_counts):
        content.append({
            "token": f"t{i}", "logprob": -0.1,
            "top_logprobs": [{"token": f"t{i}{j}", "logprob": -0.1 * (j + 1)}
                             for j in range(n)],
        })
    return {
        "choices": [{"message": {"content": "body"},
                     "logprobs": {"content": content},
                     "finish_reason": finish}],
        "usage": {"completion_tokens": len(top_counts), "prompt_tokens": 5},
    }


def test_http_response_parsing_caps_topk():
    obj = _chat_response([20, 20, 20])  # row i: -0.1, -0.2, ..., -2.0
    completion = parse_chat_response(obj, 20)
    assert completion.completion_tokens == 3
    np.testing.assert_allclose(completion.trace.values, [1.05] * 3, rtol=1e-12)
    assert completion.prompt_tokens == 5
    np.testing.assert_allclose(parse_chat_response(obj, 5).trace.values, [0.3] * 3,
                               rtol=1e-12)


def test_http_response_without_logprobs_is_fatal():
    obj = {"choices": [{"message": {"content": "x"}, "finish_reason": "stop"}],
           "usage": {}}
    with pytest.raises(MissingLogprobsError):
        parse_chat_response(obj, 20)


def test_token_accounting_sums_over_run():
    records = [MockRecord(text="a", confidences=[1] * 5),
               MockRecord(text="b", confidences=[1] * 7)]
    backend = mock_backend(*records)
    total = sum(backend.generate(MSG, CFG).completion_tokens for _ in range(2))
    assert total == 12


def test_http_response_falls_back_to_sampled_token_logprob():
    obj = _chat_response([3, 0, 2])
    obj["choices"][0]["logprobs"]["content"][1]["logprob"] = -0.25
    completion = parse_chat_response(obj, 20)
    np.testing.assert_allclose(completion.trace.values, [0.2, 0.25, 0.15], rtol=1e-12)


def test_http_response_unknown_finish_reason_maps_to_other():
    assert parse_chat_response(_chat_response([2], finish="content_filter"), 20).finish_reason \
        == "other"
    assert parse_chat_response(_chat_response([2], finish="length"), 20).finish_reason == "length"


@pytest.mark.parametrize("bad_token", [
    {"token": "t"},                                           # no logprob at all
    {"token": "t", "logprob": None},                          # null logprob
    {"token": "t", "logprob": -0.1, "top_logprobs": [{"token": "u"}]},
    "t",                                                      # not an object
])
def test_http_response_malformed_logprobs_is_backend_error(bad_token):
    obj = _chat_response([2, 2])
    obj["choices"][0]["logprobs"]["content"][1] = bad_token
    with pytest.raises(BackendError, match="malformed"):
        parse_chat_response(obj, 20)


def test_http_response_usage_mismatch_names_both_counts():
    obj = _chat_response([2, 2, 2])
    obj["usage"]["completion_tokens"] = 5
    with pytest.raises(BackendError, match="5 completion tokens.*cover 3"):
        parse_chat_response(obj, 20)
    obj["usage"]["completion_tokens"] = "many"
    with pytest.raises(BackendError, match="malformed"):
        parse_chat_response(obj, 20)


class _BodyBackend(Backend):
    """Parses a canned chat body per request; the body is picked by the
    request's sampling seed, so slots do not depend on thread timing."""

    max_inflight = 2
    retry_backoff = 0.0

    def __init__(self, bodies):
        self.bodies = bodies
        self.calls = 0
        self.lock = threading.Lock()

    def _generate_once(self, messages, cfg):
        with self.lock:
            self.calls += 1
        return parse_chat_response(self.bodies[cfg.seed % len(self.bodies)], cfg.logprob_count)


def _boxed_body(answer, n, usage_tokens=None):
    obj = _chat_response([20] * n)
    obj["choices"][0]["message"]["content"] = f"so \\boxed{{{answer}}}"
    if usage_tokens is not None:
        obj["usage"]["completion_tokens"] = usage_tokens
    return obj


def test_usage_mismatch_fails_one_slot_not_the_drain():
    bodies = [_boxed_body("1", 4), _boxed_body("1", 5, usage_tokens=9),
              _boxed_body("1", 6), _boxed_body("1", 7)]
    backend = _BodyBackend(bodies)
    reqs = [(MSG, GenerationConfig(seed=i)) for i in range(4)]
    results = drain_concurrent(backend, reqs)
    assert isinstance(results[1], BackendError) and "9" in str(results[1])
    assert [r.completion_tokens for i, r in enumerate(results) if i != 1] == [4, 6, 7]
    assert all(isinstance(r, Completion) for i, r in enumerate(results) if i != 1)
    assert backend.calls == 4  # the mismatch is not retried


def test_usage_mismatch_tree_finishes_on_surviving_warmup_nodes():
    bodies = [_boxed_body("1", 4), _boxed_body("1", 5, usage_tokens=9),
              _boxed_body("1", 6), _boxed_body("1", 7)]
    backend = _BodyBackend(bodies)
    controller = StubController(fn=lambda f: Action.HALT)
    tree = run_tree("p", backend, controller, GenerationConfig(seed=0),
                    TreeConfig(warmup=4), LoopConfig())
    assert len(tree.nodes) == 3
    assert tree.total_tokens == 4 + 6 + 7
    assert tree.final_answer == "1"


def test_mock_backend_drains_one_request_at_a_time():
    assert MockBackend.max_inflight == 1
    with pytest.raises(TypeError):
        MockBackend([], max_inflight=8)


class _ThreadRecordingBackend(_BodyBackend):
    def __init__(self, bodies):
        super().__init__(bodies)
        self.threads = []

    def _generate_once(self, messages, cfg):
        self.threads.append((cfg.seed, threading.current_thread()))
        return super()._generate_once(messages, cfg)


def test_tree_truncation_retry_runs_inside_its_drain_slot():
    truncated = _boxed_body("1", 4)
    truncated["choices"][0]["finish_reason"] = "length"
    backend = _ThreadRecordingBackend([truncated, _boxed_body("1", 5)])
    tree = run_tree("p", backend, StubController(fn=lambda f: Action.HALT),
                    GenerationConfig(seed=0), TreeConfig(warmup=2, max_depth=0),
                    LoopConfig(max_truncation_retries=1))
    retried = [thread for seed, thread in backend.threads if seed == 0]
    assert len(retried) == 2  # the truncated slot and its retry
    assert all(t is not threading.main_thread() for t in retried)
    assert tree.total_tokens == 4 + 4 + 5
    assert [n.action for n in tree.nodes] == [Action.ALTERNATIVE, Action.HALT]
