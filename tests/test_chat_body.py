"""parse_chat_body: the byte scan of compact logprob content agrees with the
JSON path on every body, valid or not."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import refinectl.backend as backend_mod
from refinectl.backend import (
    BackendError,
    MissingLogprobsError,
    parse_chat_body,
    parse_chat_response,
)

from chat_bodies import (
    INVALID_BYTES,
    INVALID_NUMBERS,
    INVALID_STRINGS,
    TRICKY_TOKENS,
    VALID_BYTES,
    VALID_NUMBERS,
    chat_bodies,
    compact_body,
    json_path,
    mutated_bodies,
    outcome,
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(chat_bodies(), chat_bodies(), mutated_bodies()))
def test_scan_agrees_with_json_path(raw):
    assert outcome(parse_chat_body, raw) == outcome(json_path, raw)


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
              (b'"chatcmpl-1"', b'"NaN"')])


@pytest.mark.parametrize("old, new", SPLICES)
def test_each_token_form_agrees_with_json_path(old, new):
    """One string, number or bytes list of a compact body replaced: the
    scan takes what JSON takes, with the same values, and no more."""
    assert TEMPLATE.count(old) == 1
    raw = TEMPLATE.replace(old, new)
    assert outcome(parse_chat_body, raw) == outcome(json_path, raw)


@pytest.mark.parametrize("with_bytes", [False, True])
def test_compact_bodies_take_the_scan_path(monkeypatch, with_bytes):
    rows = [[-0.5, -1.25, -3e-05], [-0.0, -2.0], [-7.5]]
    raw = compact_body(rows, with_bytes=with_bytes, text='say "NaN" \\boxed{7}')
    expected = parse_chat_response(json.loads(raw))

    def json_path_taken(obj):
        raise AssertionError("the JSON path parsed a compact body")

    monkeypatch.setattr(backend_mod, "parse_chat_response", json_path_taken)
    completion = parse_chat_body(raw)
    assert completion == expected
    assert completion.counts.tolist() == [3, 2, 1]
    np.testing.assert_array_equal(completion.logprobs[0], rows[0])
    assert completion.text == 'say "NaN" \\boxed{7}'


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
])
def test_bad_bodies_raise_backend_errors(raw, error):
    assert outcome(parse_chat_body, raw) is error
    assert outcome(json_path, raw) is error
