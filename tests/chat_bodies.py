"""Raw chat-completions bodies for tests: hypothesis strategies and the
reference JSON-path parse, and the outcome comparison.

Bodies are rendered byte by byte rather than through ``json.dumps``, so they
can carry what servers send and what they should not: compact or spaced
separators, other key orders, escaped and raw non-ASCII token strings,
invalid UTF-8, JSON-invalid strings and numbers, odd ``bytes`` lists, empty,
null or missing ``top_logprobs`` and usage that disagrees with the content.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import strategies as st

from refinectl.backend import BackendError, parse_chat_response

# Token strings that look like the structure the byte scan keys on.
TRICKY_TOKENS = ['"logprob":', '{"token":', '"', "\\", "\n", "é", " ", "}", "]", "}]}]",
                 "}]},", ',"top_logprobs":[', "NaN", "\x7f", "\u2028", "\U0001f600"]
VALID_NUMBERS = [b"0", b"-0", b"-0.0", b"-1", b"-12", b"1E5", b"-2.5E-3", b"-1e+2", b"1e400",
                 b"-1e-400", b"-123456789012345678901234567890", b"-0.1234", b"-9.5e-07"]
INVALID_NUMBERS = [b"01", b"-01", b"1.", b"-", b".5", b"NaN", b"-Infinity", b"Infinity",
                   b"+1", b"1e", b"1.5.2", b"00", b"-0x1", b"null", b'"-1"', b"1" * 400]
VALID_BYTES = [None, b"null", b"[]", b"[104]", b"[104,105]", b"[0]"]
INVALID_BYTES = [b"[04]", b"[1,]", b"[-1]", b'["a"]', b"[01,2]", b"[,]", b"nul"]
INVALID_STRINGS = [b'"a\x01"', b'"\t"', b'"\\x"', b'"\\u12g4"', b'"\\u12"', b'"a\\"', b"'a'"]
# Ways a body can stray from the compact form, one per defective body.
DEFECTS = ["number", "bytes", "string", "tops", "spaced", "shuffled"]
# Message contents that are JSON but no string: null reads as "", the rest
# are malformed.
NON_STRING_TEXTS = [b"null", b"7", b"0", b"true", b"false", b"[1]", b"[]", b'{"a":1}', b"{}"]
# Ways the bytes around a compact array can mislead a reader that keys on
# them, one per odd body: see uniform_bodies.
ODD_RESTS = ["decoy", "duplicate", "second_logprobs", "constant", "number", "glued", "text",
             "end_token"]


def _number_text(value: float) -> bytes:
    return repr(value).encode("ascii")


numbers = st.one_of(
    st.floats(max_value=0.0, allow_nan=False, allow_infinity=False).map(_number_text),
    st.integers(-10**20, 0).map(lambda i: str(i).encode("ascii")),
    st.sampled_from(VALID_NUMBERS),
)


@st.composite
def json_strings(draw, alphabet_text=st.text(max_size=6)) -> bytes:
    """A JSON string literal, escaped or raw non-ASCII, maybe with invalid UTF-8."""
    text = draw(st.one_of(alphabet_text, st.sampled_from(TRICKY_TOKENS)))
    literal = json.dumps(text, ensure_ascii=draw(st.booleans())).encode("utf-8")
    if draw(st.integers(0, 9)) == 0:  # raw bytes that are not UTF-8
        junk = draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]))
        cut = draw(st.integers(1, len(literal) - 1))
        literal = literal[:cut] + junk + literal[cut:]
    return literal


class Style:
    """Separators, key order and which choices of one body stray from the
    compact form: ``noise`` percent of them, or the one ``defect``."""

    def __init__(self, draw, defect: str | None, noise: int):
        self.draw, self.defect, self.noise = draw, defect, noise
        self.item = b", " if self.strays("spaced") else b","
        self.pair = b": " if self.item == b", " else b":"
        self.shuffled = self.strays("shuffled")
        self.entries = 0  # entries rendered so far
        self.bad_entry = -1  # the one entry that carries an entry-level defect

    def strays(self, kind: str) -> bool:
        if self.defect is not None:
            return self.defect == kind
        return self.noise > 0 and self.draw(st.integers(0, 99)) < self.noise

    def entry_strays(self, kind: str) -> bool:
        if self.defect is None:
            return self.strays(kind)
        return self.defect == kind and self.entries == self.bad_entry

    def obj(self, pairs: list[tuple[str, bytes]]) -> bytes:
        if self.shuffled:
            pairs = self.draw(st.permutations(pairs))
        return b"{" + self.item.join(json.dumps(k).encode() + self.pair + v
                                     for k, v in pairs) + b"}"

    def arr(self, items: list[bytes]) -> bytes:
        return b"[" + self.item.join(items) + b"]"


def entry(draw, style: Style) -> list[tuple[str, bytes]]:
    token = draw(st.sampled_from(INVALID_STRINGS) if style.entry_strays("string")
                 else json_strings())
    number = draw(st.sampled_from(INVALID_NUMBERS) if style.entry_strays("number")
                  else numbers)
    raw_bytes = draw(st.sampled_from(INVALID_BYTES if style.entry_strays("bytes")
                                     else VALID_BYTES))
    style.entries += 1
    pairs = [("token", token), ("logprob", number)]
    if raw_bytes is not None:
        pairs.append(("bytes", raw_bytes))
    return pairs


@st.composite
def chat_bodies(draw, max_tokens: int = 5) -> bytes:
    """A chat-completions body. A quarter are in the compact form and key
    order of OpenAI/vLLM servers, half stray from it in exactly one place,
    and the rest stray often; usage disagrees with the content on its own."""
    mode = draw(st.sampled_from(["compact", "defect", "defect", "noisy"]))
    style = Style(draw, draw(st.sampled_from(DEFECTS)) if mode == "defect" else None,
                  draw(st.sampled_from([10, 30])) if mode == "noisy" else 0)
    n = draw(st.integers(0 if mode == "noisy" else 1, max_tokens))
    widths = [draw(st.integers(1, 4)) for _ in range(n)]
    if n:
        style.bad_entry = draw(st.integers(0, n + sum(widths) - 1))
    bad_token = draw(st.integers(0, max(n - 1, 0)))
    tokens = []
    for i, width in enumerate(widths):
        pairs = entry(draw, style)
        if style.defect == "tops" and i == bad_token or \
                style.defect is None and style.strays("tops"):
            tops = draw(st.sampled_from([b"[]", b"null", None]))
        else:
            tops = style.arr([style.obj(entry(draw, style)) for _ in range(width)])
        if tops is not None:
            pairs.append(("top_logprobs", tops))
        tokens.append(style.obj(pairs))

    text = draw(json_strings(st.one_of(st.text(max_size=12), st.sampled_from(
        ["NaN", '"logprobs":{"content":[', "\\boxed{7}", "}]}]"]))))
    if draw(st.integers(0, 9)) == 0:
        text = draw(st.sampled_from(NON_STRING_TEXTS))
    choice = [("index", b"0"),
              ("message", style.obj([("role", b'"assistant"'), ("content", text)])),
              ("logprobs", style.obj([("content", style.arr(tokens))])),
              ("finish_reason", draw(st.sampled_from([b'"stop"', b'"length"', b'"tool"',
                                                      b"null"])))]
    # Usage strays on its own, so bad usage also meets compact content.
    usage_tokens, prompt_tokens = str(n).encode(), b"5"
    if draw(st.integers(0, 5)) == 0:
        usage_tokens = draw(st.sampled_from([str(n + 1).encode(), b'"many"', b"null", None]))
        prompt_tokens = draw(st.sampled_from([b"5", b"-1", b'"x"', b"1e400", b"NaN", b"-0.0"]))
    usage = [("prompt_tokens", prompt_tokens)]
    if usage_tokens is not None:
        usage.append(("completion_tokens", usage_tokens))
    top = [("id", b'"chatcmpl-1"'), ("object", b'"chat.completion"'),
           ("choices", style.arr([style.obj(choice)]))]
    if draw(st.integers(0, 9)) > 0:
        top.append(("usage", style.obj(usage)))
    return style.obj(top)


@st.composite
def mutated_bodies(draw, max_tokens: int = 5) -> bytes:
    """A chat body with a few random byte flips, insertions and deletions."""
    body = bytearray(draw(chat_bodies(max_tokens)))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(body) - 1))
        op = draw(st.sampled_from(["flip", "insert", "delete"]))
        if op == "delete":
            del body[pos]
        else:
            byte = draw(st.one_of(st.integers(0, 255),
                                  st.sampled_from(list(b'{}[],:"\\ -.0e'))))
            if op == "flip":
                body[pos] = byte
            else:
                body.insert(pos, byte)
    return bytes(body)


@st.composite
def uniform_bodies(draw, max_tokens: int = 8, odd: bool = False) -> bytes:
    """A compact body whose rows have one width w (1-5), with or without
    bytes lists, and a few rows of other widths spliced in anywhere: bodies
    the row pattern tiles, and bodies whose first untiled row can fall in
    any window.

    With ``odd``, the body also strays in one of ``ODD_RESTS``: a compact
    decoy array under "logprobs" before "choices"; a second "content" key
    after the array; a second "logprobs" key in the choice, before or after
    the array's; an extra NaN or Infinity, or an extra number such as
    -0.0, before or after the array; bytes glued to the array's "]" that
    would extend a number before them; a message content that is not a
    string; or a token holding "}]}]"."""
    width = draw(st.integers(1, 5))
    widths = [width] * draw(st.integers(1, max_tokens))
    for _ in range(draw(st.integers(0, 2))):
        widths.insert(draw(st.integers(0, len(widths))),
                      draw(st.integers(1, 6).filter(lambda w: w != width)))
    with_bytes = draw(st.booleans())
    kind = draw(st.sampled_from(ODD_RESTS)) if odd else None
    end_token = draw(st.integers(0, sum(widths) - 1)) if kind == "end_token" else -1

    def entry(token: bytes | None = None) -> bytes:
        raw_bytes = b',"bytes":' + draw(st.sampled_from(VALID_BYTES[1:])) if with_bytes else b""
        token = token or draw(json_strings())
        return b'{"token":' + token + b',"logprob":' + draw(numbers) + raw_bytes

    def array(widths: list[int]) -> bytes:
        tops = iter(range(sum(widths)))
        return b"[" + b",".join(
            entry() + b',"top_logprobs":[' + b",".join(
                entry(b'"x}]}]"' if next(tops) == end_token else None) + b"}"
                for _ in range(w)) + b"]}"
            for w in widths) + b"]"

    def other() -> bytes:  # the value of a second content key
        return draw(st.sampled_from([b"null", b"[]", b"NaN", b"-0.0", array([width])]))

    constant = draw(st.sampled_from([b"NaN", b"Infinity", b"-Infinity"] if kind == "constant"
                                    else [b"-0.0", b"-0.00", b"-0.0e1", b"0.5"]))
    top = choice = after = b""
    text, prompt_tokens = b'"so \\boxed{7}"', b"5"
    if kind == "decoy":
        top = b'"logprobs":{"content":' + array([width] * draw(st.integers(1, 3))) + b"},"
    elif kind == "duplicate":
        after = b',"content":' + other()
    elif kind == "second_logprobs":
        second = b'"logprobs":{"content":' + other() + b"},"
        choice = second if draw(st.booleans()) else b""
        after = b"" if choice else b'},' + second[:-2]
    elif kind == "glued":
        after = draw(st.sampled_from([b"0", b"5", b".5", b"e1", b"E+2", b"00"]))
    elif kind in ("constant", "number"):
        place = draw(st.sampled_from(["top", "after", "usage"]))
        if place == "top":
            top = b'"extra":' + constant + b","
        elif place == "after":
            after = b',"extra":' + constant
        else:
            prompt_tokens = constant
    elif kind == "text":
        text = draw(st.sampled_from(NON_STRING_TEXTS))
    return (b'{"id":"chatcmpl-1","object":"chat.completion",' + top + b'"choices":[{"index":0,'
            b'"message":{"role":"assistant","content":' + text + b'},' + choice
            + b'"logprobs":{"content":' + array(widths) + after + b'},"finish_reason":"stop"}],'
            b'"usage":{"prompt_tokens":' + prompt_tokens + b',"completion_tokens":%d}}' % len(widths))


def compact_body(rows: list[list[float]], with_bytes: bool, text: str = "so \\boxed{7}",
                 usage_tokens: int | None = None) -> bytes:
    """A compact body in the OpenAI/vLLM key order (token, logprob, bytes,
    top_logprobs); row i's own logprob is its first top entry's."""
    def entry(token: str, logprob: float) -> dict:
        out = {"token": token, "logprob": logprob}
        if with_bytes:
            out["bytes"] = list(token.encode("utf-8"))
        return out

    content = [dict(entry(f"t{i}", row[0]),
                    top_logprobs=[entry(f"t{i}{j}", lp) for j, lp in enumerate(row)])
               for i, row in enumerate(rows)]
    body = {"id": "chatcmpl-1", "object": "chat.completion",
            "choices": [{"index": 0, "message": {"role": "assistant", "content": text},
                         "logprobs": {"content": content}, "finish_reason": "stop"}],
            "usage": {"prompt_tokens": 5,
                      "completion_tokens": len(rows) if usage_tokens is None else usage_tokens}}
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def json_path(raw: bytes, k: int):
    """The reference parse: decode, build the JSON tree, parse it."""
    try:
        obj = json.loads(raw.decode("utf-8", errors="replace"))
    except ValueError as exc:
        raise BackendError("non-JSON response") from exc
    return parse_chat_response(obj, k)


def outcome(parse, *args):
    """What ``parse(*args)`` returns, or the class of the ``BackendError`` it raises."""
    try:
        return parse(*args)
    except BackendError as exc:
        return type(exc)


def assert_same_outcome(got, want) -> None:
    """Equal outcomes, down to the sign of every zero confidence, which
    ``ConfidenceTrace.__eq__`` does not compare."""
    assert got == want
    if not isinstance(want, type):
        np.testing.assert_array_equal(np.signbit(got.trace.values),
                                      np.signbit(want.trace.values))
