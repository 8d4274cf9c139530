"""Loopback OpenAI-compatible chat-completions stub for the tree_http workload.

Run as its own process::

    python3 perfbench/stub_server.py --seed 0 --min-tokens 1000 --max-tokens 16000 \
        --us-per-token 30

It renders the response bank (inputs.bank) to JSON once at start-up, binds an
ephemeral port on 127.0.0.1, prints ``READY <port>`` and serves until its
standard input closes. Each POST to ``/v1/chat/completions`` gets the bank
response picked by the request's problem tag and sampling seed, with an answer
string from a hash of the same fields, after sleeping in proportion to the
response length (a stand-in for the model's decode time). ``GET /stats``
returns the requests, tokens and errors served so far. No transport errors
are injected.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402

TAG = re.compile(r"Problem: #(\d+) ")


class Bank:
    """Pre-rendered response parts plus the served-work counters."""

    def __init__(self, args: argparse.Namespace):
        self.us_per_token = args.us_per_token
        self.seed = args.seed
        entries = inputs.bank(args.seed, args.min_tokens, args.max_tokens)
        fragments: dict[int, str] = {}
        rng = np.random.default_rng(args.seed + 3)
        self.slots = []
        for entry in entries:
            for level in np.unique(entry.levels):
                if level not in fragments:
                    fragments[int(level)] = inputs.token_fragment(int(level))
            block = "[" + ",".join(fragments[int(lv)] for lv in entry.levels) + "]"
            self.slots.append((
                entry,
                inputs.filler_text(4 * entry.tokens, rng).encode("ascii"),
                block.encode("ascii"),
            ))
        self.lock = threading.Lock()
        self.requests = 0
        self.tokens = 0
        self.errors = 0

    def respond(self, request: dict) -> tuple[bytes, int]:
        content = request["messages"][-1]["content"]
        match = TAG.search(content)
        if match is None:
            raise ValueError("request carries no problem tag")
        tag = int(match.group(1))
        seed = int(request.get("seed", 0))
        slot = inputs.bank_slot(tag, seed)
        entry, filler, block = self.slots[slot]
        truth = inputs.problem(self.seed, tag).ground_truth
        answer = inputs.answer_for(tag, seed, slot, truth)
        usage = {"prompt_tokens": len(content) // 4, "completion_tokens": entry.tokens,
                 "total_tokens": len(content) // 4 + entry.tokens}
        body = b"".join((
            b'{"id":"chatcmpl-bench","object":"chat.completion","model":"bench",'
            b'"choices":[{"index":0,"message":{"role":"assistant","content":"',
            filler, b" so the answer is \\\\boxed{", answer.encode("ascii"), b'}"},',
            b'"logprobs":{"content":', block, b'},"finish_reason":"',
            entry.finish_reason.encode("ascii"), b'"}],"usage":',
            json.dumps(usage).encode("ascii"), b"}",
        ))
        return body, entry.tokens

    def count(self, tokens: int | None) -> None:
        with self.lock:
            if tokens is None:
                self.errors += 1
            else:
                self.requests += 1
                self.tokens += tokens


def make_handler(bank: Bank):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # keep stderr quiet
            pass

        def _send(self, code: int, body: bytes) -> None:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, b"{}")
                return
            with bank.lock:
                stats = {"requests": bank.requests, "tokens": bank.tokens,
                         "errors": bank.errors}
            self._send(200, json.dumps(stats).encode("ascii"))

        def do_POST(self):
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            try:
                body, tokens = bank.respond(json.loads(raw))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                bank.count(None)
                self._send(400, json.dumps({"error": str(exc)}).encode("utf-8"))
                return
            time.sleep(tokens * bank.us_per_token * 1e-6)
            bank.count(tokens)
            self._send(200, body)

    return Handler


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--min-tokens", type=int, required=True)
    ap.add_argument("--max-tokens", type=int, required=True)
    ap.add_argument("--us-per-token", type=float, required=True)
    args = ap.parse_args(argv)

    bank = Bank(args)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(bank))
    server.daemon_threads = True
    print(f"READY {server.server_address[1]}", flush=True)

    def stop_on_eof():
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_on_eof, daemon=True).start()
    server.serve_forever(poll_interval=0.05)
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
