"""In-memory spans around refinectl's public functions, and the per-layer
metrics computed from them.

``install(tracer)`` wraps each traced function in every ``refinectl`` module
namespace that holds it (``refinectl.tree`` imports ``build_trace``,
``build_prompt`` and ``drain_concurrent`` by name, for example), wraps the
traced methods on their classes, and swaps the ``json`` module that
``refinectl.backend`` sees for a proxy whose ``loads`` is timed, leaving the
standard library untouched for every other caller. It returns a function that
restores everything.

A span is ``(id, parent id, name, start, end, attrs)``. The parent is the
innermost open span of the same thread; a generate call running on one of
``drain_concurrent``'s worker threads gets the open drain span as its parent.
Spans stay in a list until the run ends. A span's self time is its duration
minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

import refinectl.backend as backend_mod
import refinectl.bench as bench_mod
import refinectl.confidence as confidence_mod
import refinectl.controller as controller_mod
import refinectl.refine as refine_mod
import refinectl.training as training_mod
import refinectl.tree as tree_mod
from refinectl.backend import Backend, HttpBackend, MockBackend
from refinectl.controller import Action, ControllerModel
from refinectl.training import Adam


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._drain: int | None = None  # open drain_concurrent span, if any

    def wrap(self, name: str, fn, attrs=None, drain: bool = False):
        """``fn`` recorded as span ``name``; ``attrs(args, result)`` adds
        attributes after a successful call."""
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._drain
            sid = next(ids)
            stack.append(sid)
            if drain:
                self._drain = sid
            start, result, ok = time.perf_counter(), None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if drain:
                    self._drain = None
                spans.append((sid, parent, name, start, end,
                              attrs(args, result) if ok and attrs else None))

        return traced


class _TimedJson:
    """Stand-in for the ``json`` module inside ``refinectl.backend`` only."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


def _request_key(args) -> str:
    _, messages, cfg = args[:3]
    text = json.dumps(messages, sort_keys=True) + repr(cfg)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _generate_attrs(args, result):
    return {"tokens": result.completion_tokens, "finish": result.finish_reason,
            "key": _request_key(args)}


FUNCTIONS = (
    # (module, attribute, span name, attrs)
    (backend_mod, "parse_chat_response", "backend.parse_chat_response",
     lambda a, r: {"tokens": r.completion_tokens}),
    (confidence_mod, "build_trace", "confidence.build_trace",
     lambda a, r: {"tokens": r.n}),
    (confidence_mod, "downsample", "confidence.downsample", None),
    (confidence_mod, "stats", "confidence.stats", None),
    (confidence_mod, "normalize", "confidence.normalize", None),
    (controller_mod, "deserialize", "controller.deserialize", None),
    (refine_mod, "build_prompt", "refine.build_prompt", None),
    (refine_mod, "build_initial_prompt", "refine.build_initial_prompt", None),
    (refine_mod, "compact", "refine.compact", None),
    (refine_mod, "extract_answer", "refine.extract_answer", None),
    (refine_mod, "run", "refine.run",
     lambda a, r: {"iterations": r.iterations_used,
                   "actions": [d.action.name for d in r.decisions]}),
    (tree_mod, "run_tree", "tree.run_tree",
     lambda a, r: {"nodes": len(r.nodes), "early": r.early_stopped,
                   "actions": [n.action.name for n in r.nodes]}),
    (bench_mod, "run_benchmark", "bench.run_benchmark", None),
    (training_mod, "batch_loss_and_grads", "training.loss", None),
    (training_mod, "evaluate_accuracy", "training.evaluate", None),
)

METHODS = (
    # (class, attribute, original, span name, attrs)
    (HttpBackend, "generate", Backend.generate, "backend.http_generate", _generate_attrs),
    (MockBackend, "generate", Backend.generate, "backend.mock_generate", _generate_attrs),
    (ControllerModel, "decide", ControllerModel.decide, "controller.decide",
     lambda a, r: {"action": r.action.name}),
    (ControllerModel, "forward_batch", ControllerModel.forward_batch,
     "controller.forward_batch", None),
    (ControllerModel, "backward_batch", ControllerModel.backward_batch,
     "controller.backward_batch", None),
    (Adam, "step", Adam.step, "training.adam_step", None),
)


def install(tracer: Tracer):
    """Wrap every traced name; returns a function that undoes it."""
    undo = []
    modules = [m for name, m in sys.modules.items()
               if name == "refinectl" or name.startswith("refinectl.")]
    wrapped_drain = tracer.wrap("backend.drain_concurrent", backend_mod.drain_concurrent,
                                drain=True)
    targets = [(backend_mod.drain_concurrent, wrapped_drain)]
    for module, attr, name, attrs in FUNCTIONS:
        original = getattr(module, attr)
        targets.append((original, tracer.wrap(name, original, attrs)))
    for original, wrapped in targets:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))
    for cls, attr, original, name, attrs in METHODS:
        had_own = attr in vars(cls)
        setattr(cls, attr, tracer.wrap(name, original, attrs))
        undo.append((cls, attr, original if had_own else None))

    timed = tracer.wrap("backend.json_decode", json.loads)
    backend_mod.json = _TimedJson(timed)
    undo.append((backend_mod, "json", json))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def top_percentile(n: int) -> float:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = 50.0
    for p in (90.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def _percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, int(round(p / 100 * (len(ordered) - 1))))
    return ordered[idx]


class SpanIndex:
    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for s in spans:
            if s[1] is not None:
                self.children[s[1]].append(s)
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for s in spans:
            self.by_name[s[2]].append(s)

    def self_time(self, span) -> float:
        kids = [(c[3], c[4]) for c in self.children.get(span[0], ())]
        return (span[4] - span[3]) - _union_length(kids, span[3], span[4])

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.by_name.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def per_call_us(self, name: str) -> float:
        n = self.count(name)
        return self.total(name) / n * 1e6 if n else 0.0

    def problem_of(self, span) -> int | None:
        """Id of the enclosing run_tree / run span."""
        cur = span
        while cur is not None:
            if cur[2] in ("tree.run_tree", "refine.run"):
                return cur[0]
            cur = self.by_id.get(cur[1]) if cur[1] is not None else None
        return None


def layer_metrics(spans: list[tuple], problems: int, wall: float,
                  max_inflight: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase: ``name -> (value, unit)``.

    ``problems`` and ``wall`` are the phase's problem count and summed sweep
    wall time; ``max_inflight`` is the backend's concurrency limit. Layers
    the workload never reached report 0.
    """
    idx = SpanIndex(spans)
    out: dict[str, tuple[float, str]] = {}

    # backend -----------------------------------------------------------
    parse_tokens = sum(s[5]["tokens"] for s in idx.by_name["backend.parse_chat_response"]
                       if s[5])
    out["backend.json_decode.us_per_token"] = (
        idx.total("backend.json_decode") / parse_tokens * 1e6 if parse_tokens else 0.0, "us")
    out["backend.parse_chat_response.us_per_token"] = (
        idx.total("backend.parse_chat_response") / parse_tokens * 1e6
        if parse_tokens else 0.0, "us")

    http = idx.by_name["backend.http_generate"]
    durations_ms = [(s[4] - s[3]) * 1e3 for s in http]
    tail = top_percentile(len(http))
    out["backend.http_generate.calls"] = (float(len(http)), "count")
    out["backend.http_generate.p50_ms"] = (_percentile(durations_ms, 50.0), "ms")
    out["backend.http_generate.tail_ms"] = (_percentile(durations_ms, tail), "ms")
    out["backend.http_generate.tail_pct"] = (tail if http else 0.0, "%")
    out["backend.http_wait_ms"] = (
        statistics.fmean(idx.self_time(s) * 1e3 for s in http) if http else 0.0, "ms")

    drains = idx.by_name["backend.drain_concurrent"]
    drain_wall = sum(s[4] - s[3] for s in drains)
    busy = sum(c[4] - c[3] for d in drains for c in idx.children.get(d[0], ())
               if c[2] in ("backend.http_generate", "backend.mock_generate"))
    out["backend.drain_concurrent.occupancy"] = (
        busy / (drain_wall * max_inflight) if drain_wall else 0.0, "ratio")

    generates = http + idx.by_name["backend.mock_generate"]
    drain_ids = {d[0] for d in drains}
    serial = [s for s in generates if s[1] not in drain_ids]
    out["backend.serial_generate_share"] = (
        len(serial) / len(generates) if http else 0.0, "ratio")

    retries, wasted, served = 0, 0, 0
    last: dict[tuple, tuple] = {}
    for s in sorted(generates, key=lambda s: s[3]):
        if not s[5]:
            continue
        served += s[5]["tokens"]
        key = (idx.problem_of(s), s[5]["key"])
        prev = last.get(key)
        if prev is not None and prev[5]["finish"] == "length":
            retries += 1
            wasted += prev[5]["tokens"]
        last[key] = s
    out["backend.truncation_retries_per_problem"] = (
        retries / problems if problems else 0.0, "count")
    out["backend.useful_token_ratio"] = (
        (served - wasted) / served if served else 0.0, "ratio")
    out["backend.tokens_per_gen"] = (served / len(generates) if generates else 0.0, "count")
    out["backend.mock_generate.us_per_call"] = (idx.per_call_us("backend.mock_generate"), "us")

    # confidence --------------------------------------------------------
    trace_tokens = sum(s[5]["tokens"] for s in idx.by_name["confidence.build_trace"] if s[5])
    out["confidence.build_trace.us_per_token"] = (
        idx.total("confidence.build_trace") / trace_tokens * 1e6 if trace_tokens else 0.0, "us")
    for name in ("downsample", "stats", "normalize"):
        out[f"confidence.{name}.us_per_call"] = (idx.per_call_us(f"confidence.{name}"), "us")

    # controller --------------------------------------------------------
    decides = idx.by_name["controller.decide"]
    decide_us = [(s[4] - s[3]) * 1e6 for s in decides]
    tail = top_percentile(len(decides))
    out["controller.decide.calls"] = (float(len(decides)), "count")
    out["controller.decide.p50_us"] = (_percentile(decide_us, 50.0), "us")
    out["controller.decide.tail_us"] = (_percentile(decide_us, tail), "us")
    out["controller.decide.tail_pct"] = (tail if decides else 0.0, "%")
    loads = idx.by_name["controller.deserialize"]
    out["controller.deserialize_ms"] = (
        statistics.median((s[4] - s[3]) * 1e3 for s in loads) if loads else 0.0, "ms")

    # refine ------------------------------------------------------------
    for name in ("build_prompt", "build_initial_prompt", "compact", "extract_answer"):
        out[f"refine.{name}.us_per_call"] = (idx.per_call_us(f"refine.{name}"), "us")
    runs = [s for s in idx.by_name["refine.run"] if s[5]]
    iterations = sum(s[5]["iterations"] for s in runs)
    out["refine.run.self_ms_per_iteration"] = (
        sum(idx.self_time(s) for s in runs) / iterations * 1e3 if iterations else 0.0, "ms")

    # tree --------------------------------------------------------------
    trees = [s for s in idx.by_name["tree.run_tree"] if s[5]]
    nodes = sum(s[5]["nodes"] for s in trees)
    out["tree.run_tree.self_ms_per_node"] = (
        sum(idx.self_time(s) for s in trees) / nodes * 1e3 if nodes else 0.0, "ms")
    out["tree.nodes_per_problem"] = (nodes / len(trees) if trees else 0.0, "count")
    out["tree.early_stop_rate"] = (
        sum(1 for s in trees if s[5]["early"]) / len(trees) if trees else 0.0, "ratio")
    for action in (Action.HALT, Action.RETHINK, Action.ALTERNATIVE):
        taken = sum(s[5]["actions"].count(action.name) for s in trees)
        out[f"tree.action_share.{action.name}"] = (taken / nodes if nodes else 0.0, "ratio")

    # bench -------------------------------------------------------------
    sweeps = idx.by_name["bench.run_benchmark"]
    out["bench.run_benchmark.self_ms"] = (
        statistics.fmean(idx.self_time(s) * 1e3 for s in sweeps) if sweeps else 0.0, "ms")

    # training ----------------------------------------------------------
    losses = idx.by_name["training.loss"]
    batches = len(losses)
    loss_ids = {s[0] for s in losses}
    train_parts = {
        "forward_batch": sum(s[4] - s[3] for s in idx.by_name["controller.forward_batch"]
                             if s[1] in loss_ids),
        "backward_batch": sum(s[4] - s[3] for s in idx.by_name["controller.backward_batch"]
                              if s[1] in loss_ids),
        "adam_step": idx.total("training.adam_step"),
        "loss": sum(idx.self_time(s) for s in losses),
    }
    for part, seconds in train_parts.items():
        out[f"training.{part}.ms_per_batch"] = (
            seconds / batches * 1e3 if batches else 0.0, "ms")
        out[f"training.{part}.share_pct"] = (
            seconds / wall * 100 if batches and wall else 0.0, "%")
    evals = idx.by_name["training.evaluate"]
    out["training.evaluate_ms_per_epoch"] = (
        statistics.fmean((s[4] - s[3]) * 1e3 for s in evals) if evals else 0.0, "ms")
    return out
