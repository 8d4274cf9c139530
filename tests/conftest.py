"""Shared test helpers: scripted backends and controller stand-ins."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from refinectl.backend import Backend, BackendError, MockBackend, MockRecord
from refinectl.confidence import FeatureVector
from refinectl.controller import Action, Decision


def make_decision(action: Action, n_actions: int = 3, success: float = 0.5) -> Decision:
    probs = [0.05] * n_actions
    probs[int(action)] = 1.0 - 0.05 * (n_actions - 1)
    return Decision(action=action, probs=tuple(probs), success_prob=success)


class StubController:
    """Scripted controller: returns the next action from a list, or applies
    a feature -> action function."""

    def __init__(self, actions=None, fn=None, n_actions: int = 3):
        assert (actions is None) != (fn is None)
        self.actions = list(actions) if actions is not None else None
        self.fn = fn
        self.n_actions = n_actions
        self.seen: list[FeatureVector] = []

    def decide(self, feature: FeatureVector) -> Decision:
        self.seen.append(feature)
        if self.actions is not None:
            action = self.actions.pop(0)
        else:
            action = self.fn(feature)
        return make_decision(Action(action), self.n_actions)


def mock_backend(*records, **kwargs) -> MockBackend:
    backend = MockBackend(list(records), **kwargs)
    backend.retry_backoff = 0.0
    return backend


class KeyedBackend(Backend):
    """A concurrent fake: each request is served ``pick(statement, seed)``,
    the record kept for the problem whose statement is in its prompt and for
    its sampling seed, so answers do not depend on arrival order. Like
    ``HttpBackend`` it bounds its own slots; ``peak`` is the most requests it
    held at once, ``tokens`` the tokens it served and ``threads`` the
    threads that called it."""

    def __init__(self, pick, statements, max_inflight: int):
        self.pick = pick
        self.statements = list(statements)
        self.max_inflight = max_inflight
        self.retry_backoff = 0.0
        self.tokens = self.active = self.peak = 0
        self.threads: set[threading.Thread] = set()
        self._slots = threading.BoundedSemaphore(max_inflight)
        self._lock = threading.Lock()

    def _generate_once(self, messages, cfg):
        prompt = messages[-1]["content"]
        statement = next(s for s in self.statements if s in prompt)
        with self._slots:
            with self._lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
                self.threads.add(threading.current_thread())
            record = self.pick(statement, cfg.seed)
            time.sleep(0.001)  # long enough for other requests to come in
            with self._lock:
                self.active -= 1
        if record.error is not None:
            raise BackendError(record.error)
        completion = record.to_completion(cfg.logprob_count)
        with self._lock:
            self.tokens += completion.completion_tokens
        return completion


def boxed_record(answer: str, confs, text_prefix: str = "working...",
                 finish: str = "stop") -> MockRecord:
    return MockRecord(text=f"{text_prefix} \\boxed{{{answer}}}",
                      confidences=list(confs), finish_reason=finish)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
