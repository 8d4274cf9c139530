"""The benchmark workloads: set-up, one sweep, and the checks on its output.

Each workload is a closed loop: one sweep finishes before the next starts,
and every sweep over the same inputs does the same work, so sweep timings
can be compared directly and their median reported.

- ``tree_http``: ``run_benchmark(method="corefine_tree")`` with
  ``HttpBackend(max_inflight=2)`` against the loopback stub server in its own
  process. Client CPU for JSON decode, ``parse_chat_response`` and
  ``build_trace`` scales with tokens and dominates; ``drain_concurrent`` has
  to overlap it with the server's waiting.
- ``seq_mock``: ``run_benchmark(method="corefine")`` over ``MockBackend``
  with ``max_iterations=20`` and 16-256-token traces. No HTTP and no JSON:
  the fixed per-iteration cost (``decide`` at batch 1, stats and pooling,
  compaction, prompt building, answer extraction) dominates.
- ``train``: ``training.train`` with focal loss at batch 32 on labeled
  16-bin features: the same ``ControllerModel`` in train mode.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import inputs
import refinectl.bench as bench
from refinectl.backend import HttpBackend, MockBackend
from refinectl.bench import RunSpec
from refinectl.controller import Action, load_model
from refinectl.refine import LoopConfig
from refinectl.training import TrainConfig, train
from refinectl.tree import TreeConfig

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixture" / "controller.rcn"
# Stub server decode time per completion token: about the client's CPU per
# token at the seed commit, so waiting and client work are of the same order.
US_PER_TOKEN = 30.0


class CheckFailed(Exception):
    """A sweep's output is wrong."""


@dataclass
class Sweep:
    wall: float
    cpu: float
    items: int        # problems, or training samples
    steps: int        # generations served, or optimizer steps
    accuracy: float   # percent
    failed: int       # generations or problems that failed


@dataclass(frozen=True)
class Size:
    tree_min_tokens: int = 1000
    tree_max_tokens: int = 16_000
    seq_problems: int = 16
    train_samples: int = 1024


SIZES = {
    "full": Size(),
    "tiny": Size(tree_min_tokens=64, tree_max_tokens=256, seq_problems=4, train_samples=192),
}


class Workload:
    """Base: subclasses set ``name`` and implement the four hooks."""

    name = ""
    max_inflight = 1

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.reference_accuracy: float | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def sweep(self) -> Sweep:
        raise NotImplementedError

    def check_accuracy(self, sweep: Sweep) -> None:
        """Accuracy is a pure function of the seed: every sweep must agree."""
        if self.reference_accuracy is None:
            self.reference_accuracy = sweep.accuracy
        elif sweep.accuracy != self.reference_accuracy:
            raise CheckFailed(f"{self.name}: accuracy {sweep.accuracy!r} differs from "
                              f"{self.reference_accuracy!r} on the same seed")


# ---------------------------------------------------------------------------
# tree_http
# ---------------------------------------------------------------------------

class StubProcess:
    """The stub server child process; ``close`` stops it and waits."""

    def __init__(self, seed: int, size: Size):
        cmd = [sys.executable, str(HERE / "stub_server.py"), "--seed", str(seed),
               "--min-tokens", str(size.tree_min_tokens),
               "--max-tokens", str(size.tree_max_tokens),
               "--us-per-token", str(US_PER_TOKEN)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"stub server did not start (got {line!r})")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class TreeHttp(Workload):
    name = "tree_http"
    max_inflight = 2

    def setup(self) -> None:
        self.problems = inputs.problems(self.seed, inputs.TREE_TAGS)
        self.stub = StubProcess(self.seed, self.size)
        self.model, _ = load_model(FIXTURE)
        self.backend = HttpBackend(self.stub.url + "/v1", model="bench",
                                   max_inflight=self.max_inflight, timeout=60.0)
        self.spec = RunSpec(method="corefine_tree", seeds=(0,),
                            loop_cfg=LoopConfig(normalization=inputs.NORMALIZATION),
                            tree_cfg=TreeConfig())

    def teardown(self) -> None:
        if hasattr(self, "stub"):
            self.stub.close()

    def sweep(self) -> Sweep:
        before = self.stub.stats()
        t0, c0 = time.perf_counter(), time.process_time()
        row = bench.run_benchmark(self.problems, self.spec, self.backend,
                                  controller=self.model, dataset_name=self.name)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = self.stub.stats()
        served = after["tokens"] - before["tokens"]
        errors = after["errors"] - before["errors"]
        if row.tokens_total != served:
            raise CheckFailed(f"tree_http: report counts {row.tokens_total} tokens, "
                              f"the stub served {served}")
        sweep = Sweep(wall=wall, cpu=cpu, items=len(self.problems),
                      steps=after["requests"] - before["requests"],
                      accuracy=row.accuracy_mean, failed=errors)
        self.check_accuracy(sweep)
        return sweep

    def check_trace(self, spans: list[tuple]) -> None:
        """Tree bound and decision mix, from the spans of a traced sweep."""
        bound = self.spec.tree_cfg.max_nodes()
        trees = [s[5] for s in spans if s[2] == "tree.run_tree" and s[5]]
        if len(trees) != len(self.problems):
            raise CheckFailed(f"tree_http: {len(trees)} trees for {len(self.problems)} problems")
        for tree in trees:
            if tree["nodes"] > bound:
                raise CheckFailed(f"tree_http: a tree has {tree['nodes']} nodes > {bound}")
        require_mix(self.name, [a for tree in trees for a in tree["actions"]])


# ---------------------------------------------------------------------------
# seq_mock
# ---------------------------------------------------------------------------

class SeqMock(Workload):
    name = "seq_mock"

    def setup(self) -> None:
        self.problems = inputs.problems(self.seed, range(self.size.seq_problems))
        self.script = inputs.seq_script(self.seed, self.problems)
        self.model, _ = load_model(FIXTURE)
        self.spec = RunSpec(method="corefine", seeds=(0,),
                            loop_cfg=LoopConfig(max_iterations=20,
                                                normalization=inputs.NORMALIZATION))

    def sweep(self) -> Sweep:
        made: list[MockBackend] = []

        def factory(seed: int) -> MockBackend:
            made.append(MockBackend(self.script.records))
            return made[-1]

        t0, c0 = time.perf_counter(), time.process_time()
        row = bench.run_benchmark(self.problems, self.spec, None, controller=self.model,
                                  dataset_name=self.name, backend_factory=factory)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        consumed = sum(len(self.script.records) - b.remaining for b in made)
        served = int(self.script.tokens[:consumed].sum())
        if row.tokens_total != served:
            raise CheckFailed(f"seq_mock: report counts {row.tokens_total} tokens, "
                              f"the mock served {served}")
        sweep = Sweep(wall=wall, cpu=cpu, items=len(self.problems), steps=consumed,
                      accuracy=row.accuracy_mean, failed=0)
        self.check_accuracy(sweep)
        return sweep

    def check_trace(self, spans: list[tuple]) -> None:
        runs = [s[5] for s in spans if s[2] == "refine.run" and s[5]]
        if len(runs) != len(self.problems):
            raise CheckFailed(f"seq_mock: {len(runs)} runs for {len(self.problems)} problems")
        require_mix(self.name, [a for run in runs for a in run["actions"]])


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train(Workload):
    name = "train"

    def setup(self) -> None:
        self.data = inputs.labeled_set(self.seed, self.size.train_samples, label_noise=0.1)
        self.cfg = TrainConfig(epochs=2, batch_size=32,
                               loss_kind="focal", rng_seed=self.seed, val_fraction=0.5)

    def sweep(self) -> Sweep:
        t0, c0 = time.perf_counter(), time.process_time()
        _, report = train(self.data, self.cfg, n_actions=3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        epochs = self.cfg.epochs
        steps = math.ceil(report.train_size / self.cfg.batch_size) * epochs
        sweep = Sweep(wall=wall, cpu=cpu, items=report.train_size * epochs, steps=steps,
                      accuracy=report.best_val_accuracy * 100.0, failed=0)
        if not report.best_val_accuracy > 1 / 3:
            raise CheckFailed(f"train: validation accuracy {report.best_val_accuracy} "
                              "is no better than chance")
        self.check_accuracy(sweep)
        return sweep

    def check_trace(self, spans: list[tuple]) -> None:
        if not any(s[2] == "training.adam_step" for s in spans):
            raise CheckFailed("train: no optimizer step ran")


def require_mix(name: str, actions: list[str]) -> None:
    missing = [a.name for a in (Action.HALT, Action.RETHINK, Action.ALTERNATIVE)
               if a.name not in actions]
    if missing:
        raise CheckFailed(f"{name}: the controller never chose {', '.join(missing)}")


WORKLOADS = {w.name: w for w in (TreeHttp, SeqMock, Train)}
