"""Fault injection: random mock scripts of served, truncated and failing
records through both orchestrators and the benchmark harness.

Whatever the script, only ``RefinementError`` escapes ``run`` and
``run_tree``, ``run_benchmark`` never raises, every reported token total
equals the tokens of the records actually served, and a tree never exceeds
its node budget. With problems in flight on a concurrent backend the same
holds, and the row is the one the same records give one problem at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from refinectl.backend import GenerationConfig, MockRecord
from refinectl.bench import Problem, RunSpec, run_benchmark
from refinectl.controller import Action
from refinectl.refine import LoopConfig, RefinementError, run
from refinectl.tree import TreeConfig, run_tree

from conftest import KeyedBackend, StubController, boxed_record, mock_backend

CFG = GenerationConfig()

records_st = st.lists(st.one_of(
    st.builds(lambda answer, n, finish: boxed_record(answer, [9.0 + n] * n, finish=finish),
              st.sampled_from(["3", "{3}", "4"]), st.integers(1, 6),
              st.sampled_from(["stop", "length"])),
    st.just(MockRecord(error="injected failure")),
), max_size=14)
actions_st = st.lists(st.sampled_from(list(Action)), min_size=1, max_size=6)
loop_st = st.builds(LoopConfig, max_iterations=st.integers(1, 4),
                    consistency_override_count=st.integers(1, 3),
                    max_truncation_retries=st.integers(0, 2))
tree_st = st.builds(TreeConfig, warmup=st.integers(1, 3), branch_factor=st.integers(1, 2),
                    max_depth=st.integers(0, 2))


def cycling(actions) -> StubController:
    cycle = itertools.cycle(actions)
    return StubController(fn=lambda feature: next(cycle), n_actions=len(Action))


def served_tokens(records, backend) -> int:
    consumed = records[:len(records) - backend.remaining]
    return sum(len(r.confidences) for r in consumed if r.error is None)


@settings(max_examples=150, deadline=None)
@given(records=records_st, actions=actions_st, loop_cfg=loop_st)
def test_run_fails_only_with_refinement_error_and_exact_tokens(records, actions, loop_cfg):
    backend = mock_backend(*records)
    try:
        tokens = run("p", backend, cycling(actions), CFG, loop_cfg).total_tokens
    except RefinementError as exc:
        tokens = exc.partial.total_tokens
    assert tokens == served_tokens(records, backend)


@settings(max_examples=150, deadline=None)
@given(records=records_st, actions=actions_st, loop_cfg=loop_st, tree_cfg=tree_st)
def test_run_tree_fails_only_with_refinement_error_and_exact_tokens(
        records, actions, loop_cfg, tree_cfg):
    backend = mock_backend(*records)
    try:
        tree = run_tree("p", backend, cycling(actions), CFG, tree_cfg, loop_cfg)
    except RefinementError as exc:
        tree = exc.partial
        assert not tree.nodes
    assert tree.total_tokens == served_tokens(records, backend)
    assert len(tree.nodes) <= tree_cfg.max_nodes()


@settings(max_examples=60, deadline=None)
@given(records=records_st, actions=actions_st, loop_cfg=loop_st, tree_cfg=tree_st,
       method=st.sampled_from(["corefine", "corefine_tree"]))
def test_run_benchmark_never_raises_and_counts_served_tokens(
        records, actions, loop_cfg, tree_cfg, method):
    backends = []

    def factory(seed):
        backends.append(mock_backend(*records))
        return backends[-1]

    dataset = [Problem(id=f"p{i}", statement="q", ground_truth="3") for i in range(2)]
    spec = RunSpec(method=method, seeds=(0,), loop_cfg=loop_cfg, tree_cfg=tree_cfg)
    row = run_benchmark(dataset, spec, backend=None, controller=cycling(actions),
                        backend_factory=factory)
    assert row.tokens_total == served_tokens(records, backends[0])
    assert 0.0 <= row.accuracy_mean <= 100.0


@settings(max_examples=40, deadline=None)
@given(tables=st.lists(records_st.filter(bool), min_size=3, max_size=3),
       actions=actions_st, loop_cfg=loop_st, tree_cfg=tree_st,
       method=st.sampled_from(["corefine", "corefine_tree"]),
       max_inflight=st.integers(2, 4))
def test_problems_in_flight_keep_the_serial_row(tables, actions, loop_cfg, tree_cfg, method,
                                                max_inflight):
    """Three problems over a backend with 2-4 slots: the sweep never raises,
    counts exactly the tokens served, and reports the row the same records
    give at one slot. Records are kept by (statement, seed) and the
    controller is a function of the reply, so neither depends on which
    problem's request arrives first."""
    dataset = [Problem(id=f"p{i}", statement=f"question {i}", ground_truth="3")
               for i in range(len(tables))]
    by_statement = {p.statement: table for p, table in zip(dataset, tables)}

    def pick(statement, seed):
        table = by_statement[statement]
        return table[seed % len(table)]

    # a served record's confidences are all 9 + its length
    controller = StubController(fn=lambda f: actions[int(f.bins[0]) % len(actions)],
                                n_actions=len(Action))
    spec = RunSpec(method=method, seeds=(0, 1), loop_cfg=loop_cfg, tree_cfg=tree_cfg)
    rows = []
    for slots in (max_inflight, 1):
        backend = KeyedBackend(pick, by_statement, slots)
        rows.append(run_benchmark(dataset, spec, backend, controller=controller))
        assert rows[-1].tokens_total == backend.tokens
        assert backend.peak <= slots
    assert replace(rows[0], wall_time=0.0) == replace(rows[1], wall_time=0.0)
