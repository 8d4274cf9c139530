"""Command-line entry points.

    refinectl run    --problem-file p.jsonl --model-file ctl.bin --max-iters 20
    refinectl tree   --problem-file p.jsonl --model-file ctl.bin --warmup 4 --branch 2 --depth 3
    refinectl bench  --dataset d.jsonl --method majority_parallel --k 20 --seeds 5 --out report.csv
    refinectl report --in report.json --format markdown

Backends: ``--endpoint URL --model NAME`` for an OpenAI-compatible server
(credential in $REFINECTL_API_KEY, override with --api-key-env), or
``--mock-script script.json`` for offline scripted runs.

Each problem is answered in its own mode (``math_boxed`` or ``mcq``, from the
dataset row), so one file can mix both. ``run`` and ``tree`` print one line
per problem; a problem whose generation fails prints
``<id>: failed: <message> tokens=<served>`` and the rest still run. The log
or dump then holds the finished problems, and the exit status is 1. Over
HTTP, up to the backend's ``max_inflight`` problems run at once; lines, log
and dump stay in problem-file order.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from .backend import (
    DEFAULT_API_KEY_ENV,
    Backend,
    GenerationConfig,
    HttpBackend,
    MockBackend,
    load_mock_script,
)
from .bench import RunSpec, emit_report, load_dataset, load_report, run_benchmark, solve_each
from .controller import load_model
from .refine import LoopConfig, RefinementError, run, write_run_log
from .tree import TreeConfig, run_tree, write_tree_dump


def _add_backend_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--endpoint", help="OpenAI-compatible base URL")
    parser.add_argument("--model", help="served model name (http backend)")
    parser.add_argument("--mock-script", help="JSON script for the offline mock backend")
    parser.add_argument("--api-key-env", default=DEFAULT_API_KEY_ENV,
                        help="environment variable holding the API key")


def _make_backend(args) -> Backend:
    if args.mock_script:
        return MockBackend(load_mock_script(args.mock_script))
    if args.endpoint and args.model:
        return HttpBackend(args.endpoint, args.model, api_key_env=args.api_key_env)
    raise SystemExit("need either --mock-script or both --endpoint and --model")


def _make_backend_factory(args):
    if args.mock_script:
        return lambda seed: MockBackend(load_mock_script(args.mock_script))
    backend = _make_backend(args)
    return lambda seed: backend


def _gen_cfg(args) -> GenerationConfig:
    return GenerationConfig(
        temperature=args.temperature,
        top_p=args.top_p,
        max_tokens=args.max_tokens,
        logprob_count=args.logprobs,
        seed=args.seed,
    )


def _add_gen_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--temperature", type=float, default=0.7)
    parser.add_argument("--top-p", type=float, default=0.95)
    parser.add_argument("--max-tokens", type=int, default=32_000)
    parser.add_argument("--logprobs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=None)


def _cmd_run(args) -> int:
    backend = _make_backend(args)
    controller, _ = load_model(args.model_file)
    problems = load_dataset(args.problem_file)
    loop_cfg = LoopConfig(max_iterations=args.max_iters, two_phase_refusal=args.two_phase)
    gen_cfg = _gen_cfg(args)
    results, failed = [], False
    for problem, result in zip(problems, solve_each(
            lambda problem: run(problem, backend, controller, gen_cfg, loop_cfg),
            problems, backend)):
        if isinstance(result, RefinementError):
            failed = True
            print(f"{problem.id}: failed: {result} "
                  f"tokens={result.partial.total_generation_tokens}")
            continue
        results.append(result)
        print(f"{problem.id}: answer={result.final_answer!r} "
              f"iterations={result.iterations_used} terminated_by={result.terminated_by} "
              f"tokens={result.total_generation_tokens}")
    if args.log:
        write_run_log(args.log, results)
    return int(failed)


def _cmd_tree(args) -> int:
    backend = _make_backend(args)
    controller, _ = load_model(args.model_file)
    problems = load_dataset(args.problem_file)
    loop_cfg = LoopConfig(two_phase_refusal=args.two_phase)
    tree_cfg = TreeConfig(warmup=args.warmup, branch_factor=args.branch,
                          max_depth=args.depth, vote=args.vote)
    gen_cfg = _gen_cfg(args)
    runs, failed = [], False
    for problem, tree_run in zip(problems, solve_each(
            lambda problem: run_tree(problem, backend, controller, gen_cfg, tree_cfg, loop_cfg),
            problems, backend)):
        if isinstance(tree_run, RefinementError):
            failed = True
            print(f"{problem.id}: failed: {tree_run} tokens={tree_run.partial.total_tokens}")
            continue
        runs.append(tree_run)
        print(f"{problem.id}: answer={tree_run.final_answer!r} "
              f"nodes={len(tree_run.nodes)} early_stopped={tree_run.early_stopped} "
              f"tokens={tree_run.total_tokens}")
    if args.dump:
        write_tree_dump(args.dump, runs)
    return int(failed)


def _cmd_bench(args) -> int:
    problems = load_dataset(args.dataset)
    controller = None
    if args.model_file:
        controller, _ = load_model(args.model_file)
    spec = RunSpec(
        method=args.method,
        k=args.k,
        seeds=tuple(range(args.seeds)),
        keep_fraction=args.keep_fraction,
        weighted=args.weighted,
        exclude_min=args.exclude_min,
        exclude_max=args.exclude_max,
        gen_cfg=_gen_cfg(args),
    )
    row = run_benchmark(problems, spec, backend=None, controller=controller,
                        dataset_name=Path(args.dataset).stem,
                        backend_factory=_make_backend_factory(args))
    out_format = "json" if args.out and args.out.endswith(".json") else "csv"
    blob = emit_report([row], format=out_format)
    if args.out:
        Path(args.out).write_bytes(blob)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(blob.decode("utf-8"))
    return 0


def _cmd_report(args) -> int:
    rows = load_report(Path(args.infile).read_bytes())
    sys.stdout.write(emit_report(rows, format=args.format).decode("utf-8"))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="refinectl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="sequential refinement over a problem file")
    _add_backend_args(p_run)
    _add_gen_args(p_run)
    p_run.add_argument("--problem-file", required=True)
    p_run.add_argument("--model-file", required=True)
    p_run.add_argument("--max-iters", type=int, default=20)
    p_run.add_argument("--two-phase", action="store_true",
                       help="neutral prompt at iteration 0, aggressive afterwards (mcq)")
    p_run.add_argument("--log", help="write per-iteration JSONL log here")
    p_run.set_defaults(func=_cmd_run)

    p_tree = sub.add_parser("tree", help="tree-structured refinement")
    _add_backend_args(p_tree)
    _add_gen_args(p_tree)
    p_tree.add_argument("--problem-file", required=True)
    p_tree.add_argument("--model-file", required=True)
    p_tree.add_argument("--warmup", type=int, default=4)
    p_tree.add_argument("--branch", type=int, default=2)
    p_tree.add_argument("--depth", type=int, default=3)
    p_tree.add_argument("--vote", choices=("majority", "confidence_weighted",
                                           "high_confidence_majority"), default="majority")
    p_tree.add_argument("--two-phase", action="store_true")
    p_tree.add_argument("--dump", help="write tree JSONL dump here")
    p_tree.set_defaults(func=_cmd_tree)

    p_bench = sub.add_parser("bench", help="run a baseline or refinement benchmark")
    _add_backend_args(p_bench)
    _add_gen_args(p_bench)
    p_bench.add_argument("--dataset", required=True)
    p_bench.add_argument("--method", choices=bench_mod.METHODS, required=True)
    p_bench.add_argument("--k", type=int, default=1)
    p_bench.add_argument("--seeds", type=int, default=5)
    p_bench.add_argument("--keep-fraction", type=float, default=1.0)
    p_bench.add_argument("--weighted", action="store_true")
    p_bench.add_argument("--exclude-min", type=float, default=None)
    p_bench.add_argument("--exclude-max", type=float, default=None)
    p_bench.add_argument("--model-file", help="controller (required for refinement methods)")
    p_bench.add_argument("--out", help="write the report here (.csv or .json)")
    p_bench.set_defaults(func=_cmd_bench)

    p_report = sub.add_parser("report", help="re-render a JSON report")
    p_report.add_argument("--in", dest="infile", required=True)
    p_report.add_argument("--format", choices=("csv", "json", "markdown"), default="markdown")
    p_report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    if args.command == "bench" and args.method in bench_mod.CONTROLLED and not args.model_file:
        p_bench.error(f"--method {args.method} needs --model-file")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
