"""refinectl benchmark: one command for every workload.

    python3 perfbench/run.py --workload tree_http --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports refinectl from
``src/`` next to this directory and never from an installed copy.

``--trace 0`` times sweeps of the workload untraced and prints the end-to-end
metrics. ``--trace 1`` times half the budget untraced and half with spans
around every public layer function (see tracing.py), then prints the
per-layer metrics and ``trace.overhead_pct``, the traced sweeps' median wall
time over the untraced one's. Either way the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it describes the machine. The full record also
goes to ``.bench_results/``. Any failed correctness check prints the reason
on standard error and exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up runs at least SETUP_MIN times and, while it is cheap, until it has
# taken SETUP_SECONDS (at most SETUP_MAX times); setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 50, 1.0


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


if not (SRC / "refinectl" / "__init__.py").is_file():
    fail(f"no refinectl sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))
# One BLAS thread unless the caller chose otherwise: on a small machine a
# second BLAS thread only competes with the client's other thread and the stub
# server, and makes timings noisier. The count in use is recorded per result.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS, CheckFailed, Sweep  # noqa: E402

# End-to-end metrics, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "steps_per_s": "1/s",
    "cpu_ms_per_step": "ms",
    "accuracy_pct": "%",
    "peak_rss_mb": "MB",
}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except OSError:
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def source_digest() -> str:
    """sha256 over the refinectl sources, which names the code when no commit does."""
    h = hashlib.sha256()
    for path in sorted((SRC / "refinectl").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args: argparse.Namespace) -> dict:
    cpu_model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "commit": commit(),
        "src_sha256": source_digest(), "cpu_model": cpu_model,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": blas_threads(),
    }


def timed_sweeps(workload, seconds: float) -> list[Sweep]:
    """Sweeps until ``seconds`` have passed; at least two."""
    sweeps: list[Sweep] = []
    started = time.perf_counter()
    while len(sweeps) < 2 or time.perf_counter() - started < seconds:
        sweeps.append(workload.sweep())
    return sweeps


def end_to_end(setup_times: list[float], sweeps: list[Sweep]) -> dict:
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": statistics.median(s.items / s.wall for s in sweeps),
        "steps_per_s": statistics.median(s.steps / s.wall for s in sweeps),
        "cpu_ms_per_step": statistics.median(s.cpu * 1e3 / s.steps for s in sweeps),
        "accuracy_pct": statistics.median(s.accuracy for s in sweeps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="refinectl benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="input size; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)

    env = environment(args)
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size])
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer) if args.trace else None
    setup_times: list[float] = []
    try:
        while len(setup_times) < SETUP_MIN or (
                sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX):
            if setup_times:
                workload.teardown()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_spans = list(tracer.spans)
        if uninstall is None:
            uninstall = tracing.install(tracer)
        # the first sweep warms caches and is checked through its spans
        del tracer.spans[:]
        workload.sweep()
        workload.check_trace(tracer.spans)
        uninstall()
        del tracer.spans[:]

        budget = args.seconds / 2 if args.trace else args.seconds
        sweeps = timed_sweeps(workload, budget)
        if args.trace:
            uninstall = tracing.install(tracer)
            traced = timed_sweeps(workload, budget)
            uninstall()
    except CheckFailed as exc:
        fail(f"check failed: {exc}", code=1)
    finally:
        workload.teardown()

    measured = list(sweeps)
    if args.trace:
        layers = tracing.layer_metrics(
            setup_spans + tracer.spans, problems=sum(s.items for s in traced),
            wall=sum(s.wall for s in traced), max_inflight=workload.max_inflight)
        untraced_wall = statistics.median(s.wall for s in sweeps)
        traced_wall = statistics.median(s.wall for s in traced)
        layers["trace.overhead_pct"] = ((traced_wall / untraced_wall - 1) * 100, "%")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        measured += traced
    else:
        metrics = end_to_end(setup_times, sweeps)
    result = {
        "correct": True,
        "attempted": sum(s.items + s.steps for s in measured),
        "failed": sum(s.failed for s in measured),
        "metrics": metrics,
    }
    if result["failed"]:
        result["correct"] = False
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    record = {"environment": env, "result": result,
              "setup_s": setup_times, "sweeps": [vars(s) for s in measured]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
