"""Run one workload on several seeds and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workload seq_mock --seeds 1-10 --seconds 30

For every metric it prints the median of the runs and the distance between
their first and third quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json. Run it from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    ap.add_argument("--seconds", default=None,
                    help="run length; defaults to run_seconds in BENCHMARK.json")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(x) for x in args.seeds.split("-"))
    seconds = args.seconds or str(spec["run_seconds"])

    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
             str(seed), "--seconds", seconds, "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed} failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        print(seed, {k: round(v["value"], 4) for k, v in metrics.items()}, flush=True)
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])

    for m in spec["end_to_end"]:
        v = values[m["name"]]
        median = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [median] * 3
        print(f"{m['name']:16s} median {median:12.4f}  spread {(q[2] - q[0]) / median:.3f}"
              f"  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
