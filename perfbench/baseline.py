"""Run the benchmark several times per workload and summarize the spread.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                  [--seconds 10] [--output perfbench/baseline.json]

Each run uses another seed (first-seed, first-seed+1, ...), untraced.  For
every end-to-end metric the summary holds the values, their median, the
quartiles from ``statistics.quantiles(values, n=4)``, and the spread: the
distance between the quartiles as a share of the median, which is what a
metric's bound in BENCHMARK.json is compared with.  The same summary of the
measured times behind the reference seconds (run metadata) goes under
``measured``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        default=None, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"runs": args.runs, "first_seed": args.first_seed,
               "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        measured: dict[str, list[float]] = {}
        meta = None
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=900,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            meta = json.loads(lines[-2].removeprefix("meta "))
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {meta['problems']}", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in meta["measured"].items():
                measured.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {values[name][-1]:.4g}" for name in bounds), flush=True)
        stats = {name: summarize(v) for name, v in values.items()}
        raw = {name: summarize(v) for name, v in measured.items()}
        summary["workloads"][workload] = {"metrics": stats, "measured": raw, "meta": meta}
        for name, s in stats.items():
            print(f"  {workload:16s} {name:14s} median {s['median']:.5g}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}", flush=True)
        for name, s in raw.items():
            print(f"  {workload:16s} measured {name:8s} median {s['median']:.5g}  "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.output:
        args.output.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
