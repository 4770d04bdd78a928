#!/usr/bin/env python3
"""Run the end-to-end benchmark once per seed and report each metric's median and quartile spread.

    python3 perfbench/spread.py --workload stress --seconds 25 --seeds 1 2 3 4 5

The spread is (Q3 - Q1) / median over the seeds, with the quartiles of
``statistics.quantiles(values, n=4)``.  Compare it with each end-to-end
metric's ``bound`` in BENCHMARK.json before trusting a difference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        digest = next((line for line in proc.stdout.splitlines() if line.startswith("output digest")), "")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {digest}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": vals}
        print(f"{name:40s} median {med:12.6g}  spread {summary[name]['spread']:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
