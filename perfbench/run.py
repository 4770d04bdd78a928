#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the wavebroker simulator.

    python3 perfbench/run.py --workload {shipped,stress,auction} --seed N --seconds S --trace {0,1}

Run from anywhere; it works on the checkout it lives in and imports the
package from that checkout's ``src/`` with whatever placement kernel is
active.  Each workload is a closed loop with one caller in one process:
a scenario run starts when the previous one has returned.  Every run is
checked (see ``checks.py``) after its timed call.

``--trace 0`` starts SETUP_PROBES fresh interpreters that only set up, then
one that sets up and runs the closed loop for ``--seconds`` (at least 100
runs).  It prints the end-to-end metrics: runs_per_s, run_ms_p50,
run_ms_p90, setup_s (median over all set-ups), peak_rss_mib and, outside
the bounded metrics because it is 0 when all is well, failed_ratio.
Times are scaled to a fixed host speed with a reference timed beside every
run (see ``hostspeed.py``); the unscaled figures are printed as well.

``--trace 1`` starts one interpreter that runs each of a fixed number of
runs twice, untraced and with every layer binding wrapped (see
``layers.py``), and prints the per-layer metrics and the tracing overhead.
Spans are written to ``.perfbench_out/spans-<workload>-<seed>.tsv``.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

from layers import unit  # noqa: E402
from workloads import AUCTION_PARAMS, SHIPPED_SCENARIOS, STRESS_PARAMS, WORKLOADS  # noqa: E402

# Fresh interpreters that only set up; the measured one adds one more set-up.
SETUP_PROBES = 2
# Everything, children included, ends within this many seconds.
DEADLINE_S = 175.0

END_TO_END = {
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def child(mode: str, args, work_dir: Path, started: float) -> dict:
    """Run one worker interpreter to completion; its last stdout line is its result."""
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 1:
        raise TimeoutError("no time left for another benchmark process")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed), str(args.seconds), str(work_dir)],
        cwd=REPO,
        stdout=subprocess.PIPE,
        text=True,
        timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    if not (REPO / "src" / "wavebroker" / "__init__.py").is_file():
        print(f"error: no wavebroker package under {REPO / 'src'}", file=sys.stderr)
        return 2
    out_root = REPO / ".perfbench_out"
    work_dir = out_root / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        if args.trace:
            results = [child("trace", args, work_dir, started)]
        else:
            results = [child("setup", args, work_dir, started) for _ in range(SETUP_PROBES)]
            results.append(child("measure", args, work_dir, started))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    main_result = results[-1]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    first_digest: dict[str, str] = {}
    for r in results:
        for problem in r["problems"]:
            print(f"FAILED {problem}")
        for key, digest in r["key_digests"].items():
            if first_digest.setdefault(key, digest) != digest:
                failed += 1
                print(f"FAILED run {key}: output bytes differ between processes")

    params = {"shipped": {"scenarios": list(SHIPPED_SCENARIOS)}, "stress": STRESS_PARAMS, "auction": AUCTION_PARAMS}
    print(f"workload {args.workload}  seed {args.seed}  params {json.dumps(params[args.workload], sort_keys=True)}")
    print(
        f"kernel_backend {main_result['kernel_backend']}  python {main_result['python']}  "
        f"nproc {main_result['nproc']}  loop closed, 1 caller"
    )
    print(f"output digest sha256:{main_result['digest']}")
    print(f"failed_ratio {failed / attempted if attempted else 1.0:.6g} ratio  ({failed} of {attempted} runs)")

    if args.trace:
        metrics = {m: {"value": v, "unit": unit(m)} for m, v in main_result["layer_metrics"].items()}
        print(
            f"traced {main_result['traced_runs']} runs: {main_result['traced_s']:.3f} s traced vs "
            f"{main_result['untraced_s']:.3f} s untraced (median per-run overhead x{metrics['trace.overhead_ratio']['value']:.3f}), "
            f"peak RSS {main_result['peak_rss_mib']:.1f} MiB"
        )
        print(f"spans written to {main_result['spans_file']}")
        if main_result["absent_layers"]:
            print(f"absent layers: {', '.join(main_result['absent_layers'])}")
        if main_result["missing_bindings"]:
            print(f"bindings not found (counted as 0): {', '.join(main_result['missing_bindings'])}")
    else:
        values = dict(main_result)
        values["setup_s"] = statistics.median(r["setup_s"] for r in results)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}
        print(f"timed runs {main_result['runs']}; set-ups {[round(r['setup_s'], 4) for r in results]} s scaled")
        wall = main_result["wall"]
        print(
            f"host-speed reference p50 {main_result['ref_ms_p50']:.4g} ms (scaled to {main_result['ref_ms']} ms); unscaled: "
            f"runs_per_s {wall['runs_per_s']:.6g} 1/s, run_ms_p50 {wall['run_ms_p50']:.6g} ms, "
            f"run_ms_p90 {wall['run_ms_p90']:.6g} ms, "
            f"setup_s {statistics.median(r['wall_setup_s'] for r in results):.6g} s"
        )
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
