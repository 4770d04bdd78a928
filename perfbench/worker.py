"""One benchmark process: set up a workload, then time or trace its scenario runs.

``run.py`` starts this in a fresh interpreter per set-up measurement, per
timed run and per traced run:

    python3 perfbench/worker.py {setup|measure|trace} WORKLOAD SEED SECONDS WORK_DIR

It imports ``wavebroker`` from the checkout's ``src/``, writes scratch files
only under WORK_DIR, and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

# p90 needs at least ten samples beyond it.
MIN_RUNS = 100
# A measured loop stops here even below MIN_RUNS, to end within the time limit.
MAX_LOOP_S = 120.0
# Traced runs use a fixed count, so that every work count repeats exactly.
TRACE_RUNS = {"shipped": 96, "stress": 32, "auction": 64}
# Reference samples taken before and after a set-up, to scale its time.
SETUP_REFS = 7


class Workload:
    """Set-up state of one workload, and its scenario run."""

    def __init__(self, name: str, seed: int, work_dir: Path, tracer=None):
        self.name, self.seed, self.work_dir = name, seed, work_dir
        # CLI runs write report files, so their reference writes files too.
        self.ref_dir = work_dir / "hostspeed" if name == "shipped" else None
        self.ref_ms = hostspeed.REF_MS["files" if self.ref_dir else "compute"]
        refs = [self.reference() for _ in range(SETUP_REFS)]
        start = time.perf_counter()
        sys.path.insert(0, str(REPO / "src"))
        import wavebroker
        from wavebroker import cli, market

        if not Path(wavebroker.__file__).resolve().is_relative_to(REPO / "src"):
            raise RuntimeError(f"wavebroker imported from {wavebroker.__file__}, not from {REPO / 'src'}")
        import checks

        self.checks = checks
        self.tracer = tracer
        self.runs_started = 0
        self.cli, self.market = cli, market
        self.kernel_backend = getattr(wavebroker, "kernel_backend", "absent")
        self.checker = checks.RunChecker()
        self.captured: list = []
        if name == "shipped":
            # The checks need the Report behind the files a CLI run writes.
            run_scenario = cli.run_scenario

            def capture(*args, **kwargs):
                report = run_scenario(*args, **kwargs)
                self.captured.append(report)
                return report

            cli.run_scenario = capture
        if tracer is not None:
            tracer.install()
        self.paths = workloads.scenario_files(name, seed, REPO, work_dir)
        # Generated scenarios go through the same loader as user files, so a
        # generator bug fails here, before anything is timed.
        self.configs = [cli.load_scenario(p) for p in self.paths]
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        for j in range(len(self.paths)):
            self.run(j)
        self.wall_setup_s = time.perf_counter() - start
        refs += [self.reference() for _ in range(SETUP_REFS)]
        self.setup_s = self.wall_setup_s * self.ref_ms / 1000.0 / statistics.median(refs)

    def reference(self) -> float:
        """Seconds the workload's host-speed reference takes now."""
        return hostspeed.reference_s(self.ref_dir)

    def run(self, index: int) -> tuple[float, bool]:
        """Scenario run ``index``: time the call, then check it untimed.  Returns (seconds, passed)."""
        self.runs_started += 1
        if self.tracer is not None:
            self.tracer.run_id = self.runs_started
        j, run_seed, key = workloads.run_plan(self.name, self.seed, len(self.paths), index)
        report = outputs = None
        problems: list[str] = []
        out_dir = self.work_dir / f"run{index}"
        start = time.perf_counter()
        try:
            if self.name == "shipped":
                self.captured.clear()
                rc = self.cli.main(
                    ["run", str(self.paths[j]), "--seed", str(run_seed), "--out", str(out_dir), "--traces"]
                )
            else:
                report = self.market.run_scenario(self.configs[j], seed_override=run_seed)
        except Exception as exc:  # a raising run is a failed run, not a crashed benchmark
            problems.append(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start

        if not problems:
            try:
                if self.name == "shipped":
                    if rc != 0:
                        problems.append(f"simulate run exited {rc}")
                    elif len(self.captured) != 1:
                        problems.append(f"expected one scenario report, captured {len(self.captured)}")
                    else:
                        report, outputs = self.captured[0], self.checks.written_outputs(out_dir)
                else:
                    outputs = self.checks.rendered_outputs(report)
                if outputs is not None:
                    problems += self.checker.check(key, report, outputs)
            except Exception as exc:
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        shutil.rmtree(out_dir, ignore_errors=True)

        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"run {index} ({self.paths[j].name}, seed {run_seed}): {p}" for p in problems[:3]]
        return elapsed, not problems

    def loop(self, seconds: float) -> list[tuple[float, bool, float]]:
        """Closed loop of at least MIN_RUNS runs and ``seconds``.

        Returns (seconds, passed, reference seconds) per run; the host-speed
        reference is timed right after the run and its checks.
        """
        runs = []
        loop_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - loop_start
            if elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(runs) >= MIN_RUNS):
                break
            dt, ok = self.run(len(runs))
            runs.append((dt, ok, self.reference()))
        return runs

    def result(self, **extra) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "setup_s": self.setup_s,
            "wall_setup_s": self.wall_setup_s,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:10],
            "digest": self.checker.workload_digest(),
            "key_digests": self.checker.key_digests(),
            "kernel_backend": self.kernel_backend,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **extra,
        }


def measure(name: str, seed: int, seconds: float, work_dir: Path) -> dict:
    w = Workload(name, seed, work_dir)
    runs = w.loop(seconds)
    factors = hostspeed.scales([ref for _, _, ref in runs], w.ref_ms)
    scaled = [(dt * f, ok) for (dt, ok, _), f in zip(runs, factors)]
    wall = [(dt, ok) for dt, ok, _ in runs]

    def summary(timed: list[tuple[float, bool]]) -> dict:
        ms = sorted(dt * 1000.0 for dt, ok in timed if ok)
        total = sum(dt for dt, _ in timed)
        return {
            "runs_per_s": len(ms) / total if total else 0.0,
            "run_ms_p50": statistics.median(ms) if ms else 0.0,
            "run_ms_p90": statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else 0.0,
        }

    return w.result(
        runs=len(runs),
        ref_ms=w.ref_ms,
        ref_ms_p50=statistics.median(ref for _, _, ref in runs) * 1000.0,
        wall=summary(wall),
        **summary(scaled),
    )


def trace(name: str, seed: int, work_dir: Path) -> dict:
    from layers import Tracer

    tracer = Tracer()
    tracer.calibrate()
    w = Workload(name, seed, work_dir, tracer=tracer)
    tracer.uninstall()
    count = TRACE_RUNS[name]
    # Each run of the plan goes once untraced and once traced, one right
    # after the other and in alternating order, so both sides see the same
    # host speed and neither always runs second.
    untraced, traced = [], []
    for index in range(count):
        for tracing in (False, True) if index % 2 == 0 else (True, False):
            if tracing:
                tracer.install()
            dt, _ = w.run(index)
            if tracing:
                tracer.uninstall()
                traced.append(dt)
            else:
                untraced.append(dt)
    spans_path = work_dir.parent / f"spans-{name}-{seed}.tsv"
    n_spans = tracer.write_spans(spans_path)
    metrics = tracer.metrics()
    # The median over pairs, because a pair that a host hiccup hit would
    # move a ratio of sums.
    metrics["trace.overhead_ratio"] = statistics.median(t / u for t, u in zip(traced, untraced))
    metrics["trace.span_cost_us"] = (tracer.inner_cost + tracer.outer_cost) * 1e6
    metrics["trace.spans"] = n_spans
    metrics["trace.absent_layers"] = len(tracer.absent_layers)
    return w.result(
        traced_runs=count,
        untraced_s=sum(untraced),
        traced_s=sum(traced),
        spans_file=str(spans_path.relative_to(REPO)),
        absent_layers=tracer.absent_layers,
        missing_bindings=tracer.missing,
        layer_metrics=metrics,
    )


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, work_dir = argv[0], argv[1], int(argv[2]), float(argv[3]), Path(argv[4])
    work_dir.mkdir(parents=True, exist_ok=True)
    real_stdout = sys.stdout
    # simulate run prints a line per call; keep it off the result channel.
    with open(os.devnull, "w") as devnull:
        sys.stdout = devnull
        try:
            if mode == "setup":
                result = Workload(name, seed, work_dir).result()
            elif mode == "measure":
                result = measure(name, seed, seconds, work_dir)
            else:
                result = trace(name, seed, work_dir)
        finally:
            sys.stdout = real_stdout
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
