"""Host-speed reference: fixed work timed beside the scenario runs.

The benchmark runs on a few cores of a shared host, whose execution speed
changes by up to a factor of two in phases of seconds to minutes (CPU time
tracks wall time, so it is the speed of execution that changes, not the
scheduling).  File-system calls change speed too, and independently of
the processor.  To keep that out of the end-to-end metrics, the benchmark
times ``reference_s`` right after every scenario run, outside the timed
call, and scales each run time by ``REF_MS`` over the reference times
measured around that run.  The reported times are therefore those of a
host on which the workload's reference takes ``REF_MS`` milliseconds.

The reference belongs to the benchmark and does not touch the program, so
a change to the program moves the scaled times and not the reference.  It
mixes what a scenario run does in Python: a shortest-path search over dicts
and a heap, and rendering and parsing JSON and CSV text.  It runs with the
garbage collector off, so that a program that leaves a large heap behind
does not slow the reference and hide its own cost.  For a workload whose
runs write report files, the reference also writes files of the number
and sizes a CLI run writes, and deletes them untimed.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import shutil
import statistics
from pathlib import Path
from time import perf_counter

# Reference time, in milliseconds, of the host the scaled times stand for:
# the fast phase of a 2-vCPU Xeon on a shared host, Python 3.11, ext4.
REF_MS = {"compute": 5.0, "files": 7.5}
# Reference samples on each side of a run that set its local host speed.
WINDOW = 10

_rng = random.Random(20261017)
_NODES = 300
_GRAPH = {u: [(_rng.randrange(_NODES), _rng.random()) for _ in range(6)] for u in range(_NODES)}
_DOC = {
    "networks": [
        {"id": f"net{i}", "links": [{"a": j, "b": j + 1, "cost": j * 1.5 + i} for j in range(30)]} for i in range(10)
    ]
}
# What `simulate run --traces` writes for a ten-auction scenario: relative path -> bytes.
_FILES = {
    "report.json": 8845,
    "ledger.csv": 95,
    "series.csv": 241,
    **{f"traces/trace_{i:04d}_VC1.log": 539 for i in range(10)},
}


def _shortest_paths() -> float:
    total = 0.0
    for src in range(0, _NODES, 60):
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _GRAPH[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


def _render_text() -> int:
    text = json.dumps(_DOC, sort_keys=True, indent=1)
    doc = json.loads(text)
    rows = [f"{n['id']},{link['a']},{link['b']},{link['cost']:.6f}" for n in doc["networks"] for link in n["links"]]
    return len(text) + len("\n".join(rows))


def _write_files(out_dir: Path) -> None:
    for rel, size in _FILES.items():
        path = out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("x" * size, encoding="utf-8")


def reference_s(files_dir: Path | None = None) -> float:
    """Seconds one round of the fixed reference work takes now.

    With ``files_dir``, the round also writes a CLI run's files under it;
    they are deleted after the timing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _shortest_paths()
        _render_text()
        if files_dir is not None:
            _write_files(files_dir)
        return perf_counter() - start
    finally:
        if files_dir is not None:
            shutil.rmtree(files_dir, ignore_errors=True)
        if enabled:
            gc.enable()


def scales(refs: list[float], ref_ms: float) -> list[float]:
    """Per-sample factor ref_ms / (median reference time within WINDOW samples either side)."""
    ref_s = ref_ms / 1000.0
    return [ref_s / statistics.median(refs[max(0, i - WINDOW) : i + WINDOW + 1]) for i in range(len(refs))]
