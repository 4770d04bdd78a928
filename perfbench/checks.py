"""Correctness checks applied to every scenario run, and the per-workload output digest.

A run fails when it raises, when ``validate_allocation`` reports a
violation on any final state, when ``validate_trace`` reports one on any
trace, when a network's ledger cost differs from its allocation's
``total_cost``, or when a repeat of the same (scenario, seed) gives
different output bytes than its first run.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from wavebroker import cli, validate_allocation, validate_trace


def report_violations(report) -> list[str]:
    """Invariant violations of one scenario report; empty means it passed."""
    problems = []
    for nid in report.network_ids:
        net, state = report.networks[nid], report.final_states[nid]
        problems += [f"{nid}: {v}" for v in validate_allocation(net, state)]
        ledger_cost = report.ledger.totals(nid).cost
        state_cost = state.total_cost(net)
        if ledger_cost != state_cost:
            problems.append(f"{nid}: ledger cost {ledger_cost} != allocation total_cost {state_cost}")
    for i, trace in enumerate(report.traces):
        problems += [f"trace {i}: {v}" for v in validate_trace(trace)]
    return problems


def rendered_outputs(report) -> dict[str, bytes]:
    """The bytes ``simulate run --traces`` would write for this report, by file name."""
    out = {
        "ledger.csv": cli.ledger_csv(report).encode(),
        "series.csv": cli.series_csv(report).encode(),
        "report.json": cli.report_json(report).encode(),
    }
    for i, trace in enumerate(report.traces):
        out[f"traces/trace_{i:04d}_{report.records[i].vc}.log"] = ("\n".join(trace.lines()) + "\n").encode()
    return out


def written_outputs(out_dir: Path) -> dict[str, bytes]:
    """Every file a CLI run wrote under ``out_dir``, by relative path."""
    return {p.relative_to(out_dir).as_posix(): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


def outputs_digest(outputs: dict[str, bytes]) -> bytes:
    h = hashlib.sha256()
    for name in sorted(outputs):
        data = outputs[name]
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.digest()


class RunChecker:
    """Checks runs and remembers the output digest of each (scenario, seed) key."""

    def __init__(self):
        self.first: dict[tuple, bytes] = {}

    def check(self, key: tuple, report, outputs: dict[str, bytes]) -> list[str]:
        problems = report_violations(report)
        digest = outputs_digest(outputs)
        if self.first.setdefault(key, digest) != digest:
            problems.append(f"run {key}: output bytes differ from the first run of the same seed")
        return problems

    def key_digests(self) -> dict[str, str]:
        """Output digest of each (scenario, seed) key this process ran."""
        return {repr(key): digest.hex() for key, digest in self.first.items()}

    def workload_digest(self) -> str:
        """sha256 over the outputs of every distinct (scenario, seed), in key order.

        Every repeat is checked equal to the first run of its key, so this
        covers the bytes of every run while not depending on how many runs
        fit into the measured time.
        """
        h = hashlib.sha256()
        for key in sorted(self.first):
            h.update(repr(key).encode())
            h.update(self.first[key])
        return h.hexdigest()
