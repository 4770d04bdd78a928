"""Golden digests: every output byte of the shipped scenarios is pinned.

Each case runs ``simulate run`` into a temporary directory and compares
the sha256 of every file it writes with ``tests/golden/digests.json``.  A
missing, extra or changed file fails the test.  After an intended change
of behaviour, regenerate the goldens and say why in the change log:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import scenario_path  # noqa: E402
from wavebroker.cli import load_scenario, main  # noqa: E402
from wavebroker.market import run_scenario  # noqa: E402
from wavebroker.protocol import Offp, format_event  # noqa: E402

GOLDEN = HERE / "golden" / "digests.json"
SHIPPED = ("duel", "three_channels", "two_route_costcurve")
SWEEP_RUNS = 20

CASES = {f"run/{name}": [scenario_path(name), "--traces"] for name in SHIPPED}
CASES.update({f"sweep{SWEEP_RUNS}/{name}": [scenario_path(name), "--sweep", str(SWEEP_RUNS)] for name in ("duel", "three_channels")})
# Six suppliers with small steps: rounds with several cutters and ties among them.
CASES["run/six_way_race"] = [str(HERE / "golden" / "six_way_race.json"), "--traces"]


def digests(case: str, out: Path, *extra: str) -> dict[str, str]:
    """sha256 of every file one case writes, with ``extra`` options, keyed by its path under ``out``."""
    assert main(["run", CASES[case][0], "--out", str(out), *CASES[case][1:], *extra]) == 0
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    got = digests(case, tmp_path / "out")
    assert sorted(got) == sorted(want), f"{case}: written files differ from the golden list"
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"{case}: bytes changed in {changed}"


def test_six_way_race_has_rounds_with_tied_cutters():
    """The six-way golden reaches the random pick among cutters tied at the round minimum."""
    report = run_scenario(load_scenario(CASES["run/six_way_race"][0]))
    tied_rounds = 0
    for trace in report.traces:
        bids: dict[int, list[int]] = {}
        for ev in trace.events:
            if ev.round > 1 and isinstance(ev.message, Offp):
                bids.setdefault(ev.round, []).append(ev.message.p)
        tied_rounds += sum(1 for prices in bids.values() if prices.count(min(prices)) >= 2)
    assert tied_rounds > 0


def test_six_way_race_lines_come_from_the_log_unchanged():
    """Settled traces with tied cutters: lines from the log equal the formatted events, and keep the log."""
    report = run_scenario(load_scenario(CASES["run/six_way_race"][0]))
    for trace in report.traces:
        unread = pickle.dumps(trace)
        lines = trace.lines()
        assert pickle.dumps(trace) == unread
        assert lines == [format_event(ev) for ev in trace.events]


def test_parallel_sweep_writes_the_serial_golden(tmp_path):
    """Runs that come back from sweep workers are written byte for byte as serial ones."""
    case = f"sweep{SWEEP_RUNS}/duel"
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert digests(case, tmp_path / "out", "--workers", "2") == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        goldens = {case: digests(case, Path(tmp) / case) for case in sorted(CASES)}
    GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, goldens.values()))} digests for {len(goldens)} cases to {GOLDEN}")
