"""Mutation fuzz of a shipped scenario file through the CLI.

Every value of ``scenarios/duel.json`` (the schedule is cut to its first
request, the rest repeat it) is replaced in turn by each entry of a fixed
pool of hostile JSON literals (the channel label together with the
schedule's reference to it), and every object key is deleted in turn.
Whatever the file then says, ``simulate run --traces`` must return 0, 2, 3
or 4 with no traceback, and write nothing outside ``--out``.  Every run
that returns 0 is checked by the benchmark's own checks
(``perfbench/checks.py``): the report behind its files passes
``validate_allocation`` on every final state and ``validate_trace`` on
every trace, and each network's ledger cost equals its allocation's
``total_cost``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from wavebroker import cli
from wavebroker.cli import main

from conftest import perfbench_module, scenario_path

# Raw JSON text, so that literals json.dumps cannot write (NaN is allowed by
# it, but not integers over 4300 digits) still reach the decoder.
POOL = (
    '"a,b/../../escaped"',
    '"x/../../../escaped"',
    '".."',
    '""',
    '"x/y"',
    "1" + "0" * 400,
    "1" + "0" * 308,
    "1e308",
    "7" * 5000,
    "9" * 30,
    "-1",
    "-" + "9" * 30,
    "0",
    "NaN",
    "2.5",
    "true",
    "null",
    "[]",
    "{}",
)

SENTINEL = "\x00fuzz"


def _base() -> dict:
    doc = json.loads(Path(scenario_path("duel")).read_text(encoding="utf-8"))
    doc["schedule"] = doc["schedule"][:1]
    return doc


def _paths(node, prefix=()):
    """Path of every value below ``node``, as tuples of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutants():
    for path in _paths(_base()):
        for literal in POOL:
            doc = _base()
            _at(doc, path)[path[-1]] = SENTINEL
            if path == ("virtual_channels", 0, "label"):  # rename the channel where it is scheduled too
                doc["schedule"][0]["vc"] = SENTINEL
            yield f"{'/'.join(map(str, path))}={literal[:12]}", json.dumps(doc).replace(json.dumps(SENTINEL), literal)
        if isinstance(path[-1], str):
            doc = _base()
            del _at(doc, path)[path[-1]]
            yield f"{'/'.join(map(str, path))}:deleted", json.dumps(doc)


MUTANTS = dict(_mutants())

# Of the 902 mutants, 45 run to the end and return 0; a floor on them keeps
# the checks on their reports from going vacuous.
MIN_CLEAN_RUNS = 45


def test_mutated_scenarios_exit_cleanly_inside_out(tmp_path, capsys, monkeypatch):
    root = tmp_path / "a" / "b" / "c"
    scenario = root / "in" / "scenario.json"
    scenario.parent.mkdir(parents=True)
    monkeypatch.chdir(root)
    out = root / "out"
    report_violations = perfbench_module("checks").report_violations
    # the Report behind each run's files
    reports = []
    run_scenario = cli.run_scenario

    def capture(*args, **kwargs):
        reports.append(run_scenario(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "run_scenario", capture)
    seen_codes = set()
    clean_runs = 0
    for name, text in MUTANTS.items():
        scenario.write_text(text, encoding="utf-8")
        reports.clear()
        try:
            code = main(["run", str(scenario), "--out", str(out), "--traces"])
        except Exception as exc:  # a traceback in the CLI
            pytest.fail(f"{name}: {type(exc).__name__}: {exc}")
        assert code in {0, 2, 3, 4}, name
        seen_codes.add(code)
        if code == 0:
            assert len(reports) == 1, name
            assert report_violations(reports[0]) == [], name
            clean_runs += 1
        stray = [p for p in tmp_path.rglob("*") if p.is_file() and p != scenario and out not in p.parents]
        assert not stray, f"{name}: wrote {stray}"
        assert "Traceback" not in capsys.readouterr().err, name
    assert {0, 2, 3} <= seen_codes
    assert clean_runs >= MIN_CLEAN_RUNS, f"only {clean_runs} of {len(MUTANTS)} mutants ran to the end"
