"""Mutation fuzz of a shipped scenario file through the CLI.

Every value of ``scenarios/duel.json`` (the schedule is cut to its first
request, the rest repeat it) is replaced in turn by each entry of a fixed
pool of hostile JSON literals (the channel label together with the
schedule's reference to it), and every object key is deleted in turn.
Whatever the file then says, ``simulate run --traces`` must return 0, 2, 3
or 4 with no traceback, and write nothing outside ``--out``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from wavebroker.cli import main

from conftest import scenario_path

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


def test_mutated_scenarios_exit_cleanly_inside_out(tmp_path, capsys, monkeypatch):
    root = tmp_path / "a" / "b" / "c"
    scenario = root / "in" / "scenario.json"
    scenario.parent.mkdir(parents=True)
    monkeypatch.chdir(root)
    out = root / "out"
    seen_codes = set()
    for name, text in MUTANTS.items():
        scenario.write_text(text, encoding="utf-8")
        try:
            code = main(["run", str(scenario), "--out", str(out), "--traces"])
        except Exception as exc:  # a traceback in the CLI
            pytest.fail(f"{name}: {type(exc).__name__}: {exc}")
        assert code in {0, 2, 3, 4}, name
        seen_codes.add(code)
        stray = [p for p in tmp_path.rglob("*") if p.is_file() and p != scenario and out not in p.parents]
        assert not stray, f"{name}: wrote {stray}"
        assert "Traceback" not in capsys.readouterr().err, name
    assert {0, 2, 3} <= seen_codes
