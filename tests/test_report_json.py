"""``report_json`` writes what ``json.dumps(doc, sort_keys=True, indent=2)`` writes for the report's document.

``reference_doc`` builds that document of dicts and lists, as the writer
did before it wrote each record from its fields.  These tests compare the
two byte for byte on shipped, generated and fuzzed reports, and compare
``series_csv`` with the CSV written from the document's series rows.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import benchmark_config, random_scenario, scenario_path
from wavebroker.cli import load_scenario, report_json, series_csv
from wavebroker.market import AuctionRecord, ProfitLedger, Report, profit_percentages, run_scenario
from wavebroker.protocol import Termination
from wavebroker.rwa import dump_allocation

SIX_WAY = str(Path(__file__).resolve().parent / "golden" / "six_way_race.json")


def reference_doc(report: Report) -> dict:
    def ledger_doc(e):
        return {"revenue": e.revenue, "cost": e.cost, "profit": e.profit, "wavelengths_sold": e.wavelengths_sold}

    networks = {}
    for nid in report.network_ids:
        networks[nid] = {
            "totals": ledger_doc(report.ledger.totals(nid)),
            "profit_percentages": profit_percentages(report.ledger, nid),
            "per_channel": {vc: ledger_doc(entry) for vc, entry in report.ledger.entries[nid].items()},
            "allocation": dump_allocation(report.networks[nid], report.final_states[nid]),
        }
    series = [
        {
            "round": rec.request_round,
            "vc": rec.vc,
            "requested": rec.demand,
            "winner": rec.winner if rec.granted > 0 else None,
            "final_price": rec.final_price,
            "allocated": rec.granted,
        }
        for rec in report.records
    ]
    return {
        "scenario": report.scenario_id,
        "seed": report.seed,
        "networks": networks,
        "auctions": [rec._asdict() for rec in report.records],
        "series": series,
    }


def reference_series_csv(doc: dict) -> str:
    lines = ["round,vc,requested,winner,final_price,allocated"]
    for row in doc["series"]:
        cells = [
            str(row["round"]),
            row["vc"],
            "" if row["requested"] is None else str(row["requested"]),
            row["winner"] or "",
            "" if row["final_price"] is None else str(row["final_price"]),
            str(row["allocated"]),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def assert_written_as_reference(report: Report, csv: bool = True) -> None:
    doc = reference_doc(report)
    assert report_json(report) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if csv:
        assert series_csv(report) == reference_series_csv(doc)


@functools.cache
def base_report() -> Report:
    """A shipped run on three channels: both networks win lightpaths, and one loses money on a channel."""
    return run_scenario(load_scenario(scenario_path("three_channels")))


def with_ledger(report: Report, rows) -> Report:
    """``report`` with a ledger of ``(network, vc, revenue, cost, sold)`` rows in place of its own."""
    ledger = ProfitLedger()
    for row in rows:
        ledger.record(*row)
    return report._replace(ledger=ledger)


@pytest.mark.parametrize("path", [*(scenario_path(name) for name in ("duel", "three_channels", "two_route_costcurve")), SIX_WAY])
def test_shipped_reports_match_json_dumps(path):
    assert_written_as_reference(run_scenario(load_scenario(path)))


def test_generated_markets_match_json_dumps(rng):
    for tag in range(40):
        assert_written_as_reference(run_scenario(random_scenario(rng, tag)))


@pytest.mark.parametrize("workload", ["stress", "auction"])
def test_benchmark_markets_match_json_dumps(tmp_path, workload):
    for seed, index in [(1, 0), (101, 1)]:
        assert_written_as_reference(run_scenario(benchmark_config(tmp_path, workload, seed, index)))


# Labels and ids: any code point, control characters, quotes and backslashes included.
texts = st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\x7fé \ud800\U0001f600 aA', max_size=8))
ints = st.one_of(st.integers(-1000, 1000), st.integers(min_value=-(10**80), max_value=10**80))


@st.composite
def fuzzed_reports(draw) -> Report:
    report = base_report()
    rows = [(net, vc, draw(ints), draw(ints), draw(ints)) for net, vc, *_ in report.ledger.rows()]
    # the first records only, and none at all for empty arrays
    records = list(report.records[: draw(st.integers(0, len(report.records)))])
    for _ in range(draw(st.integers(0, 8)) if records else 0):
        i = draw(st.integers(0, len(records) - 1))
        field = draw(st.sampled_from(AuctionRecord._fields))
        # series rows compare ``granted`` with 0, so it stays a number
        values = st.one_of(st.booleans(), ints) if field == "granted" else st.one_of(st.none(), st.booleans(), ints, texts)
        records[i] = records[i]._replace(**{field: draw(values)})
    return with_ledger(report, rows)._replace(scenario_id=draw(texts), seed=draw(ints), records=tuple(records))


@settings(max_examples=150, deadline=None)
@given(fuzzed_reports())
def test_report_shaped_documents_match_json_dumps(report):
    assert_written_as_reference(report, csv=False)


def edge_case(doc: dict) -> Report:
    """The base report with the fields of ``doc`` in place of its own; ``ledger`` rows make a new ledger."""
    report = base_report()
    if "ledger" in doc:
        report = with_ledger(report, doc.pop("ledger"))
    return report._replace(**doc)


@pytest.mark.parametrize(
    "doc",
    [
        # no networks: an empty object
        {"network_ids": (), "final_states": {}, "networks": {}},
        # no auctions: empty arrays
        {"records": (), "traces": ()},
        # a profit that rounds to a zero share keeps its sign: -0.0
        {"ledger": [("netA", "VC1", 10**6, 0, 5), ("netA", "VC2", 0, 1, 1), ("netB", "VC1", 0, 7, 1)]},
        # a record's optional fields empty and its flags both ways
        {"records": tuple(rec._replace(winner=None, final_price=None, demand=None, within_band=rec.index % 2 == 0)
                          for rec in base_report().records)},
        {"scenario_id": 'é\n"\\ \ud800\x00\x7f\U0001f600', "seed": -(2**200)},
        {"seed": 2**64, "ledger": [("netA", "VC1", 2**70, -(2**65), 2**64), ("netB", "VC3", -5, 5, 0)]},
    ],
)
def test_edge_cases_match_json_dumps(doc):
    assert_written_as_reference(edge_case(dict(doc)))


@pytest.mark.parametrize(
    "doc",
    [
        {"winner": ("netA",)},
        {"band_low": (1, 2)},
        {"vc": b"VC1"},
        {"winner": b"netA"},
        {"termination": Termination.WON},
        {"winner": Termination.WON},
        {"rounds": [3]},
    ],
)
def test_other_types_raise_type_error(doc):
    """A record holding a tuple, bytes, a str subclass or a list in place of one of its fields."""
    records = base_report().records
    with pytest.raises(TypeError):
        report_json(base_report()._replace(records=(records[0]._replace(**doc), *records[1:])))
