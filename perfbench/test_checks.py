"""The benchmark counts a corrupted run as a failure, and tracing survives a missing layer.

    python3 -m pytest perfbench/test_checks.py

Each test feeds one deliberately broken report through the same run and
check path the timed loop uses, and asserts the run is counted as failed.
"""

from __future__ import annotations

import dataclasses

import pytest

import worker
from wavebroker import market
from wavebroker.protocol import CompetitionTrace, Reqc
from wavebroker.rwa import Allocation


@pytest.fixture(scope="module")
def auction(tmp_path_factory):
    return worker.Workload("auction", 1, tmp_path_factory.mktemp("auction"))


def _replace_next_report(monkeypatch, corrupt):
    real = market.run_scenario

    def corrupted_run(config, seed_override=None):
        report = real(config, seed_override=seed_override)
        corrupt(report)
        return report

    monkeypatch.setattr(market, "run_scenario", corrupted_run)


def _assert_counted_as_failed(workload, index=0):
    before = workload.failed
    _elapsed, ok = workload.run(index)
    assert not ok
    assert workload.failed == before + 1


def test_clean_runs_pass(auction):
    assert auction.failed == 0
    _elapsed, ok = auction.run(0)
    assert ok and auction.failed == 0


def test_corrupted_allocation_is_a_failure(auction, monkeypatch):
    def corrupt(report):
        nid = next(n for n in report.network_ids if report.final_states[n].lightpaths)
        state = report.final_states[nid]
        first = state.lightpaths[0]
        out_of_range = dataclasses.replace(first, wavelength=report.networks[nid].wavelength_count + 1)
        report.final_states[nid] = Allocation((out_of_range,) + state.lightpaths[1:])

    _replace_next_report(monkeypatch, corrupt)
    _assert_counted_as_failed(auction)
    assert any("wavelength-range" in p for p in auction.problems)


def test_corrupted_trace_is_a_failure(auction, monkeypatch):
    def corrupt(report):
        without_request = tuple(ev for ev in report.traces[0].events if not isinstance(ev.message, Reqc))
        report.traces = (CompetitionTrace(without_request),) + report.traces[1:]

    _replace_next_report(monkeypatch, corrupt)
    _assert_counted_as_failed(auction)
    assert any("missing-reqc" in p for p in auction.problems)


def test_ledger_cost_mismatch_is_a_failure(auction, monkeypatch):
    def corrupt(report):
        nid = report.network_ids[0]
        vc = report.ledger.vc_labels(nid)[0]
        report.ledger.record(nid, vc, 0, 1, 0)

    _replace_next_report(monkeypatch, corrupt)
    _assert_counted_as_failed(auction)
    assert any("ledger cost" in p for p in auction.problems)


def test_changed_bytes_on_a_repeated_seed_is_a_failure(auction, monkeypatch):
    def corrupt(report):
        report.seed += 1  # report.json carries the seed

    auction.run(0)
    _replace_next_report(monkeypatch, corrupt)
    _assert_counted_as_failed(auction)
    assert any("differ from the first run" in p for p in auction.problems)


def test_raising_run_is_a_failure(auction, monkeypatch):
    def boom(config, seed_override=None):
        raise RuntimeError("injected")

    monkeypatch.setattr(market, "run_scenario", boom)
    _assert_counted_as_failed(auction)
    assert any("raised RuntimeError" in p for p in auction.problems)


def test_missing_binding_reports_layer_absent(monkeypatch):
    import wavebroker._kernel
    from layers import METRICS, Tracer

    monkeypatch.delattr(wavebroker._kernel, "cheapest_placement")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent_layers == ["kernel"]
    assert "wavebroker._kernel.cheapest_placement" in tracer.missing
    metrics = tracer.metrics()
    assert set(metrics) == set(METRICS)
    assert metrics["kernel.cheapest_placement.calls"] == 0
