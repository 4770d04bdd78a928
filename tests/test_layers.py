"""The benchmark's per-layer tracer still finds, and sees called, every binding it wraps.

A refactor that renames or removes a traced binding would otherwise zero
that layer's metrics without any error, and so would one that keeps the
binding but stops calling through it.
"""

import importlib.util
import json
from pathlib import Path

from wavebroker import LightPath, cli, rwa

REPO = Path(__file__).resolve().parents[1]
LAYERS = REPO / "perfbench" / "layers.py"

# Bindings the tracer lists ahead of the code that will call through them.
NOT_YET_CALLED = {"wavebroker.market.solve_min_cost_rwa"}
# Bindings the tracer still wraps but the code no longer calls: the race
# asks inline, so its asks and bids are counted in report.json instead.
FOLDED = {"game.decide_bid.calls"}


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_tracer_finds_every_traced_binding():
    tracer = _layers().Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent_layers == []
    assert set(tracer.missing) <= NOT_YET_CALLED


def test_every_traced_layer_is_called_in_a_traced_run(tmp_path):
    tracer = _layers().Tracer()
    # The path tables are cached by network value; after an earlier run of
    # the same scenario route_candidates would not be called.
    rwa._path_tables.cache_clear()
    tracer.install()
    try:
        code = cli.main(["run", str(REPO / "tests" / "golden" / "six_way_race.json"), "--out", str(tmp_path), "--traces"])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.metrics()
    calls = {name: n for name, n in metrics.items() if name.endswith(".calls")}
    idle = [name for name, n in calls.items() if n <= 0 and name != "rwa.solve_min_cost_rwa.calls" and name not in FOLDED]
    assert calls and idle == []
    # the same run's report counts the race's asks: each round asks every active supplier but the leader
    auctions = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))["auctions"]
    expected_asks = 0
    for rec in auctions:
        trace = (tmp_path / "traces" / f"trace_{rec['index']:04d}_{rec['vc']}.log").read_text(encoding="utf-8")
        active = sum(line.startswith("1\tsupplier->broker\t") and "\toffp\t" in line for line in trace.splitlines())
        expected_asks += (rec["rounds"] - 1) * (active - 1)
    assert sum(rec["bids"] for rec in auctions) > 0
    assert sum(rec["asks"] for rec in auctions) == expected_asks > 0


def test_a_traced_run_builds_no_lightpath(tmp_path, monkeypatch):
    # the tracer counts a commit's units through len(), which must not build them
    built = []
    init = LightPath.__init__
    monkeypatch.setattr(LightPath, "__init__", lambda lp, *args: built.append(lp) or init(lp, *args))
    tracer = _layers().Tracer()
    tracer.install()
    try:
        code = cli.main(["run", str(REPO / "tests" / "golden" / "six_way_race.json"), "--out", str(tmp_path), "--traces"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.metrics()["rwa.apply_delta.lightpaths_indexed"] > 0
    assert built == []
