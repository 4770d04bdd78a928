"""The benchmark's per-layer tracer still finds every binding it wraps.

A refactor that renames or removes a traced binding would otherwise zero
that layer's metrics without any error.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# Bindings the tracer lists ahead of the code that will call through them.
NOT_YET_CALLED = {"wavebroker.market.solve_min_cost_rwa"}


def test_tracer_finds_every_traced_binding():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent_layers == []
    assert set(tracer.missing) <= NOT_YET_CALLED
