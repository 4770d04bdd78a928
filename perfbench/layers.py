"""Per-layer tracing from outside the program.

The tracer replaces the module bindings the program calls through (for
example ``wavebroker.game.marginal_cost``, which ``SupplierAgent`` calls)
with wrappers that record a span per call: name, start, end, parent span
and run id.  A span covers the wrapper's own bookkeeping, whose cost per
span ``calibrate`` measures on an empty function.  Spans stay in memory
until the run ends.  A binding that does
not exist is skipped and its layer is reported absent when none of its
bindings exist, so deleting a module does not crash the traced run.

Layer names match the package's modules, except that ``_kernel`` is
reported as ``kernel`` because metric names may not start with ``_``.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from time import perf_counter

# layer -> (span name, module, attribute) for every binding the program
# calls the layer through.  Two bindings of one span name add up.
BINDINGS = {
    "cli": [
        ("cli.load_scenario", "wavebroker.cli", "load_scenario"),
        ("cli.write_report_files", "wavebroker.cli", "write_report_files"),
    ],
    "topology": [
        # _path_tables is an lru_cache, so only its misses reach this call.
        ("topology.route_candidates", "wavebroker.rwa", "route_candidates"),
    ],
    "cost": [
        ("cost.marginal_cost", "wavebroker.game", "marginal_cost"),
    ],
    "rwa": [
        ("rwa.incremental_allocate", "wavebroker.cost", "incremental_allocate"),
        ("rwa.incremental_allocate", "wavebroker.market", "incremental_allocate"),
        ("rwa.apply_delta", "wavebroker.game", "apply_delta"),
        ("rwa.apply_delta", "wavebroker.rwa", "apply_delta"),
        ("rwa.solve_min_cost_rwa", "wavebroker.market", "solve_min_cost_rwa"),
        ("rwa.solve_min_cost_rwa", "wavebroker.rwa", "solve_min_cost_rwa"),
    ],
    "kernel": [
        ("kernel.cheapest_placement", "wavebroker._kernel", "cheapest_placement"),
    ],
    "game": [
        ("game.decide_bid", "wavebroker.protocol", "decide_bid"),
    ],
    "protocol": [
        ("protocol.run_competition", "wavebroker.market", "run_competition"),
    ],
    "market": [
        ("market.run_scenario", "wavebroker.cli", "run_scenario"),
        ("market.run_scenario", "wavebroker.market", "run_scenario"),
        ("market.settle", "wavebroker.market", "settle"),
    ],
}

# Calls per calibration round, and rounds whose median is taken.
CALIBRATE_CALLS = 20000
CALIBRATE_ROUNDS = 5

# Every per-layer metric the traced run reports, in output order.
METRICS = [
    "cli.load_scenario.calls", "cli.load_scenario.ms",
    "cli.write_report_files.calls", "cli.write_report_files.ms", "cli.write_report_files.bytes",
    "topology.route_candidates.calls", "topology.route_candidates.paths", "topology.route_candidates.ms",
    "cost.marginal_cost.calls", "cost.marginal_cost.ms", "cost.marginal_cost.infeasible",
    "rwa.incremental_allocate.calls", "rwa.incremental_allocate.units",
    "rwa.incremental_allocate.probe_ms", "rwa.incremental_allocate.settle_ms",
    "rwa.apply_delta.calls", "rwa.apply_delta.ms", "rwa.apply_delta.lightpaths_indexed",
    "rwa.solve_min_cost_rwa.calls", "rwa.solve_min_cost_rwa.ms",
    "kernel.cheapest_placement.calls", "kernel.cheapest_placement.ms", "kernel.cheapest_placement.hit_ratio",
    "game.decide_bid.calls", "game.decide_bid.ms", "game.decide_bid.cut_ratio",
    "protocol.run_competition.calls", "protocol.run_competition.ms",
    "protocol.run_competition.rounds", "protocol.run_competition.events",
    "market.run_scenario.calls", "market.run_scenario.ms",
    "market.settle.calls", "market.settle.ms", "market.settle.fill_ratio", "market.settle.shortfalls",
]



def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix in ("ms", "us", "ratio", "bytes"):
        if metric.endswith(suffix):
            return suffix
    return "count"


def _observe(tally: dict, name: str, result, exc) -> None:
    """Work counts of one finished call, taken from its result or exception."""
    def add(key, n=1):
        tally[key] = tally.get(key, 0) + n

    if name == "cli.write_report_files" and exc is None:
        add("cli.write_report_files.bytes", sum(p.stat().st_size for p in result))
    elif name == "topology.route_candidates" and exc is None:
        add("topology.route_candidates.paths", len(result))
    elif name == "cost.marginal_cost" and type(exc).__name__ == "InfeasibleError":
        add("cost.marginal_cost.infeasible")
    elif name == "rwa.incremental_allocate":
        if exc is None:
            add("rwa.incremental_allocate.units", len(result[0]))
        elif hasattr(exc, "placed"):
            add("rwa.incremental_allocate.units", exc.placed)
    elif name == "rwa.apply_delta" and exc is None:
        add("rwa.apply_delta.lightpaths_indexed", len(result.lightpaths))
    elif name == "kernel.cheapest_placement" and exc is None:
        add("kernel.cheapest_placement.hits", result[0] >= 0)
    elif name == "game.decide_bid" and exc is None:
        add("game.decide_bid.bids", type(result).__name__ == "Bid")
    elif name == "protocol.run_competition" and exc is None:
        add("protocol.run_competition.rounds", result.rounds)
        add("protocol.run_competition.events", len(result.trace.events))
    elif name == "market.settle" and exc is None:
        add("market.settle.demanded", result.demand)
        add("market.settle.granted", result.granted)
        add("market.settle.shortfalls", result.granted < result.demand)


class Tracer:
    """Span recorder that wraps module bindings while installed.

    Spans are kept in typed arrays, one entry per span, because a traced
    run records hundreds of thousands of them.
    """

    def __init__(self):
        self.span_names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.child_time = array("d")
        self.parents = array("q")
        self.run_ids = array("q")
        self.tally: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.absent_layers: list[str] = []
        # Wrapper cost per span, in seconds, measured by calibrate(): the part
        # inside the span's interval (subtracted from its self time) and the
        # part outside it (added to the parent's child time).
        self.inner_cost = 0.0
        self.outer_cost = 0.0

    def calibrate(self) -> None:
        """Measure the wrapper's cost per span on an empty function; median of CALIBRATE_ROUNDS."""
        def empty():
            return None

        inner, outer = [], []
        for _ in range(CALIBRATE_ROUNDS):
            probe = Tracer()
            traced = probe._wrap("calibrate", empty)
            start = perf_counter()
            for _ in range(CALIBRATE_CALLS):
                empty()
            bare = (perf_counter() - start) / CALIBRATE_CALLS
            start = perf_counter()
            for _ in range(CALIBRATE_CALLS):
                traced()
            wrapped = (perf_counter() - start) / CALIBRATE_CALLS
            inside = (sum(probe.ends) - sum(probe.starts)) / CALIBRATE_CALLS
            inner.append(inside - bare)
            outer.append(wrapped - inside)
        self.inner_cost = max(statistics.median(inner), 0.0)
        self.outer_cost = max(statistics.median(outer), 0.0)

    def _wrap(self, name: str, fn):
        if name not in self.span_names:
            self.span_names.append(name)
        name_id = self.span_names.index(name)

        def traced(*args, **kwargs):
            # The span covers the wrapper's own bookkeeping, so its cost is
            # charged to this span's self time and not to the caller's.
            start = perf_counter()
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.name_ids)
            self.name_ids.append(name_id)
            self.parents.append(parent)
            self.run_ids.append(self.run_id)
            self.starts.append(start)
            self.ends.append(0.0)
            self.child_time.append(0.0)
            self._stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                self._stack.pop()
                _observe(self.tally, name, result, exc)
                end = perf_counter()
                self.ends[idx] = end
                if parent >= 0:
                    self.child_time[parent] += end - start + self.outer_cost

        return traced

    def install(self) -> None:
        """Wrap every binding that exists; remember what is missing."""
        self.missing, self.absent_layers = [], []
        for layer, bindings in BINDINGS.items():
            found = 0
            for name, module_name, attr in bindings:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                found += 1
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            if not found:
                self.absent_layers.append(layer)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def metrics(self) -> dict[str, float]:
        """Every name in METRICS: counts, self times in ms, and ratios."""
        calls: dict[str, int] = {}
        self_ms: dict[str, float] = {}
        names = [self.span_names[i] for i in self.name_ids]
        for idx, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            own = (self.ends[idx] - self.starts[idx] - self.child_time[idx] - self.inner_cost) * 1000.0
            key = f"{name}.ms"
            if name == "rwa.incremental_allocate":
                parent = self.parents[idx]
                under_probe = parent >= 0 and names[parent].startswith("cost.")
                key = f"{name}.probe_ms" if under_probe else f"{name}.settle_ms"
            self_ms[key] = self_ms.get(key, 0.0) + own

        t = self.tally
        ratios = {
            "kernel.cheapest_placement.hit_ratio": (t.get("kernel.cheapest_placement.hits", 0), calls.get("kernel.cheapest_placement", 0)),
            "game.decide_bid.cut_ratio": (t.get("game.decide_bid.bids", 0), calls.get("game.decide_bid", 0)),
            "market.settle.fill_ratio": (t.get("market.settle.granted", 0), t.get("market.settle.demanded", 0)),
        }
        out = {}
        for metric in METRICS:
            if metric in ratios:
                num, den = ratios[metric]
                out[metric] = num / den if den else 0.0
            elif metric.endswith(".calls"):
                out[metric] = calls.get(metric[: -len(".calls")], 0)
            elif metric.endswith("ms"):
                out[metric] = round(self_ms.get(metric, 0.0), 6)
            else:
                out[metric] = t.get(metric, 0)
        return out

    def write_spans(self, path) -> int:
        """Write every span as TSV: index, name, start and end in µs from the first span, parent, run id."""
        t0 = min(self.starts, default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_us\tend_us\tparent\trun\n")
            for idx, name_id in enumerate(self.name_ids):
                fh.write(
                    f"{idx}\t{self.span_names[name_id]}\t{(self.starts[idx] - t0) * 1e6:.1f}\t{(self.ends[idx] - t0) * 1e6:.1f}"
                    f"\t{self.parents[idx]}\t{self.run_ids[idx]}\n"
                )
        return len(self.name_ids)
