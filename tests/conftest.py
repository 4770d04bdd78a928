"""Shared builders: quick networks, shipped-scenario paths, fuzz instance generators, generated and benchmark markets, race helpers."""

from __future__ import annotations

import functools
import importlib.util
import json
import random
from pathlib import Path

import pytest

from wavebroker import (
    Allocation,
    ChannelConfig,
    Link,
    LinearDemand,
    Network,
    ScenarioConfig,
    SupplierConfig,
    UndercutPolicy,
    VirtualChannel,
    apply_delta,
    incremental_allocate,
    make_network,
)
from wavebroker.cli import load_scenario
from wavebroker.protocol import Ocl

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def scenario_path(name: str) -> str:
    return str(SCENARIO_DIR / f"{name}.json")


def mknet(links, wavelength_count=2, net_id="net"):
    """Network from (a, b, capacity, unit_cost) tuples; nodes inferred."""
    nodes = {end for a, b, _c, _p in links for end in (a, b)}
    return make_network(net_id, nodes, [Link(a, b, c, p) for a, b, c, p in links], wavelength_count)


def two_route_net(net_id="canwest") -> Network:
    """Mirror of the shipped two_route_costcurve network: 125/leg vs 170/leg."""
    return mknet(
        [
            ("SEA", "DEN", 8, 60),
            ("DEN", "BOS", 8, 65),
            ("SEA", "POR", 8, 30),
            ("POR", "SLC", 8, 35),
            ("SLC", "KC", 8, 40),
            ("KC", "CHI", 8, 30),
            ("CHI", "BOS", 8, 35),
        ],
        wavelength_count=20,
        net_id=net_id,
    )


VC_SEA_BOS = VirtualChannel("SEA", "BOS", "VC1")


def probed_mcs(vc, suppliers):
    """Each supplier's next-unit marginal cost on ``vc``, in order, as ``run_scenario`` probes it for the race."""
    return [s.next_unit_mc(vc) for s in suppliers]


def ocl_prices(trace):
    """The announced standing-minimum sequence of a race, one entry per round."""
    prices = {}
    for ev in trace.events:
        if isinstance(ev.message, Ocl):
            prices.setdefault(ev.round, ev.message.p)
    return list(prices.values())


def random_guard_instance(rng: random.Random, tag: int):
    """A random connected single-connection instance inside the exhaustive-oracle guard.

    4 to 6 nodes and up to 8 links, W up to 3, up to 2 connections already
    placed greedily, then a channel asking for 1 to W + 1 units (at most 4).
    Returns ``(net, state, vc, count)``.
    """
    n_nodes = rng.randint(4, 6)
    nodes = [f"N{i}" for i in range(n_nodes)]
    links: dict[tuple[str, str], Link] = {}
    order = nodes[:]
    rng.shuffle(order)
    for i in range(1, len(order)):
        a, b = order[rng.randrange(i)], order[i]
        key = (a, b) if a <= b else (b, a)
        links[key] = Link(key[0], key[1], rng.randint(1, 3), rng.randint(1, 20))
    max_links = rng.randint(len(links), 8)
    attempts = 0
    while len(links) < max_links and attempts < 20:
        attempts += 1
        a, b = rng.sample(nodes, 2)
        key = (a, b) if a <= b else (b, a)
        if key not in links:
            links[key] = Link(key[0], key[1], rng.randint(1, 3), rng.randint(1, 20))
    W = rng.randint(1, 3)
    net = make_network(f"fuzz{tag}", nodes, links.values(), W)
    state = Allocation()
    for k in range(rng.randint(0, 2)):
        src, dst = rng.sample(nodes, 2)
        grant, _ = incremental_allocate(net, state, VirtualChannel(src, dst, f"P{k}"), rng.randint(1, W))
        state = apply_delta(net, state, grant)
    src, dst = rng.sample(nodes, 2)
    return net, state, VirtualChannel(src, dst, "C"), rng.randint(1, min(4, W + 1))


def random_crossing_instance(rng: random.Random, tag: int):
    """Routes S-X-T and S-Y-T joined by a cheap capacity-2 chord X-Y, plus up to two stub nodes.

    When S-X-Y-T is the cheapest route and its end links have capacity 1,
    the first greedy unit blocks both outer routes, so the next one pays for
    the chord again, where an exact solve takes the two outer routes.
    Returns ``(net, state, vc, count)`` with an empty state and 2 to W units.
    """
    nodes = ["S", "T", "X", "Y"] + [f"N{i}" for i in range(rng.randint(0, 2))]
    links = [Link(a, b, rng.randint(1, 2), rng.randint(1, 20)) for a, b in (("S", "X"), ("X", "T"), ("S", "Y"), ("Y", "T"))]
    links.append(Link("X", "Y", 2, rng.randint(1, 3)))
    links += [Link(n, rng.choice(nodes[:4]), rng.randint(1, 2), rng.randint(1, 20)) for n in nodes[4:]]
    W = rng.randint(2, 3)
    net = make_network(f"cross{tag}", nodes, links, W)
    return net, Allocation(), VirtualChannel("S", "T", "C"), rng.randint(2, W)


def random_parallel_routes_net(rng: random.Random, tag: int, max_routes=3, max_len=2, guard=True):
    """Node-disjoint parallel routes between S and T; greedy placement is
    provably optimal here, which makes these good single-connection probes."""
    links = []
    nodes = ["S", "T"]
    n_routes = rng.randint(1, max_routes)
    node_budget = (6 if guard else 10) - 2
    for r in range(n_routes):
        length = rng.randint(1, max_len)
        length = min(length, node_budget + 1) if length > 1 else length
        route_cost = rng.randint(1, 15)
        cap = rng.randint(1, 3)
        prev = "S"
        for step in range(length - 1):
            if node_budget <= 0:
                break
            mid = f"R{r}M{step}"
            nodes.append(mid)
            node_budget -= 1
            links.append((prev, mid, cap, route_cost))
            prev = mid
        links.append((prev, "T", cap, route_cost))
    merged: dict[tuple[str, str], tuple] = {}
    for a, b, c, p in links:
        key = (a, b) if a <= b else (b, a)
        merged[key] = (key[0], key[1], c, p)
    return mknet(list(merged.values()), wavelength_count=rng.randint(1, 3), net_id=f"par{tag}")


@pytest.fixture
def rng():
    return random.Random(20_260_808)


def random_scenario(rng: random.Random, tag: int) -> ScenarioConfig:
    """2-4 suppliers on S-M-T triangles of capacity 0-3, asked for S-T and S-M units.

    Capacity runs out within a run, so a request may see some suppliers
    decline at the gate, every one of them, or a single one priced; one
    market in four gives every supplier the same costs, markup and steps,
    so their opening bids tie.  Steps are small against the prices, so
    each race descends to the bidders' marginal costs.
    """
    tied = rng.random() < 0.25
    costs, markup, policy = [rng.randint(20, 60) for _ in range(3)], rng.choice((1.5, 2.0)), UndercutPolicy(1, 3)
    suppliers = []
    for i in range(rng.randint(2, 4)):
        if not tied:
            costs, markup = [rng.randint(20, 60) for _ in range(3)], rng.choice((1.5, 2.0))
            lo = rng.randint(1, 4)
            policy = UndercutPolicy(lo, rng.randint(lo, 8))
        links = [(a, b, rng.randint(0, 3), cost) for (a, b), cost in zip((("S", "T"), ("S", "M"), ("M", "T")), costs)]
        suppliers.append(SupplierConfig(mknet(links, wavelength_count=rng.randint(2, 4), net_id=f"m{tag}n{i}"), policy, markup))
    channels = (
        ChannelConfig(VirtualChannel("S", "T", "ST"), LinearDemand(a=rng.uniform(1, 4), b=0.001)),
        ChannelConfig(VirtualChannel("S", "M", "SM"), LinearDemand(a=rng.uniform(1, 3), b=0.001)),
    )
    schedule = tuple((r, rng.choice(("ST", "SM"))) for r in range(rng.randint(4, 10)))
    return ScenarioConfig(f"m{tag}", rng.randrange(2**31), tuple(suppliers), channels, schedule)


@functools.cache
def perfbench_module(name: str):
    """``perfbench/<name>.py``, loaded from its file: ``perfbench`` is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_config(tmp_path: Path, workload: str, seed: int, index: int) -> ScenarioConfig:
    """Generated market ``index`` of a benchmark workload seed (``stress`` or ``auction``), loaded from a file."""
    workloads = perfbench_module("workloads")
    generate = {"stress": workloads.stress_scenario, "auction": workloads.auction_scenario}[workload]
    path = tmp_path / f"{workload}_{seed}_{index}.json"
    path.write_text(json.dumps(generate(seed, index)), encoding="utf-8")
    return load_scenario(path)
