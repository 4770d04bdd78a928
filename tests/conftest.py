"""Shared builders: quick networks, shipped-scenario paths, fuzz instance generators, race helpers."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from wavebroker import Allocation, Link, Network, VirtualChannel, apply_delta, incremental_allocate, make_network
from wavebroker.protocol import Ocl

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


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
