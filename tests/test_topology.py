import gc
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebroker import (
    Allocation,
    Link,
    NetworkTooLargeError,
    NoPathError,
    VirtualChannel,
    incremental_allocate,
    make_network,
    path_cost,
    route_candidates,
    validate_network,
)

from wavebroker import rwa
from wavebroker.cli import load_scenario
from wavebroker.topology import MAX_ROUTE_NODES, MAX_ROUTE_PATHS, Routes

from conftest import benchmark_config, mknet, scenario_path, two_route_net, VC_SEA_BOS
from oracle import brute_force_rwa


def codes(violations):
    return {v.code for v in violations}


class TestValidateNetwork:
    def test_minimal_valid_net(self):
        net = mknet([("A", "B", 2, 5)])
        assert validate_network(net) == []

    def test_self_loop(self):
        net = make_network("n", ["A"], [Link("A", "A", 1, 1)], 1)
        assert "self-loop" in codes(validate_network(net))

    def test_dangling_endpoint(self):
        net = make_network("n", ["C"], [Link("C", "D", 1, 1)], 1)
        assert "dangling-endpoint" in codes(validate_network(net))

    def test_duplicate_link(self):
        net = make_network("n", ["A", "B"], [Link("A", "B", 1, 1), Link("B", "A", 2, 2)], 1)
        assert "duplicate-link" in codes(validate_network(net))

    def test_negative_capacity_and_cost(self):
        net = make_network("n", ["A", "B"], [Link("A", "B", -1, -5)], 1)
        got = codes(validate_network(net))
        assert {"negative-capacity", "negative-cost"} <= got

    def test_bad_wavelength_count(self):
        net = make_network("n", ["A", "B"], [Link("A", "B", 1, 1)], 0)
        assert "bad-wavelength-count" in codes(validate_network(net))

    def test_all_violations_reported_at_once(self):
        net = make_network("n", ["A"], [Link("A", "A", -1, 1), Link("A", "B", 1, 1)], 0)
        got = codes(validate_network(net))
        assert {"self-loop", "negative-capacity", "dangling-endpoint", "bad-wavelength-count"} <= got


class TestDomainTypes:
    def test_network_hash_is_cached_and_not_pickled(self):
        net = two_route_net()
        assert hash(net) == hash((net.id, net.nodes, net.links, net.wavelength_count))
        assert "_hash" in vars(net)
        clone = pickle.loads(pickle.dumps(net))
        assert "_hash" not in vars(clone)
        assert clone == net and hash(clone) == hash(net)

    def test_vc_hashes_by_value_and_pickles_as_its_fields(self):
        vc = VirtualChannel("A", "B", "VC1")
        # the hash of its fields' tuple, as a frozen dataclass had, and its equality; nothing else is kept on it
        assert hash(vc) == hash(("A", "B", "VC1")) == hash(VirtualChannel("A", "B", "VC1"))
        assert not hasattr(vc, "__dict__")
        assert vc == VirtualChannel("A", "B", "VC1")
        assert vc != VirtualChannel("B", "A", "VC1") and vc != VirtualChannel("A", "B", "VC2")
        assert {vc: 1}[VirtualChannel("A", "B", "VC1")] == 1
        assert repr(vc) == "VirtualChannel(src='A', dst='B', label='VC1')"
        clone = pickle.loads(pickle.dumps(vc))
        assert clone == vc and hash(clone) == hash(vc)

    def test_vc_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            VirtualChannel("A", "A", "VC1")

    def test_vc_rejects_empty_label(self):
        with pytest.raises(ValueError):
            VirtualChannel("A", "B", "")

    def test_demand_rejects_zero(self):
        # a channel's demand is the count passed to a placement call; placement and the oracle refuse 0
        net = mknet([("A", "B", 2, 5)])
        vc = VirtualChannel("A", "B", "VC1")
        for place in (incremental_allocate, brute_force_rwa):
            with pytest.raises(ValueError, match="count must be >= 1"):
                place(net, Allocation(), vc, 0)


def counted_reads(net):
    """Make ``net``'s arc table, which the reachability search and the walk read,
    record each node read; returns the list of reads."""
    reads = []

    class CountingArcs(dict):
        def __getitem__(self, node):
            reads.append(node)
            return super().__getitem__(node)

    net.__dict__["arcs"] = CountingArcs(net.arcs)
    return reads


class TestRouteCandidates:
    def test_single_link(self):
        net = mknet([("A", "B", 2, 5)])
        assert route_candidates(net, "A", "B") == [("A", "B")]

    def test_cheapest_route_first_on_two_route_net(self):
        net = two_route_net()
        paths = route_candidates(net, "SEA", "BOS")
        assert len(paths) == 2
        assert paths[0] == ("SEA", "DEN", "BOS")
        assert paths[1] == ("SEA", "POR", "SLC", "KC", "CHI", "BOS")
        assert path_cost(net, paths[0]) == 125
        assert path_cost(net, paths[1]) == 170

    def test_enumeration_leaves_no_reference_cycle(self):
        # placement tables keep hop tuples, not the returned paths, so the
        # paths must be freed as soon as the caller drops them
        net = two_route_net()
        gc.collect()
        gc.disable()
        try:
            route_candidates(net, "SEA", "BOS")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_costs_nondecreasing(self):
        net = mknet(
            [("A", "B", 1, 10), ("A", "C", 1, 1), ("C", "B", 1, 2), ("A", "D", 1, 4), ("D", "B", 1, 4)]
        )
        paths = route_candidates(net, "A", "B")
        cost_list = [path_cost(net, p) for p in paths]
        assert cost_list == sorted(cost_list)
        assert paths[0] == ("A", "C", "B")

    def test_cost_tie_broken_lexicographically(self):
        net = mknet([("A", "B", 1, 5), ("A", "C", 1, 2), ("C", "B", 1, 3)])
        paths = route_candidates(net, "A", "B")
        assert paths == [("A", "B"), ("A", "C", "B")]

    def test_disconnected_raises(self):
        net = make_network("n", ["A", "B", "C", "D"], [Link("A", "B", 1, 1), Link("C", "D", 1, 1)], 1)
        with pytest.raises(NoPathError):
            route_candidates(net, "A", "C")

    def test_an_unreachable_destination_is_found_before_any_path_is_walked(self):
        # a complete 7-node component beside an isolated node: walking every
        # simple path from N0 would read the arc table once per path prefix
        nodes = [f"N{i}" for i in range(7)]
        links = [Link(a, b, 1, 1) for k, a in enumerate(nodes) for b in nodes[k + 1 :]]
        net = make_network("iso", nodes + ["Z"], links, 1)
        reads = counted_reads(net)
        with pytest.raises(NoPathError):
            route_candidates(net, "N0", "Z")
        # the search from Z stops at once, so the walk finds every neighbour of N0 off limits
        assert sorted(reads) == ["N0", "Z"]
        reads.clear()
        assert len(route_candidates(net, "N0", "N1")) == 326
        assert len(reads) > 326

    def test_nodes_behind_a_cut_vertex_at_src_are_never_walked(self):
        # S-D, with S also in a complete 8-node component: one path, but a
        # walk into the component would read the arc table once per simple
        # path prefix from S (over 13,000 of them)
        clique = ["S"] + [f"N{i}" for i in range(7)]
        links = [Link(a, b, 1, 1) for k, a in enumerate(clique) for b in clique[k + 1 :]]
        net = make_network("cut", clique + ["D"], links + [Link("S", "D", 1, 1)], 1)
        reads = counted_reads(net)
        assert route_candidates(net, "S", "D") == [("S", "D")]
        # S is read by the walk, D by the search from D
        assert sorted(reads) == ["D", "S"]

    def test_unknown_endpoint_raises(self):
        net = mknet([("A", "B", 1, 1)])
        with pytest.raises(ValueError):
            route_candidates(net, "A", "Z")

    def test_path_count_guard(self):
        def complete(n):
            nodes = [f"N{i:02d}" for i in range(n)]
            links = [Link(a, b, 1, 1) for k, a in enumerate(nodes) for b in nodes[k + 1 :]]
            return make_network(f"k{n}", nodes, links, 1)

        # a complete 8-node network has 1,957 paths between two nodes, under the cap
        assert len(route_candidates(complete(8), "N00", "N01")) == 1957 <= MAX_ROUTE_PATHS
        with pytest.raises(NetworkTooLargeError, match=f"more than {MAX_ROUTE_PATHS} paths"):
            route_candidates(complete(12), "N00", "N01")

    def test_node_count_guard(self):
        nodes = [f"N{i}" for i in range(13)]
        links = [Link(nodes[i], nodes[i + 1], 1, 1) for i in range(12)]
        net = make_network("big", nodes, links, 1)
        with pytest.raises(NetworkTooLargeError):
            route_candidates(net, "N0", "N12")

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_insertion_order_does_not_matter(self, rnd):
        base = [
            ("A", "B", 1, 10),
            ("A", "C", 2, 1),
            ("C", "B", 1, 2),
            ("A", "D", 1, 4),
            ("D", "B", 2, 4),
            ("C", "D", 1, 1),
        ]
        reference = route_candidates(mknet(base), "A", "B")
        shuffled = base[:]
        rnd.shuffle(shuffled)
        flipped = [(b, a, c, p) if rnd.random() < 0.5 else (a, b, c, p) for a, b, c, p in shuffled]
        assert route_candidates(mknet(flipped), "A", "B") == reference

    def test_fuzzed_ordering_total_and_deterministic(self):
        rng = random.Random(99)
        for tag in range(30):
            nodes = [f"N{i}" for i in range(rng.randint(3, 7))]
            links = {}
            for _ in range(rng.randint(len(nodes) - 1, 9)):
                a, b = rng.sample(nodes, 2)
                key = (a, b) if a <= b else (b, a)
                links[key] = Link(key[0], key[1], 1, rng.randint(1, 9))
            net = make_network(f"t{tag}", nodes, links.values(), 1)
            src, dst = nodes[0], nodes[-1]
            try:
                paths = route_candidates(net, src, dst)
            except NoPathError:
                continue
            cost_list = [path_cost(net, p) for p in paths]
            assert cost_list == sorted(cost_list)
            assert len(set(paths)) == len(paths)
            for p in paths:
                assert len(set(p)) == len(p)
            assert route_candidates(net, src, dst) == paths


# -- reference route tables ----------------------------------------------------
#
# The route enumeration as it was before the one-walk build: a walk over node
# tuples, each path's cost summed per hop afterwards, then every path zipped
# again for its hop tuples and link indexes.


def reference_adjacency(net):
    nbrs = {n: set() for n in net.nodes}
    for link in net.links:
        if link.a in nbrs and link.b in nbrs and link.a != link.b:
            nbrs[link.a].add(link.b)
            nbrs[link.b].add(link.a)
    return {n: tuple(sorted(v)) for n, v in nbrs.items()}


def reference_route_candidates(net, src, dst):
    """``(paths, costs)``, cheapest first, ties by node labels."""
    if len(net.nodes) > MAX_ROUTE_NODES:
        raise NetworkTooLargeError(
            f"{len(net.nodes)} nodes; complete path enumeration is capped at {MAX_ROUTE_NODES}"
        )
    if src not in net.nodes or dst not in net.nodes:
        raise ValueError(f"{src!r} or {dst!r} is not a node of network {net.id!r}")

    adjacency = reference_adjacency(net)
    seen = {src}
    todo = [src]
    while todo and dst not in seen:
        for nxt in adjacency[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    if dst not in seen:
        raise NoPathError(f"{src} and {dst} are disconnected in network {net.id!r}")

    reach = {src, dst}
    todo = [dst]
    while todo:
        for nxt in adjacency[todo.pop()]:
            if nxt not in reach:
                reach.add(nxt)
                todo.append(nxt)

    found = []
    stack = [src]
    on_path = {src} | (net.nodes - reach)

    def walk(node):
        for nxt in adjacency[node]:
            if nxt == dst:
                found.append(tuple(stack) + (dst,))
                if len(found) > MAX_ROUTE_PATHS:
                    raise NetworkTooLargeError(
                        f"more than {MAX_ROUTE_PATHS} paths join {src} and {dst};"
                        f" route enumeration is capped at {MAX_ROUTE_PATHS}"
                    )
            elif nxt not in on_path:
                stack.append(nxt)
                on_path.add(nxt)
                walk(nxt)
                on_path.remove(nxt)
                stack.pop()

    try:
        walk(src)
    finally:
        del walk
    costs, paths = zip(*sorted([(path_cost(net, p), p) for p in found]))
    return list(paths), costs


def reference_path_tables(net, src, dst):
    """``(paths, hops, costs, link_lists, alone)``, with link indexes in sorted link-key order."""
    keys = tuple(sorted(net.link_by_key))
    index = {hop: i for i, k in enumerate(keys) for hop in (k, k[::-1])}
    paths, costs = reference_route_candidates(net, src, dst)
    hops = tuple(tuple(zip(p, p[1:])) for p in paths)
    link_lists = tuple(tuple(index[hop] for hop in h) for h in hops)
    padded = (None,) + costs + (None,)
    alone = tuple(padded[i] != c != padded[i + 2] for i, c in enumerate(costs))
    return paths, hops, costs, link_lists, alone


def assert_route_tables_match(net, src, dst):
    """Compare the route tables with the reference's; returns the outcome: "paths" or the error type both raise."""
    try:
        paths, hops, costs, link_lists, alone = reference_path_tables(net, src, dst)
    except (NoPathError, NetworkTooLargeError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            route_candidates(net, src, dst)
        return type(exc)
    routes = route_candidates(net, src, dst)
    assert type(routes) is Routes and routes == paths
    assert (routes.costs, routes.hops, routes.links) == (costs, hops, link_lists)
    assert rwa._path_tables(net, src, dst) == (hops, costs, link_lists, alone)
    # every hop tuple is one the network's arc table already holds
    own = {id(hop) for arcs in net.arcs.values() for _, hop, _, _ in arcs}
    assert all(id(hop) in own for path_hops in routes.hops for hop in path_hops)
    return "paths"


LABELS = ["A", "B", "C", "D", "E", "F", "G", "N0", "N10", "N2", "a", "b1", "Z"]


def random_route_net(rng, tag):
    """A network of one or two components, tree-like to dense, with few or many link costs.

    Some get a clique hung off one node (a cut vertex), a self-loop, a
    second link between two nodes, or a link to a node outside the network.
    Returns ``(net, cut)`` with ``cut`` the cut vertex or None.
    """
    nodes = rng.sample(LABELS[:10], rng.randint(2, 8))
    pool = rng.choice([[1], [1, 2], [1, 2, 3], [2, 3, 5], list(range(1, 40))])
    split = rng.randrange(1, len(nodes)) if len(nodes) > 2 and rng.random() < 0.25 else len(nodes)
    density = rng.random()
    pairs = []
    for group in (nodes[:split], nodes[split:]):
        for i in range(1, len(group)):
            pairs.append((group[rng.randrange(i)], group[i]))
        pairs += [(a, b) for k, a in enumerate(group) for b in group[k + 1 :] if rng.random() < density * 0.6]
    cut = None
    if rng.random() < 0.3:
        cut = rng.choice(nodes)
        block = [cut] + rng.sample(LABELS[10:], rng.randint(1, 3))
        nodes += block[1:]
        pairs += [(a, b) for k, a in enumerate(block) for b in block[k + 1 :]]
    if rng.random() < 0.2:
        pairs.append((nodes[0], nodes[0]))
    if rng.random() < 0.2:
        pairs.append(pairs[0][::-1])
    if rng.random() < 0.1:
        pairs.append((nodes[0], "OUT"))
    links = [Link(a, b, 1, rng.choice(pool)) for a, b in pairs]
    return make_network(f"routes{tag}", nodes, links, 1), cut


class TestRouteTablesMatchReference:
    def test_fuzzed_networks(self):
        rng = random.Random(2511)
        outcomes = {"paths": 0, NoPathError: 0, NetworkTooLargeError: 0}
        tied = cut_src = 0
        for tag in range(300):
            net, cut = random_route_net(rng, tag)
            nodes = sorted(net.nodes)
            ends = [(a, b) for a in nodes for b in nodes if a != b]
            if cut is not None:
                ends = [(cut, b) for b in nodes if b != cut] + ends
            for src, dst in ends[:12]:
                outcome = assert_route_tables_match(net, src, dst)
                outcomes[outcome] += 1
                if outcome == "paths":
                    costs = route_candidates(net, src, dst).costs
                    tied += len(set(costs)) < len(costs)
                    cut_src += src == cut
        # past the path cap, and past the node cap, both raise the same error
        clique = [f"K{i}" for i in range(9)]
        net = make_network("clique", clique, [Link(a, b, 1, 1) for k, a in enumerate(clique) for b in clique[k + 1 :]], 1)
        outcomes[assert_route_tables_match(net, "K0", "K8")] += 1
        line = [f"L{i:02d}" for i in range(MAX_ROUTE_NODES + 1)]
        net = make_network("line", line, [Link(a, b, 1, 1) for a, b in zip(line, line[1:])], 1)
        outcomes[assert_route_tables_match(net, line[0], line[-1])] += 1
        assert outcomes[NetworkTooLargeError] == 2
        assert outcomes["paths"] >= 1500 and outcomes[NoPathError] >= 100
        assert tied >= 500 and cut_src >= 100

    def test_one_hop_tuple_per_link_direction(self):
        # the link index is keyed by the arc table's own hop tuples, and the route tables hold them too
        links = [Link("A", "B", 1, 1), Link("B", "C", 1, 1), Link("A", "C", 1, 3), Link("C", "C", 1, 1), Link("C", "X", 1, 1)]
        net = make_network("one-hop-set", "ABCD", links, 1)
        keys, index, _ = rwa._net_tables(net)
        index_keys = {k: k for k in index}
        for arcs in net.arcs.values():
            assert all(index_keys[hop] is hop for _, hop, _, _ in arcs)
        for path_hops in rwa._path_tables(net, "A", "C")[0]:
            assert all(index_keys[hop] is hop for hop in path_hops)
        # the self-loop and the link to an unknown node are indexed too, both ways
        assert index == {hop: i for i, k in enumerate(keys) for hop in (k, k[::-1])}

    def test_shipped_and_benchmark_markets(self, tmp_path):
        configs = [load_scenario(scenario_path(name)) for name in ("duel", "three_channels", "two_route_costcurve")]
        configs += [benchmark_config(tmp_path, workload, 1, index) for workload in ("stress", "auction") for index in range(3)]
        outcomes = [
            assert_route_tables_match(supplier.network, ch.vc.src, ch.vc.dst)
            for config in configs
            for supplier in config.suppliers
            for ch in config.channels
        ]
        assert len(outcomes) >= 150 and set(outcomes) == {"paths"}
