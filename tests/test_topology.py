import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebroker import (
    Allocation,
    Link,
    NetworkTooLargeError,
    NoPathError,
    VirtualChannel,
    brute_force_rwa,
    incremental_allocate,
    make_network,
    path_cost,
    route_candidates,
    solve_min_cost_rwa,
    validate_network,
)

from wavebroker.topology import MAX_ROUTE_PATHS

from conftest import mknet, two_route_net, VC_SEA_BOS


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

    def test_vc_hash_is_cached_and_not_pickled(self):
        vc = VirtualChannel("A", "B", "VC1")
        # what the frozen dataclass's own __hash__ returns, and its equality
        assert hash(vc) == hash(("A", "B", "VC1")) == hash(VirtualChannel("A", "B", "VC1"))
        assert "_hash" in vars(vc)
        assert vc == VirtualChannel("A", "B", "VC1")
        assert vc != VirtualChannel("B", "A", "VC1") and vc != VirtualChannel("A", "B", "VC2")
        assert {vc: 1}[VirtualChannel("A", "B", "VC1")] == 1
        assert repr(vc) == "VirtualChannel(src='A', dst='B', label='VC1')"
        clone = pickle.loads(pickle.dumps(vc))
        assert "_hash" not in vars(clone)
        assert clone == vc and hash(clone) == hash(vc)

    def test_vc_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            VirtualChannel("A", "A", "VC1")

    def test_vc_rejects_empty_label(self):
        with pytest.raises(ValueError):
            VirtualChannel("A", "B", "")

    def test_demand_rejects_zero(self):
        # a channel's demand is the count passed to a placement call; every entry point refuses 0
        net = mknet([("A", "B", 2, 5)])
        vc = VirtualChannel("A", "B", "VC1")
        for place in (incremental_allocate, solve_min_cost_rwa, brute_force_rwa):
            with pytest.raises(ValueError, match="count must be >= 1"):
                place(net, Allocation(), vc, 0)


def counted_reads(net):
    """Make ``net``'s adjacency record each node read; returns the list of reads."""
    reads = []

    class CountingAdjacency(dict):
        def __getitem__(self, node):
            reads.append(node)
            return super().__getitem__(node)

    net.__dict__["adjacency"] = CountingAdjacency(net.adjacency)
    return reads


class TestRouteCandidates:
    def test_single_link(self):
        net = mknet([("A", "B", 2, 5)])
        assert route_candidates(net, VirtualChannel("A", "B", "VC1")) == [("A", "B")]

    def test_cheapest_route_first_on_two_route_net(self):
        net = two_route_net()
        paths = route_candidates(net, VC_SEA_BOS)
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
            route_candidates(net, VC_SEA_BOS)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_costs_nondecreasing(self):
        net = mknet(
            [("A", "B", 1, 10), ("A", "C", 1, 1), ("C", "B", 1, 2), ("A", "D", 1, 4), ("D", "B", 1, 4)]
        )
        paths = route_candidates(net, VirtualChannel("A", "B", "p"))
        cost_list = [path_cost(net, p) for p in paths]
        assert cost_list == sorted(cost_list)
        assert paths[0] == ("A", "C", "B")

    def test_cost_tie_broken_lexicographically(self):
        net = mknet([("A", "B", 1, 5), ("A", "C", 1, 2), ("C", "B", 1, 3)])
        paths = route_candidates(net, VirtualChannel("A", "B", "p"))
        assert paths == [("A", "B"), ("A", "C", "B")]

    def test_disconnected_raises(self):
        net = make_network("n", ["A", "B", "C", "D"], [Link("A", "B", 1, 1), Link("C", "D", 1, 1)], 1)
        with pytest.raises(NoPathError):
            route_candidates(net, VirtualChannel("A", "C", "p"))

    def test_an_unreachable_destination_is_found_before_any_path_is_walked(self):
        # a complete 7-node component beside an isolated node: walking every
        # simple path from N0 would read the adjacency once per path prefix
        nodes = [f"N{i}" for i in range(7)]
        links = [Link(a, b, 1, 1) for k, a in enumerate(nodes) for b in nodes[k + 1 :]]
        net = make_network("iso", nodes + ["Z"], links, 1)
        reads = counted_reads(net)
        with pytest.raises(NoPathError):
            route_candidates(net, VirtualChannel("N0", "Z", "p"))
        assert sorted(reads) == nodes
        reads.clear()
        assert len(route_candidates(net, VirtualChannel("N0", "N1", "p"))) == 326
        assert len(reads) > 326

    def test_nodes_behind_a_cut_vertex_at_src_are_never_walked(self):
        # S-D, with S also in a complete 8-node component: one path, but a
        # walk into the component would read the adjacency once per simple
        # path prefix from S (over 13,000 of them)
        clique = ["S"] + [f"N{i}" for i in range(7)]
        links = [Link(a, b, 1, 1) for k, a in enumerate(clique) for b in clique[k + 1 :]]
        net = make_network("cut", clique + ["D"], links + [Link("S", "D", 1, 1)], 1)
        reads = counted_reads(net)
        assert route_candidates(net, VirtualChannel("S", "D", "p")) == [("S", "D")]
        # S is read by the reachability search and by the walk, D by the search from D
        assert sorted(reads) == ["D", "S", "S"]

    def test_unknown_endpoint_raises(self):
        net = mknet([("A", "B", 1, 1)])
        with pytest.raises(ValueError):
            route_candidates(net, VirtualChannel("A", "Z", "p"))

    def test_path_count_guard(self):
        def complete(n):
            nodes = [f"N{i:02d}" for i in range(n)]
            links = [Link(a, b, 1, 1) for k, a in enumerate(nodes) for b in nodes[k + 1 :]]
            return make_network(f"k{n}", nodes, links, 1)

        vc = VirtualChannel("N00", "N01", "p")
        # a complete 8-node network has 1,957 paths between two nodes, under the cap
        assert len(route_candidates(complete(8), vc)) == 1957 <= MAX_ROUTE_PATHS
        with pytest.raises(NetworkTooLargeError, match=f"more than {MAX_ROUTE_PATHS} paths"):
            route_candidates(complete(12), vc)

    def test_node_count_guard(self):
        nodes = [f"N{i}" for i in range(13)]
        links = [Link(nodes[i], nodes[i + 1], 1, 1) for i in range(12)]
        net = make_network("big", nodes, links, 1)
        with pytest.raises(NetworkTooLargeError):
            route_candidates(net, VirtualChannel("N0", "N12", "p"))

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
        reference = route_candidates(mknet(base), VirtualChannel("A", "B", "p"))
        shuffled = base[:]
        rnd.shuffle(shuffled)
        flipped = [(b, a, c, p) if rnd.random() < 0.5 else (a, b, c, p) for a, b, c, p in shuffled]
        assert route_candidates(mknet(flipped), VirtualChannel("A", "B", "p")) == reference

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
            vc = VirtualChannel(nodes[0], nodes[-1], "p")
            try:
                paths = route_candidates(net, vc)
            except NoPathError:
                continue
            cost_list = [path_cost(net, p) for p in paths]
            assert cost_list == sorted(cost_list)
            assert len(set(paths)) == len(paths)
            for p in paths:
                assert len(set(p)) == len(p)
            assert route_candidates(net, vc) == paths
