import pickle
import random

import pytest

from wavebroker import (
    Allocation,
    CurveSegment,
    EmptyCurveError,
    InfeasibleError,
    VirtualChannel,
    apply_delta,
    incremental_allocate,
    marginal_cost,
    total_cost_curve,
)
from wavebroker.cost import curve_csv_rows
from wavebroker.topology import Link, link_key, make_network

from conftest import mknet, random_parallel_routes_net, two_route_net, VC_SEA_BOS
from oracle import brute_force_rwa


class TestCurveStructure:
    def test_two_route_curve_has_two_segments(self):
        net = two_route_net()
        curve = total_cost_curve(net, Allocation(), VC_SEA_BOS, 20)
        assert curve.segments == (
            CurveSegment(1, 8, 125),
            CurveSegment(9, 16, 170),
        )
        assert curve.q_max == 16
        assert curve.segments[0].mc < curve.segments[1].mc

    def test_single_link_single_segment(self):
        net = mknet([("A", "B", 3, 5)], wavelength_count=5)
        curve = total_cost_curve(net, Allocation(), VirtualChannel("A", "B", "x"), 10)
        assert curve.segments == (CurveSegment(1, 3, 5),)
        assert curve.q_max == 3

    def test_saturated_network_has_no_curve(self):
        net = mknet([("A", "B", 1, 5)])
        vc = VirtualChannel("A", "B", "x")
        delta, _ = incremental_allocate(net, Allocation(), vc, 1)
        state = apply_delta(net, Allocation(), delta)
        with pytest.raises(EmptyCurveError):
            total_cost_curve(net, state, vc, 5)

    def test_q_cap_truncates_probe(self):
        net = two_route_net()
        curve = total_cost_curve(net, Allocation(), VC_SEA_BOS, 5)
        assert curve.segments == (CurveSegment(1, 5, 125),)
        assert curve.q_max == 5

    def test_bad_q_cap(self):
        net = mknet([("A", "B", 1, 5)])
        with pytest.raises(ValueError):
            total_cost_curve(net, Allocation(), VirtualChannel("A", "B", "x"), 0)


class TestTotalCost:
    def test_tc_zero_is_zero(self):
        net = two_route_net()
        curve = total_cost_curve(net, Allocation(), VC_SEA_BOS, 20)
        assert curve.total_cost(0) == 0

    def test_tc_is_cumulative_and_piecewise_linear(self):
        net = two_route_net()
        curve = total_cost_curve(net, Allocation(), VC_SEA_BOS, 20)
        assert curve.total_cost(8) == 8 * 125
        assert curve.total_cost(9) == 8 * 125 + 170
        assert curve.total_cost(16) == 8 * 125 + 8 * 170
        # each unit of a segment adds the segment's marginal cost, up to q_max
        assert curve.segments[-1].q_to == curve.q_max
        for seg in curve.segments:
            for q in range(seg.q_from, seg.q_to + 1):
                assert curve.total_cost(q) - curve.total_cost(q - 1) == seg.mc

    def test_out_of_range_queries_raise(self):
        net = mknet([("A", "B", 1, 5)])
        curve = total_cost_curve(net, Allocation(), VirtualChannel("A", "B", "x"), 5)
        with pytest.raises(ValueError):
            curve.total_cost(2)
        with pytest.raises(ValueError):
            curve.total_cost(-1)

    def test_tc_at_qmax_matches_exact_solver_on_parallel_routes(self):
        rng = random.Random(31)
        checked = 0
        for tag in range(50):
            net = random_parallel_routes_net(rng, 500 + tag)
            vc = VirtualChannel("S", "T", "p")
            try:
                curve = total_cost_curve(net, Allocation(), vc, 4)
            except EmptyCurveError:
                continue
            q = min(curve.q_max, 4)
            _delta, exact = brute_force_rwa(net, Allocation(), vc, q)
            assert curve.total_cost(q) == exact
            checked += 1
        assert checked >= 15


class TestMarginalCost:
    def test_single_link(self):
        net = mknet([("A", "B", 2, 5)])
        assert marginal_cost(net, Allocation(), VirtualChannel("A", "B", "x")) == 5

    def test_after_cheap_route_fills(self):
        net = two_route_net()
        delta, _ = incremental_allocate(net, Allocation(), VC_SEA_BOS, 8)
        state = apply_delta(net, Allocation(), delta)
        assert marginal_cost(net, state, VC_SEA_BOS) == 170

    def test_saturated_is_infeasible(self):
        net = mknet([("A", "B", 1, 5)])
        vc = VirtualChannel("A", "B", "x")
        delta, _ = incremental_allocate(net, Allocation(), vc, 1)
        state = apply_delta(net, Allocation(), delta)
        with pytest.raises(InfeasibleError):
            marginal_cost(net, state, vc)

    def test_equals_first_curve_segment_on_fuzzed_nets(self, rng):
        checked = 0
        for tag in range(40):
            net = random_parallel_routes_net(rng, 900 + tag, max_routes=3, max_len=3, guard=False)
            vc = VirtualChannel("S", "T", "p")
            try:
                curve = total_cost_curve(net, Allocation(), vc, 6)
            except EmptyCurveError:
                continue
            assert marginal_cost(net, Allocation(), vc) == curve.segments[0].mc
            checked += 1
        assert checked >= 15


def random_probe_chain(rng, tag):
    """A small network with tight links and an isolated node ``ISO``, and every state of a chain of greedy commits on it."""
    nodes = [f"N{i}" for i in range(rng.randint(3, 6))]
    W = rng.randint(1, 6)
    keys = {link_key(nodes[rng.randrange(i)], nodes[i]) for i in range(1, len(nodes))}
    keys |= {link_key(*rng.sample(nodes, 2)) for _ in range(rng.randint(0, 2 * len(nodes)))}
    links = [Link(a, b, rng.randint(0, W), rng.randint(1, 9)) for a, b in sorted(keys)]
    net = make_network(f"probe{tag}", nodes + ["ISO"], links, W)
    states = [Allocation()]
    for k in range(rng.randint(1, 8)):
        src, dst = rng.sample(nodes, 2)
        grant, _ = incremental_allocate(net, states[-1], VirtualChannel(src, dst, f"P{k % 2}"), rng.randint(1, W))
        states.append(apply_delta(net, states[-1], grant))
    return net, states


class TestProbeIsGreedyPlacement:
    def test_marginal_cost_is_the_added_cost_of_one_greedy_unit(self):
        rng = random.Random(4141)
        priced = full = cut_off = 0
        for tag in range(150):
            net, states = random_probe_chain(rng, tag)
            nodes = sorted(net.nodes)
            for state in states:
                # as committed, rebuilt from its lightpaths, and unpickled
                for form in (state, Allocation(state.lightpaths), pickle.loads(pickle.dumps(state))):
                    vc = VirtualChannel(*rng.sample(nodes, 2), "V")
                    # probe first, so an unread form is probed before placement reads it
                    try:
                        mc = marginal_cost(net, form, vc)
                    except InfeasibleError:
                        mc = None
                    grant, added = incremental_allocate(net, form, vc, 1)
                    if not grant:
                        assert mc is None
                        with pytest.raises(EmptyCurveError):
                            total_cost_curve(net, form, vc, rng.randint(1, 4))
                        if "ISO" in (vc.src, vc.dst):
                            cut_off += 1
                        else:
                            full += 1
                        continue
                    assert mc == added == total_cost_curve(net, form, vc, rng.randint(1, 4)).segments[0].mc
                    priced += 1
        # capacity binds on many probes, and many reach the isolated node
        assert priced >= 500 and full >= 500 and cut_off >= 500


class TestMonotonicity:
    def test_mc_never_decreases_on_fuzzed_nets(self):
        rng = random.Random(606)
        checked = 0
        for tag in range(60):
            nodes = [f"N{i}" for i in range(rng.randint(3, 8))]
            links = {}
            order = nodes[:]
            rng.shuffle(order)
            for i in range(1, len(order)):
                a, b = order[rng.randrange(i)], order[i]
                key = (a, b) if a <= b else (b, a)
                links[key] = (key[0], key[1], rng.randint(1, 4), rng.randint(1, 50))
            for _ in range(rng.randint(0, 4)):
                a, b = rng.sample(nodes, 2)
                key = (a, b) if a <= b else (b, a)
                links.setdefault(key, (key[0], key[1], rng.randint(1, 4), rng.randint(1, 50)))
            net = mknet(list(links.values()), wavelength_count=rng.randint(1, 6), net_id=f"mono{tag}")
            vc = VirtualChannel(nodes[0], nodes[-1], "p")
            try:
                curve = total_cost_curve(net, Allocation(), vc, 10)
            except EmptyCurveError:
                continue
            mcs = [seg.mc for seg in curve.segments]
            assert mcs == sorted(mcs)
            assert curve.total_cost(0) == 0
            spans = [(seg.q_from, seg.q_to) for seg in curve.segments]
            assert spans[0][0] == 1
            for (a, b), (c, _d) in zip(spans, spans[1:]):
                assert c == b + 1
            checked += 1
        assert checked >= 25


def test_curve_csv_rows():
    net = two_route_net()
    curve = total_cost_curve(net, Allocation(), VC_SEA_BOS, 20)
    assert curve_csv_rows(curve) == [("VC1", 1, 8, 125), ("VC1", 9, 16, 170)]
