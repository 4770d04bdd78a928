import pickle
import pickletools
import random

import pytest

from wavebroker import (
    Allocation,
    ConflictError,
    Grant,
    InfeasibleError,
    InstanceTooLargeError,
    LightPath,
    NoPathError,
    VirtualChannel,
    apply_delta,
    brute_force_rwa,
    dump_allocation,
    incremental_allocate,
    marginal_cost,
    run_scenario,
    solve_min_cost_rwa,
    validate_allocation,
)
from wavebroker import _kernel, rwa, topology
from wavebroker.cli import load_scenario
from wavebroker.rwa import _fresh_conn_id, _hops_nodes, _link_masks, _net_tables, _path_tables
from wavebroker.topology import Link, link_key, make_network

from conftest import mknet, random_guard_instance, random_parallel_routes_net, scenario_path, two_route_net, VC_SEA_BOS

VC_AB = VirtualChannel("A", "B", "VC1")
SOLVERS = (solve_min_cost_rwa, brute_force_rwa)


def grant_of(conn, vc, *runs):
    """A grant from ``(hops, wavelengths)`` runs."""
    runs = tuple((hops, sum(1 << (w - 1) for w in ws)) for hops, ws in runs)
    return Grant(conn, vc, runs, sum(mask.bit_count() for _, mask in runs))


def used_on(net, state, key):
    """Wavelengths taken on link ``key``, read from the state's masks under ``net``."""
    return _link_masks(net, state)[_net_tables(net)[1][key]].bit_count()


def recounted_masks(net, state):
    """``net``'s link masks recounted from the state's lightpaths, in link-index order."""
    masks = dict.fromkeys(_net_tables(net)[0], 0)
    for lp in state.lightpaths:
        for u, v in lp.hops:
            key = link_key(u, v)
            if key in masks:
                masks[key] |= 1 << (lp.wavelength - 1)
    return list(masks.values())


def route1_count(delta):
    return sum(1 for lp in delta if lp.nodes() == ("SEA", "DEN", "BOS"))


def route2_count(delta):
    return sum(1 for lp in delta if lp.nodes() == ("SEA", "POR", "SLC", "KC", "CHI", "BOS"))


class TestSolve:
    def test_single_link_forced_placement(self):
        net = mknet([("A", "B", 2, 5)])
        delta, added = solve_min_cost_rwa(net, Allocation(), VC_AB, 1)
        assert added == 5
        assert len(delta) == 1
        assert delta[0].wavelength == 1  # tie-break takes the lowest index

    def test_two_route_overflow_split(self):
        net = two_route_net()
        delta, added = solve_min_cost_rwa(net, Allocation(), VC_SEA_BOS, 9)
        assert route1_count(delta) == 8
        assert route2_count(delta) == 1
        # consecutive units on one path share a run
        assert [(len(hops), mask) for hops, mask in delta.runs] == [(2, 0xFF), (5, 0x100)]
        assert added == 8 * 125 + 170

    def test_two_route_capacity_ceiling(self):
        net = two_route_net()
        _delta, added = solve_min_cost_rwa(net, Allocation(), VC_SEA_BOS, 16)
        assert added == 8 * 125 + 8 * 170
        with pytest.raises(InfeasibleError):
            solve_min_cost_rwa(net, Allocation(), VC_SEA_BOS, 17)

    def test_crossing_demands_infeasible_confirmed_by_oracle(self):
        # ring A-B-C-D with W=1: once one diagonal is placed, the other cannot be
        net = mknet([("A", "B", 1, 1), ("B", "C", 1, 1), ("C", "D", 1, 1), ("D", "A", 1, 1)], wavelength_count=1)
        for solve in SOLVERS:
            first, added = solve(net, Allocation(), VirtualChannel("A", "C", "d1"), 1)
            assert added == 2 and [lp.nodes() for lp in first] == [("A", "B", "C")]
            state = apply_delta(net, Allocation(), first)
            for other in SOLVERS:
                with pytest.raises(InfeasibleError):
                    other(net, state, VirtualChannel("B", "D", "d2"), 1)

    def test_empty_requests_cost_zero(self):
        # an empty request is a count below 1, refused before any search places or charges a unit
        net = mknet([("A", "B", 2, 5)])
        for count in (0, -1):
            with pytest.raises(ValueError, match="count must be >= 1"):
                solve_min_cost_rwa(net, Allocation(), VC_AB, count)

    def test_demand_above_wavelength_budget_infeasible(self):
        net = mknet([("A", "B", 5, 5)], wavelength_count=2)
        with pytest.raises(InfeasibleError, match="3 units need 3 distinct wavelengths"):
            solve_min_cost_rwa(net, Allocation(), VC_AB, 3)

    def test_existing_lightpaths_never_move(self):
        net = mknet([("A", "B", 3, 5)], wavelength_count=3)
        delta, _ = incremental_allocate(net, Allocation(), VC_AB, 2)
        state = apply_delta(net, Allocation(), delta)
        extra, added = solve_min_cost_rwa(net, state, VC_AB, 1)
        merged = apply_delta(net, state, extra)
        assert set(state.lightpaths) <= set(merged.lightpaths)
        assert merged.total_cost(net) == 15  # three units on the same 5-cost link
        assert added == 5

    def test_disconnected_vc_infeasible(self):
        net = mknet([("A", "B", 1, 1), ("C", "D", 1, 1)])
        with pytest.raises(InfeasibleError):
            solve_min_cost_rwa(net, Allocation(), VirtualChannel("A", "C", "x"), 1)

    def test_deterministic_under_link_permutation(self):
        base = [("A", "B", 1, 10), ("A", "C", 2, 1), ("C", "B", 1, 2), ("A", "D", 1, 4), ("D", "B", 2, 4)]
        ref_delta, ref_cost = solve_min_cost_rwa(mknet(base, 3), Allocation(), VC_AB, 2)
        rng = random.Random(5)
        for _ in range(5):
            shuffled = base[:]
            rng.shuffle(shuffled)
            delta, added = solve_min_cost_rwa(mknet(shuffled, 3), Allocation(), VC_AB, 2)
            assert added == ref_cost
            assert tuple(delta) == tuple(ref_delta)


class TestBruteForce:
    def test_guard_rejects_seven_nodes(self):
        links = [(f"N{i}", f"N{i+1}", 1, 1) for i in range(6)]
        net = mknet(links, wavelength_count=1)
        with pytest.raises(InstanceTooLargeError):
            brute_force_rwa(net, Allocation(), VirtualChannel("N0", "N6", "x"), 1)

    def test_guard_rejects_large_demand(self):
        net = mknet([("A", "B", 8, 1)], wavelength_count=3)
        with pytest.raises(InstanceTooLargeError):
            brute_force_rwa(net, Allocation(), VC_AB, 5)

    def test_empty_requests(self):
        net = mknet([("A", "B", 2, 5)])
        for count in (0, -1):
            with pytest.raises(ValueError, match="count must be >= 1"):
                brute_force_rwa(net, Allocation(), VC_AB, count)

    @staticmethod
    def assert_agree(net, state, vc, count):
        """Both solvers give the same grant and cost, or both raise InfeasibleError; True when feasible."""
        try:
            expected = brute_force_rwa(net, state, vc, count)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                solve_min_cost_rwa(net, state, vc, count)
            return False
        grant, added = solve_min_cost_rwa(net, state, vc, count)
        assert added == expected[1]
        assert tuple(grant) == tuple(expected[0])  # identical tie-breaks
        assert [lp.wavelength for lp in grant] == sorted({lp.wavelength for lp in grant})
        return True

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(1234)
        feasible = infeasible = 0
        for tag in range(80):
            if self.assert_agree(*random_guard_instance(rng, tag)):
                feasible += 1
            else:
                infeasible += 1
        assert feasible >= 20 and infeasible >= 5

    def test_oracle_equivalence_on_top_of_state(self):
        # place the channel once greedily, then solve for it again on top
        rng = random.Random(77)
        checked = 0
        for tag in range(40):
            net, state, vc, count = random_guard_instance(rng, 1000 + tag)
            grant, _ = incremental_allocate(net, state, vc, count)
            if not grant:
                continue
            checked += self.assert_agree(net, apply_delta(net, state, grant), vc, count)
        assert checked >= 10

    def test_solver_monotone_in_count(self):
        rng = random.Random(4321)
        checked = 0
        for tag in range(60):
            net, state, vc, count = random_guard_instance(rng, 2000 + tag)
            if count < 2:
                continue
            try:
                _, bigger = solve_min_cost_rwa(net, state, vc, count)
            except InfeasibleError:
                continue
            # whatever fits count units fits fewer, each one costing at least the cheapest path
            _, smaller = solve_min_cost_rwa(net, state, vc, count - 1)
            assert bigger >= smaller + _path_tables(net, vc)[1][0]
            checked += 1
        assert checked >= 10


class TestIncremental:
    def test_two_units_on_single_link(self):
        net = mknet([("A", "B", 2, 5)])
        delta, added = incremental_allocate(net, Allocation(), VC_AB, 2)
        assert added == 10
        assert [lp.wavelength for lp in delta] == [1, 2]

    def test_overflow_moves_to_next_cheapest_route(self):
        net = two_route_net()
        delta, _ = incremental_allocate(net, Allocation(), VC_SEA_BOS, 8)
        state = apply_delta(net, Allocation(), delta)
        extra, added = incremental_allocate(net, state, VC_SEA_BOS, 1)
        assert extra[0].nodes() == ("SEA", "POR", "SLC", "KC", "CHI", "BOS")
        assert added == 170

    def test_saturated_reports_zero_placed(self):
        net = mknet([("A", "B", 1, 5)])
        delta, _ = incremental_allocate(net, Allocation(), VC_AB, 1)
        state = apply_delta(net, Allocation(), delta)
        assert incremental_allocate(net, state, VC_AB, 1) == ((), 0)

    def test_partial_exhaustion_carries_delta(self):
        net = mknet([("A", "B", 3, 5)], wavelength_count=5)
        delta, added = incremental_allocate(net, Allocation(), VC_AB, 5)
        assert len(delta) == 3
        assert added == 15

    def test_disconnected_endpoints_place_nothing(self):
        net = mknet([("A", "B", 1, 1), ("C", "D", 1, 1)])
        assert incremental_allocate(net, Allocation(), VirtualChannel("A", "C", "x"), 2) == ((), 0)

    def test_count_must_be_positive(self):
        net = mknet([("A", "B", 1, 5)])
        with pytest.raises(ValueError):
            incremental_allocate(net, Allocation(), VC_AB, 0)

    def test_units_take_distinct_wavelengths_even_on_disjoint_routes(self):
        # two node-disjoint routes, one unit each; wavelength indices must differ
        net = mknet([("A", "B", 1, 5), ("A", "C", 1, 6), ("C", "B", 1, 6)], wavelength_count=4)
        delta, _ = incremental_allocate(net, Allocation(), VC_AB, 2)
        assert len({lp.wavelength for lp in delta}) == 2

    def test_greedy_matches_exact_on_parallel_route_instances(self):
        rng = random.Random(9)
        checked = 0
        for tag in range(60):
            net = random_parallel_routes_net(rng, tag)
            vc = VirtualChannel("S", "T", "p")
            q = rng.randint(1, min(4, net.wavelength_count))
            delta, added = incremental_allocate(net, Allocation(), vc, q)
            if len(delta) < q:
                with pytest.raises(InfeasibleError):
                    brute_force_rwa(net, Allocation(), vc, q)
                continue
            _exact_delta, exact = brute_force_rwa(net, Allocation(), vc, q)
            assert added == exact
            checked += 1
        assert checked >= 15

    def test_greedy_never_beats_exact_and_can_diverge(self):
        # crossing topology where the cheap middle path blocks both end links:
        # unit-at-a-time placement dead-ends while a joint solve fits two units
        net = mknet(
            [("S", "X", 1, 1), ("X", "T", 1, 10), ("S", "Y", 1, 10), ("Y", "T", 1, 1), ("X", "Y", 1, 1)],
            wavelength_count=2,
        )
        vc = VirtualChannel("S", "T", "p")
        delta, added = incremental_allocate(net, Allocation(), vc, 2)
        assert len(delta) == 1
        assert delta[0].cost(net) == added == 3
        for solve in SOLVERS:
            exact_grant, exact = solve(net, Allocation(), vc, 2)
            assert exact == 22
            assert [(lp.nodes(), lp.wavelength) for lp in exact_grant] == [(("S", "X", "T"), 1), (("S", "Y", "T"), 2)]


def unit_at_a_time(net, state, vc, count):
    """Reference greedy placement: one kernel call per unit."""
    try:
        hops, costs, link_lists, _alone = _path_tables(net, vc)
    except NoPathError:
        return (), 0
    conn = _fresh_conn_id(state, vc.label)
    _, _, caps, _ = _net_tables(net)
    masks = _link_masks(net, state).copy()
    allowed = (1 << net.wavelength_count) - 1
    delta = []
    added = 0
    for _ in range(count):
        p, w0 = _kernel.cheapest_placement(link_lists, costs, masks, caps, allowed)
        if p < 0:
            break
        bit = 1 << w0
        for li in link_lists[p]:
            masks[li] |= bit
        allowed &= ~bit
        delta.append(LightPath(conn, vc, w0 + 1, hops[p]))
        added += costs[p]
    return tuple(delta), added


def random_placement_case(rng, tag):
    """A random network with few distinct link costs (so path costs tie), tight
    capacities, prior occupancy from earlier connections, and a channel to place."""
    n_nodes = rng.randint(3, 7)
    nodes = [f"N{i}" for i in range(n_nodes)]
    W = rng.randint(1, 9)
    cost_pool = rng.choice([[1], [1, 2], [1, 2, 3], [2, 3, 5, 7]])
    links = {}
    for i in range(1, n_nodes):  # a random spanning tree keeps it connected
        a, b = nodes[rng.randrange(i)], nodes[i]
        links[link_key(a, b)] = None
    for _ in range(rng.randint(0, n_nodes * 2)):
        a, b = rng.sample(nodes, 2)
        links[link_key(a, b)] = None
    net = make_network(
        f"place{tag}",
        nodes,
        [Link(a, b, rng.randint(0, W + 1), rng.choice(cost_pool)) for a, b in links],
        W,
    )
    state = Allocation()
    for k in range(rng.randint(0, 4)):
        src, dst = rng.sample(nodes, 2)
        delta, _ = unit_at_a_time(net, state, VirtualChannel(src, dst, f"P{k % 2}"), rng.randint(1, W))
        state = Allocation((*state.lightpaths, *delta))
    src, dst = rng.sample(nodes, 2)
    return net, state, VirtualChannel(src, dst, "V"), rng.randint(1, W + 2)


class TestPathAtATime:
    def test_matches_the_unit_at_a_time_loop(self):
        rng = random.Random(2024)
        runs = tied = short = 0
        for tag in range(600):
            net, state, vc, count = random_placement_case(rng, tag)
            delta, added = incremental_allocate(net, state, vc, count)
            ref_delta, ref_added = unit_at_a_time(net, state, vc, count)
            # same order, connection, wavelengths and hop tuples (the cached objects themselves)
            assert delta == ref_delta
            assert all(a.hops is b.hops for a, b in zip(delta, ref_delta))
            assert added == ref_added
            if len(delta) < count:
                short += 1
            if any(a.hops is b.hops for a, b in zip(delta, delta[1:])):
                runs += 1
            try:
                _hops, costs, _links, alone = _path_tables(net, vc)
            except NoPathError:
                continue
            assert alone == tuple(costs.count(c) == 1 for c in costs)
            if delta and len(set(costs)) < len(costs):
                tied += 1
        # the cases cover multi-unit runs on one path, tied cost tiers and shortfalls
        assert runs >= 150 and tied >= 100 and 100 <= short <= 500

    def test_only_a_lone_cost_is_flagged(self):
        net = mknet(
            [("A", "B", 2, 5), ("A", "C", 2, 3), ("C", "B", 2, 3), ("A", "D", 2, 4), ("D", "B", 2, 2), ("A", "E", 2, 4), ("E", "B", 2, 4)],
            wavelength_count=4,
        )
        _hops, costs, _links, alone = _path_tables(net, VC_AB)
        assert costs == (5, 6, 6, 8)
        assert alone == (True, False, False, True)

    def test_each_candidate_cost_is_summed_once(self, monkeypatch):
        summed = []
        real = topology.path_cost

        def counted(net, path):
            summed.append(path)
            return real(net, path)

        monkeypatch.setattr(topology, "path_cost", counted)
        monkeypatch.setattr(rwa, "path_cost", counted, raising=False)
        rng = random.Random(9)
        nodes = "ABCDEF"
        links = [Link(a, b, 4, rng.choice((1, 2, 3))) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
        net = make_network("cost-once", nodes, links, 4)
        all_hops, costs, _links, _alone = _path_tables(net, VC_AB)
        paths = [_hops_nodes(hops) for hops in all_hops]
        assert len(paths) == 65
        assert sorted(summed) == sorted(paths)
        # cheapest first, ties by node labels, each with its own cost
        assert costs == tuple(real(net, p) for p in paths)
        assert list(zip(costs, paths)) == sorted(zip(costs, paths))

    def test_a_lone_path_fills_to_its_room(self):
        # the direct link is the only cost-5 path; it takes units up to its capacity of 3
        net = mknet([("A", "B", 3, 5), ("A", "C", 4, 4), ("C", "B", 4, 4)], wavelength_count=6)
        delta, added = incremental_allocate(net, Allocation(), VC_AB, 5)
        assert [(lp.nodes(), lp.wavelength) for lp in delta] == [
            (("A", "B"), 1), (("A", "B"), 2), (("A", "B"), 3), (("A", "C", "B"), 4), (("A", "C", "B"), 5)
        ]
        assert added == 3 * 5 + 2 * 8


    def test_fragmented_masks_with_room_ending_mid_block(self):
        """Wide ranges with scattered prior units: runs of free wavelengths, cut short by a link's room."""
        rng = random.Random(4242)
        # path costs 3, 4 and 6: each path is alone at its cost, so each pick fills a run
        links = [("A", "B", 3), ("A", "C", 2), ("C", "B", 2), ("A", "D", 3), ("D", "B", 3)]
        mid_block = multi_block = 0
        for tag in range(300):
            W = rng.randint(12, 70)
            net = make_network(f"frag{tag}", "ABCD", [Link(a, b, rng.randint(2, W), c) for a, b, c in links], W)
            state = Allocation(
                LightPath(f"old#{i}", VirtualChannel(a, b, "old"), w, ((a, b),))
                for i, (a, b, _) in enumerate(links)
                for w in rng.sample(range(1, W + 1), rng.randint(0, W // 3))
            )
            count = rng.randint(2, W)
            delta, added = incremental_allocate(net, state, VC_AB, count)
            assert (delta, added) == unit_at_a_time(net, state, VC_AB, count)
            if not delta:
                continue
            # a run with a gap in its mask spans more than one block of free wavelengths
            multi_block += any(mask & (mask + (mask & -mask)) for _, mask in delta.runs)
            # did the first run stop at its path's room, with the next wavelength up still free?
            hops, take = delta.runs[0]
            all_hops, _costs, link_lists, _alone = _path_tables(net, VC_AB)
            path = all_hops.index(hops)
            masks, caps = _link_masks(net, state), _net_tables(net)[2]
            room = min(caps[li] - masks[li].bit_count() for li in link_lists[path])
            taken = 0
            for li in link_lists[path]:
                taken |= masks[li]
            if take.bit_count() == room < count and take.bit_length() < W and not taken >> take.bit_length() & 1:
                mid_block += 1
        assert mid_block >= 100 and multi_block >= 100


class TestApplyDelta:
    def test_apply_then_conflict(self):
        net = mknet([("A", "B", 2, 5)])
        delta, _ = incremental_allocate(net, Allocation(), VC_AB, 1)
        state = apply_delta(net, Allocation(), delta)
        assert len(state.lightpaths) == 1
        with pytest.raises(ConflictError):
            apply_delta(net, state, delta)

    def test_empty_delta_is_identity(self):
        net = mknet([("A", "B", 2, 5)])
        delta, _ = incremental_allocate(net, Allocation(), VC_AB, 2)
        state = apply_delta(net, Allocation(), delta)
        empty, added = incremental_allocate(net, state, VC_AB, 1)
        assert (len(empty), added) == (0, 0)
        assert apply_delta(net, state, empty) is state

    @staticmethod
    def assert_same_index(net, state, whole):
        assert state.lightpaths == whole.lightpaths
        for key in net.link_by_key:
            recount = sum(link_key(u, v) == key for lp in state.lightpaths for u, v in lp.hops)
            assert used_on(net, state, key) == used_on(net, whole, key) == recount
        # the next placement on an already used label gets the same cells and connection id
        nodes = sorted(net.nodes)
        vc = VirtualChannel(nodes[0], nodes[-1], "V0")
        assert incremental_allocate(net, state, vc, 2) == incremental_allocate(net, whole, vc, 2)

    def test_chain_of_deltas_matches_one_construction(self):
        rng = random.Random(808)
        for tag in range(40):
            net, *_ = random_guard_instance(rng, 5000 + tag)
            nodes = sorted(net.nodes)
            chain = [Allocation()]
            for step in range(rng.randint(1, 6)):
                src, dst = rng.sample(nodes, 2)
                vc = VirtualChannel(src, dst, f"V{step % 2}")
                delta, _ = incremental_allocate(net, chain[-1], vc, rng.randint(1, 3))
                chain.append(apply_delta(net, chain[-1], delta))
            # every state of the chain, parents included, still indexes its own lightpaths
            for state in chain:
                self.assert_same_index(net, state, Allocation(state.lightpaths))
            state, whole = chain[-1], Allocation(chain[-1].lightpaths)
            assert validate_allocation(net, state) == []
            # both index the same cells, so the next placement agrees too
            src, dst = rng.sample(nodes, 2)
            vc = VirtualChannel(src, dst, "probe")
            assert incremental_allocate(net, state, vc, 2) == incremental_allocate(net, whole, vc, 2)


class TestStateView:
    """A committed state keeps one list of link masks for its network, and nothing writes it."""

    def test_every_commit_carries_the_view_forward(self):
        rng = random.Random(3131)
        commits = empty = 0
        for tag in range(150):
            net, state, vc, count = random_placement_case(rng, tag)
            nodes = sorted(net.nodes)
            keys = _net_tables(net)[0]
            for step in range(rng.randint(1, 6)):
                vc = VirtualChannel(*rng.sample(nodes, 2), f"V{step % 2}")
                grant, _ = incremental_allocate(net, state, vc, rng.randint(1, 4))
                kept = state._masks
                before = None if kept is None else list(kept)
                child = apply_delta(net, state, grant)
                if grant:
                    # copied from the parent's masks and extended, equal to a rebuild from the lightpaths
                    assert child._keys is keys and child._masks is not kept
                    assert child._masks == recounted_masks(net, child) == _link_masks(net, Allocation(child.lightpaths))
                    commits += 1
                else:
                    assert child is state
                    empty += 1
                assert state._masks is kept and (kept is None or kept == before)
                state = child
        assert commits >= 200 and empty >= 50

    def test_placement_probes_and_solvers_leave_the_view_as_it_was(self):
        rng = random.Random(3232)
        multi = bound = 0
        for tag in range(300):
            net, state, vc, count = random_guard_instance(rng, 9000 + tag)
            keys, kept = state._keys, state._masks
            before = None if kept is None else list(kept)
            bound += kept is not None
            try:
                marginal_cost(net, state, vc)
            except InfeasibleError:
                pass
            grant, _ = incremental_allocate(net, state, vc, count)
            multi += len(grant.runs) > 1
            for solve in SOLVERS:
                try:
                    solve(net, state, vc, count)
                except InfeasibleError:
                    pass
            assert state._keys is keys and state._masks is kept and (kept is None or kept == before)
            assert _link_masks(net, state) == recounted_masks(net, state)
        # some placements wrote between kernel picks, on their own copy
        assert multi >= 20 and bound >= 100

    def test_a_conflict_leaves_the_parent_untouched(self):
        net = mknet([("A", "B", 3, 5), ("B", "C", 3, 5)], wavelength_count=3)
        vc = VirtualChannel("A", "C", "x")
        grant, _ = incremental_allocate(net, Allocation(), vc, 2)
        state = apply_delta(net, Allocation(), grant)
        kept = state._masks
        # the first run is ORed cleanly into the child's copy, the second clashes
        clash = grant_of("c9", vc, ((("A", "B"),), [3]), ((("B", "C"),), [1]))
        with pytest.raises(ConflictError):
            apply_delta(net, state, clash)
        assert _link_masks(net, state) is kept and kept == [0b11, 0b11]
        assert marginal_cost(net, state, vc) == 10

    def test_each_network_reads_its_own_masks(self):
        line = mknet([("A", "B", 3, 5), ("B", "C", 3, 5)], wavelength_count=4, net_id="line")
        triangle = mknet([("A", "B", 3, 5), ("A", "C", 3, 1), ("B", "C", 3, 5)], wavelength_count=4, net_id="triangle")
        a_c, a_b = VirtualChannel("A", "C", "x"), VirtualChannel("A", "B", "y")
        grant, _ = incremental_allocate(triangle, Allocation(), a_c, 2)
        state = apply_delta(triangle, Allocation(), grant)
        grant, _ = incremental_allocate(line, state, a_b, 3)
        state = apply_delta(line, state, grant)
        kept = state._masks
        assert state._keys is _net_tables(line)[0] and kept == [0b111, 0]
        for net in (line, triangle, line, triangle):
            assert _link_masks(net, state) == recounted_masks(net, state)
            if net is line:
                # A-B is full, so nothing reaches C on the line
                with pytest.raises(InfeasibleError):
                    marginal_cost(net, state, a_c)
            else:
                # built from the grants for this read, and not kept
                assert _link_masks(net, state) is not _link_masks(net, state)
                assert marginal_cost(net, state, a_c) == 1
                assert marginal_cost(net, state, a_b) == 6
        assert state._keys is _net_tables(line)[0] and state._masks is kept and kept == [0b111, 0]

    def test_a_hop_outside_the_network_is_refused(self):
        net = mknet([("A", "B", 3, 5)], wavelength_count=3)
        state = apply_delta(net, Allocation(), grant_of("c1", VC_AB, ((("A", "B"),), [2])))
        vc = VirtualChannel("A", "Z", "z")
        for hops, missing in (((("A", "Z"),), "A', 'Z"), ((("A", "B"), ("B", "Z")), "B', 'Z")):
            with pytest.raises(ValueError, match=f"z1: no link \\('{missing}'\\) in network 'net'"):
                apply_delta(net, state, grant_of("z1", vc, (hops, [1])))
            assert state._masks == [0b10] and len(state.lightpaths) == 1
        assert marginal_cost(net, state, VC_AB) == 5

    def test_unbound_states_place_cost_and_dump_like_committed_ones(self):
        rng = random.Random(3333)
        checked = 0
        for tag in range(60):
            net, state, vc, count = random_guard_instance(rng, 9500 + tag)
            if state._masks is None:
                continue
            grant, added = incremental_allocate(net, state, vc, count)
            for other in (pickle.loads(pickle.dumps(state)), Allocation(state.lightpaths)):
                assert other._keys is None and other._masks is None
                assert _link_masks(net, other) == state._masks
                assert rwa.next_unit_cost(net, other, vc) == rwa.next_unit_cost(net, state, vc)
                assert incremental_allocate(net, other, vc, count) == (grant, added)
                for solve in SOLVERS:
                    try:
                        want = solve(net, state, vc, count)
                    except InfeasibleError:
                        with pytest.raises(InfeasibleError):
                            solve(net, other, vc, count)
                    else:
                        assert solve(net, other, vc, count) == want
                assert other.total_cost(net) == state.total_cost(net)
                assert dump_allocation(net, other) == dump_allocation(net, state)
                child, ref = apply_delta(net, other, grant), apply_delta(net, state, grant)
                assert child.lightpaths == ref.lightpaths and _link_masks(net, child) == _link_masks(net, ref)
                assert other._masks is None
            checked += 1
        assert checked >= 30

    def test_the_view_is_not_pickled(self):
        report = run_scenario(load_scenario(scenario_path("two_route_costcurve")))
        for nid, state in report.final_states.items():
            assert state._masks is not None
            data = pickle.dumps(state)
            # grants and connection counts only: the masks are the one list in a state
            assert "EMPTY_LIST" not in {op.name for op, _, _ in pickletools.genops(data)}
            copy = pickle.loads(data)
            assert copy._keys is None and copy._masks is None and pickle.dumps(copy) == data
            assert _link_masks(report.networks[nid], copy) == state._masks


class TestValidator:
    def test_solver_output_is_clean(self):
        rng = random.Random(55)
        checked = 0
        for tag in range(60):
            net, state, vc, count = random_guard_instance(rng, 3000 + tag)
            try:
                grant, _ = solve_min_cost_rwa(net, state, vc, count)
            except InfeasibleError:
                continue
            assert validate_allocation(net, apply_delta(net, state, grant), {grant.conn: count}) == []
            checked += 1
        assert checked >= 10

    def test_flags_discontinuous_hops(self):
        net = mknet([("A", "B", 2, 5), ("B", "C", 2, 5), ("C", "D", 2, 5)])
        lp = LightPath("c1", VirtualChannel("A", "D", "x"), 1, (("A", "B"), ("C", "D")))
        vios = validate_allocation(net, Allocation([lp]))
        assert "continuity" in {v.code for v in vios}

    def test_flags_wrong_endpoints(self):
        net = mknet([("A", "B", 2, 5)])
        lp = LightPath("c1", VirtualChannel("B", "A", "x"), 1, (("A", "B"),))
        vios = validate_allocation(net, Allocation([lp]))
        assert "path-shape" in {v.code for v in vios}

    def test_flags_capacity_overrun(self):
        net = mknet([("A", "B", 1, 5)], wavelength_count=3)
        lps = [
            LightPath("c1", VC_AB, 1, (("A", "B"),)),
            LightPath("c2", VC_AB, 2, (("A", "B"),)),
        ]
        vios = validate_allocation(net, Allocation(lps))
        assert "capacity" in {v.code for v in vios}

    def test_flags_shared_wavelength_within_connection(self):
        net = mknet([("A", "B", 2, 5), ("A", "C", 2, 5), ("C", "B", 2, 5)], wavelength_count=3)
        lps = [
            LightPath("c1", VC_AB, 1, (("A", "B"),)),
            LightPath("c1", VC_AB, 1, (("A", "C"), ("C", "B"))),
        ]
        vios = validate_allocation(net, Allocation(lps))
        assert "demand-count" in {v.code for v in vios}

    def test_flags_unknown_link_and_wavelength_range(self):
        net = mknet([("A", "B", 2, 5)], wavelength_count=2)
        lp = LightPath("c1", VC_AB, 9, (("A", "B"),))
        vios = validate_allocation(net, Allocation([lp]))
        assert "wavelength-range" in {v.code for v in vios}
        lp2 = LightPath("c2", VirtualChannel("A", "Z", "z"), 1, (("A", "Z"),))
        vios2 = validate_allocation(net, Allocation([lp2]))
        assert "unknown-link" in {v.code for v in vios2}

    def test_wavelength_zero_raises_and_above_range_is_kept_and_flagged(self):
        net = mknet([("A", "B", 3, 5)], wavelength_count=3)
        zero = LightPath("c1", VC_AB, 0, (("A", "B"),))
        with pytest.raises(ValueError, match="wavelength 0 is below 1"):
            Allocation([zero])
        high = LightPath("c1", VC_AB, 4, (("A", "B"),))
        state = Allocation([high])
        assert state.lightpaths == (high,)
        assert used_on(net, state, ("A", "B")) == 1
        assert [v.code for v in validate_allocation(net, state)] == ["wavelength-range"]
        with pytest.raises(ConflictError):
            apply_delta(net, state, grant_of("c2", VC_AB, ((("B", "A"),), [4])))
        # placement takes only wavelengths 1..W, and W+1 still counts against capacity 3
        delta, _ = incremental_allocate(net, state, VC_AB, 2)
        assert [lp.wavelength for lp in delta] == [1, 2]
        exact, _ = solve_min_cost_rwa(net, state, VC_AB, 2)
        assert sorted(lp.wavelength for lp in exact) == [1, 2]
        assert incremental_allocate(net, apply_delta(net, state, delta), VC_AB, 1) == ((), 0)

    def test_verdict_comes_from_lightpaths_not_the_index(self):
        net = mknet([("A", "B", 2, 5), ("A", "C", 2, 5), ("C", "B", 2, 5)], wavelength_count=3)
        clean = Allocation(
            [
                LightPath("c1", VC_AB, 1, (("A", "B"),)),
                LightPath("c1", VC_AB, 2, (("A", "B"),)),
            ]
        )
        keys = _net_tables(net)[0]
        clean._conn_counts["c1"] = 5
        clean._conn_counts["ghost"] = 1
        clean._keys, clean._masks = keys, [0b111, 0b111, 0b111]
        assert validate_allocation(net, clean, demands={"c1": 2}) == []
        shared = Allocation(
            [
                LightPath("c1", VC_AB, 1, (("A", "B"),)),
                LightPath("c1", VC_AB, 1, (("A", "C"), ("C", "B"))),
            ]
        )
        shared._conn_counts["c1"] = 1
        shared._keys, shared._masks = keys, [0, 0, 0]
        vios = validate_allocation(net, shared, demands={"c1": 2})
        assert [v.code for v in vios] == ["demand-count"]
        assert "share a wavelength" in vios[0].detail

    def test_flags_demand_count_mismatch(self):
        net = mknet([("A", "B", 2, 5)])
        lp = LightPath("c1", VC_AB, 1, (("A", "B"),))
        vios = validate_allocation(net, Allocation([lp]), demands={"c1": 2})
        assert "demand-count" in {v.code for v in vios}

    def test_grouped_commit_clash_inside_one_path_run(self):
        net = mknet([("A", "B", 4, 1), ("B", "C", 4, 1)], wavelength_count=4)
        hops = (("A", "B"), ("B", "C"))
        vc = VirtualChannel("A", "C", "x")
        with pytest.raises(ConflictError, match="w=2"):
            apply_delta(net, Allocation(), grant_of("c1", vc, (hops, [1, 2, 3]), (hops, [2])))
        with pytest.raises(ConflictError):
            Allocation([LightPath("c1", vc, w, hops) for w in (1, 2, 3, 2)])
        # a hop tuple that crosses one link twice clashes with itself
        with pytest.raises(ConflictError):
            apply_delta(net, Allocation(), grant_of("c1", vc, ((("A", "B"), ("B", "A")), [1])))

    def test_grouped_commit_clash_across_two_paths(self):
        net = mknet([("A", "B", 4, 1), ("B", "C", 4, 1), ("A", "D", 4, 1), ("D", "B", 4, 1)], wavelength_count=4)
        vc = VirtualChannel("A", "C", "x")
        upper, lower = (("A", "B"), ("B", "C")), (("A", "D"), ("D", "B"), ("B", "C"))
        state = apply_delta(net, Allocation(), grant_of("c1", vc, (upper, [1, 2]), (lower, [3, 4])))
        assert used_on(net, state, ("B", "C")) == 4 and used_on(net, state, ("A", "D")) == 2
        with pytest.raises(ConflictError, match=r"w=2"):
            apply_delta(net, Allocation(), grant_of("c1", vc, (upper, [1, 2]), (lower, [2, 3])))

    def test_grouped_commit_clash_against_the_state(self):
        net = mknet([("A", "B", 4, 1), ("B", "C", 4, 1)], wavelength_count=4)
        vc = VirtualChannel("A", "C", "x")
        state = apply_delta(net, Allocation(), grant_of("c0", vc, ((("B", "C"),), [3])))
        hops = (("A", "B"), ("B", "C"))
        with pytest.raises(ConflictError, match=r"cell \('B', 'C'\) w=3"):
            apply_delta(net, state, grant_of("c1", vc, (hops, [1, 2, 3, 4])))
        # the parent is untouched and the same run without the taken wavelength commits
        assert used_on(net, state, ("A", "B")) == 0 and used_on(net, state, ("B", "C")) == 1
        child = apply_delta(net, state, grant_of("c1", vc, (hops, [1, 2, 4])))
        assert used_on(net, child, ("A", "B")) == 3 and used_on(net, child, ("B", "C")) == 4

    def test_cell_conflicts_rejected_at_construction(self):
        with pytest.raises(ConflictError):
            Allocation(
                [
                    LightPath("c1", VC_AB, 1, (("A", "B"),)),
                    LightPath("c2", VC_AB, 1, (("B", "A"),)),
                ]
            )


class TestDump:
    def test_dump_format(self):
        net = mknet([("A", "B", 2, 5)])
        delta, _ = incremental_allocate(net, Allocation(), VC_AB, 2)
        state = apply_delta(net, Allocation(), delta)
        assert dump_allocation(net, state) == [
            "VC1 w=1 path=A-B cost=5",
            "VC1 w=2 path=A-B cost=5",
        ]

    def test_costs_are_read_once_per_hop_tuple(self, monkeypatch):
        net = two_route_net()
        delta, added = incremental_allocate(net, Allocation(), VC_SEA_BOS, 12)
        state = apply_delta(net, Allocation(), delta)
        real = rwa._hops_cost
        calls = []
        monkeypatch.setattr(rwa, "_hops_cost", lambda n, hops: calls.append(hops) or real(n, hops))
        assert state.total_cost(net) == added == 8 * 125 + 4 * 170
        assert len(calls) == 2
        calls.clear()
        lines = dump_allocation(net, state)
        assert len(calls) == 2
        assert lines[0] == "VC1 w=1 path=SEA-DEN-BOS cost=125"
        assert lines[-1] == "VC1 w=12 path=SEA-POR-SLC-KC-CHI-BOS cost=170"


    def test_a_shared_wavelength_keeps_lightpath_order(self):
        # an invalid state built from lightpaths: two units of c1 on wavelength 2
        net = mknet([("A", "B", 3, 5), ("A", "C", 3, 1), ("C", "B", 3, 1)], wavelength_count=3)
        state = Allocation(
            [
                LightPath("c1", VC_AB, 2, (("A", "C"), ("C", "B"))),
                LightPath("c1", VC_AB, 1, (("A", "C"), ("C", "B"))),
                LightPath("c1", VC_AB, 2, (("A", "B"),)),
                LightPath("c0", VC_AB, 3, (("A", "B"),)),
            ]
        )
        assert dump_allocation(net, state) == [
            "VC1 w=3 path=A-B cost=5",
            "VC1 w=1 path=A-C-B cost=2",
            "VC1 w=2 path=A-C-B cost=2",
            "VC1 w=2 path=A-B cost=5",
        ]


class TestGrant:
    # three channels over a 4-node ring with a chord; each has two routes
    ROUTES = {
        "c1": (VirtualChannel("A", "C", "V1"), ((("A", "B"), ("B", "C")), (("A", "D"), ("D", "C")))),
        "c2": (VirtualChannel("B", "D", "V2"), ((("B", "C"), ("C", "D")), (("B", "A"), ("A", "D")))),
        "c3": (VirtualChannel("A", "C", "V1"), ((("A", "C"),), (("A", "B"), ("B", "C")))),
    }
    RING = mknet([(a, b, 6, 1) for a, b in ("AB", "BC", "CD", "AD", "AC")], wavelength_count=6)

    def random_lightpaths(self, rng, n):
        """Up to ``n`` lightpaths on distinct cells, in random order, some on equal but not identical hops."""
        lps, cells = [], set()
        for _ in range(n):
            conn = rng.choice(sorted(self.ROUTES))
            vc, routes = self.ROUTES[conn]
            hops = rng.choice(routes)
            if rng.random() < 0.3:
                hops = tuple(list(hops))
            w = rng.randint(1, 6)
            mine = {(link_key(u, v), w) for u, v in hops}
            if mine & cells or any(lp.conn == conn and lp.wavelength == w for lp in lps):
                continue
            cells |= mine
            lps.append(LightPath(conn, vc, w, hops))
        return lps

    def test_lightpaths_round_trip_through_grants(self):
        rng = random.Random(4242)
        interleaved = clashes = 0
        for _ in range(400):
            lps = self.random_lightpaths(rng, rng.randint(1, 10))
            interleaved += any(a.conn != b.conn for a, b in zip(lps, lps[1:]))
            state = Allocation(lps)
            assert state.lightpaths == tuple(lps)
            # a copy rebuilds them from the grants' runs alone
            assert pickle.loads(pickle.dumps(state)).lightpaths == tuple(lps)
            assert len(state.lightpaths) == len(lps)
            assert all(got is lp for got, lp in zip(state.lightpaths, lps))
            for key in {link_key(u, v) for lp in lps for u, v in lp.hops}:
                assert used_on(self.RING, state, key) == sum(link_key(u, v) == key for lp in lps for u, v in lp.hops)
            assert state._conn_counts == {c: sum(lp.conn == c for lp in lps) for c in {lp.conn for lp in lps}}
            # repeating any one of them, anywhere after it, takes a cell twice
            i = rng.randrange(len(lps))
            again = lps[: i + 1] + lps[i + 1 :][: rng.randint(0, 3)] + [lps[i]]
            with pytest.raises(ConflictError):
                Allocation(again)
            clashes += 1
        assert interleaved >= 200 and clashes == 400

    def test_a_grant_and_its_lightpaths_commit_alike(self):
        rng = random.Random(919)
        runs = empty = 0
        for tag in range(60):
            links = [("S", "T", rng.randint(1, 6), rng.randint(1, 9))]
            for m in range(rng.randint(1, 3)):
                cap, cost = rng.randint(1, 6), rng.randint(1, 9)
                links += [("S", f"M{m}", cap, cost), (f"M{m}", "T", cap, cost)]
            net = mknet(links, wavelength_count=rng.randint(2, 8), net_id=f"grant{tag}")
            state = Allocation()
            for step in range(6):
                vc = VirtualChannel("S", "T", f"V{step % 2}")
                grant, added = incremental_allocate(net, state, vc, rng.randint(1, 6))
                assert len(grant) == len(tuple(grant)) == sum(mask.bit_count() for _, mask in grant.runs)
                assert added == sum(lp.cost(net) for lp in grant)
                runs += any(mask & (mask - 1) for _, mask in grant.runs)
                empty += not grant
                by_grant, by_tuple = apply_delta(net, state, grant), Allocation((*state.lightpaths, *grant))
                assert by_tuple._masks is None and _link_masks(net, by_grant) == _link_masks(net, by_tuple)
                assert by_grant.lightpaths == by_tuple.lightpaths == (*state.lightpaths, *grant)
                for key in net.link_by_key:
                    assert used_on(net, by_grant, key) == used_on(net, by_tuple, key)
                assert _fresh_conn_id(by_grant, "x") == _fresh_conn_id(by_tuple, "x")
                state = by_grant
        assert runs >= 80 and empty >= 50

    def test_a_clash_before_a_wavelength_below_1_is_reported_first(self):
        lp = LightPath("c1", VC_AB, 1, (("A", "B"),))
        zero = LightPath("c1", VC_AB, 0, (("A", "B"),))
        with pytest.raises(ConflictError):
            Allocation([lp, lp, zero])
        with pytest.raises(ValueError):
            Allocation([lp, zero, lp])

    def test_an_unread_grant_pickles_as_its_runs(self):
        net = two_route_net()
        grant, _ = incremental_allocate(net, Allocation(), VC_SEA_BOS, 12)
        assert [(len(hops), mask) for hops, mask in grant.runs] == [(2, 0xFF), (5, 0xF00)]
        data = pickle.dumps(grant)
        assert b"LightPath" not in data
        assert pickle.loads(data) == grant and len(pickle.loads(data)) == 12
        list(grant)
        assert pickle.dumps(grant) == data
