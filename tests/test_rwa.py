import random

import pytest

from wavebroker import (
    Allocation,
    ConflictError,
    DemandRequest,
    InfeasibleError,
    InstanceTooLargeError,
    LightPath,
    VirtualChannel,
    apply_delta,
    brute_force_rwa,
    dump_allocation,
    incremental_allocate,
    solve_min_cost_rwa,
    validate_allocation,
)

from conftest import mknet, random_guard_instance, random_parallel_routes_net, two_route_net, VC_SEA_BOS

VC_AB = VirtualChannel("A", "B", "VC1")


def route1_count(delta):
    return sum(1 for lp in delta if lp.nodes() == ("SEA", "DEN", "BOS"))


def route2_count(delta):
    return sum(1 for lp in delta if lp.nodes() == ("SEA", "POR", "SLC", "KC", "CHI", "BOS"))


class TestSolve:
    def test_single_link_forced_placement(self):
        net = mknet([("A", "B", 2, 5)])
        sol = solve_min_cost_rwa(net, Allocation.empty(), [DemandRequest(VC_AB, 1)])
        assert sol.total_cost == 5
        assert sol.optimal
        assert len(sol.delta) == 1
        assert sol.delta[0].wavelength == 1  # tie-break takes the lowest index

    def test_two_route_overflow_split(self):
        net = two_route_net()
        sol = solve_min_cost_rwa(net, Allocation.empty(), [DemandRequest(VC_SEA_BOS, 9)])
        assert route1_count(sol.delta) == 8
        assert route2_count(sol.delta) == 1
        assert sol.total_cost == 8 * 125 + 170

    def test_two_route_capacity_ceiling(self):
        net = two_route_net()
        sol = solve_min_cost_rwa(net, Allocation.empty(), [DemandRequest(VC_SEA_BOS, 16)])
        assert sol.total_cost == 8 * 125 + 8 * 170
        with pytest.raises(InfeasibleError):
            solve_min_cost_rwa(net, Allocation.empty(), [DemandRequest(VC_SEA_BOS, 17)])

    def test_crossing_demands_infeasible_confirmed_by_oracle(self):
        # ring A-B-C-D with W=1: the two diagonal connections cannot coexist
        net = mknet([("A", "B", 1, 1), ("B", "C", 1, 1), ("C", "D", 1, 1), ("D", "A", 1, 1)], wavelength_count=1)
        requests = [
            DemandRequest(VirtualChannel("A", "C", "d1"), 1),
            DemandRequest(VirtualChannel("B", "D", "d2"), 1),
        ]
        with pytest.raises(InfeasibleError):
            brute_force_rwa(net, Allocation.empty(), requests)
        with pytest.raises(InfeasibleError):
            solve_min_cost_rwa(net, Allocation.empty(), requests)

    def test_empty_requests_cost_zero(self):
        net = mknet([("A", "B", 2, 5)])
        sol = solve_min_cost_rwa(net, Allocation.empty(), [])
        assert sol.total_cost == 0
        assert sol.delta == ()

    def test_demand_above_wavelength_budget_infeasible(self):
        net = mknet([("A", "B", 5, 5)], wavelength_count=2)
        with pytest.raises(InfeasibleError):
            solve_min_cost_rwa(net, Allocation.empty(), [DemandRequest(VC_AB, 3)])

    def test_existing_lightpaths_never_move(self):
        net = mknet([("A", "B", 3, 5)], wavelength_count=3)
        delta, _ = incremental_allocate(net, Allocation.empty(), VC_AB, 2)
        state = apply_delta(Allocation.empty(), delta)
        sol = solve_min_cost_rwa(net, state, [DemandRequest(VC_AB, 1)])
        assert set(state.lightpaths) <= set(sol.allocation.lightpaths)
        assert sol.total_cost == 15  # three units on the same 5-cost link
        assert sol.added_cost == 5

    def test_disconnected_vc_infeasible(self):
        net = mknet([("A", "B", 1, 1), ("C", "D", 1, 1)])
        with pytest.raises(InfeasibleError):
            solve_min_cost_rwa(net, Allocation.empty(), [DemandRequest(VirtualChannel("A", "C", "x"), 1)])

    def test_deterministic_under_link_permutation(self):
        base = [("A", "B", 1, 10), ("A", "C", 2, 1), ("C", "B", 1, 2), ("A", "D", 1, 4), ("D", "B", 2, 4)]
        requests = [DemandRequest(VC_AB, 2)]
        reference = solve_min_cost_rwa(mknet(base, 3), Allocation.empty(), requests)
        rng = random.Random(5)
        for _ in range(5):
            shuffled = base[:]
            rng.shuffle(shuffled)
            again = solve_min_cost_rwa(mknet(shuffled, 3), Allocation.empty(), requests)
            assert again.total_cost == reference.total_cost
            assert set(again.delta) == set(reference.delta)


class TestBruteForce:
    def test_guard_rejects_seven_nodes(self):
        links = [(f"N{i}", f"N{i+1}", 1, 1) for i in range(6)]
        net = mknet(links, wavelength_count=1)
        with pytest.raises(InstanceTooLargeError):
            brute_force_rwa(net, Allocation.empty(), [DemandRequest(VirtualChannel("N0", "N6", "x"), 1)])

    def test_guard_rejects_large_demand(self):
        net = mknet([("A", "B", 8, 1)], wavelength_count=3)
        with pytest.raises(InstanceTooLargeError):
            brute_force_rwa(net, Allocation.empty(), [DemandRequest(VC_AB, 5)])

    def test_empty_requests(self):
        net = mknet([("A", "B", 2, 5)])
        sol = brute_force_rwa(net, Allocation.empty(), [])
        assert sol.total_cost == 0
        assert sol.delta == ()

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(1234)
        feasible = infeasible = 0
        for tag in range(80):
            net, requests = random_guard_instance(rng, tag)
            try:
                expected = brute_force_rwa(net, Allocation.empty(), requests)
            except InfeasibleError:
                infeasible += 1
                with pytest.raises(InfeasibleError):
                    solve_min_cost_rwa(net, Allocation.empty(), requests)
                continue
            got = solve_min_cost_rwa(net, Allocation.empty(), requests)
            assert got.total_cost == expected.total_cost
            assert set(got.delta) == set(expected.delta)  # identical tie-breaks
            feasible += 1
        assert feasible >= 20 and infeasible >= 5

    def test_oracle_equivalence_on_top_of_state(self):
        rng = random.Random(77)
        checked = 0
        for tag in range(40):
            net, requests = random_guard_instance(rng, 1000 + tag)
            try:
                seed_delta, _ = incremental_allocate(net, Allocation.empty(), requests[0].vc, 1)
            except InfeasibleError:
                continue
            state = apply_delta(Allocation.empty(), seed_delta)
            tail = requests[1:] or requests
            try:
                expected = brute_force_rwa(net, state, tail)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve_min_cost_rwa(net, state, tail)
                continue
            got = solve_min_cost_rwa(net, state, tail)
            assert got.total_cost == expected.total_cost
            assert set(got.delta) == set(expected.delta)
            checked += 1
        assert checked >= 10

    def test_solver_monotone_in_requests(self):
        rng = random.Random(4321)
        checked = 0
        for tag in range(60):
            net, requests = random_guard_instance(rng, 2000 + tag)
            if len(requests) < 2:
                continue
            try:
                smaller = solve_min_cost_rwa(net, Allocation.empty(), requests[:1])
                bigger = solve_min_cost_rwa(net, Allocation.empty(), requests)
            except InfeasibleError:
                continue
            assert bigger.total_cost >= smaller.total_cost
            checked += 1
        assert checked >= 10


class TestIncremental:
    def test_two_units_on_single_link(self):
        net = mknet([("A", "B", 2, 5)])
        delta, added = incremental_allocate(net, Allocation.empty(), VC_AB, 2)
        assert added == 10
        assert [lp.wavelength for lp in delta] == [1, 2]

    def test_overflow_moves_to_next_cheapest_route(self):
        net = two_route_net()
        delta, _ = incremental_allocate(net, Allocation.empty(), VC_SEA_BOS, 8)
        state = apply_delta(Allocation.empty(), delta)
        extra, added = incremental_allocate(net, state, VC_SEA_BOS, 1)
        assert extra[0].nodes() == ("SEA", "POR", "SLC", "KC", "CHI", "BOS")
        assert added == 170

    def test_saturated_reports_zero_placed(self):
        net = mknet([("A", "B", 1, 5)])
        delta, _ = incremental_allocate(net, Allocation.empty(), VC_AB, 1)
        state = apply_delta(Allocation.empty(), delta)
        with pytest.raises(InfeasibleError) as err:
            incremental_allocate(net, state, VC_AB, 1)
        assert err.value.placed == 0

    def test_partial_exhaustion_carries_delta(self):
        net = mknet([("A", "B", 3, 5)], wavelength_count=5)
        with pytest.raises(InfeasibleError) as err:
            incremental_allocate(net, Allocation.empty(), VC_AB, 5)
        assert err.value.placed == 3
        assert len(err.value.delta) == 3
        assert err.value.added_cost == 15

    def test_count_must_be_positive(self):
        net = mknet([("A", "B", 1, 5)])
        with pytest.raises(ValueError):
            incremental_allocate(net, Allocation.empty(), VC_AB, 0)

    def test_units_take_distinct_wavelengths_even_on_disjoint_routes(self):
        # two node-disjoint routes, one unit each; wavelength indices must differ
        net = mknet([("A", "B", 1, 5), ("A", "C", 1, 6), ("C", "B", 1, 6)], wavelength_count=4)
        delta, _ = incremental_allocate(net, Allocation.empty(), VC_AB, 2)
        assert len({lp.wavelength for lp in delta}) == 2

    def test_greedy_matches_exact_on_parallel_route_instances(self):
        rng = random.Random(9)
        checked = 0
        for tag in range(60):
            net = random_parallel_routes_net(rng, tag)
            vc = VirtualChannel("S", "T", "p")
            q = rng.randint(1, min(4, net.wavelength_count))
            try:
                delta, added = incremental_allocate(net, Allocation.empty(), vc, q)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    brute_force_rwa(net, Allocation.empty(), [DemandRequest(vc, q)])
                continue
            exact = brute_force_rwa(net, Allocation.empty(), [DemandRequest(vc, q)])
            assert added == exact.added_cost
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
        with pytest.raises(InfeasibleError) as err:
            incremental_allocate(net, Allocation.empty(), vc, 2)
        assert err.value.placed == 1
        assert err.value.delta[0].cost(net) == 3
        exact = solve_min_cost_rwa(net, Allocation.empty(), [DemandRequest(vc, 2)])
        assert exact.total_cost == 22


class TestApplyDelta:
    def test_apply_then_conflict(self):
        net = mknet([("A", "B", 2, 5)])
        delta, _ = incremental_allocate(net, Allocation.empty(), VC_AB, 1)
        state = apply_delta(Allocation.empty(), delta)
        assert len(state.lightpaths) == 1
        with pytest.raises(ConflictError):
            apply_delta(state, delta)

    def test_empty_delta_is_identity(self):
        net = mknet([("A", "B", 2, 5)])
        delta, _ = incremental_allocate(net, Allocation.empty(), VC_AB, 2)
        state = apply_delta(Allocation.empty(), delta)
        assert apply_delta(state, []) == state

    @staticmethod
    def assert_same_index(net, state, whole):
        assert state == whole
        assert list(state.connections().items()) == list(whole.connections().items())
        assert state.next_conn_index() == whole.next_conn_index()
        for key in net.link_by_key:
            recount = sum(key in lp.link_keys() for lp in state.lightpaths)
            assert state.used_on(key) == whole.used_on(key) == recount

    def test_chain_of_deltas_matches_one_construction(self):
        rng = random.Random(808)
        for tag in range(40):
            net, _requests = random_guard_instance(rng, 5000 + tag)
            nodes = sorted(net.nodes)
            chain = [Allocation.empty()]
            for step in range(rng.randint(1, 6)):
                src, dst = rng.sample(nodes, 2)
                vc = VirtualChannel(src, dst, f"V{step % 2}")
                try:
                    delta, _ = incremental_allocate(net, chain[-1], vc, rng.randint(1, 3))
                except InfeasibleError as exc:
                    delta = list(exc.delta)
                chain.append(apply_delta(chain[-1], delta))
            # every state of the chain, parents included, still indexes its own lightpaths
            for state in chain:
                self.assert_same_index(net, state, Allocation(state.lightpaths))
            state, whole = chain[-1], Allocation(chain[-1].lightpaths)
            assert validate_allocation(net, state) == []
            # both index the same cells, so the next placement agrees too
            src, dst = rng.sample(nodes, 2)
            vc = VirtualChannel(src, dst, "probe")
            outcomes = []
            for alloc in (state, whole):
                try:
                    outcomes.append(incremental_allocate(net, alloc, vc, 2))
                except InfeasibleError as exc:
                    outcomes.append((exc.placed, exc.delta))
            assert outcomes[0] == outcomes[1]


class TestValidator:
    def test_solver_output_is_clean(self):
        rng = random.Random(55)
        for tag in range(30):
            net, requests = random_guard_instance(rng, 3000 + tag)
            try:
                sol = solve_min_cost_rwa(net, Allocation.empty(), requests)
            except InfeasibleError:
                continue
            demands = {}
            offset = 0
            for req in requests:  # delta keeps request order, one block per connection
                demands[sol.delta[offset].conn] = req.count
                offset += req.count
            assert validate_allocation(net, sol.allocation, demands) == []

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
        with pytest.raises(ValueError):
            Allocation([zero])
        with pytest.raises(ValueError):
            apply_delta(Allocation.empty(), [zero])
        high = LightPath("c1", VC_AB, 4, (("A", "B"),))
        state = apply_delta(Allocation.empty(), [high])
        assert state == Allocation([high])
        assert state.used_on(("A", "B")) == 1
        assert [v.code for v in validate_allocation(net, state)] == ["wavelength-range"]
        with pytest.raises(ConflictError):
            apply_delta(state, [LightPath("c2", VC_AB, 4, (("B", "A"),))])
        # placement takes only wavelengths 1..W, and W+1 still counts against capacity 3
        delta, _ = incremental_allocate(net, state, VC_AB, 2)
        assert [lp.wavelength for lp in delta] == [1, 2]
        sol = solve_min_cost_rwa(net, state, [DemandRequest(VC_AB, 2)])
        assert sorted(lp.wavelength for lp in sol.delta) == [1, 2]
        with pytest.raises(InfeasibleError):
            incremental_allocate(net, apply_delta(state, delta), VC_AB, 1)

    def test_verdict_comes_from_lightpaths_not_the_index(self):
        net = mknet([("A", "B", 2, 5), ("A", "C", 2, 5), ("C", "B", 2, 5)], wavelength_count=3)
        clean = Allocation(
            [
                LightPath("c1", VC_AB, 1, (("A", "B"),)),
                LightPath("c1", VC_AB, 2, (("A", "B"),)),
            ]
        )
        clean._conn_counts["c1"] = 5
        clean._conn_counts["ghost"] = 1
        clean._masks[("A", "B")] = 0b111
        assert validate_allocation(net, clean, demands={"c1": 2}) == []
        shared = Allocation(
            [
                LightPath("c1", VC_AB, 1, (("A", "B"),)),
                LightPath("c1", VC_AB, 1, (("A", "C"), ("C", "B"))),
            ]
        )
        shared._conn_counts["c1"] = 1
        shared._masks.clear()
        vios = validate_allocation(net, shared, demands={"c1": 2})
        assert [v.code for v in vios] == ["demand-count"]
        assert "share a wavelength" in vios[0].detail

    def test_flags_demand_count_mismatch(self):
        net = mknet([("A", "B", 2, 5)])
        lp = LightPath("c1", VC_AB, 1, (("A", "B"),))
        vios = validate_allocation(net, Allocation([lp]), demands={"c1": 2})
        assert "demand-count" in {v.code for v in vios}

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
        delta, _ = incremental_allocate(net, Allocation.empty(), VC_AB, 2)
        state = apply_delta(Allocation.empty(), delta)
        assert dump_allocation(net, state) == [
            "VC1 w=1 path=A-B cost=5",
            "VC1 w=2 path=A-B cost=5",
        ]
