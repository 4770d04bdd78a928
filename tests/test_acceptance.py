"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
from contextlib import contextmanager

from wavebroker import (
    Allocation,
    CurveSegment,
    EmptyCurveError,
    InfeasibleError,
    LinearDemand,
    ConstantElasticityDemand,
    SupplierAgent,
    Termination,
    UndercutPolicy,
    VirtualChannel,
    apply_delta,
    incremental_allocate,
    run_competition,
    run_sweep,
    settle,
    total_cost_curve,
    validate_allocation,
    validate_trace,
)
from wavebroker.cli import load_scenario, main
from wavebroker.protocol import Ocl

from conftest import mknet, ocl_prices, probed_mcs, random_crossing_instance, random_guard_instance, scenario_path
from oracle import brute_force_rwa

DUEL_POLICY = UndercutPolicy(50, 100)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def duel_supplier(sid, unit_cost):
    net = mknet([("S", "T", 16, unit_cost)], wavelength_count=16, net_id=sid)
    return SupplierAgent(sid, net, Allocation(), DUEL_POLICY, 2.0)


def test_criterion_1_oracle_equivalence():
    with criterion("greedy placement against exhaustive enumeration, 220 single-connection instances"):
        rng = random.Random(808)
        checked = feasible = on_state = beats_greedy = 0
        for tag in range(220):
            # every fourth instance is a crossing, where greedy placement can overpay
            make = random_crossing_instance if tag % 4 == 3 else random_guard_instance
            net, state, vc, count = make(rng, 10_000 + tag)
            greedy, greedy_cost = incremental_allocate(net, state, vc, count)
            try:
                expected, cost = brute_force_rwa(net, state, vc, count)
            except InfeasibleError:
                # a complete greedy placement is one of the assignments the oracle tries
                assert len(greedy) < count, f"greedy placed units the oracle says cannot fit: {net.id}"
                checked += 1
                continue
            assert validate_allocation(net, apply_delta(net, state, expected), {expected.conn: count}) == [], net.id
            # the oracle's optimum is never dearer than a complete greedy placement
            assert len(greedy) < count or greedy_cost >= cost, f"{net.id}: {greedy_cost} < {cost}"
            beats_greedy += len(greedy) == count and greedy_cost > cost
            on_state += bool(state.lightpaths)
            checked += 1
            feasible += 1
        assert checked == 220
        assert feasible >= 80 and on_state >= 20 and beats_greedy >= 1


def test_criterion_2_two_route_curve_structure():
    with criterion("supply-curve structure on the shipped two-route fixture"):
        config = load_scenario(scenario_path("two_route_costcurve"))
        net = config.suppliers[0].network
        vc = config.channels[0].vc
        curve = total_cost_curve(net, Allocation(), vc, 20)
        assert curve.q_max == 16
        assert len(curve.segments) == 2
        assert curve.segments[0] == CurveSegment(1, 8, curve.segments[0].mc)
        assert curve.segments[1] == CurveSegment(9, 16, curve.segments[1].mc)
        assert curve.segments[0].mc < curve.segments[1].mc
        # 17 wavelengths do not fit on two capacity-8 routes: greedy placement places 16
        grant, _ = incremental_allocate(net, Allocation(), vc, 17)
        assert len(grant) == 16, "17 wavelengths must not fit on two capacity-8 routes"


def test_criterion_3_duel_price_band():
    with criterion("1000 duels: the cheaper network always wins inside the predicted band"):
        vc = VirtualChannel("S", "T", "VC1")
        for seed in range(1000):
            a, b = duel_supplier("A", 600), duel_supplier("B", 400)
            outcome = run_competition(vc, [a, b], random.Random(seed), probed_mcs(vc, [a, b]))
            assert outcome.termination is Termination.WON
            assert outcome.winner == "B", f"seed {seed}: {outcome.winner} won"
            assert 500 <= outcome.final_price <= 700, f"seed {seed}: price {outcome.final_price}"


def test_criterion_4_equal_mc_split():
    with criterion("10000 equal-cost duels: wins split 0.50 +/- 0.02"):
        vc = VirtualChannel("S", "T", "VC1")
        wins = {"A": 0, "B": 0}
        for seed in range(10_000):
            a, b = duel_supplier("A", 500), duel_supplier("B", 500)
            outcome = run_competition(vc, [a, b], random.Random(seed), probed_mcs(vc, [a, b]))
            wins[outcome.winner] += 1
        for sid in ("A", "B"):
            rate = wins[sid] / 10_000
            assert 0.48 <= rate <= 0.52, f"{sid} win rate {rate}"


def _fuzz_networks(rng, tag):
    """Two or three supplier networks over a shared node vocabulary."""
    nodes = [f"N{i}" for i in range(rng.randint(4, 6))]
    nets = []
    for s in range(rng.randint(2, 3)):
        links = {}
        order = nodes[:]
        rng.shuffle(order)
        for i in range(1, len(order)):
            a, b = order[rng.randrange(i)], order[i]
            key = (a, b) if a <= b else (b, a)
            links[key] = (key[0], key[1], rng.randint(1, 4), rng.randint(5, 60))
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(nodes, 2)
            key = (a, b) if a <= b else (b, a)
            links.setdefault(key, (key[0], key[1], rng.randint(1, 4), rng.randint(5, 60)))
        nets.append(mknet(list(links.values()), wavelength_count=rng.randint(3, 6), net_id=f"f{tag}s{s}"))
    return nodes, nets


def test_criterion_5_allocation_invariant_fuzz():
    with criterion("10000+ fuzzed settle/allocate steps with zero validator violations"):
        rng = random.Random(505)
        steps = 0
        scenario_tag = 0
        while steps < 10_000:
            scenario_tag += 1
            nodes, nets = _fuzz_networks(rng, scenario_tag)
            src, dst = rng.sample(nodes, 2)
            vc = VirtualChannel(src, dst, "VC1")
            if rng.random() < 0.5:
                df = LinearDemand(a=rng.randint(3, 12), b=rng.random() * 0.003)
            else:
                df = ConstantElasticityDemand(a=rng.randint(200, 4000), eps=0.8 + rng.random())
            agents = [
                SupplierAgent(net.id, net, Allocation(), DUEL_POLICY, 1.5 + rng.random())
                for net in nets
            ]
            expected_counts = {net.id: {} for net in nets}
            for _ in range(12):
                steps += 1
                outcome = run_competition(vc, agents, rng, probed_mcs(vc, agents))
                if outcome.termination is not Termination.WON:
                    break
                winner = next(ag for ag in agents if ag.id == outcome.winner)
                result = settle(outcome, df, winner, vc)
                if result.allocation_delta:
                    winner.commit(result.allocation_delta)
                    expected_counts[winner.id][result.allocation_delta.conn] = result.granted
                violations = validate_allocation(winner.network, winner.state, expected_counts[winner.id])
                assert violations == [], f"scenario {scenario_tag}: {violations}"
        assert steps >= 10_000


def test_criterion_6_trace_conformance():
    with criterion("1000 fuzzed competitions: conformant traces, anonymous and strictly falling"):
        rng = random.Random(606)
        vc = VirtualChannel("S", "T", "VC1")
        for trial in range(1000):
            suppliers = []
            for i in range(rng.randint(2, 4)):
                cost = rng.randint(50, 900)
                cap = 0 if rng.random() < 0.15 else 16
                net = mknet([("S", "T", cap, cost)], wavelength_count=16, net_id=f"S{i}")
                lo = rng.randint(5, 80)
                suppliers.append(
                    SupplierAgent(
                        f"S{i}",
                        net,
                        Allocation(),
                        UndercutPolicy(lo, lo + rng.randint(0, 100)),
                        1.0 + rng.random() * 2.5,
                    )
                )
            outcome = run_competition(vc, suppliers, random.Random(trial), probed_mcs(vc, suppliers))
            assert validate_trace(outcome.trace) == []
            prices = ocl_prices(outcome.trace)
            assert all(p1 > p2 for p1, p2 in zip(prices, prices[1:]))
            for ev in outcome.trace.events:
                if isinstance(ev.message, Ocl):
                    assert set(ev.message._fields) == {"x", "y", "p"}
                    assert not hasattr(ev.message, "__dict__")


def test_criterion_7_byte_deterministic_outputs(tmp_path):
    with criterion("every shipped scenario reproduces byte-identical outputs"):
        for name in ("two_route_costcurve", "duel", "three_channels"):
            first = tmp_path / name / "a"
            second = tmp_path / name / "b"
            assert main(["run", scenario_path(name), "--out", str(first)]) == 0
            assert main(["run", scenario_path(name), "--out", str(second)]) == 0
            for artifact in ("ledger.csv", "series.csv", "report.json"):
                assert (first / artifact).read_bytes() == (second / artifact).read_bytes(), f"{name}/{artifact}"


def test_criterion_8_dominance_sweep():
    with criterion("50-seed dominance sweep: cheaper network takes all profit, ledgers conserve"):
        config = load_scenario(scenario_path("duel"))
        reports = run_sweep(config, 50)
        profits_a, profits_b = [], []
        for report in reports:
            totals_a = report.ledger.totals("netA")
            totals_b = report.ledger.totals("netB")
            assert totals_a.profit == 0, f"seed {report.seed}: netA profit {totals_a.profit}"
            assert totals_b.profit > 0, f"seed {report.seed}: netB profit {totals_b.profit}"
            for net_id in ("netA", "netB"):
                ledger_cost = report.ledger.totals(net_id).cost
                state_cost = report.final_states[net_id].total_cost(report.networks[net_id])
                assert ledger_cost == state_cost, f"seed {report.seed}: {net_id} books {ledger_cost} vs {state_cost}"
            profits_a.append(totals_a.profit)
            profits_b.append(totals_b.profit)
        assert sum(profits_b) / len(profits_b) > 0
        assert sum(profits_a) == 0


def test_criterion_9_mc_monotonicity():
    with criterion("500 fuzzed channels: marginal cost never falls, total cost starts at zero"):
        rng = random.Random(909)
        produced = 0
        tag = 0
        while produced < 500:
            tag += 1
            nodes = [f"N{i}" for i in range(rng.randint(3, 8))]
            links = {}
            order = nodes[:]
            rng.shuffle(order)
            for i in range(1, len(order)):
                a, b = order[rng.randrange(i)], order[i]
                key = (a, b) if a <= b else (b, a)
                links[key] = (key[0], key[1], rng.randint(1, 4), rng.randint(1, 80))
            for _ in range(rng.randint(0, 4)):
                a, b = rng.sample(nodes, 2)
                key = (a, b) if a <= b else (b, a)
                links.setdefault(key, (key[0], key[1], rng.randint(1, 4), rng.randint(1, 80)))
            net = mknet(list(links.values()), wavelength_count=rng.randint(2, 8), net_id=f"m{tag}")
            vc = VirtualChannel(nodes[0], nodes[-1], "VC1")
            try:
                curve = total_cost_curve(net, Allocation(), vc, 12)
            except EmptyCurveError:
                continue
            mcs = [seg.mc for seg in curve.segments]
            assert mcs == sorted(mcs), f"net {tag}: marginal cost fell: {mcs}"
            assert curve.total_cost(0) == 0
            assert curve.segments[0].q_from == 1
            for earlier, later in zip(curve.segments, curve.segments[1:]):
                assert later.q_from == earlier.q_to + 1
            produced += 1
