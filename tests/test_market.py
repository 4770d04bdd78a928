import collections
import gc
import json
import math
import multiprocessing
import os
import pickle
import random
import weakref
from decimal import ROUND_HALF_UP, Decimal
from types import SimpleNamespace

import pytest

from wavebroker import (
    Allocation,
    ChannelConfig,
    CompetitionOutcome,
    ConfigError,
    ConstantElasticityDemand,
    Grant,
    InvalidOutcomeError,
    LightPath,
    LinearDemand,
    ProfitLedger,
    ScenarioConfig,
    SettlementResult,
    SupplierAgent,
    SupplierConfig,
    Termination,
    UndercutPolicy,
    UnknownNetworkError,
    VirtualChannel,
    broker_demand,
    child_seed,
    profit_percentages,
    run_competition,
    run_scenario,
    run_sweep,
    settle,
    validate_allocation,
    validate_trace,
)
from wavebroker.cli import load_scenario, main
from wavebroker.market import SWEEP_RUNS_PER_WORKER, AuctionRecord
from wavebroker.protocol import Ack, CompetitionTrace, Exc1, Exc2, Nack
from wavebroker import market, rwa
from wavebroker.rwa import _link_masks

from band import EquilibriumBound, equilibrium_bounds
from conftest import mknet, probed_mcs, random_scenario, scenario_path

VC = VirtualChannel("S", "T", "VC1")
POLICY = UndercutPolicy(50, 100)


def supplier(sid, unit_cost, capacity=1000, wavelengths=1000):
    net = mknet([("S", "T", capacity, unit_cost)], wavelength_count=wavelengths, net_id=sid)
    return SupplierAgent(sid, net, Allocation(), POLICY, 2.0)


def won_outcome(mc_a=600, mc_b=400, seed=17):
    """A decided duel; the final price lands somewhere in [500, 700]."""
    a, b = supplier("A", mc_a), supplier("B", mc_b)
    outcome = run_competition(VC, [a, b], random.Random(seed), probed_mcs(VC, [a, b]))
    assert outcome.winner == "B" and 500 <= outcome.final_price <= 700
    return outcome, b


def duel_config(schedule_len=10, seed=42, mc_a=600, mc_b=400, demand=None, cap=160, reject_partial=False):
    nets = [
        SupplierConfig(mknet([("S", "T", cap, mc_a)], wavelength_count=cap, net_id="netA"), POLICY, 2.0),
        SupplierConfig(mknet([("S", "T", cap, mc_b)], wavelength_count=cap, net_id="netB"), POLICY, 2.0),
    ]
    channels = [ChannelConfig(VC, demand or LinearDemand(a=40, b=0.05))]
    schedule = tuple((r + 1, "VC1") for r in range(schedule_len))
    return ScenarioConfig("duel-test", seed, tuple(nets), tuple(channels), schedule)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the process pool with one that runs each submitted call at once, in process.

    Returns what the pool saw: pool sizes, submitted runs, runs not yet read and the most unread.
    """
    import concurrent.futures
    import os

    log = SimpleNamespace(cpus=64, sizes=[], submitted=0, unread=0, most_unread=0)

    class Done:
        def __init__(self, value):
            self.value = value

        def result(self):
            log.unread -= 1
            return self.value

    class SerialPool:
        def __init__(self, max_workers):
            log.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            log.submitted += 1
            log.unread += 1
            log.most_unread = max(log.most_unread, log.unread)
            return Done(fn(*args))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: log.cpus)
    return log


class TestBrokerDemand:
    def test_linear(self):
        assert broker_demand(LinearDemand(100, 2), 10) == 80

    def test_linear_slope_overflowing_to_minus_infinity_is_zero(self):
        assert broker_demand(LinearDemand(a=40, b=1e308), 800) == 0

    def test_linear_boundary_hits_zero(self):
        assert broker_demand(LinearDemand(100, 2), 50) == 0

    def test_constant_elasticity(self):
        assert broker_demand(ConstantElasticityDemand(100, 1.0), 4) == 25

    def test_constant_elasticity_clamps_below_one_minor_unit(self):
        assert broker_demand(ConstantElasticityDemand(100, 1.0), 0) == 100

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            broker_demand(LinearDemand(100, 2), -1)

    def test_elasticity_must_be_positive(self):
        with pytest.raises(ValueError):
            ConstantElasticityDemand(100, 0)

    def test_nonincreasing_in_price(self):
        for df in (LinearDemand(120, 0.7), ConstantElasticityDemand(5000, 1.3)):
            values = [broker_demand(df, p) for p in range(0, 400, 7)]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestSettle:
    def test_zero_demand_rejects_price(self):
        outcome, winner = won_outcome()
        result = settle(outcome, LinearDemand(a=1, b=1.0), winner, VC)
        assert result.termination is Termination.BROKER_REJECTED
        assert result.demand == 0 and result.granted == 0
        assert result.revenue == 0 and result.cost == 0
        assert result.allocation_delta == ()
        assert [type(ev.message) for ev in result.events] == [Exc2, Nack]

    def test_full_grant(self):
        outcome, winner = won_outcome()
        # D(p) = 5 across the whole [500, 700] band
        result = settle(outcome, LinearDemand(a=5.9, b=0.001), winner, VC)
        assert result.termination is Termination.WON
        assert result.demand == 5 and result.granted == 5
        assert result.revenue == 5 * outcome.final_price
        assert result.cost == 5 * 400
        assert [type(ev.message) for ev in result.events] == [Ack]
        assert result.events[0].message.d == 5

    def test_partial_grant_on_capacity_shortfall(self):
        outcome, winner = won_outcome()
        winner.network = mknet([("S", "T", 8, 400)], wavelength_count=8, net_id="B")
        result = settle(outcome, LinearDemand(a=10.9, b=0.001), winner, VC)  # D = 10 > capacity 8
        assert result.demand == 10 and result.granted == 8
        assert result.revenue == 8 * outcome.final_price  # revenue follows the granted count
        assert [type(ev.message) for ev in result.events] == [Exc1, Ack]
        assert result.events[0].message.d == 8
        assert result.events[1].message.d == 8

    def test_partial_grant_can_be_refused(self):
        outcome, winner = won_outcome()
        winner.network = mknet([("S", "T", 8, 400)], wavelength_count=8, net_id="B")
        result = settle(outcome, LinearDemand(a=10.9, b=0.001), winner, VC, reject_partial=True)
        assert result.granted == 0 and result.revenue == 0
        assert result.allocation_delta == ()
        assert [type(ev.message) for ev in result.events] == [Exc1, Nack]

    def test_winner_with_nothing_left_is_denied(self):
        outcome, winner = won_outcome()
        winner.network = mknet([("S", "T", 0, 400)], wavelength_count=8, net_id="B")
        result = settle(outcome, LinearDemand(a=10.9, b=0.001), winner, VC)
        assert (result.demand, result.granted, result.revenue, result.cost) == (10, 0, 0, 0)
        assert result.allocation_delta == ()
        assert [type(ev.message) for ev in result.events] == [Exc1, Nack]
        assert result.events[0].message.d == 0

    def test_settlement_leaves_the_winners_masks_as_they_were(self):
        outcome, winner = won_outcome()
        winner.network = mknet([("S", "T", 8, 400), ("X", "Y", 1, 1)], wavelength_count=8, net_id="B")
        # a unit off the channel's route, so the state keeps a mask list
        winner.commit(Grant("X#1", VirtualChannel("X", "Y", "XY"), (((("X", "Y"),), 1),), 1))
        state, kept = winner.state, winner.state._masks
        # one pick completes 5 units and writes nothing; 10 units fall short and copy before writing
        for a, granted in ((5.9, 5), (10.9, 8)):
            result = settle(outcome, LinearDemand(a=a, b=0.001), winner, VC)
            assert result.granted == granted
            assert winner.state is state and _link_masks(winner.network, state) is kept and kept == [0, 1]

    def test_settlement_extends_a_conformant_trace(self):
        outcome, winner = won_outcome()
        result = settle(outcome, LinearDemand(a=5.9, b=0.001), winner, VC)
        full = CompetitionTrace(outcome.trace.events + result.events)
        assert validate_trace(full) == []

    def test_requires_a_won_auction(self):
        dry_a, dry_b = supplier("A", 1, capacity=0), supplier("B", 1, capacity=0)
        outcome = run_competition(VC, [dry_a, dry_b], random.Random(0), probed_mcs(VC, [dry_a, dry_b]))
        with pytest.raises(InvalidOutcomeError):
            settle(outcome, LinearDemand(10, 0.1), dry_a, VC)


class TestProfitLedger:
    def test_percentages(self):
        ledger = ProfitLedger()
        ledger.record("A", "VC1", 50, 0, 1)
        ledger.record("A", "VC2", 50, 0, 1)
        ledger.record("A", "VC3", 100, 0, 1)
        assert profit_percentages(ledger, "A") == {"VC1": 25.0, "VC2": 25.0, "VC3": 50.0}

    def test_single_channel_is_everything(self):
        ledger = ProfitLedger()
        ledger.record("A", "VC1", 70, 30, 1)
        assert profit_percentages(ledger, "A") == {"VC1": 100.0}

    def test_zero_total_has_no_percentages(self):
        ledger = ProfitLedger()
        ledger.record("A", "VC1", 10, 10, 1)
        assert profit_percentages(ledger, "A") is None

    def test_rounding_is_half_up_to_one_decimal(self):
        ledger = ProfitLedger()
        ledger.record("A", "VC1", 1, 0, 1)
        ledger.record("A", "VC2", 799, 0, 1)
        # 1/800 = 0.125% -> 0.1, 799/800 = 99.875% -> 99.9
        assert profit_percentages(ledger, "A") == {"VC1": 0.1, "VC2": 99.9}

    def test_unknown_network(self):
        with pytest.raises(UnknownNetworkError):
            profit_percentages(ProfitLedger(), "nope")

    @staticmethod
    def decimal_percentages(ledger, network_id):
        """The reference: each share as a ``Decimal``, quantized to 0.1 with ROUND_HALF_UP."""
        total = ledger.totals(network_id).profit
        if total <= 0:
            return None
        return {
            vc: float((Decimal(entry.profit * 100) / Decimal(total)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))
            for vc, entry in ledger.entries[network_id].items()
        }

    def assert_same_as_decimal(self, profits):
        ledger = ProfitLedger()
        for k, profit in enumerate(profits):
            ledger.record("A", f"VC{k}", profit, 0, 1)
        got, want = profit_percentages(ledger, "A"), self.decimal_percentages(ledger, "A")
        # repr tells -0.0 from 0.0
        assert repr(got) == repr(want)
        return got

    def test_integer_rounding_matches_decimal(self):
        # every profit from -2T to 2T against each total T below 400: the
        # symmetric range sums to 0 and a last channel holds the total
        for total in range(1, 400):
            self.assert_same_as_decimal([*range(-2 * total, 2 * total + 1), total])
        rng = random.Random(7)
        for _ in range(2000):
            profits = [rng.randint(-(10**15), 10**15) for _ in range(rng.randint(1, 6))]
            profits.append(abs(sum(profits)) + rng.randint(1, 10**12) - sum(profits))
            self.assert_same_as_decimal(profits)
        # a small loss on a large total rounds to a signed zero, as Decimal's does
        shares = self.assert_same_as_decimal([-1, 100_001])
        assert math.copysign(1, shares["VC0"]) == -1 and shares == {"VC0": -0.0, "VC1": 100.0}

    def test_totals_aggregate(self):
        ledger = ProfitLedger()
        ledger.record("A", "VC1", 100, 40, 2)
        ledger.record("A", "VC2", 50, 10, 1)
        totals = ledger.totals("A")
        assert (totals.revenue, totals.cost, totals.profit, totals.wavelengths_sold) == (150, 50, 100, 3)


class TestRunScenario:
    def test_a_fresh_run_rebuilds_no_mask_list(self, monkeypatch):
        """Every supplier starts on an empty state bound to its network, so even
        the probes before its first win read a kept list."""
        reads = {"kept": 0, "rebuilt": 0, "rebuilt grant-less": 0}
        link_masks = rwa._link_masks

        def counted(net, state, tables=None):
            masks = link_masks(net, state, tables)
            if masks is state._masks:
                reads["kept"] += 1
            else:
                reads["rebuilt grant-less" if not state._grants else "rebuilt"] += 1
            return masks

        monkeypatch.setattr(rwa, "_link_masks", counted)
        for name in ("duel", "three_channels", "two_route_costcurve"):
            run_scenario(load_scenario(scenario_path(name)))
        assert reads["kept"] > 0 and reads["rebuilt"] == reads["rebuilt grant-less"] == 0

    def test_an_agents_empty_state_is_bound_to_its_network(self):
        net = mknet([("S", "T", 4, 10), ("T", "U", 4, 10)], wavelength_count=4, net_id="A")
        state = SupplierAgent("a", net).state
        assert state.lightpaths == () and _link_masks(net, state) is state._masks == [0, 0]
        assert pickle.dumps(state) == pickle.dumps(Allocation()) and pickle.loads(pickle.dumps(state))._masks is None
        assert state.__getstate__() == ((), {})

    def test_dominant_network_takes_all_profit(self):
        report = run_scenario(duel_config(schedule_len=1))
        assert report.ledger.totals("netB").profit > 0
        assert report.ledger.totals("netA").profit == 0
        assert report.records[0].winner == "netB"
        assert report.records[0].within_band is True

    def test_empty_schedule_zero_ledger(self):
        report = run_scenario(duel_config(schedule_len=0))
        for net in ("netA", "netB"):
            totals = report.ledger.totals(net)
            assert totals.revenue == totals.cost == totals.wavelengths_sold == 0

    def test_same_seed_reproduces_identically(self):
        from wavebroker.cli import ledger_csv, report_json, series_csv

        r1 = run_scenario(duel_config(seed=99))
        r2 = run_scenario(duel_config(seed=99))
        assert report_json(r1) == report_json(r2)
        assert ledger_csv(r1) == ledger_csv(r2)
        assert series_csv(r1) == series_csv(r2)

    def test_ledger_cost_matches_final_allocation_cost(self):
        report = run_scenario(duel_config(schedule_len=6))
        for net_id, state in report.final_states.items():
            assert report.ledger.totals(net_id).cost == state.total_cost(report.networks[net_id])

    def test_states_stay_valid_and_traces_conformant(self):
        report = run_scenario(duel_config(schedule_len=8, seed=5))
        for net_id, state in report.final_states.items():
            assert validate_allocation(report.networks[net_id], state) == []
        for trace in report.traces:
            assert validate_trace(trace) == []

    def test_revenue_counts_granted_not_requested(self):
        # capacity 12 exhausts mid-run, forcing partial grants
        config = duel_config(schedule_len=3, cap=12, demand=LinearDemand(a=20, b=0.02))
        report = run_scenario(config)
        for rec in report.records:
            if rec.termination == "won" and rec.final_price is not None:
                assert rec.revenue == rec.final_price * rec.granted

    def test_config_validation_failures_raise(self):
        good = duel_config()
        with pytest.raises(ConfigError, match=r"schedule\[0\]: unknown virtual channel 'NOPE'"):
            ScenarioConfig(
                good.id, good.seed, good.suppliers, good.channels, ((1, "NOPE"),), good.round_cap, good.reject_partial
            )

    def test_a_run_builds_no_lightpath_until_its_states_are_read(self, monkeypatch):
        built = []
        init = LightPath.__init__
        monkeypatch.setattr(LightPath, "__init__", lambda lp, *args: built.append(lp) or init(lp, *args))
        report = run_scenario(load_scenario(scenario_path("two_route_costcurve")))
        # capacity binds: a request got fewer units than it asked for
        assert any(rec.granted < rec.demand for rec in report.records if rec.demand)
        assert built == []
        unread = {nid: pickle.dumps(state) for nid, state in report.final_states.items()}
        assert built == [] and all(b"LightPath" not in data for data in unread.values())

        lightpaths = [lp for state in report.final_states.values() for lp in state.lightpaths]
        assert len(lightpaths) == sum(rec.granted for rec in report.records) > 0
        assert built == lightpaths
        for nid, state in report.final_states.items():
            assert validate_allocation(report.networks[nid], state) == []
            # a read state still pickles as its grants, and comes back equal
            assert pickle.dumps(state) == unread[nid]
            copy = pickle.loads(unread[nid])
            assert copy.lightpaths == state.lightpaths and copy._masks is None
            assert _link_masks(report.networks[nid], copy) == state._masks

    def test_a_curve_builds_no_lightpath(self, monkeypatch, tmp_path):
        built = []
        init = LightPath.__init__
        monkeypatch.setattr(LightPath, "__init__", lambda lp, *args: built.append(lp) or init(lp, *args))
        args = ["curve", scenario_path("two_route_costcurve"), "--vc", "VC1", "--qmax", "20", "--out", str(tmp_path)]
        assert main(args) == 0
        # each segment spans a run of units on one path: 8 at 125, then 8 at 170
        assert (tmp_path / "curve_canwest.csv").read_text() == "vc,q_from,q_to,mc_minor_units\nVC1,1,8,125\nVC1,9,16,170\n"
        assert built == []

    def test_auction_records_carry_band_diagnostics(self):
        report = run_scenario(duel_config(schedule_len=2))
        rec = report.records[0]
        assert rec.reference_mc == 600
        assert (rec.band_low, rec.band_high) == (500, 700)


def reference_run(config: ScenarioConfig):
    """``run_scenario``'s records and trace lines, from the public per-request calls.

    Each request probes every supplier with ``next_unit_mc``, races on a
    plain supplier list, settles and commits, and takes the band from
    ``equilibrium_bounds``.  Also returns which kinds of request the run
    had.
    """
    rng = random.Random(config.seed)
    agents = [SupplierAgent(sc.network.id, sc.network, None, sc.policy, sc.markup) for sc in config.suppliers]
    channels = {ch.vc.label: ch for ch in config.channels}
    records, lines, kinds = [], [], []
    for index, (request_round, label) in enumerate(config.schedule):
        ch = channels[label]
        mcs = [agent.next_unit_mc(ch.vc) for agent in agents]
        priced = [(mc, agent) for mc, agent in zip(mcs, agents) if mc is not None]
        openings = sorted(math.floor(agent.markup * mc + 0.5) for mc, agent in priced)
        kinds.append(
            "all declined" if not priced
            else "one priced" if len(priced) == 1
            else "some declined" if len(priced) < len(agents)
            else "tied openings" if openings[0] == openings[1]
            else "all priced"
        )
        outcome = run_competition(ch.vc, list(agents), rng, mcs, config.round_cap)
        termination, trace = outcome.termination, outcome.trace
        demand, granted, revenue, cost = None, 0, 0, 0
        if termination is Termination.WON:
            winner = next(agent for agent in agents if agent.id == outcome.winner)
            result = settle(outcome, ch.demand, winner, ch.vc, config.reject_partial)
            if result.allocation_delta:
                winner.commit(result.allocation_delta)
            termination, demand, granted, revenue, cost = result[:5]
            trace = trace.settled(result.events)
        # the race's counts from its trace lines: each bid is an offer after round 1
        written = trace.lines()
        bids = collections.Counter(line.split("\t", 1)[0] for line in written if "\toffp\t" in line and not line.startswith("1\t"))
        asks = (outcome.rounds - 1) * (len(priced) - 1)
        counts = (asks, sum(bids.values()), asks - sum(bids.values()), max(bids.values(), default=0))
        ref = low = high = within = None
        if len(priced) >= 2:
            bound = equilibrium_bounds([mc for mc, _ in priced], [agent.policy for _, agent in priced])
            ref, (low, high) = bound.reference_mc, bound.interval()
            if outcome.final_price is not None:
                within = low <= outcome.final_price <= high
        records.append(AuctionRecord(
            index, request_round, label, termination.value, outcome.winner, outcome.final_price, outcome.rounds,
            *counts, demand, granted, revenue, cost, ref, low, high, within,
        ))
        lines.append(written)
    return records, lines, kinds


class TestRunScenarioMatchesReference:
    def test_generated_markets(self):
        rng = random.Random(2026)
        seen = collections.Counter()
        declined_then_all_priced = long_races = 0
        for tag in range(240):
            config = random_scenario(rng, tag)
            records, lines, kinds = reference_run(config)
            report = run_scenario(config)
            assert list(report.records) == records, tag
            assert [trace.lines() for trace in report.traces] == lines, tag
            seen.update(kinds)
            long_races += sum(rec.rounds > 3 for rec in records)
            declined_then_all_priced += sum(
                a == "some declined" and b in ("all priced", "tied openings") for a, b in zip(kinds, kinds[1:])
            )
        # every kind of request occurs, and races on all suppliers right after one on a subset
        assert len(seen) == 5 and min(seen.values()) >= 50, seen
        assert declined_then_all_priced >= 30
        assert long_races >= 500


class TestSweep:
    def test_child_seeds_are_stable(self):
        assert child_seed(42, 0) == child_seed(42, 0)
        assert child_seed(42, 0) != child_seed(42, 1)
        assert child_seed(42, 1) != child_seed(43, 1)

    def test_sweep_runs_in_index_order(self):
        reports = run_sweep(duel_config(schedule_len=2), 4)
        assert [r.seed for r in reports] == [child_seed(42, i) for i in range(4)]

    def test_parallel_sweep_matches_serial(self):
        from wavebroker.cli import report_json

        serial = run_sweep(duel_config(schedule_len=2), 3, workers=1)
        parallel = run_sweep(duel_config(schedule_len=2), 3, workers=2)
        assert [report_json(r) for r in serial] == [report_json(r) for r in parallel]
        # traces cross the process pool as race logs
        assert [[t.lines() for t in r.traces] for r in serial] == [[t.lines() for t in r.traces] for r in parallel]

    @pytest.mark.parametrize(
        "count, workers, cpus, pool_size",
        [(3, 10**6, 64, 3), (5, 10**6, 2, 2), (5, 4, 64, 4), (4, 10**6, 1, None), (1, 8, 64, None)],
    )
    def test_workers_are_clamped_to_runs_and_cpus(self, serial_pool, count, workers, cpus, pool_size):
        serial_pool.cpus = cpus
        reports = run_sweep(duel_config(schedule_len=1), count, workers=workers)
        assert [r.seed for r in reports] == [child_seed(42, i) for i in range(count)]
        assert serial_pool.sizes == ([] if pool_size is None else [pool_size])

    @pytest.mark.parametrize("count, workers, bound", [(20, 3, 6), (9, 2, 4), (3, 2, 3)])
    def test_parallel_sweep_keeps_two_runs_per_worker_in_flight(self, serial_pool, count, workers, bound):
        assert SWEEP_RUNS_PER_WORKER == 2
        reports = run_sweep(duel_config(schedule_len=1), count, workers=workers)
        first = next(reports)
        # the first report is read once the window is full, not after every run
        assert serial_pool.submitted == bound
        seeds = [first.seed] + [r.seed for r in reports]
        assert seeds == [child_seed(42, i) for i in range(count)]
        assert serial_pool.submitted == count and serial_pool.unread == 0
        assert serial_pool.most_unread == bound

    @pytest.mark.parametrize("workers, made", [(1, 1), (2, 2 * SWEEP_RUNS_PER_WORKER + 1)])
    def test_seeds_are_made_as_runs_start(self, serial_pool, monkeypatch, workers, made):
        # a billion-run sweep reports its first run after making a window of seeds, not all of them
        made_for = []

        def counted(root, i):
            made_for.append(i)
            assert i < 100, "seeds made ahead of their runs"
            return child_seed(root, i)

        monkeypatch.setattr(market, "child_seed", counted)
        reports = run_sweep(duel_config(schedule_len=1), 10**9, workers=workers)
        assert made_for == []
        assert next(reports).seed == child_seed(42, 0)
        assert made_for == list(range(made))

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(duel_config(schedule_len=1), 2, workers=0)


def record_samples():
    """One of each record type, from a duel's race, its settlement and a short run."""
    outcome, winner = won_outcome()
    return {
        CompetitionOutcome: outcome,
        SettlementResult: settle(outcome, LinearDemand(a=40, b=0.05), winner, VC),
        EquilibriumBound: equilibrium_bounds([400, 600], [POLICY, POLICY]),
        AuctionRecord: run_scenario(duel_config(schedule_len=1)).records[0],
    }


RECORD_FIELDS = {
    CompetitionOutcome: ("winner", "final_price", "rounds", "trace", "termination"),
    SettlementResult: ("termination", "demand", "granted", "revenue", "cost", "allocation_delta", "events"),
    EquilibriumBound: ("reference_mc", "e_min", "e_max"),
    AuctionRecord: (
        "index", "request_round", "vc", "termination", "winner", "final_price", "rounds", "asks", "bids",
        "passes", "most_cutters", "demand", "granted", "revenue", "cost", "reference_mc", "band_low",
        "band_high", "within_band",
    ),
}


@pytest.mark.parametrize("kind", list(RECORD_FIELDS), ids=lambda kind: kind.__name__)
class TestRecords:
    """The per-request records are named tuples: fixed fields, read-only, picklable."""

    def test_fields_keep_their_names_and_order(self, kind):
        record = record_samples()[kind]
        assert type(record) is kind
        assert kind._fields == RECORD_FIELDS[kind]
        assert tuple(record) == tuple(getattr(record, name) for name in RECORD_FIELDS[kind])

    def test_attribute_assignment_is_refused(self, kind):
        record = record_samples()[kind]
        for name in RECORD_FIELDS[kind]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_pickle_round_trip(self, kind):
        record = record_samples()[kind]
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is kind and copy == record


@pytest.fixture
def validations(monkeypatch):
    """The configs ``market.validate_scenario`` is called with, in order."""
    calls = []
    validate = market.validate_scenario

    def counted(config):
        calls.append(config)
        return validate(config)

    monkeypatch.setattr(market, "validate_scenario", counted)
    return calls


class TestValidateOnce:
    def test_load_and_run_validate_once(self, validations, tmp_path):
        config = load_scenario(scenario_path("duel"))
        run_scenario(config)
        run_scenario(config, seed_override=7)
        assert validations == [config]
        assert main(["run", scenario_path("duel"), "--out", str(tmp_path)]) == 0
        assert len(validations) == 2

    def test_a_seed_override_validates_once(self, validations, tmp_path):
        out = tmp_path / "one"
        assert main(["run", scenario_path("duel"), "--out", str(out), "--seed", "5"]) == 0
        assert len(validations) == 1
        assert json.loads((out / "report.json").read_text())["seed"] == 5

    def test_a_seeded_sweep_validates_once(self, validations, tmp_path):
        out = tmp_path / "sweep"
        assert main(["run", scenario_path("duel"), "--out", str(out), "--seed", "5", "--sweep", "3"]) == 0
        assert len(validations) == 1
        seeds = [json.loads((out / f"run_{i:05d}" / "report.json").read_text())["seed"] for i in range(3)]
        assert seeds == [child_seed(5, i) for i in range(3)]

    def test_a_serial_sweep_validates_once(self, validations):
        config = duel_config(schedule_len=1)
        assert len(list(run_sweep(config, 5))) == 5
        assert validations == [config]

    def test_configs_are_told_apart_by_identity(self, validations):
        first, second = duel_config(schedule_len=1), duel_config(schedule_len=1)
        assert first == second
        for config in (first, second, first, second):
            run_scenario(config)
        assert validations == [first, second]

    def test_an_invalid_config_raises_on_every_call(self, validations):
        good = duel_config()
        for _ in range(3):
            with pytest.raises(ConfigError, match="unknown virtual channel 'NOPE'"):
                good._replace(schedule=((1, "NOPE"),))
        assert validations[0] is good and len(validations) == 4
        assert all(bad.schedule == ((1, "NOPE"),) for bad in validations[1:])

    def test_an_unpickled_config_is_not_validated_again(self, validations):
        config = duel_config(schedule_len=2)
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config and copy is not config
        made = len(validations)
        run_scenario(copy)
        assert len(validations) == made

    def test_a_two_worker_sweep_validates_once(self, monkeypatch, tmp_path):
        # forked workers inherit both wrappers; each appends its process id to a file
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("only forked workers inherit the counting wrappers")

        def logged(fn, log):
            def call(*args):
                with open(log, "a", encoding="utf-8") as f:
                    f.write(f"{os.getpid()}\n")
                return fn(*args)

            return call

        validated, settled = tmp_path / "validated", tmp_path / "settled"
        monkeypatch.setattr(market, "validate_scenario", logged(market.validate_scenario, validated))
        monkeypatch.setattr(market, "settle", logged(market.settle, settled))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        args = ["run", scenario_path("three_channels"), "--out", str(tmp_path / "out"), "--sweep", "20", "--workers", "2"]
        assert main(args) == 0
        assert str(os.getpid()) not in settled.read_text(encoding="utf-8").split()
        assert validated.read_text(encoding="utf-8").split() == [str(os.getpid())]

    def test_a_validated_config_is_not_kept_alive(self):
        config = duel_config(schedule_len=1)
        run_scenario(config)
        ref = weakref.ref(config)
        del config
        gc.collect()
        assert ref() is None
