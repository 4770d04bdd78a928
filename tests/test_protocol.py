import collections
import math
import os
import pickle
import random
import sys

import pytest

from wavebroker import (
    Allocation,
    Bid,
    Bidders,
    ChannelConfig,
    CompetitionOutcome,
    CompetitionTrace,
    LinearDemand,
    RoundCapExceededError,
    ScenarioConfig,
    SupplierAgent,
    SupplierConfig,
    Termination,
    UndercutPolicy,
    Violation,
    VirtualChannel,
    run_competition,
    run_scenario,
    validate_trace,
)
from wavebroker import game, protocol
from wavebroker.protocol import (
    _WIRE_NAMES,
    BROKER_TO_SUPPLIER,
    SUPPLIER_TO_BROKER,
    Ack,
    Exc1,
    Exc2,
    Nack,
    Ocl,
    Offp,
    OpeningLog,
    RaceLog,
    Reqc,
    TraceEvent,
    format_event,
)
from wavebroker.topology import Link, make_network

from conftest import benchmark_config, mknet, ocl_prices, probed_mcs, random_scenario

VC = VirtualChannel("S", "T", "VC1")
POLICY = UndercutPolicy(50, 100)


def supplier(sid, unit_cost, capacity=1000, policy=POLICY, markup=2.0, wavelengths=1000):
    net = mknet([("S", "T", capacity, unit_cost)], wavelength_count=wavelengths, net_id=sid)
    return SupplierAgent(sid, net, Allocation(), policy, markup)


def duel(seed, mc_a=600, mc_b=400):
    a, b = supplier("A", mc_a), supplier("B", mc_b)
    return run_competition(VC, [a, b], random.Random(seed), probed_mcs(VC, [a, b]))


class TestDuel:
    def test_cheaper_network_wins_inside_band(self):
        for seed in range(50):
            outcome = duel(seed)
            assert outcome.termination is Termination.WON
            assert outcome.winner == "B"
            assert 500 <= outcome.final_price <= 700

    def test_final_price_is_last_standing_minimum(self):
        outcome = duel(11)
        bids = [ev.message.p for ev in outcome.trace.events if isinstance(ev.message, Offp)]
        assert outcome.final_price == min(bids)


class TestGateExceptions:
    def test_single_capable_supplier_wins_at_opening_bid_in_one_round(self):
        capable = supplier("A", 600)
        dry = supplier("B", 400, capacity=0)
        outcome = run_competition(VC, [capable, dry], random.Random(0), probed_mcs(VC, [capable, dry]))
        assert outcome.termination is Termination.WON
        assert outcome.winner == "A"
        assert outcome.final_price == 1200
        assert outcome.rounds == 1
        kinds = [type(ev.message) for ev in outcome.trace.events]
        assert kinds == [Reqc, Reqc, Offp, Exc1]

    def test_all_declining_ends_with_no_winner(self):
        dry = [supplier("A", 1, capacity=0), supplier("B", 1, capacity=0)]
        outcome = run_competition(VC, dry, random.Random(0), probed_mcs(VC, dry))
        assert outcome.termination is Termination.ALL_DECLINED
        assert outcome.winner is None
        assert outcome.final_price is None

    def test_no_suppliers_is_an_error(self):
        with pytest.raises(ValueError):
            run_competition(VC, [], random.Random(0), [])


class TestMultiSupplier:
    def test_lone_cutter_after_contested_round_takes_the_win(self):
        # opening bids 1000/990/980; round 2 has two cutters (steps 50 and 100),
        # round 3 only one can still cut, which settles it
        a = supplier("A", 800, policy=UndercutPolicy(50, 50), markup=1.25)
        b = supplier("B", 800, policy=UndercutPolicy(100, 100), markup=1.2375)
        c = supplier("C", 800, policy=UndercutPolicy(100, 100), markup=1.225)
        outcome = run_competition(VC, [a, b, c], random.Random(1), probed_mcs(VC, [a, b, c]))
        assert outcome.rounds == 3
        assert outcome.winner == "A"
        assert outcome.final_price == 830

    def test_alternating_duel_does_not_end_on_single_cutter(self):
        # two suppliers produce one cutter per round by construction; the
        # auction must run down to marginal cost, not stop at first cut
        outcome = duel(3)
        assert outcome.rounds > 2

    def test_round_cap_guard(self):
        a, b = supplier("A", 600), supplier("B", 400)
        with pytest.raises(RoundCapExceededError):
            run_competition(VC, [a, b], random.Random(0), probed_mcs(VC, [a, b]), round_cap=1)


class TestTraceConformance:
    def test_emitted_traces_validate(self):
        rng = random.Random(42)
        for trial in range(150):
            n = rng.randint(2, 4)
            suppliers = [
                supplier(
                    f"S{i}",
                    rng.randint(100, 900),
                    capacity=0 if rng.random() < 0.2 else 1000,
                    policy=UndercutPolicy(rng.randint(10, 60), rng.randint(60, 160)),
                    markup=1.0 + rng.random() * 2,
                )
                for i in range(n)
            ]
            outcome = run_competition(VC, suppliers, random.Random(trial), probed_mcs(VC, suppliers))
            assert validate_trace(outcome.trace) == []

    def test_announced_minimum_strictly_decreases(self):
        for seed in range(30):
            outcome = duel(seed, mc_a=500, mc_b=500)
            prices = ocl_prices(outcome.trace)
            assert all(p1 > p2 for p1, p2 in zip(prices, prices[1:]))

    def test_termination_round_bound(self):
        rng = random.Random(9)
        for trial in range(60):
            lo = rng.randint(10, 80)
            policy = UndercutPolicy(lo, lo + rng.randint(0, 80))
            mc_a, mc_b = rng.randint(100, 900), rng.randint(100, 900)
            a, b = supplier("A", mc_a, policy=policy), supplier("B", mc_b, policy=policy)
            outcome = run_competition(VC, [a, b], random.Random(trial), probed_mcs(VC, [a, b]))
            max_bid = max(2 * mc_a, 2 * mc_b)
            bound = math.ceil((max_bid - min(mc_a, mc_b)) / policy.l_min) + 2
            assert outcome.rounds <= bound

    def test_announcements_carry_no_identity(self):
        assert set(Ocl._fields) == {"x", "y", "p"} and Ocl.__slots__ == Ocl._fields

    def test_winner_never_prices_below_own_marginal_cost(self):
        for seed in range(40):
            outcome = duel(seed, mc_a=700, mc_b=300)
            assert outcome.final_price >= 300


class TestValidateTraceViolations:
    def test_missing_opening_request(self):
        trace = CompetitionTrace((TraceEvent(1, BROKER_TO_SUPPLIER, "A", Ocl("S", "T", 100)),))
        assert {v.code for v in validate_trace(trace)} == {"missing-reqc"}

    def test_non_undercutting_bid(self):
        outcome = duel(5)
        tampered = []
        bumped = False
        for ev in outcome.trace.events:
            if not bumped and ev.round > 1 and isinstance(ev.message, Offp):
                tampered.append(TraceEvent(ev.round, ev.direction, ev.supplier_id, Offp(10_000, "S", "T")))
                bumped = True
            else:
                tampered.append(ev)
        vios = validate_trace(CompetitionTrace(tuple(tampered)))
        assert "non-undercutting-bid" in {v.code for v in vios}

    def test_wrong_announcement_price(self):
        outcome = duel(6)
        tampered = tuple(
            TraceEvent(ev.round, ev.direction, ev.supplier_id, Ocl("S", "T", ev.message.p + 1))
            if isinstance(ev.message, Ocl)
            else ev
            for ev in outcome.trace.events
        )
        vios = validate_trace(CompetitionTrace(tampered))
        assert "ocl-price-mismatch" in {v.code for v in vios}

    def test_illegal_settlement_sequence(self):
        outcome = duel(7)
        from wavebroker.protocol import Nack

        extended = outcome.trace.events + (
            TraceEvent(outcome.rounds, BROKER_TO_SUPPLIER, "B", Nack("S", "T")),
            TraceEvent(outcome.rounds, BROKER_TO_SUPPLIER, "B", Nack("S", "T")),
        )
        vios = validate_trace(CompetitionTrace(extended))
        assert "illegal-settlement" in {v.code for v in vios}

    def test_a_round_one_settlement_is_checked_like_a_later_one(self):
        # one priced supplier wins at its opening bid, so settlement is sent in round 1
        lone = [supplier("S0", 300, capacity=0), supplier("S1", 305)]
        mcs = probed_mcs(VC, lone)

        def checked(tail):
            def logged():
                return run_competition(VC, lone, random.Random(1), mcs).trace.settled(tail)

            vios = validate_trace(logged())
            assert vios == validate_trace(CompetitionTrace(logged().events))
            return vios

        def tail(rnd, *messages):
            return tuple(TraceEvent(rnd, direction, "S1", msg) for direction, msg in messages)

        exc1, ack, nack = Exc1(1, 610, "S", "T"), Ack("S", "T", 1), Nack("S", "T")
        bad = ((BROKER_TO_SUPPLIER, exc1), (SUPPLIER_TO_BROKER, exc1), (BROKER_TO_SUPPLIER, ack))
        want = [
            Violation("illegal-settlement", "settlement sequence [exc_1,exc_1,ack] is not legal"),
            Violation("bad-direction", "exc_1 has the wrong direction"),
        ]
        # an exception after the opening answers is settlement, not a gate decline, in round 1 as in round 2
        assert checked(tail(1, *bad)) == checked(tail(2, *bad)) == want
        assert checked(tail(1, (SUPPLIER_TO_BROKER, exc1), (BROKER_TO_SUPPLIER, ack))) == []
        extra = checked(tail(1, (SUPPLIER_TO_BROKER, exc1), (BROKER_TO_SUPPLIER, ack), (BROKER_TO_SUPPLIER, nack)))
        assert [v.detail for v in extra] == ["settlement sequence [exc_1,ack,nack] is not legal"]

    def test_a_logged_trace_is_checked_without_building_its_events(self, monkeypatch):
        shapes = list(competitions_of_every_shape())
        replayed = [validate_trace(CompetitionTrace(unread_trace().settled(tail).events)) for _, unread_trace, tail in shapes]
        assert [] in replayed

        def refuse(log):
            raise AssertionError("events built")

        monkeypatch.setattr(protocol.OpeningLog, "events", refuse)
        monkeypatch.setattr(protocol.RaceLog, "events", refuse)
        for (name, unread_trace, tail), want in zip(shapes, replayed):
            trace = unread_trace().settled(tail)
            unread = pickle.dumps(trace)
            assert validate_trace(trace) == want, name
            assert pickle.dumps(trace) == unread, name


def logged_variants(rng, trace):
    """(name, opening, race, tail) logs: the trace's own, then altered copies.

    The copies lower an opening price, raise a bid to or above the price
    it answers, lower a bid, and append a few random events to the
    settlement tail or put them in its place, any of which may break the
    protocol.  Events in place of the tail may continue the race's last
    round.
    """
    opening, race, tail = trace._opening, trace._race, trace._tail
    x, y = opening.x, opening.y
    out = [("as run", opening, race, tail)]
    priced = [k for k, p in enumerate(opening.prices) if p is not None]
    if priced:
        prices = list(opening.prices)
        prices[rng.choice(priced)] -= rng.randint(1, 5)
        out.append(("lowered opening price", opening._replace(prices=prices), race, tail))
    announced = None
    if race is not None and race.bids:
        j = rng.randrange(1, len(race.bids), 2)
        ends, _, prices = race._walk()
        announced = next(price for price, start, end in zip(prices, race.starts, ends) if start < j < end)
        for name, price in (
            ("bid raised to the announced price", announced),
            ("bid raised above the announced price", announced + rng.randint(1, 50)),
            ("bid lowered", race.bids[j] - rng.randint(1, 5)),
        ):
            bids = list(race.bids)
            bids[j] = price
            out.append((name, opening, race._replace(bids=bids), tail))
    last = 1 if race is None else 1 + len(race.starts)  # the last round run
    for k in range(4):
        pool = [
            Ack(x, y, 1), Nack(x, y), Exc1(rng.randint(0, 2), 600, x, y), Exc2(x, y, 600),
            Offp(rng.choice((announced or 600, 1, 10_000)), x, y), Ocl(x, y, rng.choice((announced or 600, 1))), Reqc(x, y),
        ]
        extra = tuple(
            TraceEvent(rng.choice((last - 1, last, last + 1)), rng.choice((BROKER_TO_SUPPLIER, SUPPLIER_TO_BROKER)), "S0", rng.choice(pool))
            for _ in range(rng.randint(1, 3))
        )
        out.append(("appended tail events", opening, race, tail + extra) if k % 2 else ("replaced tail events", opening, race, extra))
    return out


def hand_built_races():
    """(name, opening, race, tail, announced prices, violation details) of races the race loop never logs.

    Three bidders open at 500, 510 and 520.  A round with no bids ends a
    logged race, and a round's bids are all below its price, so none of
    these comes from ``run_competition``.
    """
    ids = ("S0", "S1", "S2")
    opening = OpeningLog("S", "T", ids, [500, 510, 520])

    def race(starts, bids):
        return RaceLog("S", "T", ids, 500, starts, bids)

    def tail(*events):
        return tuple(TraceEvent(rnd, direction, "S0", msg) for rnd, direction, msg in events)

    # round 2 and round 4 log no bids, so rounds 3 and 5 announce the price again
    yield "a middle round with no bids", opening, race([0, 0, 2, 2], [1, 495, 2, 490]), (), [500, 500, 495, 495], []
    yield "a single round", opening, race([0], [1, 498, 2, 497]), (), [500], []
    yield "tied lowest bids", opening, race([0, 6], [1, 495, 2, 493, 0, 493, 2, 490]), (), [500, 493], []
    yield (
        "a bid equal to the announced price in the last round",
        opening,
        race([0, 2], [1, 495, 0, 495, 2, 494]),
        (),
        [500, 495],
        ["bid 495 does not beat announced 495"],
    )
    yield (
        "a tail that continues the last round",
        opening,
        race([0, 2], [1, 495, 2, 493]),
        tail((3, BROKER_TO_SUPPLIER, Ocl("S", "T", 495)), (3, SUPPLIER_TO_BROKER, Offp(496, "S", "T")), (3, BROKER_TO_SUPPLIER, Ack("S", "T", 1))),
        [500, 495],
        ["bid 496 does not beat announced 495"],
    )


def reference_lines(race):
    """A race's trace lines written round by round: the reference for ``RaceLog.lines``, which writes the race whole."""
    ids, bids, starts = race.ids, race.bids, race.starts
    xy = f"x={race.x},y={race.y}"
    lines, price = [], race.opening_min
    for rnd, start, end in zip(range(2, 2 + len(starts)), starts, starts[1:] + [len(bids)]):
        lines += [f"{rnd}\t{BROKER_TO_SUPPLIER}\t{sid}\tocl\t{xy},p={price}" for sid in ids]
        lines += [f"{rnd}\t{SUPPLIER_TO_BROKER}\t{ids[i]}\toffp\tp={p},{xy}" for i, p in zip(bids[start:end:2], bids[start + 1 : end : 2])]
        if end > start:
            price = min(bids[start + 1 : end : 2])
    return lines


class TestLogCheckMatchesReplay:
    """``validate_trace`` on a trace's logs agrees with the replay of its events."""

    @staticmethod
    def assert_agrees(opening, race, tail, name):
        logged = CompetitionTrace(tail, opening, race)
        vios = validate_trace(logged)
        assert vios == validate_trace(CompetitionTrace(logged.events)), name
        return vios

    def test_generated_markets(self, tmp_path):
        rng = random.Random(77)
        configs = [random_scenario(rng, tag) for tag in range(150)]
        configs += [benchmark_config(tmp_path, "auction", 1, k) for k in range(3)]
        configs += [benchmark_config(tmp_path, "stress", 1, 0)]
        seen = collections.Counter()
        for config in configs:
            for trace in run_scenario(config).traces:
                opening, race = trace._opening, trace._race
                priced = sorted(p for p in opening.prices if p is not None)
                seen["all declined"] += not priced
                seen["shortfall at the opening"] += race is None and any(isinstance(ev.message, Exc1) for ev in trace._tail)
                seen["tied openings"] += len(priced) > 1 and priced[0] == priced[1]
                seen["race"] += race is not None
                for name, *logs in logged_variants(rng, trace):
                    vios = self.assert_agrees(*logs, name)
                    seen[name] += 1
                    tail = logs[2]
                    seen["tail continues the last round"] += bool(
                        race and tail and tail[0].round == 1 + len(race.starts) and isinstance(tail[0].message, (Ocl, Offp))
                    )
                    seen[f"{name}, flagged"] += bool(vios)
                    if name == "as run":
                        assert vios == [], config.id
        kinds = ("all declined", "shortfall at the opening", "tied openings", "race", "tail continues the last round")
        assert min(seen[kind] for kind in kinds) >= 50, seen
        altered = ("lowered opening price", "bid lowered", "appended tail events", "replaced tail events")
        assert min(seen[f"{name}, flagged"] for name in altered) >= 100, seen
        # raising a bid always breaks a rule; the other changes may or may not
        for name in ("bid raised to the announced price", "bid raised above the announced price"):
            assert seen[f"{name}, flagged"] == seen[name] >= 100

    def test_logs_the_race_never_writes(self):
        """Hand-built races: lines agree with the events, and the log check with the replay, as written and with a lowered opening."""
        names = []
        for name, opening, race, tail, want_prices, want_details in hand_built_races():
            assert race.lines() == [format_event(ev) for ev in race.events()], name
            events = CompetitionTrace(tail, opening, race).events
            assert CompetitionTrace(tail, opening, race).lines() == [format_event(ev) for ev in events], name
            assert ocl_prices(CompetitionTrace(events)) == want_prices, name
            vios = self.assert_agrees(opening, race, tail, name)
            assert [v.detail for v in vios] == want_details, name
            # a lowered opening makes every announcement up to the first round with bids a mismatch
            lowered = opening._replace(prices=[p - 1 for p in opening.prices])
            vios = self.assert_agrees(lowered, race, tail, name)
            assert "ocl-price-mismatch" in {v.code for v in vios}, name
            names.append(name)
        assert len(names) == 5

    def test_lines_of_random_logs_match_the_reference(self):
        """Random logs, empty rounds included, are written as the round-by-round reference writes them."""
        rng = random.Random(31)
        for _ in range(1000):
            ids = tuple(f"S{i}" for i in range(rng.randint(1, 4)))
            bids, starts = [], []
            for _ in range(rng.randint(0, 5)):
                starts.append(len(bids))
                for _ in range(rng.choice((0, 1, 2))):
                    bids += [rng.randrange(len(ids)), rng.randint(90, 110)]
            race = RaceLog("S", "T", ids, 100, starts, bids)
            assert race.lines() == reference_lines(race), race

    def test_a_bidder_index_past_the_bidders_raises(self):
        suppliers = [supplier(f"S{i}", 300 + 10 * i, policy=UndercutPolicy(1, 3)) for i in range(4)]
        trace = run_competition(VC, suppliers, random.Random(5), probed_mcs(VC, suppliers)).trace
        race = trace._race
        for index in (len(race.ids), -len(race.ids) - 1):
            bids = list(race.bids)
            bids[-2] = index
            broken = race._replace(bids=bids)
            with pytest.raises(IndexError):
                validate_trace(CompetitionTrace((), trace._opening, broken))
            with pytest.raises(IndexError):
                CompetitionTrace((), trace._opening, broken).events


SETTLEMENT_TAILS = {
    "exc_2,nack": (
        TraceEvent(3, BROKER_TO_SUPPLIER, "S1", Exc2("S", "T", 610)),
        TraceEvent(3, BROKER_TO_SUPPLIER, "S1", Nack("S", "T")),
    ),
    "exc_1,ack": (
        TraceEvent(3, SUPPLIER_TO_BROKER, "S1", Exc1(2, 610, "S", "T")),
        TraceEvent(3, BROKER_TO_SUPPLIER, "S1", Ack("S", "T", 2)),
    ),
    "exc_1,nack": (
        TraceEvent(3, SUPPLIER_TO_BROKER, "S1", Exc1(0, 610, "S", "T")),
        TraceEvent(3, BROKER_TO_SUPPLIER, "S1", Nack("S", "T")),
    ),
    "ack": (TraceEvent(3, BROKER_TO_SUPPLIER, "S1", Ack("S", "T", 4)),),
}


def competitions_of_every_shape():
    """(name, a function returning a fresh unread trace, settlement tail) per trace shape.

    Every supplier declining at the gate; one capable supplier winning in
    round 1; and a race, each of the last two with no tail and with every
    legal settlement tail.
    """
    declined = [supplier(f"S{i}", 300, capacity=0) for i in range(3)]
    lone = [supplier("S0", 300, capacity=0), supplier("S1", 305), supplier("S2", 290, capacity=0)]
    race = [supplier(f"S{i}", 300 + 10 * i, policy=UndercutPolicy(1, 3)) for i in range(4)]
    race.insert(1, supplier("dry", 100, capacity=0))

    def unread(suppliers, raced):
        mcs = probed_mcs(VC, suppliers)

        def trace():
            out = run_competition(VC, suppliers, random.Random(5), mcs)
            assert (out.race is not None) == raced == (out.rounds > 1)
            return out.trace

        return trace

    yield "all declined", unread(declined, False), ()
    for name, suppliers, raced in (("won at the opening", lone, False), ("race", race, True)):
        yield name, unread(suppliers, raced), ()
        for tail_name, tail in SETTLEMENT_TAILS.items():
            yield f"{name}, {tail_name}", unread(suppliers, raced), tail


class TestTraceFormat:
    def test_line_format_is_stable(self):
        ev = TraceEvent(3, SUPPLIER_TO_BROKER, "netB", Offp(725, "S", "T"))
        assert format_event(ev) == "3\tsupplier->broker\tnetB\toffp\tp=725,x=S,y=T"
        ev2 = TraceEvent(1, BROKER_TO_SUPPLIER, "netA", Reqc("S", "T"))
        assert format_event(ev2) == "1\tbroker->supplier\tnetA\treqc\tx=S,y=T"

    def test_trace_event_is_an_immutable_picklable_tuple(self):
        ev = TraceEvent(2, BROKER_TO_SUPPLIER, "netA", Ocl("S", "T", 900))
        assert TraceEvent._fields == ("round", "direction", "supplier_id", "message")
        with pytest.raises(AttributeError):
            ev.round = 3
        assert not hasattr(ev, "__dict__")
        back = pickle.loads(pickle.dumps(ev))
        assert back == ev and type(back) is TraceEvent
        assert format_event(back) == "2\tbroker->supplier\tnetA\tocl\tx=S,y=T,p=900"

    def test_every_message_type_formats_as_its_fields_in_order(self):
        def reference_format(ev):
            msg = ev.message
            fields = ",".join(f"{name}={getattr(msg, name)}" for name in msg.__slots__)
            return f"{ev.round}\t{ev.direction}\t{ev.supplier_id}\t{_WIRE_NAMES[type(msg)]}\t{fields}"

        messages = [
            Reqc("S", "T"),
            Offp(725, "S", "T"),
            Ocl("n-1", "n.2", 2**53),
            Nack("S", "T"),
            Ack("S", "T", 3),
            Exc1(0, 0, "S", "T"),
            Exc2("S", "T", -1),
        ]
        assert {type(m) for m in messages} == set(_WIRE_NAMES)
        for rnd, msg in enumerate(messages, start=1):
            for direction in (BROKER_TO_SUPPLIER, SUPPLIER_TO_BROKER):
                ev = TraceEvent(rnd, direction, "net_B.2", msg)
                assert format_event(ev) == reference_format(ev)

    def test_a_race_pickles_as_its_log_and_settles_without_its_events(self):
        suppliers = [supplier(f"S{i}", 300 + 10 * i, policy=UndercutPolicy(1, 3)) for i in range(5)]
        mcs = probed_mcs(VC, suppliers)
        trace = run_competition(VC, suppliers, random.Random(5), mcs).trace
        logged = pickle.dumps(trace)
        eager = CompetitionTrace(trace.events)
        # reading the events leaves the trace as it was, so it still pickles as its log
        assert pickle.dumps(trace) == logged and len(logged) * 4 < len(pickle.dumps(eager))
        tail = (TraceEvent(99, BROKER_TO_SUPPLIER, "S0", Nack("S", "T")),)
        lazy = run_competition(VC, suppliers, random.Random(5), mcs).trace.settled(tail)
        assert lazy == eager.settled(tail) == CompetitionTrace(trace.events + tail)
        assert hash(lazy) == hash(CompetitionTrace(trace.events + tail))

        # races that never run, and every settlement tail, pickle as their logs too
        for name, unread_trace, tail in competitions_of_every_shape():
            events = unread_trace().events
            want = CompetitionTrace(events + tail)
            lazy = unread_trace().settled(tail)
            logged = pickle.dumps(lazy)
            assert len(logged) < len(pickle.dumps(want)), name
            assert lazy == CompetitionTrace(events).settled(tail) == want, name
            assert hash(lazy) == hash(want) and pickle.dumps(lazy) == logged, name
            back = pickle.loads(logged)
            assert back.lines() == want.lines() and pickle.dumps(back) == logged, name
            assert back == want and hash(back) == hash(want), name
            assert pickle.loads(pickle.dumps(want)).events == want.events == back.events, name

    def test_lines_are_the_same_from_the_log_and_from_the_events(self):
        suppliers = [supplier(f"S{i}", 300 + 10 * i, policy=UndercutPolicy(1, 3)) for i in range(5)]
        mcs = probed_mcs(VC, suppliers)
        tail = (
            TraceEvent(99, SUPPLIER_TO_BROKER, "S0", Exc1(2, 310, "S", "T")),
            TraceEvent(99, BROKER_TO_SUPPLIER, "S0", Ack("S", "T", 2)),
        )

        def unread():
            return run_competition(VC, suppliers, random.Random(5), mcs).trace

        events = unread().events
        want = [format_event(ev) for ev in events]
        settled = [*want, *map(format_event, tail)]
        assert len(want) > 40
        assert unread().lines() == want
        assert CompetitionTrace(events).lines() == want
        assert unread().settled(tail).lines() == settled
        assert CompetitionTrace(events).settled(tail).lines() == settled
        read = unread().settled(tail)
        assert read.events == CompetitionTrace(events + tail).events
        assert read.lines() == settled

        for name, unread_trace, tail in competitions_of_every_shape():
            events = unread_trace().events
            want = [format_event(ev) for ev in (*events, *tail)]
            lazy = unread_trace().settled(tail)
            assert lazy.lines() == want == CompetitionTrace(events + tail).lines(), name
            # formatting leaves the trace as it was, and so does reading its events
            assert pickle.dumps(lazy) == pickle.dumps(unread_trace().settled(tail)), name
            assert lazy.events == events + tail and lazy.lines() == want, name
            assert lazy == CompetitionTrace(events + tail) and hash(lazy) == hash(CompetitionTrace(events + tail)), name

    def test_reading_the_events_changes_no_pickle_line_or_check(self, monkeypatch):
        formatted, replayed = [], []
        replay = protocol._replay
        monkeypatch.setattr(protocol, "format_event", lambda ev: formatted.append(ev) or format_event(ev))
        monkeypatch.setattr(protocol, "_replay", lambda events: replayed.append(events) or replay(events))
        for name, unread_trace, tail in competitions_of_every_shape():
            trace = unread_trace().settled(tail)
            unread, lines, vios = pickle.dumps(trace), trace.lines(), validate_trace(trace)
            events = trace.events
            formatted.clear()
            assert pickle.dumps(trace) == unread, name
            # the logs are still formatted whole: only the settlement tail goes event by event
            assert trace.lines() == lines and formatted == list(tail), name
            assert validate_trace(trace) == vios and replayed == [], name
            assert trace.events == events, name

    def test_every_announcement_of_a_round_has_the_same_price(self):
        suppliers = [supplier(f"S{i}", 300 + 10 * i, policy=UndercutPolicy(1, 3)) for i in range(5)]
        outcome = run_competition(VC, suppliers, random.Random(5), probed_mcs(VC, suppliers))
        by_round: dict[int, set[Ocl]] = {}
        for ev in outcome.trace.events:
            if isinstance(ev.message, Ocl):
                by_round.setdefault(ev.round, set()).add(ev.message)
        assert len(by_round) == outcome.rounds - 1 > 5
        assert all(len(msgs) == 1 for msgs in by_round.values())
        assert [next(iter(by_round[r])).p for r in sorted(by_round)] == ocl_prices(outcome.trace)


def reference_decide(current_min, own_next_unit_mc, is_leader, policy, rng):
    """The decision as first written: ``randint`` for the step."""
    if is_leader:
        return None
    candidate = current_min - rng.randint(policy.l_min, policy.l_max)
    return Bid(candidate) if candidate >= own_next_unit_mc else None


def round_half_up(x):
    return math.floor(x + 0.5)


def reference_race(vc, suppliers, rng, mcs, round_cap=10_000):
    """The race loop as first written: one decision per active supplier and
    round, the leader's included, and the round minimum found afterwards."""
    x, y = vc.src, vc.dst
    reqc = Reqc(x, y)
    events = [TraceEvent(1, BROKER_TO_SUPPLIER, s.id, reqc) for s in suppliers]
    bids = {}
    mc_of = dict(zip([s.id for s in suppliers], mcs))
    for s in suppliers:
        mc = mc_of[s.id]
        if mc is None:
            events.append(TraceEvent(1, SUPPLIER_TO_BROKER, s.id, Exc1(0, 0, x, y)))
            continue
        bids[s.id] = round_half_up(s.markup * mc)
        events.append(TraceEvent(1, SUPPLIER_TO_BROKER, s.id, Offp(bids[s.id], x, y)))
    active = [s for s in suppliers if s.id in bids]
    if not active:
        return CompetitionOutcome(None, None, 1, CompetitionTrace(tuple(events)), Termination.ALL_DECLINED)
    current_min = min(bids.values())
    tied = [s for s in active if bids[s.id] == current_min]
    leader = tied[0] if len(tied) == 1 else rng.choice(tied)
    if len(active) == 1:
        return CompetitionOutcome(leader.id, current_min, 1, CompetitionTrace(tuple(events)), Termination.WON)
    prev_contested = False
    rnd = 1
    while True:
        rnd += 1
        if rnd > round_cap:
            raise RoundCapExceededError(f"no resting price after {round_cap} rounds")
        ocl = Ocl(x, y, current_min)
        events += [TraceEvent(rnd, BROKER_TO_SUPPLIER, s.id, ocl) for s in active]
        cutters = []
        for s in active:
            decision = reference_decide(current_min, mc_of[s.id], s is leader, s.policy, rng)
            if isinstance(decision, Bid):
                events.append(TraceEvent(rnd, SUPPLIER_TO_BROKER, s.id, Offp(decision.price, x, y)))
                cutters.append((s, decision.price))
        if not cutters:
            return CompetitionOutcome(leader.id, current_min, rnd, CompetitionTrace(tuple(events)), Termination.WON)
        if len(cutters) == 1 and prev_contested:
            winner, price = cutters[0]
            return CompetitionOutcome(winner.id, price, rnd, CompetitionTrace(tuple(events)), Termination.WON)
        round_min = min(price for _, price in cutters)
        tied = [s for s, price in cutters if price == round_min]
        leader = tied[0] if len(tied) == 1 else rng.choice(tied)
        current_min = round_min
        prev_contested = len(cutters) >= 2


def random_market(rng, tied_openings):
    """2-8 suppliers with steps of 1-6; some decline, some share an opening price."""
    n = rng.randint(2, 8)
    cost, markup = rng.randint(100, 130), rng.choice((1.5, 2.0, 2.25))
    out = []
    for i in range(n):
        lo = rng.randint(1, 6)
        out.append(
            supplier(
                f"S{i}",
                cost if tied_openings else rng.randint(100, 130),
                capacity=0 if rng.random() < 0.1 else 1000,
                policy=UndercutPolicy(lo, rng.randint(lo, 6)),
                markup=markup if tied_openings else rng.choice((1.5, 2.0, 2.25)),
            )
        )
    return out


def race_result(race, suppliers, seed, **kwargs):
    """Everything a race shows: trace events and lines, outcome, and the generator's final state.

    The race gets the suppliers' probed marginal costs.  The trace must
    also equal one built from its own events, and survive a pickle round
    trip.
    """
    rng = random.Random(seed)
    try:
        out = race(VC, suppliers, rng, probed_mcs(VC, suppliers), **kwargs)
    except RoundCapExceededError as exc:
        return ("round cap", str(exc), rng.getstate())
    trace = out.trace
    unread = pickle.dumps(trace)
    lines = trace.lines()
    # lines come from the log: the trace builds no events and still pickles as its log
    assert pickle.dumps(trace) == unread
    copy = pickle.loads(unread)
    assert CompetitionTrace(trace.events) == trace
    assert lines == [format_event(ev) for ev in trace.events] == trace.lines()
    assert copy.events == trace.events and copy.lines() == lines
    return (trace.events, lines, out.winner, out.final_price, out.rounds, out.termination, rng.getstate())


class TestRaceMatchesReference:
    @pytest.mark.parametrize("tied_openings", [False, True])
    def test_random_markets(self, tied_openings):
        rng = random.Random(2024 + tied_openings)
        for trial in range(150):
            suppliers = random_market(rng, tied_openings)
            want = race_result(reference_race, suppliers, trial)
            assert race_result(run_competition, suppliers, trial) == want, trial

    def test_round_cap(self):
        suppliers = [supplier(f"S{i}", 100, policy=UndercutPolicy(1, 2)) for i in range(6)]
        want = race_result(reference_race, suppliers, 3, round_cap=12)
        assert want[0] == "round cap"
        assert race_result(run_competition, suppliers, 3, round_cap=12) == want

    def test_race_never_probes_placement(self, monkeypatch):
        suppliers = [supplier(f"S{i}", 300 + 10 * i, policy=UndercutPolicy(1, 3)) for i in range(5)]
        suppliers.append(supplier("dry", 100, capacity=0))
        mcs = probed_mcs(VC, suppliers)
        want = race_result(reference_race, suppliers, 7)

        def no_probe(*args):
            raise AssertionError("the race probed a marginal cost")

        monkeypatch.setattr(SupplierAgent, "next_unit_mc", no_probe)
        monkeypatch.setattr(game, "marginal_cost", no_probe)
        rng = random.Random(7)
        out = run_competition(VC, suppliers, rng, mcs)
        assert out.rounds > 2
        got = (out.trace.events, out.winner, out.final_price, out.rounds, rng.getstate())
        assert got == (want[0], *want[2:5], want[6])

    @pytest.mark.parametrize("k", range(1, 9))
    def test_rejection_heavy_step_widths(self, k):
        """Steps of width 2**k + 1 reject almost half of their draws."""
        width = 2**k + 1
        rng = random.Random(k)
        for trial in range(12):
            suppliers = []
            for i in range(rng.randint(2, 6)):
                lo = rng.randint(1, 3)
                policy = UndercutPolicy(lo, lo + width - 1)
                suppliers.append(supplier(f"S{i}", rng.randint(10, 14) * width, policy=policy))
            want = race_result(reference_race, suppliers, trial)
            assert want[4] > 3
            assert race_result(run_competition, suppliers, trial) == want, trial

    @pytest.mark.parametrize("width", [2**32, 2**32 + 1])
    def test_steps_wider_than_one_word(self, width):
        """A step of more than 32 bits takes two words per draw, beside bidders drawing one."""
        rng = random.Random(width)
        for trial in range(20):
            suppliers = []
            for i in range(rng.randint(2, 6)):
                lo = rng.randint(1, 6)
                policy = UndercutPolicy(lo, lo + (width if i % 3 else 5) - 1)
                suppliers.append(supplier(f"S{i}", rng.randint(10, 14) * width, policy=policy))
            want = race_result(reference_race, suppliers, trial)
            assert want[4] > 2
            assert race_result(run_competition, suppliers, trial) == want, trial

    @pytest.mark.parametrize("cut", [1, 2, 5])
    def test_equal_unit_steps_tie_every_round(self, cut):
        """Equal costs and equal one-value steps: every non-leader cuts to the same price each round."""
        for n in range(3, 7):
            suppliers = [supplier(f"S{i}", 60, policy=UndercutPolicy(cut, cut)) for i in range(n)]
            for seed in range(6):
                want = race_result(reference_race, suppliers, seed)
                assert race_result(run_competition, suppliers, seed) == want, (n, seed)
                bids: dict[int, list[int]] = {}
                for ev in want[0]:
                    if ev.round > 1 and isinstance(ev.message, Offp):
                        bids.setdefault(ev.round, []).append(ev.message.p)
                assert len(bids) == want[4] - 2 > 10
                assert all(len(prices) == n - 1 and len(set(prices)) == 1 for prices in bids.values())


class TestBidders:
    """A bidding table built once races as the plain supplier list it was built from."""

    def test_a_reused_table_races_as_a_fresh_list(self):
        rng = random.Random(77)
        for trial in range(80):
            tied = trial % 3 == 0
            suppliers = random_market(rng, tied)
            table = Bidders(suppliers)
            # one table across races whose costs change, some with gate declines or ties
            for race_no in range(6):
                base = rng.randint(100, 130)
                mcs = [
                    None if rng.random() < 0.15 else base if tied or rng.random() < 0.3 else rng.randint(100, 130)
                    for _ in suppliers
                ]
                got_rng, want_rng = random.Random(race_no), random.Random(race_no)
                got = run_competition(VC, table, got_rng, mcs)
                want = run_competition(VC, list(suppliers), want_rng, mcs)
                assert got.trace.lines() == want.trace.lines(), (trial, race_no)
                assert got == want and got_rng.getstate() == want_rng.getstate(), (trial, race_no)

    def test_a_table_keeps_the_suppliers_order_and_constants(self):
        suppliers = [supplier(f"S{i}", 100, policy=UndercutPolicy(i + 1, 2 * i + 3), markup=1.5 + i) for i in range(3)]
        table = Bidders(suppliers)
        assert table.ids == ("S0", "S1", "S2") and table.markups == [1.5, 2.5, 3.5]
        assert table.rows == [[k, None, *s.policy.step] for k, s in enumerate(suppliers)]
        # each leader's askers are the other rows themselves, which a race writes its costs into
        assert [[row[0] for row in askers] for askers in table.askers] == [[1, 2], [0, 2], [0, 1]]
        assert all(row is table.rows[row[0]] for askers in table.askers for row in askers)
        run_competition(VC, table, random.Random(0), [300, 310, 320])
        assert [row[1] for row in table.rows] == [300, 310, 320]

    def test_costs_must_match_the_suppliers(self):
        suppliers = [supplier("A", 100), supplier("B", 120)]
        for table in (suppliers, Bidders(suppliers)):
            with pytest.raises(ValueError, match="3 marginal costs for 2 suppliers"):
                run_competition(VC, table, random.Random(0), [100, 120, 130])
        with pytest.raises(ValueError, match="at least one supplier"):
            run_competition(VC, Bidders([]), random.Random(0), [])


class DrawRecorder(random.Random):
    """A generator that records each ``getrandbits`` draw as (bits, value)."""

    def __init__(self, seed):
        self.draws = []
        super().__init__(seed)

    def getrandbits(self, k):
        value = super().getrandbits(k)
        self.draws.append((k, value))
        return value


class TestPerAsk:
    """The race asks every active supplier but the leader once per round,
    each ask takes one accepted step draw, and the race's counts say so."""

    # width 9 draws 4 bits and rejects 9..15; a tie pick among at most 4 cutters draws 3 bits or fewer
    POLICY = UndercutPolicy(1, 9)

    def test_one_accepted_draw_per_round_and_non_leader(self):
        suppliers = [supplier(f"S{i}", 300 + 10 * i, policy=self.POLICY) for i in range(5)]
        suppliers.insert(2, supplier("dry", 100, capacity=0))
        mcs = probed_mcs(VC, suppliers)
        rng = DrawRecorder(11)
        out = run_competition(VC, suppliers, rng, mcs)
        asks, bids, passes, most_cutters = out.race.counts()
        mc_of = dict(zip([s.id for s in suppliers], mcs))
        active = [sid for sid, mc in mc_of.items() if mc is not None]
        assert out.rounds > 5
        assert asks == (out.rounds - 1) * (len(active) - 1)
        l_min, width, bits = self.POLICY.step
        accepted = [r for k, r in rng.draws if k == bits and r < width]
        assert len(accepted) == asks

        offers: dict[int, list[tuple[str, int]]] = {}
        for ev in out.trace.events:
            if ev.round > 1 and isinstance(ev.message, Offp):
                offers.setdefault(ev.round, []).append((ev.supplier_id, ev.message.p))
        assert bids == len(out.race.bids) // 2 == sum(map(len, offers.values())) > 0
        assert passes == asks - bids
        assert most_cutters == max(map(len, offers.values()))
        # the dry supplier is never asked, never bids and draws nothing
        assert "dry" not in out.race.ids
        assert all(sid != "dry" for round_offers in offers.values() for sid, _ in round_offers)

        # each round takes its own share of the draws: those of the suppliers
        # but one leader, in order, give the round's bids at the announced price
        per_round = len(active) - 1
        for k, price in enumerate(ocl_prices(out.trace)):
            draws = accepted[k * per_round : (k + 1) * per_round]

            def bids_if_led_by(leader):
                askers = [sid for sid in active if sid != leader]
                return [(sid, price - l_min - r) for sid, r in zip(askers, draws) if price - l_min - r >= mc_of[sid]]

            assert offers.get(k + 2, []) in [bids_if_led_by(leader) for leader in active], k + 2


# The package's own source directory: a garbage collection inside a profiled
# call may call back into test tooling, whose calls are not the run's.
PACKAGE = os.path.dirname(protocol.__file__)


def profiled_tally(run):
    """(``run()``, the package's Python-level calls counted per (file name, function name))."""
    tally = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            directory, file = os.path.split(code.co_filename)
            if directory == PACKAGE:
                tally[file, code.co_name] += 1

    sys.setprofile(profile)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, tally


def profiled_calls(run):
    """(``run()``, the package's Python-level calls it made)."""
    out, tally = profiled_tally(run)
    return out, sum(tally.values())


class TestFoldedAsk:
    def test_a_long_race_makes_fewer_python_calls_than_asks(self):
        """The race asks inline, so its Python-level calls do not grow with its asks."""
        suppliers = [supplier(f"S{i}", 300 + 10 * i, policy=UndercutPolicy(1, 3)) for i in range(6)]
        mcs = probed_mcs(VC, suppliers)
        rng = random.Random(5)
        out, calls = profiled_calls(lambda: run_competition(VC, suppliers, rng, mcs))
        asks = (out.rounds - 1) * (len(suppliers) - 1)
        assert out.rounds > 50
        assert 0 < calls < asks

    def test_no_python_call_per_round(self):
        """Ties are broken inline as well, so a race ten times longer makes the same Python-level calls."""
        calls, rounds, tied_rounds = {}, {}, {}
        for base in (300, 3000):
            suppliers = [supplier(f"S{i}", base + 10 * i, policy=UndercutPolicy(1, 3)) for i in range(6)]
            mcs = probed_mcs(VC, suppliers)
            rng = random.Random(5)
            out, calls[base] = profiled_calls(lambda: run_competition(VC, suppliers, rng, mcs))
            rounds[base] = out.rounds
            log = out.race
            bounds = zip(log.starts, log.starts[1:] + [len(log.bids)])
            round_prices = [log.bids[start + 1 : end : 2] for start, end in bounds]
            # the rounds in which two or more cutters reached the round minimum
            tied_rounds[base] = sum(p.count(min(p)) > 1 for p in round_prices if p)
        assert rounds == {300: 101, 3000: 1043}
        # the long race ties in many more rounds, and each tie is broken without a call
        assert tied_rounds[3000] > tied_rounds[300] > 10
        assert calls[300] == calls[3000] > 0

    def test_writing_and_checking_a_trace_make_no_python_call_per_round(self):
        """A race ten times longer is written and checked with the same Python-level calls."""
        written, checked, rounds = {}, {}, {}
        for base in (300, 3000):
            suppliers = [supplier(f"S{i}", base + 10 * i, policy=UndercutPolicy(1, 3)) for i in range(6)]
            out = run_competition(VC, suppliers, random.Random(5), probed_mcs(VC, suppliers))
            rounds[base] = out.rounds
            lines, written[base] = profiled_calls(out.trace.lines)
            violations, checked[base] = profiled_calls(lambda: validate_trace(out.trace))
            assert violations == [] and len(lines) > 6 * out.rounds
        assert rounds == {300: 101, 3000: 1043}
        assert written[300] == written[3000] > 0, written
        assert checked[300] == checked[3000] > 0, checked


def capacity_bound_config():
    """Three suppliers whose two routes hold 10 units a link, and a channel that asks 3-6 units at a time.

    Their capacity binds: the twelve requests end in races, shortfalls and
    a supplier that declines at the gate.
    """
    def network(i, cost):
        links = [Link("S", "T", 10, cost), Link("S", "M", 10, cost // 2 + 50), Link("M", "T", 10, cost // 2 + 50)]
        return make_network(f"net{i}", ["S", "M", "T"], links, 16)

    policy = UndercutPolicy(5, 20)
    suppliers = tuple(SupplierConfig(network(i, cost), policy, 2.0) for i, cost in enumerate((400, 450, 500)))
    channels = (ChannelConfig(VC, LinearDemand(a=9, b=0.005)),)
    return ScenarioConfig("budget", 7, suppliers, channels, tuple((r, "VC1") for r in range(12)))


class TestRequestBudget:
    # Python-level calls of one run of capacity_bound_config(): 527 when
    # this was set, about 44 per request, and 522 in the package's own
    # files, which are all that are counted now.  The race's bidding table and the
    # band's largest step are built once per run, so a request builds
    # neither.  Placement finds its tables on the network object, so it
    # hashes no network or channel, and a state's probe keeps its kernel
    # pick for the next probe of that state and for the winner's
    # settlement: 19 kernel calls when this was set.
    BUDGET = 544
    HASHES = 60
    KERNEL_CALLS = 25

    def test_a_run_stays_within_its_call_budget(self):
        config = capacity_bound_config()
        run_scenario(config)  # validates the config and fills the route tables
        report, tally = profiled_tally(lambda: run_scenario(config))
        calls = sum(tally.values())
        records = report.records
        # the run covers races, full grants, shortfalls and a gate decline
        assert sum(rec.rounds > 1 for rec in records) >= 8
        assert any(0 < rec.granted < rec.demand for rec in records)
        assert any(rec.granted == rec.demand for rec in records)
        assert any("\texc_1\td=0," in line for trace in report.traces for line in trace.lines())
        assert calls <= self.BUDGET
        assert tally["topology.py", "__hash__"] <= self.HASHES
        assert tally["_kernel.py", "cheapest_placement"] <= self.KERNEL_CALLS
