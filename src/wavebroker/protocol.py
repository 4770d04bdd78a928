"""Broker/supplier message vocabulary and the undercutting-auction state machine.

One competition: the broker broadcasts a connection request, suppliers
answer with opening prices (or decline for lack of capacity), and the
broker then repeatedly announces the standing minimum, asking everyone to
beat it.  The announcement carries the price only, never who holds it.
The current leader sits still; a round in which nobody cuts ends the
auction with the leader winning at the standing minimum, as does a round
with a single cutter right after a round that had several.  Demand and
grant/deny messages are exchanged at settlement, after the price is final.

Every message is recorded.  A trace event is a named tuple (round,
direction, supplier_id, message) and messages are read-only, slotted
records (``errors.Record``) that compare by type and value, so message
types with equal fields differ.  A competition, though, records no
per-message objects: it is one ``CompetitionLog``.  Its opening block is
the supplier ids and each one's opening price, or None where it declined
at the gate.  The race, where nearly all messages are sent, records only
its bids: (bidder index, price) pairs and the offset where each round's
bids start.  Its bidders are the priced suppliers and its first price
their lowest opening price, so both are read from the opening block, and
a round's announcements follow from the bids, as each carries the
previous round's lowest bid.
A ``CompetitionTrace`` always holds its log and builds the events from
it on each read, storing nothing, so a run whose traces nobody reads
builds no per-message objects, a trace pickles as its log, and reading
its events changes nothing.  Its trace lines come from the log as well,
so writing a trace builds no events, and ``validate_trace`` checks the
opening block and the race from the log too.  Neither makes a
Python-level call per round: the race's lines are formatted in
whole-race comprehensions and interleaved with slices, and the check
takes the announced prices from the same walk of the log and tracks the
standing minimum itself.

What only the suppliers determine is built once per run, in a
``Bidders`` table: their ids and markups, one row ``[index, mc, l_min,
width, bits]`` per supplier, its step constants being
``UndercutPolicy.step``, and for each possible leader the rows of every
other supplier.  Per request, the caller hands in each supplier's
next-unit marginal cost, which sets its opening bid (markup times MC,
rounded half up) and its floor; the race itself never probes placement.
A race in which every supplier is priced writes the costs into the
table's rows and asks from its asker lists; a race in which some decline
at the gate builds rows and asker lists for the priced ones.  Each round
asks every active supplier but the leader, which would pass and draw
nothing, from the leader's asker list.  The ask is written out in the
race loop, with no call per ask: draw the step through the generator's
bound ``getrandbits`` from the bidder's step constants, and pass if the
price falls below the supplier's marginal cost.  ``game.decide_bid`` is
that same rule as a function, kept for callers that want one ask and for
the benchmark's tracer.  The round minimum and its tied cutters are
tracked as the bids arrive, and a tie is broken by ``rng.choice``'s draw
written out: CPython's ``_randbelow`` loop on ``getrandbits``, as with
the step, so a round makes no Python-level call.  ``CompetitionLog.counts``
derives the race's asks, bids and passes afterwards.  The log and the
``CompetitionOutcome`` are named tuples made with ``tuple.__new__``,
which runs no Python frame.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from enum import Enum
from itertools import count
from math import floor
from operator import sub
from typing import NamedTuple

from .errors import Record, RoundCapExceededError, Violation, _set
from .game import SupplierAgent, _new
from .game import decide_bid  # noqa: F401 -- the race inlines it; perfbench/layers.py traces the game layer by this name
from .topology import VirtualChannel

BROKER_TO_SUPPLIER = "broker->supplier"
SUPPLIER_TO_BROKER = "supplier->broker"

DEFAULT_ROUND_CAP = 10_000

# A race logs every round it runs, so the cap a scenario sets bounds its memory.
MAX_ROUND_CAP = 1_000_000


class Reqc(Record):
    """Open a competition for the virtual link x-y."""
    __slots__ = _fields = ("x", "y")


class Offp(Record):
    """A supplier's per-wavelength price offer."""
    __slots__ = _fields = ("p", "x", "y")


class Ocl(Record):
    """Broker: beat this price.  Carries no bidder identity."""
    __slots__ = _fields = ("x", "y", "p")


class Nack(Record):
    """The link request is not granted."""
    __slots__ = _fields = ("x", "y")


class Ack(Record):
    """The link request is granted with d wavelengths to provision."""
    __slots__ = _fields = ("x", "y", "d")

    def __init__(self, x: str, y: str, d: int):  # one per granted request: skips the generic __init__'s loop
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "d", d)


class Exc1(Record):
    """Supplier exception: only d of the requested wavelengths fit (0 = none)."""
    __slots__ = _fields = ("d", "p", "x", "y")


class Exc2(Record):
    """Broker exception: at price p the demand is zero."""
    __slots__ = _fields = ("x", "y", "p")


Message = Reqc | Offp | Ocl | Nack | Ack | Exc1 | Exc2

_WIRE_NAMES = {Reqc: "reqc", Offp: "offp", Ocl: "ocl", Nack: "nack", Ack: "ack", Exc1: "exc_1", Exc2: "exc_2"}


class TraceEvent(NamedTuple):
    round: int
    direction: str
    supplier_id: str
    message: Message


def _line_format(cls) -> str:
    fields = ",".join(f"{name}={{3.{name}}}" for name in cls._fields)
    return f"{{0}}\t{{1}}\t{{2}}\t{_WIRE_NAMES[cls]}\t{fields}"


# One ``str.format`` per message type, e.g. "{0}\t{1}\t{2}\tocl\tx={3.x},y={3.y},p={3.p}".
_LINE_FORMATS = {cls: _line_format(cls).format for cls in _WIRE_NAMES}


def format_event(ev: TraceEvent) -> str:
    """Stable tab-separated trace line; golden tests compare these bytes."""
    return _LINE_FORMATS[type(ev.message)](*ev)


class CompetitionLog(NamedTuple):
    """One competition, its opening block and its bidding rounds, without per-message objects.

    ``ids`` lists every supplier asked, in order; ``prices`` holds each
    one's opening price, or None where it declined at the gate.  The
    opening block is one request broadcast to every supplier, then one
    answer from each: an offer at its opening price or a gate exception.
    The priced suppliers, in order, are the race's bidders.  ``bids`` is a
    flat list of (bidder index, price) pairs in the order the bids arrived;
    ``starts`` holds the offset in ``bids`` of the first bid of rounds 2,
    3, ..., even and non-decreasing offsets within ``[0, len(bids)]``; both
    are empty when no round ran.  Every round opens with one announcement
    per bidder, of the lowest opening price in round 2 and of the previous
    round's lowest bid after it, or the price before that when the
    previous round logged no bids.
    """

    x: str
    y: str
    ids: tuple[str, ...]
    prices: list[int | None]
    starts: list[int]
    bids: list[int]

    def _bidders(self) -> tuple[tuple[str, ...], int | None]:
        """The race's bidder ids and their lowest opening price, None when no supplier is priced."""
        ids, prices = self.ids, self.prices
        if None in prices:
            ids = tuple([sid for sid, p in zip(ids, prices) if p is not None])
            prices = [p for p in prices if p is not None]
        return ids, min(prices) if prices else None

    def _walk(self, price: int) -> tuple[list[int], list[list[int]], list[int]]:
        """Per round: the offset past its last bid, the prices it was offered, and the price announced in it.

        ``price`` is the lowest opening price, which round 2 announces.
        """
        bids, starts = self.bids, self.starts
        ends = starts[1:] + [len(bids)]
        offers, announced = [], [price]
        for start, end in zip(starts, ends):
            offered = bids[start + 1 : end : 2]
            offers.append(offered)
            if end > start:  # a round that logged no bids leaves the price as it was
                price = min(offered)
            announced.append(price)
        return ends, offers, announced

    def counts(self) -> tuple[int, int, int, int]:
        """(asks, bids, passes, most cutters in one round) of the race, zeros when no round ran.

        Each round asks every bidder but the leader once, and each cutter
        logs two entries, so the counts follow from the log alone.
        """
        starts, logged, prices = self.starts, len(self.bids), self.prices
        asks = len(starts) * (len(prices) - prices.count(None) - 1)
        bids = logged // 2
        return asks, bids, asks - bids, max(map(sub, starts[1:] + [logged], starts), default=0) // 2

    def events(self) -> list[TraceEvent]:
        x, y, ids, prices, starts, bids = self
        reqc = Reqc(x, y)
        events = [_new(TraceEvent, (1, BROKER_TO_SUPPLIER, sid, reqc)) for sid in ids]
        declined = Exc1(0, 0, x, y) if None in prices else None
        events += [
            _new(TraceEvent, (1, SUPPLIER_TO_BROKER, sid, declined if p is None else Offp(p, x, y)))
            for sid, p in zip(ids, prices)
        ]
        if not starts:
            return events
        ids, price = self._bidders()
        ends, _, announced = self._walk(price)
        for rnd, price, start, end in zip(count(2), announced, starts, ends):
            ocl = Ocl(x, y, price)
            events += [_new(TraceEvent, (rnd, BROKER_TO_SUPPLIER, sid, ocl)) for sid in ids]
            for j in range(start, end, 2):
                events.append(_new(TraceEvent, (rnd, SUPPLIER_TO_BROKER, ids[bids[j]], Offp(bids[j + 1], x, y))))
        return events

    def lines(self) -> list[str]:
        """``format_event`` of each of ``events()``, the race's lines written whole, then interleaved by round."""
        x, y, ids, prices, starts, bids = self
        xy = f"x={x},y={y}"
        ask, reqc = f"1\t{BROKER_TO_SUPPLIER}\t", f"\treqc\t{xy}"
        answer, declined = f"1\t{SUPPLIER_TO_BROKER}\t", f"\texc_1\td=0,p=0,{xy}"
        lines = [ask + sid + reqc for sid in ids]
        lines += [
            answer + sid + declined if p is None else f"{answer}{sid}\toffp\tp={p},{xy}"
            for sid, p in zip(ids, prices)
        ]
        if not starts:
            return lines
        ids, price = self._bidders()
        ends, offers, announced = self._walk(price)
        announce = [f"\t{BROKER_TO_SUPPLIER}\t{sid}\tocl\t{xy},p=" for sid in ids]
        offer = [f"\t{SUPPLIER_TO_BROKER}\t{sid}\toffp\tp=" for sid in ids]
        tail = f",{xy}"
        rounds = list(map(str, range(2, 2 + len(starts))))
        prices = list(map(str, announced))
        announcements = [f"{rnd}{prefix}{price}" for rnd, price in zip(rounds, prices) for prefix in announce]
        bid_lines = [
            f"{rnd}{offer[i]}{p}{tail}"
            for rnd, start, end, offered in zip(rounds, starts, ends, offers)
            for i, p in zip(bids[start:end:2], offered)
        ]
        n, a, b = len(ids), 0, 0
        for k in map(len, offers):
            lines += announcements[a : a + n]
            lines += bid_lines[b : b + k]
            a += n
            b += k
        return lines


class CompetitionTrace:
    """Every message of one competition, in the order sent.

    A trace holds a log and a tail of events: ``run_competition`` hands
    over the competition's ``CompetitionLog``, to which settlement adds
    the tail.  ``CompetitionTrace(events)`` is a trace with no log whose
    tail is the given events.  ``events`` builds the events from the log
    on every read and stores nothing, and ``lines()`` formats the log as
    it stands and the tail event by event, so reading a trace changes
    neither its pickle nor its lines.  Two traces are equal when their
    events are.
    """

    __slots__ = ("_tail", "log")

    def __init__(self, tail=(), log: CompetitionLog | None = None):
        self._tail, self.log = tuple(tail), log

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return (*(() if self.log is None else self.log.events()), *self._tail)

    def settled(self, tail: tuple[TraceEvent, ...]) -> CompetitionTrace:
        """This trace followed by the settlement messages ``tail``, without building its events."""
        return CompetitionTrace(self._tail + tail, self.log)

    def lines(self) -> list[str]:
        """``format_event`` of each event, the log formatted as it stands."""
        return [*(() if self.log is None else self.log.lines()), *map(format_event, self._tail)]

    def __eq__(self, other):
        if not isinstance(other, CompetitionTrace):
            return NotImplemented
        return self.events == other.events

    def __hash__(self):
        return hash(self.events)

    def __repr__(self):
        return f"CompetitionTrace({self.events!r})"


class Termination(str, Enum):
    WON = "won"
    ALL_DECLINED = "all_declined"
    BROKER_REJECTED = "broker_rejected"


class CompetitionOutcome(NamedTuple):
    winner: str | None
    final_price: int | None
    rounds: int
    trace: CompetitionTrace
    termination: Termination


class Bidders:
    """The bidding table of one run's suppliers, built once and read by every race.

    ``ids`` and ``markups`` hold each supplier's id and markup.  ``rows``
    holds one ``[index, mc, l_min, width, bits]`` list per supplier, the
    last three being its ``UndercutPolicy.step``; a race in which every
    supplier is priced writes the request's marginal costs into the
    ``mc`` slots.  ``askers[k]`` lists the rows of every supplier but
    ``k``: the askers of a round that ``k`` leads.
    """

    __slots__ = ("ids", "markups", "rows", "askers")

    def __init__(self, suppliers):
        self.ids = tuple([s.id for s in suppliers])
        self.markups = [s.markup for s in suppliers]
        self.rows = [[k, None, *s.policy.step] for k, s in enumerate(suppliers)]
        self.askers = _askers(self.rows)


def _askers(rows: list) -> list[list]:
    """Per possible leader, the rows of every bidder but it."""
    return [rows[:k] + rows[k + 1 :] for k in range(len(rows))]


def run_competition(
    vc: VirtualChannel,
    suppliers: Bidders | Sequence[SupplierAgent],
    rng: random.Random,
    mcs: list[int | None],
    round_cap: int = DEFAULT_ROUND_CAP,
) -> CompetitionOutcome:
    """Run one undercutting auction to completion and record every message.

    ``suppliers`` is a ``Bidders`` table, or a sequence of suppliers from
    which one is built.  ``mcs`` lists each supplier's next-unit marginal
    cost in the same order, None for a supplier with no capacity for even
    a single wavelength, which declines at the gate and drops out.  When
    every supplier is priced, the race writes the costs into the table's
    rows and asks from its asker lists; otherwise it builds rows and asker
    lists for the priced ones.  Opening-bid ties pick the provisional
    leader uniformly at random from the tied set; the same rule applies
    when several cutters land on the round minimum.
    """
    table = suppliers if isinstance(suppliers, Bidders) else Bidders(suppliers)
    ids = table.ids
    if not ids:
        raise ValueError("a competition needs at least one supplier")
    if round_cap < 1:
        raise ValueError("round_cap must be >= 1")
    if len(mcs) != len(ids):
        raise ValueError(f"{len(mcs)} marginal costs for {len(ids)} suppliers")

    x, y = vc.src, vc.dst
    # markup times MC, rounded half up
    prices = [None if mc is None else floor(markup * mc + 0.5) for markup, mc in zip(table.markups, mcs)]
    # One log: the opening block now, the race's bids as they arrive; events are built when read.
    competition = _new(CompetitionLog, (x, y, ids, prices, [], []))
    trace = CompetitionTrace((), competition)
    # Bidders, the leader among them, are indexes into ``active``, which
    # holds indexes into ``ids``; None when every supplier is priced.
    active = None
    if None in prices:
        active = [i for i, p in enumerate(prices) if p is not None]
        if not active:
            return _new(CompetitionOutcome, (None, None, 1, trace, Termination.ALL_DECLINED))
        bidder_ids = tuple([ids[i] for i in active])
        opening_bids = [prices[i] for i in active]
    else:
        bidder_ids, opening_bids = ids, prices
    current_min = min(opening_bids)
    leader = opening_bids.index(current_min)
    if opening_bids.count(current_min) > 1:
        leader = rng.choice([k for k, p in enumerate(opening_bids) if p == current_min])

    if len(opening_bids) == 1:
        return _new(CompetitionOutcome, (bidder_ids[0], current_min, 1, trace, Termination.WON))

    starts, log = competition.starts, competition.bids
    add = log.append
    # Each bidder's row holds its MC and step constants, and each round
    # asks from the asker list of its leader: the table's own when every
    # supplier is priced, else lists built for this race's bidders.
    if active is None:
        for row, mc in zip(table.rows, mcs):
            row[1] = mc
        askers = table.askers
    else:
        rows = table.rows
        askers = _askers([(k, mcs[i], *rows[i][2:]) for k, i in enumerate(active)])
    getrandbits = rng.getrandbits
    prev_contested = False
    for rnd in range(2, round_cap + 1):
        start = len(log)
        starts.append(start)
        # The cutters' lowest price and the first to reach it; ``tied``
        # lists all who reached it once two have.  Every bid is below the
        # announced price, so it is where the round minimum starts.
        round_min, tied = current_min, None
        for i, mc, l_min, width, bits in askers[leader]:
            # the ask of game.decide_bid, inline: draw the step, pass below MC
            r = getrandbits(bits)
            while r >= width:
                r = getrandbits(bits)
            price = current_min - l_min - r
            if price < mc:
                continue
            add(i)
            add(price)
            if price < round_min:
                round_min, first_at_min, tied = price, i, None
            elif price == round_min:
                if tied is None:
                    tied = [first_at_min]
                tied.append(i)
        logged = len(log) - start  # two entries per cutter
        if not logged:
            winner, final = leader, current_min
            break
        if logged == 2 and prev_contested:
            winner, final = first_at_min, round_min
            break
        if tied is None:
            leader = first_at_min
        else:
            # rng.choice(tied), written out: CPython's _randbelow loop
            n = len(tied)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            leader = tied[r]
        current_min = round_min
        prev_contested = logged > 2
    else:
        raise RoundCapExceededError(f"no resting price after {round_cap} rounds")
    return _new(CompetitionOutcome, (bidder_ids[winner], final, rnd, trace, Termination.WON))


# Settlement sequences the broker may end a competition with, as message types.
LEGAL_TAILS = frozenset({(), (Ack,), (Nack,), (Exc2, Nack), (Exc1, Ack), (Exc1, Nack)})


def validate_trace(trace: CompetitionTrace) -> list[Violation]:
    """Check a trace against the protocol rules; empty list means conformant.

    Checks: the trace opens with a request broadcast, answered once per
    supplier asked; every announcement carries the then-standing minimum;
    every bid after an announcement is strictly below it; grant/deny/
    exception messages appear only in the settlement tail, in a legal
    order.

    A trace's log is checked as it stands: the opening block and the race
    build no events, and the settlement tail goes through the same replay
    as events do.  A trace with no log has its tail replayed event by
    event.
    """
    log = trace.log
    if log is None:
        return _replay(trace._tail)
    if not log.ids:
        return [Violation("missing-reqc", "trace must open with a connection request broadcast")]
    violations: list[Violation] = []
    # The opening block holds one request and one answer per supplier, as
    # it should; the race's bidders and first price are derived from it.
    ids, minimum = log._bidders()
    open_round = None
    bids, starts = log.bids, log.starts
    if starts:
        bidders = bids[::2]
        # a bidder index outside the bidders raises, as building the events does
        if bidders and not -len(ids) <= min(bidders) <= max(bidders) < len(ids):
            raise IndexError(f"bidder index outside the race's {len(ids)} bidders")
        if ids:
            # the writer's announced prices, each checked against the standing
            # minimum that the previous round's bids leave
            _, offered, announced = log._walk(minimum)
            low = None  # the previous round's lowest bid
            for price, offers in zip(announced, offered):
                if low is not None:
                    minimum = low
                if price != minimum:  # a minimum of None matches no price
                    violations.append(Violation("ocl-price-mismatch", f"announced {price}, standing minimum {minimum}"))
                low = None
                if offers:
                    if max(offers) >= price:
                        violations += [
                            Violation("non-undercutting-bid", f"bid {p} does not beat announced {price}")
                            for p in offers
                            if p >= price
                        ]
                    low = min(offers)
            # the tail may continue the last round
            open_round = (1 + len(starts), price, low)
    return _check_rounds_and_tail(trace._tail, violations, minimum, 1, open_round)


def _replay(events) -> list[Violation]:
    """``validate_trace`` of a trace with no logs, its events replayed one by one."""
    violations: list[Violation] = []
    if not events or not isinstance(events[0].message, Reqc):
        return [Violation("missing-reqc", "trace must open with a connection request broadcast")]

    i = 0
    first_round = events[0].round
    while i < len(events) and isinstance(events[i].message, Reqc):
        ev = events[i]
        if ev.direction != BROKER_TO_SUPPLIER:
            violations.append(Violation("bad-direction", "connection requests flow broker to supplier"))
        if ev.round != first_round:
            violations.append(Violation("inconsistent-round", "request broadcast spans rounds"))
        i += 1

    # The opening block ends after one answer per request, so a gate
    # exception later in the round is checked as part of the settlement.
    current_min: int | None = None
    answered = min(len(events), 2 * i)
    while i < answered and events[i].round == first_round:
        ev = events[i]
        msg = ev.message
        if isinstance(msg, Offp):
            if ev.direction != SUPPLIER_TO_BROKER:
                violations.append(Violation("bad-direction", "price offers flow supplier to broker"))
            current_min = msg.p if current_min is None else min(current_min, msg.p)
        elif not isinstance(msg, Exc1):  # an Exc1 here declines at the gate
            break
        i += 1
    return _check_rounds_and_tail(events[i:], violations, current_min, first_round)


def _check_rounds_and_tail(events, violations, current_min, last_round, open_round=None) -> list[Violation]:
    """Check the events after the opening block: rounds of announcements and bids, then settlement.

    ``current_min`` is the standing minimum and ``last_round`` the round
    reached.  ``open_round`` is ``(round, announced price, lowest bid or
    None)`` of a round that ``events`` may continue, or None.  Appends to
    ``violations`` and returns it.
    """
    rnd = announced = round_min = None
    if open_round is not None:
        rnd, announced, round_min = open_round
    settlement: list[TraceEvent] = []
    for ev in events:
        msg = ev.message
        if rnd is not None:
            if ev.round == rnd and isinstance(msg, (Ocl, Offp)):
                if isinstance(msg, Ocl):
                    if msg.p != announced:
                        violations.append(Violation("ocl-price-mismatch", "announcement prices differ within a round"))
                else:
                    if msg.p >= announced:
                        violations.append(Violation("non-undercutting-bid", f"bid {msg.p} does not beat announced {announced}"))
                    if round_min is None or msg.p < round_min:
                        round_min = msg.p
                continue
            # the round ended: its lowest bid is the standing minimum
            if round_min is not None:
                current_min = round_min
            last_round, rnd = rnd, None
        if ev.round < last_round:
            violations.append(Violation("inconsistent-round", "round numbers must not decrease"))
        if isinstance(msg, Ocl):
            if settlement:
                violations.append(Violation("illegal-message", "price announcement after settlement began"))
            if current_min is None or msg.p != current_min:
                violations.append(Violation("ocl-price-mismatch", f"announced {msg.p}, standing minimum {current_min}"))
            rnd, announced, round_min = ev.round, msg.p, None
            continue
        if isinstance(msg, (Ack, Nack, Exc1, Exc2)):
            settlement.append(ev)
        else:
            violations.append(Violation("illegal-message", f"unexpected {_WIRE_NAMES[type(msg)]} mid-auction"))
        last_round = ev.round

    tail = tuple(type(ev.message) for ev in settlement)
    if tail not in LEGAL_TAILS:
        names = ",".join(_WIRE_NAMES[t] for t in tail)
        violations.append(Violation("illegal-settlement", f"settlement sequence [{names}] is not legal"))
    for ev in settlement:
        want = SUPPLIER_TO_BROKER if isinstance(ev.message, Exc1) else BROKER_TO_SUPPLIER
        if ev.direction != want:
            violations.append(Violation("bad-direction", f"{_WIRE_NAMES[type(ev.message)]} has the wrong direction"))
    return violations
