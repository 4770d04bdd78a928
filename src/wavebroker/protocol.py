"""Broker/supplier message vocabulary and the undercutting-auction state machine.

One competition: the broker broadcasts a connection request, suppliers
answer with opening prices (or decline for lack of capacity), and the
broker then repeatedly announces the standing minimum, asking everyone to
beat it.  The announcement carries the price only, never who holds it.
The current leader sits still; a round in which nobody cuts ends the
auction with the leader winning at the standing minimum, as does a round
with a single cutter right after a round that had several.  Demand and
grant/deny messages are exchanged at settlement, after the price is final.

Every message is recorded as it is sent.  A trace event is a named tuple
(round, direction, supplier_id, message) and messages are frozen, slotted
dataclasses that compare by value, so the announcements of one round
share a single ``Ocl``; a long race records each event as one tuple.

Each round asks every active supplier but the leader for a decision
through ``game.decide_bid``; the leader would pass and draw nothing, so it
is skipped without a call.  The round minimum, its tied cutters and the
number of cutters are tracked as the bids arrive.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import RoundCapExceededError, Violation
from .game import PASS, SupplierAgent, decide_bid, round_half_up
from .topology import VirtualChannel

BROKER_TO_SUPPLIER = "broker->supplier"
SUPPLIER_TO_BROKER = "supplier->broker"

DEFAULT_ROUND_CAP = 10_000


@dataclass(frozen=True, slots=True)
class Reqc:
    """Open a competition for the virtual link x-y."""

    x: str
    y: str


@dataclass(frozen=True, slots=True)
class Offp:
    """A supplier's per-wavelength price offer."""

    p: int
    x: str
    y: str


@dataclass(frozen=True, slots=True)
class Ocl:
    """Broker: beat this price.  Carries no bidder identity."""

    x: str
    y: str
    p: int


@dataclass(frozen=True, slots=True)
class Nack:
    """The link request is not granted."""

    x: str
    y: str


@dataclass(frozen=True, slots=True)
class Ack:
    """The link request is granted with d wavelengths to provision."""

    x: str
    y: str
    d: int


@dataclass(frozen=True, slots=True)
class Exc1:
    """Supplier exception: only d of the requested wavelengths fit (0 = none)."""

    d: int
    p: int
    x: str
    y: str


@dataclass(frozen=True, slots=True)
class Exc2:
    """Broker exception: at price p the demand is zero."""

    x: str
    y: str
    p: int


Message = Reqc | Offp | Ocl | Nack | Ack | Exc1 | Exc2

_WIRE_NAMES = {Reqc: "reqc", Offp: "offp", Ocl: "ocl", Nack: "nack", Ack: "ack", Exc1: "exc_1", Exc2: "exc_2"}


class TraceEvent(NamedTuple):
    round: int
    direction: str
    supplier_id: str
    message: Message


def format_event(ev: TraceEvent) -> str:
    """Stable tab-separated trace line; golden tests compare these bytes."""
    msg = ev.message
    fields = ",".join(f"{f.name}={getattr(msg, f.name)}" for f in dataclasses.fields(msg))
    return f"{ev.round}\t{ev.direction}\t{ev.supplier_id}\t{_WIRE_NAMES[type(msg)]}\t{fields}"


@dataclass(frozen=True)
class CompetitionTrace:
    events: tuple[TraceEvent, ...]

    def lines(self) -> list[str]:
        return [format_event(ev) for ev in self.events]

    def ocl_prices(self) -> list[int]:
        """The announced standing-minimum sequence, one entry per round."""
        prices: list[int] = []
        seen_rounds: set[int] = set()
        for ev in self.events:
            if isinstance(ev.message, Ocl) and ev.round not in seen_rounds:
                prices.append(ev.message.p)
                seen_rounds.add(ev.round)
        return prices


class Termination(str, Enum):
    WON = "won"
    ALL_DECLINED = "all_declined"
    BROKER_REJECTED = "broker_rejected"


@dataclass(frozen=True)
class CompetitionOutcome:
    winner: str | None
    final_price: int | None
    rounds: int
    trace: CompetitionTrace
    termination: Termination


def run_competition(
    vc: VirtualChannel,
    suppliers: list[SupplierAgent],
    rng: random.Random,
    round_cap: int = DEFAULT_ROUND_CAP,
    mc_by_supplier: dict[str, int | None] | None = None,
) -> CompetitionOutcome:
    """Run one undercutting auction to completion and record every message.

    Suppliers with no capacity for even a single wavelength decline at the
    gate and drop out.  Opening-bid ties pick the provisional leader
    uniformly at random from the tied set; the same rule applies when
    several cutters land on the round minimum.  ``mc_by_supplier`` lets the
    caller reuse marginal costs it already computed.
    """
    if not suppliers:
        raise ValueError("a competition needs at least one supplier")
    if round_cap < 1:
        raise ValueError("round_cap must be >= 1")

    x, y = vc.src, vc.dst
    reqc = Reqc(x, y)
    events = [TraceEvent(1, BROKER_TO_SUPPLIER, s.id, reqc) for s in suppliers]

    mcs: dict[str, int] = {}
    bids: dict[str, int] = {}
    for s in suppliers:
        mc = mc_by_supplier.get(s.id) if mc_by_supplier is not None else s.next_unit_mc(vc)
        if mc is None:
            events.append(TraceEvent(1, SUPPLIER_TO_BROKER, s.id, Exc1(0, 0, x, y)))
            continue
        mcs[s.id] = mc
        opening = round_half_up(s.markup * mc)
        bids[s.id] = opening
        events.append(TraceEvent(1, SUPPLIER_TO_BROKER, s.id, Offp(opening, x, y)))

    active = [s for s in suppliers if s.id in bids]
    if not active:
        return CompetitionOutcome(None, None, 1, CompetitionTrace(tuple(events)), Termination.ALL_DECLINED)

    current_min = min(bids.values())
    tied = [s for s in active if bids[s.id] == current_min]
    leader = tied[0] if len(tied) == 1 else rng.choice(tied)

    if len(active) == 1:
        return CompetitionOutcome(leader.id, current_min, 1, CompetitionTrace(tuple(events)), Termination.WON)

    # A race records an event per supplier and round, so events are built
    # with tuple.__new__: what the TraceEvent constructor returns, without
    # its Python-level frame.
    bidders = [(s, s.id, mcs[s.id], s.policy) for s in active]
    ids = [s.id for s in active]
    new_event = tuple.__new__
    append = events.append
    prev_contested = False
    rnd = 1
    while True:
        rnd += 1
        if rnd > round_cap:
            raise RoundCapExceededError(f"no resting price after {round_cap} rounds")
        ocl = Ocl(x, y, current_min)
        events += [new_event(TraceEvent, (rnd, BROKER_TO_SUPPLIER, sid, ocl)) for sid in ids]
        # The cutters of this round: how many, their lowest price, and the
        # first to reach it; ``tied`` lists all who reached it once two have.
        n_cutters = 0
        round_min = first_at_min = tied = None
        for s, sid, mc, policy in bidders:
            if s is leader:
                continue
            decision = decide_bid(current_min, mc, False, policy, rng)
            if decision is PASS:
                continue
            price = decision.price
            append(new_event(TraceEvent, (rnd, SUPPLIER_TO_BROKER, sid, Offp(price, x, y))))
            n_cutters += 1
            if round_min is None or price < round_min:
                round_min, first_at_min, tied = price, s, None
            elif price == round_min:
                if tied is None:
                    tied = [first_at_min]
                tied.append(s)
        if not n_cutters:
            return CompetitionOutcome(leader.id, current_min, rnd, CompetitionTrace(tuple(events)), Termination.WON)
        if n_cutters == 1 and prev_contested:
            return CompetitionOutcome(first_at_min.id, round_min, rnd, CompetitionTrace(tuple(events)), Termination.WON)
        leader = first_at_min if tied is None else rng.choice(tied)
        current_min = round_min
        prev_contested = n_cutters >= 2


def validate_trace(trace: CompetitionTrace) -> list[Violation]:
    """Replay a trace against the protocol rules; empty list means conformant.

    Checks: the trace opens with a request broadcast; every announcement
    carries the then-standing minimum; every bid after an announcement is
    strictly below it; grant/deny/exception messages appear only in the
    settlement tail, in a legal order.
    """
    events = trace.events
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

    current_min: int | None = None
    while i < len(events) and events[i].round == first_round:
        ev = events[i]
        msg = ev.message
        if isinstance(msg, Offp):
            if ev.direction != SUPPLIER_TO_BROKER:
                violations.append(Violation("bad-direction", "price offers flow supplier to broker"))
            current_min = msg.p if current_min is None else min(current_min, msg.p)
        elif isinstance(msg, Exc1):
            pass  # declined at the gate
        else:
            break
        i += 1

    last_round = first_round
    settlement: list[TraceEvent] = []
    while i < len(events):
        ev = events[i]
        msg = ev.message
        if ev.round < last_round:
            violations.append(Violation("inconsistent-round", "round numbers must not decrease"))
        if isinstance(msg, Ocl):
            if settlement:
                violations.append(Violation("illegal-message", "price announcement after settlement began"))
            rnd = ev.round
            announced = msg.p
            if current_min is None or announced != current_min:
                violations.append(Violation("ocl-price-mismatch", f"announced {announced}, standing minimum {current_min}"))
            round_bids: list[int] = []
            while i < len(events) and events[i].round == rnd and isinstance(events[i].message, (Ocl, Offp)):
                m = events[i].message
                if isinstance(m, Ocl):
                    if m.p != announced:
                        violations.append(Violation("ocl-price-mismatch", "announcement prices differ within a round"))
                else:
                    if m.p >= announced:
                        violations.append(Violation("non-undercutting-bid", f"bid {m.p} does not beat announced {announced}"))
                    round_bids.append(m.p)
                i += 1
            if round_bids:
                current_min = min(round_bids)
            last_round = rnd
            continue
        if isinstance(msg, (Ack, Nack, Exc1, Exc2)):
            settlement.append(ev)
        else:
            violations.append(Violation("illegal-message", f"unexpected {_WIRE_NAMES[type(msg)]} mid-auction"))
        last_round = ev.round
        i += 1

    tail = tuple(type(ev.message) for ev in settlement)
    legal_tails = {(), (Ack,), (Nack,), (Exc2, Nack), (Exc1, Ack), (Exc1, Nack)}
    if tail not in legal_tails:
        names = ",".join(_WIRE_NAMES[t] for t in tail)
        violations.append(Violation("illegal-settlement", f"settlement sequence [{names}] is not legal"))
    for ev in settlement:
        want = SUPPLIER_TO_BROKER if isinstance(ev.message, Exc1) else BROKER_TO_SUPPLIER
        if ev.direction != want:
            violations.append(Violation("bad-direction", f"{_WIRE_NAMES[type(ev.message)]} has the wrong direction"))
    return violations
