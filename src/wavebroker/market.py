"""Broker demand behavior, settlement, profit accounting, scenario execution.

The broker aggregates its customers into a price-demand function per
virtual channel, evaluated once at the final auction price.  Settlement
turns an auction outcome into allocation deltas, ledger entries, and the
grant/deny message tail; a scenario is a scheduled sequence of such
competitions against live allocation state.  A request's records,
``SettlementResult`` and ``AuctionRecord``, are named tuples built with
``tuple.__new__``, so making one runs no Python frame.  A
``ScenarioConfig`` checks itself with ``validate_scenario`` when it is
made, so ``run_scenario`` and sweep workers take it as valid.
"""

from __future__ import annotations

import math
import os
import random
import re
from collections import deque
from collections.abc import Iterator
from itertools import repeat
from typing import NamedTuple

from .errors import ConfigError, InvalidOutcomeError, NetworkTooLargeError, Record, UnknownNetworkError
from .game import SupplierAgent, UndercutPolicy, _new
from .protocol import (
    BROKER_TO_SUPPLIER,
    SUPPLIER_TO_BROKER,
    Ack,
    Bidders,
    CompetitionOutcome,
    CompetitionTrace,
    DEFAULT_ROUND_CAP,
    Exc1,
    Exc2,
    MAX_ROUND_CAP,
    Nack,
    Termination,
    TraceEvent,
    run_competition,
)
from .rwa import Allocation, Grant, _route, incremental_allocate
from .topology import MAX_ROUTE_NODES, Network, VirtualChannel, validate_network


# -- demand --------------------------------------------------------------------

class LinearDemand(Record):
    """D(p) = max(0, floor(a - b*p)); a in wavelengths, b in wavelengths per minor unit."""

    __slots__ = _fields = ("a", "b")
    kind = "linear"

    def __init__(self, a: float, b: float):
        if b < 0:
            raise ValueError(f"slope b={b} is negative; demand must not rise with price")
        super().__init__(a, b)

    def quantity(self, price: int) -> int:
        # a steep slope can overflow to -inf, which floor() refuses
        q = self.a - self.b * price
        return math.floor(q) if q > 0 else 0


class ConstantElasticityDemand(Record):
    """D(p) = floor(a * p**(-eps)), defined from one minor unit upward."""

    __slots__ = _fields = ("a", "eps")
    kind = "constant_elasticity"

    def __init__(self, a: float, eps: float):
        if eps <= 0:
            raise ValueError("elasticity must be positive")
        super().__init__(a, eps)

    def quantity(self, price: int) -> int:
        return max(0, math.floor(self.a * max(price, 1) ** (-self.eps)))


DemandFunction = LinearDemand | ConstantElasticityDemand


def broker_demand(df: DemandFunction, price: int) -> int:
    """Wavelengths the broker buys at this per-wavelength price."""
    if price < 0:
        raise ValueError("price must be >= 0")
    return df.quantity(price)


# -- ledger --------------------------------------------------------------------

class LedgerEntry(Record):
    __slots__ = _fields = ("revenue", "cost", "wavelengths_sold")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None  # added to in place

    def __init__(self, revenue: int = 0, cost: int = 0, wavelengths_sold: int = 0):
        self.revenue, self.cost, self.wavelengths_sold = revenue, cost, wavelengths_sold

    @property
    def profit(self) -> int:
        return self.revenue - self.cost


class ProfitLedger:
    """Exact per-(network, channel) accounting in integer minor units.

    ``entries`` holds one dict per network, of its entries by channel
    label in the order they were made: up front for every network and
    channel given, else on a channel's first ``record``.
    """

    def __init__(self, network_ids=(), vc_labels=()):
        self.entries = {nid: {vc: LedgerEntry() for vc in vc_labels} for nid in network_ids}

    def record(self, network_id: str, vc_label: str, revenue: int, cost: int, sold: int) -> None:
        entry = self.entries.setdefault(network_id, {}).setdefault(vc_label, LedgerEntry())
        entry.revenue += revenue
        entry.cost += cost
        entry.wavelengths_sold += sold

    def vc_labels(self, network_id: str) -> list[str]:
        return list(self.entries.get(network_id, ()))

    def totals(self, network_id: str) -> LedgerEntry:
        channels = self.entries.get(network_id)
        if not channels:
            raise UnknownNetworkError(f"no ledger entries for network {network_id!r}")
        return LedgerEntry(*map(sum, zip(*[(e.revenue, e.cost, e.wavelengths_sold) for e in channels.values()])))

    def rows(self) -> list[tuple[str, str, int, int, int, int]]:
        """(network, vc, revenue, cost, profit, wavelengths_sold), sorted."""
        return sorted(
            (net, vc, e.revenue, e.cost, e.profit, e.wavelengths_sold)
            for net, channels in self.entries.items()
            for vc, e in channels.items()
        )


def profit_percentages(ledger: ProfitLedger, network_id: str) -> dict[str, float] | None:
    """Per-channel share of a network's profit, in percent to one decimal.

    Returns None when the network's total profit is not positive, since
    shares of a non-positive total are meaningless.
    """
    total = ledger.totals(network_id).profit
    if total <= 0:
        return None
    out: dict[str, float] = {}
    for vc, entry in ledger.entries[network_id].items():
        profit = entry.profit
        # tenths of a percent, a half rounded away from zero; a negative share keeps its sign at 0 (-0.0)
        tenths = (abs(profit) * 2000 + total) // (2 * total)
        out[vc] = -(tenths / 10) if profit < 0 else tenths / 10
    return out


# -- settlement ------------------------------------------------------------------

class SettlementResult(NamedTuple):
    termination: Termination
    demand: int
    granted: int
    revenue: int
    cost: int
    allocation_delta: Grant | tuple
    events: tuple[TraceEvent, ...]


def settle(
    outcome: CompetitionOutcome,
    df: DemandFunction,
    winner_agent: SupplierAgent,
    vc: VirtualChannel,
    reject_partial: bool = False,
) -> SettlementResult:
    """Reveal demand at the final price and provision what the winner can carry.

    Zero demand sends the price-rejection exception followed by a deny.  A
    capacity shortfall has the winner report how many wavelengths fit; the
    broker takes that partial grant unless ``reject_partial`` is set.  The
    caller commits the returned allocation delta.
    """
    wid, price, rnd, _, termination = outcome
    if termination is not Termination.WON:
        raise InvalidOutcomeError(f"cannot settle a {termination.value} auction")
    x, y = vc.src, vc.dst

    demand = broker_demand(df, price)
    if demand == 0:
        events = (
            _new(TraceEvent, (rnd, BROKER_TO_SUPPLIER, wid, Exc2(x, y, price))),
            _new(TraceEvent, (rnd, BROKER_TO_SUPPLIER, wid, Nack(x, y))),
        )
        return _new(SettlementResult, (Termination.BROKER_REJECTED, 0, 0, 0, 0, (), events))

    delta, added = incremental_allocate(winner_agent.network, winner_agent.state, vc, demand)
    fit = len(delta)
    events = ()
    if fit < demand:
        events = (_new(TraceEvent, (rnd, SUPPLIER_TO_BROKER, wid, Exc1(fit, price, x, y))),)
        if fit == 0 or reject_partial:
            events += (_new(TraceEvent, (rnd, BROKER_TO_SUPPLIER, wid, Nack(x, y))),)
            return _new(SettlementResult, (Termination.WON, demand, 0, 0, 0, (), events))
    events += (_new(TraceEvent, (rnd, BROKER_TO_SUPPLIER, wid, Ack(x, y, fit))),)
    return _new(SettlementResult, (Termination.WON, demand, fit, price * fit, added, delta, events))


# -- scenario ------------------------------------------------------------------

# Network ids and channel labels name output files and fill CSV cells.
SAFE_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")
SAFE_ID_RULE = "must be letters, digits, '_', '-' or '.', not starting with '.'"

# Trace lines join a path's node names with '-', so a node name may not hold one.
NODE_ID = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.]*")
NODE_ID_RULE = "must be letters, digits, '_' or '.', not starting with '.'"

# A simple path costs at most the sum of its network's link unit costs, so
# markup times that sum bounds every opening bid.  Up to 2**53 the float
# product, and so the bid, is an exact integer.
MAX_OPENING_BID = 2**53


class SupplierConfig(NamedTuple):
    network: Network
    policy: UndercutPolicy
    markup: float


class ChannelConfig(NamedTuple):
    vc: VirtualChannel
    demand: DemandFunction


class ScenarioConfig(Record):
    """A valid scenario: making one with any problem raises ``ConfigError``."""

    _fields = ("id", "seed", "suppliers", "channels", "schedule", "round_cap", "reject_partial")
    __slots__ = (*_fields, "__weakref__")  # so that a run is seen to keep no config alive

    def __init__(
        self,
        id: str,
        seed: int,
        suppliers: tuple[SupplierConfig, ...],
        channels: tuple[ChannelConfig, ...],
        schedule: tuple[tuple[int, str], ...],
        round_cap: int = DEFAULT_ROUND_CAP,
        reject_partial=False,
    ):
        super().__init__(id, seed, suppliers, channels, schedule, round_cap, reject_partial)
        problems = validate_scenario(self)
        if problems:
            raise ConfigError(problems)


def validate_scenario(config: ScenarioConfig) -> list[str]:
    """Every config invariant violation, as location-prefixed messages."""
    problems: list[str] = []
    if not config.suppliers:
        problems.append("networks: at least one supplier network is required")
    seen_nets: set[str] = set()
    routable: list[tuple[int, Network]] = []
    for i, sup in enumerate(config.suppliers):
        loc = f"networks[{i}]"
        if sup.network.id in seen_nets:
            problems.append(f"{loc}: duplicate network id {sup.network.id!r}")
        if not SAFE_ID.fullmatch(sup.network.id):
            problems.append(f"{loc}.id: {sup.network.id!r} {SAFE_ID_RULE}")
        seen_nets.add(sup.network.id)
        for node in sorted(sup.network.nodes):
            if not NODE_ID.fullmatch(node):
                problems.append(f"{loc}.nodes: {node!r} {NODE_ID_RULE}")
        violations = validate_network(sup.network)
        for v in violations:
            problems.append(f"{loc}: {v}")
        if len(sup.network.nodes) > MAX_ROUTE_NODES:
            problems.append(
                f"{loc}: {len(sup.network.nodes)} nodes; complete path enumeration is capped at {MAX_ROUTE_NODES}"
            )
        elif not violations:
            routable.append((i, sup.network))
        if sup.markup < 1:
            problems.append(f"{loc}: markup {sup.markup} is below 1")
        total_cost = sum(link.unit_cost for link in sup.network.links)
        if total_cost > MAX_OPENING_BID or sup.markup * total_cost > MAX_OPENING_BID:
            problems.append(
                f"{loc}: markup {sup.markup} times the summed link unit_cost {total_cost} exceeds 2**53,"
                " so opening bids would not be exact integers"
            )
    if not config.channels:
        problems.append("virtual_channels: at least one virtual channel is required")
    labels: set[str] = set()
    for j, ch in enumerate(config.channels):
        loc = f"virtual_channels[{j}]"
        if ch.vc.label in labels:
            problems.append(f"{loc}: duplicate label {ch.vc.label!r}")
        if not SAFE_ID.fullmatch(ch.vc.label):
            problems.append(f"{loc}.label: {ch.vc.label!r} {SAFE_ID_RULE}")
        labels.add(ch.vc.label)
        for i, sup in enumerate(config.suppliers):
            for end in (ch.vc.src, ch.vc.dst):
                if end not in sup.network.nodes:
                    problems.append(f"{loc}: endpoint {end!r} missing from networks[{i}] ({sup.network.id!r})")
    # the route entries made here, one per endpoint pair and a pair without a route included, are the ones
    # placement reads later; a pair too large to route keeps no entry, so each of its channels is reported
    for i, net in routable:
        for j, ch in enumerate(config.channels):
            if ch.vc.src in net.nodes and ch.vc.dst in net.nodes:
                try:
                    _route(net, ch.vc.src, ch.vc.dst)
                except NetworkTooLargeError as exc:
                    problems.append(f"networks[{i}]: virtual_channels[{j}] ({ch.vc.label!r}): {exc}")
    for k, (rnd, label) in enumerate(config.schedule):
        if label not in labels:
            problems.append(f"schedule[{k}]: unknown virtual channel {label!r}")
        if rnd < 0:
            problems.append(f"schedule[{k}]: negative round {rnd}")
    if not 1 <= config.round_cap <= MAX_ROUND_CAP:
        problems.append(f"round_cap: {config.round_cap} must be in 1..{MAX_ROUND_CAP}")
    return problems


class AuctionRecord(NamedTuple):
    """One scheduled request: who won at what price, and the settlement result.

    ``asks``, ``bids``, ``passes`` and ``most_cutters`` (the most bids in
    one round) count the race's work; they are 0 when no race ran.
    """

    index: int
    request_round: int
    vc: str
    termination: str
    winner: str | None
    final_price: int | None
    rounds: int
    asks: int
    bids: int
    passes: int
    most_cutters: int
    demand: int | None
    granted: int
    revenue: int
    cost: int
    reference_mc: int | None
    band_low: int | None
    band_high: int | None
    within_band: bool | None


# ``Termination.value`` of each member, read without the enum's property
_TERMINATION_TEXT = {t: t.value for t in Termination}


class Report(Record):
    __slots__ = _fields = ("scenario_id", "seed", "network_ids", "vc_labels", "ledger", "records", "traces",
                           "final_states", "networks")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None  # writable, as a LedgerEntry


def run_scenario(config: ScenarioConfig, seed_override: int | None = None) -> Report:
    """Execute the request schedule in order against live allocation state.

    Each request probes every supplier's next-unit marginal cost, then
    runs one competition plus settlement.  Every auction record carries
    the equilibrium-band prediction over the suppliers priced at auction
    start: centred on the runner-up marginal cost, with the largest
    ``l_max`` among them as its half-width, so the band can be checked
    from the report alone.  What only the suppliers determine is built
    once per run: the race's ``Bidders`` table and each supplier's
    largest step, so a request pays for its probes, its race, its
    settlement and the band's runner-up cost.
    """
    seed = config.seed if seed_override is None else seed_override
    rng = random.Random(seed)
    agents = [
        SupplierAgent(sc.network.id, sc.network, Allocation.empty(sc.network), sc.policy, sc.markup)
        for sc in config.suppliers
    ]
    # what only the suppliers set: the race's bidding table and the band's largest step
    bidders = Bidders(agents)
    l_maxes = [agent.policy.l_max for agent in agents]
    run_l_max = max(l_maxes)
    channels = {ch.vc.label: ch for ch in config.channels}
    by_id = {agent.id: agent for agent in agents}
    # each request adds to its winner's entry for the channel
    ledger = ProfitLedger(by_id, channels)

    records: list[AuctionRecord] = []
    traces: list[CompetitionTrace] = []
    for index, (request_round, label) in enumerate(config.schedule):
        ch = channels[label]
        vc = ch.vc
        mcs = [agent.next_unit_mc(vc) for agent in agents]

        outcome = run_competition(vc, bidders, rng, mcs, config.round_cap)
        winner_id, final_price, rounds, trace, termination = outcome
        if termination is Termination.WON:
            winner = by_id[winner_id]
            result = settle(outcome, ch.demand, winner, vc, config.reject_partial)
            termination, demand, granted, revenue, cost, delta, events = result
            if delta:
                winner.commit(delta)
            entry = ledger.entries[winner_id][label]
            entry.revenue += revenue
            entry.cost += cost
            entry.wavelengths_sold += granted
            trace = trace.settled(events)
        else:
            demand, granted, revenue, cost = None, 0, 0, 0

        asks, bids, passes, most_cutters = trace.log.counts()

        # the band over the priced suppliers: runner-up MC plus or minus their largest l_max
        priced, e_max = mcs, run_l_max
        if None in mcs:
            priced = [mc for mc in mcs if mc is not None]
            e_max = max([l_max for l_max, mc in zip(l_maxes, mcs) if mc is not None], default=None)
        ref = band_low = band_high = within = None
        if len(priced) >= 2:
            ref = sorted(priced)[1]
            band_low, band_high = ref - e_max, ref + e_max
            if final_price is not None:
                within = band_low <= final_price <= band_high

        record = (index, request_round, label, _TERMINATION_TEXT[termination], winner_id, final_price, rounds,
                  asks, bids, passes, most_cutters, demand, granted, revenue, cost, ref, band_low, band_high, within)
        records.append(_new(AuctionRecord, record))
        traces.append(trace)

    return Report(
        scenario_id=config.id,
        seed=seed,
        network_ids=tuple(a.id for a in agents),
        vc_labels=tuple(ch.vc.label for ch in config.channels),
        ledger=ledger,
        records=tuple(records),
        traces=tuple(traces),
        final_states={a.id: a.state for a in agents},
        networks={a.id: a.network for a in agents},
    )


# -- seed sweeps ----------------------------------------------------------------

# A parallel sweep keeps this many runs per worker submitted and unread.
SWEEP_RUNS_PER_WORKER = 2


def child_seed(root: int, index: int) -> int:
    """Stable 63-bit child seed for run ``index`` of a sweep rooted at ``root``."""
    import hashlib  # only sweeps need it
    digest = hashlib.sha256(f"{root}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def run_sweep(config: ScenarioConfig, count: int, workers: int = 1) -> Iterator[Report]:
    """Run ``count`` seeded scenario instances, yielding the reports in run-index order.

    The arguments are checked on the call; each run happens as its report
    is read, so a caller that stops reading stops a serial sweep.  At most
    ``min(workers, count, os.cpu_count())`` processes run them, with at
    most ``SWEEP_RUNS_PER_WORKER`` runs per process submitted and not yet
    read, so finished reports do not pile up behind a slow reader.
    """
    if count < 1:
        raise ValueError("sweep count must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # a seed is made as its run is submitted, so memory does not grow with the count
    seeds = map(child_seed, repeat(config.seed), range(count))
    workers = min(workers, count, os.cpu_count() or 1)
    if workers == 1:
        return map(run_scenario, repeat(config), seeds)
    return _pooled_runs(config, seeds, workers)


def _pooled_runs(config: ScenarioConfig, seeds: Iterator[int], workers: int) -> Iterator[Report]:
    from concurrent.futures import ProcessPoolExecutor

    in_flight: deque = deque()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for seed in seeds:
            if len(in_flight) == SWEEP_RUNS_PER_WORKER * workers:
                yield in_flight.popleft().result()
            in_flight.append(pool.submit(run_scenario, config, seed))
        while in_flight:
            yield in_flight.popleft().result()
