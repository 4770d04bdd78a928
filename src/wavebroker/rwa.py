"""Routing and wavelength assignment by greedy placement.

The allocation model: every provisioned unit is a lightpath, i.e. a simple
route locked to one wavelength end to end.  A (link, wavelength) cell
carries at most one lightpath, in one direction; per-link occupancy is
bounded by the link capacity; and the units of one connection must sit on
pairwise-distinct wavelength indices.

Units are placed greedily one at a time, each at the cheapest free route
and wavelength, which is what suppliers can actually evaluate mid-market;
the unit costs trace out the marginal-cost curve, and settlement
provisions through the same placement.  Where capacity binds, greedy can
place fewer units, or dearer ones, than a joint solve; the exhaustive
oracle that shows it lives in ``tests/oracle.py``.  Greedy placement asks
the kernel for the cheapest cell once per path, not once per unit: when
the chosen path is the only candidate at its cost, the units after it
land on that path until its room runs out, which is where the
unit-by-unit rule puts them.

Placement returns ``(grant, added)``: a ``Grant`` of the new units, held
as ``(hops, wavelength mask)`` runs of consecutive units on one path, and
their summed cost.  A grant's ``len()`` is its unit count, and
``grant.lightpaths()`` builds its ``LightPath``s.  Nothing is committed;
``apply_delta(net, state, grant)`` merges the grant into a new state,
which keeps one list of link masks.  Placement reads that list in place,
and a marginal-cost probe, ``next_unit_cost``, is at most one kernel call
against it.

Placement finds its tables on the network object: its link tables, and
per ordered endpoint pair its route tables, are kept in the network's
``__dict__`` and found by value only once per object.  A channel's label
plays no part in them, so every channel on one pair shares one entry.  An
entry also keeps the kernel's last pick on a state's own mask list, so a
probe of a state that has not changed, and the winner's settlement after
its probe, do not ask the kernel again.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, groupby
from operator import itemgetter

from . import _kernel
from .errors import ConflictError, NoPathError, Record, Violation
from .topology import Network, VirtualChannel, link_key, route_candidates


def __getattr__(name: str):
    """``LightPath``: a frozen dataclass, made on first use so that importing the package skips ``dataclasses``.

    The class is then stored as this module's ``LightPath``, which later lookups read, and which
    ``Grant.lightpaths()`` reads through this function, so a replaced ``rwa.LightPath`` builds every unit.
    """
    if name != "LightPath":
        raise AttributeError(f"module has no attribute {name!r}")
    if name in globals():  # made or replaced already; the package's re-export asks each time
        return globals()[name]
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class LightPath:
        """One allocated unit: a connection's route pinned to a single wavelength."""
        conn: str
        vc: VirtualChannel
        wavelength: int
        hops: tuple[tuple[str, str], ...]

        def nodes(self) -> tuple[str, ...]:
            return _hops_nodes(self.hops)

        def cost(self, net: Network) -> int:
            return _hops_cost(net, self.hops)

    LightPath.__qualname__ = "LightPath"  # pickled and shown as rwa.LightPath
    globals()["LightPath"] = LightPath
    return LightPath


def _hops_nodes(hops) -> tuple[str, ...]:
    return (hops[0][0],) + tuple(v for _, v in hops)


def _hops_cost(net: Network, hops) -> int:
    return sum(net.link_by_key[link_key(u, v)].unit_cost for u, v in hops)


class Grant(Record):
    """The units one placement grants one connection, kept as ``(hops, mask)`` runs.

    A run is a hop tuple and a wavelength bitmask (bit ``w-1`` set =
    wavelength ``w``).  Runs keep placement order, and within a run the
    wavelengths ascend.  ``len()`` is the unit count; ``lightpaths()``
    builds the units, in that order.  It pickles as its four fields.
    """

    __slots__ = _fields = ("conn", "vc", "runs", "count")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__  # writable as before: four plain writes

    def __init__(self, conn: str, vc: VirtualChannel, runs: tuple, count: int):
        self.conn, self.vc, self.runs, self.count = conn, vc, runs, count

    def __len__(self) -> int:
        return self.count

    def lightpaths(self) -> tuple:
        conn, vc, lightpath = self.conn, self.vc, __getattr__("LightPath")
        return tuple(lightpath(conn, vc, b + 1, hops) for hops, mask in self.runs for b in _bits(mask))


class _LightpathView:
    """An allocation's lightpaths: its grants' units in commit order.

    Its length is a count; iterating, indexing, slicing or comparing it
    builds them, and it compares as their tuple.
    """

    __slots__ = ("_grants",)

    def __init__(self, grants: tuple[Grant, ...]):
        self._grants = grants

    def __len__(self) -> int:
        return sum(map(len, self._grants))

    def __iter__(self):
        return chain.from_iterable(grant.lightpaths() for grant in self._grants)

    def __getitem__(self, i):
        return tuple(self)[i]

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, _LightpathView) else other)


class Allocation:
    """Immutable set of lightpaths: its grants, plus one list of link masks.

    The grants, in commit order, are the only source of truth.
    ``lightpaths`` is a view of their units: its length is the unit count,
    and iterating, indexing, slicing or comparing it builds the
    ``LightPath``s.  Per connection, a lightpath count, from which fresh
    connection ids are named.  It pickles as grants and counts.

    Occupancy is a list of per-link wavelength bitmasks (bit ``w-1`` set =
    wavelength ``w`` taken; a link's used count is its popcount) in the
    link order of the network the state was committed under: ``_keys`` is
    that network's link-key tuple, ``_masks`` the list.  ``apply_delta``
    makes both, and nothing writes them afterwards; ``Allocation.empty(net)``
    starts with an all-zero list for ``net``.  Any other state
    (``Allocation()``, ``Allocation(lightpaths)`` or an unpickled one) has
    none; ``_link_masks`` builds its list from the grants per read.

    Given ``LightPath``s, it keeps each as a one-unit grant, so reading
    them back gives equal ``LightPath``s, not the same ones; a repeated cell
    raises ``ConflictError`` and a wavelength below 1 ``ValueError``,
    whichever comes first.  Placement never makes a wavelength below 1.
    One above the network's range is kept, and ``validate_allocation``
    reports it.
    """

    __slots__ = ("_grants", "_conn_counts", "_keys", "_masks")

    def __init__(self, lightpaths=()):
        grants, conn_counts, cells = [], {}, set()
        for lp in lightpaths:
            if lp.wavelength < 1:
                raise ValueError(f"{lp.conn}: wavelength {lp.wavelength} is below 1")
            # hop by hop, so a route that crosses one link twice clashes with itself
            for u, v in lp.hops:
                cell = (link_key(u, v), lp.wavelength)
                if cell in cells:
                    raise ConflictError(f"cell {cell[0]} w={lp.wavelength} carries two lightpaths")
                cells.add(cell)
            conn_counts[lp.conn] = conn_counts.get(lp.conn, 0) + 1
            grants.append(Grant(lp.conn, lp.vc, ((lp.hops, 1 << (lp.wavelength - 1)),), 1))
        self._init(tuple(grants), conn_counts)

    def _init(self, grants, conn_counts, keys=None, masks=None) -> "Allocation":
        self._grants, self._conn_counts, self._keys, self._masks = grants, conn_counts, keys, masks
        return self

    @property
    def lightpaths(self) -> _LightpathView:
        return _LightpathView(self._grants)

    def __getstate__(self):
        return self._grants, self._conn_counts

    def __setstate__(self, state):
        self._init(*state)

    @staticmethod
    def empty(net: Network) -> "Allocation":
        """No grants, with an all-zero mask list kept for ``net``."""
        keys = _net_tables(net)[0]
        return object.__new__(Allocation)._init((), {}, keys, [0] * len(keys))

    def total_cost(self, net: Network) -> int:
        """Summed cost of every lightpath: per run, its hops' cost times its unit count."""
        memo: dict[tuple, int] = {}
        total = 0
        for grant in self._grants:
            for hops, mask in grant.runs:
                cost = memo.get(hops)
                if cost is None:
                    cost = memo[hops] = _hops_cost(net, hops)
                total += cost * mask.bit_count()
        return total

    def __repr__(self):
        return f"Allocation({len(self.lightpaths)} lightpaths)"


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def apply_delta(net: Network, state: Allocation, grant: Grant) -> Allocation:
    """Merge a grant into an allocation: a new state whose masks are kept for ``net``.

    The parent's masks under ``net`` are copied and each run is ORed in by
    link index, hop by hop, so a route that crosses one link twice clashes
    with itself.  Raises ConflictError on a taken cell, and ValueError on a
    hop that is not a link of ``net`` or, before any mask is written, on a
    run whose mask is below 1.  An empty grant returns ``state``.
    """
    if not grant.count:
        return state
    for _, bits in grant.runs:
        if bits < 1:
            raise ValueError(f"{grant.conn}: wavelength mask {bits} is below 1")
    keys, index, _ = tables = _net_tables(net)
    masks = _link_masks(net, state, tables).copy()
    for hops, bits in grant.runs:
        for hop in hops:
            i = index.get(hop)
            if i is None:
                raise ValueError(f"{grant.conn}: no link {link_key(*hop)} in network {net.id!r}")
            mask = masks[i]
            clash = mask & bits
            if clash:
                raise ConflictError(f"cell {keys[i]} w={(clash & -clash).bit_length()} carries two lightpaths")
            masks[i] = mask | bits
    conn_counts = dict(state._conn_counts)
    conn_counts[grant.conn] = conn_counts.get(grant.conn, 0) + grant.count
    return object.__new__(Allocation)._init(state._grants + (grant,), conn_counts, keys, masks)


def validate_allocation(net: Network, alloc: Allocation, demands: dict[str, int] | None = None) -> list[Violation]:
    """Independent invariant check, recounted from the grants' ``(hops, mask)`` runs alone.

    Verifies per-hop flow balance at every node for every (connection,
    wavelength) pair, link capacity sums, one-lightpath-one-direction cell
    exclusivity, and distinct wavelengths per connection.  When ``demands``
    maps connection ids to requested counts, the per-connection lightpath
    count is checked against it.  The allocation's mask list and
    connection counts are not read, and no ``LightPath`` is built.

    A run's route is checked once and its findings repeated for each of
    its units, with the wavelength range checked per unit, so the list
    is the one a lightpath-by-lightpath check gives, in the same order.
    Cells, link use and each connection's wavelengths are counted a run
    at a time, as masks and popcounts.
    """
    violations: list[Violation] = []
    top = net.wavelength_count
    taken: dict[tuple[str, str], int] = {}  # per link, the wavelengths seen on it
    per_link: dict[tuple[str, str], int] = {}
    waves: dict[str, list[int]] = {}  # per connection, [wavelength mask, unit count]
    shared = False

    for grant in alloc._grants:
        conn, vc = grant.conn, grant.vc
        for hops, mask in grant.runs:
            if not mask:
                continue
            units = mask.bit_count()
            seen = waves.setdefault(conn, [0, 0])
            seen[0] |= mask
            seen[1] += units
            if not hops:
                violations += [Violation("path-shape", f"{conn}: empty hop list")] * units
                continue
            before, after = _route_findings(net, conn, vc, hops)
            if before or after or mask >> top:
                for b in _bits(mask):
                    violations += before
                    if b >= top:
                        violations.append(Violation("wavelength-range", f"{conn}: wavelength {b + 1} outside 1..{top}"))
                    violations += after
            for u, v in hops:
                key = link_key(u, v)
                per_link[key] = per_link.get(key, 0) + units
                cells = taken.get(key, 0)
                if cells & mask:
                    shared = True
                taken[key] = cells | mask

    if shared:
        # Recount the cells unit by unit, in the order a lightpath-by-lightpath check meets them.
        cell_counts: dict[tuple[tuple[str, str], int], int] = {}
        for grant in alloc._grants:
            for hops, mask in grant.runs:
                for b in _bits(mask):
                    for u, v in hops:
                        cell = (link_key(u, v), b + 1)
                        cell_counts[cell] = cell_counts.get(cell, 0) + 1
        for (key, w), n in cell_counts.items():
            if n > 1:
                violations.append(Violation("direction-exclusivity", f"{n} lightpaths share link {key} on wavelength {w}"))
    for key, n in per_link.items():
        link = net.link_by_key.get(key)
        if link is not None and n > link.capacity:
            violations.append(Violation("capacity", f"link {key} carries {n} wavelengths, capacity {link.capacity}"))

    for conn, (mask, units) in waves.items():
        if mask.bit_count() != units:
            violations.append(Violation("demand-count", f"{conn}: units share a wavelength index"))
    if demands is not None:
        for conn, want in demands.items():
            got = waves[conn][1] if conn in waves else 0
            if got != want:
                violations.append(Violation("demand-count", f"{conn}: {got} units allocated, {want} requested"))
    return violations


def _route_findings(net: Network, conn: str, vc: VirtualChannel, hops) -> tuple[list[Violation], list[Violation]]:
    """What ``validate_allocation`` finds on one unit's route, before and after its wavelength check.

    Before: the route's endpoints, a revisited node and the first gap
    between hops.  After: each hop that is not a link of ``net``, and
    each node whose flow does not balance.
    """
    before: list[Violation] = []
    nodes = _hops_nodes(hops)
    if nodes[0] != vc.src or nodes[-1] != vc.dst:
        before.append(Violation("path-shape", f"{conn}: route does not join {vc.src}->{vc.dst}"))
    if len(set(nodes)) != len(nodes):
        before.append(Violation("path-shape", f"{conn}: route revisits a node"))
    for (_, v), (u, _) in zip(hops, hops[1:]):
        if v != u:
            before.append(Violation("continuity", f"{conn}: hops are not contiguous"))
            break
    after: list[Violation] = []
    # flow balance per node on this (connection, wavelength) layer
    balance: dict[str, int] = {}
    for u, v in hops:
        key = link_key(u, v)
        if key not in net.link_by_key:
            after.append(Violation("unknown-link", f"{conn}: no link {key} in network {net.id!r}"))
        balance[u] = balance.get(u, 0) + 1
        balance[v] = balance.get(v, 0) - 1
    for node, net_flow in balance.items():
        expect = 1 if node == vc.src else -1 if node == vc.dst else 0
        if net_flow != expect:
            after.append(Violation("continuity", f"{conn}: flow imbalance {net_flow:+d} at {node}"))
    return before, after


def dump_allocation(net: Network, alloc: Allocation) -> list[str]:
    """One line per lightpath in the stable trace/debug format.

    Lines are ordered by (channel label, connection, wavelength), and equal
    keys keep commit order.  Grants are sorted by (label, connection), and
    only the rows of one connection by wavelength.
    """
    memo: dict[tuple, str] = {}
    lines: list[str] = []
    for (label, _conn), grants in groupby(sorted(alloc._grants, key=_label_conn), key=_label_conn):
        rows = []
        for grant in grants:
            for hops, mask in grant.runs:
                tail = memo.get(hops)
                if tail is None:
                    tail = memo[hops] = f"path={'-'.join(_hops_nodes(hops))} cost={_hops_cost(net, hops)}"
                rows.extend((b + 1, tail) for b in _bits(mask))
        rows.sort(key=itemgetter(0))
        lines.extend([f"{label} w={w} {tail}" for w, tail in rows])
    return lines


def _label_conn(grant: Grant) -> tuple[str, str]:
    return grant.vc.label, grant.conn


# -- placement tables, kept on the network object ------------------------------
#
# A network object keeps its link tables in its ``__dict__`` under
# ``_net_tables``, and one ``_Route`` per ordered endpoint pair under
# ``_routes``, as it keeps ``_hash`` and ``link_by_key``; its pickle drops
# both.  The value-keyed caches below are read once per network object, and
# once per (network object, src, dst), so equal networks loaded afresh share
# their tables without a lookup by value on every call.  A routable network
# has at most 12 nodes (``MAX_ROUTE_NODES``), so it keeps at most 132 entries.


@lru_cache(maxsize=512)
def _tables_by_value(net: Network):
    """Sorted link keys, each hop's link index in either direction, capacities."""
    keys = tuple(sorted(net.link_by_key))
    # keyed by the arc table's own hop tuples, so a network holds one tuple per
    # link direction; a link the arc table skips (a self-loop, or one to an
    # unknown node) is keyed by its key and the key reversed
    index = {hop: i for arcs in net.arcs.values() for _, hop, _, i in arcs}
    for i, k in enumerate(keys):
        index.setdefault(k, i)
        index.setdefault(k[::-1], i)
    caps = tuple(min(net.link_by_key[k].capacity, net.wavelength_count) for k in keys)
    return keys, index, caps


def _net_tables(net: Network):
    """``(keys, index, caps)`` of ``_tables_by_value``, kept on ``net``."""
    tables = net.__dict__.get("_net_tables")
    if tables is None:
        tables = net.__dict__["_net_tables"] = _tables_by_value(net)
    return tables


@lru_cache(maxsize=2048)
def _path_tables(net: Network, src: str, dst: str):
    """Per candidate path from ``src`` to ``dst``, cheapest first: its hop tuple, its
    cost, its link indexes and whether it is the only candidate at its cost.  The
    first three are ``route_candidates``' ``hops``, ``costs`` and ``links``, whose hop
    tuples are ``net.arcs``' own and whose link numbers are ``_net_tables``' link
    indexes.  Keyed by value, and read through ``_route``; a ``NoPathError`` is
    raised, not cached."""
    routes = route_candidates(net, src, dst)
    costs = routes.costs
    # costs ascend, so a tie can only be with a neighbour
    padded = (None,) + costs + (None,)
    alone = tuple(padded[i] != c != padded[i + 2] for i, c in enumerate(costs))
    return routes.hops, costs, routes.links, alone


class _Route:
    """One endpoint pair's placement tables on one network object, and its last kernel pick.

    ``hops``, ``costs``, ``link_lists`` and ``alone`` are ``_path_tables``';
    ``tables`` is ``_net_tables(net)`` and ``full`` the mask of every
    wavelength.  When no route joins the two ends, ``error`` is the
    ``NoPathError``, which names only the ends and the network, and the
    path tables are empty.

    ``pick`` is the kernel's ``(path, wavelength)`` answer on the mask list
    ``masks`` with every wavelength allowed.  It is kept only for a state's
    own list, which nothing writes after ``apply_delta`` or
    ``Allocation.empty`` makes it, so the same list gives the same pick.
    """

    __slots__ = ("tables", "full", "hops", "costs", "link_lists", "alone", "error", "masks", "pick")

    def __init__(self, net: Network, src: str, dst: str):
        self.tables, self.full = _net_tables(net), (1 << net.wavelength_count) - 1
        self.error = self.masks = self.pick = None
        try:
            self.hops, self.costs, self.link_lists, self.alone = _path_tables(net, src, dst)
        except NoPathError as exc:
            self.hops = self.costs = self.link_lists = self.alone = ()
            self.error = exc.with_traceback(None)

    def ask(self, state: Allocation, masks: list[int]) -> tuple[int, int]:
        """The kernel's pick on ``masks``, ``state``'s link masks, with every wavelength
        allowed; kept when ``masks`` is the state's own list.  A caller that holds the
        kept pick (``masks is route.masks``) reads ``route.pick`` instead."""
        pick = _kernel.cheapest_placement(self.link_lists, self.costs, masks, self.tables[2], self.full)
        if masks is state._masks:
            self.masks, self.pick = masks, pick
        return pick


def _route(net: Network, src: str, dst: str) -> _Route:
    """The entry of the ordered pair ``(src, dst)`` on the network object ``net``, made on first use.

    Every channel from ``src`` to ``dst`` reads this one entry, whatever its
    label; ``(dst, src)`` has its own, as its tie-break differs.  A pair with
    no route keeps its ``NoPathError``; a ``NetworkTooLargeError`` is raised
    and not kept.  ``next_unit_cost`` and ``incremental_allocate`` read the
    map inline and call this only when the entry is missing.
    """
    routes = net.__dict__.get("_routes")
    if routes is None:
        routes = net.__dict__["_routes"] = {}
    route = routes.get((src, dst))
    if route is None:
        route = routes[src, dst] = _Route(net, src, dst)
    return route


def _link_masks(net: Network, state: Allocation, tables=None) -> list[int]:
    """The state's link masks by link index of ``net``, which no reader writes.

    The masks are the whole occupancy: a link is full when its popcount
    reaches its capacity.  A state committed under ``net`` gives its own
    list, so a caller that writes copies it first; any other state gives a
    list built from its grants, counting only hops on ``net``'s links.  A
    caller that holds ``_net_tables(net)`` passes it as ``tables``.
    """
    keys, index, _ = tables or _net_tables(net)
    if state._keys is keys:
        return state._masks
    masks = [0] * len(keys)
    for grant in state._grants:
        for hops, bits in grant.runs:
            for hop in hops:
                i = index.get(hop)
                if i is not None:
                    masks[i] |= bits
    return masks


def _fresh_conn_id(state: Allocation, label: str) -> str:
    """An unused ``label#n`` id, with ``n`` from the state's connection count up."""
    counts = state._conn_counts
    n = len(counts) + 1
    while f"{label}#{n}" in counts:
        n += 1
    return f"{label}#{n}"


# -- greedy placement, a path at a time ---------------------------------------

def next_unit_cost(net: Network, state: Allocation, vc: VirtualChannel) -> int | None:
    """What greedy placement of one more unit adds, or None when nothing fits.

    One kernel call, or none when the pair's entry keeps the pick on
    this state's own masks.
    """
    try:
        route = net.__dict__["_routes"][vc.src, vc.dst]
    except KeyError:
        route = _route(net, vc.src, vc.dst)
    if route.error is not None:
        return None
    masks = _link_masks(net, state, route.tables)
    p, _ = route.pick if masks is route.masks else route.ask(state, masks)
    return route.costs[p] if p >= 0 else None


def incremental_allocate(
    net: Network,
    state: Allocation,
    vc: VirtualChannel,
    count: int,
) -> tuple[Grant, int]:
    """Place up to ``count`` wavelengths one at a time, each at minimum incremental cost.

    All units belong to one connection, so they take pairwise-distinct
    wavelength indices.  Returns ``(delta, added)``: a ``Grant`` of the
    placed units in placement order, one run per kernel pick, and their
    summed cost.  The grant is shorter than ``count`` when capacity runs
    out, and empty when the endpoints are not connected or nothing fits.
    No ``LightPath`` is built.

    The kernel is asked once per path rather than once per unit, and the
    first pick is the one a probe of this state kept, if any.  Placing
    a unit only sets mask bits and clears ``allowed`` bits, so a path that
    lost to the kernel's pick never becomes feasible again.  The state's
    masks are copied before the first write that a later kernel call reads,
    so a grant that one pick completes copies nothing.  When the pick
    is the only candidate at its cost, every cheaper path has lost for
    good and every dearer one loses while it fits, so the next units go on
    it, at its lowest free allowed wavelengths, taken a block of
    consecutive ones at a time, until its room (the least ``cap -
    popcount`` over its links) or its free wavelengths run out: the cells
    the unit-by-unit rule would choose, in the same order.  A pick that
    ties another path's cost places one unit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    conn = _fresh_conn_id(state, vc.label)
    try:
        route = net.__dict__["_routes"][vc.src, vc.dst]
    except KeyError:
        route = _route(net, vc.src, vc.dst)
    if route.error is not None:
        return Grant(conn, vc, (), 0), 0
    hops, costs, link_lists, alone, allowed = route.hops, route.costs, route.link_lists, route.alone, route.full
    caps = route.tables[2]
    shared = masks = _link_masks(net, state, route.tables)
    p, w0 = route.pick if masks is route.masks else route.ask(state, masks)

    runs = []
    placed = added = 0
    while p >= 0:
        links = link_lists[p]
        room = count - placed
        take = 1 << w0
        n = 1
        if room > 1 and alone[p]:
            taken = 0
            for li in links:
                mask = masks[li]
                taken |= mask
                room = min(room, caps[li] - mask.bit_count())
            # each block is the run of free bits from the lowest (the kernel's pick first),
            # cut at the room left: of two runs from one bit, the shorter is the smaller
            free = allowed & ~taken
            take = n = 0
            while free and n < room:
                low = free & -free
                block = min(free & ~(free + low), low * ((1 << (room - n)) - 1))
                free ^= block
                take |= block
                n += block.bit_count()
            if not n:  # a pick with no room would be asked for again on the same masks, without end
                raise RuntimeError(f"the kernel picked path {p}, which has no free wavelength with room")
        runs.append((hops[p], take))
        placed += n
        added += costs[p] * n
        if placed == count:
            break
        if masks is shared:
            masks = masks.copy()
        for li in links:
            masks[li] |= take
        allowed &= ~take
        p, w0 = _kernel.cheapest_placement(link_lists, costs, masks, caps, allowed)
    return Grant(conn, vc, tuple(runs), placed), added
