"""Exact minimum-cost routing and wavelength assignment.

The allocation model: every provisioned unit is a lightpath, i.e. a simple
route locked to one wavelength end to end.  A (link, wavelength) cell
carries at most one lightpath, in one direction; per-link occupancy is
bounded by the link capacity; and the units of one connection must sit on
pairwise-distinct wavelength indices.

Two solvers are provided: a branch-and-bound exact solver and a guarded
exhaustive enumerator used as its oracle in tests.  A third operation
places units greedily one at a time, which is what suppliers can actually
evaluate mid-market; its unit costs trace out the marginal-cost curve, and
settlement provisions through it.  Greedy placement asks the kernel for
the cheapest cell once per path, not once per unit: when the chosen path
is the only candidate at its cost, the units after it land on that path
until its room runs out, which is where the unit-by-unit rule puts them.

All three place units of one connection and return one result shape,
``(grant, added)``: a ``Grant`` of the new units, held as ``(hops,
wavelength mask)`` runs of consecutive units on one path, which stands for
the tuple of ``LightPath``s and builds them only when read, and their
summed cost.  Nothing is committed; ``apply_delta(net, state, grant)``
merges the grant into a new state, which keeps one list of link masks.
Placement reads that list in place, and a marginal-cost probe,
``next_unit_cost``, is one kernel call against it.
"""

from __future__ import annotations

from abc import abstractmethod
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby
from operator import itemgetter

from . import _kernel
from .errors import (
    ConflictError,
    InfeasibleError,
    InstanceTooLargeError,
    NoPathError,
    Violation,
)
from .topology import Network, VirtualChannel, link_key, route_candidates

# exhaustive-oracle guard
BRUTE_MAX_NODES = 6
BRUTE_MAX_WAVELENGTHS = 3
BRUTE_MAX_UNITS = 4


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


def _hops_nodes(hops) -> tuple[str, ...]:
    return (hops[0][0],) + tuple(v for _, v in hops)


def _hops_cost(net: Network, hops) -> int:
    return sum(net.link_by_key[link_key(u, v)].unit_cost for u, v in hops)


class _Lightpaths(Sequence):
    """A tuple of lightpaths held in a compact form.

    Its length is read without building anything; iterating, indexing or
    comparing it behaves like the tuple, which is built on first use.
    """

    __slots__ = ("_count", "_built")

    @abstractmethod
    def _build(self) -> tuple[LightPath, ...]:
        """The lightpaths, in order."""

    def _tuple(self) -> tuple[LightPath, ...]:
        lps = self._built
        if lps is None:
            lps = self._built = self._build()
        return lps

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self._tuple())

    def __getitem__(self, i):
        return self._tuple()[i]

    def __eq__(self, other):
        if isinstance(other, _Lightpaths):
            other = other._tuple()
        return self._tuple() == other

    def __hash__(self):
        return hash(self._tuple())

    def __repr__(self):
        return f"{type(self).__name__}({self._tuple()!r})"


class Grant(_Lightpaths):
    """The units one placement grants one connection, kept as ``(hops, mask)`` runs.

    A run is a hop tuple and a wavelength bitmask (bit ``w-1`` set =
    wavelength ``w``).  Runs keep placement order, and within a run the
    wavelengths ascend.  A grant stands for the tuple of ``LightPath``s in
    that order, and pickles as its runs.
    """

    __slots__ = ("conn", "vc", "runs")

    def __init__(self, conn: str, vc: VirtualChannel, runs: tuple, count: int, built=None):
        self.conn = conn
        self.vc = vc
        self.runs = runs
        self._count = count
        self._built = built

    def _build(self) -> tuple[LightPath, ...]:
        conn, vc = self.conn, self.vc
        return tuple(LightPath(conn, vc, b + 1, hops) for hops, mask in self.runs for b in _bits(mask))

    def __reduce__(self):
        return Grant, (self.conn, self.vc, self.runs, self._count)


class _Committed(_Lightpaths):
    """An allocation's lightpaths: its grants' units in commit order."""

    __slots__ = ("grants",)

    def __init__(self, grants: tuple[Grant, ...]):
        self.grants = grants
        self._count = sum(map(len, grants))
        self._built = None

    def _build(self) -> tuple[LightPath, ...]:
        return tuple(chain.from_iterable(self.grants))


class Allocation:
    """Immutable set of lightpaths: its grants, plus one list of link masks.

    The grants, in commit order, are the only source of truth.
    ``lightpaths`` stands for the tuple of their units: its length is the
    unit count, and iterating, indexing or comparing it builds the
    ``LightPath``s on first use.  Per connection, a lightpath count, from
    which fresh connection ids are named.  It pickles as grants and counts.

    Occupancy is a list of per-link wavelength bitmasks (bit ``w-1`` set =
    wavelength ``w`` taken; a link's used count is its popcount) in the
    link order of the network the state was committed under: ``_keys`` is
    that network's link-key tuple, ``_masks`` the list.  ``apply_delta``
    makes both, and nothing writes them afterwards; ``Allocation.empty(net)``
    starts with an all-zero list for ``net``.  Any other state
    (``Allocation()``, ``Allocation(lightpaths)`` or an unpickled one) has
    none; ``_link_masks`` builds its list from the grants per read.

    Given ``LightPath``s, it keeps each as a one-unit grant; a repeated cell
    raises ``ConflictError`` and a wavelength below 1 ``ValueError``,
    whichever comes first.  Placement never makes a wavelength below 1.
    One above the network's range is kept, and ``validate_allocation``
    reports it.
    """

    __slots__ = ("_grants", "_conn_counts", "_keys", "_masks", "_lightpaths")

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
            grants.append(Grant(lp.conn, lp.vc, ((lp.hops, 1 << (lp.wavelength - 1)),), 1, (lp,)))
        self._init(tuple(grants), conn_counts)

    def _init(self, grants, conn_counts, keys=None, masks=None) -> "Allocation":
        self._grants, self._conn_counts, self._keys, self._masks = grants, conn_counts, keys, masks
        self._lightpaths = None
        return self

    @property
    def lightpaths(self) -> Sequence[LightPath]:
        view = self._lightpaths
        if view is None:
            view = self._lightpaths = _Committed(self._grants)
        return view

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
    with itself.  Raises ConflictError on a taken cell and ValueError on a
    hop that is not a link of ``net``.  An empty grant returns ``state``.
    """
    if not grant._count:
        return state
    keys, index, _, _ = tables = _net_tables(net)
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
    conn_counts[grant.conn] = conn_counts.get(grant.conn, 0) + grant._count
    return object.__new__(Allocation)._init(state._grants + (grant,), conn_counts, keys, masks)


def validate_allocation(net: Network, alloc: Allocation, demands: dict[str, int] | None = None) -> list[Violation]:
    """Independent invariant check, recounted from ``alloc.lightpaths`` alone.

    Verifies per-hop flow balance at every node for every (connection,
    wavelength) pair, link capacity sums, one-lightpath-one-direction cell
    exclusivity, and distinct wavelengths per connection.  When ``demands``
    maps connection ids to requested counts, the per-connection lightpath
    count is checked against it.  The allocation's own index is not read.
    """
    violations: list[Violation] = []
    cells: dict[tuple[tuple[str, str], int], int] = {}
    per_link: dict[tuple[str, str], int] = {}
    waves: dict[str, list[int]] = {}

    for lp in alloc.lightpaths:
        waves.setdefault(lp.conn, []).append(lp.wavelength)
        if not lp.hops:
            violations.append(Violation("path-shape", f"{lp.conn}: empty hop list"))
            continue
        nodes = lp.nodes()
        if nodes[0] != lp.vc.src or nodes[-1] != lp.vc.dst:
            violations.append(Violation("path-shape", f"{lp.conn}: route does not join {lp.vc.src}->{lp.vc.dst}"))
        if len(set(nodes)) != len(nodes):
            violations.append(Violation("path-shape", f"{lp.conn}: route revisits a node"))
        for i in range(len(lp.hops) - 1):
            if lp.hops[i][1] != lp.hops[i + 1][0]:
                violations.append(Violation("continuity", f"{lp.conn}: hops are not contiguous"))
                break
        if not 1 <= lp.wavelength <= net.wavelength_count:
            violations.append(Violation("wavelength-range", f"{lp.conn}: wavelength {lp.wavelength} outside 1..{net.wavelength_count}"))
        # flow balance per node on this (connection, wavelength) layer
        balance: dict[str, int] = {}
        for u, v in lp.hops:
            key = link_key(u, v)
            if key not in net.link_by_key:
                violations.append(Violation("unknown-link", f"{lp.conn}: no link {key} in network {net.id!r}"))
            balance[u] = balance.get(u, 0) + 1
            balance[v] = balance.get(v, 0) - 1
            cells[(key, lp.wavelength)] = cells.get((key, lp.wavelength), 0) + 1
            per_link[key] = per_link.get(key, 0) + 1
        for node, net_flow in balance.items():
            expect = 1 if node == lp.vc.src else -1 if node == lp.vc.dst else 0
            if net_flow != expect:
                violations.append(Violation("continuity", f"{lp.conn}: flow imbalance {net_flow:+d} at {node}"))

    for (key, w), n in cells.items():
        if n > 1:
            violations.append(Violation("direction-exclusivity", f"{n} lightpaths share link {key} on wavelength {w}"))
    for key, n in per_link.items():
        link = net.link_by_key.get(key)
        if link is not None and n > link.capacity:
            violations.append(Violation("capacity", f"link {key} carries {n} wavelengths, capacity {link.capacity}"))

    for conn, ws in waves.items():
        if len(set(ws)) != len(ws):
            violations.append(Violation("demand-count", f"{conn}: units share a wavelength index"))
    if demands is not None:
        for conn, want in demands.items():
            got = len(waves.get(conn, ()))
            if got != want:
                violations.append(Violation("demand-count", f"{conn}: {got} units allocated, {want} requested"))
    return violations


def dump_allocation(net: Network, alloc: Allocation) -> list[str]:
    """One line per lightpath in the stable trace/debug format."""
    memo: dict[tuple, str] = {}
    rows = []
    for grant in alloc._grants:
        for hops, mask in grant.runs:
            tail = memo.get(hops)
            if tail is None:
                tail = memo[hops] = f"path={'-'.join(_hops_nodes(hops))} cost={_hops_cost(net, hops)}"
            rows.extend((grant.vc.label, grant.conn, b + 1, tail) for b in _bits(mask))
    rows.sort(key=itemgetter(0, 1, 2))
    return [f"{label} w={w} {tail}" for label, _conn, w, tail in rows]


# -- compiled lookup tables ---------------------------------------------------

@lru_cache(maxsize=512)
def _net_tables(net: Network):
    """Sorted link keys, each hop's link index in either direction, capacities."""
    keys = tuple(sorted(net.link_by_key))
    # one (u, v) tuple per link direction, shared by every hop tuple of the network
    pairs = {hop: hop for k in keys for hop in (k, k[::-1])}
    index = {hop: i for i, k in enumerate(keys) for hop in (k, k[::-1])}
    caps = tuple(min(net.link_by_key[k].capacity, net.wavelength_count) for k in keys)
    return keys, index, caps, pairs


@lru_cache(maxsize=2048)
def _path_tables(net: Network, vc: VirtualChannel):
    """Per candidate path, cheapest first: its hop tuple, its cost, its link indexes
    and whether it is the only candidate at its cost."""
    _, index, _, pairs = _net_tables(net)
    paths = route_candidates(net, vc)
    costs = paths.costs
    hops = tuple(tuple(pairs[hop] for hop in zip(p, p[1:])) for p in paths)
    link_lists = tuple(tuple(index[hop] for hop in h) for h in hops)
    # costs ascend, so a tie can only be with a neighbour
    padded = (None,) + costs + (None,)
    alone = tuple(padded[i] != c != padded[i + 2] for i, c in enumerate(costs))
    return hops, costs, link_lists, alone


def _link_masks(net: Network, state: Allocation, tables=None) -> list[int]:
    """The state's link masks by link index of ``net``, which no reader writes.

    The masks are the whole occupancy: a link is full when its popcount
    reaches its capacity.  A state committed under ``net`` gives its own
    list, so a caller that writes copies it first; any other state gives a
    list built from its grants, counting only hops on ``net``'s links.  A
    caller that holds ``_net_tables(net)`` passes it as ``tables``.
    """
    keys, index, _, _ = tables or _net_tables(net)
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
    """What greedy placement of one more unit adds, or None when nothing fits: one kernel call."""
    try:
        _, costs, link_lists, _ = _path_tables(net, vc)
    except NoPathError:
        return None
    tables = _net_tables(net)
    masks = _link_masks(net, state, tables)
    p, _ = _kernel.cheapest_placement(link_lists, costs, masks, tables[2], (1 << net.wavelength_count) - 1)
    return costs[p] if p >= 0 else None


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
    No ``LightPath`` is built until the grant is read.

    The kernel is asked once per path rather than once per unit.  Placing
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
        hops, costs, link_lists, alone = _path_tables(net, vc)
    except NoPathError:
        return Grant(conn, vc, (), 0), 0
    tables = _net_tables(net)
    caps = tables[2]
    shared = masks = _link_masks(net, state, tables)
    allowed = (1 << net.wavelength_count) - 1

    runs = []
    placed = added = 0
    while placed < count:
        p, w0 = _kernel.cheapest_placement(link_lists, costs, masks, caps, allowed)
        if p < 0:
            break
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
    return Grant(conn, vc, tuple(runs), placed), added


# -- exact solvers -------------------------------------------------------------

def _flow_upper_bound(net: Network, state: Allocation, vc: VirtualChannel, need: int) -> int:
    """Max-flow bound on how many units this channel could ever receive.

    Ignores wavelength layering, so it only proves infeasibility, never
    feasibility.  Early-exits once ``need`` units are proven possible.
    """
    keys, _, caps, _ = tables = _net_tables(net)
    residual: dict[str, dict[str, int]] = {n: {} for n in net.nodes}
    for (a, b), cap, mask in zip(keys, caps, _link_masks(net, state, tables)):
        free = cap - mask.bit_count()
        if free <= 0 or a == b:
            continue
        residual[a][b] = free
        residual[b][a] = free
    flow = 0
    while flow < need:
        parent = {vc.src: vc.src}
        queue = deque([vc.src])
        while queue and vc.dst not in parent:
            u = queue.popleft()
            for v in sorted(residual[u]):
                if residual[u][v] > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if vc.dst not in parent:
            break
        bottleneck = need - flow
        v = vc.dst
        while v != vc.src:
            u = parent[v]
            bottleneck = min(bottleneck, residual[u][v])
            v = u
        v = vc.dst
        while v != vc.src:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] = residual[v].get(u, 0) + bottleneck
            v = u
        flow += bottleneck
    return flow


def _search(net, state, vc, count, *, prune: bool, reduce_symmetry: bool) -> tuple[Grant, int]:
    """Shared DFS over per-unit (wavelength, path) choices for one connection.

    The units take ascending wavelengths, and choices are explored in
    ascending (wavelength, path-rank) order with an incumbent that only
    improves strictly, so the first optimum found is the lexicographically
    least one: wavelength index, then candidate-path rank.  With ``prune``
    the admissible bound (the cheapest candidate path per unplaced unit,
    conflicts ignored) turns the enumeration into branch and bound; with
    ``reduce_symmetry`` a unit may only take an already-used wavelength or
    the single lowest fresh one, which is sound because fresh wavelengths
    are interchangeable.  Returns ``(grant, added)``; raises
    InfeasibleError when nothing fits.
    """
    W = net.wavelength_count
    _, _, caps, _ = _net_tables(net)
    hops, costs, link_lists, _alone = _path_tables(net, vc)
    masks = _link_masks(net, state).copy()
    full = (1 << W) - 1
    # wavelengths in use on any link of the network, as a mask
    anchored = 0
    for mask in masks:
        anchored |= mask
    assignment: list[tuple[int, int]] = [(-1, -1)] * count
    best: list[tuple[int, int]] | None = None
    best_cost = 0

    def wave_choices(lo: int):
        if reduce_symmetry:
            fresh = (~anchored & (anchored + 1)).bit_length() - 1
            ws = anchored >> (lo + 1) << (lo + 1)
            if lo < fresh < W:
                ws |= 1 << fresh
            return _bits(ws & full)
        return range(lo + 1, W)

    def fits(links, bit: int) -> bool:
        for li in links:
            mask = masks[li]
            if mask & bit or mask.bit_count() >= caps[li]:
                return False
        return True

    def dfs(u: int, lo: int, cost: int) -> None:
        nonlocal best, best_cost, anchored
        remaining = count - u
        if best is not None and prune and cost + costs[0] * remaining >= best_cost:
            return
        if u == count:
            if best is None or cost < best_cost:
                best = assignment.copy()
                best_cost = cost
            return
        for w in wave_choices(lo):
            bit = 1 << w
            for p in range(len(costs)):
                if best is not None and prune and cost + costs[p] + costs[0] * (remaining - 1) >= best_cost:
                    break
                links = link_lists[p]
                if not fits(links, bit):
                    continue
                for li in links:
                    masks[li] |= bit
                introduced = not anchored & bit
                anchored |= bit
                assignment[u] = (p, w)
                dfs(u + 1, w, cost + costs[p])
                if introduced:
                    anchored ^= bit
                for li in links:
                    masks[li] ^= bit

    dfs(0, -1, 0)
    if best is None:
        raise InfeasibleError("no joint assignment satisfies the constraints")
    # the wavelengths ascend, so consecutive units on one path form one run
    runs = tuple((hops[p], sum(1 << w for _, w in units)) for p, units in groupby(best, key=lambda unit: unit[0]))
    return Grant(_fresh_conn_id(state, vc.label), vc, runs, count), best_cost


def solve_min_cost_rwa(net: Network, state: Allocation, vc: VirtualChannel, count: int) -> tuple[Grant, int]:
    """Minimum-cost placement of ``count`` wavelengths of one connection on top of ``state``.

    Returns ``(grant, added)``: the new units, wavelengths ascending, and
    their summed cost.  Existing lightpaths are never moved.
    Deterministic: cost-equal optima are resolved by (wavelength index,
    path rank).  Raises InfeasibleError when the demand cannot be met.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > net.wavelength_count:
        raise InfeasibleError(
            f"{vc.label}: {count} units need {count} distinct wavelengths, only {net.wavelength_count} exist"
        )
    try:
        _path_tables(net, vc)
    except NoPathError as exc:
        raise InfeasibleError(str(exc)) from exc
    if _flow_upper_bound(net, state, vc, count) < count:
        raise InfeasibleError(f"{vc.label}: demand {count} exceeds residual capacity")
    return _search(net, state, vc, count, prune=True, reduce_symmetry=True)


def brute_force_rwa(net: Network, state: Allocation, vc: VirtualChannel, count: int) -> tuple[Grant, int]:
    """Test oracle: exhaustive enumeration of every feasible assignment.

    No bounding and no wavelength-symmetry reduction; only the guard below
    keeps it tractable.  Result shape and tie-break match solve_min_cost_rwa.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if len(net.nodes) > BRUTE_MAX_NODES or net.wavelength_count > BRUTE_MAX_WAVELENGTHS or count > BRUTE_MAX_UNITS:
        raise InstanceTooLargeError(
            f"guard is <= {BRUTE_MAX_NODES} nodes, W <= {BRUTE_MAX_WAVELENGTHS}, <= {BRUTE_MAX_UNITS} units"
        )
    try:
        _path_tables(net, vc)
    except NoPathError as exc:
        raise InfeasibleError(str(exc)) from exc
    return _search(net, state, vc, count, prune=False, reduce_symmetry=False)
