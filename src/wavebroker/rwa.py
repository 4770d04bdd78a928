"""Exact minimum-cost routing and wavelength assignment.

The allocation model: every provisioned unit is a lightpath, i.e. a simple
route locked to one wavelength end to end.  A (link, wavelength) cell
carries at most one lightpath, in one direction; per-link occupancy is
bounded by the link capacity; and the units of one connection must sit on
pairwise-distinct wavelength indices.

Two solvers are provided: a branch-and-bound exact solver and a guarded
exhaustive enumerator used as its oracle in tests.  A third operation
places units greedily one at a time, which is what suppliers can actually
evaluate mid-market; its unit costs trace out the marginal-cost curve.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from . import _kernel
from .errors import (
    ConflictError,
    InfeasibleError,
    InstanceTooLargeError,
    NoPathError,
    Violation,
)
from .topology import DemandRequest, Network, Path, VirtualChannel, path_cost, route_candidates

# exhaustive-oracle guard
BRUTE_MAX_NODES = 6
BRUTE_MAX_WAVELENGTHS = 3
BRUTE_MAX_UNITS = 4


def _link_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class LightPath:
    """One allocated unit: a connection's route pinned to a single wavelength."""

    conn: str
    vc: VirtualChannel
    wavelength: int
    hops: tuple[tuple[str, str], ...]

    def nodes(self) -> tuple[str, ...]:
        return (self.hops[0][0],) + tuple(v for _, v in self.hops)

    def link_keys(self) -> tuple[tuple[str, str], ...]:
        return tuple(_link_key(u, v) for u, v in self.hops)

    def cost(self, net: Network) -> int:
        return sum(net.link_by_key[k].unit_cost for k in self.link_keys())


class Allocation:
    """Immutable set of lightpaths with its occupancy held as per-link bitmasks.

    Per link, a wavelength bitmask (bit ``w-1`` set = wavelength ``w``
    taken) is the only occupancy state: a link's used count is its
    popcount.  Per connection, a lightpath count, from which fresh
    connection ids are named.  ``apply_delta`` extends copies of the
    parent's dicts with the delta only, so a commit costs the delta, not
    the whole allocation.

    A wavelength below 1 names no bit and raises ``ValueError``; placement
    never makes one.  One above the network's range is kept, and
    ``validate_allocation`` reports it.
    """

    __slots__ = ("lightpaths", "_masks", "_conn_counts")

    def __init__(self, lightpaths=()):
        self.lightpaths: tuple[LightPath, ...] = ()
        self._masks: dict[tuple[str, str], int] = {}
        self._conn_counts: dict[str, int] = {}
        self._index(tuple(lightpaths))

    def _index(self, delta: tuple[LightPath, ...]) -> None:
        masks, conn_counts = self._masks, self._conn_counts
        for lp in delta:
            w = lp.wavelength
            if w < 1:
                raise ValueError(f"{lp.conn}: wavelength {w} is below 1")
            bit = 1 << (w - 1)
            for u, v in lp.hops:
                key = _link_key(u, v)
                mask = masks.get(key, 0)
                if mask & bit:
                    raise ConflictError(f"cell {key} w={w} carries two lightpaths")
                masks[key] = mask | bit
            conn_counts[lp.conn] = conn_counts.get(lp.conn, 0) + 1
        self.lightpaths += delta

    def _extended(self, delta: tuple[LightPath, ...]) -> "Allocation":
        child = object.__new__(Allocation)
        child.lightpaths = self.lightpaths
        child._masks = dict(self._masks)
        child._conn_counts = dict(self._conn_counts)
        child._index(delta)
        return child

    @staticmethod
    def empty() -> "Allocation":
        return Allocation()

    def used_on(self, link_key: tuple[str, str]) -> int:
        return self._masks.get(link_key, 0).bit_count()

    def connections(self) -> dict[str, int]:
        """Connection id -> number of lightpaths it holds."""
        return dict(self._conn_counts)

    def next_conn_index(self) -> int:
        return len(self._conn_counts) + 1

    def total_cost(self, net: Network) -> int:
        return sum(lp.cost(net) for lp in self.lightpaths)

    def __eq__(self, other):
        if not isinstance(other, Allocation):
            return NotImplemented
        return frozenset(self.lightpaths) == frozenset(other.lightpaths)

    def __hash__(self):
        return hash(frozenset(self.lightpaths))

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


@dataclass(frozen=True)
class RwaSolution:
    """Result of an exact solve: the merged allocation and its exact cost."""

    allocation: Allocation
    total_cost: int
    optimal: bool
    delta: tuple[LightPath, ...]
    added_cost: int


def apply_delta(state: Allocation, delta) -> Allocation:
    """Merge new lightpaths into an allocation; ConflictError on any taken cell."""
    return state._extended(tuple(delta))


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
            key = _link_key(u, v)
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
    lines = []
    for lp in sorted(alloc.lightpaths, key=lambda l: (l.vc.label, l.conn, l.wavelength)):
        lines.append(f"{lp.vc.label} w={lp.wavelength} path={'-'.join(lp.nodes())} cost={lp.cost(net)}")
    return lines


# -- compiled lookup tables ---------------------------------------------------

@lru_cache(maxsize=512)
def _net_tables(net: Network):
    keys = sorted(net.link_by_key)
    index = {k: i for i, k in enumerate(keys)}
    caps = tuple(min(net.link_by_key[k].capacity, net.wavelength_count) for k in keys)
    return keys, index, caps


@lru_cache(maxsize=2048)
def _path_tables(net: Network, vc: VirtualChannel):
    _, index, _ = _net_tables(net)
    paths = tuple(route_candidates(net, vc))
    costs = tuple(path_cost(net, p) for p in paths)
    link_lists = tuple(tuple(index[_link_key(u, v)] for u, v in zip(p, p[1:])) for p in paths)
    return paths, costs, link_lists


class _Scratch:
    """Mutable copy of an allocation's link masks, by link index.

    The masks are the whole occupancy: a link is full when its popcount
    reaches its capacity.
    """

    __slots__ = ("masks",)

    def __init__(self, net: Network, state: Allocation):
        keys, _, _ = _net_tables(net)
        self.masks = [state._masks.get(k, 0) for k in keys]

    def place(self, link_ids, bit: int) -> None:
        for li in link_ids:
            self.masks[li] |= bit

    def unplace(self, link_ids, bit: int) -> None:
        for li in link_ids:
            self.masks[li] ^= bit

    def fits(self, link_ids, bit: int, caps) -> bool:
        for li in link_ids:
            mask = self.masks[li]
            if mask & bit or mask.bit_count() >= caps[li]:
                return False
        return True


def _hops_for(path: Path) -> tuple[tuple[str, str], ...]:
    return tuple(zip(path, path[1:]))


def _fresh_conn_ids(state: Allocation, labels) -> list[str]:
    """One unused ``label#n`` id per label, with ``n`` strictly increasing.

    Distinct ``n`` keep the new ids apart, so only the state's ids are checked.
    """
    ids = []
    n = state.next_conn_index()
    for label in labels:
        while f"{label}#{n}" in state._conn_counts:
            n += 1
        ids.append(f"{label}#{n}")
        n += 1
    return ids


# -- greedy unit-at-a-time placement ------------------------------------------

def incremental_allocate(
    net: Network,
    state: Allocation,
    vc: VirtualChannel,
    count: int,
) -> tuple[list[LightPath], int]:
    """Place ``count`` wavelengths one at a time, each at minimum incremental cost.

    All units belong to one connection, so they take pairwise-distinct
    wavelength indices.  Nothing is committed; the caller applies the
    returned delta.  Raises InfeasibleError carrying the partial placement
    when fewer than ``count`` units fit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    conn = _fresh_conn_ids(state, [vc.label])[0]
    try:
        paths, costs, link_lists = _path_tables(net, vc)
    except NoPathError as exc:
        raise InfeasibleError(str(exc), placed=0) from exc
    _, _, caps = _net_tables(net)
    scratch = _Scratch(net, state)
    allowed = (1 << net.wavelength_count) - 1

    delta: list[LightPath] = []
    added = 0
    for placed in range(count):
        p, w0 = _kernel.cheapest_placement(link_lists, costs, scratch.masks, caps, allowed)
        if p < 0:
            raise InfeasibleError(
                f"{vc.label}: only {placed} of {count} wavelengths fit",
                placed=placed,
                delta=tuple(delta),
                added_cost=added,
            )
        scratch.place(link_lists[p], 1 << w0)
        allowed &= ~(1 << w0)
        delta.append(LightPath(conn, vc, w0 + 1, _hops_for(paths[p])))
        added += costs[p]
    return delta, added


# -- exact solvers -------------------------------------------------------------

def _flow_upper_bound(net: Network, state: Allocation, vc: VirtualChannel, need: int) -> int:
    """Max-flow bound on how many units this channel could ever receive.

    Ignores wavelength layering, so it only proves infeasibility, never
    feasibility.  Early-exits once ``need`` units are proven possible.
    """
    residual: dict[str, dict[str, int]] = {n: {} for n in net.nodes}
    for key, link in net.link_by_key.items():
        free = min(link.capacity, net.wavelength_count) - state.used_on(key)
        if free <= 0 or link.a == link.b:
            continue
        residual[key[0]][key[1]] = free
        residual[key[1]][key[0]] = free
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


def _search(net, state, requests, conns, *, prune: bool, reduce_symmetry: bool):
    """Shared DFS over per-unit (wavelength, path) choices.

    Choices are explored in ascending (wavelength, path-rank) order and the
    incumbent only improves strictly, so the first optimum found is the
    lexicographically least one: connection order, then wavelength index,
    then candidate-path rank.  With ``prune`` the admissible bound
    (cheapest candidate path per unplaced unit, conflicts ignored) turns
    the enumeration into branch and bound; with ``reduce_symmetry`` a unit
    may only take an already-used wavelength or the single lowest fresh
    one, which is sound because fresh wavelengths are interchangeable.
    """
    W = net.wavelength_count
    _, _, caps = _net_tables(net)
    per_req = []
    for req in requests:
        per_req.append(_path_tables(net, req.vc))

    unit_req: list[int] = []
    for k, req in enumerate(requests):
        unit_req.extend([k] * req.count)
    n_units = len(unit_req)

    suffix = [0] * (n_units + 1)
    for u in range(n_units - 1, -1, -1):
        suffix[u] = suffix[u + 1] + per_req[unit_req[u]][1][0]

    scratch = _Scratch(net, state)
    full = (1 << W) - 1
    # wavelengths in use anywhere, as a mask
    anchored = 0
    for mask in state._masks.values():
        anchored |= mask
    last_w = [-1] * len(requests)
    assignment: list[tuple[int, int]] = [(-1, -1)] * n_units
    best: list[tuple[int, int]] | None = None
    best_cost = 0

    def wave_choices(k: int):
        lo = last_w[k]
        if reduce_symmetry:
            fresh = (~anchored & (anchored + 1)).bit_length() - 1
            ws = anchored >> (lo + 1) << (lo + 1)
            if lo < fresh < W:
                ws |= 1 << fresh
            return _bits(ws & full)
        return range(lo + 1, W)

    def dfs(u: int, cost: int) -> None:
        nonlocal best, best_cost, anchored
        if best is not None and prune and cost + suffix[u] >= best_cost:
            return
        if u == n_units:
            if best is None or cost < best_cost:
                best = assignment.copy()
                best_cost = cost
            return
        k = unit_req[u]
        _paths, costs, link_lists = per_req[k]
        for w in wave_choices(k):
            bit = 1 << w
            for p in range(len(costs)):
                if best is not None and prune and cost + costs[p] + suffix[u + 1] >= best_cost:
                    break
                if not scratch.fits(link_lists[p], bit, caps):
                    continue
                scratch.place(link_lists[p], bit)
                introduced = not anchored & bit
                anchored |= bit
                prev = last_w[k]
                last_w[k] = w
                assignment[u] = (p, w)
                dfs(u + 1, cost + costs[p])
                last_w[k] = prev
                if introduced:
                    anchored ^= bit
                scratch.unplace(link_lists[p], bit)

    dfs(0, 0)
    if best is None:
        return None
    delta = []
    for u, (p, w) in enumerate(best):
        k = unit_req[u]
        delta.append(LightPath(conns[k], requests[k].vc, w + 1, _hops_for(per_req[k][0][p])))
    return tuple(delta), best_cost


def solve_min_cost_rwa(net: Network, state: Allocation, requests: list[DemandRequest]) -> RwaSolution:
    """Minimum-cost allocation of every requested wavelength on top of ``state``.

    Existing lightpaths are never moved.  Deterministic: cost-equal optima
    are resolved by (connection index, wavelength index, path rank).
    Raises InfeasibleError when the demands cannot all be met.
    """
    requests = list(requests)
    conns = _fresh_conn_ids(state, [req.vc.label for req in requests])
    for req in requests:
        if req.count > net.wavelength_count:
            raise InfeasibleError(
                f"{req.vc.label}: {req.count} units need {req.count} distinct wavelengths, only {net.wavelength_count} exist"
            )
        try:
            _path_tables(net, req.vc)
        except NoPathError as exc:
            raise InfeasibleError(str(exc)) from exc
        if _flow_upper_bound(net, state, req.vc, req.count) < req.count:
            raise InfeasibleError(f"{req.vc.label}: demand {req.count} exceeds residual capacity")

    found = _search(net, state, requests, conns, prune=True, reduce_symmetry=True)
    if found is None:
        raise InfeasibleError("no joint assignment satisfies the constraints")
    delta, added = found
    allocation = apply_delta(state, delta)
    return RwaSolution(allocation, allocation.total_cost(net), True, delta, added)


def brute_force_rwa(net: Network, state: Allocation, requests: list[DemandRequest]) -> RwaSolution:
    """Test oracle: exhaustive enumeration of every feasible assignment.

    No bounding and no wavelength-symmetry reduction; only the guard below
    keeps it tractable.  Tie-break matches solve_min_cost_rwa.
    """
    requests = list(requests)
    total_units = sum(r.count for r in requests)
    if len(net.nodes) > BRUTE_MAX_NODES or net.wavelength_count > BRUTE_MAX_WAVELENGTHS or total_units > BRUTE_MAX_UNITS:
        raise InstanceTooLargeError(
            f"guard is <= {BRUTE_MAX_NODES} nodes, W <= {BRUTE_MAX_WAVELENGTHS}, <= {BRUTE_MAX_UNITS} units"
        )
    conns = _fresh_conn_ids(state, [req.vc.label for req in requests])
    try:
        for req in requests:
            _path_tables(net, req.vc)
    except NoPathError as exc:
        raise InfeasibleError(str(exc)) from exc
    found = _search(net, state, requests, conns, prune=False, reduce_symmetry=False)
    if found is None:
        raise InfeasibleError("no joint assignment satisfies the constraints")
    delta, added = found
    allocation = apply_delta(state, delta)
    return RwaSolution(allocation, allocation.total_cost(net), True, delta, added)
