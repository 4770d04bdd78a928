"""Immutable network model: nodes, bidirectional fiber links, wavelength budget.

Link capacity bounds how many wavelengths the fiber may carry at once and
``unit_cost`` is the price of lighting one wavelength on it.  Networks are
plain values; nothing here mutates after construction.  A network object
does keep what is derived from it in its ``__dict__``: its hash, its link
and adjacency maps, and the placement tables ``rwa`` keeps there
(``_net_tables``, and ``_routes`` per channel).  Equality ignores them,
and a pickle drops the hash and the placement tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NetworkTooLargeError, NoPathError, Violation

# Complete simple-path enumeration is exponential; desk-scale graphs only.
MAX_ROUTE_NODES = 12

# Candidate paths per channel: a complete 8-node network has 1,957 between
# two nodes, a complete 12-node one about 9.9 million.
MAX_ROUTE_PATHS = 2048

# Every placement probe builds a wavelength_count-bit mask per link.
MAX_WAVELENGTH_COUNT = 4096

Path = tuple[str, ...]


def link_key(u: str, v: str) -> tuple[str, str]:
    """Direction-free identity of the link joining ``u`` and ``v``."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Link:
    """Bidirectional fiber link between two named nodes."""

    a: str
    b: str
    capacity: int
    unit_cost: int

    def key(self) -> tuple[str, str]:
        return link_key(self.a, self.b)


@dataclass(frozen=True)
class Network:
    id: str
    nodes: frozenset[str]
    links: tuple[Link, ...]
    wavelength_count: int

    # rwa finds its tables by value once per network object, through
    # lru_caches keyed by the network; hash the fields (as the dataclass
    # would) only once.
    @cached_property
    def _hash(self) -> int:
        return hash((self.id, self.nodes, self.links, self.wavelength_count))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # str hashes differ between processes, so a pickled copy rehashes;
        # rwa's placement tables are kept here too, and rebuilt on first use
        state = dict(self.__dict__)
        for name in ("_hash", "_net_tables", "_routes"):
            state.pop(name, None)
        return state

    @cached_property
    def link_by_key(self) -> dict[tuple[str, str], Link]:
        # first one wins; duplicate links are reported by validate_network
        out: dict[tuple[str, str], Link] = {}
        for link in self.links:
            out.setdefault(link.key(), link)
        return out

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        nbrs: dict[str, set[str]] = {n: set() for n in self.nodes}
        for link in self.links:
            if link.a in nbrs and link.b in nbrs and link.a != link.b:
                nbrs[link.a].add(link.b)
                nbrs[link.b].add(link.a)
        return {n: tuple(sorted(v)) for n, v in nbrs.items()}


def make_network(net_id: str, nodes, links, wavelength_count: int) -> Network:
    """Build a Network with links stored in canonical order."""
    return Network(
        id=net_id,
        nodes=frozenset(nodes),
        links=tuple(sorted(links, key=lambda l: l.key())),
        wavelength_count=wavelength_count,
    )


@dataclass(frozen=True)
class VirtualChannel:
    """A requested end-to-end logical connection."""

    src: str
    dst: str
    label: str

    # Keys the route-table lru_cache beside the network, once per (network, channel) object; hash the fields once, as Network does.
    @cached_property
    def _hash(self) -> int:
        return hash((self.src, self.dst, self.label))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"virtual channel {self.label!r} has identical endpoints")
        if not self.label:
            raise ValueError("virtual channel label must be non-empty")


def validate_network(net: Network) -> list[Violation]:
    """Check every structural invariant; an empty list means the network is valid."""
    violations: list[Violation] = []
    for node in net.nodes:
        if not node:
            violations.append(Violation("empty-node-id", "network contains an empty node label"))
    if not 1 <= net.wavelength_count <= MAX_WAVELENGTH_COUNT:
        violations.append(
            Violation("bad-wavelength-count", f"wavelength_count={net.wavelength_count}, need 1..{MAX_WAVELENGTH_COUNT}")
        )
    seen: set[tuple[str, str]] = set()
    for link in net.links:
        name = f"{link.a}-{link.b}"
        if link.a == link.b:
            violations.append(Violation("self-loop", f"link {name} starts and ends at the same node"))
        for end in (link.a, link.b):
            if end not in net.nodes:
                violations.append(Violation("dangling-endpoint", f"link {name} references unknown node {end!r}"))
        if link.key() in seen:
            violations.append(Violation("duplicate-link", f"more than one link joins {link.key()}"))
        seen.add(link.key())
        if link.capacity < 0:
            violations.append(Violation("negative-capacity", f"link {name} has capacity {link.capacity}"))
        if link.unit_cost < 0:
            violations.append(Violation("negative-cost", f"link {name} has unit_cost {link.unit_cost}"))
    return violations


def path_cost(net: Network, path: Path) -> int:
    """Per-wavelength cost of a route: sum of unit costs along its links."""
    return sum(net.link_by_key[link_key(u, v)].unit_cost for u, v in zip(path, path[1:]))


class Routes(list):
    """Candidate paths, cheapest first; ``costs`` holds each one's ``path_cost``, in the same order."""


def route_candidates(net: Network, vc: VirtualChannel) -> Routes:
    """All simple paths from vc.src to vc.dst, cheapest first.

    Ordering is total and insertion-independent: ascending per-wavelength
    path cost, ties broken lexicographically by the node-label sequence.
    Each path's cost is summed once, for the sort, and kept in ``costs``.
    Raises NoPathError when the endpoints are disconnected, and
    NetworkTooLargeError beyond MAX_ROUTE_NODES nodes or, as soon as the
    walk finds one more, beyond MAX_ROUTE_PATHS paths.
    """
    if len(net.nodes) > MAX_ROUTE_NODES:
        raise NetworkTooLargeError(
            f"{len(net.nodes)} nodes; complete path enumeration is capped at {MAX_ROUTE_NODES}"
        )
    if vc.src not in net.nodes or vc.dst not in net.nodes:
        raise ValueError(f"virtual channel {vc.label!r} references nodes outside network {net.id!r}")

    adjacency = net.adjacency
    # The walk below visits every simple path from src, so look for dst first.
    seen = {vc.src}
    todo = [vc.src]
    while todo and vc.dst not in seen:
        for nxt in adjacency[todo.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    if vc.dst not in seen:
        raise NoPathError(f"{vc.src} and {vc.dst} are disconnected in network {net.id!r}")

    # A node that dst cannot reach without passing src lies on no simple
    # path, so the walk treats it as already on the path and never enters it.
    reach = {vc.src, vc.dst}
    todo = [vc.dst]
    while todo:
        for nxt in adjacency[todo.pop()]:
            if nxt not in reach:
                reach.add(nxt)
                todo.append(nxt)

    found: list[Path] = []
    stack = [vc.src]
    on_path = {vc.src} | (net.nodes - reach)

    def walk(node: str) -> None:
        for nxt in adjacency[node]:
            if nxt == vc.dst:
                found.append(tuple(stack) + (vc.dst,))
                if len(found) > MAX_ROUTE_PATHS:
                    raise NetworkTooLargeError(
                        f"more than {MAX_ROUTE_PATHS} paths join {vc.src} and {vc.dst};"
                        f" route enumeration is capped at {MAX_ROUTE_PATHS}"
                    )
            elif nxt not in on_path:
                stack.append(nxt)
                on_path.add(nxt)
                walk(nxt)
                on_path.remove(nxt)
                stack.pop()

    try:
        walk(vc.src)
    finally:
        del walk  # it refers to itself; unbinding it frees the paths without a GC pass
    # paths are distinct, so the sort never compares beyond them
    costs, paths = zip(*sorted([(path_cost(net, p), p) for p in found]))
    routes = Routes(paths)
    routes.costs = costs
    return routes
