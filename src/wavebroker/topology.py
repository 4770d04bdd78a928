"""Immutable network model: nodes, bidirectional fiber links, wavelength budget.

Link capacity bounds how many wavelengths the fiber may carry at once and
``unit_cost`` is the price of lighting one wavelength on it.  Networks are
plain values; nothing here mutates after construction.  A network object
does keep what is derived from it in its ``__dict__``: its hash, its link
map, its arc table (``arcs``, which route enumeration walks and whose hop
tuples every route table shares), and the placement tables ``rwa`` keeps
there (``_net_tables``, and ``_routes`` per ordered endpoint pair).
Equality ignores them, and a network pickles as its fields alone.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import NetworkTooLargeError, NoPathError, Record, Violation

# Complete simple-path enumeration is exponential; desk-scale graphs only.
MAX_ROUTE_NODES = 12

# Candidate paths per endpoint pair: a complete 8-node network has 1,957 between
# two nodes, a complete 12-node one about 9.9 million.
MAX_ROUTE_PATHS = 2048

# Every placement probe builds a wavelength_count-bit mask per link.
MAX_WAVELENGTH_COUNT = 4096

Path = tuple[str, ...]


def link_key(u: str, v: str) -> tuple[str, str]:
    """Direction-free identity of the link joining ``u`` and ``v``."""
    return (u, v) if u <= v else (v, u)


class Link(NamedTuple):
    """Bidirectional fiber link between two named nodes."""

    a: str
    b: str
    capacity: int
    unit_cost: int

    def key(self) -> tuple[str, str]:
        return link_key(self.a, self.b)


class Network(Record):
    __slots__ = ("id", "nodes", "links", "wavelength_count", "__dict__")
    _fields = __slots__[:4]

    # rwa finds its tables by value once per network object, through
    # lru_caches keyed by the network; hash the fields only once.
    _hash = cached_property(Record.__hash__)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def link_by_key(self) -> dict[tuple[str, str], Link]:
        # first one wins; duplicate links are reported by validate_network
        out: dict[tuple[str, str], Link] = {}
        for link in self.links:
            out.setdefault(link.key(), link)
        return out

    @cached_property
    def arcs(self) -> dict[str, tuple[tuple[str, tuple[str, str], int, int], ...]]:
        # per node, one (neighbour, hop, unit cost, link number) per neighbour;
        # link numbers count the sorted link keys, which also puts each
        # node's neighbours in label order, and a hop from the lower label
        # is the link's key itself
        out: dict[str, list] = {n: [] for n in self.nodes}
        for i, key in enumerate(sorted(self.link_by_key)):
            a, b = key
            if a in out and b in out and a != b:
                cost = self.link_by_key[key].unit_cost
                out[a].append((b, key, cost, i))
                out[b].append((a, (b, a), cost, i))
        return {n: tuple(v) for n, v in out.items()}


def make_network(net_id: str, nodes, links, wavelength_count: int) -> Network:
    """Build a Network with links stored in canonical order."""
    return Network(
        net_id,
        frozenset(nodes),
        tuple(sorted(links, key=lambda l: l.key())),
        wavelength_count,
    )


class VirtualChannel(Record):
    """A requested end-to-end logical connection."""

    __slots__ = _fields = ("src", "dst", "label")

    def __init__(self, src: str, dst: str, label: str):
        if src == dst:
            raise ValueError(f"virtual channel {label!r} has identical endpoints")
        if not label:
            raise ValueError("virtual channel label must be non-empty")
        super().__init__(src, dst, label)


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
    """Candidate paths, cheapest first, and per path, in the same order: its
    ``path_cost`` in ``costs``, its hop tuples in ``hops`` and the numbers of
    its links (their places in the sorted link keys) in ``links``."""


def route_candidates(net: Network, src: str, dst: str) -> Routes:
    """All simple paths from ``src`` to ``dst``, cheapest first.

    Ordering is total and insertion-independent: ascending per-wavelength
    path cost, ties broken lexicographically by the node-label sequence.
    One walk over ``net.arcs`` finds the paths: each prefix carries its
    cost, hops and link numbers, so a path's cost is summed as it is found
    and the paths are sorted once.  Raises NoPathError when the endpoints
    are disconnected, and NetworkTooLargeError beyond MAX_ROUTE_NODES nodes
    or, as soon as the walk finds one more, beyond MAX_ROUTE_PATHS paths.
    """
    if len(net.nodes) > MAX_ROUTE_NODES:
        raise NetworkTooLargeError(
            f"{len(net.nodes)} nodes; complete path enumeration is capped at {MAX_ROUTE_NODES}"
        )
    if src not in net.nodes or dst not in net.nodes:
        raise ValueError(f"{src!r} or {dst!r} is not a node of network {net.id!r}")

    arcs = net.arcs
    # A node that dst cannot reach without passing src lies on no simple
    # path, so the walk treats it as already on the path and never enters it.
    # When src and dst are disconnected, that is every neighbour of src.
    reach = {src, dst}
    todo = [dst]
    while todo:
        for nxt, _, _, _ in arcs[todo.pop()]:
            if nxt not in reach:
                reach.add(nxt)
                todo.append(nxt)

    found: list[tuple] = []
    on_path = {src} | (net.nodes - reach)

    def walk(node: str, path: Path, cost: int, hops: tuple, links: tuple) -> None:
        for nxt, hop, unit_cost, link in arcs[node]:
            if nxt == dst:
                found.append((cost + unit_cost, path + (dst,), hops + (hop,), links + (link,)))
                if len(found) > MAX_ROUTE_PATHS:
                    raise NetworkTooLargeError(
                        f"more than {MAX_ROUTE_PATHS} paths join {src} and {dst};"
                        f" route enumeration is capped at {MAX_ROUTE_PATHS}"
                    )
            elif nxt not in on_path:
                on_path.add(nxt)
                walk(nxt, path + (nxt,), cost + unit_cost, hops + (hop,), links + (link,))
                on_path.remove(nxt)

    try:
        walk(src, (src,), 0, (), ())
    finally:
        del walk  # it refers to itself; unbinding it frees the paths without a GC pass
    if not found:
        raise NoPathError(f"{src} and {dst} are disconnected in network {net.id!r}")
    # paths are distinct, so the sort never compares beyond them
    found.sort()
    costs, paths, hop_lists, link_lists = zip(*found)
    routes = Routes(paths)
    routes.costs, routes.hops, routes.links = costs, hop_lists, link_lists
    return routes
