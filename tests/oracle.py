"""Exhaustive single-connection oracle for routing and wavelength assignment.

``brute_force_rwa`` tries every way to place the units of one new
connection on top of a state and keeps the cheapest.  It shares no search,
bound or reduction with placement: only the size guard below keeps it
tractable.  The tests import it; pytest does not collect this file.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from wavebroker import Grant, InfeasibleError, NoPathError, WavebrokerError, route_candidates
from wavebroker.rwa import _fresh_conn_id, _link_masks

# the guard: instances above any of these are refused
BRUTE_MAX_NODES = 6
BRUTE_MAX_WAVELENGTHS = 3
BRUTE_MAX_UNITS = 4


class InstanceTooLargeError(WavebrokerError):
    """Instance exceeds the exhaustive-enumeration guard."""


def brute_force_rwa(net, state, vc, count):
    """The cheapest placement of ``count`` units of one connection on top of ``state``, by enumeration.

    Each unit takes a wavelength above the one before it, so the units sit
    on distinct wavelengths, and any candidate path on which every link has
    that wavelength free and room below its capacity.  Units are tried in
    ascending (wavelength, path rank) order and the incumbent is replaced
    only by a strictly cheaper assignment, so of cost-equal optima the
    first in that order wins.  Returns ``(grant, added)``, consecutive units
    on one path in one run.  Raises ``ValueError`` when ``count`` is below 1,
    ``InstanceTooLargeError`` outside the guard and ``InfeasibleError`` when
    no assignment places every unit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if len(net.nodes) > BRUTE_MAX_NODES or net.wavelength_count > BRUTE_MAX_WAVELENGTHS or count > BRUTE_MAX_UNITS:
        raise InstanceTooLargeError(
            f"guard is <= {BRUTE_MAX_NODES} nodes, W <= {BRUTE_MAX_WAVELENGTHS}, <= {BRUTE_MAX_UNITS} units"
        )
    try:
        routes = route_candidates(net, vc.src, vc.dst)
    except NoPathError as exc:
        raise InfeasibleError(str(exc)) from exc
    # link numbers are indexes into the sorted link keys, as the state's masks are
    caps = [net.link_by_key[key].capacity for key in sorted(net.link_by_key)]
    masks = list(_link_masks(net, state))
    units: list[tuple[int, int]] = []  # (path rank, wavelength index) per placed unit
    best: list[tuple[int, int]] | None = None
    best_cost = 0

    def place(lowest: int, cost: int) -> None:
        nonlocal best, best_cost
        if len(units) == count:
            if best is None or cost < best_cost:
                best, best_cost = units.copy(), cost
            return
        for w in range(lowest, net.wavelength_count):
            bit = 1 << w
            for p, links in enumerate(routes.links):
                if any(masks[i] & bit or masks[i].bit_count() >= caps[i] for i in links):
                    continue
                for i in links:
                    masks[i] |= bit
                units.append((p, w))
                place(w + 1, cost + routes.costs[p])
                units.pop()
                for i in links:
                    masks[i] ^= bit

    place(0, 0)
    if best is None:
        raise InfeasibleError(f"{vc.label}: no assignment places {count} units")
    runs = tuple((routes.hops[p], sum(1 << w for _, w in group)) for p, group in groupby(best, key=itemgetter(0)))
    return Grant(_fresh_conn_id(state, vc.label), vc, runs, count), best_cost
