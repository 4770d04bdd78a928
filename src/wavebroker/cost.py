"""Total-cost and marginal-cost curves per virtual channel.

The marginal cost at quantity q is what one more wavelength costs given
everything already allocated; it is piecewise constant and never
decreases, because each unit takes the cheapest placement still available
and placements only consume capacity.  The implied total cost is piecewise
linear with TC(0) = 0.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EmptyCurveError, InfeasibleError
from .rwa import Allocation, _hops_cost, incremental_allocate, next_unit_cost
from .topology import Network, VirtualChannel


class CurveSegment(NamedTuple):
    q_from: int
    q_to: int
    mc: int


class CostCurve(NamedTuple):
    """Per-channel supply curve: contiguous constant-MC segments from q=1 up."""

    vc: VirtualChannel
    segments: tuple[CurveSegment, ...]
    q_max: int

    def total_cost(self, q: int) -> int:
        if q < 0 or q > self.q_max:
            raise ValueError(f"q={q} outside curve (q_max={self.q_max})")
        total = 0
        for seg in self.segments:
            if q < seg.q_from:
                break
            total += seg.mc * (min(q, seg.q_to) - seg.q_from + 1)
        return total


def total_cost_curve(net: Network, state: Allocation, vc: VirtualChannel, q_cap: int) -> CostCurve:
    """Probe unit costs up to q_cap by repeated cheapest placement on a scratch copy.

    q_max is the number of units that actually fit (== q_cap when the probe
    was capped before exhaustion).  Raises EmptyCurveError when not even a
    single wavelength fits.
    """
    if q_cap < 1:
        raise ValueError("q_cap must be >= 1")
    grant, _added = incremental_allocate(net, state, vc, q_cap)
    if not grant:
        raise EmptyCurveError(f"{vc.label}: no capacity for even one wavelength")
    # the units of a run share its path, and so its cost
    segments: list[CurveSegment] = []
    q = 0
    for hops, mask in grant.runs:
        mc, q_from, q = _hops_cost(net, hops), q + 1, q + mask.bit_count()
        if segments and segments[-1].mc == mc:
            q_from = segments.pop().q_from
        segments.append(CurveSegment(q_from, q, mc))
    return CostCurve(vc=vc, segments=tuple(segments), q_max=q)


def marginal_cost(net: Network, state: Allocation, vc: VirtualChannel) -> int:
    """Cost of the next single wavelength on this channel given current state.

    At most one kernel call against the state's link masks (``rwa.next_unit_cost``).
    Raises InfeasibleError when no capacity remains.
    """
    mc = next_unit_cost(net, state, vc)
    if mc is None:
        raise InfeasibleError(f"{vc.label}: no capacity for one more wavelength")
    return mc


def curve_csv_rows(curve: CostCurve) -> list[tuple[str, int, int, int]]:
    """Rows for the curve CSV: (vc, q_from, q_to, mc_minor_units)."""
    return [(curve.vc.label, s.q_from, s.q_to, s.mc) for s in curve.segments]
