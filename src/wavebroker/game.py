"""Stochastic price-undercutting strategy and equilibrium-band prediction.

A supplier undercuts the standing minimum by a step drawn uniformly from
its policy interval, as long as the resulting price does not fall below
its own next-unit marginal cost.  The undercutting race therefore rests
near the runner-up marginal cost, within a band set by the step extremes.

The step is ``random.Random.randint(l_min, l_max)`` written out on
``getrandbits``: with ``width = l_max - l_min + 1``, draw
``width.bit_length()`` bits until they fall below ``width``.  That is
CPython 3.11's ``_randbelow`` loop, so the step has the same value and
leaves the generator in the same state, without the three Python-level
frames (``randint``, ``randrange``, ``_randbelow``) it goes through.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .cost import marginal_cost
from .errors import DegenerateMarketError, InfeasibleError
from .rwa import Allocation, apply_delta
from .topology import Network, VirtualChannel


@dataclass(frozen=True)
class UndercutPolicy:
    """Inclusive bounds, in minor units, for the random undercutting step."""

    l_min: int
    l_max: int

    def __post_init__(self):
        if not 0 < self.l_min <= self.l_max:
            raise ValueError(f"need 0 < l_min <= l_max, got [{self.l_min}, {self.l_max}]")


@dataclass(frozen=True, slots=True)
class Bid:
    price: int


def decide_bid(
    current_min: int,
    own_next_unit_mc: int,
    policy: UndercutPolicy,
    rng: random.Random,
) -> Bid | None:
    """Undercut the standing minimum, or return None to sit out this round.

    The supplier samples a step first and passes if the resulting price
    would dip below its own marginal cost; landing exactly on it is a
    valid bid.  The current leader is never asked: it would pass and draw
    nothing, so the race skips it.

    The step is drawn inline, as the module docstring describes, because
    the race makes this call once per supplier and round.
    """
    l_min = policy.l_min
    width = policy.l_max - l_min + 1
    bits = width.bit_length()
    r = rng.getrandbits(bits)
    while r >= width:
        r = rng.getrandbits(bits)
    candidate = current_min - l_min - r
    if candidate >= own_next_unit_mc:
        return Bid(candidate)
    return None


@dataclass(frozen=True)
class EquilibriumBound:
    """Predicted resting point of a race: runner-up MC plus/minus the step band."""

    reference_mc: int
    e_min: int
    e_max: int

    def interval(self) -> tuple[int, int]:
        return self.reference_mc - self.e_max, self.reference_mc + self.e_max


def equilibrium_bounds(mc_list: list[int], policies: list[UndercutPolicy]) -> EquilibriumBound:
    """Band the final price is expected to land in, from costs and policies alone."""
    if len(mc_list) < 2 or len(policies) < 2:
        raise DegenerateMarketError("equilibrium bounds need at least two competitors")
    reference = sorted(mc_list)[1]
    return EquilibriumBound(
        reference_mc=reference,
        e_min=min(p.l_min for p in policies),
        e_max=max(p.l_max for p in policies),
    )


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


class SupplierAgent:
    """A bidding network: one topology, its live allocation, and a pricing policy."""

    def __init__(
        self,
        agent_id: str,
        network: Network,
        state: Allocation | None = None,
        policy: UndercutPolicy = UndercutPolicy(1, 1),
        markup: float = 2.0,
    ):
        if markup < 1:
            raise ValueError("markup below 1 would open below marginal cost")
        self.id = agent_id
        self.network = network
        self.state = state if state is not None else Allocation.empty()
        self.policy = policy
        self.markup = markup

    def next_unit_mc(self, vc: VirtualChannel) -> int | None:
        """Marginal cost of one more wavelength, or None when out of capacity."""
        try:
            return marginal_cost(self.network, self.state, vc)
        except InfeasibleError:
            return None

    def commit(self, delta) -> None:
        self.state = apply_delta(self.network, self.state, delta)

    def __repr__(self):
        return f"SupplierAgent({self.id!r})"
