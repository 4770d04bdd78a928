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

``decide_bid`` is one ask: the rule a supplier other than the leader
applies once per round.  The race in ``protocol.run_competition`` writes
the same rule out inline, so that an ask costs no Python-level call;
``decide_bid`` stays as the one-ask rule for callers, and as the binding
through which the benchmark's tracer counts the game layer.  The step
constants ``(l_min, width, bits)`` are ``UndercutPolicy.step``, set once
when the policy is made.  A ``Bid`` and an ``EquilibriumBound`` are named
tuples, built with ``tuple.__new__`` so that making one runs no Python
frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .cost import marginal_cost
from .errors import DegenerateMarketError, InfeasibleError
from .rwa import Allocation, apply_delta
from .topology import Network, VirtualChannel


@dataclass(frozen=True)
class UndercutPolicy:
    """Inclusive bounds, in minor units, for the random undercutting step.

    ``step`` is ``(l_min, width, bits)``, the constants a step is drawn
    from, set once when the policy is made.
    """

    l_min: int
    l_max: int

    def __post_init__(self):
        if not 0 < self.l_min <= self.l_max:
            raise ValueError(f"need 0 < l_min <= l_max, got [{self.l_min}, {self.l_max}]")
        width = self.l_max - self.l_min + 1
        object.__setattr__(self, "step", (self.l_min, width, width.bit_length()))


class Bid(NamedTuple):
    price: int


# ``_new(NamedTupleType, values)`` returns what the type's constructor does,
# without its Python-level frame.
_new = tuple.__new__


def decide_bid(
    current_min: int,
    own_next_unit_mc: int,
    step: tuple[int, int, int],
    getrandbits: Callable[[int], int],
) -> Bid | None:
    """Undercut the standing minimum, or return None to sit out this round.

    The supplier samples a step first and passes if the resulting price
    would dip below its own marginal cost; landing exactly on it is a
    valid bid.  The current leader is never asked: it would pass and draw
    nothing, so the race skips it.

    ``step`` is the policy's ``UndercutPolicy.step`` and ``getrandbits``
    the generator's bound method; the step is drawn inline from them, as
    the module docstring describes.
    """
    l_min, width, bits = step
    r = getrandbits(bits)
    while r >= width:
        r = getrandbits(bits)
    candidate = current_min - l_min - r
    if candidate >= own_next_unit_mc:
        return _new(Bid, (candidate,))
    return None


class EquilibriumBound(NamedTuple):
    """Predicted resting point of a race: runner-up MC plus/minus the step band."""

    reference_mc: int
    e_min: int
    e_max: int

    def interval(self) -> tuple[int, int]:
        return self.reference_mc - self.e_max, self.reference_mc + self.e_max


def equilibrium_bounds(mc_list: list[int], policies: list[UndercutPolicy]) -> EquilibriumBound:
    """Band the final price is expected to land in, from costs and policies alone.

    The band is centred on the runner-up (second-lowest) marginal cost,
    and its half-width is the largest ``l_max`` among the given policies;
    ``e_min``, the smallest ``l_min``, is only reported.  This is the
    band's one definition: ``market.run_scenario`` computes the same
    figures from constants it builds once per run.
    """
    if len(mc_list) < 2 or len(policies) < 2:
        raise DegenerateMarketError("equilibrium bounds need at least two competitors")
    return _new(
        EquilibriumBound, (sorted(mc_list)[1], min([p.l_min for p in policies]), max([p.l_max for p in policies]))
    )


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
        self.state = state if state is not None else Allocation.empty(network)
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
