"""Stochastic price-undercutting strategy.

A supplier undercuts the standing minimum by a step drawn uniformly from
its policy interval, as long as the resulting price does not fall below
its own next-unit marginal cost.  The undercutting race therefore rests
near the runner-up marginal cost, within a band set by the step extremes;
``market.run_scenario`` records that band with every auction.

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
constants ``(l_min, width, bits)`` are ``UndercutPolicy.step``, which a
run reads once per supplier.  A ``Bid`` is a named tuple, built with
``tuple.__new__`` so that making one runs no Python frame.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .cost import marginal_cost
from .errors import InfeasibleError, Record
from .rwa import Allocation, apply_delta
from .topology import Network, VirtualChannel


class UndercutPolicy(Record):
    """Inclusive bounds, in minor units, for the random undercutting step.

    ``step`` is ``(l_min, width, bits)``, the constants a step is drawn from.
    """

    __slots__ = _fields = ("l_min", "l_max")

    def __init__(self, l_min: int, l_max: int):
        if not 0 < l_min <= l_max:
            raise ValueError(f"need 0 < l_min <= l_max, got [{l_min}, {l_max}]")
        super().__init__(l_min, l_max)

    @property
    def step(self) -> tuple[int, int, int]:
        width = self.l_max - self.l_min + 1
        return self.l_min, width, width.bit_length()


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
