"""The equilibrium band, defined on its own, as the reference for the band a run records.

``market.run_scenario`` computes the band inline from constants it builds
once per run; ``tests/test_market.py`` compares every auction record with
``equilibrium_bounds`` over the suppliers priced at auction start.  The
tests import it; pytest does not collect this file.
"""

from __future__ import annotations

from typing import NamedTuple

from wavebroker import WavebrokerError


class DegenerateMarketError(WavebrokerError):
    """Equilibrium bounds need at least two competitors."""


class EquilibriumBound(NamedTuple):
    """Predicted resting point of a race: runner-up MC plus/minus the step band."""

    reference_mc: int
    e_min: int
    e_max: int

    def interval(self) -> tuple[int, int]:
        return self.reference_mc - self.e_max, self.reference_mc + self.e_max


def equilibrium_bounds(mc_list, policies) -> EquilibriumBound:
    """Band the final price is expected to land in, from costs and policies alone.

    The band is centred on the runner-up (second-lowest) marginal cost,
    and its half-width is the largest ``l_max`` among the given policies;
    ``e_min``, the smallest ``l_min``, is only reported.
    """
    if len(mc_list) < 2 or len(policies) < 2:
        raise DegenerateMarketError("equilibrium bounds need at least two competitors")
    return EquilibriumBound(sorted(mc_list)[1], min(p.l_min for p in policies), max(p.l_max for p in policies))
