"""Exception types and the shared validation-violation record."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with a machine-readable code."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class WavebrokerError(Exception):
    """Base class for all errors raised by this package."""


class NoPathError(WavebrokerError):
    """The two endpoints are not connected."""


class NetworkTooLargeError(WavebrokerError):
    """Complete simple-path enumeration was refused for a graph this big."""


class InfeasibleError(WavebrokerError):
    """The requested wavelengths cannot all be accommodated."""


class InstanceTooLargeError(WavebrokerError):
    """Instance exceeds the exhaustive-enumeration guard."""


class ConflictError(WavebrokerError):
    """A delta touches an occupancy cell that is already taken."""


class EmptyCurveError(WavebrokerError):
    """Not even a single wavelength fits, so no cost curve exists."""


class RoundCapExceededError(WavebrokerError):
    """The bidding loop ran past its overflow guard."""


class DegenerateMarketError(WavebrokerError):
    """Equilibrium bounds need at least two competitors."""


class InvalidOutcomeError(WavebrokerError):
    """Settlement was invoked on an auction that produced no winner."""


class UnknownNetworkError(WavebrokerError):
    """The ledger has no entry for this network."""


class OutputError(WavebrokerError):
    """An output file could not be written."""


class ParseError(WavebrokerError):
    """The scenario file is not readable JSON."""


class ConfigError(WavebrokerError):
    """The scenario file is well-formed but violates a config invariant."""

    def __init__(self, problems: list[str] | str):
        if isinstance(problems, str):
            problems = [problems]
        super().__init__("; ".join(problems))
        self.problems = list(problems)
