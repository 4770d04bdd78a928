"""Exception types, the shared validation-violation record, and ``Record``, the other records' base."""

from __future__ import annotations

from typing import NamedTuple

_set = object.__setattr__  # how an __init__ writes a record's read-only fields


class Record:
    """A slotted record whose methods come from ``_fields``, its slots named in order.

    ``__init__`` takes the fields by position or name and sets each once; a subclass that checks its
    fields calls it too.  A write afterwards raises AttributeError.  Records are equal when of one type
    with equal fields, so never equal to a tuple or another type's record; the hash is the fields'
    tuple's.  Pickled as that tuple, unchecked.
    """

    __slots__ = ()

    def __init__(self, *values, **named):
        if named:
            values += tuple([named.pop(name) for name in self._fields[len(values) :] if name in named])
        if named or len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__}() takes its fields {', '.join(self._fields)}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    __getstate__ = _values

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def __setstate__(self, state: tuple) -> None:
        Record.__init__(self, *state)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"a {type(self).__name__} is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Violation(NamedTuple):
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


class ConflictError(WavebrokerError):
    """A delta touches an occupancy cell that is already taken."""


class EmptyCurveError(WavebrokerError):
    """Not even a single wavelength fits, so no cost curve exists."""


class RoundCapExceededError(WavebrokerError):
    """The bidding loop ran past its overflow guard."""


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
