"""Exception types shared across the package."""

from __future__ import annotations


class KP5Error(Exception):
    """Base class for all package-specific errors."""


class GridError(KP5Error, ValueError):
    """Invalid grid geometry (odd or tiny dimensions, nonpositive lengths)."""


class SingularSymbolError(KP5Error, ValueError):
    """A symbol was evaluated on the singular line xi = 0, at any mu."""


class SymbolEvaluationError(KP5Error, ValueError):
    """A multiplier returned a non-finite value; the message names the lattice point."""


class ZeroMassViolationError(KP5Error, ValueError):
    """An operation requiring zero x-mean received a field with xi = 0 content."""


class NormSpecError(KP5Error, ValueError):
    """Invalid norm indices (negative s1 or s2)."""


class SingularFrequencyError(KP5Error, ValueError):
    """Resonance evaluated where xi1, xi2 or xi1+xi2 vanishes, where it is undefined."""


class UndefinedRatioError(KP5Error, ZeroDivisionError):
    """A ratio check was asked to divide by a vanishing reference norm."""


class DivergentIntegralError(KP5Error, ValueError):
    """A quadrature target diverges for the requested parameters (gamma <= 1)."""


class BlowUpError(KP5Error, RuntimeError):
    """The evolution produced non-finite samples.

    Attributes
    ----------
    time_reached : float or None
        Last time with finite data, when known.
    partial : object or None
        Trajectory up to the blow-up, with diagnostics flushed.
    """

    def __init__(self, message: str, time_reached: float | None = None, partial=None):
        super().__init__(message)
        self.time_reached = time_reached
        self.partial = partial


class ContractionFailureError(KP5Error, RuntimeError):
    """Successive fixed-point iterates stopped contracting.

    Carries the measured iterate distances so callers can report them.
    """

    def __init__(self, message: str, distances=None):
        super().__init__(message)
        self.distances = list(distances) if distances is not None else []


class ConfigError(KP5Error, ValueError):
    """Malformed run configuration (bad JSON, unknown keys, bad values)."""


class FormatError(KP5Error, ValueError):
    """Malformed binary field dump."""
