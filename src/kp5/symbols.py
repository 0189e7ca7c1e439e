"""Fourier multiplier engine and the standard multipliers built on it.

``apply_symbol`` multiplies spectral coefficients pointwise by ``m(xi, mu)``
evaluated on the wavenumber lattice.  Multipliers that are finite on the
xi = 0 line (identity, i*xi, bracket weights) act there as usual; multipliers
singular on that line (1/(i*xi) and everything built from the dispersion
symbol) write zeros there, the one xi = 0 rule that ``zero_mode_project``
also applies.  A field is real, so a multiplier must satisfy
``m(-xi, -mu) == conj(m(xi, mu))`` on the modes the field populates; the
product, like the masks, then acts on the stored half spectrum alone.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SymbolEvaluationError, ZeroMassViolationError
from .field import Field, _mirror
from .grid import SpectralGrid

__all__ = [
    "apply_symbol",
    "zero_mode_project",
    "dealias",
    "x_derivative",
    "x_antiderivative",
    "has_zero_x_mean",
    "require_zero_x_mean",
]

_ZERO_LINE_TOL = 1e-12


def has_zero_x_mean(f) -> bool:
    """True unless the xi = 0 spectral line of ``f`` (a ``Field`` or a
    ``SpaceTimeField``) carries more than 1e-12 of its peak coefficient."""
    return not f.x_mean_content() > _ZERO_LINE_TOL


def require_zero_x_mean(f, what: str = "operation") -> None:
    """Raise ``ZeroMassViolationError`` unless ``has_zero_x_mean(f)``."""
    if not has_zero_x_mean(f):
        raise ZeroMassViolationError(f"{what} requires zero x-mean but the xi=0 line carries content")


def _evaluate_multiplier(grid: SpectralGrid, m: Callable) -> np.ndarray:
    """``m`` on the lattice, as returned (at least 2-D, broadcastable to the grid)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = np.asarray(m(grid.xi_mesh, grid.mu_mesh), dtype=np.complex128)
    try:
        np.broadcast_to(raw, grid.shape)
    except ValueError:
        raise SymbolEvaluationError(
            f"multiplier returned shape {raw.shape}, expected broadcastable to {grid.shape}"
        ) from None
    return np.atleast_2d(raw)


def _symmetric_where_populated(values: np.ndarray, stored: np.ndarray, nx: int) -> bool:
    """True when ``m(-xi, -mu) == conj(m(xi, mu))`` on every stored column
    ``0..nx//2`` that ``stored`` populates; a mirror column's condition is
    the conjugate of its stored column's, so this covers the mirrors too."""
    mirrors = values
    if values.shape[1] > 1:  # the mirror of stored column k is column -k mod nx
        values = values[:, : nx // 2 + 1]
        mirrors = np.concatenate((mirrors[:, :1], mirrors[:, : nx // 2 - 1 : -1]), axis=1)
    asymmetric = (values != _mirror(mirrors, np.empty_like(mirrors))).any(axis=0)
    if not asymmetric.any():
        return True
    # a one-column multiplier takes the same values on every column
    return not stored[:, asymmetric if asymmetric.size > 1 else slice(None)].any()


def apply_symbol(f: Field, m: Callable) -> Field:
    """Multiply spectral coefficients of ``f`` pointwise by ``m(xi, mu)``;
    where ``m`` is singular only on the xi = 0 line it acts as zero there.
    Raises ``SymbolEvaluationError`` when ``m`` breaks conjugation symmetry on
    a column ``f`` populates, as the product would not be a real field."""
    grid = f.grid
    values = _evaluate_multiplier(grid, m)

    if not np.all(np.isfinite(values)):
        values = np.broadcast_to(values, grid.shape)
        bad = ~np.isfinite(values)
        off_line = bad.copy()
        off_line[:, 0] = False
        if np.any(off_line):
            iy, ix = np.argwhere(off_line)[0]
            raise SymbolEvaluationError(
                f"multiplier not finite at lattice point xi={grid.xi[ix]!r}, mu={grid.mu[iy]!r}"
            )
        values = values.copy()
        values[:, 0][bad[:, 0]] = 0.0

    # the derivative multiplier i*xi is asymmetric only at the Nyquist column,
    # which dealiased fields leave empty
    if not _symmetric_where_populated(values, f._stored, grid.nx):
        raise SymbolEvaluationError(
            "multiplier breaks m(-xi, -mu) == conj(m(xi, mu)) on a column the field populates; "
            "the product would not be a real field"
        )
    return Field._from_stored(grid, f._stored * values[:, : f._stored.shape[1]])


def zero_mode_project(f: Field) -> Field:
    """Set every xi = 0 coefficient to exactly zero; idempotent bit for bit."""
    data = f._stored.copy()
    data[:, 0] = 0.0
    return Field._from_stored(f.grid, data)


def dealias(f: Field) -> Field:
    """2/3-rule truncation: zero coefficients with |k| > nx/3 or |l| > ny/3."""
    mask = f.grid.dealias_mask[:, : f._stored.shape[1]]
    return Field._from_stored(f.grid, np.where(mask, f._stored, 0.0 + 0.0j))


# xi-only multipliers are evaluated on one lattice row, which apply_symbol broadcasts
def x_derivative(f: Field) -> Field:
    """Spectral d/dx (multiplier i*xi)."""
    return apply_symbol(f, lambda xi, mu: 1j * xi[:1])


def x_antiderivative(f: Field) -> Field:
    """Spectral inverse of d/dx (multiplier 1/(i*xi)); zero on the xi = 0 line."""
    return apply_symbol(f, lambda xi, mu: 1.0 / (1j * xi[:1]))
