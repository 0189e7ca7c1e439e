"""Fourier multiplier engine and the standard multipliers built on it.

``apply_symbol`` multiplies spectral coefficients pointwise by ``m(xi, mu)``
evaluated on the wavenumber lattice.  Multipliers that are finite on the
xi = 0 line (identity, i*xi, bracket weights) act there as usual; multipliers
singular on that line (1/(i*xi) and everything built from the dispersion
symbol) are resolved by the zero-mode policy: project-out writes zeros,
the error policy rejects fields that still carry xi = 0 content.  The
reality flag survives exactly when ``m(-xi, -mu) == conj(m(xi, mu))``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .dispersion import DispersionParams, ZeroModePolicy
from .errors import SingularSymbolError, SymbolEvaluationError, ZeroMassViolationError
from .field import Field, is_hermitian
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


def require_zero_x_mean(f, what: str = "operation", error_cls=ZeroMassViolationError) -> None:
    """Raise ``error_cls`` unless ``has_zero_x_mean(f)``."""
    if not has_zero_x_mean(f):
        raise error_cls(f"{what} requires zero x-mean but the xi=0 line carries content")


def _evaluate_multiplier(grid: SpectralGrid, m: Callable) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = np.asarray(m(grid.xi_mesh, grid.mu_mesh), dtype=np.complex128)
    try:
        values = np.array(np.broadcast_to(raw, grid.shape), copy=True)
    except ValueError:
        raise SymbolEvaluationError(
            f"multiplier returned shape {raw.shape}, expected broadcastable to {grid.shape}"
        ) from None
    return values


def apply_symbol(f: Field, m: Callable, params: DispersionParams | None = None) -> Field:
    """Multiply spectral coefficients of ``f`` pointwise by ``m(xi, mu)``."""
    grid = f.grid
    policy = params.zero_mode if params is not None else ZeroModePolicy.PROJECT_OUT
    values = _evaluate_multiplier(grid, m)

    bad = ~np.isfinite(values)
    if np.any(bad):
        off_line = bad.copy()
        off_line[:, 0] = False
        if np.any(off_line):
            iy, ix = np.argwhere(off_line)[0]
            raise SymbolEvaluationError(
                f"multiplier not finite at lattice point xi={grid.xi[ix]!r}, mu={grid.mu[iy]!r}"
            )
        # singular only on the xi = 0 line: resolve by zero-mode policy
        if policy is ZeroModePolicy.ERROR:
            require_zero_x_mean(f, "singular multiplier under the error policy", SingularSymbolError)
        values[:, 0][bad[:, 0]] = 0.0

    out = f.data * values
    # reality survives iff the multiplier is conjugation-symmetric on every
    # mode the field populates, so test the product rather than the symbol
    # (the derivative multiplier i*xi is asymmetric only at the empty Nyquist
    # column of dealiased fields)
    reality = f.reality and is_hermitian(out)
    return Field(grid, out, reality)


def zero_mode_project(f: Field) -> Field:
    """Set every xi = 0 coefficient to exactly zero; idempotent bit for bit."""
    data = f.data.copy()
    data[:, 0] = 0.0
    return Field(f.grid, data, f.reality)


def dealias(f: Field) -> Field:
    """2/3-rule truncation: zero coefficients with |k| > nx/3 or |l| > ny/3."""
    return Field(f.grid, np.where(f.grid.dealias_mask, f.data, 0.0 + 0.0j), f.reality)


def x_derivative(f: Field, params: DispersionParams | None = None) -> Field:
    """Spectral d/dx (multiplier i*xi)."""
    return apply_symbol(f, lambda xi, mu: 1j * xi, params)


def x_antiderivative(f: Field, params: DispersionParams | None = None) -> Field:
    """Spectral inverse of d/dx (multiplier 1/(i*xi)); xi = 0 resolved by policy."""
    return apply_symbol(f, lambda xi, mu: 1.0 / (1j * xi), params)
