"""Norm functionals on single-time fields: anisotropic Sobolev weights,
the tilde (energy-type) norm, the Hamiltonian, mass and momentum integrals.

Lattice norms (`sobolev_aniso_norm`, `tilde_norm`) are plain weighted l2 sums
of spectral coefficients, summed like ``Field.l2_norm`` on the stored half.  The integral
quantities (`mass`, `energy_functional`, `momentum`) carry the cell area
``lx*ly/(nx*ny)`` so they approximate box integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormSpecError
from .field import Field, _column_sums, _mirrored_total
from .grid import SpectralGrid
from .symbols import require_zero_x_mean

__all__ = [
    "bracket",
    "NormSpec",
    "sobolev_aniso_norm",
    "tilde_norm",
    "energy_functional",
    "mass",
    "momentum",
]


def bracket(x):
    """Japanese bracket (1 + x**2)**(1/2)."""
    x_arr = np.asarray(x, dtype=float)
    out = np.sqrt(1.0 + x_arr * x_arr)
    return float(out) if x_arr.ndim == 0 else out


@dataclass(frozen=True)
class NormSpec:
    """Sobolev indices (s1, s2) plus the modulation exponent b used by
    space-time norms only."""

    s1: float = 0.0
    s2: float = 0.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.s1 < 0 or self.s2 < 0:
            raise NormSpecError(f"Sobolev indices must be nonnegative, got ({self.s1}, {self.s2})")
        if not (np.isfinite(self.s1) and np.isfinite(self.s2) and np.isfinite(self.b)):
            raise NormSpecError("norm indices must be finite")

    @property
    def label(self) -> str:
        return f"h_{self.s1:g}_{self.s2:g}"


def _sobolev_weights(grid: SpectralGrid, s1: float, s2: float) -> tuple[np.ndarray, np.ndarray]:
    """Factors of the weight <xi>**s1 <mu>**s2: a (1, nx) row and a (ny, 1)
    column whose product is the (ny, nx) lattice weight.  The powers are
    taken per axis, so they cost nx + ny evaluations, not nx*ny."""
    return bracket(grid.xi)[None, :] ** s1, bracket(grid.mu)[:, None] ** s2


def sobolev_aniso_norm(f: Field, spec: NormSpec) -> float:
    """l2 norm of <xi>**s1 <mu>**s2 weighted coefficients."""
    row, col = _sobolev_weights(f.grid, spec.s1, spec.s2)
    weighted = row[:, : f._stored.shape[1]] * col * f._stored
    return float(np.sqrt(_mirrored_total(_column_sums(weighted))))


def tilde_norm(f: Field, s: float, k: float) -> float:
    """l2 norm with weight 1 + |xi|**s + |xi|**-1 |mu|**k over nonzero-xi modes.

    Requires zero x-mean; the xi = 0 line would make the weight meaningless.
    """
    require_zero_x_mean(f, what="tilde norm")
    xi = np.abs(f.grid.xi[1 : f.grid.nx // 2 + 1])
    w = np.zeros((f.grid.ny, xi.size + 1))
    w[:, 1:] = 1.0 + xi**s + np.abs(f.grid.mu)[:, None] ** k / xi
    return float(np.sqrt(_mirrored_total(_column_sums(w * f._stored))))


def mass(f: Field) -> float:
    """Box integral of u**2 (conserved by the flow)."""
    return f.grid.cell_area * _mirrored_total(_column_sums(f._stored))


def momentum(f: Field) -> float:
    """Box integral of u; exactly zero for zero-x-mean data."""
    coeff = f._stored[0, 0]
    return float(np.real(coeff)) * np.sqrt(f.grid.nx * f.grid.ny) * f.grid.cell_area


def energy_functional(f: Field, alpha: float) -> float:
    """Hamiltonian of the first-branch flow:

    1/2 int (d2u/dx2)**2 - alpha/2 int (du/dx)**2
    + 1/2 int (dx^-1 du/dy)**2 + 1/6 int u**3.

    These signs make d/dx of the variational derivative reproduce
    du/dt = -(alpha u_xxx + u_xxxxx + dx^-1 u_yy + u u_x) exactly, so the
    value is constant along solutions (the conservation tests pin this; with
    the alpha and cubic signs flipped the functional visibly drifts).  The
    quadratic pieces are spectral sums, the cubic one is physical-space
    quadrature.  Requires zero x-mean (for the antiderivative weight).
    """
    require_zero_x_mean(f, what="energy functional")
    grid = f.grid
    xi = grid.xi[None, : f._stored.shape[1]]
    xi_safe = np.where(xi == 0.0, 1.0, xi)
    weights = 0.5 * xi**4 - 0.5 * alpha * xi**2 + 0.5 * (grid.mu[:, None] / xi_safe) ** 2
    weights[:, 0] = 0.0  # xi = 0 line carries no content by precondition
    quadratic = grid.cell_area * _mirrored_total(_column_sums(f._stored, weights))
    u = np.real(f.to_physical())
    # u * u * u, not u**3: numpy sends exponent 3 through libm pow
    cubic = grid.cell_area * float(np.sum(u * u * u)) / 6.0
    return quadratic + cubic
