"""Dispersion symbol of the fifth-order KP family and its gradient.

The symbol is ``omega(xi, mu) = sign*xi**5 - alpha*xi**3 + mu**2/xi`` with
``sign = +1`` for the KP-I branch and ``-1`` for KP-II.  It is singular on
``xi = 0``: kp5 works with zero x-mean data, so that line is projected away
(``symbols.zero_mode_project``) and the symbol is held at 0 there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularSymbolError
from .grid import SpectralGrid, _take

__all__ = [
    "KPSign",
    "DispersionParams",
    "dispersion_omega",
    "gradient_omega",
    "omega_on_grid",
]


class KPSign(enum.Enum):
    KP1 = "kp1"
    KP2 = "kp2"


@dataclass(frozen=True)
class DispersionParams:
    """KP branch selector and third-derivative coefficient."""

    kp_sign: KPSign = KPSign.KP1
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.kp_sign, KPSign):
            raise ValueError(f"kp_sign must be a KPSign, got {self.kp_sign!r}")
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")

    @property
    def sign(self) -> float:
        return 1.0 if self.kp_sign is KPSign.KP1 else -1.0


def dispersion_omega(xi, mu, params: DispersionParams):
    """Evaluate ``sign*xi**5 - alpha*xi**3 + mu**2/xi``.

    Scalars and same-shaped arrays are both accepted.  The scalar point
    ``(0, 0)`` returns 0, the value on the projected-away line; any other
    xi = 0 evaluation raises ``SingularSymbolError``.
    """
    xi_a = np.asarray(xi, dtype=float)
    mu_a = np.asarray(mu, dtype=float)
    scalar = xi_a.ndim == 0 and mu_a.ndim == 0
    if np.any(xi_a == 0.0):
        if scalar and mu_a == 0.0:
            return 0.0
        raise SingularSymbolError("dispersion symbol is singular at xi=0; use omega_on_grid for lattices")
    # scalars take the array expression too: Python's float ** rounds differently from numpy's
    omega = params.sign * xi_a**5 - params.alpha * xi_a**3 + mu_a * mu_a / xi_a
    return float(omega) if scalar else omega


def gradient_omega(xi, mu, params: DispersionParams):
    """Analytic gradient ``(d omega/d xi, d omega/d mu)`` of the implemented symbol.

    Returns ``(sign*5*xi**4 - 3*alpha*xi**2 - mu**2/xi**2, 2*mu/xi)``.
    """
    xi_a = np.asarray(xi, dtype=float)
    mu_a = np.asarray(mu, dtype=float)
    if np.any(xi_a == 0.0):
        raise SingularSymbolError("dispersion gradient is singular at xi=0")
    d_xi = params.sign * 5.0 * xi_a**4 - 3.0 * params.alpha * xi_a**2 - (mu_a / xi_a) ** 2
    d_mu = 2.0 * mu_a / xi_a
    if xi_a.ndim == 0 and mu_a.ndim == 0:
        return (float(d_xi), float(d_mu))
    return (d_xi, d_mu)


@lru_cache(maxsize=64)
def _omega_lattice(grid: SpectralGrid, params: DispersionParams) -> np.ndarray:
    xi = grid.xi_mesh.copy()
    xi[:, 0] = 1.0  # placeholder; the line is overwritten below
    omega = dispersion_omega(xi, grid.mu_mesh, params)
    omega[:, 0] = 0.0
    omega[:, grid.nx // 2] = 0.0
    return _take(omega)


def omega_on_grid(grid: SpectralGrid, params: DispersionParams) -> np.ndarray:
    """Symbol values on the (ny, nx) lattice with the xi = 0 line set to zero.

    Callers zero the coefficients on that line (``zero_mode_project``) before
    applying the symbol.
    The xi Nyquist column is also held at zero: that column is its own mirror
    under (xi, mu) -> (-xi, -mu), so any nonzero symbol there would break the
    conjugation symmetry the flow needs to keep real data real; the column is
    outside the dealiased band of every solver path anyway.  The returned
    array is cached and write-locked.
    """
    return _omega_lattice(grid, params)
