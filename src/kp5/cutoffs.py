"""Smooth time cutoff and the dyadic bump family built from it.

One bump serves everything: ``psi`` equals 1 on [-1, 1], vanishes outside
(-2, 2), and is assembled from the standard mollifier ``B(s) = exp(-1/s)``
(s > 0) as ``psi(t) = B(2-|t|) / (B(2-|t|) + B(|t|-1))``.  Only the band
1 < |t| < 2 takes that formula; everywhere else (and at NaN) ``psi`` is the
plateau value 1 or 0 by construction, not by rounding.  The dyadic shells
``eta_j`` telescope exactly: ``sum_{j<=J} eta_j(x) == psi(2**-J * x)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["cutoff_psi", "cutoff_psi_T", "dyadic_eta"]


def cutoff_psi(t):
    """Smooth plateau cutoff: exactly 1 on [-1, 1], exactly 0 outside (-2, 2)."""
    t_in = np.asarray(t, dtype=float)
    t_abs = np.atleast_1d(np.abs(t_in))
    out = (t_abs <= 1.0).astype(float)
    band = (t_abs > 1.0) & (t_abs < 2.0)
    s = t_abs[band]
    # on the band 2 - s and s - 1 lie in (0, 1) and sum to 1, so den >= exp(-2)
    num = np.exp(-1.0 / (2.0 - s))
    out[band] = num / (num + np.exp(-1.0 / (s - 1.0)))
    return float(out[0]) if t_in.ndim == 0 else out


def cutoff_psi_T(t, T: float):
    """Rescaled cutoff psi(t / T) for a window size T in (0, 1)."""
    if not 0.0 < T < 1.0:
        raise ValueError(f"cutoff window T must lie in (0, 1), got {T!r}")
    return cutoff_psi(np.asarray(t, dtype=float) / T)


def dyadic_eta(j: int, x):
    """Dyadic shell bump: eta_0 = psi, eta_j(x) = psi(2**-j x) - psi(2**(1-j) x)."""
    # NaN fails the first comparison and +inf the second, before any int()
    if not (0 <= j < math.inf and j % 1 == 0):
        raise ValueError(f"shell index must be a nonnegative integer, got {j!r}")
    if j == 0:
        return cutoff_psi(x)
    # from j = 1026 on, |2**(1-j) x| <= 1/2 for every finite x, so both terms
    # are exactly 1 (and both 0 at +-inf and NaN): eta_j is 0, as at j = 1026
    j = min(int(j), 1026)
    x_arr = np.asarray(x, dtype=float)
    out = cutoff_psi(np.ldexp(x_arr, -j)) - cutoff_psi(np.ldexp(x_arr, 1 - j))
    return float(out) if x_arr.ndim == 0 else out
