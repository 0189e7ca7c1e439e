"""Resonance function of the quadratic interaction, its exact identity with
the dispersion symbol, the KP-II lower bound, and the frequency-interaction
classifier.

For frequencies (xi1, mu1) and (xi2, mu2) the resonance value is

    R = omega(xi1+xi2, mu1+mu2) - omega(xi1, mu1) - omega(xi2, mu2)
      = (xi1*xi2/(xi1+xi2)) * ((xi1+xi2)**2 * (5*sign*S - 3*alpha) - D**2)

with S = xi1^2 + xi1*xi2 + xi2^2, D = mu1/xi1 - mu2/xi2, and sign = +1/-1 for
the two KP branches.  The closed form here is the expansion of the implemented
symbol, so the identity holds to rounding for both branches and every alpha.
For the KP-II branch the two bracket terms share one sign, which is what makes
|R| >= c * max(|xi1|,|xi2|,|xi1+xi2|)**4 * min(...) possible (alpha = 0).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionParams, KPSign
from .errors import SingularFrequencyError

__all__ = [
    "resonance",
    "resonance_identity_check",
    "kp2_lower_bound_ratio",
    "InteractionTag",
    "InteractionCase",
    "classify_interaction",
]


def _closed_form(xi1, xi2, mu1, mu2, sign: float, alpha: float):
    s = xi1 + xi2
    product = xi1 * xi2
    big_s = s * s - product  # symmetric form of xi1^2 + xi1*xi2 + xi2^2
    delta = mu1 / xi1 - mu2 / xi2
    return (product / s) * (s * s * (5.0 * sign * big_s - 3.0 * alpha) - delta * delta)


def resonance(xi1, xi2, mu1, mu2, params: DispersionParams):
    """Closed-form resonance value; scalars or same-shaped arrays.

    Defined only where xi1, xi2 and xi1+xi2 are all nonzero: on zero x-mean
    data the quadratic term has no other interactions.  Anywhere else it
    raises ``SingularFrequencyError``.
    """
    xi1_a, xi2_a, mu1_a, mu2_a = (np.asarray(v, dtype=float) for v in (xi1, xi2, mu1, mu2))
    if np.any(xi1_a == 0.0) or np.any(xi2_a == 0.0) or np.any(xi1_a + xi2_a == 0.0):
        raise SingularFrequencyError("resonance undefined where xi1, xi2 or xi1+xi2 vanishes")
    out = _closed_form(xi1_a, xi2_a, mu1_a, mu2_a, params.sign, params.alpha)
    return float(out) if out.ndim == 0 else out


_CHUNK = 8192  # samples per extended-precision block of the identity check


def _omega_extended(x, m, sign: float, alpha: float):
    """dispersion_omega's formula on nonzero np.longdouble x, by products (no powl)."""
    x3 = x * x * x
    return sign * (x3 * x * x) - alpha * x3 + m * m / x


def resonance_identity_check(xi1, xi2, mu1, mu2, params: DispersionParams):
    """Relative defect between the closed form and the symbol identity:
    |R_closed - (omega(sum) - omega_1 - omega_2)| / max(1, |R_closed|).

    The identity side cancels, so it and its difference from R_closed are taken
    in np.longdouble (float64 where longdouble is), _CHUNK samples at a time."""
    closed = resonance(xi1, xi2, mu1, mu2, params)
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (xi1, xi2, mu1, mu2, closed)))
    x1, x2, m1, m2, r = (np.ravel(v) for v in args)
    defect = np.empty(r.shape)
    for lo in range(0, r.size, _CHUNK):
        a1, a2, b1, b2 = (v[lo : lo + _CHUNK].astype(np.longdouble) for v in (x1, x2, m1, m2))
        c = r[lo : lo + _CHUNK]
        ref = (
            _omega_extended(a1 + a2, b1 + b2, params.sign, params.alpha)
            - _omega_extended(a1, b1, params.sign, params.alpha)
            - _omega_extended(a2, b2, params.sign, params.alpha)
        )
        defect[lo : lo + _CHUNK] = np.abs((c - ref).astype(float)) / np.maximum(1.0, np.abs(c))
    return float(defect[0]) if args[4].ndim == 0 else defect.reshape(args[4].shape)


def kp2_lower_bound_ratio(xi1, xi2, mu1, mu2):
    """|R| / (max(|xi1|,|xi2|,|xi1+xi2|)**4 * min(...)) for the KP-II branch at
    alpha = 0, the only alpha where the provable constant 15/8 applies."""
    params = DispersionParams(kp_sign=KPSign.KP2, alpha=0.0)
    r = resonance(xi1, xi2, mu1, mu2, params)
    a1 = np.abs(np.asarray(xi1, dtype=float))
    a2 = np.abs(np.asarray(xi2, dtype=float))
    a3 = np.abs(np.asarray(xi1, dtype=float) + np.asarray(xi2, dtype=float))
    biggest = np.maximum(a1, np.maximum(a2, a3))
    smallest = np.minimum(a1, np.minimum(a2, a3))
    ratio = np.abs(r) / (biggest**4 * smallest)
    return float(ratio) if np.ndim(ratio) == 0 else ratio


class InteractionTag(enum.Enum):
    LOW_LL = "low_ll"
    LOW_HH = "low_hh"
    HIGH_HL = "high_hl"
    HIGH_HH = "high_hh"
    OTHER = "other"


@dataclass(frozen=True)
class InteractionCase:
    tag: InteractionTag
    threshold: float


def classify_interaction(xi1: float, xi2: float, alpha: float) -> InteractionCase:
    """Sort a frequency pair into the interaction case tree.

    With M0 = max(10, |alpha|): output frequency |xi1+xi2| <= M0 is the low
    band, split into high+high (both inputs >= M0) and low+low (both inputs
    <= 1.5*M0); above M0 the output is high, split into high+low
    (min <= M0 <= max) and high+high (min > M0).  Pairs covered by no case
    are tagged OTHER rather than forced into a partition.
    """
    m0 = max(10.0, abs(alpha))
    total = abs(xi1 + xi2)
    lo = min(abs(xi1), abs(xi2))
    hi = max(abs(xi1), abs(xi2))
    if total <= m0:
        if lo >= m0:
            tag = InteractionTag.LOW_HH
        elif hi <= 1.5 * m0:
            tag = InteractionTag.LOW_LL
        else:
            tag = InteractionTag.OTHER
    else:
        if lo > m0:
            tag = InteractionTag.HIGH_HH
        elif lo <= m0 <= hi:
            tag = InteractionTag.HIGH_HL
        else:
            tag = InteractionTag.OTHER
    return InteractionCase(tag=tag, threshold=m0)
