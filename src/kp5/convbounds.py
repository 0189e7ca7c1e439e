"""Numerical checks of the two convolution-type integral bounds

    int dt / (<t>^g <t-a>^g)      <~  <a>^-g        (g > 1)
    int dt / (<t>^g |t-a|^(1/2))  <~  <a>^-(1/2)    (g > 1)

by adaptive quadrature; the square-root singularity is removed with the
substitution t = a -+ s^2 on the two unit intervals around t = a.
``scipy.integrate`` loads on the first quadrature, not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegralError

__all__ = ["ConvolutionBoundResult", "convolution_bound_check"]

_EPSABS = 1e-12
_EPSREL = 1e-11


@dataclass(frozen=True)
class ConvolutionBoundResult:
    """Adaptive-quadrature values and ratios against the claimed bounds."""

    lhs_bracket: float      # int dt / (<t>^g <t-a>^g)
    ratio_bracket: float    # lhs_bracket / <a>^-g
    lhs_sqrt: float         # int dt / (<t>^g |t-a|^(1/2))
    ratio_sqrt: float       # lhs_sqrt / <a>^-(1/2)


def quad(f, lo, hi) -> float:
    """Adaptive quadrature of f over [lo, hi]; the first call loads scipy.integrate."""
    from scipy.integrate import quad as adaptive

    value, _err = adaptive(f, lo, hi, epsabs=_EPSABS, epsrel=_EPSREL, limit=200)
    return value


def _bracket_integral(gamma: float, a: float) -> float:
    e = -0.5 * gamma  # <x>^-g is (1.0 + x*x) ** e, written out: quad calls f per node
    f = lambda t: (1.0 + t * t) ** e * (1.0 + (t - a) * (t - a)) ** e
    lo, hi = sorted((0.0, a))
    total = quad(f, -np.inf, lo)
    if hi > lo:
        total += quad(f, lo, hi)
    total += quad(f, hi, np.inf)
    return total


def _sqrt_integral(gamma: float, a: float) -> float:
    e = -0.5 * gamma
    f = lambda t: (1.0 + t * t) ** e / math.sqrt(abs(t - a))
    # substituted halves: t = a - s^2 and t = a + s^2 turn 1/sqrt into 2 ds
    left = quad(lambda s: 2.0 * (1.0 + (a - s * s) * (a - s * s)) ** e, 0.0, 1.0)
    right = quad(lambda s: 2.0 * (1.0 + (a + s * s) * (a + s * s)) ** e, 0.0, 1.0)
    tails = quad(f, -np.inf, a - 1.0) + quad(f, a + 1.0, np.inf)
    return left + right + tails


def convolution_bound_check(gamma: float, a: float) -> ConvolutionBoundResult:
    """Evaluate both integrals at (gamma, a) and their bound ratios."""
    for name, value in (("gamma", gamma), ("a", a)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if gamma <= 1.0:
        raise DivergentIntegralError(f"integrals diverge for gamma <= 1, got {gamma!r}")
    lhs_bracket = _bracket_integral(gamma, a)
    lhs_sqrt = _sqrt_integral(gamma, a)
    bound_bracket = (1.0 + a * a) ** (-0.5 * gamma)
    bound_sqrt = (1.0 + a * a) ** (-0.25)
    return ConvolutionBoundResult(
        lhs_bracket=lhs_bracket,
        ratio_bracket=lhs_bracket / bound_bracket,
        lhs_sqrt=lhs_sqrt,
        ratio_sqrt=lhs_sqrt / bound_sqrt,
    )
