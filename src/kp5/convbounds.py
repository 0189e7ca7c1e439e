"""Numerical checks of the two convolution-type integral bounds

    int dt / (<t>^g <t-a>^g)      <~  <a>^-g        (g > 1)
    int dt / (<t>^g |t-a|^(1/2))  <~  <a>^-(1/2)    (g > 1)

by one double-exponential rule, run on every (gamma, a) pair at once:
tanh-sinh on finite pieces and exp-sinh on the two tails.  The bracket
integral splits at 0 and a.  In the square-root integral the substitution
t = a -+ s^2 removes the singularity on the two unit intervals around t = a,
and the tail holding t = 0 splits there.  Every pair runs every piece: a split
that a pair does not need is a piece of zero width, which adds exactly 0, so
no node lands on t = a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegralError

__all__ = ["ConvolutionBoundResult", "convolution_bound_check"]

_H = 1.0 / 16.0  # step of the coarse rule; the reported values take the h/2 rule
_U_MAX = 6.0  # both rules run over the nodes u = k*h/2 with |u| <= 6

_K = round(_U_MAX / (_H / 2))
_U = np.arange(-_K, _K + 1) * (_H / 2)  # 385 nodes; every other one is the h rule's
_SINH = 0.5 * np.pi * np.sinh(_U)
_TANH_SINH = (np.tanh(_SINH), 0.5 * np.pi * np.cosh(_U) / np.cosh(_SINH) ** 2)  # on [-1, 1]
_EXP_SINH = (np.exp(_SINH), 0.5 * np.pi * np.cosh(_U) * np.exp(_SINH))  # on [0, inf)
# (gamma, a) pairs per pass: a node array (32 x 385 doubles, 96 KiB) stays in
# cache, which halves the time of one pass over the suite's 205 or 805 pairs,
# and memory does not grow with the pair count
_BLOCK = 32


@dataclass(frozen=True)
class ConvolutionBoundResult:
    """Quadrature values and ratios against the claimed bounds; floats for a
    scalar call, arrays of the broadcast argument shape otherwise."""

    lhs_bracket: float      # int dt / (<t>^g <t-a>^g)
    ratio_bracket: float    # lhs_bracket / <a>^-g
    lhs_sqrt: float         # int dt / (<t>^g |t-a|^(1/2))
    ratio_sqrt: float       # lhs_sqrt / <a>^-(1/2)
    error_estimate: float   # relative gap of the h and h/2 rules, the larger of the two integrals'


def quad(f, lo, hi) -> np.ndarray:
    """Double-exponential quadrature of f over [lo, hi]: tanh-sinh on a finite
    piece, exp-sinh from the finite end when lo is -inf or hi is inf.

    The nodes run along a new last axis, which lo and hi broadcast against;
    f maps the node array to values of the same shape.  Returns the h/2 and
    the h rule, stacked on a new first axis."""
    if np.all(lo == -np.inf):
        x, w = _EXP_SINH
        t = hi - x
    elif np.all(hi == np.inf):
        x, w = _EXP_SINH
        t = lo + x
    else:
        x, w = _TANH_SINH
        half = 0.5 * (hi - lo)
        t, w = lo + half * (1.0 + x), half * w
    y = f(t) * w
    return np.stack((y.sum(axis=-1) * (_H / 2), y[..., ::2].sum(axis=-1) * _H))


def _log_bracket(t: np.ndarray) -> np.ndarray:
    """log(1 + t^2), so that <t>^(2e) is _exp(e * _log_bracket(t)).  numpy's power
    treats an exponent that is one number for the whole call (e = -1 at gamma = 2)
    apart, so a scalar check would not match its element of an array check."""
    return np.log1p(t * t)


def _exp(x: np.ndarray) -> np.ndarray:
    """exp(x) with x floored at -700.  exp takes a slow path, about 30 times
    slower, where it underflows, as it does on the far exp-sinh nodes; there
    e^-700 times the largest weight (5e139) is below 1e-164, far under the
    last bit of any of these integrals."""
    return np.exp(np.maximum(x, -700.0))


def _bracket_integral(e: np.ndarray, a: np.ndarray) -> np.ndarray:
    f = lambda t: _exp(e * (_log_bracket(t) + _log_bracket(t - a)))
    lo, hi = np.minimum(0.0, a), np.maximum(0.0, a)
    return quad(f, -np.inf, lo) + quad(f, lo, hi) + quad(f, hi, np.inf)


def _sqrt_integral(e: np.ndarray, a: np.ndarray) -> np.ndarray:
    f = lambda t: _exp(e * _log_bracket(t)) / np.sqrt(np.abs(t - a))
    # substituted halves: t = a - s^2 and t = a + s^2 turn 1/sqrt into 2 ds
    left = quad(lambda s: 2.0 * _exp(e * _log_bracket(a - s * s)), 0.0, 1.0)
    right = quad(lambda s: 2.0 * _exp(e * _log_bracket(a + s * s)), 0.0, 1.0)
    # the tail holding the peak at t = 0 splits there; the other split has zero width
    below, above = np.minimum(a - 1.0, 0.0), np.maximum(a + 1.0, 0.0)
    tails = quad(f, -np.inf, below) + quad(f, below, a - 1.0)
    tails += quad(f, a + 1.0, above) + quad(f, above, np.inf)
    return left + right + tails


def convolution_bound_check(gamma: float | np.ndarray, a: float | np.ndarray) -> ConvolutionBoundResult:
    """Evaluate both integrals and their bound ratios at (gamma, a),
    elementwise over the broadcast shape of the arguments."""
    gamma, a = np.broadcast_arrays(np.asarray(gamma, dtype=float), np.asarray(a, dtype=float))
    for name, value in (("gamma", gamma), ("a", a)):
        bad = value[~np.isfinite(value)]
        if bad.size:
            raise ValueError(f"{name} must be finite, got {float(bad[0])!r}")
    if np.any(gamma <= 1.0):
        raise DivergentIntegralError(f"integrals diverge for gamma <= 1, got {float(gamma[gamma <= 1.0][0])!r}")
    shape = gamma.shape
    e, a = -0.5 * gamma.reshape(-1, 1), a.reshape(-1, 1)
    blocks = [slice(i, i + _BLOCK) for i in range(0, e.size, _BLOCK)]
    bracket = np.concatenate([_bracket_integral(e[b], a[b]) for b in blocks], axis=1)
    sqrt = np.concatenate([_sqrt_integral(e[b], a[b]) for b in blocks], axis=1)
    log_bound = _log_bracket(a[:, 0])
    bound_bracket = _exp(e[:, 0] * log_bound)
    bound_sqrt = _exp(-0.25 * log_bound)
    gap = np.maximum(np.abs(bracket[0] - bracket[1]) / bracket[0], np.abs(sqrt[0] - sqrt[1]) / sqrt[0])
    out = (lambda v: float(v[0])) if shape == () else (lambda v: v.reshape(shape))
    return ConvolutionBoundResult(
        lhs_bracket=out(bracket[0]),
        ratio_bracket=out(bracket[0] / bound_bracket),
        lhs_sqrt=out(sqrt[0]),
        ratio_sqrt=out(sqrt[0] / bound_sqrt),
        error_estimate=out(gap),
    )
