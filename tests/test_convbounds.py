import numpy as np
import pytest
from scipy.integrate import quad

import kp5.convbounds
from kp5 import convolution_bound_check
from kp5.errors import DivergentIntegralError


def test_spot_value_pi_over_two():
    res = convolution_bound_check(2.0, 0.0)
    assert res.lhs_bracket == pytest.approx(np.pi / 2.0, abs=1e-8)


def test_gamma_at_most_one_rejected():
    for gamma in (1.0, 0.5, -2.0):
        with pytest.raises(DivergentIntegralError):
            convolution_bound_check(gamma, 0.0)


def test_sqrt_integral_against_closed_form():
    # gamma = 2, a = 0: int dt / ((1+t^2) sqrt|t|) = pi * sqrt(2) / ... evaluate by
    # an independent midpoint rule with the substitution t = s^2
    res = convolution_bound_check(2.0, 0.0)
    s = (np.arange(400_000) + 0.5) * (200.0 / 400_000)
    oracle = 2.0 * np.sum(2.0 / (1.0 + s**4)) * (200.0 / 400_000)
    assert res.lhs_sqrt == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("gamma", [1.1, 1.5, 2.0, 3.0])
def test_ratios_bounded_over_offsets(gamma):
    a_values = np.linspace(-100.0, 100.0, 41)
    ratios_b = []
    ratios_s = []
    for a in a_values:
        res = convolution_bound_check(gamma, float(a))
        ratios_b.append(res.ratio_bracket)
        ratios_s.append(res.ratio_sqrt)
    assert np.all(np.isfinite(ratios_b))
    assert np.all(np.isfinite(ratios_s))
    print(f"gamma={gamma}: max bracket ratio {max(ratios_b):.4g}, max sqrt ratio {max(ratios_s):.4g}")


def test_bracket_integral_decays_monotonically():
    values = [convolution_bound_check(2.0, float(a)).lhs_bracket for a in np.linspace(0, 50, 26)]
    assert all(b < a for a, b in zip(values, values[1:]))


def _reference_check(gamma, a):
    """The integrands as first written: a bracket helper composed in lambdas,
    numpy's sqrt and abs on the singular factor."""

    def bracket_pow(t, g):
        return (1.0 + t * t) ** (-0.5 * g)

    def integral(f, lo, hi):
        return quad(f, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=200)[0]

    f = lambda t: bracket_pow(t, gamma) * bracket_pow(t - a, gamma)
    lo, hi = sorted((0.0, a))
    lhs_bracket = integral(f, -np.inf, lo)
    if hi > lo:
        lhs_bracket += integral(f, lo, hi)
    lhs_bracket += integral(f, hi, np.inf)
    g = lambda t: bracket_pow(t, gamma) / np.sqrt(np.abs(t - a))
    lhs_sqrt = (
        integral(lambda s: 2.0 * bracket_pow(a - s * s, gamma), 0.0, 1.0)
        + integral(lambda s: 2.0 * bracket_pow(a + s * s, gamma), 0.0, 1.0)
        + (integral(g, -np.inf, a - 1.0) + integral(g, a + 1.0, np.inf))
    )
    return (
        lhs_bracket,
        lhs_bracket / (1.0 + a * a) ** (-0.5 * gamma),
        lhs_sqrt,
        lhs_sqrt / (1.0 + a * a) ** (-0.25),
    )


@pytest.mark.parametrize("gamma", [1.1, 1.5, 2.0, 3.0])
def test_inlined_integrands_match_the_helper_composition_bit_for_bit(gamma):
    for a in (-100.0, -7.5, -1.0, 0.0, 0.3, 1.0, 42.0, 100.0):
        res = convolution_bound_check(gamma, a)
        got = (res.lhs_bracket, res.ratio_bracket, res.lhs_sqrt, res.ratio_sqrt)
        assert got == _reference_check(gamma, a), (gamma, a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["gamma", "a"])
def test_non_finite_arguments_rejected_before_quadrature(monkeypatch, name, bad):
    def no_quad(*args, **kwargs):
        raise AssertionError("quadrature ran on a non-finite argument")

    monkeypatch.setattr(kp5.convbounds, "quad", no_quad)
    args = {"gamma": 2.0, "a": 0.5, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite") as info:
        convolution_bound_check(**args)
    assert not isinstance(info.value, DivergentIntegralError)
