import warnings

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


def _tight(f, lo, hi):
    return quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=500)[0]


def _tight_reference(gamma, a):
    """Both integrals by adaptive quadrature at epsrel = 1e-13 with no absolute
    tolerance, split at every peak: 0 and a, and 0 inside a square-root tail."""
    bracket = lambda t: (1.0 + t * t) ** (-0.5 * gamma)
    f = lambda t: bracket(t) * bracket(t - a)
    lo, hi = sorted((0.0, a))
    lhs_bracket = _tight(f, -np.inf, lo) + _tight(f, lo, hi) + _tight(f, hi, np.inf)
    g = lambda t: bracket(t) / np.sqrt(abs(t - a))
    lhs_sqrt = _tight(lambda s: 2.0 * bracket(a - s * s), 0.0, 1.0)
    lhs_sqrt += _tight(lambda s: 2.0 * bracket(a + s * s), 0.0, 1.0)
    for ends in ([-np.inf, *([0.0] if a > 1.0 else []), a - 1.0], [a + 1.0, *([0.0] if a < -1.0 else []), np.inf]):
        lhs_sqrt += sum(_tight(g, p, q) for p, q in zip(ends, ends[1:]))
    return lhs_bracket, lhs_sqrt


@pytest.mark.parametrize("offsets", [51, 201])  # the benchmark's grid and the suite's default
@pytest.mark.parametrize("gamma", [1.1, 1.5, 2.0, 3.0])
def test_every_value_within_1e_10_of_the_tight_reference(gamma, offsets):
    a_grid = np.linspace(-100.0, 100.0, offsets)
    res = convolution_bound_check(gamma, a_grid)
    reference = np.array([_tight_reference(gamma, float(a)) for a in a_grid])
    assert np.abs(res.lhs_bracket / reference[:, 0] - 1.0).max() <= 1e-10
    assert np.abs(res.lhs_sqrt / reference[:, 1] - 1.0).max() <= 1e-10


def test_scalar_call_equals_its_element_of_the_array_call_bit_for_bit():
    # 36 pairs: the array call runs two blocks of pairs, a scalar call one of one pair
    gamma = np.array([1.1, 1.5, 2.0, 3.0])[:, None]
    a = np.array([-100.0, -7.5, -1.0, -0.5, 0.0, 0.3, 1.0, 42.0, 100.0])
    res = convolution_bound_check(gamma, a)
    fields = ("lhs_bracket", "ratio_bracket", "lhs_sqrt", "ratio_sqrt", "error_estimate")
    for i, j in np.ndindex(res.lhs_bracket.shape):
        one = convolution_bound_check(float(gamma[i, 0]), float(a[j]))
        for name in fields:
            value = getattr(one, name)
            assert type(value) is float, name
            assert value == getattr(res, name)[i, j], (name, gamma[i, 0], a[j])


def test_array_check_raises_no_warning_where_a_piece_end_meets_a_split_or_zero():
    a = np.array([0.0, 1.0, -1.0, 0.5, -0.5, 100.0, -100.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = convolution_bound_check(np.array([1.1, 1.5, 2.0, 3.0])[:, None], a)
    for name in ("lhs_bracket", "ratio_bracket", "lhs_sqrt", "ratio_sqrt", "error_estimate"):
        value = getattr(res, name)
        assert value.shape == (4, a.size) and np.isfinite(value).all(), name


def test_invalid_array_element_rejected():
    with pytest.raises(ValueError, match="^a must be finite, got nan$"):
        convolution_bound_check(2.0, np.array([0.0, np.nan]))
    with pytest.raises(DivergentIntegralError, match="got 1.0$"):
        convolution_bound_check(np.array([2.0, 1.0]), 0.0)


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
