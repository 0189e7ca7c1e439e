import warnings

import numpy as np
import pytest

from kp5 import (
    DispersionParams,
    InteractionTag,
    KPSign,
    classify_interaction,
    dispersion_omega,
    kp2_lower_bound_ratio,
    resonance,
    resonance_identity_check,
)
from kp5.errors import SingularFrequencyError
from kp5.resonance import _CHUNK, _omega_extended


def _sample(rng, n):
    def draw(m):
        return 10.0 ** rng.uniform(-2, 2, m) * rng.choice([-1.0, 1.0], m)

    xi1, xi2 = draw(n), draw(n)
    mu1, mu2 = draw(n), draw(n)
    for _ in range(50):
        bad = (np.abs(xi1) < 1e-3) | (np.abs(xi2) < 1e-3) | (np.abs(xi1 + xi2) < 1e-3)
        if not bad.any():
            break
        xi1[bad] = draw(bad.sum())
        xi2[bad] = draw(bad.sum())
    return xi1, xi2, mu1, mu2


def test_resonance_equal_modes(kp1):
    # omega(2,0) - 2*omega(1,0) = 32 - 2
    assert resonance(1.0, 1.0, 0.0, 0.0, kp1) == pytest.approx(30.0, abs=1e-12)


def test_resonance_root_on_resonant_set(kp1):
    # (mu1 - mu2)^2 = 60 makes the bracket vanish: 4 * (5 * 3) = 60
    value = resonance(1.0, 1.0, np.sqrt(60.0), 0.0, kp1)
    assert abs(value) <= 1e-12
    identity = (
        dispersion_omega(2.0, np.sqrt(60.0), kp1)
        - dispersion_omega(1.0, np.sqrt(60.0), kp1)
        - dispersion_omega(1.0, 0.0, kp1)
    )
    assert abs(identity) <= 1e-12


def test_resonance_parallel_lines_closed_form():
    # mu1/xi1 = mu2/xi2 kills the transverse term; the remaining polynomial
    # carries the branch sign on its fifth-order part
    xi1, xi2 = 1.7, 0.6
    t = 0.8
    mu1, mu2 = t * xi1, t * xi2
    for alpha in (-1.0, 0.0, 2.0):
        kp1 = DispersionParams(kp_sign=KPSign.KP1, alpha=alpha)
        kp2 = DispersionParams(kp_sign=KPSign.KP2, alpha=alpha)
        big_s = xi1**2 + xi1 * xi2 + xi2**2
        expect1 = xi1 * xi2 * (xi1 + xi2) * (5 * big_s - 3 * alpha)
        expect2 = xi1 * xi2 * (xi1 + xi2) * (-5 * big_s - 3 * alpha)
        assert resonance(xi1, xi2, mu1, mu2, kp1) == pytest.approx(expect1, rel=1e-12)
        assert resonance(xi1, xi2, mu1, mu2, kp2) == pytest.approx(expect2, rel=1e-12)
        if alpha == 0.0:
            assert abs(resonance(xi1, xi2, mu1, mu2, kp1)) == pytest.approx(
                abs(resonance(xi1, xi2, mu1, mu2, kp2)), rel=1e-12
            )


def test_resonance_symmetry_exact(kp1):
    rng = np.random.default_rng(0)
    xi1, xi2, mu1, mu2 = _sample(rng, 200)
    a = resonance(xi1, xi2, mu1, mu2, kp1)
    b = resonance(xi2, xi1, mu2, mu1, kp1)
    assert np.array_equal(a, b)


def test_resonance_degenerate_routing(kp1):
    # xi1 + xi2 = 0 with mu1 + mu2 = 0 routes through the symbol identity
    for mu in (0.5, 2.0):
        value = resonance(1.0, -1.0, mu, -mu, kp1)
        expected = -dispersion_omega(1.0, mu, kp1) - dispersion_omega(-1.0, -mu, kp1)
        assert value == expected == 0.0
    with pytest.raises(SingularFrequencyError):
        resonance(1.0, -1.0, 0.5, 0.5, kp1)
    with pytest.raises(SingularFrequencyError):
        resonance(0.0, 1.0, 0.0, 0.0, kp1)


@pytest.mark.parametrize("sign", [KPSign.KP1, KPSign.KP2])
@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
def test_identity_on_random_samples(sign, alpha):
    params = DispersionParams(kp_sign=sign, alpha=alpha)
    rng = np.random.default_rng(99)
    xi1, xi2, mu1, mu2 = _sample(rng, 10_000)
    defect = resonance_identity_check(xi1, xi2, mu1, mu2, params)
    assert float(np.max(defect)) <= 1e-9


@pytest.mark.parametrize("sign", [KPSign.KP1, KPSign.KP2])
def test_identity_over_continuous_alpha(sign):
    rng = np.random.default_rng(101)
    for alpha in rng.uniform(-2.0, 2.0, 8):
        params = DispersionParams(kp_sign=sign, alpha=float(alpha))
        xi1, xi2, mu1, mu2 = _sample(rng, 2_000)
        defect = resonance_identity_check(xi1, xi2, mu1, mu2, params)
        assert float(np.max(defect)) <= 1e-9


def test_identity_example(kp1):
    assert resonance_identity_check(1.0, 1.0, 0.0, 0.0, kp1) <= 1e-12


@pytest.mark.parametrize("sign", [KPSign.KP1, KPSign.KP2])
@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
def test_extended_symbol_matches_dispersion_omega(sign, alpha):
    """The identity check's longdouble copy of the symbol is the same formula."""
    params = DispersionParams(kp_sign=sign, alpha=alpha)
    rng = np.random.default_rng([11, int(alpha) + 1])
    xi, _, mu, _ = _sample(rng, 5_000)
    ext = _omega_extended(xi.astype(np.longdouble), mu.astype(np.longdouble), params.sign, params.alpha)
    largest = np.maximum(np.maximum(np.abs(xi) ** 5, abs(alpha) * np.abs(xi) ** 3), mu * mu / np.abs(xi))
    assert ext.dtype == np.longdouble
    assert np.all(np.abs(ext.astype(float) - dispersion_omega(xi, mu, params)) <= 1e-15 * largest)


def test_identity_check_at_the_degenerate_scalar(kp1):
    # xi1 + xi2 = 0 with mu1 + mu2 = 0: omega(0, 0) = 0, with no 0/0 on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu in (0.5, 2.0):
            assert resonance_identity_check(1.0, -1.0, mu, -mu, kp1) == 0.0


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_identity_check_blocks_match_one_unblocked_evaluation(n):
    params = DispersionParams(kp_sign=KPSign.KP2, alpha=1.0)
    xi1, xi2, mu1, mu2 = _sample(np.random.default_rng(n), n)
    closed = resonance(xi1, xi2, mu1, mu2, params)
    a1, a2, b1, b2 = (v.astype(np.longdouble) for v in (xi1, xi2, mu1, mu2))
    ref = (
        _omega_extended(a1 + a2, b1 + b2, params.sign, params.alpha)
        - _omega_extended(a1, b1, params.sign, params.alpha)
        - _omega_extended(a2, b2, params.sign, params.alpha)
    )
    expected = np.abs((closed - ref).astype(float)) / np.maximum(1.0, np.abs(closed))
    got = resonance_identity_check(xi1, xi2, mu1, mu2, params)
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)
    # blocks are taken over the flattened samples; the shape comes back
    shaped = resonance_identity_check(*(v[: n - n % 3].reshape(3, -1) for v in (xi1, xi2, mu1, mu2)), params)
    assert np.array_equal(shaped, expected[: n - n % 3].reshape(3, -1))


def test_kp2_ratio_example():
    assert kp2_lower_bound_ratio(1.0, 1.0, 0.0, 0.0) == pytest.approx(15.0 / 8.0, rel=1e-13)


def test_kp2_ratio_takes_no_alpha():
    with pytest.raises(TypeError):
        kp2_lower_bound_ratio(1.0, 1.0, 0.0, 0.0, alpha=0.0)
    with pytest.raises(TypeError):
        kp2_lower_bound_ratio(1.0, 1.0, 0.0, 0.0, 0.0)


def test_kp2_ratio_at_least_one_on_random_samples():
    rng = np.random.default_rng(7)
    xi1, xi2, mu1, mu2 = _sample(rng, 10_000)
    ratios = kp2_lower_bound_ratio(xi1, xi2, mu1, mu2)
    assert float(np.min(ratios)) >= 1.0


def test_kp2_ratio_parallel_worst_family():
    rng = np.random.default_rng(8)
    xi1, xi2, mu1, _ = _sample(rng, 5_000)
    mu2 = xi2 * (mu1 / xi1)
    ratios = kp2_lower_bound_ratio(xi1, xi2, mu1, mu2)
    assert float(np.min(ratios)) >= 1.0
    # equal-magnitude pairs saturate at exactly 15/8
    assert kp2_lower_bound_ratio(2.0, 2.0, 1.0, 1.0) == pytest.approx(15.0 / 8.0, rel=1e-13)


@pytest.mark.parametrize(
    "xi1,xi2,alpha,tag",
    [
        (50.0, -49.5, 0.0, InteractionTag.LOW_HH),
        (1.0, 2.0, 0.0, InteractionTag.LOW_LL),
        (100.0, 1.0, 0.0, InteractionTag.HIGH_HL),
        (60.0, 50.0, 0.0, InteractionTag.HIGH_HH),
        # alpha raises the threshold
        (50.0, -49.5, 60.0, InteractionTag.LOW_LL),
        (100.0, 1.0, 150.0, InteractionTag.LOW_LL),
        # uncovered regions stay honest
        (18.0, -9.0, 0.0, InteractionTag.OTHER),    # low output, inputs straddle the bands
        (8.0, 8.0, 0.0, InteractionTag.OTHER),      # high output, both inputs below M0
    ],
)
def test_classification(xi1, xi2, alpha, tag):
    case = classify_interaction(xi1, xi2, alpha)
    assert case.tag is tag
    assert case.threshold == max(10.0, abs(alpha))


def test_classification_is_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(300):
        xi1, xi2 = rng.uniform(-120, 120, 2)
        alpha = rng.uniform(-20, 20)
        assert classify_interaction(xi1, xi2, alpha) == classify_interaction(xi2, xi1, alpha)
