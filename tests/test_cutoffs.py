import math

import numpy as np
import pytest

from kp5 import cutoff_psi, cutoff_psi_T, dyadic_eta
from kp5 import cutoffs


def test_plateau_and_support_values():
    assert cutoff_psi(0.5) == 1.0
    assert cutoff_psi(3.0) == 0.0
    assert cutoff_psi(1.5) == pytest.approx(0.5, abs=1e-15)


def test_exact_plateau_and_support_edges():
    for t in (-1.0, -0.3, 0.0, 0.99, 1.0):
        assert cutoff_psi(t) == 1.0
    for t in (-2.0, 2.0, 2.5, -17.0):
        assert cutoff_psi(t) == 0.0


def test_monotone_on_transition():
    ts = np.linspace(1.0, 2.0, 500)
    values = cutoff_psi(ts)
    assert np.all(np.diff(values) <= 0.0)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_even():
    ts = np.linspace(0, 3, 100)
    assert np.array_equal(cutoff_psi(ts), cutoff_psi(-ts))


def test_psi_T_rescaling():
    assert cutoff_psi_T(0.05, 0.1) == 1.0
    assert cutoff_psi_T(0.21, 0.1) == 0.0
    assert cutoff_psi_T(0.15, 0.1) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        cutoff_psi_T(0.0, 1.0)
    with pytest.raises(ValueError):
        cutoff_psi_T(0.0, 0.0)


def test_eta_examples():
    assert dyadic_eta(0, 0.5) == 1.0
    for j in (1, 2, 3, 7):
        assert dyadic_eta(j, 0.0) == 0.0  # both plateau terms equal 1
    assert dyadic_eta(3, 8.0) == 1.0  # psi(1) - psi(2) = 1 - 0
    assert dyadic_eta(3, 6.0) == pytest.approx(1.0 - cutoff_psi(1.5), abs=1e-15)
    for j in (-1, 1.5, math.inf, -math.inf, math.nan, np.float64(math.inf), np.float64(math.nan)):
        with pytest.raises(ValueError, match="shell index must be a nonnegative integer"):
            dyadic_eta(j, 0.0)


@pytest.mark.parametrize("j", [1025, 1026, 2**31, 2**40, 10**30, 10**400, 1e300])
def test_eta_of_a_huge_shell_is_exactly_zero(j):
    x = np.array([0.0, 5e-324, 1.0, -3.0, 1e300, -np.finfo(float).max, np.inf, -np.inf, np.nan])
    out = dyadic_eta(j, x)
    assert out.tolist() == [0.0] * len(x) and not np.any(np.signbit(out))
    assert dyadic_eta(j, np.finfo(float).max) == 0.0


def test_eta_shell_support():
    # eta_j lives on 2^(j-1) < |x| < 2^(j+1)
    for j in (1, 4, 9):
        assert dyadic_eta(j, 2.0 ** (j - 1) * 0.99) == 0.0
        assert dyadic_eta(j, 2.0**j * 1.5) > 0.0
        assert dyadic_eta(j, 2.0 ** (j + 1)) == 0.0


def test_telescoping_identity_exact():
    rng = np.random.default_rng(9)
    x = np.concatenate(
        [
            rng.uniform(-5.0, 5.0, 2000),
            rng.choice([-1.0, 1.0], 2000) * 2.0 ** rng.uniform(-8.0, 21.0, 2000),
            np.array([0.0, 1.0, -2.0, 2.0**20]),
        ]
    )
    for j_max in (0, 1, 5, 20, 40):
        total = np.zeros_like(x)
        for j in range(j_max + 1):
            total += dyadic_eta(j, x)
        target = cutoff_psi(np.ldexp(x, -j_max))
        assert np.max(np.abs(total - target)) <= 1e-15


def test_telescoping_scalar_fsum():
    for x in (0.7, 3.3, 1000.0, 2.0**17 * 1.3):
        total = math.fsum(dyadic_eta(j, x) for j in range(41))
        assert abs(total - cutoff_psi(x * 2.0**-40)) <= 1e-15


def _edge_values():
    values = [np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308]
    for v in (0.0, 1.0, 2.0):
        for x in (v, -v):
            values += [x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]
    return values


def _expected_edge(t):
    if math.isnan(t) or abs(t) >= 2.0:
        return 0.0
    if abs(t) <= 1.0:
        return 1.0
    # the band points next to 1 and 2: the far mollifier factor underflows to 0
    return 1.0 if abs(t) < 1.5 else 0.0


def test_edge_values_scalars_and_zero_d_arrays():
    values = _edge_values()
    for t in values:
        for arg in (t, np.float64(t), np.array(t)):
            got = cutoff_psi(arg)
            assert type(got) is float
            assert got == _expected_edge(t), t
            assert math.copysign(1.0, got) == 1.0  # never -0.0
    assert cutoff_psi(np.nan) == 0.0
    as_array = cutoff_psi(np.array(values))
    assert as_array.dtype == np.float64 and as_array.shape == (len(values),)
    assert as_array.tolist() == [_expected_edge(t) for t in values]
    for j in (0, 1, 5, 40):
        assert type(dyadic_eta(j, 3.0)) is float
        assert dyadic_eta(j, np.nan) == 0.0


def test_shapes_are_kept():
    t = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
    out = cutoff_psi(t)
    assert out.shape == t.shape and out.dtype == np.float64
    assert np.array_equal(out.ravel(), cutoff_psi(t.ravel()))
    assert cutoff_psi(np.empty((0, 3))).shape == (0, 3)
    assert cutoff_psi([0.5, 1.5]).shape == (2,)


class _CountingNumpy:
    """numpy, except that ``exp`` counts the elements it is given."""

    def __init__(self):
        self.exp_elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.exp_elements += np.size(x)
        return np.exp(x, *args, **kwargs)


def test_exponentials_run_on_the_transition_band_only(monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(cutoffs, "np", counting)
    t = np.linspace(-4.0, 4.0, 8001)
    band = int(np.count_nonzero((np.abs(t) > 1.0) & (np.abs(t) < 2.0)))
    cutoff_psi(t)
    assert counting.exp_elements == 2 * band  # one numerator, one denominator term
    counting.exp_elements = 0
    x = np.ldexp(t, 5)
    dyadic_eta(5, x)
    shells = [np.abs(np.ldexp(x, -k)) for k in (5, 4)]
    assert counting.exp_elements == 2 * sum(
        int(np.count_nonzero((s > 1.0) & (s < 2.0))) for s in shells
    )
    counting.exp_elements = 0
    cutoff_psi(np.array([0.0, 1.0, 2.0, -7.0, np.inf, np.nan]))
    assert counting.exp_elements == 0
