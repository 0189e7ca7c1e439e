import numpy as np
import pytest

from kp5 import DispersionParams, KPSign, dispersion_omega, gradient_omega, omega_on_grid
from kp5.errors import SingularSymbolError


@pytest.mark.parametrize(
    "xi,mu,sign,alpha,expected",
    [
        (1.0, 0.0, KPSign.KP1, 0.0, 1.0),
        (1.0, 1.0, KPSign.KP1, 0.0, 2.0),
        (2.0, 0.0, KPSign.KP1, 0.0, 32.0),
        (1.0, 0.0, KPSign.KP2, 0.0, -1.0),
        (1.0, 0.0, KPSign.KP1, 1.0, 0.0),
    ],
)
def test_omega_values(xi, mu, sign, alpha, expected):
    params = DispersionParams(kp_sign=sign, alpha=alpha)
    assert dispersion_omega(xi, mu, params) == pytest.approx(expected, abs=1e-15)


def test_omega_on_the_zero_line():
    params = DispersionParams()
    assert dispersion_omega(0.0, 0.0, params) == 0.0
    # asked directly at xi=0, mu!=0 the symbol signals
    with pytest.raises(SingularSymbolError):
        dispersion_omega(0.0, 1.0, params)
    with pytest.raises(SingularSymbolError):
        dispersion_omega(np.array([0.0, 1.0]), np.array([0.0, 1.0]), params)


@pytest.mark.parametrize("sign", list(KPSign))
@pytest.mark.parametrize("alpha", [-1.3, 0.0, 0.7])
def test_a_scalar_omega_is_the_array_formula_to_the_bit(sign, alpha):
    params = DispersionParams(kp_sign=sign, alpha=alpha)
    rng = np.random.default_rng(7)
    xs = 10.0 ** rng.uniform(-3.0, 3.0, 2_000) * rng.choice([-1.0, 1.0], 2_000)
    ms = 10.0 ** rng.uniform(-3.0, 3.0, 2_000) * rng.choice([-1.0, 1.0], 2_000)
    for x, m in zip(xs.tolist(), ms.tolist()):
        got = dispersion_omega(x, m, params)
        assert type(got) is float
        assert got == dispersion_omega(np.array([x]), np.array([m]), params)[0], (x, m)


def test_the_zero_mode_keyword_is_gone():
    with pytest.raises(TypeError):
        DispersionParams(zero_mode="error")


def test_omega_is_odd():
    params = DispersionParams(kp_sign=KPSign.KP2, alpha=0.7)
    rng = np.random.default_rng(5)
    xi = rng.uniform(0.1, 10, 50) * rng.choice([-1, 1], 50)
    mu = rng.uniform(-10, 10, 50)
    a = dispersion_omega(-xi, -mu, params)
    b = -dispersion_omega(xi, mu, params)
    assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


@pytest.mark.parametrize(
    "xi,mu,alpha,expected",
    [
        (1.0, 0.0, 0.0, (5.0, 0.0)),
        (1.0, 2.0, 0.0, (1.0, 4.0)),
    ],
)
def test_gradient_values(xi, mu, alpha, expected):
    params = DispersionParams(kp_sign=KPSign.KP1, alpha=alpha)
    got = gradient_omega(xi, mu, params)
    assert got == pytest.approx(expected, abs=1e-14)


def test_gradient_singular_at_zero():
    with pytest.raises(SingularSymbolError):
        gradient_omega(0.0, 1.0, DispersionParams())


@pytest.mark.parametrize("sign", [KPSign.KP1, KPSign.KP2])
@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
def test_gradient_matches_central_difference(sign, alpha):
    """Analytic gradient versus the finite-difference oracle, h = 1e-5*|xi|."""
    params = DispersionParams(kp_sign=sign, alpha=alpha)
    rng = np.random.default_rng(11)
    for _ in range(200):
        xi = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        mu = rng.uniform(-10.0, 10.0)
        h = 1e-5 * abs(xi)
        d_xi_fd = (
            dispersion_omega(xi + h, mu, params) - dispersion_omega(xi - h, mu, params)
        ) / (2 * h)
        d_mu_fd = (
            dispersion_omega(xi, mu + h, params) - dispersion_omega(xi, mu - h, params)
        ) / (2 * h)
        d_xi, d_mu = gradient_omega(xi, mu, params)
        scale = max(1.0, abs(d_xi), abs(d_mu))
        assert abs(d_xi - d_xi_fd) <= 1e-6 * scale
        assert abs(d_mu - d_mu_fd) <= 1e-6 * scale


@pytest.mark.parametrize("alpha", [0.0, 1.0, -2.0])
def test_gradient_lower_bounds_reported(alpha):
    """|grad omega| / xi^2 (KP-I) and / xi^4 (KP-II) stay positive over a
    10^4-point sweep; the minimum ratio is reported, not pinned."""
    rng = np.random.default_rng(23)
    n = 10_000
    lo = np.sqrt(abs(alpha)) + 1.0
    xi = rng.uniform(lo, 100.0, n) * rng.choice([-1.0, 1.0], n)
    # mu/xi^2 spans the cancellation zone of the KP-I first component
    mu = xi**2 * 10.0 ** rng.uniform(-3.0, 3.0, n) * rng.choice([-1.0, 1.0], n)

    g1 = gradient_omega(xi, mu, DispersionParams(kp_sign=KPSign.KP1, alpha=alpha))
    norm1 = np.hypot(g1[0], g1[1])
    ratio1 = np.min(norm1 / xi**2)

    g2 = gradient_omega(xi, mu, DispersionParams(kp_sign=KPSign.KP2, alpha=alpha))
    norm2 = np.hypot(g2[0], g2[1])
    ratio2 = np.min(norm2 / xi**4)

    print(f"alpha={alpha}: min |grad|/xi^2 (KP-I) = {ratio1:.6g}, min |grad|/xi^4 (KP-II) = {ratio2:.6g}")
    assert ratio1 > 0.0
    assert ratio2 > 0.0


def test_omega_on_grid_conventions(grid16, kp1_alpha1):
    om = omega_on_grid(grid16, kp1_alpha1)
    assert np.all(om[:, 0] == 0.0)
    assert np.all(om[:, grid16.nx // 2] == 0.0)
    iy, ix = grid16.index_of_mode(2, 3)
    assert om[iy, ix] == pytest.approx(dispersion_omega(2.0, 3.0, kp1_alpha1), rel=1e-15)
    # lattice symbol is odd away from the held columns
    refl = np.roll(om[::-1, ::-1], shift=(1, 1), axis=(0, 1))
    assert np.max(np.abs(om + refl)) == 0.0


@pytest.mark.parametrize(
    "nx, ny, lx, ly",
    [(128, 128, 32 * np.pi, 32 * np.pi), (64, 64, 2 * np.pi, 2 * np.pi), (16, 32, 3.0, 7.0)],
)
@pytest.mark.parametrize("sign", [KPSign.KP1, KPSign.KP2])
@pytest.mark.parametrize("alpha", [-1.3, 0.0, 1.0])
def test_lattice_symbol_is_the_pointwise_symbol_bit_for_bit(nx, ny, lx, ly, sign, alpha):
    from kp5 import make_grid

    grid = make_grid(nx, ny, lx, ly)
    params = DispersionParams(kp_sign=sign, alpha=alpha)
    omega = omega_on_grid(grid, params)
    off = np.ones(nx, dtype=bool)
    off[[0, nx // 2]] = False  # the xi = 0 line and the Nyquist column are held at zero
    pointwise = dispersion_omega(grid.xi_mesh[:, off], grid.mu_mesh[:, off], params)
    assert np.array_equal(omega[:, off].view(np.int64), pointwise.view(np.int64))
    assert not np.any(omega[:, ~off])
