import importlib
import pkgutil

import numpy as np
import pytest

import kp5
from kp5 import Field, NormSpec, bracket, energy_functional, make_grid, mass, momentum, sobolev_aniso_norm, tilde_norm, zero_mode_project
from kp5.errors import NormSpecError, ZeroMassViolationError
from kp5.field import _column_sums, _mirrored_total
from kp5.norms import _sobolev_weights


def test_bracket_values():
    assert bracket(0.0) == 1.0
    assert bracket(1.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert bracket(-3.0) == pytest.approx(np.sqrt(10.0), rel=1e-15)


def test_normspec_rejects_negative_indices():
    with pytest.raises(NormSpecError):
        NormSpec(s1=-0.5, s2=0.0)
    with pytest.raises(NormSpecError):
        NormSpec(s1=0.0, s2=-1.0)


def test_sobolev_zero_indices_is_l2(grid16):
    rng = np.random.default_rng(0)
    f = Field.from_physical(grid16, rng.standard_normal(grid16.shape))
    assert sobolev_aniso_norm(f, NormSpec(0, 0)) == pytest.approx(f.l2_norm(), rel=1e-12)
    assert sobolev_aniso_norm(Field.zeros(grid16), NormSpec(1, 2)) == 0.0


def test_sobolev_single_mode(grid16):
    amp = 0.37
    f = Field.single_mode(grid16, 2, -3, amplitude=amp)
    # the mode and its mirror (-2, 3) carry equal weights
    expected = np.sqrt(2.0) * amp * bracket(2.0) ** 1.5 * bracket(3.0) ** 0.5
    assert sobolev_aniso_norm(f, NormSpec(1.5, 0.5)) == pytest.approx(expected, rel=1e-13)


def test_sobolev_monotone_in_indices(grid16):
    rng = np.random.default_rng(1)
    f = Field.from_physical(grid16, rng.standard_normal(grid16.shape))
    values = {}
    for s1 in (0.0, 0.5, 1.0, 2.0):
        for s2 in (0.0, 0.5, 1.0, 2.0):
            values[(s1, s2)] = sobolev_aniso_norm(f, NormSpec(s1, s2))
    for (s1, s2), v in values.items():
        for (r1, r2), w in values.items():
            if r1 >= s1 and r2 >= s2:
                assert w >= v * (1 - 1e-12)


def test_tilde_norm_single_mode(grid16):
    f = Field.single_mode(grid16, 1, 0, amplitude=1.0)
    # weight 2 on the mode and on its mirror (-1, 0)
    assert tilde_norm(f, 2.0, 1.0) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-13)
    assert tilde_norm(Field.zeros(grid16), 2.0, 1.0) == 0.0


def test_tilde_norm_rejects_x_mean_content(grid16):
    f = Field.single_mode(grid16, 0, 3)
    with pytest.raises(ZeroMassViolationError):
        tilde_norm(f, 2.0, 1.0)


def test_energy_zero_field(grid16):
    assert energy_functional(Field.zeros(grid16), alpha=1.0) == 0.0


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5])
@pytest.mark.parametrize("amplitude,lx", [(1.0, 2 * np.pi), (0.3, 11.0)])
def test_energy_cosine_against_quadrature_oracle(alpha, amplitude, lx):
    """Closed-form column: u = A cos(2 pi x / lx) has zero cubic integral and
    the quadratic pieces reduce to 1D integrals evaluated independently by
    fine trapezoid quadrature (signs as conserved by the flow)."""
    from kp5 import make_grid

    ly = 3.0
    g = make_grid(32, 16, lx, ly)
    u = amplitude * np.cos(2 * np.pi * g.x / lx)[None, :] * np.ones((g.ny, 1))
    f = Field.from_physical(g, u)

    # oracle: trapezoid quadrature of the closed-form integrands on a fine grid
    xs = np.linspace(0.0, lx, 20001)
    k = 2 * np.pi / lx
    u1 = amplitude * np.cos(k * xs)
    d1 = -amplitude * k * np.sin(k * xs)
    d2 = -amplitude * k * k * np.cos(k * xs)
    expected = ly * (
        0.5 * np.trapezoid(d2**2, xs)
        - 0.5 * alpha * np.trapezoid(d1**2, xs)
        + np.trapezoid(u1**3, xs) / 6.0
    )
    assert energy_functional(f, alpha) == pytest.approx(expected, rel=1e-10)
    assert abs(np.trapezoid(u1**3, xs)) <= 1e-10  # cubic integral vanishes for a pure cosine


def test_energy_translation_invariant(grid32):
    rng = np.random.default_rng(2)
    u = rng.standard_normal(grid32.shape)
    f = zero_mode_project(Field.from_physical(grid32, u))
    shifted = zero_mode_project(Field.from_physical(grid32, np.roll(u, 5, axis=1)))
    e0 = energy_functional(f, alpha=0.8)
    e1 = energy_functional(shifted, alpha=0.8)
    assert abs(e0 - e1) <= 1e-12 * max(1.0, abs(e0))


def test_energy_requires_zero_x_mean(grid16):
    f = Field.from_physical(grid16, np.ones(grid16.shape))
    with pytest.raises(ZeroMassViolationError):
        energy_functional(f, alpha=0.0)


def test_mass_and_momentum(grid16):
    u = np.cos(grid16.x)[None, :] * np.ones((grid16.ny, 1))
    f = Field.from_physical(grid16, u)
    # integral of cos^2 over the box
    assert mass(f) == pytest.approx(0.5 * grid16.lx * grid16.ly, rel=1e-12)
    assert momentum(f) == pytest.approx(0.0, abs=1e-12)
    const = Field.from_physical(grid16, np.full(grid16.shape, 2.0))
    assert momentum(const) == pytest.approx(2.0 * grid16.lx * grid16.ly, rel=1e-12)


# -- weight formulas ---------------------------------------------------------


@pytest.mark.parametrize("s1", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("s2", [0.0, 1.0, 2.0])
def test_sobolev_weights_are_the_documented_formula(s1, s2):
    """The nine (s1, s2) pairs `kp5 norms` prints."""
    grid = make_grid(16, 8, 5.0, 3.0)
    row, col = _sobolev_weights(grid, s1, s2)
    assert row.shape == (1, grid.nx) and col.shape == (grid.ny, 1)
    expected = bracket(grid.xi_mesh) ** s1 * bracket(grid.mu_mesh) ** s2
    assert (row * col).tobytes() == expected.tobytes()


def test_energy_is_the_documented_weight_sum_plus_the_cubic_term():
    grid = make_grid(16, 8, 5.0, 3.0)
    rng = np.random.default_rng(11)
    f = zero_mode_project(Field.from_physical(grid, rng.standard_normal(grid.shape)))
    alpha = 0.7
    xi = grid.xi[None, :]
    xi_safe = np.where(xi == 0.0, 1.0, xi)
    weights = 0.5 * xi**4 - 0.5 * alpha * xi**2 + 0.5 * (grid.mu[:, None] / xi_safe) ** 2
    weights[:, 0] = 0.0
    u = np.real(f.to_physical())
    # summed on the stored half: the xi = 0 and Nyquist columns once, the others twice
    quadratic = grid.cell_area * _mirrored_total(_column_sums(f._stored, weights[:, : grid.nx // 2 + 1]))
    cubic = grid.cell_area * float(np.sum(u * u * u)) / 6.0
    assert energy_functional(f, alpha) == quadratic + cubic


def test_the_only_process_lifetime_cache_is_the_omega_lattice():
    """Diagnostics and shell weights are computed per call; README names this
    functools cache as the only table kp5 keeps for the process."""
    cached = set()
    for info in pkgutil.iter_modules(kp5.__path__):
        module = importlib.import_module(f"kp5.{info.name}")
        scopes = [module, *(v for v in vars(module).values() if isinstance(v, type))]
        for scope in scopes:
            for obj in vars(scope).values():
                fn = getattr(obj, "__func__", obj)  # unwrap static and class methods
                if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                    cached.add(f"{info.name}.{fn.__qualname__}")
    assert cached == {"dispersion._omega_lattice"}
