import numpy as np
import pytest

from kp5 import (
    FileData,
    GaussianData,
    ModeSumData,
    RandomShellData,
    make_grid,
    make_initial_data,
)
from kp5.errors import ConfigError, FormatError
from kp5.field import hermitian_reflect
from kp5.fileio import write_field


def test_mode_sum_single_cosine(grid16):
    f = make_initial_data(grid16, ModeSumData(modes=((1, 0, 1.0, 0.0),)))
    expected = np.cos(2 * np.pi * grid16.x / grid16.lx)[None, :] * np.ones((grid16.ny, 1))
    assert np.max(np.abs(f.to_physical() - expected)) <= 1e-13


def test_mode_sum_phase_and_y(grid16):
    f = make_initial_data(grid16, ModeSumData(modes=((2, 1, 0.5, 0.7),)))
    x = grid16.x[None, :]
    y = grid16.y[:, None]
    expected = 0.5 * np.cos(2 * np.pi * (2 * x / grid16.lx + y / grid16.ly) + 0.7)
    assert np.max(np.abs(f.to_physical() - expected)) <= 1e-13


def test_gaussian_zero_x_mean_and_lattice_values():
    g = make_grid(32, 32, 16.0, 16.0)
    spec = GaussianData(amplitude=0.3, sigma_x=1.5, sigma_y=2.0, center=(8.0, 8.0))
    f = make_initial_data(g, spec)
    assert f.x_mean_content() == 0.0
    # before projection the samples are the exact lattice evaluation
    raw = 0.3 * np.exp(
        -((g.x[None, :] - 8.0) ** 2) / (2 * 1.5**2) - ((g.y[:, None] - 8.0) ** 2) / (2 * 2.0**2)
    )
    row_means = raw.mean(axis=1, keepdims=True)
    assert np.max(np.abs(f.to_physical() - (raw - row_means))) <= 1e-13


def test_random_shell_deterministic_and_real(grid32):
    a = make_initial_data(grid32, RandomShellData(shell=3, seed=7))
    b = make_initial_data(grid32, RandomShellData(shell=3, seed=7))
    assert np.array_equal(a.data, b.data)
    c = make_initial_data(grid32, RandomShellData(shell=3, seed=8))
    assert not np.array_equal(a.data, c.data)
    assert a.to_physical().dtype == np.float64
    assert np.max(np.abs(a.data - hermitian_reflect(a.data))) <= 1e-15
    # spectrum supported on the dyadic annulus 2^(j-1) < |(xi,mu)| < 2^(j+1)
    radius = np.sqrt(grid32.xi_mesh**2 + grid32.mu_mesh**2)
    live = np.abs(a.data) > 0
    assert np.all(radius[live] > 2.0**2)
    assert np.all(radius[live] < 2.0**4)


@pytest.mark.parametrize(
    "grid, shell",
    [
        (make_grid(16, 16, 2 * np.pi, 2 * np.pi), 1000),  # beyond the largest radius
        (make_grid(16, 16, 2 * np.pi, 2 * np.pi), 2**40),
        (make_grid(16, 16, 0.02 * np.pi, 2 * np.pi), 1),  # lattice points on xi = 0 only
    ],
    ids=["beyond-the-grid", "huge-index", "zero-line-only"],
)
def test_random_shell_without_lattice_points_off_the_zero_line_is_rejected(grid, shell):
    with pytest.raises(ConfigError, match=r"^initial_data\.shell"):
        make_initial_data(grid, RandomShellData(shell=shell, seed=1))


def test_file_roundtrip(tmp_path, grid16):
    original = make_initial_data(grid16, ModeSumData(modes=((1, 2, 0.4, 0.1),)))
    path = tmp_path / "f.kp5f"
    write_field(path, original, time=0.25)
    loaded = make_initial_data(grid16, FileData(path=str(path)))
    assert (loaded - original).l2_norm() <= 1e-13


def test_file_grid_mismatch(tmp_path, grid16):
    other = make_grid(32, 16, 2 * np.pi, 2 * np.pi)
    f = make_initial_data(other, ModeSumData(modes=((1, 0, 1.0, 0.0),)))
    path = tmp_path / "f.kp5f"
    write_field(path, f)
    with pytest.raises(FormatError):
        make_initial_data(grid16, FileData(path=str(path)))


def test_unknown_spec_rejected(grid16):
    with pytest.raises(ConfigError):
        make_initial_data(grid16, object())


@pytest.mark.parametrize("widths", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -0.5), (float("nan"), 1.0)])
def test_gaussian_rejects_non_positive_widths(widths):
    sigma_x, sigma_y = widths
    name = "sigma_x" if not sigma_x > 0 else "sigma_y"
    with pytest.raises(ValueError, match=name):
        GaussianData(amplitude=1.0, sigma_x=sigma_x, sigma_y=sigma_y)
