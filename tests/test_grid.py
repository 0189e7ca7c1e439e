import numpy as np
import pytest

from kp5 import Field, make_grid
from kp5.errors import GridError


def test_wavenumbers_4x4_unit_box():
    g = make_grid(4, 4, 2 * np.pi, 2 * np.pi)
    assert sorted(g.xi) == [-2.0, -1.0, 0.0, 1.0]
    assert g.xi[0] == 0.0


def test_smallest_positive_wavenumber():
    g = make_grid(8, 4, 1.0, 2 * np.pi)
    positive = g.xi[g.xi > 0]
    assert np.min(positive) == pytest.approx(2 * np.pi, rel=1e-15)


@pytest.mark.parametrize(
    "nx,ny,lx,ly",
    [
        (5, 4, 1.0, 1.0),   # odd nx
        (4, 7, 1.0, 1.0),   # odd ny
        (2, 4, 1.0, 1.0),   # too small
        (4, 4, 0.0, 1.0),   # zero length
        (4, 4, 1.0, -2.0),  # negative length
    ],
)
def test_rejects_bad_geometry(nx, ny, lx, ly):
    with pytest.raises(GridError):
        make_grid(nx, ny, lx, ly)


def test_rejects_a_grid_whose_complex_lattice_numpy_cannot_index():
    with pytest.raises(GridError, match="too large to index"):
        make_grid(2**62, 4, 1.0, 1.0)
    with pytest.raises(GridError, match="too large to index"):  # no int64 wraparound
        make_grid(np.int64(2**30), np.int64(2**29), 1.0, 1.0)
    assert make_grid(2**30, 2**28, 1.0, 1.0).shape == (2**28, 2**30)  # 2**62 bytes: tables stay lazy


def test_physical_sample_positions():
    g = make_grid(8, 4, 4.0, 2.0)
    assert np.allclose(g.x, np.arange(8) * 0.5)
    assert np.allclose(g.y, np.arange(4) * 0.5)
    assert g.cell_area == pytest.approx(4.0 * 2.0 / 32)


def test_index_of_mode_roundtrip():
    g = make_grid(8, 8, 1.0, 1.0)
    for k in range(-4, 4):
        for l in range(-4, 4):
            iy, ix = g.index_of_mode(k, l)
            assert g.k_signed_x[ix] == k
            assert g.k_signed_y[iy] == l
    with pytest.raises(GridError):
        g.index_of_mode(4, 0)


def test_dealias_mask_band():
    g = make_grid(12, 12, 1.0, 1.0)
    # nx/3 = 4: |k| <= 4 kept, |k| >= 5 dropped
    keep = g.dealias_mask
    for ix, k in enumerate(g.k_signed_x):
        for iy, l in enumerate(g.k_signed_y):
            assert keep[iy, ix] == (abs(k) <= 4 and abs(l) <= 4)


_TABLES = ("x", "y", "xi", "mu", "xi_mesh", "mu_mesh", "k_signed_x", "k_signed_y", "dealias_mask")


@pytest.mark.parametrize("name", _TABLES)
def test_every_cached_table_is_read_only(name):
    g = make_grid(8, 6, 2.0, 3.0)
    table = getattr(g, name)
    assert getattr(g, name) is table  # cached, so every caller shares it
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[(0,) * table.ndim] = 1


def test_meshes_are_the_broadcast_one_dimensional_tables():
    g = make_grid(8, 6, 2.0, 3.0)
    assert g.xi_mesh.shape == g.mu_mesh.shape == g.shape
    assert np.array_equal(g.xi_mesh, np.broadcast_to(g.xi[None, :], g.shape))
    assert np.array_equal(g.mu_mesh, np.broadcast_to(g.mu[:, None], g.shape))
    # views of one table each, so the two can never disagree
    assert np.shares_memory(g.xi_mesh, g.xi) and np.shares_memory(g.mu_mesh, g.mu)


def test_plancherel_and_roundtrip_100_random_fields():
    g = make_grid(16, 24, 3.0, 5.0)
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = rng.standard_normal(g.shape)
        f = Field.from_physical(g, u)
        phys_sum = np.sum(u * u)
        spec_sum = f.l2_norm() ** 2
        assert abs(phys_sum - spec_sum) <= 1e-12 * phys_sum
        assert np.max(np.abs(f.to_physical() - u)) <= 1e-12 * np.max(np.abs(u))


def test_field_data_is_write_locked(grid16):
    f = Field.zeros(grid16)
    with pytest.raises(ValueError):
        f.data[0, 0] = 1.0


def test_field_arithmetic_requires_same_grid(grid16):
    other = make_grid(16, 16, 1.0, 1.0)
    with pytest.raises(ValueError):
        Field.zeros(grid16) + Field.zeros(other)
