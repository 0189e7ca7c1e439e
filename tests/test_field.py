"""Field transforms: every field is real and goes through the real half
spectrum; complex input is rejected."""

import sys
import threading
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.fft

from kp5 import DispersionParams, Field, KPSign, SpaceTimeField, apply_symbol, make_grid, sample_linear_flow
from kp5.errors import SymbolEvaluationError
from kp5.field import hermitian_complete, hermitian_reflect

shapes = [(4, 4), (6, 8), (10, 16), (34, 36), (64, 64), (128, 64), (128, 128)]


def _hermitian(rng, shape):
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 0.5 * (raw + hermitian_reflect(raw))


def _defect(data):
    """max |c(k,l) - conj(c(-k,-l))| over the whole lattice."""
    return float(np.max(np.abs(data - hermitian_reflect(data))))


@pytest.mark.parametrize("ny, nx", shapes)
@pytest.mark.parametrize("seed", range(3))
def test_real_samples_give_an_exactly_hermitian_spectrum_and_round_trip(ny, nx, seed):
    grid = make_grid(nx, ny, 3.0, 5.0)
    samples = np.random.default_rng(seed).standard_normal(grid.shape)
    f = Field.from_physical(grid, samples)
    assert _defect(f.data) == 0.0
    back = f.to_physical()
    assert back.dtype == np.float64
    assert np.max(np.abs(back - samples)) <= 1e-15 * np.max(np.abs(samples))


@pytest.mark.parametrize("ny, nx", shapes)
@pytest.mark.parametrize("defect", [0.0, 1e-13])
def test_raw_fields_invert_like_the_real_part_of_ifft2(ny, nx, defect):
    grid = make_grid(nx, ny, 1.0, 1.0)
    rng = np.random.default_rng(nx * ny)
    data = _hermitian(rng, grid.shape)
    # a raw-constructed field takes data with a Hermitian defect below the
    # 1e-12 tolerance of is_hermitian
    scale = float(np.max(np.abs(data)))
    data += defect * scale * np.exp(2j * np.pi * rng.random(grid.shape))
    f = Field(grid, data.copy())
    assert (_defect(f.data) > 0.0) == (defect > 0.0)
    assert _defect(f.data) <= 3.0 * defect * scale
    reference = np.fft.ifft2(data, norm="ortho").real
    assert np.max(np.abs(f.to_physical() - reference)) <= 1e-12 * np.max(np.abs(data))


@pytest.mark.parametrize("ny, nx", shapes)
def test_complex_samples_and_asymmetric_coefficients_are_rejected(ny, nx):
    """A real field's own spectrum is accepted bit for bit; complex samples, an
    imaginary part on any of the four self-mirrored modes and a mode without
    its mirror are not."""
    grid = make_grid(nx, ny, 1.0, 1.0)
    rng = np.random.default_rng(nx + ny)
    real = Field.from_physical(grid, rng.standard_normal(grid.shape))
    assert Field.from_spectral(grid, real.data).data.tobytes() == real.data.tobytes()
    with pytest.raises(ValueError, match="real field"):
        Field.from_physical(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    scale = float(np.max(np.abs(real.data)))
    for iy in (0, ny // 2):
        for ix in (0, nx // 2):
            coeffs = real.data.copy()
            coeffs[iy, ix] += 1j * scale
            with pytest.raises(ValueError, match="real field"):
                Field.from_spectral(grid, coeffs)
    coeffs = real.data.copy()
    coeffs[1, 1] += scale  # (1, 1) without (-1, -1)
    with pytest.raises(ValueError, match="real field"):
        Field.from_spectral(grid, coeffs)


def test_single_mode_is_the_amplitude_and_its_conjugate_mirror():
    grid = make_grid(8, 6, 1.0, 1.0)
    a = 0.75 - 0.5j
    f = Field.single_mode(grid, 2, -1, amplitude=a)
    iy, ix = grid.index_of_mode(2, -1)
    assert f.data[iy, ix] == a
    assert f.data[-iy, -ix] == np.conj(a)
    assert np.count_nonzero(f.data) == 2
    x, y = np.meshgrid(np.arange(grid.nx), np.arange(grid.ny))
    wave = 2.0 * np.real(a * np.exp(2j * np.pi * (2 * x / grid.nx - y / grid.ny))) / np.sqrt(grid.nx * grid.ny)
    assert np.max(np.abs(f.to_physical() - wave)) <= 1e-15
    # a self-mirrored mode holds its real amplitude once
    g = Field.single_mode(grid, -4, -3, amplitude=2.0)
    assert np.count_nonzero(g.data) == 1
    assert g.data[grid.index_of_mode(-4, -3)] == 2.0


def test_every_input_that_is_not_a_real_field_is_rejected():
    grid = make_grid(8, 6, 1.0, 1.0)
    rng = np.random.default_rng(1)
    real = Field.from_physical(grid, rng.standard_normal(grid.shape))
    with pytest.raises(ValueError, match="real field"):
        Field.from_physical(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    with pytest.raises(ValueError, match="real field"):
        Field.from_spectral(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    with pytest.raises(ValueError, match="real field"):
        Field.single_mode(grid, -4, -3, amplitude=1j)  # (-4, -3) is its own mirror on 8 x 6
    with pytest.raises(ValueError, match="real scalars"):
        real * 1j
    with pytest.raises(ValueError, match="real scalars"):
        complex(2.0, 0.5) * real
    with pytest.raises(SymbolEvaluationError, match="real field"):
        apply_symbol(real, lambda xi, mu: 1.0 + 1j * np.ones_like(xi))
    # a space-time spectrum of random coefficients has complex time slices
    coeffs = rng.standard_normal((4,) + grid.shape) + 1j * rng.standard_normal((4,) + grid.shape)
    with pytest.raises(ValueError, match="real field"):
        SpaceTimeField(grid, 1.0, coeffs).slices()
    # the flow of a real field samples real slices
    flow = sample_linear_flow(real, 4, 1.0, DispersionParams(kp_sign=KPSign.KP1, alpha=0.0))
    assert all(s.to_physical().dtype == np.float64 for s in flow.slices())


@pytest.mark.parametrize("values", [(np.nan, 0.0), (np.inf, np.inf), (complex(np.inf, 1.0), complex(np.inf, -1.0))],
                         ids=["nan", "inf-and-its-mirror", "complex-inf-and-its-mirror"])
def test_non_finite_coefficients_are_named_not_called_asymmetric(values):
    grid = make_grid(8, 6, 1.0, 1.0)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[1, 2], coeffs[-1, -2] = values
    bad = int(np.count_nonzero(~np.isfinite(coeffs)))
    spectrum = np.zeros((4,) + grid.shape, dtype=np.complex128)
    spectrum[0] = coeffs  # time slice 0 of the flat-in-time field carries the values
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no raw RuntimeWarning on the way to the error
        with pytest.raises(ValueError, match=f"^{bad} of 48 coefficients are not finite$"):
            Field.from_spectral(grid, coeffs)
        with pytest.raises(ValueError, match="coefficients are not finite$"):
            SpaceTimeField(grid, 1.0, spectrum).slices()


def test_from_spectral_checks_the_shape_first_and_keeps_only_a_copy_of_the_half():
    grid = make_grid(8, 6, 1.0, 1.0)
    with pytest.raises(ValueError, match="shape"):
        Field.from_spectral(grid, np.full((6, 6), np.nan))
    coeffs = Field.from_physical(grid, np.random.default_rng(2).standard_normal(grid.shape)).data.copy()
    f = Field.from_spectral(grid, coeffs)
    assert set(vars(f)) == {"grid", "_stored"} and not np.shares_memory(f._stored, coeffs)
    assert f.data.tobytes() == coeffs.tobytes()


def test_a_raw_real_field_takes_its_stored_half_as_authoritative():
    grid = make_grid(16, 12, 1.0, 1.0)
    rng = np.random.default_rng(5)
    data = _hermitian(rng, grid.shape)
    data += 1e-13 * float(np.max(np.abs(data))) * np.exp(2j * np.pi * rng.random(grid.shape))
    f = Field(grid, data)
    half = data[:, : grid.nx // 2 + 1]
    assert set(vars(f)) == {"grid", "_stored"}
    assert f._stored.tobytes() == half.tobytes() and not np.shares_memory(f._stored, data)
    # the other columns of the lattice it was given are dropped, defect and all
    assert f.data.tobytes() == hermitian_complete(half, grid.nx).tobytes() != data.tobytes()
    assert f.to_physical().tobytes() == scipy.fft.irfft2(half, s=grid.shape, norm="ortho").tobytes()
    assert f.x_mean_content() == float(np.max(np.abs(half[:, 0]))) / float(np.max(np.abs(half)))
    for derived, stored in ((-f, -half), (f + f, half + half), (2.0 * f, half * 2.0)):
        assert derived.data.tobytes() == hermitian_complete(stored, grid.nx).tobytes()


def test_a_field_is_one_write_locked_array_and_data_is_built_on_each_read():
    grid = make_grid(8, 8, 1.0, 1.0)
    f = Field.from_physical(grid, np.random.default_rng(0).standard_normal(grid.shape))
    assert set(vars(f)) == {"grid", "_stored"}
    assert f._stored.shape == (grid.ny, grid.nx // 2 + 1) and not f._stored.flags.writeable
    first, second = f.data, f.data
    assert first is not second and first.tobytes() == second.tobytes()
    assert not first.flags.writeable
    assert set(vars(f)) == {"grid", "_stored"}  # reading data caches nothing
    with pytest.raises(FrozenInstanceError):
        f.grid = grid
    with pytest.raises(FrozenInstanceError):
        del f.grid


def test_threads_reading_data_of_one_half_backed_field_get_equal_write_locked_arrays():
    grid = make_grid(64, 64, 1.0, 1.0)
    rng = np.random.default_rng(9)
    fields = [Field.from_physical(grid, rng.standard_normal(grid.shape)) for _ in range(20)]
    expected = [hermitian_complete(f._stored, grid.nx).tobytes() for f in fields]
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    seen = [[] for _ in range(n_threads)]

    def read(i):
        barrier.wait(timeout=30)
        seen[i] = [f.data for f in fields]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for arrays in seen:
        assert [a.tobytes() for a in arrays] == expected
        assert not any(a.flags.writeable for a in arrays)
    assert [f.data.tobytes() for f in fields] == expected



def test_a_zero_xi_line_gives_zero_x_mean_content_whatever_the_scale():
    """The early return for an exactly zero xi = 0 line gives the ratio formula's value
    for every scale, zero, infinite and NaN included."""
    from kp5.field import _x_mean_content

    def formula(data):
        line, scale = float(np.max(np.abs(data[..., 0]))), float(np.max(np.abs(data)))
        return line / scale if scale > 0.0 else 0.0

    for rest in (0.0, -0.0, 1.0, np.nan, np.inf):
        data = np.full((3, 4, 6), rest, dtype=complex)
        data[..., 0] = -0.0 if rest else 0.0
        assert _x_mean_content(data) == formula(data) == 0.0
    data = np.ones((3, 4, 6), dtype=complex)
    data[..., 0] = 0.0
    data[1, 2, 0] = 0.5j
    assert _x_mean_content(data) == formula(data) == 0.5
    data[0, 0, 0] = np.nan
    assert _x_mean_content(data) == formula(data) == 0.0  # a NaN line: the NaN scale gives 0.0
