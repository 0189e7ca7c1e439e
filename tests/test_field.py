"""Field transforms: reality-flagged fields go through the real half spectrum,
complex ones through the full complex transforms."""

import sys
import threading
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.fft

from kp5 import Field, make_grid
from kp5.field import hermitian_complete, hermitian_reflect

shapes = [(4, 4), (6, 8), (10, 16), (34, 36), (64, 64), (128, 64), (128, 128)]


def _hermitian(rng, shape):
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return 0.5 * (raw + hermitian_reflect(raw))


@pytest.mark.parametrize("ny, nx", shapes)
@pytest.mark.parametrize("seed", range(3))
def test_real_samples_give_an_exactly_hermitian_spectrum_and_round_trip(ny, nx, seed):
    grid = make_grid(nx, ny, 3.0, 5.0)
    samples = np.random.default_rng(seed).standard_normal(grid.shape)
    f = Field.from_physical(grid, samples)
    assert f.reality
    assert f.reality_defect() == 0.0
    back = f.to_physical()
    assert back.dtype == np.float64
    assert np.max(np.abs(back - samples)) <= 1e-15 * np.max(np.abs(samples))


@pytest.mark.parametrize("ny, nx", shapes)
@pytest.mark.parametrize("defect", [0.0, 1e-13])
def test_reality_flagged_fields_invert_like_the_real_part_of_ifft2(ny, nx, defect):
    grid = make_grid(nx, ny, 1.0, 1.0)
    rng = np.random.default_rng(nx * ny)
    data = _hermitian(rng, grid.shape)
    # a raw-constructed field keeps its flag even with a Hermitian defect below the
    # 1e-12 tolerance of is_hermitian
    scale = float(np.max(np.abs(data)))
    data += defect * scale * np.exp(2j * np.pi * rng.random(grid.shape))
    f = Field(grid, data.copy(), reality=True)
    assert (f.reality_defect() > 0.0) == (defect > 0.0)
    assert f.reality_defect() <= 3.0 * defect * scale
    reference = np.fft.ifft2(data, norm="ortho").real
    assert np.max(np.abs(f.to_physical() - reference)) <= 1e-12 * np.max(np.abs(data))


@pytest.mark.parametrize("ny, nx", shapes)
def test_complex_samples_keep_the_full_complex_transforms(ny, nx):
    grid = make_grid(nx, ny, 1.0, 1.0)
    rng = np.random.default_rng(nx + ny)
    samples = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = Field.from_physical(grid, samples)
    assert not f.reality
    assert f.data.tobytes() == scipy.fft.fft2(samples, norm="ortho").tobytes()
    assert f.to_physical().tobytes() == scipy.fft.ifft2(f.data, norm="ortho").tobytes()


def test_a_raw_real_field_takes_its_stored_half_as_authoritative():
    grid = make_grid(16, 12, 1.0, 1.0)
    rng = np.random.default_rng(5)
    data = _hermitian(rng, grid.shape)
    data += 1e-13 * float(np.max(np.abs(data))) * np.exp(2j * np.pi * rng.random(grid.shape))
    f = Field(grid, data.copy(), reality=True)
    assert f.data.tobytes() == data.tobytes()  # the lattice it was given, defect and all
    assert f.reality_defect() > 0.0
    half = data[:, : grid.nx // 2 + 1]
    assert f.to_physical().tobytes() == scipy.fft.irfft2(half, s=grid.shape, norm="ortho").tobytes()
    assert f.x_mean_content() == float(np.max(np.abs(half[:, 0]))) / float(np.max(np.abs(half)))
    for derived, stored in ((-f, -half), (f + f, half + half), (2.0 * f, half * 2.0)):
        assert derived.reality
        assert derived.data.tobytes() == hermitian_complete(stored, grid.nx).tobytes()


def test_half_backed_fields_are_immutable_and_complete_once():
    grid = make_grid(8, 8, 1.0, 1.0)
    f = Field.from_physical(grid, np.random.default_rng(0).standard_normal(grid.shape))
    assert f.data is f.data
    assert not f.data.flags.writeable
    with pytest.raises(FrozenInstanceError):
        f.reality = False
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
