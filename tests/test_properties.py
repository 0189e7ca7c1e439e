"""Property tests for the helpers every zero-mode, reality and flow path
goes through."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kp5 import DispersionParams, Field, KPSign, SpaceTimeField, make_grid
from kp5.errors import ZeroMassViolationError
from kp5.evolution import linear_propagate
from kp5.field import hermitian_reflect
from kp5.symbols import _ZERO_LINE_TOL, require_zero_x_mean, zero_mode_project

sizes = st.sampled_from([4, 6, 8, 16])
seeds = st.integers(min_value=0, max_value=2**32 - 1)
scalars = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@given(nx=sizes, ny=sizes, seed=seeds)
def test_zero_mode_project_is_idempotent_and_empties_the_line(nx, ny, seed):
    grid = make_grid(nx, ny, 2 * np.pi, 2 * np.pi)
    f = Field.from_spectral(grid, _complex(np.random.default_rng(seed), grid.shape))
    once = zero_mode_project(f)
    twice = zero_mode_project(once)
    assert np.all(once.data[:, 0] == 0.0)
    assert once.data.tobytes() == twice.data.tobytes()
    assert np.array_equal(once.data[:, 1:], f.data[:, 1:])
    assert once.reality == twice.reality == f.reality


@given(nx=sizes, ny=sizes, seed=seeds, a=scalars, b=scalars)
def test_hermitian_symmetrised_spectra_are_real_under_real_arithmetic(nx, ny, seed, a, b):
    grid = make_grid(nx, ny, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(seed)
    raw = _complex(rng, grid.shape)
    f = Field.from_spectral(grid, 0.5 * (raw + hermitian_reflect(raw)))
    raw = _complex(rng, grid.shape)
    g = Field.from_spectral(grid, 0.5 * (raw + hermitian_reflect(raw)))
    assert f.reality and g.reality
    for combined in (f + g, f - g, a * f, f * b, a * f - b * g):
        assert combined.reality
    assert not (f * complex(a, 1.0)).reality


@given(
    nx=sizes,
    seed=seeds,
    exponent=st.floats(min_value=-14.0, max_value=-10.0),
    spacetime=st.booleans(),
)
def test_require_zero_x_mean_raises_exactly_above_the_tolerance(nx, seed, exponent, spacetime):
    grid = make_grid(nx, nx, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(seed)
    shape = (4,) + grid.shape if spacetime else grid.shape
    data = _complex(rng, shape)
    data[..., 0] *= 10.0**exponent / np.max(np.abs(data[..., 0]))
    f = SpaceTimeField(grid, 4, 1.0, data) if spacetime else Field(grid, data, reality=False)
    content = f.x_mean_content()
    assume(content != _ZERO_LINE_TOL)
    if content > _ZERO_LINE_TOL:
        with pytest.raises(ZeroMassViolationError):
            require_zero_x_mean(f)
    else:
        require_zero_x_mean(f)


@given(
    seed=seeds,
    t=st.floats(min_value=0.0, max_value=1e-5),
    s=st.floats(min_value=0.0, max_value=1e-5),
    alpha=st.sampled_from([-1.0, 0.0, 1.0]),
    sign=st.sampled_from(list(KPSign)),
)
def test_linear_flow_group_law(seed, t, s, alpha, sign):
    grid = make_grid(16, 16, 2 * np.pi, 2 * np.pi)
    params = DispersionParams(kp_sign=sign, alpha=alpha)
    samples = np.random.default_rng(seed).standard_normal(grid.shape)
    f = zero_mode_project(Field.from_physical(grid, samples))
    composed = linear_propagate(linear_propagate(f, t, params), s, params)
    direct = linear_propagate(f, t + s, params)
    assert (composed - direct).l2_norm() <= 1e-11 * f.l2_norm()
