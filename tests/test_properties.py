"""Property tests for the helpers every zero-mode, reality and flow path
goes through."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kp5 import (
    DispersionParams,
    Field,
    KPSign,
    NormSpec,
    SpaceTimeField,
    Trajectory,
    apply_symbol,
    bourgain_norm,
    bracket,
    cutoff_psi,
    dealias,
    dispersion_omega,
    dyadic_eta,
    energy_functional,
    make_grid,
    mass,
    momentum,
    nonlinear_rhs,
    omega_on_grid,
    residual_check,
    resonance,
    sample_linear_flow,
    sobolev_aniso_norm,
    step_splitstep,
    tilde_norm,
    x_antiderivative,
    x_derivative,
)
from kp5.duhamel import _trapezoid_prefix
from kp5.errors import SingularFrequencyError, ZeroMassViolationError
from kp5.evolution import linear_propagate
from kp5.field import _column_sums, _defect, _mirrored_total, hermitian_complete, hermitian_reflect, is_hermitian
from kp5.symbols import _ZERO_LINE_TOL, require_zero_x_mean, zero_mode_project

sizes = st.sampled_from([4, 6, 8, 16])
seeds = st.integers(min_value=0, max_value=2**32 - 1)
scalars = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _symmetrised(rng, shape):
    raw = _complex(rng, shape)
    return 0.5 * (raw + hermitian_reflect(raw))


@given(nx=sizes, ny=sizes, seed=seeds)
def test_zero_mode_project_is_idempotent_and_empties_the_line(nx, ny, seed):
    grid = make_grid(nx, ny, 2 * np.pi, 2 * np.pi)
    f = Field.from_spectral(grid, _symmetrised(np.random.default_rng(seed), grid.shape))
    once = zero_mode_project(f)
    twice = zero_mode_project(once)
    assert np.all(once.data[:, 0] == 0.0)
    assert once.data.tobytes() == twice.data.tobytes()
    assert np.array_equal(once.data[:, 1:], f.data[:, 1:])


@given(nx=sizes, ny=sizes, seed=seeds, a=scalars, b=scalars)
def test_hermitian_symmetrised_spectra_are_real_under_real_arithmetic(nx, ny, seed, a, b):
    grid = make_grid(nx, ny, 2 * np.pi, 2 * np.pi)
    rng = np.random.default_rng(seed)
    f = Field.from_spectral(grid, _symmetrised(rng, grid.shape))
    g = Field.from_spectral(grid, _symmetrised(rng, grid.shape))
    for combined in (f + g, f - g, a * f, f * b, a * f - b * g):
        assert is_hermitian(combined.data)


@given(
    nx=sizes,
    ny=sizes,
    seed=seeds,
    a=scalars,
    t=st.floats(min_value=0.0, max_value=1.0),
    sign=st.sampled_from(list(KPSign)),
)
def test_every_field_operation_returns_a_real_field(nx, ny, seed, a, t, sign):
    """The reality invariant: each public operation that returns a ``Field``
    gives a Hermitian spectrum and float64 physical samples."""
    grid = make_grid(nx, ny, 2 * np.pi, 3 * np.pi)
    rng = np.random.default_rng(seed)
    f = Field.from_physical(grid, rng.standard_normal(grid.shape))
    g = Field.from_physical(grid, rng.standard_normal(grid.shape))
    # the x-derivatives and the Strang step take dealiased, zero-mean data
    smooth = dealias(zero_mode_project(f))
    params = DispersionParams(kp_sign=sign, alpha=1.0)
    outputs = {
        "add": f + g,
        "sub": f - g,
        "rmul": a * f,
        "mul": f * a,
        "neg": -f,
        "zero_mode_project": zero_mode_project(f),
        "dealias": dealias(f),
        "x_derivative": x_derivative(smooth),
        "x_antiderivative": x_antiderivative(smooth),
        "apply_symbol": apply_symbol(f, lambda xi, mu: (1.0 + xi**2) ** 0.5 * (1.0 + mu**2)),
        "linear_propagate": linear_propagate(f, t, params),
        "step_splitstep": step_splitstep(smooth, 1e-3, params),
        "nonlinear_rhs": nonlinear_rhs(f),
        "from_spectral": Field.from_spectral(grid, f.data),
    }
    for name, out in outputs.items():
        assert is_hermitian(out.data), name
        assert out.to_physical().dtype == np.float64, name


even_sizes = st.integers(min_value=2, max_value=32).map(lambda half: 2 * half)


@given(nx=even_sizes, ny=even_sizes, seed=seeds)
def test_hermitian_complete_rebuilds_real_spectra_from_the_half_spectrum(nx, ny, seed):
    rng = np.random.default_rng(seed)
    raw = _complex(rng, (ny, nx))
    exact = 0.5 * (raw + hermitian_reflect(raw))
    assert hermitian_complete(exact[:, : nx // 2 + 1], nx).tobytes() == exact.tobytes()
    samples = rng.standard_normal((ny, nx))
    full = np.fft.fft2(samples)
    rebuilt = hermitian_complete(np.fft.rfft2(samples), nx)
    assert np.max(np.abs(rebuilt - full)) <= 1e-15 * np.max(np.abs(full))


def _roll_complete(half, nx):
    """Reference completion by concatenation and ``np.roll``, one 2-D half spectrum."""
    mirror = np.conj(np.roll(half[::-1, nx // 2 - 1 : 0 : -1], 1, axis=0))
    return np.concatenate([half, mirror], axis=1)


def _roll_reflect(data):
    return np.conj(np.roll(data[::-1, ::-1], shift=(1, 1), axis=(0, 1)))


@given(nx=even_sizes, ny=even_sizes, nodes=st.integers(min_value=1, max_value=5), seed=seeds)
def test_hermitian_complete_matches_the_roll_formula_bit_for_bit(nx, ny, nodes, seed):
    # arbitrary half spectra, not only Hermitian ones, and a (nodes, ny, nx//2+1)
    # stack shaped like the Picard node array
    batch = _complex(np.random.default_rng(seed), (nodes, ny, nx // 2 + 1))
    assert hermitian_complete(batch[0], nx).tobytes() == _roll_complete(batch[0], nx).tobytes()
    reference = np.stack([_roll_complete(half, nx) for half in batch])
    assert hermitian_complete(batch, nx).tobytes() == reference.tobytes()


@given(nx=even_sizes, ny=even_sizes, seed=seeds)
def test_hermitian_reflect_matches_the_roll_formula_bit_for_bit(nx, ny, seed):
    data = _complex(np.random.default_rng(seed), (ny, nx))
    assert hermitian_reflect(data).tobytes() == _roll_reflect(data).tobytes()


@given(
    nx=even_sizes,
    ny=even_sizes,
    seed=seeds,
    place=st.sampled_from(["xi_zero_column", "nyquist_column", "nyquist_row", "interior"]),
    exponent=st.floats(min_value=-14.0, max_value=-10.0),
)
def test_is_hermitian_reads_half_the_lattice_for_the_full_lattice_verdict(nx, ny, seed, place, exponent):
    rng = np.random.default_rng(seed)
    raw = _complex(rng, (ny, nx))
    data = 0.5 * (raw + hermitian_reflect(raw))
    iy, ix = (int(v) for v in rng.integers(1, (ny, nx)))
    iy, ix = {
        "xi_zero_column": (iy, 0),
        "nyquist_column": (iy, nx // 2),
        "nyquist_row": (ny // 2, ix),
        "interior": (iy, ix),
    }[place]
    data[iy, ix] += 10.0**exponent * np.max(np.abs(data)) * np.exp(2j * np.pi * rng.random())
    full_defect = float(np.max(np.abs(data - _roll_reflect(data))))
    assert _defect(data) == full_defect
    assert is_hermitian(data) == (full_defect <= 1e-12 * float(np.max(np.abs(data))))


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
    f = SpaceTimeField(grid, 1.0, data) if spacetime else Field(grid, data)
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


@given(nt=st.integers(min_value=1, max_value=12), n=sizes, seed=seeds, data=st.data())
def test_selected_time_slices_transform_like_the_full_field(nt, n, seed, data):
    """The strichartz transform of a spectrum that lives on a few xi columns:
    time-transforming only those columns gives the kept slices of the full field."""
    from kp5.spacetime import _kept_slices

    grid = make_grid(n, n, 2 * np.pi, 2 * np.pi)
    columns = np.array(sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1))), dtype=int)
    coeffs = np.zeros((nt, n, n), dtype=complex)
    coeffs[:, :, columns] = _complex(np.random.default_rng(seed), (nt, n, len(columns)))
    u = SpaceTimeField(grid, 2 * np.pi, coeffs)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=nt, max_size=nt)))
    got = _kept_slices(u.data[:, :, columns], columns, n, keep)
    assert got.tobytes() == u.to_physical()[keep].tobytes()


@given(
    nt=st.integers(min_value=1, max_value=6),
    nx=sizes,
    ny=sizes,
    seed=seeds,
    real=st.booleans(),
    zero_line=st.booleans(),
    j=st.integers(min_value=0, max_value=6),
    b=st.floats(min_value=-1.0, max_value=1.0),
    sign=st.sampled_from(list(KPSign)),
    data=st.data(),
)
def test_the_column_store_is_invisible(nt, nx, ny, seed, real, zero_line, j, b, sign, data):
    """A field kept as a block on a few xi columns (xi = 0 among them or not) gives the
    same bytes as the full-lattice formulas on its zero-padded lattice, errors included."""
    from kp5 import modulation_project
    from kp5.norms import _sobolev_weights
    from kp5.spacetime import _sigma_lattice

    grid = make_grid(nx, ny, 2 * np.pi, 2 * np.pi)
    params = DispersionParams(kp_sign=sign, alpha=1.0)
    tw = 2 * np.pi
    columns = sorted(data.draw(st.sets(st.integers(0, nx - 1), max_size=nx)))
    rng = np.random.default_rng(seed)
    if real:  # a mirror-closed column set of a real field: every time slice is real
        columns = sorted(set(columns) | {-c % nx for c in columns})
        samples = rng.standard_normal((nt,) + grid.shape)
        source = scipy.fft.ifft(scipy.fft.fft2(samples, axes=(1, 2), norm="ortho"), axis=0, norm="ortho")
    else:
        source = _complex(rng, (nt,) + grid.shape)
    if zero_line:
        source[:, :, 0] = 0.0
    columns = np.array(columns, dtype=int)
    full = np.zeros((nt,) + grid.shape, dtype=complex)
    full[:, :, columns] = source[:, :, columns]
    u = SpaceTimeField._from_block(grid, tw, columns, full[:, :, columns].copy())

    def outcome(compute):
        try:
            return compute()
        except (ValueError, ZeroMassViolationError) as exc:
            return type(exc)

    assert u.nt == nt and np.array_equal(u.columns, columns)
    assert u.data.tobytes() == full.tobytes()
    assert np.float64(u.l2_norm()).tobytes() == np.sqrt(np.sum(_column_sums(full))).tobytes()
    line, scale = float(np.max(np.abs(full[..., 0]))), float(np.max(np.abs(full)))
    assert u.x_mean_content() == (line / scale if scale > 0.0 else 0.0)
    physical = scipy.fft.ifft2(scipy.fft.fft(full, axis=0, norm="ortho"), axes=(1, 2), norm="ortho")
    assert u.to_physical().tobytes() == physical.tobytes()

    spatial = scipy.fft.fft(full, axis=0, norm="ortho")
    got = outcome(lambda: b"".join(f.data.tobytes() for f in u.slices()))
    expected = outcome(lambda: b"".join(Field.from_spectral(grid, s).data.tobytes() for s in spatial))
    assert got == expected
    assert not real or got is not ValueError

    def bourgain():
        require_zero_x_mean(SpaceTimeField(grid, tw, full))
        row, col = _sobolev_weights(grid, 1.0, 0.5)
        weight = bracket(_sigma_lattice(grid, nt, tw, params)) ** b * (row * col)[None, :, :]
        weight[:, :, 0] = 0.0
        return np.sqrt(np.sum(_column_sums(weight * full))).tobytes()

    got = outcome(lambda: np.float64(bourgain_norm(u, NormSpec(1.0, 0.5, b), params)).tobytes())
    assert got == outcome(bourgain)
    assert not zero_line or got is not ZeroMassViolationError

    def projection():
        require_zero_x_mean(SpaceTimeField(grid, tw, full))
        weight = dyadic_eta(j, _sigma_lattice(grid, nt, tw, params))
        support = np.flatnonzero(np.any(weight[:, :, 1:] != 0.0, axis=(0, 1))) + 1
        out = np.zeros_like(full)
        out[:, :, support] = weight[:, :, support] * np.abs(full[:, :, support])
        return out.tobytes()

    assert outcome(lambda: modulation_project(u, j, params).data.tobytes()) == outcome(projection)


def _random_zero_mean(nx, ny, lx, ly, seed):
    grid = make_grid(nx, ny, lx, ly)
    samples = np.random.default_rng(seed).standard_normal(grid.shape)
    return zero_mode_project(Field.from_physical(grid, samples))


lengths = st.floats(min_value=0.5, max_value=100.0)


@given(
    nx=sizes, ny=sizes, lx=lengths, ly=lengths, seed=seeds,
    alpha=st.floats(min_value=-2.0, max_value=2.0),
)
def test_energy_functional_matches_the_uncached_formula(nx, ny, lx, ly, seed, alpha):
    f = _random_zero_mean(nx, ny, lx, ly, seed)
    grid = f.grid
    xi = grid.xi_mesh
    mu = grid.mu_mesh
    xi_safe = np.where(xi == 0.0, 1.0, xi)
    weights = 0.5 * xi**4 - 0.5 * alpha * xi**2 + 0.5 * (mu / xi_safe) ** 2
    weights[:, 0] = 0.0
    cols = nx // 2 + 1
    quadratic = grid.cell_area * _mirrored_total(_column_sums(f._stored, weights[:, :cols]))
    u = np.real(f.to_physical())
    cubic = grid.cell_area * float(np.sum(u**3)) / 6.0
    energy = energy_functional(f, alpha)
    # the weights are unchanged bit for bit; u * u * u and u**3 may differ
    # in the last bit of each sample
    assert energy == quadratic + grid.cell_area * float(np.sum(u * u * u)) / 6.0
    tolerance = 4 * np.finfo(float).eps * (abs(quadratic) + abs(cubic))
    assert abs(energy - (quadratic + cubic)) <= tolerance


@given(
    nx=sizes, ny=sizes, lx=lengths, ly=lengths, seed=seeds,
    s1=st.floats(min_value=0.0, max_value=3.0), s2=st.floats(min_value=0.0, max_value=3.0),
)
def test_sobolev_aniso_norm_matches_the_uncached_formula(nx, ny, lx, ly, seed, s1, s2):
    f = _random_zero_mean(nx, ny, lx, ly, seed)
    w = bracket(f.grid.xi_mesh) ** s1 * bracket(f.grid.mu_mesh) ** s2
    half = w[:, : nx // 2 + 1] * f._stored
    assert sobolev_aniso_norm(f, NormSpec(s1, s2)) == float(np.sqrt(_mirrored_total(_column_sums(half))))


@given(
    nx=sizes, ny=sizes, lx=lengths, ly=lengths, seed=seeds,
    s1=st.floats(min_value=0.0, max_value=3.0), s2=st.floats(min_value=0.0, max_value=3.0),
    alpha=st.floats(min_value=-2.0, max_value=2.0),
)
def test_every_lattice_norm_matches_its_full_lattice_formula(nx, ny, lx, ly, seed, s1, s2, alpha):
    """The half-spectrum sums agree with np.linalg.norm and np.sum over the
    completed lattice to 1e-13 of the summed magnitudes."""
    f = _random_zero_mean(nx, ny, lx, ly, seed)
    grid, data = f.grid, f.data
    xi, mu = np.abs(grid.xi_mesh), np.abs(grid.mu_mesh)

    def close(got, expected, scale):
        assert abs(got - expected) <= 1e-13 * scale

    l2 = float(np.linalg.norm(data))
    close(f.l2_norm(), l2, l2)
    close(mass(f), grid.cell_area * float(np.sum(np.abs(data) ** 2)), grid.cell_area * l2**2)
    assert momentum(f) == float(np.real(data[0, 0])) * np.sqrt(nx * ny) * grid.cell_area
    sobolev = float(np.linalg.norm(bracket(xi) ** s1 * bracket(mu) ** s2 * data))
    close(sobolev_aniso_norm(f, NormSpec(s1, s2)), sobolev, sobolev)
    w = 1.0 + xi[:, 1:] ** s1 + mu[:, 1:] ** s2 / xi[:, 1:]
    tilde = float(np.linalg.norm(w * data[:, 1:]))
    close(tilde_norm(f, s1, s2), tilde, tilde)
    xi_safe = np.where(xi == 0.0, 1.0, xi)
    weights = 0.5 * xi**4 - 0.5 * alpha * xi**2 + 0.5 * (mu / xi_safe) ** 2
    weights[:, 0] = 0.0
    u = f.to_physical()
    cubic = grid.cell_area * float(np.sum(u * u * u)) / 6.0
    terms = grid.cell_area * weights * np.abs(data) ** 2
    close(energy_functional(f, alpha), float(np.sum(terms)) + cubic, float(np.sum(np.abs(terms))) + abs(cubic))
    params = DispersionParams(kp_sign=KPSign.KP1, alpha=alpha)
    traj = Trajectory(np.arange(3) * 0.1, (f, 2.0 * f, -f))
    omega = omega_on_grid(grid, params)
    residual = float(np.linalg.norm((-f - f).data / (2.0 * 0.1) + 1j * omega * (2.0 * f).data))
    close(residual_check(traj, params), residual, residual)
    flow = sample_linear_flow(f, 4, 1.0, params)
    close(flow.l2_norm(), float(np.linalg.norm(flow.data)), float(np.linalg.norm(flow.data)))
    weight = bracket(flow.sigma(params)) ** 0.5 * (bracket(xi) ** s1 * bracket(mu) ** s2)[None]
    weight[:, :, 0] = 0.0
    bourgain = float(np.linalg.norm(weight * flow.data))
    close(bourgain_norm(flow, NormSpec(s1, s2, b=0.5), params), bourgain, bourgain)


# the resonance suite's draw: sign times a log-uniform magnitude in [1e-2, 1e2]
frequencies = st.builds(
    lambda exponent, sign: sign * 10.0**exponent,
    st.floats(min_value=-2.0, max_value=2.0),
    st.sampled_from([-1.0, 1.0]),
)


@given(
    xi1=frequencies, xi2=frequencies, mu1=frequencies, mu2=frequencies,
    alpha=st.floats(min_value=-2.0, max_value=2.0),
    sign=st.sampled_from(list(KPSign)),
)
def test_resonance_identity_holds_to_rounding(xi1, xi2, mu1, mu2, alpha, sign):
    """The closed form equals omega(sum) - omega_1 - omega_2 up to a rounding
    bound scaled by the terms of the difference, away from the degenerate
    surface the suite rejects (|xi1 + xi2| < 1e-3)."""
    assume(abs(xi1 + xi2) >= 1e-3)
    params = DispersionParams(kp_sign=sign, alpha=alpha)
    closed = resonance(xi1, xi2, mu1, mu2, params)
    w_sum = dispersion_omega(xi1 + xi2, mu1 + mu2, params)
    w1 = dispersion_omega(xi1, mu1, params)
    w2 = dispersion_omega(xi2, mu2, params)
    scale = abs(w_sum) + abs(w1) + abs(w2) + abs(closed)
    assert abs(closed - (w_sum - w1 - w2)) <= 256 * np.finfo(float).eps * scale


@given(
    xi1=frequencies, xi2=frequencies, mu1=frequencies, mu2=frequencies,
    line=st.sampled_from([None, "xi1", "xi2", "sum"]),
    zero=st.sampled_from([0.0, -0.0]),
    alpha=st.floats(min_value=-2.0, max_value=2.0),
    sign=st.sampled_from(list(KPSign)),
)
def test_a_scalar_resonance_is_the_array_formula_to_the_bit(xi1, xi2, mu1, mu2, line, zero, alpha, sign):
    """A scalar call returns the bits of the one-element array call, and the two
    raise on the same points: those on the lines xi1 = 0, xi2 = 0 and xi1 + xi2 = 0."""
    if line == "xi1":
        xi1 = zero
    elif line == "xi2":
        xi2 = zero
    elif line == "sum":
        xi2 = -xi1
    params = DispersionParams(kp_sign=sign, alpha=alpha)
    point = (xi1, xi2, mu1, mu2)
    if xi1 == 0.0 or xi2 == 0.0 or xi1 + xi2 == 0.0:
        with pytest.raises(SingularFrequencyError):
            resonance(*point, params)
        with pytest.raises(SingularFrequencyError):
            resonance(*(np.array([v]) for v in point), params)
    else:
        assert line is None
        got = resonance(*point, params)
        assert type(got) is float
        assert np.float64(got).tobytes() == resonance(*(np.array([v]) for v in point), params).tobytes()


def _reference_bump(s):
    out = np.zeros_like(s, dtype=float)
    pos = s > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / s[pos])
    return out


def _reference_psi(t):
    """The cutoff as first written: both mollifier factors on every point and a
    guarded division, with no plateau shortcut."""
    t_abs = np.abs(np.asarray(t, dtype=float))
    num = _reference_bump(2.0 - t_abs)
    den = num + _reference_bump(t_abs - 1.0)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


# finite floats over the whole range, mixed with draws near the transition band
cutoff_points = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-3.0, max_value=3.0),
)


@given(t=arrays(np.float64, st.integers(min_value=1, max_value=64), elements=cutoff_points))
def test_cutoff_psi_matches_the_full_array_formula_bit_for_bit(t):
    assert cutoff_psi(t).tobytes() == _reference_psi(t).tobytes()
    assert np.float64(cutoff_psi(float(t[0]))).tobytes() == _reference_psi(t[:1]).tobytes()


@given(
    x=arrays(
        np.float64,
        st.integers(min_value=1, max_value=64),
        elements=st.one_of(cutoff_points, st.floats(min_value=-(2.0**42), max_value=2.0**42)),
    )
)
def test_dyadic_eta_matches_the_full_array_formula_bit_for_bit(x):
    assert dyadic_eta(0, x).tobytes() == _reference_psi(x).tobytes()
    for j in range(1, 41):
        reference = _reference_psi(np.ldexp(x, -j)) - _reference_psi(np.ldexp(x, 1 - j))
        assert dyadic_eta(j, x).tobytes() == reference.tobytes(), j


@given(
    data=st.integers(min_value=2, max_value=64).flatmap(
        lambda n: arrays(
            np.complex128,
            (n, 2, 3),
            elements=st.one_of(
                st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                # signed zeros, which an empty carried sum must leave as they are
                st.sampled_from([complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]),
            ),
        )
    ),
    h=st.floats(min_value=1e-6, max_value=1.0),
    pick=st.data(),
)
def test_blocked_trapezoid_prefix_matches_the_whole_array_prefix_bit_for_bit(data, h, pick):
    n = len(data)
    block = pick.draw(st.integers(min_value=1, max_value=n + 1), label="block")
    whole = np.empty_like(data)
    whole[0] = 0.0
    np.add(data[1:], data[:-1], out=whole[1:])
    whole[1:] *= 0.5 * h
    np.cumsum(whole[1:], axis=0, out=whole[1:])
    blocked = np.empty_like(data)
    carry = None
    for start in range(0, n, block):
        b = slice(start, min(start + block, n))
        carry = _trapezoid_prefix(data[b], h, carry, out=blocked[b])
    assert blocked.tobytes() == whole.tobytes()
