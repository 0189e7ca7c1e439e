import numpy as np
import pytest
import scipy.fft

from kp5 import (
    DispersionParams,
    Field,
    GaussianData,
    KPSign,
    NormSpec,
    SolverConfig,
    Trajectory,
    dealias,
    dispersion_omega,
    duhamel_picard,
    energy_functional,
    evolve,
    linear_propagate,
    linear_trajectory,
    make_grid,
    make_initial_data,
    mass,
    nonlinear_rhs,
    omega_on_grid,
    residual_check,
    sobolev_aniso_norm,
    step_splitstep,
    x_derivative,
    zero_mode_project,
)
from kp5 import duhamel as duhamel_module
from kp5 import field as field_module
from kp5.errors import BlowUpError, ZeroMassViolationError
from kp5.field import hermitian_complete, hermitian_reflect


def _random_zero_mean(grid, seed=0):
    rng = np.random.default_rng(seed)
    return zero_mode_project(Field.from_physical(grid, rng.standard_normal(grid.shape)))


def _line_parts(f: Field) -> np.ndarray:
    """Real and imaginary parts of the xi = 0 line."""
    return np.stack([f.data[:, 0].real, f.data[:, 0].imag])


def test_propagate_t0_identity(grid32, kp1_alpha1):
    f = _random_zero_mean(grid32)
    out = linear_propagate(f, 0.0, kp1_alpha1)
    assert (out - f).l2_norm() <= 1e-14 * f.l2_norm()


def test_propagate_preserves_l2(grid32, kp1_alpha1):
    f = _random_zero_mean(grid32, 1)
    for t in (1e-6, 1e-3, 0.05):
        assert linear_propagate(f, t, kp1_alpha1).l2_norm() == pytest.approx(
            f.l2_norm(), rel=1e-12
        )


def test_propagate_group_law(grid32, kp1_alpha1):
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = _random_zero_mean(grid32, rng.integers(1 << 31))
        s, t = rng.uniform(0.0, 1e-5, 2)
        defect = linear_propagate(linear_propagate(f, s, kp1_alpha1), t, kp1_alpha1) - \
            linear_propagate(f, s + t, kp1_alpha1)
        assert defect.l2_norm() <= 1e-11 * f.l2_norm()


def test_propagate_preserves_sobolev_norms(grid32, kp1_alpha1):
    f = _random_zero_mean(grid32, 3)
    g = linear_propagate(f, 2e-6, kp1_alpha1)
    for s1 in (0, 1, 2):
        for s2 in (0, 1, 2):
            spec = NormSpec(float(s1), float(s2))
            assert sobolev_aniso_norm(g, spec) == pytest.approx(
                sobolev_aniso_norm(f, spec), rel=1e-11
            )


def test_propagate_reality_preserved(grid32, kp1_alpha1):
    f = _random_zero_mean(grid32, 4)
    out = linear_propagate(f, 1e-3, kp1_alpha1)
    assert out.to_physical().dtype == np.float64
    # the stored half carries the bits of the full-lattice product, the mirrors its values
    full = f.data * np.exp(-1j * 1e-3 * omega_on_grid(grid32, kp1_alpha1))
    half = grid32.nx // 2 + 1
    assert out.data[:, :half].tobytes() == full[:, :half].tobytes()
    assert np.max(np.abs(out.data - full)) <= 1e-12


def test_residual_zero_trajectory(grid16, kp1):
    z = Field.zeros(grid16)
    traj = Trajectory(np.arange(3) * 0.1, (z, z, z))
    assert residual_check(traj, kp1) == 0.0


def test_residual_linear_trajectory_small(grid16, kp1_alpha1):
    mode = Field.single_mode(grid16, 1, 1)
    traj = linear_trajectory(mode, 1e-4, 4, kp1_alpha1)
    omega = dispersion_omega(1.0, 1.0, kp1_alpha1)
    # central-difference truncation, equal on the mode and its mirror (-1, -1)
    expected = np.sqrt(2.0) * abs(omega - np.sin(omega * 1e-4) / 1e-4)
    assert residual_check(traj, kp1_alpha1) == pytest.approx(expected, rel=1e-6)
    assert residual_check(traj, kp1_alpha1) < 1e-8


def test_residual_linear_trajectory_kp2(grid16, kp2):
    mode = Field.single_mode(grid16, 1, 2)
    traj = linear_trajectory(mode, 1e-4, 4, kp2)
    assert residual_check(traj, kp2) < 1e-6


def test_residual_frozen_field_positive(grid16, kp1):
    mode = Field.single_mode(grid16, 1, 1)
    traj = Trajectory(np.arange(3) * 1e-2, (mode, mode, mode))
    # stationary non-solution: residual equals |i omega| * amplitude on the mode
    # and on its mirror (-1, -1)
    assert residual_check(traj, kp1) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


def test_residual_requires_equal_spacing(grid16, kp1):
    z = Field.zeros(grid16)
    with pytest.raises(ValueError):
        residual_check(Trajectory(np.array([0.0, 0.1, 0.3]), (z, z, z)), kp1)
    with pytest.raises(ValueError):
        residual_check(Trajectory(np.array([0.0, 0.1]), (z, z)), kp1)


def test_nonlinear_rhs_zero(grid16):
    assert nonlinear_rhs(Field.zeros(grid16)).l2_norm() == 0.0


def test_nonlinear_rhs_single_mode_harmonics(grid16):
    f = Field.single_mode(grid16, 1, 1)
    out = nonlinear_rhs(f)
    live = np.abs(out.data) > 1e-13 * np.max(np.abs(out.data))
    nonzero = {
        (grid16.k_signed_x[ix], grid16.k_signed_y[iy]) for iy, ix in zip(*np.nonzero(live))
    }
    # products of the mode and its mirror land on the doubled frequencies; the
    # xi = 0 line (including the would-be zero mode) is gone
    assert nonzero == {(2, 2), (-2, -2)}
    assert np.all(out.data[:, 0] == 0.0)


@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("seed", range(3))
def test_nonlinear_rhs_folds_the_half_into_the_square_exactly(n, seed):
    grid = make_grid(n, n, 2 * np.pi, 2 * np.pi)
    f = dealias(_random_zero_mean(grid, seed))
    u = f.to_physical()
    composed = x_derivative(dealias(Field.from_physical(grid, u**2))) * 0.5
    out = nonlinear_rhs(f)
    # halving is exact, so every coefficient matches; only the sign of a zero may
    # differ (the trailing complex product sends some -0.0 to +0.0), and adding
    # +0.0 maps both signs to +0.0
    assert (out.data + 0.0).tobytes() == (composed.data + 0.0).tobytes()


def test_nonlinear_rhs_cosine_closed_form(grid32):
    """u = cos x: d/dx(u^2)/2 = -sin(2x)/2, cross-checked against a
    finite-difference oracle on a fine 1D grid."""
    u = np.cos(grid32.x)[None, :] * np.ones((grid32.ny, 1))
    out = nonlinear_rhs(Field.from_physical(grid32, u)).to_physical()

    xs = np.linspace(0, 2 * np.pi, 1 << 16, endpoint=False)
    h = xs[1] - xs[0]
    w = np.cos(xs) ** 2 / 2.0
    oracle = (np.roll(w, -1) - np.roll(w, 1)) / (2 * h)
    closed = -np.sin(2 * xs) / 2.0
    assert np.max(np.abs(oracle - closed)) <= 1e-7  # oracle agrees with the closed form

    expected = -np.sin(2 * grid32.x)[None, :] * np.ones((grid32.ny, 1)) / 2.0
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_step_zero_field(grid16, kp1):
    assert step_splitstep(Field.zeros(grid16), 1e-3, kp1).l2_norm() == 0.0


def test_step_projects_its_input_once_to_a_positive_zero_line(grid16, kp1_alpha1):
    f = _random_zero_mean(grid16, 3)
    data = f.data.copy()
    data[:, 0] = -0.0
    out = step_splitstep(Field(grid16, data), 1e-3, kp1_alpha1)
    assert not np.any(np.signbit(_line_parts(out)))


def test_step_self_convergence_order(kp1_alpha1):
    grid = make_grid(32, 32, 2 * np.pi, 2 * np.pi)
    f0 = make_initial_data(grid, GaussianData(amplitude=0.5, sigma_x=0.8, sigma_y=0.8))

    def march(dt, n):
        f = f0
        for _ in range(n):
            f = step_splitstep(f, dt, kp1_alpha1)
        return f

    dt = 2e-4
    err1 = (march(dt, 8) - march(dt / 2, 16)).l2_norm()
    err2 = (march(dt / 2, 16) - march(dt / 4, 32)).l2_norm()
    order = np.log2(err1 / err2)
    assert order >= 1.9


def test_evolve_zero_data(grid16, kp1):
    cfg = SolverConfig(dt=1e-3, t_final=5e-3)
    traj = evolve(Field.zeros(grid16), cfg, kp1)
    assert all(rec["mass"] == 0.0 for rec in traj.diagnostics)
    assert len(traj.diagnostics) == cfg.n_steps + 1


def test_evolve_momentum_stays_exactly_zero(kp1_alpha1):
    grid = make_grid(32, 32, 4 * np.pi, 4 * np.pi)
    f0 = make_initial_data(grid, GaussianData(amplitude=0.2, sigma_x=1.0, sigma_y=1.0))
    cfg = SolverConfig(dt=1e-3, t_final=0.02)
    traj = evolve(f0, cfg, kp1_alpha1)
    for state in traj.states:
        assert np.all(state.data[:, 0] == 0.0)


@pytest.mark.parametrize("sign", [KPSign.KP1, KPSign.KP2])
def test_evolve_stores_its_input_and_holds_the_line_at_positive_zero(sign):
    grid = make_grid(32, 32, 4 * np.pi, 4 * np.pi)
    f0 = make_initial_data(grid, GaussianData(amplitude=0.3, sigma_x=1.0, sigma_y=1.0))
    data = f0.data.copy()
    data[0, 0] = 1e-16 * np.max(np.abs(data))  # below the 1e-12 tolerance: accepted, then projected
    f0 = Field(grid, data)
    traj = evolve(f0, SolverConfig(dt=1e-3, t_final=0.01), DispersionParams(kp_sign=sign, alpha=0.5))
    assert traj.states[0] is f0  # the input is stored as given
    for state in traj.states[1:]:
        line = _line_parts(state)
        assert np.all(line == 0.0) and not np.any(np.signbit(line))


def test_evolve_requires_zero_x_mean(grid16, kp1):
    f = Field.from_physical(grid16, np.ones(grid16.shape))
    with pytest.raises(ZeroMassViolationError):
        evolve(f, SolverConfig(dt=1e-3, t_final=1e-2), kp1)


def test_evolve_blowup_flushes_partial(kp1):
    grid = make_grid(32, 32, 2 * np.pi, 2 * np.pi)
    spiky = make_initial_data(grid, GaussianData(amplitude=80.0, sigma_x=0.5, sigma_y=0.5))
    cfg = SolverConfig(dt=0.05, t_final=2.0)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(BlowUpError) as err:
            evolve(spiky, cfg, kp1, state_stride=7)
    assert err.value.time_reached is not None
    partial = err.value.partial
    assert partial is not None
    assert len(partial.diagnostics) >= 1
    # the last finite state is preserved even when it falls off the stride
    assert partial.times[-1] == pytest.approx(err.value.time_reached)
    assert partial.final().is_finite()


def test_evolve_cfl_warning(kp1):
    grid = make_grid(16, 16, 2 * np.pi, 2 * np.pi)
    f0 = make_initial_data(grid, GaussianData(amplitude=5.0, sigma_x=1.0, sigma_y=1.0))
    with pytest.warns(RuntimeWarning, match="advection heuristic"):
        try:
            evolve(f0, SolverConfig(dt=0.5, t_final=1.0), kp1)
        except BlowUpError:
            pass


def test_residual_nonlinear_trajectory_second_order(kp1_alpha1):
    # band-limited data: every populated mode satisfies omega*dt << 1, so the
    # central-difference truncation dominates and scales as dt^2
    from kp5 import ModeSumData

    grid = make_grid(16, 16, 2 * np.pi, 2 * np.pi)
    f0 = make_initial_data(grid, ModeSumData(modes=((1, 0, 0.2, 0.0), (1, 1, 0.1, 0.4))))

    def residual_at(dt):
        traj = evolve(f0, SolverConfig(dt=dt, t_final=dt * 8), kp1_alpha1)
        return residual_check(traj, kp1_alpha1, nonlinear=True)

    r1 = residual_at(4e-4)
    r2 = residual_at(2e-4)
    assert r1 > 0.0
    assert r1 / r2 >= 3.0


def test_evolve_conserves_mass_and_energy_desk_scale(kp1_alpha1):
    grid = make_grid(64, 64, 32 * np.pi, 32 * np.pi)
    f0 = make_initial_data(grid, GaussianData(amplitude=0.1, sigma_x=4.0, sigma_y=4.0))
    cfg = SolverConfig(dt=1e-3, t_final=0.05)
    traj = evolve(f0, cfg, kp1_alpha1, state_stride=10)
    masses = np.array([rec["mass"] for rec in traj.diagnostics])
    energies = np.array([rec["energy"] for rec in traj.diagnostics])
    assert np.max(np.abs(masses - masses[0])) <= 1e-10 * masses[0]
    assert np.max(np.abs(energies - energies[0])) <= 1e-3 * abs(energies[0])
    assert mass(traj.final()) == pytest.approx(masses[-1], rel=1e-15)


# -- the march on stored half spectra -------------------------------------------


def _full_dealias(data, grid):
    return np.where(grid.dealias_mask, data, 0.0 + 0.0j)


def _full_rhs(data, grid):
    """The quadratic term as the full-lattice primitives formed it: dealias,
    square on the real half spectrum, complete, dealias, multiply by i*xi."""
    u = scipy.fft.irfft2(_full_dealias(data, grid)[:, : grid.nx // 2 + 1], s=grid.shape, norm="ortho")
    half = scipy.fft.rfft2(0.5 * u * u, norm="ortho")
    edges = half[:, :: grid.nx // 2]
    edges[...] = 0.5 * (edges + hermitian_reflect(edges))
    return _full_dealias(hermitian_complete(half, grid.nx), grid) * (1j * grid.xi_mesh[:1])


def _full_step(data, half_phase, dt, grid):
    """One Strang step on full lattices, with the Field operators' operand order."""
    half = data * half_phase
    mid = half - _full_rhs(half, grid) * complex(0.5 * dt)
    return (half - _full_rhs(mid, grid) * complex(dt)) * half_phase


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("sign", [KPSign.KP1, KPSign.KP2])
def test_evolve_is_bitwise_the_full_lattice_march(n, sign):
    grid = make_grid(n, n, n * np.pi / 4, n * np.pi / 4)
    f0 = make_initial_data(grid, GaussianData(amplitude=0.8, sigma_x=1.75, sigma_y=2.5))
    params = DispersionParams(kp_sign=sign, alpha=1.0)
    cfg = SolverConfig(dt=1e-4, t_final=2e-3)
    monitors = (NormSpec(1.0, 0.0), NormSpec(0.0, 1.0))
    traj = evolve(f0, cfg, params, monitors)

    half_phase = np.exp(-0.5j * cfg.dt * omega_on_grid(grid, params))
    data = f0.data.copy()
    data[:, 0] = 0.0
    reference = []
    for i in range(1, cfg.n_steps + 1):
        data = _full_step(data, half_phase, cfg.dt, grid)
        state = Field(grid, data.copy())
        record = {"t": i * cfg.dt, "mass": mass(state), "energy": energy_functional(state, params.alpha)}
        record.update((spec.label, sobolev_aniso_norm(state, spec)) for spec in monitors)
        reference.append(record)
    assert traj.final().data.tobytes() == data.tobytes()
    assert list(traj.diagnostics[1:]) == reference


def test_the_march_builds_no_full_lattice_and_picard_one_per_node(monkeypatch, kp1_alpha1):
    grid = make_grid(32, 32, 8 * np.pi, 8 * np.pi)
    x, y = np.meshgrid(grid.x, grid.y)
    f0 = zero_mode_project(Field.from_physical(grid, np.exp(-((x - 12.0) ** 2 + (y - 12.0) ** 2) / 8.0)))
    completions = []

    def counting(half, nx):
        completions.append(nx)
        return hermitian_complete(half, nx)

    monkeypatch.setattr(field_module, "hermitian_complete", counting)
    monkeypatch.setattr(duhamel_module, "hermitian_complete", counting)
    traj = evolve(f0, SolverConfig(dt=1e-3, t_final=1e-2), kp1_alpha1, state_stride=5, monitors=(NormSpec(1, 0),))
    assert len(traj.diagnostics) == 11
    assert completions == []  # states, steps and diagnostics all stay on the stored half
    result = duhamel_picard(0.01 * f0, SolverConfig(dt=1e-3, t_final=1e-2, quadrature_nodes=3), kp1_alpha1)
    assert len(completions) == len(result.trajectory.times) == 21  # Picard's node states, one each
