import tracemalloc

import numpy as np
import pytest

from kp5 import (
    DispersionParams,
    Field,
    KPSign,
    ModeSumData,
    NormSpec,
    SolverConfig,
    duhamel_picard,
    evolve,
    make_grid,
    make_initial_data,
)
from kp5 import duhamel
from kp5.cutoffs import cutoff_psi, cutoff_psi_T
from kp5.dispersion import omega_on_grid
from kp5.errors import ContractionFailureError, ZeroMassViolationError
from kp5.evolution import nonlinear_rhs
from kp5.field import hermitian_complete


def _small_data(grid, l2_target=0.009):
    f = make_initial_data(grid, ModeSumData(modes=((1, 0, 1.0, 0.0), (1, 1, 0.5, 0.3))))
    return f * (l2_target / f.l2_norm())


def _full_lattice_slices(u, grid):
    """Dealiased d/dx(u^2)/2 on time slices of the full spectrum, with complex
    transforms: the full-lattice reference for ``duhamel._nonlinear_slices``."""
    mask = grid.dealias_mask
    phys = np.fft.ifft2(u * mask, axes=(1, 2), norm="ortho")
    return np.fft.fft2(phys * phys, axes=(1, 2), norm="ortho") * (0.5j * grid.xi * mask)


def _whole_array_picard(coeffs, grid, cfg, params, full=False):
    """The iteration with one pass over all nodes per round, each node array
    updated in place: the unblocked reference for ``duhamel_picard``, on the
    plain coefficient array ``coeffs`` of phi.  It iterates on the half
    spectrum with the module's kernel or, with ``full``, on the whole lattice
    with ``_full_lattice_slices``.  Returns the final iterate, the distances
    and ``converged``; raises ``ContractionFailureError`` under the same rule."""
    sub = cfg.quadrature_nodes - 1
    h = cfg.dt / sub
    n_nodes = cfg.n_steps * sub + 1
    cols = grid.nx if full else grid.nx // 2 + 1
    kernel = _full_lattice_slices if full else duhamel._nonlinear_slices
    t = np.arange(n_nodes) * h
    weights = np.full(cols, 1.0 if full else 2.0)
    weights[[0, -1]] = 1.0
    phase_fwd = np.exp(-1j * t[:, None, None] * omega_on_grid(grid, params)[None, :, :cols])
    psi = cutoff_psi(t)[:, None, None]
    psi_t = cutoff_psi_T(t, cfg.cutoff_T)[:, None, None]
    projected = coeffs[:, :cols].copy()
    projected[:, 0] = 0.0
    free = psi * (phase_fwd * projected)
    u = free.copy()
    new = np.empty_like(u)
    distances = []
    increases = 0
    for _ in range(cfg.picard_max_iters):
        with np.errstate(over="ignore", invalid="ignore"):
            integrand = kernel(u, grid)
            np.conj(integrand, out=integrand)
            integrand *= phase_fwd
            np.conj(integrand, out=integrand)
            new[0] = 0.0
            np.add(integrand[1:], integrand[:-1], out=new[1:])
            new[1:] *= 0.5 * h
            np.cumsum(new[1:], axis=0, out=new[1:])
            new *= phase_fwd
            new *= psi_t
            np.subtract(free, new, out=new)
            sq = np.subtract(new, u, out=u).view(np.float64)
            np.square(sq, out=sq)
            sums = sq.reshape(n_nodes, grid.ny, cols, 2).sum(axis=(0, 1, 3))
            d = float(np.sqrt(h * np.dot(weights, sums)))
        distances.append(d)
        u, new = new, u
        if d < cfg.picard_tol:
            return u, distances, True
        grew = len(distances) >= 2 and d > distances[-2]
        if not np.isfinite(d) or (grew and increases >= 1):
            raise ContractionFailureError("reference stopped contracting", distances=distances)
        increases = increases + 1 if grew else 0
    return u, distances, False


@pytest.mark.parametrize("sign", [KPSign.KP1, KPSign.KP2])
@pytest.mark.parametrize(
    ("n_steps", "quadrature_nodes", "nodes_per_block"),
    [
        (20, 2, 1),  # 21 nodes, one node per block
        (20, 2, 2),  # 21 % 2 == 1
        (21, 2, 2),  # 22 % 2 == 0
        (20, 2, 7),  # 21 % 7 == 0
        (21, 2, 7),  # 22 % 7 == 1
        (19, 2, 7),  # 20 % 7 == 6
        (10, 3, 7),  # 21 nodes, two per solver step
        (10, 3, 64),  # one block
    ],
)
def test_blocked_iteration_is_bit_identical_to_whole_array_loop(
    grid16, monkeypatch, sign, n_steps, quadrature_nodes, nodes_per_block
):
    phi = _small_data(grid16, l2_target=1.0)
    params = DispersionParams(kp_sign=sign, alpha=1.0)
    cfg = SolverConfig(dt=1e-2, t_final=1e-2 * n_steps, picard_tol=1e-13, quadrature_nodes=quadrature_nodes)
    cols = grid16.nx // 2 + 1
    monkeypatch.setattr(duhamel, "_BLOCK_BYTES", nodes_per_block * 16 * grid16.ny * cols)
    result = duhamel_picard(phi, cfg, params)
    u, distances, converged = _whole_array_picard(phi.data, grid16, cfg, params)
    assert len(result.trajectory.times) == n_steps * (quadrature_nodes - 1) + 1
    assert len(distances) >= 3
    assert result.converged == converged
    assert len(result.distances) == len(distances)
    for a, b in zip(result.distances, distances):
        assert abs(a - b) <= 1e-14 * b
    for state, node in zip(result.trajectory.states, u, strict=True):
        assert state.data.tobytes() == hermitian_complete(node, grid16.nx).tobytes()


def test_zero_data_converges_immediately(grid16, kp1):
    cfg = SolverConfig(dt=1e-3, t_final=0.01, cutoff_T=0.1)
    result = duhamel_picard(Field.zeros(grid16), cfg, kp1)
    assert result.converged
    assert result.distances == (0.0,)
    assert result.trajectory.final().l2_norm() == 0.0


def test_initial_iterate_matches_data_at_t0(grid32, kp1_alpha1):
    phi = _small_data(grid32)
    cfg = SolverConfig(dt=2e-3, t_final=0.05, cutoff_T=0.1, picard_tol=1e-13)
    result = duhamel_picard(phi, cfg, kp1_alpha1)
    assert (result.trajectory.states[0] - phi).l2_norm() <= 1e-13 * phi.l2_norm()


def test_small_data_contracts_geometrically(grid32, kp1_alpha1):
    phi = _small_data(grid32)
    assert phi.l2_norm() <= 1e-2
    cfg = SolverConfig(dt=1e-3, t_final=0.1, cutoff_T=0.1, picard_tol=1e-13, picard_max_iters=20)
    result = duhamel_picard(phi, cfg, kp1_alpha1)
    assert result.converged
    assert all(r < 1.0 for r in result.ratios)
    # distances never increase on a successful run
    for a, b in zip(result.distances, result.distances[1:]):
        assert b <= a


def test_quadrature_nodes_refine_grid(grid32, kp1_alpha1):
    phi = _small_data(grid32)
    cfg2 = SolverConfig(dt=2e-3, t_final=0.02, cutoff_T=0.1, quadrature_nodes=2)
    cfg5 = SolverConfig(dt=2e-3, t_final=0.02, cutoff_T=0.1, quadrature_nodes=5)
    r2 = duhamel_picard(phi, cfg2, kp1_alpha1)
    r5 = duhamel_picard(phi, cfg5, kp1_alpha1)
    assert len(r2.trajectory.times) == 11
    assert len(r5.trajectory.times) == 41
    # coarse nodes are a subset of the fine grid; compare the final time
    d = (r2.trajectory.final() - r5.trajectory.final()).l2_norm()
    assert d <= 1e-10


def test_fixed_point_matches_evolve(grid32, kp1_alpha1):
    phi = _small_data(grid32)
    cfg = SolverConfig(dt=2.5e-3, t_final=0.1, cutoff_T=0.1, picard_tol=1e-13, picard_max_iters=20)
    result = duhamel_picard(phi, cfg, kp1_alpha1)
    traj = evolve(phi, cfg, kp1_alpha1)
    t_max = 0.5 * cfg.cutoff_T
    worst = 0.0
    for i, t in enumerate(result.trajectory.times):
        if t <= t_max + 1e-12:
            j = int(round(float(t) / cfg.dt))
            worst = max(worst, (result.trajectory.states[i] - traj.states[j]).l2_norm())
    assert worst <= 1e-9


def test_contraction_failure_raises_with_advice(kp1_alpha1):
    grid = make_grid(32, 32, 2 * np.pi, 2 * np.pi)
    big = make_initial_data(
        grid,
        ModeSumData(modes=((1, 0, 30.0, 0.0), (1, 1, 24.0, 0.5), (2, 1, 18.0, 1.0), (1, 2, 12.0, 2.0))),
    )
    cfg = SolverConfig(dt=5e-3, t_final=0.5, cutoff_T=0.9, picard_tol=1e-13, picard_max_iters=30)
    with pytest.raises(ContractionFailureError) as err:
        duhamel_picard(big, cfg, kp1_alpha1)
    assert "cutoff_T" in str(err.value)
    assert len(err.value.distances) >= 2
    # the blocked loop gives up at the same iteration as the whole-array one
    with pytest.raises(ContractionFailureError) as ref:
        _whole_array_picard(big.data, grid, cfg, kp1_alpha1)
    assert len(err.value.distances) == len(ref.value.distances)


def test_rejects_nonzero_x_mean(grid16, kp1):
    f = Field.from_physical(grid16, np.ones(grid16.shape))
    with pytest.raises(ZeroMassViolationError):
        duhamel_picard(f, SolverConfig(dt=1e-3, t_final=1e-2, cutoff_T=0.1), kp1)


def test_half_and_full_spectrum_layouts_agree(grid32, kp1_alpha1):
    """phi iterates on nx//2 + 1 columns; its coefficients, iterated on all
    nx by the full-lattice reference, reach the same fixed point."""
    phi = _small_data(grid32, l2_target=1.0)
    cfg = SolverConfig(dt=1e-2, t_final=0.2, picard_tol=1e-13, quadrature_nodes=3)
    half = duhamel_picard(phi, cfg, kp1_alpha1)
    full, distances, converged = _whole_array_picard(phi.data, grid32, cfg, kp1_alpha1, full=True)
    assert len(half.distances) == len(distances) >= 3
    assert half.converged and converged
    scale = phi.l2_norm()
    for a, b in zip(half.trajectory.states, full, strict=True):
        assert np.max(np.abs(a.data - b)) <= 1e-13 * scale
    d0 = half.distances[0]
    assert max(abs(a - b) for a, b in zip(half.distances, distances)) <= 1e-14 * d0


@pytest.mark.parametrize(
    ("nx", "ny", "box"),
    [
        (128, 128, 32 * np.pi),
        (32, 48, 2 * np.pi),
        (6, 8, 2 * np.pi),
        (64, 64, 2 * np.pi),
        (16, 16, 2 * np.pi),
        (10, 12, 3.0),
    ],
)
def test_the_picard_and_march_quadratic_kernels_agree(nx, ny, box):
    """``_nonlinear_slices`` on a batch of one is ``nonlinear_rhs`` on the
    stored half spectrum, value for value: both transform through ``scipy.fft``.
    Not byte for byte: outside the dealiased band one masks by multiplying and
    the other by ``np.where``, so zeros there may differ in sign."""
    grid = make_grid(nx, ny, box, box)
    for seed in range(5):
        f = Field.from_physical(grid, np.random.default_rng(seed).standard_normal(grid.shape))
        batched = duhamel._nonlinear_slices(f._stored[None], grid)[0]
        single = nonlinear_rhs(f)._stored
        assert batched.shape == single.shape
        assert np.array_equal(batched, single)


@pytest.mark.parametrize("sign", [KPSign.KP1, KPSign.KP2])
def test_picard_accepts_line_content_below_the_tolerance(grid32, sign):
    phi = _small_data(grid32)
    data = phi.data.copy()
    data[0, 0] = 1e-16 * np.max(np.abs(data))  # below the 1e-12 tolerance: accepted, then projected
    phi = Field(grid32, data)
    cfg = SolverConfig(dt=1e-2, t_final=0.1, quadrature_nodes=3, picard_tol=1e-13)
    result = duhamel_picard(phi, cfg, DispersionParams(kp_sign=sign, alpha=0.5))
    assert result.converged
    for state in result.trajectory.states:
        assert np.all(state.data[:, 0] == 0.0)


def test_peak_allocation_stays_under_five_node_arrays(grid32, kp1_alpha1):
    """Two half-spectrum node arrays (the phase and the iterate), the
    block-sized temporaries of the quadratic term and the update, and the
    final states stay under five full node arrays."""
    phi = _small_data(grid32)
    cfg = SolverConfig(dt=0.01, t_final=0.2, quadrature_nodes=6)
    duhamel_picard(phi, cfg, kp1_alpha1)  # warm-up: caches and one-time blocks
    tracemalloc.start()
    try:
        result = duhamel_picard(phi, cfg, kp1_alpha1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.trajectory.times) == 101
    node_array = 101 * 32 * 32 * 16
    assert peak <= 5 * node_array, peak / node_array


@pytest.mark.parametrize(("n", "nodes"), [(32, 101), (64, 201)])
def test_peak_allocation_stays_under_two_and_a_half_node_arrays(kp1_alpha1, n, nodes):
    """The phase and the iterate are the only node arrays the loop keeps; the
    quadratic term and the update work on cache-sized blocks, and the final
    states add one full node array."""
    grid = make_grid(n, n, 2 * np.pi, 2 * np.pi)
    phi = _small_data(grid)
    cfg = SolverConfig(dt=0.01, t_final=0.2, quadrature_nodes=(nodes - 1) // 20 + 1)
    duhamel_picard(phi, cfg, kp1_alpha1)  # warm-up: caches and one-time blocks
    tracemalloc.start()
    try:
        result = duhamel_picard(phi, cfg, kp1_alpha1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.trajectory.times) == nodes
    node_array = nodes * n * n * 16
    assert peak <= 2.5 * node_array, peak / node_array
