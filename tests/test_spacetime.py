import numpy as np
import pytest

from kp5 import (
    Field,
    NormSpec,
    SpaceTimeField,
    bourgain_norm,
    bracket,
    dispersion_omega,
    modulation_project,
    random_modulation_shell,
    sample_linear_flow,
    strichartz_ratio,
)
from kp5.errors import UndefinedRatioError, ZeroMassViolationError
from kp5.field import _column_sums

NT = 16
TW = 2 * np.pi


def _zero_mean_spectral(grid, rng):
    coeffs = rng.standard_normal((NT, grid.ny, grid.nx)) + 1j * rng.standard_normal(
        (NT, grid.ny, grid.nx)
    )
    coeffs[:, :, 0] = 0.0
    return SpaceTimeField(grid, TW, coeffs)


def test_roundtrip_and_plancherel(grid16):
    rng = np.random.default_rng(0)
    phys = rng.standard_normal((NT, grid16.ny, grid16.nx))
    st = SpaceTimeField.from_physical(grid16, TW, phys)
    assert np.max(np.abs(st.to_physical() - phys)) <= 1e-12
    assert st.l2_norm() == pytest.approx(np.linalg.norm(phys), rel=1e-12)


def test_the_constructor_copies_caller_data_and_leaves_it_writable(grid16):
    d = np.zeros((4, grid16.ny, grid16.nx), dtype=np.complex128)
    u = SpaceTimeField(grid16, 1.0, d)
    d[1, 1, 1] = np.inf  # the caller's array is still its own
    assert not np.shares_memory(u.data, d) and not u.data.flags.writeable
    assert np.all(u.data == 0.0)
    # the internal path takes ownership of a block it just allocated: no copy
    fresh = np.zeros((4, grid16.ny, 2), dtype=np.complex128)
    v = SpaceTimeField._from_block(grid16, 1.0, np.array([3, 5]), fresh)
    assert v._block is fresh and not fresh.flags.writeable and not v.columns.flags.writeable
    # data is a new write-locked full lattice on each read
    assert v.data is not v.data and v.data.shape == d.shape and not v.data.flags.writeable


def test_nt_is_read_from_the_data_by_the_one_constructor(grid16):
    for nt in (1, 3, 4):
        d = np.zeros((nt, grid16.ny, grid16.nx), dtype=np.complex128)
        u = SpaceTimeField(grid16, 1.0, d)
        assert u.nt == nt == len(u.times)
    with pytest.raises(AttributeError):
        u.nt = 3
    assert not hasattr(SpaceTimeField, "from_spectral")
    with pytest.raises(TypeError):
        SpaceTimeField(grid16, 4, 1.0, d)
    for shape in ((0, grid16.ny, grid16.nx), (grid16.ny, grid16.nx), (4, grid16.ny, grid16.nx - 1)):
        with pytest.raises(ValueError, match="shape"):
            SpaceTimeField(grid16, 1.0, np.zeros(shape, dtype=np.complex128))
    with pytest.raises(ValueError, match="complex128"):
        SpaceTimeField(grid16, 1.0, d.astype(np.complex64))


def test_equality_and_hashing_are_by_identity(grid16):
    d = np.zeros((4, grid16.ny, grid16.nx), dtype=np.complex128)
    u = SpaceTimeField(grid16, 1.0, d)
    v = SpaceTimeField(grid16, 1.0, d)
    assert u == u and u != v  # same data, yet two fields
    assert len({u, v, u}) == 2


def test_slices_match_time_samples(grid16, kp1):
    phi = Field.single_mode(grid16, 1, 0)
    st = sample_linear_flow(phi, NT, TW, kp1)
    slices = st.slices()
    omega = dispersion_omega(1.0, 0.0, kp1)
    for i, t in enumerate(st.times):
        iy, ix = grid16.index_of_mode(1, 0)
        assert slices[i].data[iy, ix] == pytest.approx(np.exp(-1j * omega * t), abs=1e-12)


def test_bourgain_b0_is_spacetime_l2(grid16, kp1):
    rng = np.random.default_rng(1)
    st = _zero_mean_spectral(grid16, rng)
    assert bourgain_norm(st, NormSpec(0, 0, 0.0), kp1) == pytest.approx(
        st.l2_norm(), rel=1e-12
    )


def test_bourgain_single_spacetime_mode(grid16, kp1):
    coeffs = np.zeros((NT, grid16.ny, grid16.nx), dtype=complex)
    coeffs[3, 2, 1] = 1.0  # tau = 3, mu = 2, xi = 1
    st = SpaceTimeField(grid16, TW, coeffs)
    omega = dispersion_omega(1.0, 2.0, kp1)
    expected = bracket(3.0 - omega) ** 0.5 * bracket(1.0) * bracket(2.0) ** 2
    assert bourgain_norm(st, NormSpec(1.0, 2.0, 0.5), kp1) == pytest.approx(expected, rel=1e-13)


def test_bourgain_rejects_x_mean_content(grid16, kp1):
    coeffs = np.zeros((NT, grid16.ny, grid16.nx), dtype=complex)
    coeffs[0, 1, 0] = 1.0
    st = SpaceTimeField(grid16, TW, coeffs)
    with pytest.raises(ZeroMassViolationError):
        bourgain_norm(st, NormSpec(0, 0, 0.0), kp1)


def test_linear_flow_concentrates_on_dispersion_surface(grid16, kp1):
    """A mode whose omega sits on the tau lattice has modulation exactly zero:
    the weighted norm is independent of b.  An off-lattice omega leaks; the
    growth with b is reported, not asserted."""
    phi = Field.single_mode(grid16, 1, 0)  # omega = 1, on the integer tau lattice
    st = sample_linear_flow(phi, NT, TW, kp1)
    base = bourgain_norm(st, NormSpec(0, 0, 0.0), kp1)
    for b in (1.0, 4.0, 8.0):
        assert bourgain_norm(st, NormSpec(0, 0, b), kp1) == pytest.approx(base, rel=1e-12)

    from kp5 import DispersionParams

    half = DispersionParams(alpha=0.5)  # omega(1,1) = 1.5, off the integer tau lattice
    phi_off = Field.single_mode(grid16, 1, 1)
    st_off = sample_linear_flow(phi_off, NT, TW, half)
    ratios = [
        bourgain_norm(st_off, NormSpec(0, 0, b), half)
        / bourgain_norm(st_off, NormSpec(0, 0, 0.0), half)
        for b in (1.0, 2.0)
    ]
    print(f"off-lattice leakage ratios (b=1,2): {ratios}")
    assert all(np.isfinite(r) and r >= 1.0 for r in ratios)


def test_modulation_project_support(grid16, kp1):
    # field concentrated where |tau - omega| <= 1: j=0 keeps it, j=5 kills it
    sigma = 2 * np.pi * np.fft.fftfreq(NT, d=TW / NT)
    coeffs = np.zeros((NT, grid16.ny, grid16.nx), dtype=complex)
    iy, ix = grid16.index_of_mode(1, 0)  # omega = 1
    for it, tau in enumerate(sigma):
        if abs(tau - 1.0) <= 1.0:
            coeffs[it, iy, ix] = 0.3
    st = SpaceTimeField(grid16, TW, coeffs)
    kept = modulation_project(st, 0, kp1)
    assert kept.l2_norm() == pytest.approx(st.l2_norm(), rel=1e-12)
    gone = modulation_project(st, 5, kp1)
    assert gone.l2_norm() == 0.0


def test_modulation_telescoping(grid16, kp1):
    rng = np.random.default_rng(3)
    st = _zero_mean_spectral(grid16, rng)
    total = np.zeros_like(st.data)
    for j in range(12):
        total = total + modulation_project(st, j, kp1).data
    # sum of shells recovers the psi(2^-J sigma)-weighted modulus exactly
    from kp5.cutoffs import cutoff_psi
    from kp5.spacetime import _sigma_lattice

    weight = cutoff_psi(np.ldexp(_sigma_lattice(grid16, NT, TW, kp1), -11))
    expected = weight * np.abs(st.data)
    expected[:, :, 0] = 0.0
    assert np.max(np.abs(total - expected)) <= 1e-14 * np.max(np.abs(st.data))


def test_strichartz_ratio_errors(grid16, kp1):
    empty = SpaceTimeField(
        grid16, TW, np.zeros((NT, grid16.ny, grid16.nx), dtype=complex)
    )
    with pytest.raises(UndefinedRatioError):
        strichartz_ratio(empty, 0, r=4.0, T=0.5, params=kp1)
    shell = random_modulation_shell(grid16, NT, TW, 2, 7, kp1)
    for r in (1.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="inner exponent"):
            strichartz_ratio(shell, 2, r=r, T=0.5, params=kp1)
    with pytest.raises(ValueError):
        strichartz_ratio(shell, 2, r=4.0, T=0.0, params=kp1)


def test_strichartz_ratio_finite_positive(grid16, kp1):
    shell = random_modulation_shell(grid16, NT, TW, 2, 7, kp1)
    for r in (2.0, 4.0, 6.0):
        value = strichartz_ratio(shell, 2, r=r, T=0.5, params=kp1)
        assert np.isfinite(value) and value > 0.0


def test_strichartz_mixed_norm_against_bruteforce(kp1):
    """Independent oracle: explicit DFT matrices for the inverse transform
    (phase exp(i(xi x + mu y - tau t))) and plain Python-loop norm assembly."""
    from kp5 import make_grid

    grid = make_grid(8, 8, 2 * np.pi, 2 * np.pi)
    nt, tw = 8, 2 * np.pi
    j, r, T = 1, 4.0, 0.5
    shell = random_modulation_shell(grid, nt, tw, j, 11, kp1)
    got = strichartz_ratio(shell, j, r=r, T=T, params=kp1)

    fj = modulation_project(shell, j, kp1)
    weighted = np.abs(grid.xi_mesh)[None, :, :] ** (0.5 - 1.0 / r) * fj.data

    # explicit inverse transform
    times = np.arange(nt) * (tw / nt)
    tau = 2 * np.pi * np.fft.fftfreq(nt, d=tw / nt)
    ex = np.exp(1j * np.outer(grid.x, grid.xi)) / np.sqrt(grid.nx)   # [x, xi]
    ey = np.exp(1j * np.outer(grid.y, grid.mu)) / np.sqrt(grid.ny)   # [y, mu]
    et = np.exp(-1j * np.outer(times, tau)) / np.sqrt(nt)            # [t, tau]
    phys = np.einsum("ts,ym,xk,smk->tyx", et, ey, ex, weighted)

    # sanity: the package transform agrees with the explicit one
    assert np.max(np.abs(phys - np.fft.ifft2(np.fft.fft(fj.data * np.abs(grid.xi_mesh)[None, :, :] ** (0.5 - 1.0 / r), axis=0, norm='ortho'), axes=(1, 2), norm='ortho'))) <= 1e-12

    area = grid.cell_area
    dt = tw / nt
    q = 2 * r / (r - 2)
    outer = 0.0
    for it, t in enumerate(times):
        wrapped = t if t <= tw / 2 else t - tw
        if abs(wrapped) > T:
            continue
        inner = 0.0
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                inner += abs(phys[it, iy, ix]) ** r * area
        outer += inner ** (q / r) * dt
    numerator = outer ** (1.0 / q)
    denominator = 2.0 ** (0.5 * j) * fj.l2_norm() * np.sqrt(area * dt)
    assert got == pytest.approx(numerator / denominator, rel=1e-12)


def test_concurrent_reads_are_safe(grid16, kp1):
    """Fields and cached lattice tables are immutable, so propagating many
    distinct fields from a thread pool matches the serial answers."""
    from concurrent.futures import ThreadPoolExecutor

    from kp5 import linear_propagate

    rng = np.random.default_rng(21)
    fields = []
    for _ in range(16):
        fields.append(Field.from_physical(grid16, rng.standard_normal(grid16.shape)))
    serial = [linear_propagate(f, 1e-3, kp1) for f in fields]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda f: linear_propagate(f, 1e-3, kp1), fields))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.data, b.data)


def test_random_shell_determinism(grid16, kp1):
    a = random_modulation_shell(grid16, NT, TW, 3, 42, kp1)
    b = random_modulation_shell(grid16, NT, TW, 3, 42, kp1)
    assert np.array_equal(a.data, b.data)
    c = random_modulation_shell(grid16, NT, TW, 3, 43, kp1)
    assert not np.array_equal(a.data, c.data)


def test_shell_weight_is_exact(grid16, kp1):
    """The compact pair is the full-lattice weight off xi = 0, bit for bit, and
    every column it drops is zero there."""
    from kp5.cutoffs import dyadic_eta
    from kp5.spacetime import _shell_weight, _sigma_lattice

    for j in (0, 3, 5, 40):
        columns, block = _shell_weight(grid16, NT, TW, kp1, j)
        fresh = dyadic_eta(j, _sigma_lattice(grid16, NT, TW, kp1))
        assert 0 not in columns
        assert block.shape == (NT, grid16.ny, len(columns))
        scattered = np.zeros_like(fresh)
        scattered[:, :, columns] = block
        assert scattered[:, :, 1:].tobytes() == fresh[:, :, 1:].tobytes()
        dropped = np.setdiff1d(np.arange(1, grid16.nx), columns)
        assert not np.any(fresh[:, :, dropped])
        assert np.all(np.any(block != 0.0, axis=(0, 1)))
        assert (len(columns) == 0) == (j == 40)


@pytest.mark.parametrize("j", [0, 3, 5])
def test_shells_draw_normals_only_on_their_support(grid16, kp1, j):
    """Sampling convention: real parts, then imaginary parts, of an
    (nt, ny, len(columns)) normal block, times the compact weight."""
    from kp5.spacetime import _shell_weight

    columns, block = _shell_weight(grid16, NT, TW, kp1, j)
    rng = np.random.default_rng(42)
    real = rng.standard_normal((NT, grid16.ny, len(columns)))
    imag = rng.standard_normal((NT, grid16.ny, len(columns)))
    expected = np.zeros((NT, grid16.ny, grid16.nx), dtype=complex)
    expected[:, :, columns] = (real + 1j * imag) * block
    got = random_modulation_shell(grid16, NT, TW, j, 42, kp1)
    assert got.data.tobytes() == expected.tobytes()


def _full_lattice_ratio(u, j, r, T, params):
    """strichartz_ratio on the whole lattice: full projection, smoothing,
    to_physical()[keep] and the mixed norm."""
    from kp5.cutoffs import dyadic_eta
    from kp5.spacetime import _restriction_mask, _sigma_lattice

    weight = dyadic_eta(j, _sigma_lattice(u.grid, u.nt, u.t_window, params))
    coeffs = (weight * np.abs(u.data)).astype(complex)
    coeffs[:, :, 0] = 0.0
    assert np.array_equal(coeffs, modulation_project(u, j, params).data)
    l2 = np.sqrt(np.sum(_column_sums(coeffs))) * np.sqrt(u.cell_volume)
    smoothed = SpaceTimeField(u.grid, u.t_window, coeffs * np.abs(u.grid.xi_mesh) ** (0.5 - 1.0 / r))
    magnitudes = np.abs(smoothed.to_physical()[_restriction_mask(u, T)])
    inner = (np.sum(magnitudes**r, axis=(1, 2)) * u.grid.cell_area) ** (1.0 / r)
    if r == 2:
        mixed = float(np.max(inner))
    else:
        q = 2.0 * r / (r - 2.0)
        mixed = float((np.sum(inner**q) * (u.t_window / u.nt)) ** (1.0 / q))
    return mixed / (2.0 ** (0.5 * j) * l2)


@pytest.mark.parametrize("j", [0, 3, 5])
def test_support_ratio_matches_the_full_lattice_bit_for_bit(grid16, kp1, j):
    st = _zero_mean_spectral(grid16, np.random.default_rng(6))
    for r in (2.0, 4.0, 6.0):
        got = strichartz_ratio(st, j, r=r, T=0.5, params=kp1)
        expected = _full_lattice_ratio(st, j, r, 0.5, kp1)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


def test_an_empty_shell_support_leaves_the_ratio_undefined(grid16, kp1):
    from kp5.spacetime import _shell_weight

    columns, _ = _shell_weight(grid16, NT, TW, kp1, 40)
    assert len(columns) == 0
    assert random_modulation_shell(grid16, NT, TW, 40, 7, kp1).l2_norm() == 0.0
    st = _zero_mean_spectral(grid16, np.random.default_rng(6))
    with pytest.raises(UndefinedRatioError):
        strichartz_ratio(st, 40, r=4.0, T=0.5, params=kp1)


@pytest.mark.parametrize("j", [0, 3])
def test_a_precomputed_shell_weight_gives_the_same_bytes(grid16, kp1, j):
    from kp5.spacetime import _shell_weight

    weight = _shell_weight(grid16, NT, TW, kp1, j)
    shell = random_modulation_shell(grid16, NT, TW, j, 42, kp1)
    given = random_modulation_shell(grid16, NT, TW, j, 42, kp1, weight=weight)
    assert given.data.tobytes() == shell.data.tobytes()
    st = _zero_mean_spectral(grid16, np.random.default_rng(5))
    plain = modulation_project(st, j, kp1)
    given = modulation_project(st, j, kp1, weight=weight)
    assert given.data.tobytes() == plain.data.tobytes()
    plain_ratio = strichartz_ratio(shell, j, r=4.0, T=0.5, params=kp1)
    given_ratio = strichartz_ratio(shell, j, r=4.0, T=0.5, params=kp1, weight=weight)
    assert np.float64(given_ratio).tobytes() == np.float64(plain_ratio).tobytes()


@pytest.mark.parametrize("j", [0, 2, 5])
def test_modulus_projection_matches_the_complex_copy_formula(grid16, kp1, j):
    from kp5.cutoffs import dyadic_eta
    from kp5.spacetime import _sigma_lattice

    st = _zero_mean_spectral(grid16, np.random.default_rng(4))
    expected = dyadic_eta(j, _sigma_lattice(grid16, NT, TW, kp1)) * np.abs(st.data).astype(
        np.complex128
    )
    expected[:, :, 0] = 0.0
    got = modulation_project(st, j, kp1).data
    assert got.tobytes() == expected.tobytes()


def test_sampled_and_propagated_linear_flows_agree(grid16, kp1):
    from kp5 import linear_propagate

    phi = Field.single_mode(grid16, 1, 2)
    slices = sample_linear_flow(phi, NT, TW, kp1).slices()
    for t, state in zip(np.arange(NT) * (TW / NT), slices):
        assert np.allclose(state.data, linear_propagate(phi, t, kp1).data, atol=1e-13)


_SHELL_INDICES = list(range(13)) + [20, 40, 1026, 5000]


@pytest.mark.parametrize("shape", [(64, 64), (32, 16), (16, 32), (8, 8)])
@pytest.mark.parametrize("sign", ["kp1", "kp2"])
def test_candidate_column_weights_match_the_full_lattice_bytes(shape, sign):
    """Each shell's weight, computed on candidate columns only, is dyadic_eta on the
    full sigma lattice restricted to its nonzero columns off xi = 0, bit for bit."""
    from kp5 import DispersionParams, KPSign, make_grid
    from kp5.cutoffs import dyadic_eta
    from kp5.spacetime import _shell_weight, _sigma_lattice

    nx, ny = shape
    grid = make_grid(nx, ny, 2 * np.pi, 2 * np.pi)
    for alpha in (0.0, 1.0, -2.5):
        params = DispersionParams(kp_sign=KPSign.KP1 if sign == "kp1" else KPSign.KP2, alpha=alpha)
        for nt in (1, 16, 33, 64):
            sigma = _sigma_lattice(grid, nt, TW, params)
            for j in _SHELL_INDICES:
                full = dyadic_eta(j, sigma)
                expected = np.flatnonzero(np.any(full[:, :, 1:] != 0.0, axis=(0, 1))) + 1
                columns, block = _shell_weight(grid, nt, TW, params, j)
                assert np.array_equal(columns, expected), (alpha, nt, j)
                assert block.tobytes() == full[:, :, expected].tobytes(), (alpha, nt, j)
                assert not columns.flags.writeable and not block.flags.writeable
            # one time sample: sigma = 0 on the Nyquist column, where omega is held at 0
            assert nx // 2 in _shell_weight(grid, 1, TW, params, 0)[0]
        assert len(_shell_weight(grid, 64, TW, params, 1026)[0]) == 0


@pytest.mark.parametrize("j", [-1, -5000, 2.5, float("nan"), float("inf"), float("-inf")])
def test_invalid_shell_indices_reach_dyadic_eta_and_raise_its_error(grid16, kp1, j):
    from kp5.spacetime import _shell_weight

    with pytest.raises(ValueError, match="shell index must be a nonnegative integer"):
        _shell_weight(grid16, NT, TW, kp1, j)


def _traced_peak(compute) -> int:
    import tracemalloc

    compute()  # warm every cache first: only the call's own temporaries count
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_LATTICE_BYTES = 64**3 * 16  # one complex 64^3 lattice: 4 MiB


@pytest.mark.parametrize("j", range(9))
def test_one_sweep_sample_allocates_less_than_one_full_lattice(kp1, j):
    """The strichartz sweep's sample, with its shell weight precomputed, never builds a
    64^3 lattice: the draw and the projection live on the shell's columns."""
    from kp5 import make_grid
    from kp5.spacetime import _shell_weight

    grid = make_grid(64, 64, TW, TW)
    weight = _shell_weight(grid, 64, TW, kp1, j)

    def sample():
        u = random_modulation_shell(grid, 64, TW, j, 7, kp1, weight)
        return strichartz_ratio(u, j, r=4.0, T=0.5, params=kp1, weight=weight)

    assert _traced_peak(sample) < _LATTICE_BYTES


@pytest.mark.parametrize("j", range(9))
def test_a_shell_weight_allocates_less_than_half_a_full_lattice(kp1, j):
    from kp5 import make_grid
    from kp5.spacetime import _shell_weight

    grid = make_grid(64, 64, TW, TW)
    assert _traced_peak(lambda: _shell_weight(grid, 64, TW, kp1, j)) < _LATTICE_BYTES // 2
