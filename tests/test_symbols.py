import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kp5 import (
    Field,
    apply_symbol,
    dealias,
    linear_propagate,
    make_grid,
    sample_linear_flow,
    step_splitstep,
    x_antiderivative,
    x_derivative,
    zero_mode_project,
)
from kp5 import symbols
from kp5.errors import SymbolEvaluationError
from kp5.field import hermitian_reflect


def test_identity_multiplier_is_identity(grid16):
    rng = np.random.default_rng(0)
    f = Field.from_physical(grid16, rng.standard_normal(grid16.shape))
    out = apply_symbol(f, lambda xi, mu: np.ones_like(xi))
    assert np.array_equal(out.data, f.data)


def test_scalar_multiplier_broadcasts(grid16):
    f = Field.single_mode(grid16, 2, 1)
    out = apply_symbol(f, lambda xi, mu: 3.0)
    assert np.array_equal(out.data, 3.0 * f.data)


def test_x_derivative_single_mode(grid16):
    f = Field.single_mode(grid16, 3, 0, amplitude=1.0)
    out = x_derivative(f)
    iy, ix = grid16.index_of_mode(3, 0)
    assert out.data[iy, ix] == pytest.approx(3.0j, abs=1e-15)
    assert out.data[-iy, -ix] == pytest.approx(-3.0j, abs=1e-15)  # the mirror (-3, 0)
    assert np.count_nonzero(out.data) == 2


def test_antiderivative_roundtrip(grid16):
    rng = np.random.default_rng(1)
    f = zero_mode_project(dealias(Field.from_physical(grid16, rng.standard_normal(grid16.shape))))
    back = x_derivative(x_antiderivative(f))
    assert (back - f).l2_norm() <= 1e-10 * f.l2_norm()


def test_nonfinite_multiplier_names_lattice_point(grid16):
    f = Field.single_mode(grid16, 1, 1)

    def bad(xi, mu):
        values = np.asarray(xi, dtype=complex).copy()
        values[3, 2] = np.nan  # off the xi=0 line
        return values

    with pytest.raises(SymbolEvaluationError) as err:
        apply_symbol(f, bad)
    assert "xi=" in str(err.value) and "mu=" in str(err.value)


def test_every_entry_point_zeroes_the_xi0_line_as_the_projection_does(grid16, kp1_alpha1):
    """One rule for xi = 0: a field that carries content there gives, bit for
    bit, the result of its projection, with the line exactly zero."""
    rng = np.random.default_rng(7)
    clean = zero_mode_project(dealias(Field.from_physical(grid16, rng.standard_normal(grid16.shape))))
    f = clean + Field.single_mode(grid16, 0, 1)
    assert not symbols.has_zero_x_mean(f)
    projected = zero_mode_project(f)
    entry_points = {
        "linear_propagate": lambda g: [linear_propagate(g, 0.1, kp1_alpha1)],
        "step_splitstep": lambda g: [step_splitstep(g, 1e-3, kp1_alpha1)],
        "sample_linear_flow": lambda g: list(sample_linear_flow(g, 8, 2 * np.pi, kp1_alpha1).slices()),
        "apply_symbol": lambda g: [apply_symbol(g, lambda xi, mu: 1.0 / (1j * xi))],
        "x_antiderivative": lambda g: [x_antiderivative(g)],
    }
    for name, run in entry_points.items():
        got, expected = run(f), run(projected)
        assert len(got) == len(expected)
        for out, ref in zip(got, expected):
            assert np.array_equal(out.data, ref.data), name
            assert np.all(out.data[:, 0] == 0.0), name


def test_reality_preserved_by_every_solver_multiplier(grid16):
    """The whole conjugation-symmetric family the solver relies on: i*xi,
    the flow phase, bracket weights, and band masks."""
    rng = np.random.default_rng(6)
    f = dealias(Field.from_physical(grid16, rng.standard_normal(grid16.shape)))
    alpha = 0.8
    multipliers = [
        lambda xi, mu: 1j * xi,
        lambda xi, mu: np.exp(-0.01j * (xi**5 - alpha * xi**3 + mu**2 / xi)),
        lambda xi, mu: (1.0 + xi**2) ** 0.75 * (1.0 + mu**2) ** 0.5,
        lambda xi, mu: (np.abs(xi) <= 2.0).astype(float),
    ]
    for m in multipliers:
        out = apply_symbol(f, m)
        assert out.to_physical().dtype == np.float64
        defect = np.max(np.abs(out.data - hermitian_reflect(out.data)))
        assert defect <= 1e-12 * max(1.0, float(np.max(np.abs(out.data))))


@pytest.mark.parametrize(
    ("column", "full"),
    [
        (lambda xi, mu: 1.0 + mu[:, :1] ** 2, lambda xi, mu: 1.0 + mu**2),
        (lambda xi, mu: 1.0 + 1j * mu[:, :1] ** 2, None),
    ],
    ids=["real-even-column", "imaginary-even-column"],
)
def test_one_column_multipliers_act_on_every_column(grid16, column, full):
    """A (ny, 1) multiplier takes its values on every column: a symmetric one
    gives the bits of its full-lattice spelling, and an asymmetric one is
    rejected on a field that populates any column."""
    f = Field.from_physical(grid16, np.random.default_rng(8).standard_normal(grid16.shape))
    if full is None:
        with pytest.raises(SymbolEvaluationError, match="real field"):
            apply_symbol(f, column)
    else:
        assert apply_symbol(f, column)._stored.tobytes() == apply_symbol(f, full)._stored.tobytes()


def test_zero_mode_project_examples(grid16):
    const = Field.from_physical(grid16, np.full(grid16.shape, 3.7))
    assert zero_mode_project(const).l2_norm() == 0.0

    sin_x = Field.from_physical(grid16, np.sin(grid16.x)[None, :] * np.ones((grid16.ny, 1)))
    # unchanged up to the transform's own rounding junk on the xi=0 line
    assert (zero_mode_project(sin_x) - sin_x).l2_norm() <= 1e-15 * sin_x.l2_norm()

    sin_y = Field.from_physical(grid16, np.sin(grid16.y)[:, None] * np.ones((1, grid16.nx)))
    assert zero_mode_project(sin_y).l2_norm() == 0.0


def test_zero_mode_project_idempotent_bitwise(grid16):
    rng = np.random.default_rng(3)
    f = Field.from_physical(grid16, rng.standard_normal(grid16.shape))
    once = zero_mode_project(f)
    twice = zero_mode_project(once)
    assert np.array_equal(once.data, twice.data)


def test_dealias_examples():
    from kp5 import make_grid

    g = make_grid(12, 12, 2 * np.pi, 2 * np.pi)
    inside = Field.single_mode(g, 4, -4)  # |k| = 4 = nx/3 retained
    assert (dealias(inside) - inside).l2_norm() == 0.0

    g8 = make_grid(8, 8, 2 * np.pi, 2 * np.pi)
    edge = Field.single_mode(g8, g8.nx // 2 - 1, 0)  # k = 3 > 8/3
    assert dealias(edge).l2_norm() == 0.0


def test_dealias_idempotent(grid16):
    rng = np.random.default_rng(4)
    f = Field.from_physical(grid16, rng.standard_normal(grid16.shape))
    once = dealias(f)
    assert np.array_equal(once.data, dealias(once).data)


# -- half-backed real fields against the full-lattice formulas -------------------
#
# A field stores columns 0..nx//2 and completes the rest on demand, so its stored columns must carry the bits the full-lattice formula
# gives there and the whole lattice its values.  (A zero the full formula
# writes into a mirror column is +0 + 0j; the completion writes its conjugate,
# +0 - 0j, which is equal but not the same bytes.)


def _real_field(grid, seed):
    return Field.from_physical(grid, np.random.default_rng(seed).standard_normal(grid.shape))


def _assert_matches(out: Field, expected: np.ndarray):
    half = out.grid.nx // 2 + 1
    assert out.data[:, :half].tobytes() == expected[:, :half].tobytes()
    assert np.array_equal(out.data, expected)


_sizes = st.sampled_from([4, 6, 8, 16, 32])
_seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _full_line_multiplier(grid, m):
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.broadcast_to(m(grid.xi_mesh[:1]), grid.shape).copy()
    values[:, 0][~np.isfinite(values[:, 0])] = 0.0
    return values


@given(nx=_sizes, ny=_sizes, seed=_seeds, dealiased=st.booleans())
def test_half_backed_multipliers_give_the_full_lattice_values(nx, ny, seed, dealiased):
    grid = make_grid(nx, ny, 2 * np.pi, 3 * np.pi)
    f = _real_field(grid, seed)
    _assert_matches(dealias(f), np.where(grid.dealias_mask, f.data, 0.0 + 0.0j))
    projected = f.data.copy()
    projected[:, 0] = 0.0
    _assert_matches(zero_mode_project(f), projected)
    if dealiased:
        f = dealias(f)
    for op, m in ((x_derivative, lambda xi: 1j * xi), (x_antiderivative, lambda xi: 1.0 / (1j * xi))):
        # i*xi and 1/(i*xi) are conjugation-asymmetric only on the Nyquist column
        if np.any(f.data[:, nx // 2]):
            with pytest.raises(SymbolEvaluationError):
                op(f)
        else:
            _assert_matches(op(f), f.data * _full_line_multiplier(grid, m))


@given(nx=_sizes, ny=_sizes, seed=_seeds, a=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_half_backed_arithmetic_gives_the_full_lattice_values(nx, ny, seed, a):
    grid = make_grid(nx, ny, 2 * np.pi, 3 * np.pi)
    f, g = _real_field(grid, seed), _real_field(grid, seed + 1)
    _assert_matches(f + g, f.data + g.data)
    _assert_matches(f - g, f.data - g.data)
    _assert_matches(a * f, f.data * complex(a))
    _assert_matches(f * a, f.data * complex(a))
    _assert_matches(-f, -f.data)


def test_x_derivative_of_nyquist_content_raises(grid16):
    f = Field.from_physical(grid16, np.random.default_rng(4).standard_normal(grid16.shape))
    assert np.max(np.abs(f.data[:, grid16.nx // 2])) > 0.0
    with pytest.raises(SymbolEvaluationError, match="real field"):
        x_derivative(f)

    # once dealiased, the Nyquist column is empty: the product is taken on the stored half
    smooth = dealias(f)
    out = x_derivative(smooth)
    assert out._stored.tobytes() == (smooth._stored * (1j * grid16.xi[None, : grid16.nx // 2 + 1])).tobytes()
