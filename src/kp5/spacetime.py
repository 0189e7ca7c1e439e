"""Space-time fields over a periodic time window and the modulation-side
machinery: the dispersion-weighted space-time norm, dyadic modulation
projections, and the smoothing-ratio probe for shell-localized pieces.

Conventions: physical samples ``u[it, iy, ix]`` live at ``t_k = k*t_window/nt``;
the spectral array carries ``(tau, mu, xi)``.  The temporal transform uses the
opposite phase sign from space (waves ``exp(i*(xi*x - tau*t))``), so a linear
flow ``exp(-i*omega*t)`` concentrates exactly on ``tau = omega(xi, mu)`` and
the modulation variable is ``sigma = tau - omega``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import scipy.fft

from .cutoffs import dyadic_eta
from .dispersion import DispersionParams, omega_on_grid
from .errors import UndefinedRatioError
from .field import Field, _column_sums, _x_mean_content
from .grid import SpectralGrid, _take
from .norms import NormSpec, _sobolev_weights, bracket
from .symbols import require_zero_x_mean, zero_mode_project

__all__ = [
    "SpaceTimeField",
    "sample_linear_flow",
    "random_modulation_shell",
    "bourgain_norm",
    "modulation_project",
    "strichartz_ratio",
]


def _sample_times(nt: int, t_window: float) -> np.ndarray:
    return np.arange(nt) * (t_window / nt)


def _tau(nt: int, t_window: float) -> np.ndarray:
    """Temporal frequencies tau = 2*pi*k/t_window in fftfreq order."""
    return 2.0 * np.pi * scipy.fft.fftfreq(nt, d=t_window / nt)


def _sigma_lattice(
    grid: SpectralGrid, nt: int, t_window: float, params: DispersionParams, columns=slice(None)
) -> np.ndarray:
    """Modulation tau - omega(xi, mu) on the (nt, ny, nx) lattice, or on its xi ``columns``."""
    return _tau(nt, t_window)[:, None, None] - omega_on_grid(grid, params)[None, :, columns]


def _shell_weight(
    grid: SpectralGrid, nt: int, t_window: float, params: DispersionParams, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dyadic shell weight eta_j(tau - omega) on its support: the xi columns where
    it is nonzero (never xi = 0) and its (nt, ny, len(columns)) block on them.

    ``dyadic_eta`` runs only on candidate columns, whose sigma range
    [min tau - max omega, max tau - min omega] meets the open band where eta_j can
    be nonzero: |sigma| < 2 for j = 0, 2**(j-1) < |sigma| < 2**(j+1) otherwise.
    Float subtraction is monotone in each argument, so no nonzero value is missed.
    """
    tau = _tau(nt, t_window)
    omega = omega_on_grid(grid, params)[:, 1:]
    # scaled by 2**-j the band is (-2, 2) or 1/2 < |.| < 2, and the scaling is exact
    # there; j is clamped as dyadic_eta clamps it, and an index dyadic_eta rejects
    # (negative, fractional, nan, inf) only picks some candidates before it raises
    scale = 2.0 ** -min(max(j, 0), 1026)
    lo = (np.min(tau) - np.fmax.reduce(omega, axis=0)) * scale
    hi = (np.max(tau) - np.fmin.reduce(omega, axis=0)) * scale
    if j == 0:
        near = (hi > -2.0) & (lo < 2.0)
    else:
        near = ((hi > 0.5) & (lo < 2.0)) | ((lo < -0.5) & (hi > -2.0))
    candidates = np.flatnonzero(near) + 1
    weight = dyadic_eta(j, _sigma_lattice(grid, nt, t_window, params, candidates))
    nonzero = np.any(weight != 0.0, axis=(0, 1))
    return _take(candidates[nonzero]), _take(weight[:, :, nonzero])


def _on_columns(block: np.ndarray, columns: np.ndarray, nx: int) -> np.ndarray:
    """Scatter an (..., len(columns)) block onto the xi ``columns`` of zeros."""
    full = np.zeros(block.shape[:-1] + (nx,), dtype=np.complex128)
    full[..., columns] = block
    return full


def _kept_slices(block: np.ndarray, columns: np.ndarray, nx: int, keep) -> np.ndarray:
    """``to_physical()[keep]`` of a spectrum that is zero off the xi ``columns``,
    from its (nt, ny, len(columns)) block: only the block is time-transformed."""
    spatial = _on_columns(scipy.fft.fft(block, axis=0, norm="ortho")[keep], columns, nx)
    return scipy.fft.ifft2(spatial, axes=(1, 2), norm="ortho", overwrite_x=True)


def _lattice_total(block: np.ndarray, columns: np.ndarray, nx: int) -> float:
    """Sum of ``|a|**2`` over the (nt, ny, nx) lattice of a spectrum ``a`` that is zero off the
    xi ``columns``, from its block: the per-column sums land in an nx-long vector of zeros
    before the one final sum, so the summation order is that of the full lattice."""
    sums = np.zeros(nx)
    if len(columns):
        sums[columns] = _column_sums(block)
    return float(np.sum(sums))


class SpaceTimeField:
    """Fully spectral (tau, mu, xi) representation of u(t, x, y) on an (nt, ny, nx) lattice.

    A field keeps its sorted xi ``columns`` and a write-locked complex128
    ``(nt, ny, len(columns))`` block of coefficients on them; every other column
    is zero.  ``SpaceTimeField(grid, t_window, data)`` keeps a copy of all nx
    columns of ``data``; the shell machinery builds fields on a shell's few
    columns.  ``data`` builds a new write-locked full lattice on each read.
    Fields are immutable; equality and hashing are by identity, as for ``Field``.
    """

    grid: SpectralGrid
    t_window: float
    columns: np.ndarray

    def __init__(self, grid: SpectralGrid, t_window: float, data: np.ndarray) -> None:
        self._store(grid, t_window, np.arange(grid.nx), data.copy())

    @classmethod
    def _from_block(
        cls, grid: SpectralGrid, t_window: float, columns: np.ndarray, block: np.ndarray
    ) -> "SpaceTimeField":
        """Check and write-lock a block on sorted xi ``columns`` that the caller has just
        allocated, without a copy."""
        u = cls.__new__(cls)
        u._store(grid, t_window, columns, block)
        return u

    def _store(self, grid, t_window, columns, block) -> None:
        if not (np.isfinite(t_window) and t_window > 0):
            raise ValueError(f"t_window must be positive, got {t_window!r}")
        expected = (grid.ny, len(columns))
        if block.ndim != 3 or block.shape[0] < 1 or block.shape[1:] != expected:
            raise ValueError(f"data shape {block.shape} is not (nt >= 1,) + {expected}")
        if block.dtype != np.complex128:
            raise ValueError(f"spectral data must be complex128, got {block.dtype}")
        self.__dict__.update(grid=grid, t_window=t_window, columns=_take(columns), _block=_take(block))

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"SpaceTimeField(grid={self.grid!r}, t_window={self.t_window!r}, nt={self.nt})"

    @property
    def data(self) -> np.ndarray:
        """A new write-locked (nt, ny, nx) coefficient lattice, zero off ``columns``."""
        return _take(_on_columns(self._block, self.columns, self.grid.nx))

    def _block_on(self, columns: np.ndarray) -> np.ndarray:
        """The (nt, ny, len(columns)) block of coefficients on the sorted xi ``columns``:
        the stored block itself when the columns are ours."""
        if np.array_equal(columns, self.columns):
            return self._block
        out = np.zeros(self._block.shape[:-1] + (len(columns),), dtype=np.complex128)
        held = np.isin(columns, self.columns)
        out[..., held] = self._block[..., np.searchsorted(self.columns, columns[held])]
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_physical(
        cls, grid: SpectralGrid, t_window: float, samples: np.ndarray
    ) -> "SpaceTimeField":
        samples = np.asarray(samples, dtype=np.complex128)
        spec = scipy.fft.ifft(scipy.fft.fft2(samples, axes=(1, 2), norm="ortho"), axis=0, norm="ortho")
        return cls._from_block(grid, float(t_window), np.arange(grid.nx), spec)

    # -- lattices ------------------------------------------------------------

    @property
    def nt(self) -> int:
        """Number of time samples, the length of the tau axis."""
        return self._block.shape[0]

    @property
    def times(self) -> np.ndarray:
        """Sample times k*t_window/nt on [0, t_window)."""
        return _sample_times(self.nt, self.t_window)

    def sigma(self, params: DispersionParams) -> np.ndarray:
        """Modulation tau - omega(xi, mu) on the (nt, ny, nx) lattice."""
        return _sigma_lattice(self.grid, self.nt, self.t_window, params)

    @property
    def cell_volume(self) -> float:
        return self.grid.cell_area * (self.t_window / self.nt)

    # -- representations -------------------------------------------------------

    def l2_norm(self) -> float:
        """Plancherel lattice norm over the full lattice: space-time data need not be real."""
        return float(np.sqrt(_lattice_total(self._block, self.columns, self.grid.nx)))

    def x_mean_content(self) -> float:
        """Relative magnitude of the xi = 0 spectral plane."""
        if not len(self.columns) or self.columns[0] != 0:
            return 0.0
        return _x_mean_content(self._block)

    def to_physical(self) -> np.ndarray:
        """Physical samples ``u[it, iy, ix]``."""
        return _kept_slices(self._block, self.columns, self.grid.nx, slice(None))

    def slices(self) -> tuple[Field, ...]:
        """Single-time fields at each sample time; ``Field.from_spectral`` raises
        ``ValueError`` for a slice that is not finite or not a real field."""
        spatial = _on_columns(scipy.fft.fft(self._block, axis=0, norm="ortho"), self.columns, self.grid.nx)
        return tuple(Field.from_spectral(self.grid, spatial[i]) for i in range(self.nt))


def sample_linear_flow(
    phi: Field, nt: int, t_window: float, params: DispersionParams
) -> SpaceTimeField:
    """Sample the exact linear flow of ``phi`` on the periodic time window."""
    omega = omega_on_grid(phi.grid, params)
    data = zero_mode_project(phi).data
    times = _sample_times(nt, t_window)
    spatial = data[None, :, :] * np.exp(-1j * times[:, None, None] * omega[None, :, :])
    spec = scipy.fft.ifft(spatial, axis=0, norm="ortho")
    return SpaceTimeField._from_block(phi.grid, float(t_window), np.arange(phi.grid.nx), spec)


def random_modulation_shell(
    grid: SpectralGrid,
    nt: int,
    t_window: float,
    j: int,
    seed,
    params: DispersionParams,
    weight: tuple[np.ndarray, np.ndarray] | None = None,
) -> SpaceTimeField:
    """Random coefficients weighted by the j-th dyadic modulation shell, drawn
    only on its support: real then imaginary normals of the block's shape.  The
    field keeps just the shell's columns.  A precomputed ``weight`` is that
    shell's ``_shell_weight`` pair."""
    columns, block = _shell_weight(grid, nt, float(t_window), params, j) if weight is None else weight
    rng = np.random.default_rng(seed)
    coeffs = np.empty(block.shape, dtype=np.complex128)
    coeffs.real = rng.standard_normal(block.shape)
    coeffs.imag = rng.standard_normal(block.shape)
    coeffs *= block
    return SpaceTimeField._from_block(grid, float(t_window), columns, coeffs)


def bourgain_norm(u: SpaceTimeField, spec: NormSpec, params: DispersionParams) -> float:
    """Lattice l2 norm weighted by <tau - omega>**b <xi>**s1 <mu>**s2.

    The xi = 0 plane must be empty: project-out fields already satisfy this,
    anything else raises a zero-mass violation.
    """
    require_zero_x_mean(u, "modulation-weighted norm")
    columns = u.columns
    row, col = _sobolev_weights(u.grid, spec.s1, spec.s2)
    sigma = _sigma_lattice(u.grid, u.nt, u.t_window, params, columns)
    weight = bracket(sigma) ** spec.b * (row[:, columns] * col)[None, :, :]
    weight[:, :, columns == 0] = 0.0
    return float(np.sqrt(_lattice_total(weight * u._block, columns, u.grid.nx)))


def modulation_project(
    u: SpaceTimeField,
    j: int,
    params: DispersionParams,
    weight: tuple[np.ndarray, np.ndarray] | None = None,
) -> SpaceTimeField:
    """Multiply the spectrum's modulus by the dyadic shell eta_j(tau - omega).

    Coefficient phases are discarded before weighting, the form the shell
    estimates are stated for.  A precomputed ``weight`` is as for
    ``random_modulation_shell``; the returned field keeps only its columns.
    """
    require_zero_x_mean(u, "modulation projection")
    columns, block = _shell_weight(u.grid, u.nt, u.t_window, params, j) if weight is None else weight
    # a modulus product is real; widening it leaves every imaginary part +0
    coeffs = (block * np.abs(u._block_on(columns))).astype(np.complex128)
    return SpaceTimeField._from_block(u.grid, u.t_window, columns, coeffs)


def _restriction_mask(u: SpaceTimeField, T: float) -> np.ndarray:
    """Samples of the periodic window lying in [-T, T] (wrapping the top)."""
    t = u.times
    wrapped = np.where(t <= 0.5 * u.t_window, t, t - u.t_window)
    return np.abs(wrapped) <= T


def strichartz_ratio(
    u: SpaceTimeField,
    j: int,
    r: float,
    T: float,
    params: DispersionParams,
    weight: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Mixed-norm smoothing ratio of the j-th modulation shell of ``u``:

        || |d/dx|^(1/2 - 1/r) f_j ||_{L^q_T L^r}  /  (2^(j/2) ||f_j||_{L^2})

    for 2 <= r < inf, with q = 2r/(r - 2) (sup over time when r = 2).  Integral norms: lattice
    sums carry the cell area and time step.  Raises ``UndefinedRatioError``
    when the shell is empty; ``weight`` is as for ``modulation_project``.
    """
    if not 2 <= r < np.inf:
        raise ValueError(f"inner exponent r must lie in [2, inf), got {r!r}")
    if not 0.0 < T < 1.0:
        raise ValueError(f"T must lie in (0, 1), got {T!r}")
    if T >= 0.5 * u.t_window:
        raise ValueError("restriction window [-T, T] exceeds the periodic time window")

    if weight is None:
        weight = _shell_weight(u.grid, u.nt, u.t_window, params, j)
    fj = modulation_project(u, j, params, weight=weight)
    l2 = fj.l2_norm() * np.sqrt(fj.cell_volume)
    if l2 == 0.0:
        raise UndefinedRatioError(f"modulation shell j={j} of the field is empty")
    keep = _restriction_mask(u, T)
    if not np.any(keep):
        raise UndefinedRatioError("no time samples fall inside [-T, T]")

    # fj is zero off its columns: smooth and time-transform only those.  Each block is
    # dropped before the next large array is made, so a sample holds at most u, one
    # (len(keep), ny, nx) lattice transformed in place, and one slice's magnitudes.
    columns = fj.columns
    smoothing = np.abs(u.grid.xi[columns]) ** (0.5 - 1.0 / r)
    spectra = scipy.fft.fft(fj._block * smoothing, axis=0, norm="ortho", overwrite_x=True)[keep]
    del fj
    spatial = _on_columns(spectra, columns, u.grid.nx)
    physical = scipy.fft.ifft2(spatial, axes=(1, 2), norm="ortho", overwrite_x=True)
    sums = np.empty(len(physical))
    for i, plane in enumerate(physical):
        magnitudes = np.abs(plane)
        sums[i] = np.sum(np.power(magnitudes, r, out=magnitudes))
    inner = (sums * u.grid.cell_area) ** (1.0 / r)
    if r == 2:
        mixed = float(np.max(inner))
    else:
        q = 2.0 * r / (r - 2.0)
        dt = u.t_window / u.nt
        mixed = float((np.sum(inner**q) * dt) ** (1.0 / q))
    return mixed / (2.0 ** (0.5 * j) * l2)
