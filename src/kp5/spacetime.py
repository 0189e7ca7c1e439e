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

from dataclasses import dataclass
from functools import cached_property

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


def _sigma_lattice(
    grid: SpectralGrid, nt: int, t_window: float, params: DispersionParams
) -> np.ndarray:
    """Modulation tau - omega(xi, mu) on the (nt, ny, nx) lattice, with the
    temporal frequencies tau = 2*pi*k/t_window in fftfreq order."""
    tau = 2.0 * np.pi * scipy.fft.fftfreq(nt, d=t_window / nt)
    return tau[:, None, None] - omega_on_grid(grid, params)[None, :, :]


def _shell_weight(
    grid: SpectralGrid, nt: int, t_window: float, params: DispersionParams, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dyadic shell weight eta_j(tau - omega) on its support: the xi columns where
    it is nonzero (never xi = 0) and its (nt, ny, len(columns)) block on them."""
    weight = dyadic_eta(j, _sigma_lattice(grid, nt, t_window, params))
    columns = np.flatnonzero(np.any(weight[:, :, 1:] != 0.0, axis=(0, 1))) + 1
    return columns, weight[:, :, columns]


def _on_columns(block: np.ndarray, columns: np.ndarray, nx: int) -> np.ndarray:
    """Scatter an (..., len(columns)) block onto the xi ``columns`` of zeros."""
    full = np.zeros(block.shape[:-1] + (nx,), dtype=np.complex128)
    full[..., columns] = block
    return full


def _kept_slices(block: np.ndarray, columns: np.ndarray, nx: int, keep: np.ndarray) -> np.ndarray:
    """``to_physical()[keep]`` of a spectrum that is zero off the xi ``columns``,
    from its (nt, ny, len(columns)) block: only the block is time-transformed."""
    spatial = scipy.fft.fft(block, axis=0, norm="ortho")[keep]
    return scipy.fft.ifft2(_on_columns(spatial, columns, nx), axes=(1, 2), norm="ortho")


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """Fully spectral (tau, mu, xi) representation of u(t, x, y); keeps a write-locked copy of ``data``.
    Equality and hashing are by identity, as for ``Field``."""

    grid: SpectralGrid
    nt: int
    t_window: float
    data: np.ndarray

    def __post_init__(self, copy: bool = True) -> None:
        if self.nt < 1:
            raise ValueError(f"nt must be positive, got {self.nt}")
        if not (np.isfinite(self.t_window) and self.t_window > 0):
            raise ValueError(f"t_window must be positive, got {self.t_window!r}")
        expected = (self.nt, self.grid.ny, self.grid.nx)
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} != {expected}")
        if self.data.dtype != np.complex128:
            raise ValueError(f"spectral data must be complex128, got {self.data.dtype}")
        object.__setattr__(self, "data", _take(self.data.copy() if copy else self.data))

    @classmethod
    def _from_owned(cls, grid: SpectralGrid, nt: int, t_window: float, data: np.ndarray) -> "SpaceTimeField":
        """Check and write-lock a spectrum the caller has just allocated, without a copy."""
        u = cls.__new__(cls)
        u.__dict__.update(grid=grid, nt=nt, t_window=t_window, data=data)
        u.__post_init__(copy=False)
        return u

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_physical(
        cls, grid: SpectralGrid, t_window: float, samples: np.ndarray
    ) -> "SpaceTimeField":
        samples = np.asarray(samples, dtype=np.complex128)
        spec = scipy.fft.ifft(scipy.fft.fft2(samples, axes=(1, 2), norm="ortho"), axis=0, norm="ortho")
        return cls._from_owned(grid, samples.shape[0], float(t_window), spec)

    @classmethod
    def from_spectral(
        cls, grid: SpectralGrid, t_window: float, coeffs: np.ndarray
    ) -> "SpaceTimeField":
        return cls._from_owned(grid, coeffs.shape[0], float(t_window), np.array(coeffs, dtype=np.complex128))

    # -- lattices ------------------------------------------------------------

    @cached_property
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
        return float(np.sqrt(np.sum(_column_sums(self.data))))

    def x_mean_content(self) -> float:
        """Relative magnitude of the xi = 0 spectral plane."""
        return _x_mean_content(self.data)

    def to_physical(self) -> np.ndarray:
        """Physical samples ``u[it, iy, ix]``."""
        spatial = scipy.fft.fft(self.data, axis=0, norm="ortho")
        return scipy.fft.ifft2(spatial, axes=(1, 2), norm="ortho")

    def slices(self) -> tuple[Field, ...]:
        """Single-time fields at each sample time; ``Field.from_spectral`` raises
        ``ValueError`` for a slice that is not finite or not a real field."""
        spatial = scipy.fft.fft(self.data, axis=0, norm="ortho")
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
    return SpaceTimeField._from_owned(phi.grid, nt, float(t_window), spec)


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
    only on its support: real then imaginary normals of the block's shape.  A
    precomputed ``weight`` is that shell's ``_shell_weight`` pair."""
    columns, block = _shell_weight(grid, nt, float(t_window), params, j) if weight is None else weight
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape)) * block
    return SpaceTimeField._from_owned(grid, nt, float(t_window), _on_columns(coeffs, columns, grid.nx))


def bourgain_norm(u: SpaceTimeField, spec: NormSpec, params: DispersionParams) -> float:
    """Lattice l2 norm weighted by <tau - omega>**b <xi>**s1 <mu>**s2.

    The xi = 0 plane must be empty: project-out fields already satisfy this,
    anything else raises a zero-mass violation.
    """
    require_zero_x_mean(u, "modulation-weighted norm")
    row, col = _sobolev_weights(u.grid, spec.s1, spec.s2)
    weight = bracket(u.sigma(params)) ** spec.b * (row * col)[None, :, :]
    weight[:, :, 0] = 0.0
    return float(np.sqrt(np.sum(_column_sums(weight * u.data))))


def modulation_project(
    u: SpaceTimeField,
    j: int,
    params: DispersionParams,
    weight: tuple[np.ndarray, np.ndarray] | None = None,
) -> SpaceTimeField:
    """Multiply the spectrum's modulus by the dyadic shell eta_j(tau - omega).

    Coefficient phases are discarded before weighting, the form the shell
    estimates are stated for.  A precomputed ``weight`` is as for
    ``random_modulation_shell``; only its columns are weighted, the rest of
    the returned lattice is zero.
    """
    require_zero_x_mean(u, "modulation projection")
    columns, block = _shell_weight(u.grid, u.nt, u.t_window, params, j) if weight is None else weight
    part = u.data[:, :, columns]
    # a modulus product stays real until the scatter widens it (imaginary parts +0)
    coeffs = block * np.abs(part)
    return SpaceTimeField._from_owned(u.grid, u.nt, u.t_window, _on_columns(coeffs, columns, u.grid.nx))


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

    with q = 2r/(r - 2) (sup over time when r = 2).  Integral norms: lattice
    sums carry the cell area and time step.  Raises ``UndefinedRatioError``
    when the shell is empty; ``weight`` is as for ``modulation_project``.
    """
    if r < 2:
        raise ValueError(f"inner exponent r must be >= 2, got {r!r}")
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

    columns = weight[0]  # fj is zero off them: smooth and time-transform only these
    smoothing = np.abs(u.grid.xi[columns]) ** (0.5 - 1.0 / r)
    magnitudes = np.abs(_kept_slices(fj.data[:, :, columns] * smoothing, columns, u.grid.nx, keep))
    area = u.grid.cell_area
    inner = (np.sum(magnitudes**r, axis=(1, 2)) * area) ** (1.0 / r)
    if r == 2:
        mixed = float(np.max(inner))
    else:
        q = 2.0 * r / (r - 2.0)
        dt = u.t_window / u.nt
        mixed = float((np.sum(inner**q) * dt) ** (1.0 / q))
    return mixed / (2.0 ** (0.5 * j) * l2)
