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

from .cutoffs import dyadic_eta
from .dispersion import DispersionParams, omega_on_grid
from .errors import UndefinedRatioError
from .field import Field, _Spectrum, _take
from .grid import SpectralGrid
from .norms import NormSpec, bracket
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
    tau = 2.0 * np.pi * np.fft.fftfreq(nt, d=t_window / nt)
    return tau[:, None, None] - omega_on_grid(grid, params)[None, :, :]


@dataclass(frozen=True)
class SpaceTimeField(_Spectrum):
    """Fully spectral (tau, mu, xi) representation of u(t, x, y)."""

    grid: SpectralGrid
    nt: int
    t_window: float
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.nt < 1:
            raise ValueError(f"nt must be positive, got {self.nt}")
        if not (np.isfinite(self.t_window) and self.t_window > 0):
            raise ValueError(f"t_window must be positive, got {self.t_window!r}")
        expected = (self.nt, self.grid.ny, self.grid.nx)
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} != {expected}")
        if self.data.dtype != np.complex128:
            raise ValueError(f"spectral data must be complex128, got {self.data.dtype}")
        object.__setattr__(self, "data", _take(self.data))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_physical(
        cls, grid: SpectralGrid, t_window: float, samples: np.ndarray
    ) -> "SpaceTimeField":
        samples = np.asarray(samples, dtype=np.complex128)
        spec = np.fft.ifft(np.fft.fft2(samples, axes=(1, 2), norm="ortho"), axis=0, norm="ortho")
        return cls(grid, samples.shape[0], float(t_window), spec)

    @classmethod
    def from_spectral(
        cls, grid: SpectralGrid, t_window: float, coeffs: np.ndarray
    ) -> "SpaceTimeField":
        return cls(grid, coeffs.shape[0], float(t_window), np.array(coeffs, dtype=np.complex128))

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

    def to_physical(self) -> np.ndarray:
        return np.fft.ifft2(np.fft.fft(self.data, axis=0, norm="ortho"), axes=(1, 2), norm="ortho")

    def slices(self) -> tuple[Field, ...]:
        """Single-time fields at each sample time."""
        spatial = np.fft.fft(self.data, axis=0, norm="ortho")
        return tuple(Field.from_spectral(self.grid, spatial[i]) for i in range(self.nt))


def sample_linear_flow(
    phi: Field, nt: int, t_window: float, params: DispersionParams
) -> SpaceTimeField:
    """Sample the exact linear flow of ``phi`` on the periodic time window."""
    omega = omega_on_grid(phi.grid, params)
    data = zero_mode_project(phi).data
    times = _sample_times(nt, t_window)
    spatial = data[None, :, :] * np.exp(-1j * times[:, None, None] * omega[None, :, :])
    spec = np.fft.ifft(spatial, axis=0, norm="ortho")
    return SpaceTimeField(phi.grid, nt, float(t_window), spec)


def random_modulation_shell(
    grid: SpectralGrid,
    nt: int,
    t_window: float,
    j: int,
    seed,
    params: DispersionParams,
) -> SpaceTimeField:
    """Random coefficients weighted by the j-th dyadic modulation shell."""
    weight = dyadic_eta(j, _sigma_lattice(grid, nt, float(t_window), params))
    rng = np.random.default_rng(seed)
    shape = (nt, grid.ny, grid.nx)
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * weight
    coeffs[:, :, 0] = 0.0
    return SpaceTimeField(grid, nt, float(t_window), coeffs)


def bourgain_norm(u: SpaceTimeField, spec: NormSpec, params: DispersionParams) -> float:
    """Lattice l2 norm weighted by <tau - omega>**b <xi>**s1 <mu>**s2.

    The xi = 0 plane must be empty: project-out fields already satisfy this,
    anything else raises a zero-mass violation.
    """
    require_zero_x_mean(u, "modulation-weighted norm")
    grid = u.grid
    w_space = bracket(grid.xi_mesh) ** spec.s1 * bracket(grid.mu_mesh) ** spec.s2
    weight = bracket(u.sigma(params)) ** spec.b * w_space[None, :, :]
    weight[:, :, 0] = 0.0
    return float(np.linalg.norm(weight * u.data))


def modulation_project(
    u: SpaceTimeField,
    j: int,
    params: DispersionParams,
    variant: str = "modulus",
) -> SpaceTimeField:
    """Multiply the spectrum by the dyadic shell eta_j(tau - omega).

    ``variant="modulus"`` discards coefficient phases before weighting (the
    form the shell estimates are stated for); ``variant="keep_phase"`` is the
    plain projection.
    """
    if variant not in ("modulus", "keep_phase"):
        raise ValueError(f"variant must be 'modulus' or 'keep_phase', got {variant!r}")
    require_zero_x_mean(u, "modulation projection")
    weight = dyadic_eta(j, u.sigma(params))
    base = np.abs(u.data).astype(np.complex128) if variant == "modulus" else u.data
    coeffs = weight * base
    coeffs[:, :, 0] = 0.0
    return SpaceTimeField(u.grid, u.nt, u.t_window, coeffs)


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
    variant: str = "modulus",
) -> float:
    """Mixed-norm smoothing ratio of the j-th modulation shell of ``u``:

        || |d/dx|^(1/2 - 1/r) f_j ||_{L^q_T L^r}  /  (2^(j/2) ||f_j||_{L^2})

    with q = 2r/(r - 2) (sup over time when r = 2).  Integral norms: lattice
    sums carry the cell area and time step.  Raises ``UndefinedRatioError``
    when the shell is empty.
    """
    if r < 2:
        raise ValueError(f"inner exponent r must be >= 2, got {r!r}")
    if not 0.0 < T < 1.0:
        raise ValueError(f"T must lie in (0, 1), got {T!r}")
    if T >= 0.5 * u.t_window:
        raise ValueError("restriction window [-T, T] exceeds the periodic time window")

    fj = modulation_project(u, j, params, variant=variant)
    l2 = fj.l2_norm() * np.sqrt(fj.cell_volume)
    if l2 == 0.0:
        raise UndefinedRatioError(f"modulation shell j={j} of the field is empty")

    exponent = 0.5 - 1.0 / r
    weight = np.abs(u.grid.xi_mesh) ** exponent
    # rebinding fj releases the unweighted shell before the transforms run
    fj = SpaceTimeField(u.grid, u.nt, u.t_window, fj.data * weight[None, :, :])
    phys = fj.to_physical()
    keep = _restriction_mask(u, T)
    if not np.any(keep):
        raise UndefinedRatioError("no time samples fall inside [-T, T]")
    magnitudes = np.abs(phys[keep])
    area = u.grid.cell_area
    inner = (np.sum(magnitudes**r, axis=(1, 2)) * area) ** (1.0 / r)
    if r == 2:
        mixed = float(np.max(inner))
    else:
        q = 2.0 * r / (r - 2.0)
        dt = u.t_window / u.nt
        mixed = float((np.sum(inner**q) * dt) ** (1.0 / q))
    return mixed / (2.0 ** (0.5 * j) * l2)
