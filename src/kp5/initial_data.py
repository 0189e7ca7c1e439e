"""Initial-data generators.  Every generator ends with a zero-mode projection
so the antiderivative d/dx^-1 is meaningful from the first step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutoffs import dyadic_eta
from .errors import ConfigError, FormatError
from .field import Field, hermitian_reflect
from .fileio import read_field
from .grid import SpectralGrid
from .symbols import zero_mode_project

__all__ = [
    "GaussianData",
    "ModeSumData",
    "RandomShellData",
    "FileData",
    "make_initial_data",
]


@dataclass(frozen=True)
class GaussianData:
    """Bump exp(-(x-cx)^2/(2 sx^2) - (y-cy)^2/(2 sy^2)) evaluated on the lattice."""

    amplitude: float
    sigma_x: float
    sigma_y: float
    center: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for name in ("sigma_x", "sigma_y"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ModeSumData:
    """Sum of A*cos(2*pi*(k*x/lx + l*y/ly) + phase) over integer modes."""

    modes: tuple[tuple[int, int, float, float], ...]


@dataclass(frozen=True)
class RandomShellData:
    """Random real field supported on the j-th dyadic annulus of |(xi, mu)|."""

    shell: int
    seed: int


@dataclass(frozen=True)
class FileData:
    """Reload physical samples from a KP5F dump; the grid must match."""

    path: str


def _gaussian(grid: SpectralGrid, spec: GaussianData) -> Field:
    cx, cy = spec.center if spec.center is not None else (0.5 * grid.lx, 0.5 * grid.ly)
    x = grid.x[None, :]
    y = grid.y[:, None]
    u = spec.amplitude * np.exp(
        -((x - cx) ** 2) / (2.0 * spec.sigma_x**2) - ((y - cy) ** 2) / (2.0 * spec.sigma_y**2)
    )
    return Field.from_physical(grid, u)


def _mode_sum(grid: SpectralGrid, spec: ModeSumData) -> Field:
    x = grid.x[None, :]
    y = grid.y[:, None]
    u = np.zeros(grid.shape)
    for k, l, amp, phase in spec.modes:
        u = u + amp * np.cos(2.0 * np.pi * (k * x / grid.lx + l * y / grid.ly) + phase)
    return Field.from_physical(grid, u)


def _random_shell(grid: SpectralGrid, spec: RandomShellData) -> Field:
    rng = np.random.default_rng(spec.seed)
    radius = np.sqrt(grid.xi_mesh**2 + grid.mu_mesh**2)
    weight = dyadic_eta(spec.shell, radius)
    if not np.any(weight[:, 1:]):  # the xi = 0 column is projected out
        raise ConfigError(f"initial_data.shell: shell {spec.shell} has no lattice point off xi = 0")
    raw = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) * weight
    coeffs = 0.5 * (raw + hermitian_reflect(raw))
    return Field.from_spectral(grid, coeffs)


def _from_file(grid: SpectralGrid, spec: FileData) -> Field:
    loaded, _time = read_field(spec.path)
    if loaded.grid != grid:
        raise FormatError(
            f"{spec.path}: stored grid {loaded.grid} does not match configured grid {grid}"
        )
    return loaded


def make_initial_data(grid: SpectralGrid, spec) -> Field:
    """Build deterministic initial data from a generator spec and project out
    the zero mode.  Data that overflows to a non-finite value is a
    ``ConfigError``, not a field."""
    # an overflow is reported below, as a config error, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(spec, GaussianData):
            raw = _gaussian(grid, spec)
        elif isinstance(spec, ModeSumData):
            raw = _mode_sum(grid, spec)
        elif isinstance(spec, RandomShellData):
            raw = _random_shell(grid, spec)
        elif isinstance(spec, FileData):
            raw = _from_file(grid, spec)
        else:
            raise ConfigError(f"unknown initial-data spec {spec!r}")
    if not raw.is_finite():
        raise ConfigError("initial_data: the generated field overflows to a non-finite value")
    return zero_mode_project(raw)
