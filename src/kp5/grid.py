"""Periodic box geometry and the discrete wavenumber lattice.

Storage conventions, fixed once for the whole package:

* physical samples live on ``x_i = i*lx/nx``, ``y_j = j*ly/ny``;
* arrays are indexed ``[iy, ix]`` (y outer, x inner), so a C-order flatten
  matches the on-disk sample order of the field dump format;
* wavenumbers follow ``scipy.fft.fftfreq`` ordering with
  ``wavenumber(k) = 2*pi*k_signed/L`` and ``k_signed in {-n/2, ..., n/2 - 1}``;
* spectral data uses the unitary transform normalization (``norm="ortho"``),
  so the plain lattice sums of ``|u|**2`` agree in both spaces;
* every cached table of a grid is write-locked (``_take``), and the 2-D
  meshes are read-only broadcast views of the 1-D tables, not copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import GridError

__all__ = ["SpectralGrid", "make_grid"]


def _take(arr: np.ndarray) -> np.ndarray:
    """Write-lock an array, copying first if it aliases someone else's memory."""
    if not arr.flags.writeable and arr.base is None:
        return arr
    if arr.base is not None or not arr.flags.c_contiguous:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic rectangle ``[0, lx) x [0, ly)`` sampled on ``nx x ny`` points."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self) -> None:
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
                raise GridError(f"{name} must be an integer, got {n!r}")
            if n < 4 or n % 2 != 0:
                raise GridError(f"{name} must be even and >= 4, got {n}")
        if 16 * int(self.nx) * int(self.ny) > np.iinfo(np.intp).max:  # a complex lattice must be indexable
            raise GridError(f"nx*ny = {self.nx}*{self.ny} is too large to index a complex lattice")
        for name, length in (("lx", self.lx), ("ly", self.ly)):
            if not np.isfinite(length) or length <= 0:
                raise GridError(f"{name} must be a positive finite real, got {length!r}")

    @cached_property
    def x(self) -> np.ndarray:
        """Physical x samples, shape (nx,)."""
        return _take(np.arange(self.nx) * (self.lx / self.nx))

    @cached_property
    def y(self) -> np.ndarray:
        """Physical y samples, shape (ny,)."""
        return _take(np.arange(self.ny) * (self.ly / self.ny))

    @cached_property
    def xi(self) -> np.ndarray:
        """x wavenumbers 2*pi*k/lx in fftfreq order, shape (nx,); xi[0] == 0 exactly."""
        return _take(2.0 * np.pi * scipy.fft.fftfreq(self.nx, d=self.lx / self.nx))

    @cached_property
    def mu(self) -> np.ndarray:
        """y wavenumbers 2*pi*l/ly in fftfreq order, shape (ny,)."""
        return _take(2.0 * np.pi * scipy.fft.fftfreq(self.ny, d=self.ly / self.ny))

    @cached_property
    def xi_mesh(self) -> np.ndarray:
        """xi broadcast on the [iy, ix] lattice, shape (ny, nx): a read-only view of ``xi``."""
        return np.broadcast_to(self.xi, self.shape)

    @cached_property
    def mu_mesh(self) -> np.ndarray:
        """mu broadcast on the [iy, ix] lattice, shape (ny, nx): a read-only view of ``mu``."""
        return np.broadcast_to(self.mu[:, None], self.shape)

    @cached_property
    def k_signed_x(self) -> np.ndarray:
        """Integer x mode numbers in storage order."""
        return _take(np.rint(scipy.fft.fftfreq(self.nx) * self.nx).astype(int))

    @cached_property
    def k_signed_y(self) -> np.ndarray:
        """Integer y mode numbers in storage order."""
        return _take(np.rint(scipy.fft.fftfreq(self.ny) * self.ny).astype(int))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True where |k| <= nx/3 and |l| <= ny/3 (2/3-rule retained band)."""
        # integer comparison 3|k| <= n avoids float fuzz at the band edge
        keep_x = 3 * np.abs(self.k_signed_x) <= self.nx
        keep_y = 3 * np.abs(self.k_signed_y) <= self.ny
        return _take(keep_y[:, None] & keep_x[None, :])

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape (ny, nx) of one field."""
        return (self.ny, self.nx)

    @property
    def cell_area(self) -> float:
        """Quadrature weight of one sample, lx*ly/(nx*ny)."""
        return self.lx * self.ly / (self.nx * self.ny)

    def index_of_mode(self, k: int, l: int) -> tuple[int, int]:
        """Spectral array index (iy, ix) of integer mode (k, l)."""
        if not (-self.nx // 2 <= k < self.nx // 2):
            raise GridError(f"x mode {k} outside [-{self.nx // 2}, {self.nx // 2})")
        if not (-self.ny // 2 <= l < self.ny // 2):
            raise GridError(f"y mode {l} outside [-{self.ny // 2}, {self.ny // 2})")
        return (l % self.ny, k % self.nx)


def make_grid(nx: int, ny: int, lx: float, ly: float) -> SpectralGrid:
    """Build a validated periodic grid; rejects odd or tiny sizes and nonpositive lengths."""
    if nx != int(nx) or ny != int(ny):
        raise GridError(f"grid sizes must be integers, got nx={nx!r}, ny={ny!r}")
    return SpectralGrid(nx=int(nx), ny=int(ny), lx=float(lx), ly=float(ly))
