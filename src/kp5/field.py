"""One real scalar field at fixed time, stored spectrally.

``Field.data`` holds the unitary-normalized Fourier coefficients on the
``(ny, nx)`` lattice; the physical representation is recovered on demand.
Fields are immutable: every operation returns a new value and the backing
arrays are write-locked, so fields may be shared freely between threads.
The raw ``Field(...)`` constructor takes ownership of the array it is given;
the ``from_*`` constructors always copy caller data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpectralGrid

__all__ = ["Field", "hermitian_reflect", "is_hermitian"]

_HERMITIAN_TOL = 1e-12


def _take(arr: np.ndarray) -> np.ndarray:
    """Write-lock an array, copying first if it aliases someone else's memory."""
    if not arr.flags.writeable and arr.base is None:
        return arr
    if arr.base is not None or not arr.flags.c_contiguous:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def hermitian_reflect(data: np.ndarray) -> np.ndarray:
    """conj(data) sampled at (-k, -l); equals data itself for real fields."""
    return np.conj(np.roll(data[::-1, ::-1], shift=(1, 1), axis=(0, 1)))


def is_hermitian(data: np.ndarray) -> bool:
    """True when ``data`` matches its Hermitian reflection to 1e-12 of its peak
    magnitude, i.e. when it holds the spectrum of a real field."""
    scale = float(np.max(np.abs(data))) if data.size else 0.0
    if scale == 0.0:
        return True
    defect = float(np.max(np.abs(data - hermitian_reflect(data))))
    return defect <= _HERMITIAN_TOL * scale


class _Spectrum:
    """Behaviour shared by spectral containers whose write-locked ``data``
    array has xi as its last axis (``Field`` and ``SpaceTimeField``)."""

    def l2_norm(self) -> float:
        """Plancherel lattice norm sqrt(sum |coeff|^2) = sqrt(sum |u|^2)."""
        return float(np.linalg.norm(self.data))

    def x_mean_content(self) -> float:
        """Relative magnitude of the xi = 0 spectral line."""
        line = float(np.max(np.abs(self.data[..., 0])))
        scale = float(np.max(np.abs(self.data)))
        return line / scale if scale > 0.0 else 0.0


@dataclass(frozen=True)
class Field(_Spectrum):
    """Spectral coefficients of one scalar field on a shared grid."""

    grid: SpectralGrid
    data: np.ndarray
    reality: bool = True

    def __post_init__(self) -> None:
        if self.data.shape != self.grid.shape:
            raise ValueError(f"data shape {self.data.shape} != grid shape {self.grid.shape}")
        if self.data.dtype != np.complex128:
            raise ValueError(f"spectral data must be complex128, got {self.data.dtype}")
        object.__setattr__(self, "data", _take(self.data))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, grid: SpectralGrid) -> "Field":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128), reality=True)

    @classmethod
    def from_physical(cls, grid: SpectralGrid, samples: np.ndarray) -> "Field":
        """Transform physical samples (indexed [iy, ix]) to spectral storage."""
        samples = np.asarray(samples)
        if samples.shape != grid.shape:
            raise ValueError(f"sample shape {samples.shape} != grid shape {grid.shape}")
        reality = not np.iscomplexobj(samples)
        coeffs = np.fft.fft2(samples.astype(np.complex128), norm="ortho")
        return cls(grid, coeffs, reality=reality)

    @classmethod
    def from_spectral(
        cls, grid: SpectralGrid, coeffs: np.ndarray, reality: bool | None = None
    ) -> "Field":
        """Wrap a copy of spectral coefficients; reality is auto-detected when not given."""
        coeffs = np.array(coeffs, dtype=np.complex128, copy=True)
        if reality is None:
            reality = is_hermitian(coeffs)
        return cls(grid, coeffs, reality=bool(reality))

    @classmethod
    def single_mode(cls, grid: SpectralGrid, k: int, l: int, amplitude: complex = 1.0) -> "Field":
        """Field with one spectral coefficient set; reality auto-detected."""
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        coeffs[grid.index_of_mode(k, l)] = amplitude
        return cls.from_spectral(grid, coeffs)

    # -- representations -----------------------------------------------------

    def to_physical(self) -> np.ndarray:
        """Physical samples; real-valued array when the reality flag is set."""
        phys = np.fft.ifft2(self.data, norm="ortho")
        return phys.real if self.reality else phys

    def reality_defect(self) -> float:
        """Max |c(k,l) - conj(c(-k,-l))| over the lattice."""
        return float(np.max(np.abs(self.data - hermitian_reflect(self.data))))

    # -- norms and reductions --------------------------------------------------

    def linf_physical(self) -> float:
        return float(np.max(np.abs(self.to_physical())))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data)))

    # -- arithmetic (same grid required) ---------------------------------------

    def _check_same_grid(self, other: "Field") -> None:
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.data + other.data, self.reality and other.reality)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.data - other.data, self.reality and other.reality)

    def __mul__(self, scalar) -> "Field":
        s = complex(scalar)
        reality = self.reality and s.imag == 0.0
        return Field(self.grid, self.data * s, reality)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.data, self.reality)
