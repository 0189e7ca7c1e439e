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

__all__ = ["Field", "hermitian_complete", "hermitian_reflect", "is_hermitian"]

_HERMITIAN_TOL = 1e-12


def _take(arr: np.ndarray) -> np.ndarray:
    """Write-lock an array, copying first if it aliases someone else's memory."""
    if not arr.flags.writeable and arr.base is None:
        return arr
    if arr.base is not None or not arr.flags.c_contiguous:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _mirror(src: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write conj(src) into ``out`` with the row axis reflected (row i takes row -i mod ny).
    Callers reflect the columns by the view of ``src`` they pass."""
    np.conjugate(src[..., :1, :], out=out[..., :1, :])
    np.conjugate(src[..., :0:-1, :], out=out[..., 1:, :])
    return out


def hermitian_reflect(data: np.ndarray) -> np.ndarray:
    """conj(data) sampled at (-k, -l); equals data itself for real fields."""
    out = np.empty_like(data)
    _mirror(data[..., :1], out[..., :1])
    _mirror(data[..., :0:-1], out[..., 1:])
    return out


def hermitian_complete(half: np.ndarray, nx: int) -> np.ndarray:
    """Full ``(..., ny, nx)`` spectrum of a real field from its first ``nx//2 + 1`` columns: the
    xi = 0 and Nyquist columns are kept as stored, the others gain their Hermitian mirrors."""
    out = np.empty(half.shape[:-1] + (nx,), dtype=half.dtype)
    out[..., : nx // 2 + 1] = half
    _mirror(half[..., nx // 2 - 1 : 0 : -1], out[..., nx // 2 + 1 :])
    return out


def _defect(data: np.ndarray) -> float:
    """max |c(k,l) - conj(c(-k,-l))|, read on columns 0..nx//2 only: every other
    column is the mirror of one of these and carries the same values."""
    half = data.shape[-1] // 2 + 1
    diff = np.empty(data.shape[:-1] + (half,), dtype=np.complex128)
    _mirror(data[..., :1], diff[..., :1])
    _mirror(data[..., :0:-1][..., : half - 1], diff[..., 1:])
    diff -= data[..., :half]
    return float(np.max(np.abs(diff)))


def is_hermitian(data: np.ndarray) -> bool:
    """True when ``data`` matches its Hermitian reflection to 1e-12 of its peak
    magnitude, i.e. when it holds the spectrum of a real field."""
    scale = float(np.max(np.abs(data))) if data.size else 0.0
    return scale == 0.0 or _defect(data) <= _HERMITIAN_TOL * scale


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
        if np.iscomplexobj(samples):
            return cls(grid, np.fft.fft2(samples.astype(np.complex128), norm="ortho"), reality=False)
        half = np.fft.rfft2(samples.astype(np.float64, copy=False), norm="ortho")
        edges = half[:, :: grid.nx // 2]  # xi = 0 and Nyquist: Hermitian to rounding, made exactly so
        edges[...] = 0.5 * (edges + _mirror(edges, np.empty_like(edges)))
        return cls(grid, hermitian_complete(half, grid.nx), reality=True)

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
        if self.reality:
            return np.fft.irfft2(self.data[:, : self.grid.nx // 2 + 1], s=self.grid.shape, norm="ortho")
        return np.fft.ifft2(self.data, norm="ortho")

    def reality_defect(self) -> float:
        """Max |c(k,l) - conj(c(-k,-l))| over the lattice."""
        return _defect(self.data)

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
