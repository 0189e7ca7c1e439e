"""One real scalar field at fixed time, stored spectrally.

A ``Field`` is one write-locked array: its unitary-normalized Fourier
coefficients on columns ``0..nx//2`` of the ``(ny, nx)`` lattice.  Every field
is real, so the other columns are their Hermitian mirrors; ``Field.data``
builds the full lattice afresh on each read.  Fields are immutable and may be
shared freely between threads; every constructor copies caller data.  Every
lattice norm sums through ``_column_sums``, which calls no BLAS.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import scipy.fft

from .grid import SpectralGrid, _take

__all__ = ["Field", "hermitian_complete", "hermitian_reflect", "is_hermitian"]

_HERMITIAN_TOL = 1e-12


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
    return float(np.max(np.abs(hermitian_reflect(data)[..., :half] - data[..., :half])))


def is_hermitian(data: np.ndarray) -> bool:
    """True when ``data`` matches its Hermitian reflection to 1e-12 of its peak
    magnitude, i.e. when it holds the spectrum of a real field."""
    scale = float(np.max(np.abs(data))) if data.size else 0.0
    return scale == 0.0 or _defect(data) <= _HERMITIAN_TOL * scale


def _column_sums(a: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """Per-column sums of ``weight * |a|**2`` (``weight`` real, broadcasting) over every axis
    but the last: a two-index ``einsum`` on the float64 (re, im) view, which calls no BLAS."""
    v = a.view(np.float64)
    w = v if weight is None else v * np.repeat(weight, 2, axis=-1)
    sums = np.einsum("rk,rk->k", w.reshape(-1, v.shape[-1]), v.reshape(-1, v.shape[-1]))
    return sums[0::2] + sums[1::2]


def _mirrored_total(column_sums: np.ndarray) -> float:
    """Full-lattice total from the sums over a real field's stored columns ``0..nx//2``: the
    xi = 0 and Nyquist columns count once, every other column twice (it and its mirror)."""
    return float(column_sums[0] + column_sums[-1] + 2.0 * np.sum(column_sums[1:-1]))


def _x_mean_content(data: np.ndarray) -> float:
    line = float(np.max(np.abs(data[..., 0])))
    if line == 0.0:  # 0.0 whatever the scale, so skip the full-array pass
        return 0.0
    scale = float(np.max(np.abs(data)))
    return line / scale if scale > 0.0 else 0.0


class Field:
    """Spectral coefficients of one real scalar field on a shared grid.

    ``_stored`` holds columns ``0..nx//2`` and is all a field keeps: a raw
    ``Field(grid, data)`` copies those columns of ``data`` and drops the rest,
    so a Hermitian defect there reaches no value derived from the field.
    """

    grid: SpectralGrid

    def __init__(self, grid: SpectralGrid, data: np.ndarray) -> None:
        if data.shape != grid.shape:
            raise ValueError(f"data shape {data.shape} != grid shape {grid.shape}")
        if data.dtype != np.complex128:
            raise ValueError(f"spectral data must be complex128, got {data.dtype}")
        self.__dict__.update(grid=grid, _stored=_take(data[:, : grid.nx // 2 + 1]))

    @classmethod
    def _from_stored(cls, grid: SpectralGrid, stored: np.ndarray) -> "Field":
        """Take ownership of a stored ``(ny, nx//2 + 1)`` half spectrum."""
        f = cls.__new__(cls)
        f.__dict__.update(grid=grid, _stored=_take(stored))
        return f

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"Field(grid={self.grid!r})"

    @property
    def data(self) -> np.ndarray:
        """A new write-locked ``(ny, nx)`` coefficient lattice, completed from
        the stored half on each read."""
        return _take(hermitian_complete(self._stored, self.grid.nx))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, grid: SpectralGrid) -> "Field":
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    @classmethod
    def from_physical(cls, grid: SpectralGrid, samples: np.ndarray) -> "Field":
        """Transform real physical samples (indexed [iy, ix]) to spectral storage."""
        samples = np.asarray(samples)
        if samples.shape != grid.shape:
            raise ValueError(f"sample shape {samples.shape} != grid shape {grid.shape}")
        if np.iscomplexobj(samples):
            raise ValueError(f"a Field holds a real field; got {samples.dtype} samples")
        half = scipy.fft.rfft2(samples.astype(np.float64, copy=False), norm="ortho")
        edges = half[:, :: grid.nx // 2]  # xi = 0 and Nyquist: Hermitian to rounding, made exactly so
        edges[...] = 0.5 * (edges + _mirror(edges, np.empty_like(edges)))
        return cls._from_stored(grid, half)

    @classmethod
    def from_spectral(cls, grid: SpectralGrid, coeffs: np.ndarray) -> "Field":
        """Store a copy of the spectral coefficients of a real field; raises
        ``ValueError`` unless they are finite and conjugation-symmetric (``is_hermitian``)."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != grid.shape:
            raise ValueError(f"data shape {coeffs.shape} != grid shape {grid.shape}")
        bad = coeffs.size - int(np.count_nonzero(np.isfinite(coeffs)))
        if bad:
            raise ValueError(f"{bad} of {coeffs.size} coefficients are not finite")
        if not is_hermitian(coeffs):
            raise ValueError("coefficients not conjugation-symmetric: not the spectrum of a real field")
        return cls(grid, coeffs)

    @classmethod
    def single_mode(cls, grid: SpectralGrid, k: int, l: int, amplitude: complex = 1.0) -> "Field":
        """The real mode: ``amplitude`` at (k, l) and its conjugate at (-k, -l).
        A mode that is its own mirror needs a real amplitude."""
        iy, ix = grid.index_of_mode(k, l)
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        coeffs[-iy % grid.ny, -ix % grid.nx] = np.conj(amplitude)
        coeffs[iy, ix] = amplitude
        return cls.from_spectral(grid, coeffs)

    # -- representations -----------------------------------------------------

    def to_physical(self) -> np.ndarray:
        """Real physical samples, from the stored half spectrum."""
        return scipy.fft.irfft2(self._stored, s=self.grid.shape, norm="ortho")

    # -- norms and reductions --------------------------------------------------

    def l2_norm(self) -> float:
        """Plancherel lattice norm sqrt(sum |coeff|^2) = sqrt(sum |u|^2)."""
        return float(np.sqrt(_mirrored_total(_column_sums(self._stored))))

    def linf_physical(self) -> float:
        return float(np.max(np.abs(self.to_physical())))

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self._stored)))

    def x_mean_content(self) -> float:
        """Relative magnitude of the xi = 0 line; a mirror column has its stored column's magnitudes."""
        return _x_mean_content(self._stored)

    # -- arithmetic (same grid required) ---------------------------------------

    def _combine(self, other: "Field", op) -> "Field":
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        return Field._from_stored(self.grid, op(self._stored, other._stored))

    def __add__(self, other: "Field") -> "Field":
        return self._combine(other, np.add)

    def __sub__(self, other: "Field") -> "Field":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> "Field":
        s = complex(scalar)
        if s.imag != 0.0:
            raise ValueError(f"a Field scales by real scalars only, got {scalar!r}")
        return Field._from_stored(self.grid, self._stored * s)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field._from_stored(self.grid, -self._stored)
