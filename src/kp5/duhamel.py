"""Fixed-point construction of the solution from its integral form.

The iteration lives on a uniform fine time grid covering [0, t_final]:

    u^0(t)   = psi(t) S(t) phi
    u^(n+1)(t) = psi(t) S(t) phi - psi_T(t) * int_0^t S(t-t') N(u^n)(t') dt'

with N(u) = dealiased d/dx(u^2)/2 and the integral evaluated by composite
trapezoid in the interaction picture (S applied exactly per node, so the
quadrature only sees the slowly varying envelope).  Iteration stops when the
discrete space-time L2 distance between successive iterates drops below the
configured tolerance; two consecutive distance increases raise a
contraction failure, which signals that the cutoff window or the data is too
large for the iteration to contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .cutoffs import cutoff_psi, cutoff_psi_T
from .dispersion import DispersionParams, omega_on_grid
from .errors import ContractionFailureError
from .evolution import SolverConfig, Trajectory, _diagnostics_record
from .field import Field, hermitian_complete
from .norms import NormSpec
from .symbols import require_zero_x_mean, zero_mode_project

__all__ = ["PicardResult", "duhamel_picard"]


@dataclass(frozen=True)
class PicardResult:
    """Converged (or truncated) iteration output."""

    trajectory: Trajectory
    distances: tuple[float, ...]
    converged: bool

    @property
    def ratios(self) -> tuple[float, ...]:
        """Successive distance ratios d_(n+1)/d_n where defined."""
        out = []
        for a, b in zip(self.distances, self.distances[1:]):
            if a > 0.0:
                out.append(b / a)
        return tuple(out)


def _nonlinear_slices(u: np.ndarray, grid, real: bool) -> np.ndarray:
    """Batched dealiased d/dx(u^2)/2 on time slices of the half (``real``) or full spectrum."""
    cols = u.shape[-1]
    mask = grid.dealias_mask[:, :cols]
    inverse, forward = (scipy.fft.irfft2, scipy.fft.rfft2) if real else (scipy.fft.ifft2, scipy.fft.fft2)
    phys = inverse(u * mask, s=grid.shape, axes=(1, 2), norm="ortho", overwrite_x=True)
    phys *= phys
    out = forward(phys, axes=(1, 2), norm="ortho", overwrite_x=True)
    out *= 0.5j * grid.xi[:cols] * mask
    return out


def duhamel_picard(
    phi: Field,
    cfg: SolverConfig,
    params: DispersionParams,
    monitors: tuple[NormSpec, ...] = (),
) -> PicardResult:
    """Iterate the cutoff integral equation to its fixed point.

    Time nodes are ``j*h`` with ``h = dt/(quadrature_nodes - 1)``, so each
    solver step carries ``quadrature_nodes`` trapezoid nodes.  Returns the
    final iterate as a trajectory over the fine grid plus the distance
    sequence; raises ``ContractionFailureError`` when the distances grow for
    two consecutive iterations.
    """
    require_zero_x_mean(phi, what="fixed-point iteration")
    grid = phi.grid
    sub = cfg.quadrature_nodes - 1
    h = cfg.dt / sub
    n_nodes = cfg.n_steps * sub + 1
    real = phi.reality
    cols = grid.nx // 2 + 1 if real else grid.nx
    if 16 * n_nodes * grid.ny * cols > np.iinfo(np.intp).max:
        raise MemoryError(
            f"one node array of {n_nodes:.3g} nodes x {grid.ny}x{cols} complex modes "
            "exceeds numpy's maximum array size"
        )
    t = np.arange(n_nodes) * h

    # a real phi lives on the half spectrum: every interior column stands for
    # itself and its Hermitian mirror, so it counts twice in the distance
    weights = np.full(cols, 2.0 if real else 1.0)
    weights[[0, -1]] = 1.0
    phase_fwd = np.exp(-1j * t[:, None, None] * omega_on_grid(grid, params)[None, :, :cols])
    psi = cutoff_psi(t)[:, None, None]
    psi_t = cutoff_psi_T(t, cfg.cutoff_T)[:, None, None]

    phi_hat = zero_mode_project(phi).data[:, :cols]
    free = psi * (phase_fwd * phi_hat)

    # u and new swap roles each round and are updated in place; only the
    # quadratic term allocates node-sized arrays
    u = free.copy()
    new = np.empty_like(u)
    distances: list[float] = []
    converged = False
    increases = 0
    for _ in range(cfg.picard_max_iters):
        # overflow during a diverging iteration is expected; it surfaces as a
        # non-finite distance and becomes a contraction failure below
        with np.errstate(over="ignore", invalid="ignore"):
            # conj(phase_fwd) * N(u), as conj(phase_fwd * conj(N(u))) in place
            integrand = _nonlinear_slices(u, grid, real)
            np.conj(integrand, out=integrand)
            integrand *= phase_fwd
            np.conj(integrand, out=integrand)
            # new = free - psi_T * phase_fwd * (trapezoid prefix of integrand)
            new[0] = 0.0
            np.add(integrand[1:], integrand[:-1], out=new[1:])
            del integrand
            new[1:] *= 0.5 * h
            np.cumsum(new[1:], axis=0, out=new[1:])
            new *= phase_fwd
            new *= psi_t
            np.subtract(free, new, out=new)
            # |new - u|^2 summed in place in u, read as (re, im) float pairs
            sq = np.subtract(new, u, out=u).view(np.float64)
            np.square(sq, out=sq)
            sums = sq.reshape(n_nodes, grid.ny, cols, 2).sum(axis=(0, 1, 3))
            d = float(np.sqrt(h * np.dot(weights, sums)))
        distances.append(d)
        u, new = new, u
        if d < cfg.picard_tol:
            converged = True
            break
        grew = len(distances) >= 2 and d > distances[-2]
        if not np.isfinite(d) or (grew and increases >= 1):
            raise ContractionFailureError(
                "fixed-point iterates stopped contracting; "
                "shrink cutoff_T or the initial data "
                f"(distances {distances})",
                distances=distances,
            )
        increases = increases + 1 if grew else 0

    del new, free, phase_fwd
    states = tuple(
        Field.from_spectral(grid, hermitian_complete(s, grid.nx) if real else s, reality=real) for s in u
    )
    diagnostics = tuple(
        _diagnostics_record(float(t[j]), states[j], params.alpha, monitors)
        for j in range(n_nodes)
    )
    trajectory = Trajectory(t, states, diagnostics)
    return PicardResult(trajectory=trajectory, distances=tuple(distances), converged=converged)
