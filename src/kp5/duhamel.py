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
from .field import Field, _column_sums, _mirrored_total, hermitian_complete
from .norms import NormSpec
from .symbols import require_zero_x_mean, zero_mode_project

__all__ = ["PicardResult", "duhamel_picard"]

# bytes of one block-sized node array in the Picard loop; small enough that a
# block's working set stays in cache (7 nodes at 64x64 on the half spectrum)
_BLOCK_BYTES = 256 * 1024


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


def _nonlinear_slices(u: np.ndarray, grid) -> np.ndarray:
    """Batched dealiased d/dx(u^2)/2 on time slices of the half spectrum: ``nonlinear_rhs``'s
    bits, as both truncate by ``dealias``'s rule before the transform and the derivative."""
    cols = u.shape[-1]
    mask = grid.dealias_mask[:, :cols]
    phys = scipy.fft.irfft2(np.where(mask, u, 0j), s=grid.shape, axes=(1, 2), norm="ortho", overwrite_x=True)
    phys *= phys
    out = np.where(mask, scipy.fft.rfft2(phys, axes=(1, 2), norm="ortho", overwrite_x=True), 0j)
    out *= 0.5j * grid.xi[:cols]
    return out


def _trapezoid_prefix(integrand: np.ndarray, h: float, carry, out: np.ndarray):
    """Trapezoid prefix sums of one block of nodes into ``out``; returns the carry
    for the next block.  ``carry`` is the previous block's (last prefix, last
    integrand), or ``None`` at node 0; it enters the block's first element before
    the ``cumsum``, so every prefix is summed in the whole-array order."""
    np.add(integrand[1:], integrand[:-1], out=out[1:])
    if carry is None:
        out[0] = 0.0
        body = out[1:]
    else:
        np.add(integrand[0], carry[1], out=out[0])
        body = out
    body *= 0.5 * h
    if carry is not None:
        out[0] += carry[0]
    np.cumsum(body, axis=0, out=body)
    # node 0 alone carries the empty sum -0.0, the exact additive identity
    prefix = out[-1].copy() if len(body) else np.full_like(out[-1], complex(-0.0, -0.0))
    return prefix, integrand[-1].copy()


def duhamel_picard(
    phi: Field,
    cfg: SolverConfig,
    params: DispersionParams,
    monitors: tuple[NormSpec, ...] = (),
) -> PicardResult:
    """Iterate the cutoff integral equation to its fixed point.

    The iterate lives on the half spectrum of the real field ``phi``.
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
    cols = grid.nx // 2 + 1
    if 16 * n_nodes * grid.ny * cols > np.iinfo(np.intp).max:
        raise MemoryError(
            f"one node array of {n_nodes:.3g} nodes x {grid.ny}x{cols} complex modes "
            "exceeds numpy's maximum array size"
        )
    t = np.arange(n_nodes) * h

    phase_fwd = -1j * t[:, None, None] * omega_on_grid(grid, params)[None, :, :cols]
    np.exp(phase_fwd, out=phase_fwd)
    psi = cutoff_psi(t)[:, None, None]
    psi_t = cutoff_psi_T(t, cfg.cutoff_T)[:, None, None]

    phi_hat = zero_mode_project(phi)._stored
    u = np.multiply(phase_fwd, phi_hat)
    np.multiply(psi, u, out=u)

    # each round overwrites u in cache-sized blocks of nodes: a block's quadratic
    # term reads only its own nodes, and the carry holds what it needs of earlier ones
    block = max(1, _BLOCK_BYTES // (16 * grid.ny * cols))
    new = np.empty((block, grid.ny, cols), dtype=np.complex128)
    distances: list[float] = []
    converged = False
    increases = 0
    for _ in range(cfg.picard_max_iters):
        sums = np.zeros(cols)
        carry = None
        # overflow during a diverging iteration is expected; it surfaces as a
        # non-finite distance and becomes a contraction failure below
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n_nodes, block):
                b = slice(start, min(start + block, n_nodes))
                # conj(phase_fwd) * N(u), as conj(phase_fwd * conj(N(u))) in place
                integrand = _nonlinear_slices(u[b], grid)
                np.conj(integrand, out=integrand)
                integrand *= phase_fwd[b]
                np.conj(integrand, out=integrand)
                # new = free - psi_T * phase_fwd * (trapezoid prefix of integrand)
                nb = new[: len(integrand)]
                carry = _trapezoid_prefix(integrand, h, carry, out=nb)
                nb *= phase_fwd[b]
                nb *= psi_t[b]
                np.subtract(psi[b] * (phase_fwd[b] * phi_hat), nb, out=nb)
                # |new - u|^2 summed over nodes and rows, per column of the half spectrum
                sums += _column_sums(np.subtract(nb, u[b], out=integrand))
                u[b] = nb
            d = float(np.sqrt(h * _mirrored_total(sums)))
        distances.append(d)
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

    del new, phase_fwd
    states = tuple(Field.from_spectral(grid, hermitian_complete(s, grid.nx)) for s in u)
    diagnostics = tuple(
        _diagnostics_record(float(t[j]), states[j], params.alpha, monitors)
        for j in range(n_nodes)
    )
    trajectory = Trajectory(t, states, diagnostics)
    return PicardResult(trajectory=trajectory, distances=tuple(distances), converged=converged)
