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

from .cutoffs import cutoff_psi, cutoff_psi_T
from .dispersion import DispersionParams, omega_on_grid
from .errors import ContractionFailureError
from .evolution import SolverConfig, Trajectory, _diagnostics_record
from .field import Field
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
    """Batched dealiased d/dx(u^2)/2 on spatial-spectral time slices."""
    mask = grid.dealias_mask
    phys = np.fft.ifft2(u * mask, axes=(1, 2), norm="ortho")
    if real:
        phys = phys.real
    squared = np.fft.fft2(phys * phys, axes=(1, 2), norm="ortho")
    return squared * (0.5j * grid.xi_mesh) * mask


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
    t = np.arange(n_nodes) * h

    omega = omega_on_grid(grid, params)
    phase_fwd = np.exp(-1j * t[:, None, None] * omega[None, :, :])
    phase_back = np.conj(phase_fwd)
    psi = cutoff_psi(t)[:, None, None]
    psi_t = cutoff_psi_T(t, cfg.cutoff_T)[:, None, None]

    phi_hat = zero_mode_project(phi).data
    free = psi * (phase_fwd * phi_hat[None, :, :])

    u = free.copy()
    distances: list[float] = []
    converged = False
    increases = 0
    for _ in range(cfg.picard_max_iters):
        # overflow during a diverging iteration is expected; it surfaces as a
        # non-finite distance and becomes a contraction failure below
        with np.errstate(over="ignore", invalid="ignore"):
            integrand = phase_back * _nonlinear_slices(u, grid, phi.reality)
            prefix = np.concatenate(
                [
                    np.zeros((1, grid.ny, grid.nx), dtype=np.complex128),
                    np.cumsum((integrand[1:] + integrand[:-1]) * (0.5 * h), axis=0),
                ],
                axis=0,
            )
            new = free - psi_t * (phase_fwd * prefix)
            d = float(np.sqrt(h * np.sum(np.abs(new - u) ** 2)))
        distances.append(d)
        u = new
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

    states = tuple(Field.from_spectral(grid, u[j], reality=phi.reality) for j in range(n_nodes))
    diagnostics = tuple(
        _diagnostics_record(float(t[j]), states[j], params.alpha, monitors)
        for j in range(n_nodes)
    )
    trajectory = Trajectory(t, states, diagnostics)
    return PicardResult(trajectory=trajectory, distances=tuple(distances), converged=converged)
