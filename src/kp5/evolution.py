"""Time evolution: exact linear flow, dealiased split-step nonlinear solver,
and the residual checker that certifies trajectories against the PDE.

The linear propagator is the unimodular multiplier ``exp(-i*t*omega)``;
with the package's transform conventions this makes the discrete residual of
the linear equation vanish (see ``residual_check``).  The nonlinear stepper
is Strang splitting: half a linear flow, one explicit-midpoint substep for
``du/dt = -d/dx(u^2)/2``, half a linear flow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dispersion import DispersionParams, omega_on_grid
from .errors import BlowUpError
from .field import Field, _column_sums, _mirrored_total
from .norms import NormSpec, energy_functional, mass, sobolev_aniso_norm
from .symbols import dealias, require_zero_x_mean, x_derivative, zero_mode_project

__all__ = [
    "SolverConfig",
    "Trajectory",
    "linear_propagate",
    "linear_trajectory",
    "residual_check",
    "nonlinear_rhs",
    "step_splitstep",
    "evolve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Time discretization and fixed-point tuning knobs."""

    dt: float
    t_final: float
    picard_max_iters: int = 25
    picard_tol: float = 1e-10
    quadrature_nodes: int = 2
    cutoff_T: float = 0.5

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (np.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be positive, got {self.t_final!r}")
        if self.dt > self.t_final * (1 + 1e-12):
            raise ValueError("dt must not exceed t_final")
        steps = self.t_final / self.dt
        if not (np.isfinite(steps) and abs(steps - np.rint(steps)) <= 1e-9 * steps):
            raise ValueError(
                f"t_final must be a whole number of steps dt, got t_final/dt = {steps:.6g}"
            )
        if self.picard_max_iters < 1:
            raise ValueError("picard_max_iters must be positive")
        if not self.picard_tol > 0:
            raise ValueError("picard_tol must be positive")
        if self.quadrature_nodes < 2:
            raise ValueError("quadrature_nodes must be at least 2")
        if not 0.0 < self.cutoff_T < 1.0:
            raise ValueError(f"cutoff_T must lie in (0, 1), got {self.cutoff_T!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """States on a shared grid at strictly increasing times, plus per-step
    diagnostic records (each a dict containing at least ``t``)."""

    times: np.ndarray
    states: tuple[Field, ...]
    diagnostics: tuple[dict, ...] = dc_field(default_factory=tuple)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if len(times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(times) == 0:
            raise ValueError("trajectory must contain at least one state")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        grid = self.states[0].grid
        if any(s.grid != grid for s in self.states):
            raise ValueError("all states must share one grid")

    @property
    def grid(self):
        return self.states[0].grid

    def final(self) -> Field:
        return self.states[-1]


def linear_propagate(f: Field, t: float, params: DispersionParams) -> Field:
    """Exact linear flow: multiply projected coefficients by exp(-i*t*omega(xi, mu))."""
    stored = zero_mode_project(f)._stored
    phase = np.exp(-1j * t * omega_on_grid(f.grid, params)[:, : stored.shape[1]])
    return Field._from_stored(f.grid, stored * phase)


def linear_trajectory(
    f0: Field, dt: float, n_steps: int, params: DispersionParams
) -> Trajectory:
    """Sample the exact linear flow at times i*dt, i = 0..n_steps."""
    times = np.arange(n_steps + 1) * dt
    states = tuple(linear_propagate(f0, t, params) for t in times)
    return Trajectory(times, states)


def nonlinear_rhs(f: Field) -> Field:
    """Dealiased quadratic term d/dx(u^2)/2, computed by physical squaring.

    The x-derivative forces exact zeros on the xi = 0 line, so the output has
    zero x-mean by construction.  Truncation happens before differentiation,
    which keeps the Nyquist column, where i*xi is asymmetric, empty.
    """
    u = dealias(f).to_physical()
    # 1/2 is a power of two: folded into the square it changes no coefficient's value
    return x_derivative(dealias(Field.from_physical(f.grid, 0.5 * u * u)))


def _step_with_phase(f: Field, half_phase: np.ndarray, dt: float) -> Field:
    # Callers project ``f`` once; its xi = 0 line then stays +0.0 in every later
    # state, as ``half_phase`` is 1 - 0j there (omega_on_grid is 0 on the line)
    # and ``nonlinear_rhs`` multiplies the line by 1j*0: no re-projection is due.
    # Stored half spectra in the Field operators' operand order: the bits of
    # half - (0.5*dt)*k1.
    grid = f.grid
    phase = half_phase[:, : f._stored.shape[1]]
    half = f._stored * phase
    k1 = nonlinear_rhs(Field._from_stored(grid, half))
    mid = np.multiply(k1._stored, complex(0.5 * dt))
    np.subtract(half, mid, out=mid)
    out = np.multiply(nonlinear_rhs(Field._from_stored(grid, mid))._stored, complex(dt))
    np.subtract(half, out, out=out)
    np.multiply(out, phase, out=out)
    out = Field._from_stored(grid, out)
    if not out.is_finite():
        raise BlowUpError("non-finite samples after split step")
    return out


def step_splitstep(f: Field, dt: float, params: DispersionParams) -> Field:
    """One Strang step: half linear flow, explicit midpoint for the transport
    term, half linear flow.  Raises ``BlowUpError`` on non-finite output."""
    half_phase = np.exp(-0.5j * dt * omega_on_grid(f.grid, params))
    return _step_with_phase(zero_mode_project(f), half_phase, dt)


def _advection_dt_ceiling(f: Field) -> float:
    """Heuristic stability ceiling dt <= 1 / (max|u| * max|xi|)."""
    umax = f.linf_physical()
    ximax = float(np.max(np.abs(f.grid.xi)))
    scale = umax * ximax
    return np.inf if scale == 0.0 else 1.0 / scale


def _diagnostics_record(
    t: float, f: Field, alpha: float, monitors: tuple[NormSpec, ...]
) -> dict:
    rec = {"t": t, "mass": mass(f), "energy": energy_functional(f, alpha)}
    for spec in monitors:
        rec[spec.label] = sobolev_aniso_norm(f, spec)
    return rec


def evolve(
    f0: Field,
    cfg: SolverConfig,
    params: DispersionParams,
    monitors: tuple[NormSpec, ...] = (),
    state_stride: int = 1,
) -> Trajectory:
    """March the split-step solver from 0 to t_final.

    Mass and energy are recorded every step; states are stored every
    ``state_stride`` steps (plus the final one).  On blow-up the raised
    ``BlowUpError`` carries the partial trajectory with diagnostics flushed.
    """
    require_zero_x_mean(f0, "evolve")
    if state_stride < 1:
        raise ValueError("state_stride must be positive")

    n_steps = cfg.n_steps
    if cfg.dt > _advection_dt_ceiling(f0):
        warnings.warn(
            "time step exceeds the advection heuristic dt <= 1/(max|u| max|xi|); "
            "the explicit nonlinear substep may be unstable",
            RuntimeWarning,
            stacklevel=2,
        )

    alpha = params.alpha
    times = [0.0]
    states = [f0]
    diagnostics = [_diagnostics_record(0.0, f0, alpha, monitors)]
    # the check above allows line content up to 1e-12 of the peak; zero it exactly
    current = zero_mode_project(f0)
    half_phase = np.exp(-0.5j * cfg.dt * omega_on_grid(f0.grid, params))
    for i in range(1, n_steps + 1):
        t = i * cfg.dt
        try:
            # overflow right before blow-up detection is expected noise
            with np.errstate(over="ignore", invalid="ignore"):
                current = _step_with_phase(current, half_phase, cfg.dt)
                record = _diagnostics_record(t, current, alpha, monitors)
        except BlowUpError:
            last_finite = (i - 1) * cfg.dt
            if times[-1] < last_finite:  # keep the last finite state even off-stride
                times.append(last_finite)
                states.append(current)
            partial = Trajectory(np.asarray(times), tuple(states), tuple(diagnostics))
            raise BlowUpError(
                f"evolution blew up between t={last_finite!r} and t={t!r}",
                time_reached=last_finite,
                partial=partial,
            ) from None
        diagnostics.append(record)
        if i % state_stride == 0 or i == n_steps:
            times.append(t)
            states.append(current)
    return Trajectory(np.asarray(times), tuple(states), tuple(diagnostics))


def residual_check(
    traj: Trajectory, params: DispersionParams, nonlinear: bool = False
) -> float:
    """Max interior-time lattice-l2 norm of the discrete equation residual.

    Time derivative by central differences, space operators spectral:
    ``du/dt + i*omega(xi, mu) * u(hat)`` plus, when requested, the quadratic
    transport term.  Trajectory times must be equally spaced.
    """
    times = traj.times
    if len(times) < 3:
        raise ValueError("residual check needs at least three states")
    gaps = np.diff(times)
    if np.max(np.abs(gaps - gaps[0])) > 1e-12 * max(abs(gaps[0]), 1e-300):
        raise ValueError("residual check requires equally spaced times")
    dt = float(gaps[0])

    omega = omega_on_grid(traj.grid, params)[:, : traj.grid.nx // 2 + 1]
    worst = 0.0
    for i in range(1, len(times) - 1):
        dudt = (traj.states[i + 1]._stored - traj.states[i - 1]._stored) / (2.0 * dt)
        residual = dudt + 1j * omega * traj.states[i]._stored
        if nonlinear:
            residual = residual + nonlinear_rhs(traj.states[i])._stored
        worst = max(worst, float(np.sqrt(_mirrored_total(_column_sums(residual)))))
    return worst
