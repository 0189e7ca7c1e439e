"""Seeded Monte-Carlo verification suites behind the ``verify`` subcommand.

Sampling convention for frequency sweeps: magnitudes log-uniform in
[1e-2, 1e2] with independent random signs, rejection-resampled away from the
degenerate surfaces (|xi1|, |xi2| or |xi1+xi2| below 1e-3).  Per-sample RNG
streams are spawned from the master seed, so results do not depend on
execution order or worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .convbounds import convolution_bound_check
from .cutoffs import cutoff_psi, dyadic_eta
from .dispersion import DispersionParams, KPSign
from .errors import ConfigError
from .evolution import linear_propagate
from .field import Field
from .grid import make_grid
from .norms import NormSpec, sobolev_aniso_norm
from .resonance import kp2_lower_bound_ratio, resonance_identity_check
from .spacetime import _shell_weight, random_modulation_shell, strichartz_ratio
from .symbols import zero_mode_project

__all__ = ["SuiteReport", "SUITES", "run_suite", "suite_for", "thread_budget"]


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    passed: bool
    summary: dict
    rows: tuple[dict, ...] = ()


def thread_budget() -> int:
    """Worker cap from KP5_THREADS (default 1; results never depend on it)."""
    raw = os.environ.get("KP5_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"KP5_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"KP5_THREADS must be >= 1, got {n}")
    return n


def _log_uniform_signed(rng: np.random.Generator, n: int) -> np.ndarray:
    magnitude = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
    sign = rng.choice([-1.0, 1.0], size=n)
    return magnitude * sign


def _frequency_sample(rng: np.random.Generator, n: int):
    """Nondegenerate (xi1, xi2, mu1, mu2) with rejection at the 1e-3 floor."""
    xi1 = _log_uniform_signed(rng, n)
    xi2 = _log_uniform_signed(rng, n)
    mu1 = _log_uniform_signed(rng, n)
    mu2 = _log_uniform_signed(rng, n)
    for _ in range(64):
        bad = (np.abs(xi1) < 1e-3) | (np.abs(xi2) < 1e-3) | (np.abs(xi1 + xi2) < 1e-3)
        count = int(np.sum(bad))
        if count == 0:
            return xi1, xi2, mu1, mu2
        xi1[bad] = _log_uniform_signed(rng, count)
        xi2[bad] = _log_uniform_signed(rng, count)
    raise RuntimeError("rejection sampling failed to clear the degenerate surface")


# -- resonance ----------------------------------------------------------------


def resonance_suite(seed: int, samples: int = 10_000) -> SuiteReport:
    """Identity defect of the closed-form resonance, both branches, alpha in
    {-1, 0, 1}; passes when every defect is <= 1e-9."""
    rows = []
    worst = 0.0
    for sign_index, sign in enumerate((KPSign.KP1, KPSign.KP2)):
        for alpha in (-1.0, 0.0, 1.0):
            rng = np.random.default_rng([seed, sign_index, int(alpha) + 1])
            xi1, xi2, mu1, mu2 = _frequency_sample(rng, samples)
            params = DispersionParams(kp_sign=sign, alpha=alpha)
            defect = resonance_identity_check(xi1, xi2, mu1, mu2, params)
            peak = float(np.max(defect))
            worst = max(worst, peak)
            rows.append({"kp_sign": sign.value, "alpha": alpha, "max_defect": peak})
    return SuiteReport(
        suite="resonance",
        seed=seed,
        passed=worst <= 1e-9,
        summary={"max_defect": worst, "threshold": 1e-9, "samples_per_case": samples},
        rows=tuple(rows),
    )


# -- kp2 lower bound ----------------------------------------------------------


def kp2bound_suite(seed: int, samples: int = 10_000) -> SuiteReport:
    """KP-II resonance magnitude against max^4 * min at alpha = 0; the generic
    batch is augmented with the worst-case parallel-line family mu1/xi1 =
    mu2/xi2.  Passes when every ratio is >= 1."""
    rng = np.random.default_rng([seed, 0x6B7032])
    xi1, xi2, mu1, mu2 = _frequency_sample(rng, samples)
    generic = kp2_lower_bound_ratio(xi1, xi2, mu1, mu2)
    del xi1, xi2, mu1, mu2  # not held through the parallel family, the suite's peak
    xi1p, xi2p, mu1p = _frequency_sample(rng, samples)[:3]
    mu2p = xi2p * (mu1p / xi1p)
    parallel = kp2_lower_bound_ratio(xi1p, xi2p, mu1p, mu2p)
    lo = float(min(np.min(generic), np.min(parallel)))
    rows = (
        {"family": "generic", "min_ratio": float(np.min(generic)), "max_ratio": float(np.max(generic))},
        {"family": "parallel", "min_ratio": float(np.min(parallel)), "max_ratio": float(np.max(parallel))},
    )
    return SuiteReport(
        suite="kp2bound",
        seed=seed,
        passed=lo >= 1.0,
        summary={"min_ratio": lo, "threshold": 1.0, "samples_per_family": samples},
        rows=rows,
    )


# -- dyadic shell smoothing ratios ---------------------------------------------


_SHELLS = range(9)  # the strichartz suite's shells j, each also its index into the weights
_SIZE = 64  # its space-time lattice is _SIZE^3


def strichartz_suite(seed: int, samples: int = 100) -> SuiteReport:
    """Smoothing ratio (r = 4, T = 0.5) of random modulation-shell functions
    on the 64^3 space-time lattice, shells j = 0..8; passes when the regression
    slope of max log2-ratio against the shell index stays <= 0.1 (the constant
    does not grow with the shell).  Workers come from KP5_THREADS."""
    grid = make_grid(_SIZE, _SIZE, 2.0 * np.pi, 2.0 * np.pi)
    params = DispersionParams(kp_sign=KPSign.KP1, alpha=0.0)
    master = np.random.SeedSequence(seed)
    children = master.spawn(len(_SHELLS) * samples)

    def sample(n: int) -> float:
        j = n // samples
        u = random_modulation_shell(grid, _SIZE, 2.0 * np.pi, j, children[n], params, weights[j])
        return strichartz_ratio(u, j, r=4.0, T=0.5, params=params, weight=weights[j])

    # each shell's compact weight once, then one pool task per sample
    with ThreadPoolExecutor(max_workers=thread_budget()) as pool:
        weights = list(pool.map(lambda j: _shell_weight(grid, _SIZE, 2.0 * np.pi, params, j), _SHELLS))
        ratios = list(pool.map(sample, range(len(children))))

    rows = []
    max_log2 = []
    for j in _SHELLS:
        block = ratios[j * samples : (j + 1) * samples]
        for k, value in enumerate(block):
            rows.append({"j": j, "r": 4.0, "sample": k, "ratio": value})
        max_log2.append(np.log2(max(block)))
    # least-squares slope in closed form: np.polyfit would solve it through LAPACK
    x = np.asarray(_SHELLS, dtype=float) - np.mean(_SHELLS)
    y = np.asarray(max_log2)
    slope = float(np.sum(x * (y - np.mean(y))) / np.sum(x * x))
    finite = bool(np.all(np.isfinite(ratios)))
    return SuiteReport(
        suite="strichartz",
        seed=seed,
        passed=finite and slope <= 0.1,
        summary={
            "min": float(np.min(ratios)),
            "max": float(np.max(ratios)),
            "mean": float(np.mean(ratios)),
            "slope": slope,
            "threshold": 0.1,
            "samples_per_shell": samples,
            "max_log2_ratio": {str(j): float(v) for j, v in zip(_SHELLS, max_log2)},
        },
        rows=tuple(rows),
    )


# -- convolution bounds ---------------------------------------------------------


def convolution_suite(seed: int, samples: int = 201) -> SuiteReport:
    """Bound ratios over a grid of offsets for several gamma, in one array check
    with the gamma = 2 spot value; passes when all ratios are finite and the
    spot value matches pi/2 to 1e-8."""
    gammas = (1.1, 1.5, 2.0, 3.0)
    gamma = np.repeat(gammas, samples)
    a = np.tile(np.linspace(-100.0, 100.0, samples), len(gammas))
    res = convolution_bound_check(np.append(gamma, 2.0), np.append(a, 0.0))
    n = gamma.size  # the element after the grid is the spot value
    columns = {
        "gamma": gamma,
        "a": a,
        "lhs_bracket": res.lhs_bracket[:n],
        "ratio_bracket": res.ratio_bracket[:n],
        "lhs_sqrt": res.lhs_sqrt[:n],
        "ratio_sqrt": res.ratio_sqrt[:n],
    }
    rows = tuple(dict(zip(columns, values)) for values in zip(*(c.tolist() for c in columns.values())))
    worst_bracket = columns["ratio_bracket"].reshape(len(gammas), samples).max(axis=1)
    worst_sqrt = columns["ratio_sqrt"].reshape(len(gammas), samples).max(axis=1)
    spot_err = abs(float(res.lhs_bracket[n]) - 0.5 * np.pi)
    finite = bool(np.isfinite(columns["ratio_bracket"]).all() and np.isfinite(columns["ratio_sqrt"]).all())
    return SuiteReport(
        suite="convolution",
        seed=seed,
        passed=finite and spot_err <= 1e-8,
        summary={
            "spot_pi_over_2_error": spot_err,
            "max_ratio_bracket": dict(zip((f"{g:g}" for g in gammas), worst_bracket.tolist())),
            "max_ratio_sqrt": dict(zip((f"{g:g}" for g in gammas), worst_sqrt.tolist())),
            "offsets": samples,
            "quadrature_error_estimate": float(res.error_estimate[:n].max()),
        },
        rows=rows,
    )


# -- dyadic telescoping ----------------------------------------------------------


_J_MAX = 40  # the dyadic suite's top shell J


def dyadic_suite(seed: int, samples: int = 1_000_000) -> SuiteReport:
    """Exact telescoping sum_(j<=J) eta_j(x) = psi(2^-J x), J = 40, on a wide grid;
    passes when the worst defect is <= 1e-15.  One psi pass per shell serves
    shells j and j+1; dyadic_eta itself is checked on every 101st point of
    every shell, and its largest mismatch counts as a defect."""
    rng = np.random.default_rng([seed, 0xD7AD1C])
    n_random = samples // 2
    exponents = rng.uniform(-10.0, float(_J_MAX + 1), size=n_random)
    signs = rng.choice([-1.0, 1.0], size=n_random)
    x = np.concatenate(
        [
            signs * (2.0**exponents),
            np.linspace(-(2.0 ** (_J_MAX + 1)), 2.0 ** (_J_MAX + 1), samples - n_random),
        ]
    )
    del exponents, signs  # not held through the shell passes, which peak at J
    defects = []  # dyadic_eta against each shell on the probe, then the telescoping
    total = np.zeros_like(x)
    prev = np.zeros_like(x)  # psi(2^(1-j) x), with 0 below shell 0 where eta_0 = psi
    for j in range(_J_MAX + 1):
        cur = cutoff_psi(np.ldexp(x, -j))
        np.subtract(cur, prev, out=prev)  # eta_j, in the buffer freed on the next line
        total += prev
        defects.append(np.max(np.abs(dyadic_eta(j, x[::101]) - prev[::101])))
        prev = cur
    defects.append(np.max(np.abs(total - prev)))  # the last pass is the target psi(2^-J x)
    worst = float(np.max(defects))
    return SuiteReport(
        suite="dyadic",
        seed=seed,
        passed=worst <= 1e-15,
        summary={"max_defect": worst, "threshold": 1e-15, "points": samples, "j_max": _J_MAX},
        rows=({"j_max": _J_MAX, "points": samples, "max_defect": worst},),
    )


# -- linear flow unitarity ----------------------------------------------------------


def _random_real_field(grid, rng: np.random.Generator) -> Field:
    samples = rng.standard_normal(grid.shape)
    return zero_mode_project(Field.from_physical(grid, samples))


def unitarity_suite(seed: int, samples: int = 100) -> SuiteReport:
    """Norm preservation and the group law of the linear flow on a 64x64 lattice.

    Times are drawn from [0, 1e-5]: phases stay small enough that the check
    probes the flow rather than libm argument-reduction noise.  Passes when
    all nine Sobolev norms are preserved to 1e-11 relative and the
    composition defect stays below 1e-11 relative.
    """
    grid = make_grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)
    params = DispersionParams(kp_sign=KPSign.KP1, alpha=1.0)
    specs = [NormSpec(s1=float(s1), s2=float(s2)) for s1 in (0, 1, 2) for s2 in (0, 1, 2)]
    rng = np.random.default_rng([seed, 0x0A11])
    worst_norm = 0.0
    worst_group = 0.0
    rows = []
    for k in range(samples):
        f = _random_real_field(grid, rng)
        t, s = rng.uniform(0.0, 1e-5, size=2)
        ft = linear_propagate(f, t, params)
        norm_defect = 0.0
        for spec in specs:
            before = sobolev_aniso_norm(f, spec)
            after = sobolev_aniso_norm(ft, spec)
            norm_defect = max(norm_defect, abs(after - before) / before)
        comp = linear_propagate(ft, s, params) - linear_propagate(f, t + s, params)
        group_defect = comp.l2_norm() / f.l2_norm()
        rows.append({"sample": k, "norm_defect": norm_defect, "group_defect": group_defect})
        worst_norm = max(worst_norm, norm_defect)
        worst_group = max(worst_group, group_defect)
    return SuiteReport(
        suite="unitarity",
        seed=seed,
        passed=worst_norm <= 1e-11 and worst_group <= 1e-11,
        summary={
            "max_norm_defect": worst_norm,
            "max_group_defect": worst_group,
            "threshold": 1e-11,
            "samples": samples,
        },
        rows=tuple(rows),
    )


SUITES = {
    "resonance": resonance_suite,
    "kp2bound": kp2bound_suite,
    "strichartz": strichartz_suite,
    "convolution": convolution_suite,
    "dyadic": dyadic_suite,
    "unitarity": unitarity_suite,
}


def suite_for(name: str, samples: int | None = None):
    """The suite called ``name``; ValueError for an unknown name or samples < 1."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if samples is not None and samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    return SUITES[name]


def run_suite(name: str, seed: int, samples: int | None = None) -> SuiteReport:
    """Dispatch a named suite with its default sample count unless overridden."""
    suite = suite_for(name, samples)
    return suite(seed) if samples is None else suite(seed, samples)
