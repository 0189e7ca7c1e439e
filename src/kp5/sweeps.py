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
from .spacetime import random_modulation_shell, strichartz_ratio
from .symbols import zero_mode_project

__all__ = ["SuiteReport", "SUITES", "run_suite", "thread_budget"]


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    passed: bool
    summary: dict
    columns: tuple[str, ...] = ()
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
        columns=("kp_sign", "alpha", "max_defect"),
        rows=tuple(rows),
    )


# -- kp2 lower bound ----------------------------------------------------------


def kp2bound_suite(seed: int, samples: int = 10_000) -> SuiteReport:
    """KP-II resonance magnitude against max^4 * min at alpha = 0; the generic
    batch is augmented with the worst-case parallel-line family mu1/xi1 =
    mu2/xi2.  Passes when every ratio is >= 1."""
    rng = np.random.default_rng([seed, 0x6B7032])
    xi1, xi2, mu1, mu2 = _frequency_sample(rng, samples)
    generic = kp2_lower_bound_ratio(xi1, xi2, mu1, mu2, alpha=0.0)
    xi1p, xi2p, mu1p, _ = _frequency_sample(rng, samples)
    mu2p = xi2p * (mu1p / xi1p)
    parallel = kp2_lower_bound_ratio(xi1p, xi2p, mu1p, mu2p, alpha=0.0)
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
        columns=("family", "min_ratio", "max_ratio"),
        rows=rows,
    )


# -- dyadic shell smoothing ratios ---------------------------------------------


def strichartz_suite(
    seed: int,
    samples: int = 100,
    j_values: tuple[int, ...] = tuple(range(9)),
    r: float = 4.0,
    T: float = 0.5,
    size: int = 64,
    threads: int | None = None,
) -> SuiteReport:
    """Smoothing ratio of random modulation-shell functions on a space-time
    lattice; passes when the regression slope of max log2-ratio against the
    shell index stays <= 0.1 (the constant does not grow with the shell)."""
    grid = make_grid(size, size, 2.0 * np.pi, 2.0 * np.pi)
    params = DispersionParams(kp_sign=KPSign.KP1, alpha=0.0)
    workers = thread_budget() if threads is None else threads
    master = np.random.SeedSequence(seed)
    children = master.spawn(len(j_values) * samples)

    def one(task) -> float:
        idx, j = task
        u = random_modulation_shell(grid, size, 2.0 * np.pi, j, children[idx], params)
        return strichartz_ratio(u, j, r=r, T=T, params=params)

    tasks = [(i * samples + k, j) for i, j in enumerate(j_values) for k in range(samples)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            ratios = list(pool.map(one, tasks))
    else:
        ratios = [one(task) for task in tasks]

    rows = []
    max_log2 = []
    for i, j in enumerate(j_values):
        block = ratios[i * samples : (i + 1) * samples]
        for k, value in enumerate(block):
            rows.append({"j": j, "r": r, "sample": k, "ratio": value})
        max_log2.append(np.log2(max(block)))
    slope = float(np.polyfit(np.asarray(j_values, dtype=float), np.asarray(max_log2), 1)[0])
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
            "max_log2_ratio": {str(j): float(v) for j, v in zip(j_values, max_log2)},
        },
        columns=("j", "r", "sample", "ratio"),
        rows=tuple(rows),
    )


# -- convolution bounds ---------------------------------------------------------


def convolution_suite(seed: int, samples: int = 201) -> SuiteReport:
    """Bound ratios over a grid of offsets for several gamma; passes when all
    ratios are finite and the gamma = 2 spot value matches pi/2 to 1e-8."""
    a_grid = np.linspace(-100.0, 100.0, samples)
    rows = []
    worst_bracket: dict[float, float] = {}
    worst_sqrt: dict[float, float] = {}
    for gamma in (1.1, 1.5, 2.0, 3.0):
        best_b = 0.0
        best_s = 0.0
        for a in a_grid:
            res = convolution_bound_check(gamma, float(a))
            rows.append(
                {
                    "gamma": gamma,
                    "a": float(a),
                    "lhs_bracket": res.lhs_bracket,
                    "ratio_bracket": res.ratio_bracket,
                    "lhs_sqrt": res.lhs_sqrt,
                    "ratio_sqrt": res.ratio_sqrt,
                }
            )
            best_b = max(best_b, res.ratio_bracket)
            best_s = max(best_s, res.ratio_sqrt)
        worst_bracket[gamma] = best_b
        worst_sqrt[gamma] = best_s
    spot = convolution_bound_check(2.0, 0.0).lhs_bracket
    spot_err = abs(spot - 0.5 * np.pi)
    finite = all(np.isfinite(row["ratio_bracket"]) and np.isfinite(row["ratio_sqrt"]) for row in rows)
    return SuiteReport(
        suite="convolution",
        seed=seed,
        passed=finite and spot_err <= 1e-8,
        summary={
            "spot_pi_over_2_error": spot_err,
            "max_ratio_bracket": {f"{g:g}": v for g, v in worst_bracket.items()},
            "max_ratio_sqrt": {f"{g:g}": v for g, v in worst_sqrt.items()},
            "offsets": samples,
        },
        columns=("gamma", "a", "lhs_bracket", "ratio_bracket", "lhs_sqrt", "ratio_sqrt"),
        rows=tuple(rows),
    )


# -- dyadic telescoping ----------------------------------------------------------


def dyadic_suite(seed: int, samples: int = 1_000_000, j_max: int = 40) -> SuiteReport:
    """Exact telescoping sum_(j<=J) eta_j(x) = psi(2^-J x) on a wide grid;
    passes when the worst defect is <= 1e-15."""
    rng = np.random.default_rng([seed, 0xD7AD1C])
    n_random = samples // 2
    exponents = rng.uniform(-10.0, float(j_max + 1), size=n_random)
    signs = rng.choice([-1.0, 1.0], size=n_random)
    x = np.concatenate(
        [
            signs * (2.0**exponents),
            np.linspace(-(2.0 ** (j_max + 1)), 2.0 ** (j_max + 1), samples - n_random),
        ]
    )
    total = np.zeros_like(x)
    for j in range(j_max + 1):
        total += dyadic_eta(j, x)
    target = cutoff_psi(np.ldexp(x, -j_max))
    worst = float(np.max(np.abs(total - target)))
    return SuiteReport(
        suite="dyadic",
        seed=seed,
        passed=worst <= 1e-15,
        summary={"max_defect": worst, "threshold": 1e-15, "points": samples, "j_max": j_max},
        columns=("j_max", "points", "max_defect"),
        rows=({"j_max": j_max, "points": samples, "max_defect": worst},),
    )


# -- linear flow unitarity ----------------------------------------------------------


def _random_real_field(grid, rng: np.random.Generator) -> Field:
    samples = rng.standard_normal(grid.shape)
    return zero_mode_project(Field.from_physical(grid, samples))


def unitarity_suite(seed: int, samples: int = 100, size: int = 64) -> SuiteReport:
    """Norm preservation and the group law of the linear flow.

    Times are drawn from [0, 1e-5]: phases stay small enough that the check
    probes the flow rather than libm argument-reduction noise.  Passes when
    all nine Sobolev norms are preserved to 1e-11 relative and the
    composition defect stays below 1e-11 relative.
    """
    grid = make_grid(size, size, 2.0 * np.pi, 2.0 * np.pi)
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
        columns=("sample", "norm_defect", "group_defect"),
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


def run_suite(name: str, seed: int, samples: int | None = None) -> SuiteReport:
    """Dispatch a named suite with its default sample count unless overridden."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    suite = SUITES[name]
    return suite(seed) if samples is None else suite(seed, samples)
