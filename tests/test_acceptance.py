"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity next to its pinned tolerance.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from pathlib import Path

import numpy as np

from kp5 import (
    DispersionParams,
    Field,
    GaussianData,
    KPSign,
    ModeSumData,
    NormSpec,
    SolverConfig,
    duhamel_picard,
    evolve,
    linear_trajectory,
    make_grid,
    make_initial_data,
    residual_check,
    sobolev_aniso_norm,
)
from kp5.cli import main
from kp5.sweeps import run_suite

SEED = 20240811


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_ac1_resonance_identity():
    t0 = time.perf_counter()
    report = run_suite("resonance", SEED, 10_000)
    elapsed = time.perf_counter() - t0
    worst = report.summary["max_defect"]
    _report(
        "AC1",
        worst <= 1e-9 and elapsed < 5.0,
        f"resonance identity max defect {worst:.3e} <= 1e-9 over 6x10^4 samples in {elapsed:.2f}s (< 5s)",
    )


def test_ac2_kp2_lower_bound():
    t0 = time.perf_counter()
    report = run_suite("kp2bound", SEED, 10_000)
    elapsed = time.perf_counter() - t0
    lo = report.summary["min_ratio"]
    _report(
        "AC2",
        lo >= 1.0 and elapsed < 5.0,
        f"KP-II bound min ratio {lo:.6f} >= 1 over 2x10^4 samples in {elapsed:.2f}s (< 5s)",
    )


def test_ac3_unitarity_and_group_law():
    t0 = time.perf_counter()
    report = run_suite("unitarity", SEED, 100)
    elapsed = time.perf_counter() - t0
    norm_defect = report.summary["max_norm_defect"]
    group_defect = report.summary["max_group_defect"]
    _report(
        "AC3",
        norm_defect <= 1e-11 and group_defect <= 1e-11 and elapsed < 30.0,
        f"norms preserved to {norm_defect:.3e}, composition defect {group_defect:.3e} "
        f"(both <= 1e-11) on 100 random 64x64 fields in {elapsed:.2f}s (< 30s)",
    )


def test_ac4_linear_residual():
    t0 = time.perf_counter()
    grid = make_grid(16, 16, 2 * np.pi, 2 * np.pi)
    params = DispersionParams(kp_sign=KPSign.KP1, alpha=1.0)
    mode = Field.single_mode(grid, 1, 1)
    traj = linear_trajectory(mode, 1e-4, 6, params)
    residual = residual_check(traj, params)
    elapsed = time.perf_counter() - t0
    _report(
        "AC4",
        residual < 1e-6 and elapsed < 10.0,
        f"central-difference linear residual {residual:.3e} < 1e-6 (dt=1e-4, single mode) "
        f"in {elapsed:.2f}s (< 10s)",
    )


def test_ac5_nonlinear_conservation():
    t0 = time.perf_counter()
    grid = make_grid(128, 128, 32 * np.pi, 32 * np.pi)
    params = DispersionParams(kp_sign=KPSign.KP1, alpha=1.0)
    f0 = make_initial_data(grid, GaussianData(amplitude=0.1, sigma_x=4.0, sigma_y=4.0))
    cfg = SolverConfig(dt=1e-4, t_final=0.1)
    traj = evolve(f0, cfg, params, state_stride=200)
    masses = np.array([rec["mass"] for rec in traj.diagnostics])
    energies = np.array([rec["energy"] for rec in traj.diagnostics])
    mass_drift = float(np.max(np.abs(masses - masses[0])) / masses[0])
    energy_drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
    elapsed = time.perf_counter() - t0
    _report(
        "AC5",
        mass_drift < 1e-8 and energy_drift < 1e-5,
        f"128x128 Gaussian run: relative mass drift {mass_drift:.3e} < 1e-8, "
        f"relative energy drift {energy_drift:.3e} < 1e-5 ({elapsed:.1f}s)",
    )


def test_ac6_picard_contraction_and_cross_validation():
    grid = make_grid(32, 32, 2 * np.pi, 2 * np.pi)
    params = DispersionParams(kp_sign=KPSign.KP1, alpha=1.0)
    phi = make_initial_data(grid, ModeSumData(modes=((1, 0, 1.0, 0.0), (1, 1, 0.5, 0.3))))
    phi = phi * (0.009 / phi.l2_norm())
    assert phi.l2_norm() <= 1e-2

    def discrepancy(dt: float) -> tuple[float, tuple[float, ...]]:
        cfg = SolverConfig(
            dt=dt, t_final=0.1, cutoff_T=0.1, picard_tol=1e-13, picard_max_iters=25
        )
        result = duhamel_picard(phi, cfg, params)
        assert result.converged
        traj = evolve(phi, cfg, params)
        worst = 0.0
        for i, t in enumerate(result.trajectory.times):
            if t <= 0.5 * cfg.cutoff_T + 1e-12:
                j = int(round(float(t) / dt))
                worst = max(worst, (result.trajectory.states[i] - traj.states[j]).l2_norm())
        return worst, result.ratios

    d_coarse, ratios = discrepancy(5e-3)
    d_fine, _ = discrepancy(2.5e-3)
    factor = d_coarse / d_fine
    contraction_ok = len(ratios) >= 1 and all(r < 1.0 for r in ratios)
    reported_tol = d_coarse / 1.8
    _report(
        "AC6",
        contraction_ok and factor >= 1.8 and d_fine <= reported_tol and d_fine <= 1e-8,
        f"contraction ratios {[f'{r:.2e}' for r in ratios]} all < 1; "
        f"fixed point vs solver discrepancy {d_coarse:.3e} -> {d_fine:.3e} "
        f"(factor {factor:.2f} >= 1.8, fine level within reported tolerance {reported_tol:.3e})",
    )


def test_ac7_dyadic_smoothing_constant():
    t0 = time.perf_counter()
    report = run_suite("strichartz", SEED, 100)
    elapsed = time.perf_counter() - t0
    slope = report.summary["slope"]
    _report(
        "AC7",
        slope <= 0.1 and elapsed < 300.0,
        f"max log2-ratio regression slope {slope:.4f} <= 0.1 over shells 0..8, "
        f"100 samples each, 64^3 lattice, in {elapsed:.1f}s (< 5min)",
    )


def test_ac8_convolution_bounds():
    report = run_suite("convolution", SEED, 201)
    spot_err = report.summary["spot_pi_over_2_error"]
    per_gamma_bracket = report.summary["max_ratio_bracket"]
    per_gamma_sqrt = report.summary["max_ratio_sqrt"]
    finite = all(np.isfinite(v) for v in per_gamma_bracket.values()) and all(
        np.isfinite(v) for v in per_gamma_sqrt.values()
    )
    _report(
        "AC8",
        report.passed and finite and spot_err <= 1e-8,
        f"spot value |int - pi/2| = {spot_err:.2e} <= 1e-8; per-gamma max ratios "
        f"bracket={ {k: round(v, 3) for k, v in per_gamma_bracket.items()} }, "
        f"sqrt={ {k: round(v, 3) for k, v in per_gamma_sqrt.items()} } all finite",
    )


def test_ac9_exact_identities():
    dyadic = run_suite("dyadic", SEED, 1_000_000)
    telescoping = dyadic.summary["max_defect"]

    from kp5 import SpaceTimeField, bourgain_norm

    grid = make_grid(16, 16, 2 * np.pi, 2 * np.pi)
    params = DispersionParams()
    rng = np.random.default_rng(SEED)
    coeffs = rng.standard_normal((16, 16, 16)) + 1j * rng.standard_normal((16, 16, 16))
    coeffs[:, :, 0] = 0.0
    st = SpaceTimeField(grid, 2 * np.pi, coeffs)
    b0 = bourgain_norm(st, NormSpec(0, 0, 0.0), params)
    b0_defect = abs(b0 - st.l2_norm()) / st.l2_norm()

    f = Field.from_physical(grid, rng.standard_normal(grid.shape))
    l2_defect = abs(sobolev_aniso_norm(f, NormSpec(0, 0)) - f.l2_norm()) / f.l2_norm()

    _report(
        "AC9",
        telescoping <= 1e-15 and b0_defect <= 1e-12 and l2_defect <= 1e-12,
        f"dyadic telescoping defect {telescoping:.2e} <= 1e-15 (10^6 points, J=40); "
        f"b=0 space-time norm defect {b0_defect:.2e} <= 1e-12; "
        f"(0,0) Sobolev vs L2 defect {l2_defect:.2e} <= 1e-12",
    )


def _tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.startswith(".")
    }


def test_ac10_cli_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "grid": {"nx": 16, "ny": 16, "lx": 6.283185307179586, "ly": 6.283185307179586},
                "dispersion": {"kp_sign": "kp1", "alpha": 1.0},
                "solver": {"dt": 1e-3, "t_final": 5e-3, "cutoff_T": 0.1, "picard_tol": 1e-12},
                "initial_data": {"kind": "random_shell", "shell": 2, "seed": 7},
                "monitors": [[1, 0], [0, 1]],
                "output": {"directory": str(tmp_path / "unused"), "snapshot_stride": 2},
            }
        )
    )
    pic_cfg = tmp_path / "pic.json"
    pic_cfg.write_text(
        json.dumps(
            {
                "grid": {"nx": 16, "ny": 16, "lx": 6.283185307179586, "ly": 6.283185307179586},
                "dispersion": {"kp_sign": "kp1", "alpha": 1.0},
                "solver": {"dt": 2e-3, "t_final": 0.05, "cutoff_T": 0.1, "picard_tol": 1e-12},
                "initial_data": {"kind": "mode_sum", "modes": [[1, 0, 0.005, 0.0]]},
                "output": {"directory": str(tmp_path / "unused2")},
            }
        )
    )

    commands = {
        "simulate": ["simulate", "--config", str(cfg_path), "--seed", "5"],
        "picard": ["picard", "--config", str(pic_cfg), "--seed", "5"],
        "verify": ["verify", "dyadic", "--seed", "5", "--samples", "20000"],
        "resonance-map": ["resonance-map", "--xi1=1:3:3", "--xi2=1:3:3", "--mu1=-1:1:3", "--mu2=-1:1:3"],
    }
    all_ok = True
    details = []
    for name, argv in commands.items():
        trees = []
        for run in ("r1", "r2"):
            out = tmp_path / f"{name}-{run}"
            rc = main(argv + ["--out", str(out), "--quiet"])
            assert rc == 0, f"{name} exited {rc}"
            trees.append(_tree_bytes(out))
        identical = trees[0] == trees[1]
        all_ok = all_ok and identical
        details.append(f"{name}:{'identical' if identical else 'DIFFERS'}")

    # norms writes a JSON artifact; compare it the same way
    run_dir = tmp_path / "simulate-r1"
    for run in ("n1", "n2"):
        out = tmp_path / f"norms-{run}"
        rc = main(
            ["norms", "--field", str(run_dir / "final.kp5f"), "--alpha", "1.0", "--out", str(out), "--quiet"]
        )
        assert rc == 0
    identical = _tree_bytes(tmp_path / "norms-n1") == _tree_bytes(tmp_path / "norms-n2")
    all_ok = all_ok and identical
    details.append(f"norms:{'identical' if identical else 'DIFFERS'}")

    _report("AC10", all_ok, "seeded CLI reruns byte-identical (" + ", ".join(details) + ")")
