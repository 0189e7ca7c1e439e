"""Seeded workloads: seed -> op inputs -> ``kp5`` CLI invocations -> output checks.

Op ``index`` of workload ``name`` draws all of its inputs from
``numpy.random.default_rng([seed, TAGS[name], index])``.  Index 0 is the
warm-up op; the timed ops use 1, 2, ...  The same seed therefore gives the
same op sequence in every run, whatever the run's length, and the program
only ever sees the generated config files and arguments.

Op sizes are fixed, so the work per op does not depend on the seed:

* ``march``: ``kp5 simulate``, 128x128 grid, box 32*pi, alpha = 1, dt = 1e-4,
  100 steps, monitors [1,0] and [0,1], a snapshot every 25 steps.  Drawn:
  KP branch, Gaussian amplitude in [0.25, 1], widths in [1.75, 3], centre in
  the middle half of the box.  Widths stay at or above 1.75 because narrower
  bumps carry enough high-frequency content to move the KP-I energy by more
  than the 1e-5 gate within 100 steps.
* ``picard``: ``kp5 picard``, 64x64 grid, box 2*pi, alpha = 1, 20 steps of
  dt = 0.01 with 11 nodes each (201 nodes), monitors [1,0] and [0,1].  Drawn:
  KP branch, and modes (1,1), (2,-1), (3,2) with amplitudes 0.4 * [0.95, 1.05]
  and uniform phases; this data contracts in 7 iterations on both branches.
* ``shell_sweep``: ``kp5 verify strichartz --samples 4``, 64^3 lattice,
  shells 0..8.  Drawn: the suite seed.
* ``identities``: ``kp5 verify`` over resonance (1e5 samples), kp2bound
  (1e5), dyadic (2e5 points) and convolution (51 offsets).  Drawn: the suite
  seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TAGS = {"march": 1, "picard": 2, "shell_sweep": 3, "identities": 4}

MARCH_BOX = 32.0 * math.pi
MARCH_STEPS = 100
MARCH_STRIDE = 25
PICARD_MODES = ((1, 1), (2, -1), (3, 2))
PICARD_NODES = 201
STRICHARTZ_SAMPLES = 4
STRICHARTZ_SHELLS = 9
IDENTITY_SUITES = (("resonance", 100_000), ("kp2bound", 100_000), ("dyadic", 200_000), ("convolution", 51))

MASS_DRIFT_MAX = 1e-8
KP1_ENERGY_DRIFT_MAX = 1e-5
RESONANCE_ROUNDING_BOUND = 1e-3


class CheckFailed(Exception):
    """An op's outputs do not meet the workload's correctness gate."""


@dataclass
class Op:
    """One op: CLI invocations run back to back, and the check of their outputs.

    ``check`` takes the invocations' exit codes, raises ``CheckFailed`` and
    otherwise returns the values it recorded, for the run's per-op log."""

    argvs: list[list[str]]
    out: Path
    check: Callable[[list[int]], dict]


def digest(out: Path) -> str:
    """SHA-256 over every output file's relative name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _branch(rng: np.random.Generator) -> str:
    return ("kp1", "kp2")[int(rng.integers(2))]


def _write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=2))
    return str(path)


def _manifest(out: Path, name: str = "manifest.json") -> dict:
    try:
        return json.loads((out / name).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"unreadable {name}: {exc}") from None


def _diagnostics(out: Path, rows: int) -> dict[str, np.ndarray]:
    try:
        with open(out / "diagnostics.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
    except OSError as exc:
        raise CheckFailed(f"unreadable diagnostics.csv: {exc}") from None
    if len(table) != rows:
        raise CheckFailed(f"diagnostics.csv has {len(table)} rows, expected {rows}")
    return {key: np.array([float(r[key]) for r in table]) for key in table[0]}


def _relative_drift(values: np.ndarray) -> float:
    return float(np.max(np.abs(values - values[0])) / abs(values[0]))


def _require_success(codes: list[int]) -> None:
    if any(code != 0 for code in codes):
        raise CheckFailed(f"exit codes {codes}")


def _require_files(out: Path, names: list[str]) -> None:
    missing = [n for n in names if not (out / n).is_file()]
    if missing:
        raise CheckFailed(f"missing outputs {missing}")


def march_op(rng: np.random.Generator, out: Path, config_path: Path, seed: int) -> Op:
    branch = _branch(rng)
    amplitude = float(rng.uniform(0.25, 1.0))
    sigma_x, sigma_y = (float(v) for v in rng.uniform(1.75, 3.0, size=2))
    center = [float(v) for v in rng.uniform(0.25, 0.75, size=2) * MARCH_BOX]
    config = {
        "grid": {"nx": 128, "ny": 128, "lx": MARCH_BOX, "ly": MARCH_BOX},
        "dispersion": {"kp_sign": branch, "alpha": 1.0},
        "solver": {"dt": 1e-4, "t_final": 1e-4 * MARCH_STEPS},
        "initial_data": {
            "kind": "gaussian",
            "amplitude": amplitude,
            "sigma_x": sigma_x,
            "sigma_y": sigma_y,
            "center": center,
        },
        "monitors": [[1, 0], [0, 1]],
        "output": {"snapshot_stride": MARCH_STRIDE},
    }
    argv = ["simulate", "--config", _write_config(config_path, config), "--out", str(out)]

    def check(codes: list[int]) -> dict:
        _require_success(codes)
        snapshots = [f"snapshot_{step:08d}.kp5f" for step in range(0, MARCH_STEPS + 1, MARCH_STRIDE)]
        _require_files(out, ["final.kp5f", *snapshots])
        if _manifest(out).get("status") != "ok":
            raise CheckFailed("manifest status is not ok")
        diag = _diagnostics(out, MARCH_STEPS + 1)
        mass_drift = _relative_drift(diag["mass"])
        energy_drift = _relative_drift(diag["energy"])
        if not mass_drift < MASS_DRIFT_MAX:
            raise CheckFailed(f"{branch} mass drift {mass_drift:.3e} >= {MASS_DRIFT_MAX:g}")
        # README defines the monitored energy as the KP-I invariant, so KP-II
        # drift is recorded as data and not gated.
        if branch == "kp1" and not energy_drift < KP1_ENERGY_DRIFT_MAX:
            raise CheckFailed(f"kp1 energy drift {energy_drift:.3e} >= {KP1_ENERGY_DRIFT_MAX:g}")
        return {"branch": branch, "mass_drift": mass_drift, "energy_drift": energy_drift}

    return Op([argv + ["--seed", str(seed), "--quiet"]], out, check)


def picard_op(rng: np.random.Generator, out: Path, config_path: Path, seed: int) -> Op:
    branch = _branch(rng)
    modes = [
        [k, l, 0.4 * float(rng.uniform(0.95, 1.05)), float(rng.uniform(0.0, 2.0 * math.pi))]
        for k, l in PICARD_MODES
    ]
    steps = 20
    config = {
        "grid": {"nx": 64, "ny": 64, "lx": 2.0 * math.pi, "ly": 2.0 * math.pi},
        "dispersion": {"kp_sign": branch, "alpha": 1.0},
        "solver": {
            "dt": 0.01,
            "t_final": 0.01 * steps,
            "quadrature_nodes": (PICARD_NODES - 1) // steps + 1,
        },
        "initial_data": {"kind": "mode_sum", "modes": modes},
        "monitors": [[1, 0], [0, 1]],
    }
    argv = ["picard", "--config", _write_config(config_path, config), "--out", str(out)]

    def check(codes: list[int]) -> dict:
        _require_success(codes)
        _require_files(out, ["final.kp5f", "distances.csv"])
        manifest = _manifest(out)
        if manifest.get("status") != "ok" or manifest.get("converged") is not True:
            raise CheckFailed(f"picard did not converge (status {manifest.get('status')!r})")
        distances = manifest["distances"]
        ratios = [b / a for a, b in zip(distances, distances[1:]) if a > 0.0]
        worst = max(ratios, default=0.0)
        if not worst < 1.0:
            raise CheckFailed(f"contraction ratio >= 1: {worst:.3e}")
        _diagnostics(out, PICARD_NODES)
        return {"branch": branch, "iterations": len(distances), "max_ratio": worst}

    return Op([argv + ["--seed", str(seed), "--quiet"]], out, check)


def _suite_summary(out: Path, suite: str) -> dict:
    summary = _manifest(out, f"{suite}_summary.json")
    if summary.get("status") != "pass":
        raise CheckFailed(f"verify {suite} reports {summary.get('status')!r}")
    return summary["summary"]


def _resonance_summary(out: Path) -> dict:
    """Gate the resonance identity at the float64 rounding of its reference.

    ``verify resonance`` fails its own 1e-9 gate on about 2 in 1e7 of its
    samples, so on about 1 op in 10 at 1e5 samples per case: the reference omega(xi1+xi2) - omega1 - omega2 cancels terms of
    up to |xi|**5 ~ 3e11 (|xi1+xi2| <= 200), leaving an error of a few
    eps * 3e11 ~ 1e-4 on a resonance of size 1.  Its verdict is recorded
    as data; a broken identity would show a defect of order 1.
    """
    report = _manifest(out, "resonance_summary.json")
    defect = report["summary"]["max_defect"]
    if not defect <= RESONANCE_ROUNDING_BOUND:
        raise CheckFailed(f"resonance identity defect {defect!r} > {RESONANCE_ROUNDING_BOUND:g}")
    return {"resonance_status": report.get("status"), "resonance_max_defect": defect}


def _verify(suite: str, samples: int, suite_seed: int, out: Path) -> list[str]:
    return ["verify", suite, "--samples", str(samples), "--seed", str(suite_seed), "--out", str(out), "--quiet"]


def shell_sweep_op(rng: np.random.Generator, out: Path, config_path: Path, seed: int) -> Op:
    suite_seed = int(rng.integers(2**63))

    def check(codes: list[int]) -> dict:
        _require_success(codes)
        summary = _suite_summary(out, "strichartz")
        with open(out / "strichartz.csv", newline="") as fh:
            ratios = [float(row["ratio"]) for row in csv.DictReader(fh)]
        if len(ratios) != STRICHARTZ_SAMPLES * STRICHARTZ_SHELLS:
            raise CheckFailed(f"strichartz.csv has {len(ratios)} ratios")
        if not all(math.isfinite(r) for r in ratios):
            raise CheckFailed("non-finite strichartz ratio")
        if not summary["slope"] <= 0.1:
            raise CheckFailed(f"strichartz slope {summary['slope']:.3e} > 0.1")
        return {"suite_seed": suite_seed, "slope": summary["slope"]}

    return Op([_verify("strichartz", STRICHARTZ_SAMPLES, suite_seed, out)], out, check)


def identities_op(rng: np.random.Generator, out: Path, config_path: Path, seed: int) -> Op:
    suite_seed = int(rng.integers(2**63))
    argvs = [_verify(suite, samples, suite_seed, out) for suite, samples in IDENTITY_SUITES]

    def check(codes: list[int]) -> dict:
        record = {"suite_seed": suite_seed}
        for (suite, _samples), code in zip(IDENTITY_SUITES, codes, strict=True):
            if suite == "resonance" and code in (0, 1):
                record.update(_resonance_summary(out))
                continue
            _require_success([code])
            _suite_summary(out, suite)
        return record

    return Op(argvs, out, check)


BUILDERS = {
    "march": march_op,
    "picard": picard_op,
    "shell_sweep": shell_sweep_op,
    "identities": identities_op,
}


def make_op(workload: str, seed: int, index: int, workdir: Path) -> Op:
    """Inputs of op ``index``, written under ``workdir``; outputs go to ``workdir/op<index>``."""
    rng = np.random.default_rng([seed, TAGS[workload], index])
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / f"op{index}"
    return BUILDERS[workload](rng, out, workdir / f"op{index}.json", seed)
