"""Command-line front end.

Subcommands: ``simulate`` (time-march a config), ``picard`` (fixed-point
iteration), ``verify`` (seeded verification suites), ``norms`` (all norms of
a dumped field), ``resonance-map`` (level-set export).  Exit codes: 0 ok,
2 config error or unknown suite, 3 blow-up, 4 I/O trouble (including a held
output-directory lock), 5 contraction failure; ``verify`` exits 1 when its
assertions fail.  Every artifact of a seeded run is byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import RunConfig, load_config
from .dispersion import DispersionParams, KPSign
from .duhamel import duhamel_picard
from .errors import BlowUpError, ConfigError, ContractionFailureError, FormatError, KP5Error
from .evolution import Trajectory, evolve
from .fileio import config_sha256, read_field, write_csv, write_field, write_json
from .initial_data import make_initial_data
from .norms import NormSpec, energy_functional, mass, sobolev_aniso_norm, tilde_norm
from .resonance import resonance
from .sweeps import SUITES, run_suite, thread_budget
from .symbols import has_zero_x_mean

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4
EXIT_CONTRACTION = 5

_LOCK_NAME = ".kp5.lock"


class _OutputDir:
    """Exclusive ownership of an output directory via a lock file.  A
    directory this run created is removed again if the run fails before
    writing anything into it."""

    def __init__(self, path: str):
        self.path = Path(path)
        self._fd = None
        self._created = False

    def __enter__(self) -> Path:
        self._created = not self.path.exists()
        self.path.mkdir(parents=True, exist_ok=True)
        try:
            self._fd = os.open(self.path / _LOCK_NAME, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise OSError(
                f"output directory {self.path} is locked by another run "
                f"(stale {_LOCK_NAME}? remove it to proceed)"
            ) from None
        return self.path

    def __exit__(self, exc_type, *exc) -> None:
        if self._fd is not None:
            os.close(self._fd)
            (self.path / _LOCK_NAME).unlink(missing_ok=True)
        if exc_type is not None and self._created and not any(self.path.iterdir()):
            self.path.rmdir()


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kp5": __version__,
    }


def _manifest(command: str, cfg: RunConfig | None, seed: int, status: str, extra: dict) -> dict:
    payload = {
        "command": command,
        "seed": seed,
        "status": status,
        "versions": _versions(),
        "kp5_threads": thread_budget(),
    }
    if cfg is not None:
        payload["config"] = cfg.raw
        payload["config_sha256"] = config_sha256(cfg.raw)
    payload.update(extra)
    return payload


def _final_norms(traj: Trajectory) -> dict:
    """The solver's diagnostics record of the final state, plus its l2 norm."""
    return {**traj.diagnostics[-1], "l2": traj.final().l2_norm()}


def _write_diagnostics(out: Path, traj: Trajectory, cfg: RunConfig) -> None:
    columns = ["t", "mass", "energy"] + [spec.label for spec in cfg.monitors]
    write_csv(out / "diagnostics.csv", traj.diagnostics, columns)


def _write_distances(out: Path, distances) -> None:
    rows = [{"n": n, "distance": d} for n, d in enumerate(distances)]
    write_csv(out / "distances.csv", rows, ("n", "distance"))


def _write_snapshots(out: Path, traj: Trajectory, cfg: RunConfig) -> None:
    if cfg.snapshot_stride <= 0:
        return
    for t, state in zip(traj.times, traj.states):
        step = int(round(t / cfg.solver.dt))
        write_field(out / f"snapshot_{step:08d}.kp5f", state, time=float(t))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out or cfg.output_directory
    with _OutputDir(out_dir) as out:
        f0 = make_initial_data(cfg.grid, cfg.initial_data)
        stride = cfg.snapshot_stride if cfg.snapshot_stride > 0 else cfg.solver.n_steps
        try:
            traj = evolve(
                f0, cfg.solver, cfg.dispersion, monitors=cfg.monitors, state_stride=stride
            )
        except BlowUpError as exc:
            if exc.partial is not None:
                _write_diagnostics(out, exc.partial, cfg)
            write_json(
                out / "manifest.json",
                _manifest(
                    "simulate",
                    cfg,
                    args.seed,
                    "blowup",
                    {"error": str(exc), "time_reached": exc.time_reached},
                ),
            )
            if not args.quiet:
                print(f"blow-up: {exc}", file=sys.stderr)
            return EXIT_BLOWUP
        _write_diagnostics(out, traj, cfg)
        _write_snapshots(out, traj, cfg)
        write_field(out / "final.kp5f", traj.final(), time=float(traj.times[-1]))
        write_json(
            out / "manifest.json",
            _manifest("simulate", cfg, args.seed, "ok", {"final": _final_norms(traj)}),
        )
        if not args.quiet:
            print(f"simulate: {cfg.solver.n_steps} steps -> {out}")
    return EXIT_OK


def cmd_picard(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out or cfg.output_directory
    with _OutputDir(out_dir) as out:
        f0 = make_initial_data(cfg.grid, cfg.initial_data)
        try:
            result = duhamel_picard(f0, cfg.solver, cfg.dispersion, monitors=cfg.monitors)
        except ContractionFailureError as exc:
            _write_distances(out, exc.distances)
            write_json(
                out / "manifest.json",
                _manifest("picard", cfg, args.seed, "contraction_failure", {"error": str(exc)}),
            )
            if not args.quiet:
                print(f"contraction failure: {exc}", file=sys.stderr)
            return EXIT_CONTRACTION
        _write_distances(out, result.distances)
        _write_diagnostics(out, result.trajectory, cfg)
        write_field(
            out / "final.kp5f", result.trajectory.final(), time=float(result.trajectory.times[-1])
        )
        write_json(
            out / "manifest.json",
            _manifest(
                "picard",
                cfg,
                args.seed,
                "ok",
                {
                    "converged": result.converged,
                    "iterations": len(result.distances),
                    "distances": [float(d) for d in result.distances],
                    "final": _final_norms(result.trajectory),
                },
            ),
        )
        if not args.quiet:
            print(f"picard: {len(result.distances)} iterations, converged={result.converged}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # validate, then lock, then run: a held lock must not cost a whole suite
    if args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return EXIT_CONFIG
    thread_budget()
    try:
        with _OutputDir(args.out or f"kp5-verify-{args.suite}") as out:
            report = run_suite(args.suite, args.seed, args.samples)
            if report.rows:
                write_csv(out / f"{report.suite}.csv", report.rows, report.columns)
            write_json(
                out / f"{report.suite}_summary.json",
                _manifest(
                    "verify",
                    None,
                    args.seed,
                    "pass" if report.passed else "fail",
                    {"suite": report.suite, "summary": report.summary},
                ),
            )
    except ValueError as exc:  # a sample count the suite cannot use
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        print(f"verify {report.suite}: {'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else 1


def cmd_norms(args) -> int:
    field, time = read_field(args.field)
    report = {
        "field": os.path.basename(args.field),
        "time": time,
        "l2": field.l2_norm(),
        "mass": mass(field),
    }
    for s1 in (0, 1, 2):
        for s2 in (0, 1, 2):
            spec = NormSpec(s1=float(s1), s2=float(s2))
            report[spec.label] = sobolev_aniso_norm(field, spec)
    if has_zero_x_mean(field):
        report["energy"] = energy_functional(field, args.alpha)
        report["tilde_2_1"] = tilde_norm(field, 2.0, 1.0)
    payload = _manifest("norms", None, args.seed, "ok", {"norms": report})
    if args.out:
        with _OutputDir(args.out) as out:
            write_json(out / "norms.json", payload)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def _parse_range(text: str, name: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--{name}: expected lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"--{name}: expected lo:hi:count, got {text!r}") from None
    if count < 1:
        raise ConfigError(f"--{name}: count must be positive")
    return np.linspace(lo, hi, count)


def cmd_resonance_map(args) -> int:
    params = DispersionParams(kp_sign=KPSign(args.kp_sign), alpha=args.alpha)
    xi1s = _parse_range(args.xi1, "xi1")
    xi2s = _parse_range(args.xi2, "xi2")
    mu1s = _parse_range(args.mu1, "mu1")
    mu2s = _parse_range(args.mu2, "mu2")
    with _OutputDir(args.out or "kp5-resonance-map") as out:
        rows = []
        skipped = 0
        for xi1 in xi1s:
            for xi2 in xi2s:
                if xi1 == 0.0 or xi2 == 0.0 or xi1 + xi2 == 0.0:
                    skipped += len(mu1s) * len(mu2s)
                    continue
                for mu1 in mu1s:
                    for mu2 in mu2s:
                        value = resonance(float(xi1), float(xi2), float(mu1), float(mu2), params)
                        rows.append({"xi1": xi1, "xi2": xi2, "mu1": mu1, "mu2": mu2, "R": value})
        write_csv(out / "resonance_map.csv", rows, ("xi1", "xi2", "mu1", "mu2", "R"))
        write_json(
            out / "manifest.json",
            _manifest(
                "resonance-map",
                None,
                args.seed,
                "ok",
                {
                    "kp_sign": args.kp_sign,
                    "alpha": args.alpha,
                    "rows": len(rows),
                    "skipped_degenerate": skipped,
                },
            ),
        )
        if not args.quiet:
            print(f"resonance-map: {len(rows)} rows -> {out}")
    return EXIT_OK


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in u64, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed, default=0, help="master seed (recorded in manifests)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kp5", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="time-march a configured run")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("picard", help="fixed-point iteration of the integral equation")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_picard)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("suite", help="resonance | kp2bound | strichartz | convolution | dyadic | unitarity")
    p.add_argument("--samples", type=int, default=None, help="override the suite's sample count")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("norms", help="compute all norms of a dumped field")
    p.add_argument("--field", required=True, help="path to a KP5F dump")
    p.add_argument("--alpha", type=float, default=0.0, help="third-derivative coefficient for the energy")
    _add_common(p)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("resonance-map", help="export resonance values over a frequency lattice")
    p.add_argument("--xi1", default="-4:4:9")
    p.add_argument("--xi2", default="-4:4:9")
    p.add_argument("--mu1", default="0:0:1")
    p.add_argument("--mu2", default="0:0:1")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--kp-sign", choices=["kp1", "kp2"], default="kp1")
    _add_common(p)
    p.set_defaults(func=cmd_resonance_map)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KP5Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
