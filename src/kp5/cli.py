"""Command-line front end.

Subcommands: ``simulate`` (time-march a config), ``picard`` (fixed-point
iteration), ``verify`` (seeded verification suites), ``norms`` (all norms of
a dumped field), ``resonance-map`` (level-set export).  Exit codes: 0 ok,
2 config error (including a non-finite ``--alpha`` or range bound), unknown
suite or a sample count below 1, 3 blow-up, 4 I/O trouble (including a held
output-directory lock), 5 contraction failure; ``verify`` exits 1 when its
assertions fail, and any subcommand exits 1 with ``error: out of memory: ...``
when its arrays cannot be allocated or, like a ``picard`` node array for
``dt: 1e-300``, not even indexed.  A config whose ``t_final`` is no whole
number of steps ``dt`` exits 2.  If writing the holder into a fresh lock
fails, the lock is removed again.  Every artifact of a seeded run is
byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import sys
import warnings
from datetime import datetime, timezone
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
from .sweeps import SUITES, run_suite, suite_for, thread_budget
from .symbols import has_zero_x_mean

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_IO = 4
EXIT_CONTRACTION = 5

_LOCK_NAME = ".kp5.lock"


class _OutputDir:
    """Exclusive ownership of an output directory via a lock file that names
    its holder (pid, host, UTC start time).  A directory this run created is
    removed again if the run fails before writing anything into it."""

    def __init__(self, path: str):
        self.path = Path(path)
        self._fd = None
        self._created = False

    def __enter__(self) -> Path:
        self._created = not self.path.exists()
        self.path.mkdir(parents=True, exist_ok=True)
        lock = self.path / _LOCK_NAME
        try:
            self._fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            raise OSError(f"output directory {self.path} is locked: {_lock_holder(lock)}") from None
        try:
            holder = {
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "started": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            }
            os.write(self._fd, json.dumps(holder).encode())
        except BaseException:  # a lock without its holder must not outlive this run
            self.__exit__(*sys.exc_info())
            raise
        return self.path

    def __exit__(self, exc_type, *exc) -> None:
        if self._fd is not None:
            os.close(self._fd)
            (self.path / _LOCK_NAME).unlink(missing_ok=True)
        if exc_type is not None and self._created and not any(self.path.iterdir()):
            self.path.rmdir()


def _lock_holder(lock: Path) -> str:
    """Who holds ``lock`` and, on this host, whether that process still runs.
    Lock files without a readable holder (older kp5 wrote them empty) still
    get a message."""
    try:
        holder = json.loads(lock.read_text())
        pid, host, started = int(holder["pid"]), str(holder["host"]), str(holder["started"])
    except (OSError, ValueError, TypeError, KeyError):
        return f"{_LOCK_NAME} names no holder (stale? remove it to proceed)"
    who = f"held by pid {pid} on {host} since {started}"
    if host != socket.gethostname() or not 0 < pid < 2**31:
        return f"{who} (remove {_LOCK_NAME} if that run is gone)"
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return f"{who}, which is no longer running (stale lock: remove {_LOCK_NAME} to proceed)"
    except PermissionError:
        pass
    return f"{who}, which is still running"


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


def _write_diagnostics(out: Path, traj: Trajectory) -> None:
    # the columns are those of evolution._diagnostics_record, in its order
    write_csv(out / "diagnostics.csv", traj.diagnostics, tuple(traj.diagnostics[0]))


def _write_distances(out: Path, distances) -> None:
    rows = [{"n": n, "distance": d} for n, d in enumerate(distances)]
    write_csv(out / "distances.csv", rows, ("n", "distance"))


def _finish(out: Path, args, cfg: RunConfig, command: str, traj: Trajectory, extra: dict) -> None:
    """Write a run that reached t_final: diagnostics, final state, ``ok`` manifest."""
    _write_diagnostics(out, traj)
    write_field(out / "final.kp5f", traj.final(), time=float(traj.times[-1]))
    payload = _manifest(command, cfg, args.seed, "ok", {**extra, "final": _final_norms(traj)})
    write_json(out / "manifest.json", payload)


def _stopped(out: Path, args, cfg: RunConfig, command: str, status: str, exc, extra: dict) -> None:
    """Write the manifest of a solver run that ``exc`` stopped early."""
    payload = _manifest(command, cfg, args.seed, status, {"error": str(exc), **extra})
    write_json(out / "manifest.json", payload)


def _warned(caught) -> list[str]:
    """Print caught solver warnings as ``warning:`` lines, even under --quiet."""
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return [str(w.message) for w in caught]


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
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                traj = evolve(f0, cfg.solver, cfg.dispersion, monitors=cfg.monitors, state_stride=stride)
        except BlowUpError as exc:
            notes = {"time_reached": exc.time_reached, "warnings": _warned(caught)}
            if exc.partial is not None:
                _write_diagnostics(out, exc.partial)
            _stopped(out, args, cfg, "simulate", "blowup", exc, notes)
            if not args.quiet:
                print(f"blow-up: {exc}", file=sys.stderr)
            return EXIT_BLOWUP
        _write_snapshots(out, traj, cfg)
        _finish(out, args, cfg, "simulate", traj, {"warnings": _warned(caught)})
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
            _stopped(out, args, cfg, "picard", "contraction_failure", exc, {})
            if not args.quiet:
                print(f"contraction failure: {exc}", file=sys.stderr)
            return EXIT_CONTRACTION
        _write_distances(out, result.distances)
        extra = {
            "converged": result.converged,
            "iterations": len(result.distances),
            "distances": [float(d) for d in result.distances],
        }
        _finish(out, args, cfg, "picard", result.trajectory, extra)
        if not args.quiet:
            print(f"picard: {len(result.distances)} iterations, converged={result.converged}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        suite_for(args.suite, args.samples)  # before the lock: a held lock must not cost a suite
        with _OutputDir(args.out or f"kp5-verify-{args.suite}") as out:
            report = run_suite(args.suite, args.seed, args.samples)
            if report.rows:
                write_csv(out / f"{report.suite}.csv", report.rows, tuple(report.rows[0]))
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
    except (ValueError, OverflowError) as exc:  # an unknown suite or a sample count it cannot use
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        print(f"verify {report.suite}: {'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else 1


def _finite_alpha(alpha: float) -> float:
    if not np.isfinite(alpha):
        raise ConfigError(f"--alpha must be finite, got {alpha!r}")
    return alpha


def cmd_norms(args) -> int:
    alpha = _finite_alpha(args.alpha)
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
        report["energy"] = energy_functional(field, alpha)
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
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"--{name}: lo and hi must be finite, got {text!r}")
    return np.linspace(lo, hi, count)


def cmd_resonance_map(args) -> int:
    params = DispersionParams(kp_sign=KPSign(args.kp_sign), alpha=_finite_alpha(args.alpha))
    xi1s = _parse_range(args.xi1, "xi1")
    xi2s = _parse_range(args.xi2, "xi2")
    mu1s = _parse_range(args.mu1, "mu1")
    mu2s = _parse_range(args.mu2, "mu2")
    with _OutputDir(args.out or "kp5-resonance-map") as out:
        # the lattice in nested-loop order, less the points where R is undefined
        xi1, xi2, mu1, mu2 = (a.ravel() for a in np.meshgrid(xi1s, xi2s, mu1s, mu2s, indexing="ij"))
        keep = (xi1 != 0.0) & (xi2 != 0.0) & (xi1 + xi2 != 0.0)
        xi1, xi2, mu1, mu2 = xi1[keep], xi2[keep], mu1[keep], mu2[keep]
        values = resonance(xi1, xi2, mu1, mu2, params)
        columns = ("xi1", "xi2", "mu1", "mu2", "R")
        rows = [dict(zip(columns, point)) for point in zip(xi1, xi2, mu1, mu2, values)]
        write_csv(out / "resonance_map.csv", rows, columns)
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
                    "skipped_degenerate": int(np.count_nonzero(~keep)),
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
    p.add_argument("suite", help=" | ".join(SUITES))
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
        thread_budget()  # a bad KP5_THREADS must not cost a whole run
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
