"""Command-line front end.

Subcommands: ``simulate`` (time-march a config), ``picard`` (fixed-point
iteration), ``verify`` (seeded verification suites), ``norms`` (all norms of
a dumped field), ``resonance-map`` (level-set export).  Exit codes: 0 ok,
2 config error (including a non-finite ``--alpha`` or range bound), unknown
suite or a sample count below 1, 3 blow-up, 4 I/O trouble (including a held
output-directory lock or a directory that already holds the command's
manifest), 5 contraction failure; ``verify`` exits 1 when its assertions
fail, and any subcommand exits 1 with ``error: out of memory: ...`` when its
arrays cannot be allocated or, like a ``picard`` node array for
``dt: 1e-300``, not even indexed.  A config whose ``t_final`` is no whole
number of steps ``dt`` exits 2.

One run skeleton, ``_run``, owns every output directory.  It takes the lock
and refuses (exit 4) a directory that already holds the command's manifest:
``manifest.json``, ``<suite>_summary.json`` or ``norms.json``; kp5 never
removes a file.  It writes the artifacts, then the manifest, whose
``artifacts`` list names every file written.  Statuses: ``ok``, ``blowup``,
``contraction_failure``, ``not_converged`` (``picard`` out of iterations;
exit 0), ``pass``/``fail`` for ``verify``, and ``error`` when a run raised
after writing an artifact.  A run that raises before writing anything
leaves no manifest, no lock and no directory it created.  Every file of a
seeded run, manifest included, is byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import sys
import warnings
from contextlib import suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
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


@dataclass(frozen=True)
class _Outcome:
    """What a command's work hands the run skeleton: the manifest's own
    entries, the artifacts as file name -> writer (called with the file's
    path, in this order), the status and exit code, and the progress line
    (on stderr for a run that stopped early, whose entries hold its error)."""

    entries: dict
    artifacts: dict
    status: str = "ok"
    code: int = EXIT_OK
    note: str = ""


def _run(args, out_dir, manifest_name: str, cfg: RunConfig | None, work) -> int:
    """Run ``work()`` in ``out_dir`` and write what its ``_Outcome`` names.

    The directory is held through a lock file that names its holder (pid,
    host, UTC start time).  If anything raises once an artifact is on disk,
    a manifest with status ``error`` lists the files written (unless that
    write fails too); if nothing was, there is no manifest, and a directory
    this run created goes again.
    """
    out = Path(out_dir)
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    lock = out / _LOCK_NAME
    written: list[str] = []
    try:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            raise OSError(f"output directory {out} is locked: {_lock_holder(lock)}") from None
        try:
            started = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            holder = {"pid": os.getpid(), "host": socket.gethostname(), "started": started}
            os.write(fd, json.dumps(holder).encode())
            if (out / manifest_name).exists():
                raise OSError(f"{out / manifest_name} exists: kp5 writes no run over an earlier one")
            outcome = work()
            for name, write in outcome.artifacts.items():
                write(out / name)
                written.append(name)
            write_json(out / manifest_name, _manifest(args, cfg, outcome.status, outcome.entries, written))
        except BaseException as exc:
            if written:
                with suppress(OSError):  # a disk still full: the first error is the one to report
                    write_json(out / manifest_name, _manifest(args, cfg, "error", {"error": str(exc)}, written))
            raise
        finally:
            os.close(fd)
            lock.unlink(missing_ok=True)
    finally:
        if created and not any(out.iterdir()):
            out.rmdir()
    if outcome.note and not args.quiet:
        print(outcome.note, file=sys.stderr if "error" in outcome.entries else sys.stdout)
    return outcome.code


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


def _manifest(args, cfg: RunConfig | None, status: str, entries: dict, artifacts: list[str]) -> dict:
    payload = {
        "command": args.command,
        "seed": args.seed,
        "status": status,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "kp5": __version__,
        },
        "kp5_threads": thread_budget(),
        "artifacts": list(artifacts),
    }
    if cfg is not None:
        payload["config"] = cfg.raw
        payload["config_sha256"] = config_sha256(cfg.raw)
    payload.update(entries)
    return payload


def _csv(rows, columns=None):
    """A CSV artifact whose header is ``columns`` or else the first row's keys
    (for diagnostics, those of evolution._diagnostics_record, in its order)."""
    return partial(write_csv, records=rows, columns=columns or tuple(rows[0]))


def _distances(distances):
    return _csv([{"n": n, "distance": d} for n, d in enumerate(distances)], ("n", "distance"))


def _reached(traj: Trajectory) -> tuple[dict, dict]:
    """Entries and artifacts of a run that reached t_final: the solver's
    diagnostics record of the final state plus its l2 norm, the diagnostics
    and the final state."""
    final = traj.final()
    artifacts = {
        "diagnostics.csv": _csv(traj.diagnostics),
        "final.kp5f": partial(write_field, field=final, time=float(traj.times[-1])),
    }
    return {"final": {**traj.diagnostics[-1], "l2": final.l2_norm()}}, artifacts


def _warned(caught) -> list[str]:
    """Print caught solver warnings as ``warning:`` lines, even under --quiet."""
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return [str(w.message) for w in caught]


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out or cfg.output_directory)

    def work() -> _Outcome:
        f0 = make_initial_data(cfg.grid, cfg.initial_data)
        stride = cfg.snapshot_stride if cfg.snapshot_stride > 0 else cfg.solver.n_steps
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                traj = evolve(f0, cfg.solver, cfg.dispersion, monitors=cfg.monitors, state_stride=stride)
        except BlowUpError as exc:
            entries = {"error": str(exc), "time_reached": exc.time_reached, "warnings": _warned(caught)}
            artifacts = {} if exc.partial is None else {"diagnostics.csv": _csv(exc.partial.diagnostics)}
            return _Outcome(entries, artifacts, "blowup", EXIT_BLOWUP, f"blow-up: {exc}")
        snapshots = {}
        if cfg.snapshot_stride > 0:
            for t, state in zip(traj.times, traj.states):
                step = int(round(t / cfg.solver.dt))
                snapshots[f"snapshot_{step:08d}.kp5f"] = partial(write_field, field=state, time=float(t))
        entries, artifacts = _reached(traj)
        entries["warnings"] = _warned(caught)
        note = f"simulate: {cfg.solver.n_steps} steps -> {out}"
        return _Outcome(entries, {**snapshots, **artifacts}, note=note)

    return _run(args, out, "manifest.json", cfg, work)


def cmd_picard(args) -> int:
    cfg = load_config(args.config)

    def work() -> _Outcome:
        f0 = make_initial_data(cfg.grid, cfg.initial_data)
        try:
            result = duhamel_picard(f0, cfg.solver, cfg.dispersion, monitors=cfg.monitors)
        except ContractionFailureError as exc:
            artifacts = {"distances.csv": _distances(exc.distances)}
            note = f"contraction failure: {exc}"
            return _Outcome({"error": str(exc)}, artifacts, "contraction_failure", EXIT_CONTRACTION, note)
        entries, artifacts = _reached(result.trajectory)
        distances, converged = [float(d) for d in result.distances], result.converged
        entries.update(converged=converged, iterations=len(distances), distances=distances)
        artifacts = {"distances.csv": _distances(result.distances), **artifacts}
        note = f"picard: {len(distances)} iterations, converged={converged}"
        return _Outcome(entries, artifacts, "ok" if converged else "not_converged", note=note)

    return _run(args, args.out or cfg.output_directory, "manifest.json", cfg, work)


def cmd_verify(args) -> int:
    def work() -> _Outcome:
        report = run_suite(args.suite, args.seed, args.samples)
        artifacts = {f"{report.suite}.csv": _csv(report.rows)} if report.rows else {}
        entries = {"suite": report.suite, "summary": report.summary}
        if report.passed:
            return _Outcome(entries, artifacts, "pass", note=f"verify {report.suite}: pass")
        return _Outcome(entries, artifacts, "fail", 1, f"verify {report.suite}: FAIL")

    try:
        suite_for(args.suite, args.samples)  # before the lock: a held lock must not cost a suite
        out = args.out or f"kp5-verify-{args.suite}"
        return _run(args, out, f"{args.suite}_summary.json", None, work)
    except (ValueError, OverflowError) as exc:  # an unknown suite or a sample count it cannot use
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _finite_alpha(alpha: float) -> float:
    if not np.isfinite(alpha):
        raise ConfigError(f"--alpha must be finite, got {alpha!r}")
    return alpha


def cmd_norms(args) -> int:
    alpha = _finite_alpha(args.alpha)
    field, time = read_field(args.field)
    report = {"field": os.path.basename(args.field), "time": time, "l2": field.l2_norm(), "mass": mass(field)}
    for s1 in (0, 1, 2):
        for s2 in (0, 1, 2):
            spec = NormSpec(s1=float(s1), s2=float(s2))
            report[spec.label] = sobolev_aniso_norm(field, spec)
    if has_zero_x_mean(field):
        report["energy"] = energy_functional(field, alpha)
        report["tilde_2_1"] = tilde_norm(field, 2.0, 1.0)
    if args.out:
        _run(args, args.out, "norms.json", None, lambda: _Outcome({"norms": report}, {}))
    print(json.dumps(_manifest(args, None, "ok", {"norms": report}, []), sort_keys=True, indent=2))
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
    out = Path(args.out or "kp5-resonance-map")

    def work() -> _Outcome:
        # the lattice in nested-loop order, less the points where R is undefined
        xi1, xi2, mu1, mu2 = (a.ravel() for a in np.meshgrid(xi1s, xi2s, mu1s, mu2s, indexing="ij"))
        keep = (xi1 != 0.0) & (xi2 != 0.0) & (xi1 + xi2 != 0.0)
        xi1, xi2, mu1, mu2 = xi1[keep], xi2[keep], mu1[keep], mu2[keep]
        values = resonance(xi1, xi2, mu1, mu2, params)
        columns = ("xi1", "xi2", "mu1", "mu2", "R")
        rows = [dict(zip(columns, point)) for point in zip(xi1, xi2, mu1, mu2, values)]
        entries = {"kp_sign": args.kp_sign, "alpha": args.alpha, "rows": len(rows)}
        entries["skipped_degenerate"] = int(np.count_nonzero(~keep))
        note = f"resonance-map: {len(rows)} rows -> {out}"
        return _Outcome(entries, {"resonance_map.csv": _csv(rows, columns)}, note=note)

    return _run(args, out, "manifest.json", None, work)


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
