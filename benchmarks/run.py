"""kp5 benchmark: one closed-loop client driving ``kp5.cli.main`` in-process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; kp5 is imported from ``src/``.  Workloads and
their seeded inputs are defined in ``workloads.py``, the traced layers and
per-layer metrics in ``layers.py``.

A run starts one op after the previous one returns, for ``--seconds`` of wall
time, and checks every op's outputs outside its timed interval.  A failed op
counts in ``failed`` and stays in ``attempted``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time from process start
  to the end of the checked warm-up op (import, input generation, cold
  caches), i.e. until the first timed op could start;
* ``ops_per_s``: timed ops over the summed op latency;
* ``op_p50_s``: median op latency;
* ``peak_rss_mib``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics of the traced ops, plus ``trace_overhead``: traced ops per second
over untraced ops per second.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run's
details (error rate, sample counts, thread settings, versions, and each op's
latency, check values and output digest).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".benchwork"
# workloads.TAGS, repeated because thread pools are fixed before numpy loads
WORKLOAD_NAMES = ("march", "picard", "shell_sweep", "identities")
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 120


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _fix_thread_pools(workload: str) -> dict:
    """Pin every pool the process can start, before numpy is imported.

    Only the strichartz suite runs kp5's sweep pool; every other workload and
    the BLAS pool behind ``np.linalg.norm`` run one thread, so the busy
    threads never exceed the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    settings = {
        "KP5_THREADS": str(min(2, nproc) if workload == "shell_sweep" else 1),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    os.environ.update(settings)
    return {"nproc": nproc, **settings}


def _run_op(cli, args, index: int, workdir: Path, tracer=None) -> dict:
    """Run op ``index``; only the CLI calls are timed, the check is not."""
    from workloads import CheckFailed, digest, make_op

    op = make_op(args.workload, args.seed, index, workdir)
    failure = None
    codes = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        try:
            for argv in op.argvs:
                codes.append(cli.main(argv))
        except (Exception, SystemExit) as exc:
            failure = f"raised {exc!r}"
        latency = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"index": index, "traced": tracer is not None, "latency_s": latency}
    if failure is None:
        try:
            record.update(op.check(codes))
        except (CheckFailed, KeyError, ValueError, OSError) as exc:
            failure = f"check: {exc}"
    record["digest"] = digest(op.out) if op.out.is_dir() else None
    record["failure"] = failure
    shutil.rmtree(op.out, ignore_errors=True)
    return record


def _setup_probe(args) -> int:
    """Child process: set up as a fresh run would, then report when ready."""
    from kp5 import cli

    record = _run_op(cli, args, 0, WORKDIR / f"setup{args.setup_probe}")
    if record["failure"] is not None:
        print(f"warm-up op failed: {record['failure']}", file=sys.stderr)
        return 1
    print(f"READY {time.monotonic()!r}")
    return 0


def _measure_setup(args) -> list[float]:
    """Setup time of ``SETUP_REPEATS`` fresh processes, one after another."""
    samples = []
    for k in range(SETUP_REPEATS):
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--setup-probe", str(k),
        ]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "READY":
            raise RuntimeError(f"setup probe {k} failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(float(lines[1]) - start)
    return samples


def _loop(cli, args, tracer) -> list[dict]:
    records = []
    min_ops = 4 if tracer is not None else 3
    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < args.seconds or len(records) < min_ops:
        traced = tracer is not None and index % 2 == 0
        records.append(_run_op(cli, args, index, WORKDIR, tracer if traced else None))
        index += 1
    return records


def _rate(records: list[dict]) -> float:
    return len(records) / sum(r["latency_s"] for r in records)


def _entry(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _layer_metrics(tracer, records: list[dict]) -> dict:
    from layers import METRICS

    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    metrics = {}
    for metric in METRICS:
        value = metric.value(tracer)
        if metric.unit != "ratio":
            value /= len(traced)
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    metrics["trace_overhead"] = {"value": _rate(traced) / _rate(untraced), "unit": "ratio"}
    return metrics


def _versions() -> dict:
    import numpy
    import scipy

    import kp5

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kp5": kp5.__version__,
    }


def _run(args, threads: dict) -> int:
    setup = [] if args.trace else _measure_setup(args)
    from kp5 import cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(workers=int(threads["KP5_THREADS"]))
    warm = _run_op(cli, args, 0, WORKDIR)
    if warm["failure"] is not None:
        print(f"warm-up op failed: {warm['failure']}", file=sys.stderr)
        return 1
    records = _loop(cli, args, tracer)
    failed = sum(r["failure"] is not None for r in records)
    untraced = [r for r in records if not r["traced"]]
    summary = {}
    if setup:
        summary["setup_s"] = _entry(statistics.median(setup), "s", len(setup))
    summary["ops_per_s"] = _entry(_rate(untraced), "1/s", len(untraced))
    summary["op_p50_s"] = _entry(statistics.median(r["latency_s"] for r in untraced), "s", len(untraced))
    summary["peak_rss_mib"] = _entry(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1)
    summary["error_rate"] = _entry(failed / len(records), "ratio", len(records))
    if tracer is not None:
        missing = tracer.unexercised(args.workload)
        if missing:
            print(f"traced run recorded no calls for spans {missing}", file=sys.stderr)
            return 1
        metrics = _layer_metrics(tracer, records)
        summary["trace_overhead"] = dict(metrics["trace_overhead"], samples=len(records))
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in summary.items() if k != "error_rate"}
    for name, entry in summary.items():
        print(f"# {args.workload} {name} = {entry['value']!r} {entry['unit']} (n={entry['samples']})")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": threads,
        "versions": _versions(),
        "end_to_end": summary,
        "setup_samples_s": setup,
        "warmup": warm,
        "ops": records,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    threads = _fix_thread_pools(args.workload)
    if not (ROOT / "src" / "kp5" / "__init__.py").is_file():
        print(f"error: no kp5 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe is not None:
        return _setup_probe(args)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        return _run(args, threads)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
