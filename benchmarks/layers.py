"""Traced layers of kp5 and the per-layer metrics computed from them.

This table is the layer -> end-to-end metric -> workload map of the
benchmark.  Each ``Span`` names the public functions of one kp5 module that
the traced run wraps, and the workloads that must call them: a traced run of
one of those workloads fails when the span records zero calls, so a wrap
that misses its caller cannot report 0 s.  Each ``Metric`` says which
end-to-end metric it should move, and on which workload, so a later
performance claim can name its mechanism by these names.

Times are per traced op.  ``*_self_s`` is the span's duration minus the part
of its interval that its traced child spans cover; every other ``*_s`` is the
inclusive duration.  Spans on the sweep pool's threads add up across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from workloads import TAGS

WORKLOADS = tuple(TAGS)

_SOLVERS = ("march", "picard")
_GRIDDED = ("march", "picard", "shell_sweep")
_SUITES = ("shell_sweep", "identities")

_FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def _fft_bytes(args, kwargs, result) -> dict:
    """Computed bytes: input array plus output array, from their sizes."""
    a = args[0] if args else kwargs["x" if "x" in kwargs else "a"]
    return {"bytes": np.asarray(a).nbytes + np.asarray(result).nbytes}


def _eta_points(args, kwargs, result) -> dict:
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["x"]))}


def _picard_counts(args, kwargs, result) -> dict:
    return {"iterations": len(result.distances), "nodes": len(result.trajectory.times)}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


def _text_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


@dataclass(frozen=True)
class Span:
    """One traced layer: ``targets`` are (module, attribute) pairs, where the
    attribute is a function name or ``Class.method``."""

    name: str
    targets: tuple[tuple[str, str], ...]
    exercised_by: tuple[str, ...]
    count: Callable | None = None


def _in(module: str, *attrs: str) -> tuple[tuple[str, str], ...]:
    return tuple((module, attr) for attr in attrs)


SPANS = (
    Span("cli.main", _in("kp5.cli", "main"), WORKLOADS),
    Span("config.load_config", _in("kp5.config", "load_config"), _SOLVERS),
    Span("initial_data.make_initial_data", _in("kp5.initial_data", "make_initial_data"), _SOLVERS),
    Span("evolution.evolve", _in("kp5.evolution", "evolve"), ("march",)),
    Span("evolution.nonlinear_rhs", _in("kp5.evolution", "nonlinear_rhs"), ("march",)),
    Span("symbols.apply_symbol", _in("kp5.symbols", "apply_symbol"), ("march",)),
    Span("symbols.dealias", _in("kp5.symbols", "dealias"), ("march",)),
    Span("symbols.x_derivative", _in("kp5.symbols", "x_derivative"), ("march",)),
    Span("symbols.x_antiderivative", _in("kp5.symbols", "x_antiderivative"), ()),
    Span("symbols.zero_mode_project", _in("kp5.symbols", "zero_mode_project"), _SOLVERS),
    Span("symbols.require_zero_x_mean", _in("kp5.symbols", "require_zero_x_mean"), _SOLVERS),
    Span("field.to_physical", _in("kp5.field", "Field.to_physical"), _SOLVERS),
    Span("field.from_physical", _in("kp5.field", "Field.from_physical"), _SOLVERS),
    Span("field.from_spectral", _in("kp5.field", "Field.from_spectral"), ("picard",)),
    Span(
        "fft",
        _in("numpy.fft", *_FFT_NAMES) + _in("scipy.fft", *_FFT_NAMES),
        _GRIDDED,
        _fft_bytes,
    ),
    Span("norms.energy_functional", _in("kp5.norms", "energy_functional"), _SOLVERS),
    Span("norms.mass", _in("kp5.norms", "mass"), _SOLVERS),
    Span("norms.sobolev_aniso_norm", _in("kp5.norms", "sobolev_aniso_norm"), _SOLVERS),
    Span("norms.tilde_norm", _in("kp5.norms", "tilde_norm"), ()),
    Span("norms.momentum", _in("kp5.norms", "momentum"), ()),
    Span("dispersion.omega_on_grid", _in("kp5.dispersion", "omega_on_grid"), _GRIDDED),
    Span("duhamel.duhamel_picard", _in("kp5.duhamel", "duhamel_picard"), ("picard",), _picard_counts),
    Span("cutoffs.dyadic_eta", _in("kp5.cutoffs", "dyadic_eta"), _SUITES, _eta_points),
    Span(
        "spacetime.random_modulation_shell",
        _in("kp5.spacetime", "random_modulation_shell"),
        ("shell_sweep",),
    ),
    Span("spacetime.modulation_project", _in("kp5.spacetime", "modulation_project"), ("shell_sweep",)),
    Span("spacetime.strichartz_ratio", _in("kp5.spacetime", "strichartz_ratio"), ("shell_sweep",)),
    Span("sweeps.run_suite", _in("kp5.sweeps", "run_suite"), _SUITES),
    Span("resonance.resonance_identity_check", _in("kp5.resonance", "resonance_identity_check"), ("identities",)),
    Span("resonance.kp2_lower_bound_ratio", _in("kp5.resonance", "kp2_lower_bound_ratio"), ("identities",)),
    Span("convbounds.convolution_bound_check", _in("kp5.convbounds", "convolution_bound_check"), ("identities",)),
    Span("convbounds.quad", _in("kp5.convbounds", "quad"), ("identities",)),
    Span("fileio.write_field", _in("kp5.fileio", "write_field"), _SOLVERS, _file_bytes),
    Span("fileio.write_json", _in("kp5.fileio", "write_json"), WORKLOADS, _file_bytes),
    Span("fileio.diagnostics_csv", _in("kp5.fileio", "diagnostics_csv"), _SOLVERS, _text_bytes),
)


@dataclass(frozen=True)
class Metric:
    """A per-layer metric: ``value(tracer)`` reads the tracer's per-span
    statistics, summed over the traced ops; ``moves`` names the end-to-end
    metric and workload the layer should move."""

    name: str
    unit: str
    better: str
    value: Callable
    moves: str


def _total(span):
    return lambda t: t.stats[span].total


def _self(span):
    return lambda t: t.stats[span].self_time


def _calls(*spans):
    return lambda t: sum(t.stats[span].calls for span in spans)


def _counter(span, key):
    return lambda t: t.stats[span].counters.get(key, 0.0)


def _group(prefix):
    return tuple(span.name for span in SPANS if span.name.startswith(prefix))


_SYMBOLS = _group("symbols.")
_NORMS = _group("norms.")
_FILEIO = _group("fileio.")

METRICS = (
    Metric("evolution.evolve_self_s", "s", "lower", _self("evolution.evolve"),
           "ops_per_s and op_p50_s on march; nothing on shell_sweep or identities"),
    Metric("evolution.nonlinear_rhs_s", "s", "lower", _total("evolution.nonlinear_rhs"),
           "ops_per_s and op_p50_s on march; nothing on shell_sweep or identities"),
    Metric("evolution.nonlinear_rhs_calls", "count", "lower", _calls("evolution.nonlinear_rhs"),
           "ops_per_s and op_p50_s on march; nothing on shell_sweep or identities"),
    Metric("symbols.apply_symbol_s", "s", "lower", _total("symbols.apply_symbol"),
           "march; picard by a small share"),
    Metric("symbols.dealias_s", "s", "lower", _total("symbols.dealias"),
           "march; picard by a small share"),
    Metric("symbols.calls", "count", "lower", _calls(*_SYMBOLS),
           "march; picard by a small share"),
    Metric("field.to_physical_s", "s", "lower", _total("field.to_physical"), "march"),
    Metric("field.from_physical_s", "s", "lower", _total("field.from_physical"), "march"),
    Metric("field.from_spectral_s", "s", "lower", _total("field.from_spectral"),
           "march; picard, where it runs once per node"),
    Metric("fft.calls", "count", "lower", _calls("fft"),
           "all workloads in proportion to their FFT share"),
    Metric("fft.s", "s", "lower", _total("fft"),
           "all workloads in proportion to their FFT share"),
    Metric("fft.bytes_computed", "bytes", "lower", _counter("fft", "bytes"),
           "all workloads in proportion to their FFT share; real-to-complex halves it"),
    Metric("norms.energy_functional_s", "s", "lower", _total("norms.energy_functional"),
           "march and picard; not shell_sweep"),
    Metric("norms.mass_s", "s", "lower", _total("norms.mass"),
           "march and picard; not shell_sweep"),
    Metric("norms.sobolev_aniso_norm_s", "s", "lower", _total("norms.sobolev_aniso_norm"),
           "march and picard; not shell_sweep"),
    Metric("norms.calls", "count", "lower", _calls(*_NORMS),
           "march and picard; not shell_sweep"),
    Metric("dispersion.omega_on_grid_calls", "count", "lower", _calls("dispersion.omega_on_grid"),
           "setup_s on all workloads"),
    Metric("dispersion.omega_cache_hit_ratio", "ratio", "higher", lambda t: t.omega_hit_ratio(),
           "setup_s on all workloads"),
    Metric("duhamel.picard_self_s", "s", "lower", _self("duhamel.duhamel_picard"), "picard only"),
    Metric("duhamel.iterations", "count", "lower", _counter("duhamel.duhamel_picard", "iterations"),
           "picard only"),
    Metric("duhamel.nodes", "count", "lower", _counter("duhamel.duhamel_picard", "nodes"),
           "picard only"),
    Metric("cutoffs.dyadic_eta_s", "s", "lower", _total("cutoffs.dyadic_eta"),
           "shell_sweep most, then identities; neither march nor picard"),
    Metric("cutoffs.dyadic_eta_calls", "count", "lower", _calls("cutoffs.dyadic_eta"),
           "shell_sweep most, then identities; neither march nor picard"),
    Metric("cutoffs.points", "count", "lower", _counter("cutoffs.dyadic_eta", "points"),
           "shell_sweep most, then identities; neither march nor picard"),
    Metric("spacetime.random_modulation_shell_s", "s", "lower",
           _total("spacetime.random_modulation_shell"), "shell_sweep only"),
    Metric("spacetime.modulation_project_s", "s", "lower", _total("spacetime.modulation_project"),
           "shell_sweep only"),
    Metric("spacetime.strichartz_ratio_self_s", "s", "lower", _self("spacetime.strichartz_ratio"),
           "shell_sweep only"),
    Metric("sweeps.suite_self_s", "s", "lower", _self("sweeps.run_suite"),
           "ops_per_s on shell_sweep"),
    Metric("sweeps.parallel_efficiency", "ratio", "higher", lambda t: t.parallel_efficiency(),
           "ops_per_s on shell_sweep"),
    Metric("resonance.identity_check_s", "s", "lower", _total("resonance.resonance_identity_check"),
           "identities only"),
    Metric("resonance.kp2_ratio_s", "s", "lower", _total("resonance.kp2_lower_bound_ratio"),
           "identities only"),
    Metric("convbounds.check_s", "s", "lower", _total("convbounds.convolution_bound_check"),
           "identities only"),
    Metric("convbounds.quad_calls", "count", "lower", _calls("convbounds.quad"), "identities only"),
    Metric("cli.self_s", "s", "lower", _self("cli.main"),
           "op_p50_s on march and picard, plus setup_s"),
    Metric("config.load_config_s", "s", "lower", _total("config.load_config"),
           "op_p50_s on march and picard, plus setup_s"),
    Metric("initial_data.make_initial_data_s", "s", "lower", _total("initial_data.make_initial_data"),
           "op_p50_s on march and picard, plus setup_s"),
    Metric("fileio.write_field_s", "s", "lower", _total("fileio.write_field"),
           "op_p50_s on march and picard, plus setup_s"),
    Metric("fileio.write_json_s", "s", "lower", _total("fileio.write_json"),
           "op_p50_s on march and picard, plus setup_s"),
    Metric("fileio.diagnostics_csv_s", "s", "lower", _total("fileio.diagnostics_csv"),
           "op_p50_s on march and picard, plus setup_s"),
    Metric("fileio.bytes_written", "bytes", "lower",
           lambda t: sum(_counter(n, "bytes")(t) for n in _FILEIO),
           "op_p50_s on march and picard, plus setup_s"),
)
