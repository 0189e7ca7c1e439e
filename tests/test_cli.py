import json
import os
import socket
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kp5.cli import main
from kp5.dispersion import DispersionParams, KPSign
from kp5.field import Field
from kp5.fileio import read_field, write_field
from kp5.grid import make_grid
from kp5.resonance import resonance
from kp5.sweeps import SUITES, run_suite


def _write_config(path: Path, **overrides) -> Path:
    doc = {
        "grid": {"nx": 16, "ny": 16, "lx": 6.283185307179586, "ly": 6.283185307179586},
        "dispersion": {"kp_sign": "kp1", "alpha": 1.0},
        "solver": {"dt": 1e-3, "t_final": 5e-3},
        "initial_data": {"kind": "mode_sum", "modes": [[1, 0, 0.01, 0.0]]},
        "monitors": [[1, 0]],
        "output": {"directory": str(path.parent / "default-out"), "snapshot_stride": 2},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def _tree_bytes(root: Path) -> dict:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not p.name.startswith(".")
    }


def test_simulate_ok_and_outputs(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert rows[0] == "t,mass,energy,h_1_0"
    assert len(rows) == 1 + 5 + 1  # header + t_final/dt + 1 records
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert "config_sha256" in manifest
    field, time = read_field(out / "final.kp5f")
    assert time == pytest.approx(5e-3)
    snapshots = sorted(out.glob("snapshot_*.kp5f"))
    assert [s.name for s in snapshots] == [
        "snapshot_00000000.kp5f",
        "snapshot_00000002.kp5f",
        "snapshot_00000004.kp5f",
        "snapshot_00000005.kp5f",
    ]


def test_simulate_zero_data_zero_mass(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        initial_data={"kind": "mode_sum", "modes": [[1, 0, 0.0, 0.0]]},
    )
    out = tmp_path / "zero"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[1] == "0" for row in rows)


def test_simulate_determinism_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert _tree_bytes(out1) == _tree_bytes(out2)


_CFL_WARNING = (
    "time step exceeds the advection heuristic dt <= 1/(max|u| max|xi|); "
    "the explicit nonlinear substep may be unstable"
)


def test_simulate_blowup_exit_code(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json",
        solver={"dt": 0.05, "t_final": 2.0},
        initial_data={"kind": "mode_sum", "modes": [[1, 0, 80.0, 0.0], [2, 1, 60.0, 0.3]]},
    )
    out = tmp_path / "blow"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "blowup"
    assert manifest["warnings"] == [_CFL_WARNING]
    assert capsys.readouterr().err == f"warning: {_CFL_WARNING}\n"
    assert (out / "diagnostics.csv").exists()


@pytest.mark.parametrize("t_final, status, code", [(2.0, "blowup", 3), (0.05, "ok", 0)])
def test_the_advection_warning_is_one_stable_line_and_recorded(tmp_path, t_final, status, code):
    """A step over the advection heuristic prints one ``warning:`` line that
    cites no source location, and the manifest records it, blow-up or not,
    even where the interpreter turns warnings into errors."""
    cfg = _write_config(
        tmp_path / "cfg.json",
        solver={"dt": 0.05, "t_final": t_final},
        initial_data={"kind": "mode_sum", "modes": [[1, 0, 400.0, 0.0], [2, 1, 300.0, 0.3]]},
    )
    out = tmp_path / "run"
    argv = [sys.executable, "-W", "error", "-m", "kp5.cli"]
    argv += ["simulate", "--config", str(cfg), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert proc.stderr.splitlines()[0] == f"warning: {_CFL_WARNING}"
    assert sum(line.startswith("warning:") for line in proc.stderr.splitlines()) == 1
    assert "cli.py" not in proc.stderr and "evolve(" not in proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == status
    assert manifest["warnings"] == [_CFL_WARNING]


def test_a_simulate_run_within_the_heuristic_records_no_warnings(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "calm"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "manifest.json").read_text())["warnings"] == []
    assert capsys.readouterr().err == ""


def test_simulate_config_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing), "--quiet"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid": {}}')
    assert main(["simulate", "--config", str(bad), "--quiet"]) == 2


def test_locked_output_directory_is_io_error(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".kp5.lock").touch()
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 4


def test_picard_small_data_decreasing_distances(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        solver={"dt": 2e-3, "t_final": 0.05, "cutoff_T": 0.1, "picard_tol": 1e-12},
        initial_data={"kind": "mode_sum", "modes": [[1, 0, 0.005, 0.0]]},
    )
    out = tmp_path / "pic"
    assert main(["picard", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = (out / "distances.csv").read_text().splitlines()
    assert rows[0] == "n,distance"
    distances = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b < a for a, b in zip(distances, distances[1:]))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is True


def test_picard_contraction_failure_exit_code(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        grid={"nx": 32, "ny": 32, "lx": 6.283185307179586, "ly": 6.283185307179586},
        solver={"dt": 5e-3, "t_final": 0.5, "cutoff_T": 0.9, "picard_max_iters": 30},
        initial_data={
            "kind": "mode_sum",
            "modes": [[1, 0, 30.0, 0.0], [1, 1, 24.0, 0.5], [2, 1, 18.0, 1.0], [1, 2, 12.0, 2.0]],
        },
    )
    out = tmp_path / "fail"
    assert main(["picard", "--config", str(cfg), "--out", str(out), "--quiet"]) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "contraction_failure"
    assert (out / "distances.csv").exists()


def test_picard_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 21.5 GiB for the node arrays")

    monkeypatch.setattr("kp5.cli.duhamel_picard", no_memory)
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "never"
    assert main(["picard", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 21.5 GiB for the node arrays\n"
    assert not out.exists()


def test_picard_with_an_unaddressable_node_count_is_a_one_line_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", solver={"dt": 1e-300, "t_final": 0.01})
    out = tmp_path / "never"
    assert main(["picard", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert "1e+298 nodes" in err and "Traceback" not in err
    assert not out.exists()


def test_verify_suites_and_unknown_suite(tmp_path):
    out = tmp_path / "v"
    rc = main(["verify", "resonance", "--seed", "11", "--samples", "500", "--out", str(out), "--quiet"])
    assert rc == 0
    summary = json.loads((out / "resonance_summary.json").read_text())
    assert summary["status"] == "pass"
    assert (out / "resonance.csv").exists()
    assert main(["verify", "nosuchsuite", "--quiet"]) == 2


def test_verify_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["verify", "kp2bound", "--seed", "3", "--samples", "400", "--out", str(out), "--quiet"]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


def test_norms_command(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run), "--quiet"]) == 0
    rc = main(["norms", "--field", str(run / "final.kp5f"), "--alpha", "1.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    norms = payload["norms"]
    assert norms["l2"] == pytest.approx(norms["h_0_0"], rel=1e-15)
    assert {"mass", "energy", "h_2_2", "tilde_2_1"} <= set(norms)


def _non_finite_dump(tmp_path, value: float) -> Path:
    """A 16x16 KP5F dump of a zero-mean wave with one sample overwritten by ``value``."""
    grid = make_grid(16, 16, 6.283185307179586, 6.283185307179586)
    path = tmp_path / "bad.kp5f"
    write_field(path, Field.from_physical(grid, 0.01 * np.sin(grid.x)[None, :] * np.ones((16, 1))))
    raw = bytearray(path.read_bytes())
    raw[40 + 8 * 37 : 40 + 8 * 38] = struct.pack("<d", value)
    path.write_bytes(bytes(raw))
    return path


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("command", ["norms", "simulate", "picard"])
def test_a_non_finite_dump_is_a_format_error(tmp_path, capsys, command, value):
    dump = _non_finite_dump(tmp_path, value)
    out = tmp_path / "never"
    if command == "norms":
        argv = ["norms", "--field", str(dump)]
    else:
        cfg = _write_config(tmp_path / "cfg.json", initial_data={"kind": "file", "path": str(dump)})
        argv = [command, "--config", str(cfg), "--quiet"]
    assert main(argv + ["--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("format error:") and captured.err.count("\n") == 1
    assert "1 non-finite sample" in captured.err
    assert not out.exists() and not (tmp_path / "default-out").exists()


@pytest.mark.parametrize("command", ["simulate", "picard"])
def test_zero_mode_is_not_a_config_key(tmp_path, capsys, command):
    """kp5 has one xi = 0 rule: both solvers reject xi = 0 content above the
    tolerance and then project once, so a run config has nothing to choose."""
    dispersion = {"kp_sign": "kp1", "alpha": 1.0, "zero_mode": "error"}
    cfg = _write_config(tmp_path / "cfg.json", dispersion=dispersion)
    out = tmp_path / "never"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: dispersion: unknown keys ['zero_mode']\n"
    assert not out.exists() and not (tmp_path / "default-out").exists()


@pytest.mark.parametrize("command", ["simulate", "picard"])
def test_a_grid_too_large_to_index_is_a_one_line_config_error(tmp_path, capsys, command):
    grid = {"nx": 2**62, "ny": 4, "lx": 6.283185307179586, "ly": 6.283185307179586}
    cfg = _write_config(tmp_path / "cfg.json", grid=grid)
    out = tmp_path / "never"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid: ") and err.count("\n") == 1
    assert "too large to index" in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "default-out").exists()


@pytest.mark.parametrize("command", ["simulate", "picard"])
def test_initial_data_that_overflows_is_a_one_line_config_error(tmp_path, capsys, recwarn, command):
    """Two amplitudes of 1e308 sum past the largest double: the data is a
    config error, not a blow-up or a contraction failure."""
    modes = [[1, 0, 1e308, 0.0], [1, 1, 1e308, 0.0]]
    cfg = _write_config(tmp_path / "cfg.json", initial_data={"kind": "mode_sum", "modes": modes})
    out = tmp_path / "never"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: initial_data: ") and err.count("\n") == 1
    assert not recwarn.list  # no raw numpy overflow warning
    assert not out.exists() and not (tmp_path / "default-out").exists()


# the CSV header of each suite, and a sample count that keeps the run short
_SUITE_HEADERS = {
    "convolution": ("gamma,a,lhs_bracket,ratio_bracket,lhs_sqrt,ratio_sqrt", 2),
    "dyadic": ("j_max,points,max_defect", 100),
    "kp2bound": ("family,min_ratio,max_ratio", 10),
    "resonance": ("kp_sign,alpha,max_defect", 10),
    "strichartz": ("j,r,sample,ratio", 1),
    "unitarity": ("sample,norm_defect,group_defect", 2),
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_csv_header_is_the_keys_of_its_rows(tmp_path, suite):
    header, samples = _SUITE_HEADERS[suite]
    out = tmp_path / suite
    assert main(["verify", suite, "--seed", "3", "--samples", str(samples), "--out", str(out), "--quiet"]) in (0, 1)
    lines = (out / f"{suite}.csv").read_text().splitlines()
    assert lines[0] == header
    rows = run_suite(suite, 3, samples).rows
    assert len(lines) == 1 + len(rows)
    assert all(",".join(row) == header for row in rows)


def test_resonance_map_rows(tmp_path):
    out = tmp_path / "map"
    rc = main(
        [
            "resonance-map",
            "--xi1=1:2:2",
            "--xi2=1:2:2",
            "--mu1=0:1:2",
            "--mu2=0:1:2",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert rc == 0
    rows = (out / "resonance_map.csv").read_text().splitlines()
    assert rows[0] == "xi1,xi2,mu1,mu2,R"
    assert len(rows) == 1 + 2 * 2 * 2 * 2
    first = rows[1].split(",")
    assert float(first[4]) == pytest.approx(30.0)  # (1,1,0,0) resonance


def _read_map(out: Path):
    lines = (out / "resonance_map.csv").read_text().splitlines()
    rows = [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]
    return lines[0], rows, json.loads((out / "manifest.json").read_text())


def test_resonance_map_matches_the_scalar_path_point_by_point(tmp_path):
    ranges = {"xi1": (-2, 2, 5), "xi2": (-2, 2, 5), "mu1": (-1, 1, 3), "mu2": (0, 1, 2)}
    out = tmp_path / "map"
    argv = [f"--{name}={lo}:{hi}:{n}" for name, (lo, hi, n) in ranges.items()]
    assert main(["resonance-map", *argv, "--alpha=0.5", "--out", str(out), "--quiet"]) == 0
    params = DispersionParams(kp_sign=KPSign.KP1, alpha=0.5)
    expected, skipped = [], 0
    xi1s, xi2s, mu1s, mu2s = (np.linspace(*r) for r in ranges.values())
    for xi1 in xi1s:  # the loop the command used to run, point by point
        for xi2 in xi2s:
            for mu1 in mu1s:
                for mu2 in mu2s:
                    if xi1 == 0.0 or xi2 == 0.0 or xi1 + xi2 == 0.0:
                        skipped += 1
                        continue
                    r = resonance(float(xi1), float(xi2), float(mu1), float(mu2), params)
                    expected.append((xi1, xi2, mu1, mu2, r))
    header, rows, manifest = _read_map(out)
    assert header == "xi1,xi2,mu1,mu2,R"
    assert rows == expected  # same order, every value bit for bit
    assert skipped == 5 * 5 * 3 * 2 - len(expected) and skipped > 0
    assert (manifest["rows"], manifest["skipped_degenerate"]) == (len(expected), skipped)


def test_resonance_map_of_only_degenerate_points_writes_a_header(tmp_path):
    out = tmp_path / "map"
    assert main(["resonance-map", "--xi1=0:0:1", "--out", str(out), "--quiet"]) == 0
    header, rows, manifest = _read_map(out)
    assert header == "xi1,xi2,mu1,mu2,R" and rows == []
    assert (manifest["rows"], manifest["skipped_degenerate"]) == (0, 9)


@pytest.mark.parametrize(
    "argv",
    [
        ["resonance-map", "--alpha=nan"],
        ["resonance-map", "--alpha=inf"],
        ["resonance-map", "--alpha=-inf"],
        ["resonance-map", "--xi1=0:nan:3"],
        ["resonance-map", "--xi2=-inf:1:3"],
        ["resonance-map", "--mu1=0:inf:2"],
        ["resonance-map", "--mu2=nan:nan:1"],
    ],
)
def test_resonance_map_rejects_non_finite_inputs(tmp_path, capsys, argv):
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_norms_rejects_non_finite_alpha(tmp_path, capsys, alpha):
    cfg = _write_config(tmp_path / "cfg.json")
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(run), "--quiet"]) == 0
    out = tmp_path / "never"
    argv = ["norms", "--field", str(run / "final.kp5f"), f"--alpha={alpha}", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:") and "Traceback" not in captured.err
    assert not out.exists()


def test_verify_takes_the_lock_before_running_the_suite(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("kp5.cli.run_suite", lambda *args: calls.append(args))
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".kp5.lock").touch()
    assert main(["verify", "dyadic", "--out", str(out), "--quiet"]) == 4
    assert calls == []


@pytest.mark.parametrize(
    "argv, threads",
    [
        (["verify", "nosuchsuite"], "1"),
        (["verify", "dyadic"], "zero"),
        (["verify", "resonance", "--samples", "0"], "1"),
    ],
)
def test_verify_config_errors_create_no_directory(tmp_path, monkeypatch, argv, threads):
    monkeypatch.setenv("KP5_THREADS", threads)
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out), "--quiet"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key", ["quadrature_nodes", "picard_max_iters"])
@pytest.mark.parametrize("value", [2.7, float("inf")])
def test_picard_rejects_fractional_or_infinite_counts(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path / "cfg.json", solver={"dt": 1e-3, "t_final": 5e-3, key: value})
    out = tmp_path / "never"
    assert main(["picard", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "unitarity", "--samples", "0"],
        ["verify", "unitarity", "--samples", "-1"],
        ["verify", "convolution", "--samples", "0"],
        ["verify", "strichartz", "--samples", "-1"],
        ["verify", "strichartz", "--samples", str(10**20)],
        ["verify", "dyadic", "--samples", str(10**20)],
    ],
)
def test_verify_rejects_non_positive_samples(tmp_path, capsys, argv):
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_lock_names_its_holder_while_held(tmp_path, monkeypatch):
    seen = []

    def run_suite(*args):
        seen.append(json.loads((tmp_path / "held" / ".kp5.lock").read_text()))
        raise ValueError("stop here")

    monkeypatch.setattr("kp5.cli.run_suite", run_suite)
    assert main(["verify", "dyadic", "--out", str(tmp_path / "held"), "--quiet"]) == 2
    assert seen[0]["pid"] == os.getpid()
    assert seen[0]["host"] == socket.gethostname()
    assert seen[0]["started"].endswith("Z")
    assert not (tmp_path / "held").exists()  # lock released, empty directory removed


def test_the_lock_is_not_executable_while_held(tmp_path, monkeypatch):
    modes = []

    def run_suite(*args):
        modes.append(stat.S_IMODE((tmp_path / "held" / ".kp5.lock").stat().st_mode))
        raise ValueError("stop here")

    monkeypatch.setattr("kp5.cli.run_suite", run_suite)
    umask = os.umask(0)  # nothing masked: the mode is the one the lock was created with
    try:
        assert main(["verify", "dyadic", "--out", str(tmp_path / "held"), "--quiet"]) == 2
    finally:
        os.umask(umask)
    assert modes == [0o644]


def _locked_dir(tmp_path, text):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".kp5.lock").write_text(text)
    return out


@pytest.mark.parametrize(
    "argv", [["verify", "nosuchsuite"], ["verify", "dyadic", "--samples", "0"]]
)
def test_verify_checks_its_arguments_before_the_lock(tmp_path, capsys, argv):
    holder = {"pid": os.getpid(), "host": socket.gethostname(), "started": "2026-01-02T03:04:05Z"}
    out = _locked_dir(tmp_path, json.dumps(holder))
    assert main(argv + ["--out", str(out), "--quiet"]) == 2  # not 4: the lock was never tried
    assert capsys.readouterr().err.startswith("error:")
    assert json.loads((out / ".kp5.lock").read_text()) == holder


def test_a_failed_lock_write_leaves_no_lock(tmp_path, capsys, monkeypatch):
    def no_host():
        raise OSError("no host name")

    monkeypatch.setattr("kp5.cli.socket.gethostname", no_host)  # runs after the lock is created
    out = tmp_path / "map"
    argv = ["resonance-map", "--out", str(out), "--quiet"]
    assert main(argv) == 4
    assert capsys.readouterr().err == "i/o error: no host name\n"
    assert not out.exists()
    monkeypatch.undo()
    assert main(argv) == 0


def test_lock_held_by_a_dead_process_is_reported_stale(tmp_path, capsys):
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait(timeout=60)  # reaped, so its pid names no running process
    holder = {"pid": child.pid, "host": socket.gethostname(), "started": "2026-01-02T03:04:05Z"}
    out = _locked_dir(tmp_path, json.dumps(holder))
    assert main(["verify", "dyadic", "--out", str(out), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert f"pid {child.pid}" in err and "2026-01-02T03:04:05Z" in err
    assert "no longer running" in err
    assert sorted(p.name for p in out.iterdir()) == [".kp5.lock"]


def test_lock_held_by_a_live_process_says_so(tmp_path, capsys):
    holder = {"pid": os.getpid(), "host": socket.gethostname(), "started": "2026-01-02T03:04:05Z"}
    out = _locked_dir(tmp_path, json.dumps(holder))
    assert main(["verify", "dyadic", "--out", str(out), "--quiet"]) == 4
    assert "still running" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "not json", '{"pid": "x"}'])
def test_legacy_or_unreadable_lock_is_a_clean_io_error(tmp_path, capsys, text):
    out = _locked_dir(tmp_path, text)
    assert main(["verify", "dyadic", "--out", str(out), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "names no holder" in err


_GAUSSIAN = {"kind": "gaussian", "amplitude": 0.01, "sigma_x": 1.0, "sigma_y": 1.0}


@pytest.mark.parametrize("command", ["simulate", "picard"])
@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"dispersion": {"alpha": float("nan")}}, "dispersion.alpha"),
        ({"dispersion": {"alpha": float("inf")}}, "dispersion.alpha"),
        ({"initial_data": {**_GAUSSIAN, "amplitude": float("nan")}}, "initial_data.amplitude"),
        ({"initial_data": {"kind": "mode_sum", "modes": [[1, 1, float("inf"), 0]]}}, "initial_data.modes[0][2]"),
        ({"initial_data": {"kind": "mode_sum", "modes": [[1, 1, 0.01, float("nan")]]}}, "initial_data.modes[0][3]"),
        ({"initial_data": {**_GAUSSIAN, "sigma_x": 0}}, "sigma_x"),
        ({"initial_data": {**_GAUSSIAN, "sigma_y": -1.0}}, "sigma_y"),
        ({"initial_data": {**_GAUSSIAN, "center": [float("inf"), 1]}}, "initial_data.center[0]"),
        ({"initial_data": {**_GAUSSIAN, "center": [None, 1]}}, "initial_data.center[0]"),
        ({"initial_data": {**_GAUSSIAN, "center": ["a", 1]}}, "initial_data.center[0]"),
        ({"initial_data": {"kind": "mode_sum", "modes": [[1, 1, None, 0]]}}, "initial_data.modes[0][2]"),
        ({"initial_data": {"kind": "mode_sum", "modes": [[1, 1, "x", 0]]}}, "initial_data.modes[0][2]"),
        ({"monitors": [[None, 1]]}, "monitors[0][0]"),
        ({"initial_data": {"kind": "random_shell", "shell": 2, "seed": -1}}, "initial_data.seed"),
        ({"grid": {"nx": 16, "ny": 16, "lx": "6.28", "ly": 6.283185307179586}}, "grid.lx"),
        ({"solver": {"dt": "0.01", "t_final": 5e-3}}, "solver.dt"),
    ],
)
def test_malformed_numbers_are_config_errors(tmp_path, capsys, command, overrides, field):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "never"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "default-out").exists()


@pytest.mark.parametrize("threads", ["zero", "0"])
@pytest.mark.parametrize("command", ["simulate", "picard", "resonance-map"])
def test_bad_thread_budget_is_a_config_error_before_any_work(
    tmp_path, capsys, monkeypatch, command, threads
):
    monkeypatch.setenv("KP5_THREADS", threads)
    argv = [command]
    if command != "resonance-map":
        argv += ["--config", str(_write_config(tmp_path / "cfg.json"))]
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "KP5_THREADS" in err
    assert not out.exists() and not (tmp_path / "default-out").exists()


@pytest.mark.parametrize("command", ["simulate", "picard"])
@pytest.mark.parametrize("shell", [2**40, 1000])
def test_a_shell_with_no_lattice_point_is_a_config_error(tmp_path, capsys, command, shell):
    shell_data = {"kind": "random_shell", "shell": shell, "seed": 1}
    cfg = _write_config(tmp_path / "cfg.json", initial_data=shell_data)
    out = tmp_path / "never"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: initial_data.shell") and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "default-out").exists()


def test_strichartz_artifacts_do_not_depend_on_the_thread_count(tmp_path, monkeypatch):
    runs = {}
    for threads in ("1", "3"):
        monkeypatch.setenv("KP5_THREADS", threads)
        out = tmp_path / f"threads-{threads}"
        argv = ["verify", "strichartz", "--samples", "2", "--seed", "3", "--out", str(out)]
        assert main(argv + ["--quiet"]) in (0, 1)
        summary = json.loads((out / "strichartz_summary.json").read_text())
        assert summary["kp5_threads"] == int(threads)
        csv_bytes = (out / "strichartz.csv").read_bytes()
        runs[threads] = (csv_bytes, summary["summary"], summary["status"])
    assert runs["1"] == runs["3"]
