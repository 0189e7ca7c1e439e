import json
from pathlib import Path

import pytest

from kp5.cli import main
from kp5.fileio import read_field


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


def test_simulate_blowup_exit_code(tmp_path):
    cfg = _write_config(
        tmp_path / "cfg.json",
        solver={"dt": 0.05, "t_final": 2.0},
        initial_data={"kind": "mode_sum", "modes": [[1, 0, 80.0, 0.0], [2, 1, 60.0, 0.3]]},
    )
    out = tmp_path / "blow"
    with pytest.warns(RuntimeWarning):
        rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "blowup"
    assert (out / "diagnostics.csv").exists()


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
