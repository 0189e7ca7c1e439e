import struct

import numpy as np
import pytest

from kp5 import Field, make_grid
from kp5.errors import FormatError
from kp5.fileio import (
    KP5F_MAGIC,
    KP5F_VERSION,
    atomic_writer,
    config_sha256,
    diagnostics_csv,
    format_float,
    read_field,
    write_csv,
    write_field,
)


def test_header_byte_layout(tmp_path):
    g = make_grid(4, 4, 1.5, 2.5)
    samples = np.arange(16, dtype=float).reshape(4, 4)
    f = Field.from_physical(g, samples)
    path = tmp_path / "tiny.kp5f"
    write_field(path, f, time=0.75)
    raw = path.read_bytes()

    assert raw[:4] == KP5F_MAGIC
    assert struct.unpack_from("<I", raw, 4)[0] == KP5F_VERSION
    assert struct.unpack_from("<II", raw, 8) == (4, 4)
    assert struct.unpack_from("<ddd", raw, 16) == (1.5, 2.5, 0.75)
    assert len(raw) == 40 + 16 * 8
    # row-major, y outer: the flat payload is sample (ix + nx*iy) in order
    payload = np.frombuffer(raw, dtype="<f8", offset=40)
    assert np.max(np.abs(payload.reshape(4, 4) - samples)) <= 1e-12


def test_roundtrip(tmp_path, grid16):
    rng = np.random.default_rng(0)
    f = Field.from_physical(grid16, rng.standard_normal(grid16.shape))
    path = tmp_path / "f.kp5f"
    write_field(path, f, time=1.25)
    loaded, time = read_field(path)
    assert time == 1.25
    assert loaded.grid == grid16
    assert (loaded - f).l2_norm() <= 1e-13 * f.l2_norm()


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.kp5f"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        read_field(path)


def test_read_rejects_bad_version(tmp_path, grid16):
    f = Field.zeros(grid16)
    path = tmp_path / "v.kp5f"
    write_field(path, f)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_field(path)


def test_read_rejects_invalid_stored_grid(tmp_path):
    # header claims nx=5 (odd); payload sized to match so only the grid is bad
    header = struct.pack("<4sIIIddd", KP5F_MAGIC, KP5F_VERSION, 5, 4, 1.0, 1.0, 0.0)
    path = tmp_path / "oddnx.kp5f"
    path.write_bytes(header + b"\x00" * (8 * 5 * 4))
    with pytest.raises(FormatError, match="invalid stored grid"):
        read_field(path)


def test_read_rejects_truncation(tmp_path, grid16):
    f = Field.zeros(grid16)
    path = tmp_path / "t.kp5f"
    write_field(path, f)
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(FormatError):
        read_field(path)


def test_format_float_roundtrips():
    values = [0.0, 1.0, np.pi, 1e-300, -2.5e17, 0.1 + 0.2]
    for v in values:
        assert float(format_float(v)) == v


def test_diagnostics_csv_layout():
    rows = [{"t": 0.0, "mass": 1.0}, {"t": 0.5, "mass": 2.0}]
    text = diagnostics_csv(rows, ["t", "mass"])
    lines = text.splitlines()
    assert lines[0] == "t,mass"
    assert lines[1] == "0,1"
    assert lines[2] == "0.5,2"
    assert text.endswith("\n")


def test_csv_cells_format_floats_only(tmp_path):
    rows = [{"n": 3, "name": "kp1", "x": np.float64(0.1), "y": 2.0}]
    write_csv(tmp_path / "rows.csv", rows, ("n", "name", "x", "y"))
    assert (tmp_path / "rows.csv").read_text() == "n,name,x,y\n3,kp1,0.10000000000000001,2\n"


def test_atomic_writer_failure_leaves_target_intact(tmp_path):
    target = tmp_path / "artifact.bin"
    target.write_bytes(b"previous")
    with pytest.raises(RuntimeError):
        with atomic_writer(target) as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted mid-write")
    assert target.read_bytes() == b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin"]

    fresh = tmp_path / "fresh.bin"
    with pytest.raises(RuntimeError):
        with atomic_writer(fresh) as fh:
            fh.write(b"partial")
            raise RuntimeError("interrupted mid-write")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin"]

    with atomic_writer(target) as fh:
        fh.write(b"complete")
    assert target.read_bytes() == b"complete"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin"]


def test_config_sha256_stable_under_key_order():
    a = config_sha256({"b": 1, "a": [1, 2]})
    b = config_sha256({"a": [1, 2], "b": 1})
    assert a == b
    assert len(a) == 64
