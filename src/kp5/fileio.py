"""On-disk formats: the KP5F binary field dump, diagnostics CSV, and JSON
summaries/manifests.

KP5F layout (all little-endian, byte offsets in parentheses):

    magic "KP5F"      (0)   4 bytes
    format version    (4)   u32, currently 1
    nx                (8)   u32
    ny                (12)  u32
    lx                (16)  f64
    ly                (24)  f64
    time              (32)  f64
    samples           (40)  nx*ny f64, physical values, row-major with y as
                            the outer index and x inner

CSV files print floats with 17 significant digits so doubles round-trip.
Every artifact is written through ``atomic_writer``: readers see either the
previous file or the complete new one, never a partial write.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError
from .field import Field
from .grid import make_grid

__all__ = [
    "KP5F_MAGIC",
    "KP5F_VERSION",
    "write_field",
    "read_field",
    "format_float",
    "diagnostics_csv",
    "atomic_writer",
    "write_csv",
    "write_json",
    "config_sha256",
]

KP5F_MAGIC = b"KP5F"
KP5F_VERSION = 1
_HEADER = struct.Struct("<4sIIIddd")


@contextmanager
def atomic_writer(path):
    """Binary file handle whose contents replace ``path`` only on success.

    The data goes to a hidden temporary file in the target directory, which
    ``os.replace`` moves over ``path`` once the block completes; if the block
    raises, the temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_field(path, field: Field, time: float = 0.0) -> None:
    """Dump the physical samples of a real field in the KP5F layout."""
    if not field.reality:
        raise FormatError("KP5F stores real fields; the reality flag is unset")
    grid = field.grid
    header = _HEADER.pack(
        KP5F_MAGIC, KP5F_VERSION, grid.nx, grid.ny, grid.lx, grid.ly, float(time)
    )
    samples = np.ascontiguousarray(field.to_physical().real, dtype="<f8")
    with atomic_writer(path) as fh:
        fh.write(header)
        fh.write(samples.tobytes())


def read_field(path) -> tuple[Field, float]:
    """Load a KP5F dump; returns the field and its stored time."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, nx, ny, lx, ly, time = _HEADER.unpack_from(raw)
    if magic != KP5F_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != KP5F_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    expected = _HEADER.size + 8 * nx * ny
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    try:
        grid = make_grid(nx, ny, lx, ly)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid stored grid: {exc}") from exc
    samples = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(ny, nx)
    return Field.from_physical(grid, samples.astype(np.float64)), float(time)


def format_float(x: float) -> str:
    """17-significant-digit decimal, enough to round-trip a double."""
    return format(float(x), ".17g")


def _cell(value) -> str:
    return format_float(value) if isinstance(value, float) else str(value)


def diagnostics_csv(records, columns) -> str:
    """Render records (mappings) as CSV with a fixed column order; floats via
    ``format_float``, other values via ``str``."""
    lines = [",".join(columns)]
    for rec in records:
        lines.append(",".join(_cell(rec[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _write_text(path, text: str) -> None:
    with atomic_writer(path) as fh:
        fh.write(text.encode("utf-8"))


def write_csv(path, records, columns) -> None:
    _write_text(path, diagnostics_csv(records, columns))


def write_json(path, payload) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def config_sha256(config_dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
