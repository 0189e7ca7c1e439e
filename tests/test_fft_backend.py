"""Every transform and frequency table in kp5 comes from one backend, ``scipy.fft``.

Two FFT libraries may round differently on the same input, so a package that
mixed them would give two answers for one transform. The sources are read with
``ast``, so a mention in a comment or docstring does not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_SOURCES = sorted((ROOT / "src" / "kp5").glob("*.py"))


def _in_numpy_fft(module: str) -> bool:
    return (module + ".").startswith("numpy.fft.")


def _numpy_fft_references(source: str) -> list[int]:
    """Line numbers of every ``np.fft`` / ``numpy.fft`` access and every import of ``numpy.fft``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr == "fft" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
        elif isinstance(node, ast.Import):
            hit = any(_in_numpy_fft(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = _in_numpy_fft(module) or (module == "numpy" and any(a.name == "fft" for a in node.names))
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "source, count",
    [
        ("import numpy as np\nx = np.fft.fft2(a)\ny = np.fft.fftfreq(4)\n", 2),
        ("import numpy\nnumpy.fft.ifft(a)\n", 1),
        ("import numpy.fft\n", 1),
        ("from numpy import fft\n", 1),
        ("from numpy.fft import rfft2 as f\n", 1),
        ("import scipy.fft\nx = scipy.fft.fft2(a)  # not np.fft\n", 0),
    ],
    ids=["np-access", "numpy-access", "import", "from-numpy", "from-numpy-fft", "scipy-only"],
)
def test_the_scan_finds_each_spelling_of_numpy_fft(source, count):
    assert len(_numpy_fft_references(source)) == count


def test_no_kp5_module_uses_numpy_fft():
    found = [
        f"{path.relative_to(ROOT).as_posix()}:{line}"
        for path in _SOURCES
        for line in _numpy_fft_references(path.read_text())
    ]
    assert not found, f"numpy.fft referenced at {found}; kp5 transforms through scipy.fft only"
