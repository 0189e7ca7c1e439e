"""No kp5 reduction goes through BLAS or LAPACK.

OpenBLAS splits a reduction by its own thread count, so a norm summed through
it can change its last bits with ``OPENBLAS_NUM_THREADS``.  kp5 sums every
lattice norm with ``field._column_sums`` instead.  The sources are read with
``ast``, so a mention in a comment or docstring does not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_SOURCES = sorted((ROOT / "src" / "kp5").glob("*.py"))

# numpy entry points that call BLAS (or, for the fits, LAPACK) for float arrays;
# einsum does only when asked to optimize
_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "polyfit", "lstsq"}


def _in_numpy_linalg(module: str) -> bool:
    return (module + ".").startswith("numpy.linalg.")


def _blas_references(source: str) -> list[int]:
    """Line numbers of every ``numpy.linalg`` access or import, every attribute or
    import named after a BLAS product, every ``@``, and every optimized ``einsum``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr in _BLAS_CALLS or (
                node.attr == "linalg" and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            )
        elif isinstance(node, ast.Import):
            hit = any(_in_numpy_linalg(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = _in_numpy_linalg(module) or (
                module == "numpy" and any(a.name in _BLAS_CALLS | {"linalg"} for a in node.names)
            )
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            hit = name == "einsum" and any(k.arg == "optimize" for k in node.keywords)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "source, count",
    [
        ("import numpy as np\nx = np.linalg.norm(a)\n", 1),
        ("import numpy\nnumpy.linalg.norm(a)\n", 1),
        ("import numpy.linalg\n", 1),
        ("from numpy import linalg\n", 1),
        ("from numpy.linalg import norm as n\n", 1),
        ("x = np.dot(a, b) + np.vdot(a, b) + np.inner(a, b)\n", 3),
        ("x = np.matmul(a, b)\ny = np.tensordot(a, b, 1)\n", 2),
        ("x = a.dot(b)\n", 1),
        ("from numpy import dot, vdot\n", 1),
        ("x = a @ b\nx @= b\n", 2),
        ("from numpy import polyfit\nslope = scipy.linalg.lstsq(a, b)[0]\n", 2),
        ("x = np.einsum('ij,jk->ik', a, b, optimize=True)\n", 1),
        ("inner = np.einsum('rk,rk->k', v, v)  # not np.dot\n", 0),
    ],
    ids=[
        "np-linalg", "numpy-linalg", "import", "from-numpy", "from-numpy-linalg", "products",
        "matmul-tensordot", "method", "from-numpy-products", "operator", "fits", "optimized-einsum", "einsum",
    ],
)
def test_the_scan_finds_each_spelling_of_a_blas_call(source, count):
    assert len(_blas_references(source)) == count


def test_no_kp5_module_reduces_through_blas():
    found = [
        f"{path.relative_to(ROOT).as_posix()}:{line}"
        for path in _SOURCES
        for line in _blas_references(path.read_text())
    ]
    assert not found, f"BLAS reached at {found}; kp5 sums lattice norms with field._column_sums"
