"""No kp5 command loads ``scipy.integrate`` or the subpackages it pulls in.

``scipy.integrate`` would bring ``scipy.optimize``, ``scipy.sparse`` and
``scipy.linalg`` along. ``kp5 verify convolution`` integrates with its own
numpy double-exponential rule, so neither importing ``kp5`` nor running that
check loads any of them. Each check runs in a fresh interpreter, so modules
that other tests imported do not count.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_HEAVY = "['scipy.integrate', 'scipy.optimize', 'scipy.sparse', 'scipy.linalg']"


def _run(code: str) -> None:
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_leaves_quadrature_and_its_scipy_subpackages_out():
    _run(
        "import sys, kp5, kp5.cli\n"
        "kp5.convolution_bound_check, kp5.ConvolutionBoundResult\n"
        f"loaded = [m for m in {_HEAVY} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


def test_the_convolution_check_loads_no_quadrature_scipy_subpackage(tmp_path):
    _run(
        "import sys, kp5.cli\n"
        f"code = kp5.cli.main(['verify', 'convolution', '--samples', '5', '--seed', '3', '--out', {str(tmp_path / 'out')!r}, '--quiet'])\n"
        "assert code == 0, code\n"
        f"loaded = [m for m in {_HEAVY} if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


def test_every_exported_name_resolves_and_an_unknown_name_raises_attribute_error():
    _run(
        "import kp5\n"
        "for name in kp5.__all__:\n"
        "    getattr(kp5, name)\n"
        "try:\n"
        "    kp5.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert str(exc) == \"module 'kp5' has no attribute 'no_such_name'\", exc\n"
        "else:\n"
        "    raise AssertionError('kp5.no_such_name resolved')\n"
    )
