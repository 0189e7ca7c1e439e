"""``kp5`` loads ``kp5.convbounds``, and ``scipy.integrate`` with it, only on first use.

Only ``kp5 verify convolution`` needs adaptive quadrature; ``scipy.integrate``
pulls in ``scipy.optimize``, ``scipy.sparse`` and ``scipy.linalg``, which no
other command uses. Each check runs in a fresh interpreter, so modules that
other tests imported do not count.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> None:
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_leaves_quadrature_and_its_scipy_subpackages_out():
    _run(
        "import sys, kp5.cli\n"
        "heavy = ['kp5.convbounds', 'scipy.integrate', 'scipy.optimize', 'scipy.sparse', 'scipy.linalg']\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )


def test_the_lazy_names_resolve_and_an_unknown_name_raises_attribute_error():
    _run(
        "import sys, kp5\n"
        "from kp5 import ConvolutionBoundResult, convolution_bound_check\n"
        "assert 'scipy.integrate' in sys.modules\n"
        "result = convolution_bound_check(2.0, 0.0)\n"
        "assert isinstance(result, ConvolutionBoundResult) and result.lhs_bracket > 0.0\n"
        "for name in kp5.__all__:\n"
        "    getattr(kp5, name)\n"
        "assert 'convolution_bound_check' not in vars(kp5)  # resolved on each access, never cached\n"
        "try:\n"
        "    kp5.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert str(exc) == \"module 'kp5' has no attribute 'no_such_name'\", exc\n"
        "else:\n"
        "    raise AssertionError('kp5.no_such_name resolved')\n"
    )
