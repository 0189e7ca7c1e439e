"""Every source file parses under the oldest Python that pyproject.toml allows.

The floor is read from ``requires-python`` with a regex, because ``tomllib``
arrived only in Python 3.11.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M)
    assert match, "pyproject.toml states no requires-python lower bound"
    return int(match.group(1)), int(match.group(2))


_SOURCES = sorted(p for top in ("src", "tests", "benchmarks") for p in (ROOT / top).rglob("*.py"))


def test_the_floor_is_the_oldest_python_ci_runs():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    versions = re.search(r"python-version:\s*\[([^\]]*)\]", workflow).group(1)
    oldest = min(tuple(map(int, v.split("."))) for v in re.findall(r"\d+\.\d+", versions))
    assert _python_floor() == oldest


@pytest.mark.parametrize("path", _SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in _SOURCES])
def test_source_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_python_floor())
