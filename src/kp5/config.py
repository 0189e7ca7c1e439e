"""Run configuration: one strict JSON document.

Unknown keys are rejected everywhere, and every default is explicit here:

.. code-block:: json

    {
      "grid": {"nx": 64, "ny": 64, "lx": 6.283185307179586, "ly": 6.283185307179586},
      "dispersion": {"kp_sign": "kp1", "alpha": 0.0},
      "solver": {"dt": 1e-4, "t_final": 0.01,
                 "picard_max_iters": 25, "picard_tol": 1e-10,
                 "quadrature_nodes": 2, "cutoff_T": 0.5},
      "initial_data": {"kind": "gaussian", "amplitude": 0.1,
                       "sigma_x": 1.0, "sigma_y": 1.0, "center": null},
      "monitors": [],
      "output": {"directory": "kp5-out", "snapshot_stride": 0}
    }

``grid`` and ``solver.dt``/``solver.t_final`` are required; everything shown
with a value above is its default.  ``initial_data`` kinds: ``gaussian``
(amplitude, sigma_x, sigma_y, optional center [cx, cy]), ``mode_sum``
(modes: list of [k, l, amplitude, phase]), ``random_shell`` (shell, seed),
``file`` (path).  ``monitors`` is a list of [s1, s2] Sobolev index pairs.
``snapshot_stride`` 0 disables field snapshots.

Every number, section field or list entry, must be a JSON int or float (not
a bool, string or null) and finite.  ``nx``, ``ny``, ``picard_max_iters``,
``quadrature_nodes``, ``shell``, ``seed``, the mode numbers ``k, l`` and
``snapshot_stride`` are integral (``3.0`` reads as 3); ``shell``, ``seed``
and ``snapshot_stride`` are also >= 0.  ``ConfigError`` names the offending
field by its JSON path (``solver.dt``, ``initial_data.modes[0][2]``), or the
section when a constructor rejects the value (odd ``nx``, ``sigma_x <= 0``).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .dispersion import DispersionParams, KPSign
from .errors import ConfigError
from .evolution import SolverConfig
from .grid import SpectralGrid, make_grid
from .initial_data import FileData, GaussianData, ModeSumData, RandomShellData
from .norms import NormSpec

__all__ = ["RunConfig", "load_config", "parse_config"]

_DEFAULT_INITIAL = {"kind": "gaussian", "amplitude": 0.1, "sigma_x": 1.0, "sigma_y": 1.0}


@dataclass(frozen=True)
class RunConfig:
    grid: SpectralGrid
    dispersion: DispersionParams
    solver: SolverConfig
    initial_data: object
    monitors: tuple[NormSpec, ...]
    output_directory: str
    snapshot_stride: int
    raw: dict


def _object(section, where: str, allowed: set, required: set = frozenset()) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object")
    if unknown := set(section) - allowed:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    if missing := required - set(section):
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")
    return section


def _number(container, key, where: str, default=None, *, count=False, nonnegative=False):
    """Read ``container[key]`` (``default`` if a section omits it): the one gate
    every config number passes.  A ``count`` comes back as an int, any other
    number as a float; errors name the field as a JSON path."""
    field = f"{where}[{key}]" if isinstance(key, int) else f"{where}.{key}"
    value = container.get(key, default) if isinstance(container, dict) else container[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: expected a number, got {value!r}")
    number = value
    if isinstance(value, int) and not count:
        number = float(value) if abs(value) <= sys.float_info.max else math.inf
    if isinstance(number, float):
        if not math.isfinite(number):
            raise ConfigError(f"{field}: expected a finite number, got {value!r}")
        if count and not number.is_integer():
            raise ConfigError(f"{field}: only integers are allowed, got {value!r}")
    if nonnegative and number < 0:
        raise ConfigError(f"{field}: expected a nonnegative number, got {value!r}")
    return int(number) if count else number


def _vector(entry, where: str, names: tuple, counts: int = 0) -> tuple:
    """Read a JSON list ``[names...]`` of numbers; the first ``counts`` are integers."""
    if not (isinstance(entry, list) and len(entry) == len(names)):
        raise ConfigError(f"{where}: expected [{', '.join(names)}], got {entry!r}")
    return tuple(_number(entry, i, where, count=i < counts) for i in range(len(names)))


def _build(where: str, make, *args, **kwargs):
    """Call a validating constructor; its ValueError becomes a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _choice(enum_cls, section: dict, key: str, default: str, where: str):
    value = section.get(key, default)
    try:
        return enum_cls(value)
    except ValueError:
        choices = " or ".join(repr(member.value) for member in enum_cls)
        raise ConfigError(f"{where}.{key}: expected {choices}, got {value!r}") from None


def _parse_grid(section) -> SpectralGrid:
    keys = ("nx", "ny", "lx", "ly")
    _object(section, "grid", set(keys), set(keys))
    return _build("grid", make_grid, *(_number(section, k, "grid", count=k in ("nx", "ny")) for k in keys))


def _parse_dispersion(section) -> DispersionParams:
    section = _object({} if section is None else section, "dispersion", {"kp_sign", "alpha"})
    return _build(
        "dispersion",
        DispersionParams,
        kp_sign=_choice(KPSign, section, "kp_sign", "kp1", "dispersion"),
        alpha=_number(section, "alpha", "dispersion", 0.0),
    )


def _parse_solver(section) -> SolverConfig:
    allowed = {"dt", "t_final", "picard_max_iters", "picard_tol", "quadrature_nodes", "cutoff_T"}
    _object(section, "solver", allowed, {"dt", "t_final"})
    return _build(
        "solver",
        SolverConfig,
        dt=_number(section, "dt", "solver"),
        t_final=_number(section, "t_final", "solver"),
        picard_max_iters=_number(section, "picard_max_iters", "solver", 25, count=True),
        picard_tol=_number(section, "picard_tol", "solver", 1e-10),
        quadrature_nodes=_number(section, "quadrature_nodes", "solver", 2, count=True),
        cutoff_T=_number(section, "cutoff_T", "solver", 0.5),
    )


def _parse_initial(section):
    section = _DEFAULT_INITIAL if section is None else section
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("initial_data: expected an object with a 'kind' key")
    kind = section["kind"]
    where = "initial_data"
    if kind == "gaussian":
        allowed = {"kind", "amplitude", "sigma_x", "sigma_y", "center"}
        _object(section, "initial_data(gaussian)", allowed, {"amplitude", "sigma_x", "sigma_y"})
        center = section.get("center")
        return _build(
            where,
            GaussianData,
            amplitude=_number(section, "amplitude", where),
            sigma_x=_number(section, "sigma_x", where),
            sigma_y=_number(section, "sigma_y", where),
            center=None if center is None else _vector(center, f"{where}.center", ("cx", "cy")),
        )
    if kind == "mode_sum":
        _object(section, "initial_data(mode_sum)", {"kind", "modes"}, {"modes"})
        modes = section["modes"]
        if not isinstance(modes, list) or not modes:
            raise ConfigError("initial_data.modes: expected a nonempty list")
        names = ("k", "l", "amplitude", "phase")
        return ModeSumData(tuple(_vector(m, f"{where}.modes[{i}]", names, 2) for i, m in enumerate(modes)))
    if kind == "random_shell":
        _object(section, "initial_data(random_shell)", {"kind", "shell", "seed"}, {"shell", "seed"})
        shell, seed = (_number(section, k, where, count=True, nonnegative=True) for k in ("shell", "seed"))
        return RandomShellData(shell=shell, seed=seed)
    if kind == "file":
        _object(section, "initial_data(file)", {"kind", "path"}, {"path"})
        if not isinstance(section["path"], str):
            raise ConfigError("initial_data.path: expected a string")
        return FileData(path=section["path"])
    raise ConfigError(f"initial_data.kind: unknown kind {kind!r}")


def _parse_monitors(section) -> tuple[NormSpec, ...]:
    if section is None:
        return ()
    if not isinstance(section, list):
        raise ConfigError("monitors: expected a list of [s1, s2] pairs")
    return tuple(
        _build(f"monitors[{i}]", NormSpec, *_vector(entry, f"monitors[{i}]", ("s1", "s2")))
        for i, entry in enumerate(section)
    )


def _parse_output(section) -> tuple[str, int]:
    section = _object({} if section is None else section, "output", {"directory", "snapshot_stride"})
    directory = section.get("directory", "kp5-out")
    if not isinstance(directory, str):
        raise ConfigError("output.directory: expected a string")
    return directory, _number(section, "snapshot_stride", "output", 0, count=True, nonnegative=True)


def parse_config(document: dict) -> RunConfig:
    """Validate a parsed JSON document against the strict schema."""
    allowed = {"grid", "dispersion", "solver", "initial_data", "monitors", "output"}
    _object(document, "config root", allowed, {"grid", "solver"})
    directory, stride = _parse_output(document.get("output"))
    return RunConfig(
        grid=_parse_grid(document["grid"]),
        dispersion=_parse_dispersion(document.get("dispersion")),
        solver=_parse_solver(document["solver"]),
        initial_data=_parse_initial(document.get("initial_data")),
        monitors=_parse_monitors(document.get("monitors")),
        output_directory=directory,
        snapshot_stride=stride,
        raw=document,
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(document)
