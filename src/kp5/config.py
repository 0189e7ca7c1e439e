"""Run configuration: one strict JSON document.

Unknown keys are rejected everywhere, and every default is explicit here:

.. code-block:: json

    {
      "grid": {"nx": 64, "ny": 64, "lx": 6.283185307179586, "ly": 6.283185307179586},
      "dispersion": {"kp_sign": "kp1", "alpha": 0.0, "zero_mode": "project_out"},
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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .dispersion import DispersionParams, KPSign, ZeroModePolicy
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


def _require_keys(section: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")


def _number(section: dict, key: str, where: str, default=None):
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
    return value


def _integral(value) -> bool:
    """True for an integer or a finite integral float, never for a boolean."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_grid(section) -> SpectralGrid:
    if not isinstance(section, dict):
        raise ConfigError("grid: expected an object")
    _require_keys(section, {"nx", "ny", "lx", "ly"}, {"nx", "ny", "lx", "ly"}, "grid")
    try:
        return make_grid(section["nx"], section["ny"], section["lx"], section["ly"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _parse_dispersion(section) -> DispersionParams:
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError("dispersion: expected an object")
    _require_keys(section, {"kp_sign", "alpha", "zero_mode"}, set(), "dispersion")
    sign_name = section.get("kp_sign", "kp1")
    try:
        sign = KPSign(sign_name)
    except ValueError:
        raise ConfigError(f"dispersion.kp_sign: expected 'kp1' or 'kp2', got {sign_name!r}") from None
    policy_name = section.get("zero_mode", "project_out")
    try:
        policy = ZeroModePolicy(policy_name)
    except ValueError:
        raise ConfigError(
            f"dispersion.zero_mode: expected 'project_out' or 'error', got {policy_name!r}"
        ) from None
    alpha = _number(section, "alpha", "dispersion", default=0.0)
    return DispersionParams(kp_sign=sign, alpha=float(alpha), zero_mode=policy)


def _parse_solver(section) -> SolverConfig:
    if not isinstance(section, dict):
        raise ConfigError("solver: expected an object")
    allowed = {"dt", "t_final", "picard_max_iters", "picard_tol", "quadrature_nodes", "cutoff_T"}
    _require_keys(section, allowed, {"dt", "t_final"}, "solver")
    for key in ("picard_max_iters", "quadrature_nodes"):
        if key in section and not _integral(section[key]):
            raise ConfigError(f"solver.{key}: expected an integer, got {section[key]!r}")
    try:
        return SolverConfig(
            dt=float(_number(section, "dt", "solver")),
            t_final=float(_number(section, "t_final", "solver")),
            picard_max_iters=int(_number(section, "picard_max_iters", "solver", default=25)),
            picard_tol=float(_number(section, "picard_tol", "solver", default=1e-10)),
            quadrature_nodes=int(_number(section, "quadrature_nodes", "solver", default=2)),
            cutoff_T=float(_number(section, "cutoff_T", "solver", default=0.5)),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc


def _parse_initial(section):
    if section is None:
        section = dict(_DEFAULT_INITIAL)
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("initial_data: expected an object with a 'kind' key")
    kind = section["kind"]
    if kind == "gaussian":
        _require_keys(
            section,
            {"kind", "amplitude", "sigma_x", "sigma_y", "center"},
            {"amplitude", "sigma_x", "sigma_y"},
            "initial_data(gaussian)",
        )
        center = section.get("center")
        if center is not None:
            if not (isinstance(center, list) and len(center) == 2):
                raise ConfigError("initial_data.center: expected [cx, cy]")
            center = (float(center[0]), float(center[1]))
        return GaussianData(
            amplitude=float(_number(section, "amplitude", "initial_data")),
            sigma_x=float(_number(section, "sigma_x", "initial_data")),
            sigma_y=float(_number(section, "sigma_y", "initial_data")),
            center=center,
        )
    if kind == "mode_sum":
        _require_keys(section, {"kind", "modes"}, {"modes"}, "initial_data(mode_sum)")
        modes = section["modes"]
        if not isinstance(modes, list) or not modes:
            raise ConfigError("initial_data.modes: expected a nonempty list")
        parsed = []
        for entry in modes:
            if not (isinstance(entry, list) and len(entry) == 4):
                raise ConfigError(f"initial_data.modes: expected [k, l, amplitude, phase], got {entry!r}")
            k, l, amp, phase = entry
            if not (_integral(k) and _integral(l)):
                raise ConfigError(f"initial_data.modes: k, l must be integers, got {entry!r}")
            parsed.append((int(k), int(l), float(amp), float(phase)))
        return ModeSumData(modes=tuple(parsed))
    if kind == "random_shell":
        _require_keys(section, {"kind", "shell", "seed"}, {"shell", "seed"}, "initial_data(random_shell)")
        shell = section["shell"]
        seed = section["seed"]
        if not _integral(shell) or shell < 0:
            raise ConfigError(f"initial_data.shell: expected a nonnegative integer, got {shell!r}")
        if not _integral(seed):
            raise ConfigError(f"initial_data.seed: expected an integer, got {seed!r}")
        return RandomShellData(shell=int(shell), seed=int(seed))
    if kind == "file":
        _require_keys(section, {"kind", "path"}, {"path"}, "initial_data(file)")
        if not isinstance(section["path"], str):
            raise ConfigError("initial_data.path: expected a string")
        return FileData(path=section["path"])
    raise ConfigError(f"initial_data.kind: unknown kind {kind!r}")


def _parse_monitors(section) -> tuple[NormSpec, ...]:
    if section is None:
        return ()
    if not isinstance(section, list):
        raise ConfigError("monitors: expected a list of [s1, s2] pairs")
    out = []
    for entry in section:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ConfigError(f"monitors: expected [s1, s2], got {entry!r}")
        try:
            out.append(NormSpec(s1=float(entry[0]), s2=float(entry[1])))
        except ValueError as exc:
            raise ConfigError(f"monitors: {exc}") from exc
    return tuple(out)


def _parse_output(section) -> tuple[str, int]:
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError("output: expected an object")
    _require_keys(section, {"directory", "snapshot_stride"}, set(), "output")
    directory = section.get("directory", "kp5-out")
    if not isinstance(directory, str):
        raise ConfigError("output.directory: expected a string")
    stride = section.get("snapshot_stride", 0)
    if not _integral(stride) or stride < 0:
        raise ConfigError(f"output.snapshot_stride: expected a nonnegative integer, got {stride!r}")
    return directory, int(stride)


def parse_config(document: dict) -> RunConfig:
    """Validate a parsed JSON document against the strict schema."""
    if not isinstance(document, dict):
        raise ConfigError("config root: expected an object")
    allowed = {"grid", "dispersion", "solver", "initial_data", "monitors", "output"}
    _require_keys(document, allowed, {"grid", "solver"}, "config root")
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
