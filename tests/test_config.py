import dataclasses
import json
import re
from pathlib import Path

import pytest

import kp5.config

from kp5 import GaussianData, KPSign, ModeSumData, RandomShellData, load_config, parse_config
from kp5.errors import ConfigError


def _minimal():
    return {
        "grid": {"nx": 16, "ny": 16, "lx": 6.283185307179586, "ly": 6.283185307179586},
        "solver": {"dt": 1e-3, "t_final": 1e-2},
    }


def test_minimal_document_defaults():
    cfg = parse_config(_minimal())
    assert cfg.grid.nx == 16
    assert cfg.dispersion.kp_sign is KPSign.KP1
    assert cfg.dispersion.alpha == 0.0
    assert cfg.solver.picard_max_iters == 25
    assert cfg.solver.quadrature_nodes == 2
    assert cfg.solver.cutoff_T == 0.5
    assert isinstance(cfg.initial_data, GaussianData)
    assert cfg.monitors == ()
    assert cfg.output_directory == "kp5-out"
    assert cfg.snapshot_stride == 0


def _documented_defaults():
    """The "defaults shown explicitly" JSON blocks of README.md and of the
    kp5.config docstring."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"Defaults shown\s+explicitly:\s+```json\n(.*?)```", readme, re.S)
    doc = re.search(r"code-block:: json\n(.*?)\n\S", kp5.config.__doc__, re.S)
    return {"README.md": block.group(1), "kp5.config": doc.group(1)}


@pytest.mark.parametrize("source", ["README.md", "kp5.config"])
def test_documented_defaults_are_the_parser_defaults(source):
    explicit = json.loads(_documented_defaults()[source])
    minimal = {"grid": explicit["grid"], "solver": {k: explicit["solver"][k] for k in ("dt", "t_final")}}
    parsed = dataclasses.replace(parse_config(explicit), raw={})
    assert parsed == dataclasses.replace(parse_config(minimal), raw={})


def test_unknown_keys_rejected_everywhere():
    doc = _minimal()
    doc["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(doc)

    doc = _minimal()
    doc["grid"]["color"] = "blue"
    with pytest.raises(ConfigError, match="color"):
        parse_config(doc)

    doc = _minimal()
    doc["solver"]["scheme"] = "magic"
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(doc)

    doc = _minimal()
    doc["initial_data"] = {"kind": "gaussian", "amplitude": 1.0, "sigma_x": 1.0, "sigma_y": 1.0, "skew": 2}
    with pytest.raises(ConfigError, match="skew"):
        parse_config(doc)


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="grid"):
        parse_config({"solver": {"dt": 1e-3, "t_final": 1e-2}})
    doc = _minimal()
    del doc["solver"]["dt"]
    with pytest.raises(ConfigError, match="dt"):
        parse_config(doc)


def test_initial_data_kinds():
    doc = _minimal()
    doc["initial_data"] = {"kind": "mode_sum", "modes": [[1, 0, 0.5, 0.0], [2, -1, 0.25, 1.0]]}
    cfg = parse_config(doc)
    assert isinstance(cfg.initial_data, ModeSumData)
    assert cfg.initial_data.modes == ((1, 0, 0.5, 0.0), (2, -1, 0.25, 1.0))

    doc["initial_data"] = {"kind": "random_shell", "shell": 3, "seed": 7}
    assert isinstance(parse_config(doc).initial_data, RandomShellData)

    doc["initial_data"] = {"kind": "warp", "factor": 9}
    with pytest.raises(ConfigError, match="warp"):
        parse_config(doc)

    doc["initial_data"] = {"kind": "mode_sum", "modes": [[0.5, 0, 1, 0]]}
    with pytest.raises(ConfigError, match="integers"):
        parse_config(doc)


def test_monitor_parsing():
    doc = _minimal()
    doc["monitors"] = [[1, 0], [2, 2]]
    cfg = parse_config(doc)
    assert [m.label for m in cfg.monitors] == ["h_1_0", "h_2_2"]
    doc["monitors"] = [[-1, 0]]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_bad_values_surface_as_config_errors():
    doc = _minimal()
    doc["grid"]["nx"] = 15
    with pytest.raises(ConfigError):
        parse_config(doc)

    doc = _minimal()
    doc["solver"]["cutoff_T"] = 1.5
    with pytest.raises(ConfigError):
        parse_config(doc)

    doc = _minimal()
    doc["dispersion"] = {"kp_sign": "kp3"}
    with pytest.raises(ConfigError, match="kp3"):
        parse_config(doc)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_minimal()))
    assert load_config(good).grid.nx == 16


def test_raw_document_round_trips_for_hashing():
    doc = _minimal()
    cfg = parse_config(doc)
    assert cfg.raw == doc
    assert json.loads(json.dumps(cfg.raw)) == doc


def test_numbers_reject_booleans():
    doc = _minimal()
    doc["solver"]["dt"] = True
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("key", ["quadrature_nodes", "picard_max_iters"])
@pytest.mark.parametrize("value", [2.7, 3.5, float("inf"), float("-inf")])
def test_solver_counts_reject_fractional_and_non_finite_values(key, value):
    doc = _minimal()
    doc["solver"][key] = value
    with pytest.raises(ConfigError, match=key):
        parse_config(doc)


def test_solver_counts_accept_integral_floats():
    doc = _minimal()
    doc["solver"].update(quadrature_nodes=3.0, picard_max_iters=7.0)
    solver = parse_config(doc).solver
    assert (solver.quadrature_nodes, solver.picard_max_iters) == (3, 7)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize(
    "section, entry",
    [
        ("initial_data", lambda v: {"kind": "random_shell", "shell": v, "seed": 1}),
        ("initial_data", lambda v: {"kind": "random_shell", "shell": 1, "seed": v}),
        ("initial_data", lambda v: {"kind": "mode_sum", "modes": [[v, 0, 1.0, 0.0]]}),
        ("output", lambda v: {"snapshot_stride": v}),
        ("grid", lambda v: {"nx": v, "ny": 16, "lx": 6.283185307179586, "ly": 6.283185307179586}),
    ],
    ids=["shell", "seed", "mode", "snapshot_stride", "grid"],
)
def test_integer_fields_reject_non_finite_values(section, entry, value):
    doc = _minimal()
    doc[section] = entry(value)
    with pytest.raises(ConfigError, match=section):
        parse_config(doc)


def _full(kind):
    """A valid document that carries every numeric field of one initial-data kind."""
    doc = _minimal()
    doc["dispersion"] = {"alpha": 0.5}
    doc["solver"].update(picard_max_iters=25, picard_tol=1e-10, quadrature_nodes=2, cutoff_T=0.5)
    doc["initial_data"] = {
        "gaussian": {"kind": "gaussian", "amplitude": 0.1, "sigma_x": 1.0, "sigma_y": 1.0, "center": [1.0, 2.0]},
        "mode_sum": {"kind": "mode_sum", "modes": [[1, 0, 0.5, 0.0]]},
        "random_shell": {"kind": "random_shell", "shell": 3, "seed": 7},
    }[kind]
    doc["monitors"] = [[1, 0]]
    doc["output"] = {"snapshot_stride": 2}
    return doc


def _set(doc, path, value):
    """Assign ``value`` at a JSON path such as ``initial_data.modes[0][2]``."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


_NUMERIC_FIELDS = [
    *(("gaussian", f"grid.{k}") for k in ("nx", "ny", "lx", "ly")),
    ("gaussian", "dispersion.alpha"),
    *(
        ("gaussian", f"solver.{k}")
        for k in ("dt", "t_final", "picard_max_iters", "picard_tol", "quadrature_nodes", "cutoff_T")
    ),
    *(("gaussian", f"initial_data.{k}") for k in ("amplitude", "sigma_x", "sigma_y")),
    ("gaussian", "initial_data.center[0]"),
    ("gaussian", "initial_data.center[1]"),
    *(("mode_sum", f"initial_data.modes[0][{i}]") for i in range(4)),
    ("random_shell", "initial_data.shell"),
    ("random_shell", "initial_data.seed"),
    ("gaussian", "monitors[0][0]"),
    ("gaussian", "monitors[0][1]"),
    ("gaussian", "output.snapshot_stride"),
]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), "1", None, True])
@pytest.mark.parametrize("kind, path", _NUMERIC_FIELDS, ids=[p for _, p in _NUMERIC_FIELDS])
def test_every_number_rejects_non_numbers_and_non_finite_values(kind, path, bad):
    assert parse_config(_full(kind))  # the table's documents are valid as they stand
    doc = _full(kind)
    _set(doc, path, bad)
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    message = str(info.value)
    assert message.startswith(f"{path}: "), message


def test_valid_numbers_keep_their_int_and_float_types():
    doc = _full("gaussian")
    doc["grid"].update(nx=16.0, ny=16.0, lx=6, ly=7)
    doc["dispersion"]["alpha"] = 2
    doc["solver"].update(dt=1, t_final=2, picard_max_iters=3.0, picard_tol=1, quadrature_nodes=4.0)
    doc["initial_data"].update(amplitude=1, sigma_x=2, sigma_y=3, center=[1, 2])
    doc["monitors"] = [[1, 2]]
    doc["output"]["snapshot_stride"] = 5.0
    cfg = parse_config(doc)
    solver, data = cfg.solver, cfg.initial_data
    counts = [cfg.grid.nx, cfg.grid.ny, solver.picard_max_iters, solver.quadrature_nodes, cfg.snapshot_stride]
    reals = [cfg.grid.lx, cfg.grid.ly, cfg.dispersion.alpha, solver.dt, solver.t_final, solver.picard_tol]
    reals += [data.amplitude, data.sigma_x, data.sigma_y, *data.center, cfg.monitors[0].s1, cfg.monitors[0].s2]
    assert [type(v) for v in counts] == [int] * 5 and counts == [16, 16, 3, 4, 5]
    assert [type(v) for v in reals] == [float] * 13 and reals == [6, 7, 2, 1, 2, 1, 1, 2, 3, 1, 2, 1, 2]

    doc = _full("mode_sum")
    doc["initial_data"]["modes"] = [[1.0, -2.0, 1, 0]]
    modes = parse_config(doc).initial_data.modes
    assert modes == ((1, -2, 1.0, 0.0),) and [type(v) for v in modes[0]] == [int, int, float, float]

    doc = _full("random_shell")
    doc["initial_data"].update(shell=3.0, seed=2**70)
    shell = parse_config(doc).initial_data
    assert (shell.shell, shell.seed) == (3, 2**70) and type(shell.shell) is int


@pytest.mark.parametrize(
    "path, value, fragment",
    [
        ("initial_data.modes[0][0]", 1.5, "only integers"),
        ("initial_data.shell", -1, "nonnegative"),
        ("initial_data.seed", -1, "nonnegative"),
        ("output.snapshot_stride", -2.0, "nonnegative"),
        ("grid.lx", 10**400, "finite"),
    ],
)
def test_integral_sign_and_range_rules_name_the_field(path, value, fragment):
    doc = _full("random_shell" if path.startswith("initial_data.s") else "mode_sum")
    _set(doc, path, value)
    with pytest.raises(ConfigError, match=re.escape(path) + ": .*" + fragment):
        parse_config(doc)


@pytest.mark.parametrize(
    "path, value, message",
    [
        ("initial_data.sigma_x", 0, "initial_data: sigma_x must be positive"),
        ("initial_data.sigma_y", -1.0, "initial_data: sigma_y must be positive"),
        ("grid.nx", 15, "grid: nx must be even"),
        ("solver.dt", 0.5, "solver: dt must not exceed t_final"),
        ("solver.dt", 0.004, "solver: t_final must be a whole number of steps dt"),
        ("solver.dt", 5e-324, "solver: t_final must be a whole number of steps dt"),
        ("monitors[0][1]", -1, "monitors[0]: Sobolev indices must be nonnegative"),
    ],
)
def test_constructor_errors_are_prefixed_with_their_section(path, value, message):
    doc = _full("gaussian")
    _set(doc, path, value)
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value).startswith(message)


def test_a_string_number_is_reported_once():
    doc = _minimal()
    doc["solver"]["dt"] = "0.01"
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == "solver.dt: expected a number, got '0.01'"
