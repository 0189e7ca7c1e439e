import dataclasses
import json
import re
from pathlib import Path

import pytest

import kp5.config

from kp5 import GaussianData, KPSign, ModeSumData, RandomShellData, ZeroModePolicy, load_config, parse_config
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
    assert cfg.dispersion.zero_mode is ZeroModePolicy.PROJECT_OUT
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
