import dataclasses
import math
import re
from pathlib import Path
from typing import get_type_hints

import pytest
import yaml

from wsriccati import config as config_mod
from wsriccati.cli import main
from wsriccati.config import RunConfig, design_fingerprint, load_config, parse_config
from wsriccati.errors import ConfigurationError
from wsriccati.riccati import SolverOptions

from test_cli import base_config, write_config

EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"

SECTIONS = {k: v for k, v in get_type_hints(RunConfig).items() if k != "output_dir"}

#: Every field of every section set to a valid value that is not its default.
NON_DEFAULT = {
    "system": {
        "n": 2,
        "m": 1,
        "mean_a": [[0.9, 0.0], [0.1, 1.0]],
        "mean_b": [[0.01], [0.02]],
        "family_a": "laplace",
        "family_b": "normal",
        "stddev_a": [[0.01, 0.02], [0.03, 0.04]],
        "stddev_b": [[0.001], [0.002]],
        "stddev_scale": 0.2,
    },
    "cost": {"q": [[2.0, 0.5], [0.5, 1.0]], "r": [[0.5]]},
    "weight": {
        "family": "RSL",
        "theta": 0.002,
        "alpha": 2.0,
        "beta": 3.0,
        "sigma": [[2.0, 0.0], [0.0, 1.0]],
    },
    "solver": {
        "method": "newton-continuation",
        "bank_size": 123,
        "seed": 5,
        "fp_tol": 1.0e-9,
        "fp_max_iters": 77,
        "residual_tol": 1.0e-7,
        "newton_tol": 1.0e-8,
        "newton_max_iters": 9,
        "continuation": [0.001, 0.002],
        "trace": True,
        "dump_weights": True,
    },
    "task": {
        "x0": [1.0, 2.0],
        "horizon": 40,
        "trials": 50,
        "rho_list": [5.0, 25.0],
        "theta_grid": [0.0, 0.001],
        "repetitions": 3,
        "robustness_bank_size": 60,
        "trajectory_count": 2,
        "seed": 9,
        "gain": [[4.0, 3.5]],
        "solution": "elsewhere/solution.csv",
    },
    "output_dir": "elsewhere",
}


def parse_with(section, **values):
    data = base_config("out")
    data[section] = {**data[section], **values}
    return parse_config(data)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("task", "rho_list", "15"),
        ("task", "theta_grid", "0.5"),
        ("solver", "continuation", "01"),
    ],
)
def test_float_list_rejects_string(section, key, value):
    message = f"{section}.{key}: cannot interpret '{value}' as a list of floats"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        parse_with(section, **{key: value})


@pytest.mark.parametrize(
    "section, key, value, bad",
    [
        ("task", "theta_grid", [math.nan, 1.0], 0),
        ("task", "rho_list", [1.0, math.inf], 1),
        ("solver", "continuation", [0.5, -math.inf], 1),
    ],
)
def test_float_list_rejects_non_finite_entry(section, key, value, bad):
    pattern = re.escape(f"{section}.{key}[{bad}]: cannot interpret {value[bad]!r} as float")
    with pytest.raises(ConfigurationError, match=pattern):
        parse_with(section, **{key: value})


def test_non_finite_sweep_grid_fails_before_output(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out, task={"theta_grid": [math.nan, 1.0]}))
    assert main(["sweep", str(cfg)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("solver", "bank_size", 2.5, "solver.bank_size: cannot interpret 2.5 as int"),
        ("solver", "seed", True, "solver.seed: cannot interpret True as int"),
        ("solver", "fp_max_iters", math.inf, "solver.fp_max_iters: cannot interpret inf as int"),
        ("solver", "fp_tol", "tight", "solver.fp_tol: cannot interpret 'tight' as float"),
        ("solver", "trace", "yes", "solver.trace: cannot interpret 'yes' as bool"),
        ("weight", "family", 3, "weight.family: cannot interpret 3 as str"),
        ("task", "x0", None, "task.x0: cannot interpret None as list"),
        ("weight", "theta", True, "weight.theta: cannot interpret True as float"),
        ("task", "theta_grid", [True, 1.0], "task.theta_grid[0]: cannot interpret True as float"),
    ],
)
def test_coercion_error_names_the_kind(section, key, value, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        parse_with(section, **{key: value})


@pytest.mark.parametrize(
    "task",
    [
        {"gain": [[4.0, 3.5, 1.0]]},
        {"gain": [[math.nan, 3.5]]},
        {"gain": [["fast", 3.5]]},
        {"gain": [[4.0, 3.5]], "x0": [1.0, 1.0, 1.0]},
        {"gain": [[4.0, 3.5]], "x0": [1.0, math.inf]},
    ],
)
@pytest.mark.parametrize("command", ["stability", "simulate"])
def test_task_gain_and_x0_validated_before_output(tmp_path, caplog, command, task):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out, task={"x0": [1.0, 1.0], **task}))
    assert main([command, str(cfg)]) == 1
    assert "configuration error: task." in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "command, task, message",
    [
        ("simulate", {"gain": [[4.0, 3.5]]}, "task.x0 is required for simulate"),
        ("simulate", {"x0": [1.0, 1.0]}, "task.solution or task.gain is required"),
        ("stability", {}, "task.solution or task.gain is required"),
        ("sweep", {}, "task.theta_grid is required for sweep"),
    ],
)
def test_missing_task_input_exits_one_before_output(tmp_path, caplog, command, task, message):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out, task=task))
    assert main([command, str(cfg)]) == 1
    assert f"configuration error: {message}" in caplog.text
    assert not out.exists()


def test_every_field_appears_in_example_config():
    keys: dict[str, set[str]] = {}
    section = None
    for line in EXAMPLE.read_text().splitlines():
        top = re.match(r"(\w+):", line)
        if top:
            section = top.group(1)
            keys.setdefault(section, set())
        nested = re.match(r"\s+#?\s*(\w+):", line)
        if nested and section is not None:
            keys[section].add(nested.group(1))
    assert "output_dir" in keys
    for name, cls in SECTIONS.items():
        missing = {f.name for f in dataclasses.fields(cls)} - keys.get(name, set())
        assert not missing, f"{name}: fields absent from {EXAMPLE.name}: {sorted(missing)}"


def test_non_default_values_parse_back(tmp_path):
    path = tmp_path / "all.yaml"
    path.write_text(yaml.safe_dump(NON_DEFAULT))
    config = load_config(path)
    assert config.output_dir == NON_DEFAULT["output_dir"]
    for name, cls in SECTIONS.items():
        section = getattr(config, name)
        assert set(NON_DEFAULT[name]) == {f.name for f in dataclasses.fields(cls)}
        for f in dataclasses.fields(cls):
            got = getattr(section, f.name)
            assert got != f.default, f"{name}.{f.name} is set to its default"
            if isinstance(got, tuple):
                got = list(got)
            assert got == NON_DEFAULT[name][f.name], f"{name}.{f.name}"


def test_example_fingerprint_is_stable():
    assert design_fingerprint(load_config(EXAMPLE)) == (
        "8b177dc8a274536e8055c23043e93b87b5ee4819a94ea37782cb4682adddd2a4"
    )


#: design_fingerprint of NON_DEFAULT, which sets every solver key, under each
#: method; taken when SolverConfig declared all of its fields itself.
SOLVER_FINGERPRINTS = {
    "fixed-point": "a6c0dfa4d632ab6331208ae369b23471d68f4467be821422d376b44f5232b23e",
    "newton": "fbedfdbaf414309d4717528b6247343f291aeb4dadc27e677f40b9609d56bfb4",
    "newton-continuation": "4423cdbf4e1c1a0101008536a49ef1fb8b361f0fee3e85c6ec0e71f7998e7aec",
}


@pytest.mark.parametrize("method", sorted(SOLVER_FINGERPRINTS))
def test_fingerprint_of_every_solver_key_is_pinned(method):
    data = {**NON_DEFAULT, "solver": {**NON_DEFAULT["solver"], "method": method}}
    assert design_fingerprint(parse_config(data)) == SOLVER_FINGERPRINTS[method]


ONE_STATE = {"n": 1, "m": 1, "mean_a": [[0.9]], "mean_b": [[0.1]]}


@pytest.mark.parametrize(
    "system, sigma, want",
    [
        (ONE_STATE, 2.0, [[2.0]]),
        (ONE_STATE, [2.0], [[2.0]]),
        ({}, [1.0, 0.0, 0.0, 2.0], [[1.0, 0.0], [0.0, 2.0]]),
    ],
)
def test_weight_sigma_reads_flat_entries_as_cost_q_does(system, sigma, want):
    # n x n entries, nested or flat, read in row-major order; a scalar at n = 1.
    data = base_config("out", system=system, weight={"sigma": sigma})
    if system:
        data["cost"] = {"q": [[1.0]], "r": [[1.0]]}
    spec = config_mod.make_weight_spec(parse_config(data))
    assert spec.sigma.tolist() == want


@pytest.mark.parametrize(
    "command, section, values, message",
    [
        ("simulate", "task", {"horizon": -3}, "task.horizon must be >= 0"),
        ("simulate", "task", {"trials": 0}, "task.trials must be >= 1"),
        ("simulate", "task", {"rho_list": [5.0, 0.0]}, "task.rho_list[1]: 0.0 outside (0, 100]"),
        ("simulate", "task", {"rho_list": [120.0]}, "task.rho_list[0]: 120.0 outside (0, 100]"),
        ("simulate", "task", {"rho_list": []}, "task.rho_list must not be empty"),
        ("sweep", "task", {"theta_grid": []}, "task.theta_grid must not be empty"),
        ("robustness", "task", {"repetitions": 1}, "task.repetitions must be >= 2"),
        ("robustness", "task", {"robustness_bank_size": 0}, "task.robustness_bank_size must be >= 1"),
        ("design", "weight", {"sigma": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, "weight: sigma has shape (3, 3)"),
        ("design", "weight", {"sigma": "diagonal"}, "weight: could not convert"),
        ("design", "cost", {"q": [[1.0, 0.0], [0.0, -1.0]]}, "cost.q: must be positive definite"),
        ("simulate", "cost", {"r": [[0.0]]}, "cost.r: must be positive definite"),
        ("simulate", "cost", {"q": [[3.0, 1.0], [0.0, 3.0]]}, "cost.q is not symmetric"),
        ("design", "solver", {"fp_tol": 0}, "solver.fp_tol must be > 0"),
        ("design", "solver", {"residual_tol": -1}, "solver.residual_tol must be > 0"),
        ("design", "solver", {"newton_tol": 0}, "solver.newton_tol must be > 0"),
        ("design", "solver", {"fp_max_iters": 0}, "solver.fp_max_iters must be > 0"),
        ("design", "solver", {"newton_max_iters": -5}, "solver.newton_max_iters must be > 0"),
        ("design", "solver", {"seed": -1}, "solver.seed must be >= 0"),
        ("design", "solver", {"method": "gradient-descent"}, "solver.method: unknown method 'gradient-descent'"),
        ("design", "solver", {"continuation": []}, "solver.continuation must not be empty"),
        ("simulate", "task", {"seed": -1}, "task.seed must be >= 0"),
        ("robustness", "task", {"seed": -7}, "task.seed must be >= 0"),
        ("simulate", "task", {"trajectory_count": -1}, "task.trajectory_count must be >= 0"),
    ],
)
def test_range_errors_exit_one_before_output(tmp_path, caplog, command, section, values, message):
    out = tmp_path / "out"
    task = {"gain": [[4.0, 3.5]], "x0": [1.0, 1.0], "trials": 5, "horizon": 3}
    config = base_config(out, task=task)
    config[section] = {**config[section], **values}
    cfg = write_config(tmp_path, config)
    assert main([command, str(cfg)]) == 1
    assert f"configuration error: {message}" in caplog.text
    assert not out.exists()
    # API callers get the same check when they build the options.
    if section == "solver" and set(values) <= {f.name for f in dataclasses.fields(SolverOptions)}:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            SolverOptions(**values)


@pytest.mark.parametrize(
    "command, message",
    [
        ("design", "solver.seed must be >= 0"),
        ("simulate", "task.seed must be >= 0"),
        ("robustness", "task.seed must be >= 0"),
    ],
)
def test_negative_seed_override_exits_one_before_output(tmp_path, caplog, command, message):
    out = tmp_path / "out"
    task = {"gain": [[4.0, 3.5]], "x0": [1.0, 1.0], "trials": 5, "horizon": 3}
    cfg = write_config(tmp_path, base_config(out, task=task))
    assert main([command, str(cfg), "--seed", "-1"]) == 1
    assert f"configuration error: {message}" in caplog.text
    assert not out.exists()


#: The two safe loaders ``load_config`` may pick; the C one needs libyaml.
LOADERS = [
    pytest.param(yaml.SafeLoader, id="python"),
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        id="libyaml",
        marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml"),
    ),
]


def test_loader_is_chosen_from_the_install():
    want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert config_mod._YAML_LOADER is want


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
@pytest.mark.parametrize("source", ["example", "non-default"])
def test_both_loaders_build_the_same_data(source):
    text = EXAMPLE.read_text() if source == "example" else yaml.safe_dump(NON_DEFAULT)
    python = yaml.load(text, Loader=yaml.SafeLoader)
    assert yaml.load(text, Loader=yaml.CSafeLoader) == python
    if source == "non-default":
        assert python == NON_DEFAULT


@pytest.mark.parametrize("loader", LOADERS)
def test_each_loader_parses_configs_and_rejects_malformed_yaml(
    tmp_path, monkeypatch, caplog, loader
):
    monkeypatch.setattr(config_mod, "_YAML_LOADER", loader)
    assert design_fingerprint(load_config(EXAMPLE)) == design_fingerprint(
        parse_config(yaml.safe_load(EXAMPLE.read_text()))
    )
    path = tmp_path / "bad.yaml"
    path.write_text("system: [1, 2\ncost: {q: 1\n")
    with pytest.raises(ConfigurationError, match="invalid YAML"):
        load_config(path)
    out = tmp_path / "out"
    assert main(["design", str(path), "--output-dir", str(out)]) == 1
    assert "invalid YAML" in caplog.text
    assert not out.exists()
