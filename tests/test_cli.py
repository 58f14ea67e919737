import csv
import hashlib
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import wsriccati as ws
from wsriccati import cli
from wsriccati.cli import main

from conftest import MEAN_A, MEAN_B, Q2, R1


def base_config(out_dir, **overrides):
    config = {
        "system": {
            "n": 2,
            "m": 1,
            "mean_a": MEAN_A,
            "mean_b": MEAN_B,
            "family_a": "normal",
            "family_b": "laplace",
            "stddev_scale": 0.1,
        },
        "cost": {"q": [[3.0, 0.0], [0.0, 3.0]], "r": [[1.0]]},
        "weight": {"family": "RRSL", "theta": 1.0, "alpha": 10.0, "beta": 11.0},
        "solver": {"method": "fixed-point", "bank_size": 600, "seed": 11},
        "task": {},
        "output_dir": str(out_dir),
    }
    for key, value in overrides.items():
        config[key] = {**config.get(key, {}), **value} if isinstance(value, dict) else value
    return config


def write_config(tmp_path, config, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(config))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_design_writes_solution(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out))
    assert main(["design", str(cfg)]) == 0
    rows = read_rows(out / "solution.csv")
    assert len(rows) == 1
    record = rows[0]
    assert record["method"] == "fixed-point"
    assert record["weight_family"] == "RRSL"
    assert len(record["config_fingerprint"]) == 64
    # matches a direct library solve on the same configuration
    dist = ws.build_distribution(
        2, 1, MEAN_A, MEAN_B, family_a="normal", family_b="laplace", stddev_scale=0.1
    )
    bank = ws.draw_bank(dist, 600, seed=11)
    spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    sol = ws.fixed_point_solve(ws.DesignProblem(bank=bank, q=Q2, r=R1, weights=spec))
    assert float(record["pi_1_1"]) == sol.value[0, 0]
    assert float(record["l_1_2"]) == sol.gain[0, 1]


def test_verbosity_applies_on_every_call(tmp_path, caplog):
    # Under pytest the root logger already has handlers, so logging.basicConfig
    # sets no level: each call has to set the package logger's own.
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out))
    wrote = ("wsriccati", logging.INFO, f"wrote {out / 'solution.csv'}")
    for flags, lowest in [
        ([], logging.WARNING),
        (["-v"], logging.INFO),
        (["-vv"], logging.DEBUG),
        ([], logging.WARNING),
    ]:
        caplog.clear()
        assert main(["design", str(cfg), *flags]) == 0
        assert min((r.levelno for r in caplog.records), default=logging.WARNING) == lowest
        assert (wrote in caplog.record_tuples) == (lowest < logging.WARNING)


def test_design_zero_sensitivity_matches_unweighted_solution(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, base_config(out, weight={"family": "RN"})
    )
    assert main(["design", str(cfg)]) == 0
    record = read_rows(out / "solution.csv")[0]
    dist = ws.build_distribution(
        2, 1, MEAN_A, MEAN_B, family_a="normal", family_b="laplace", stddev_scale=0.1
    )
    bank = ws.draw_bank(dist, 600, seed=11)
    sol = ws.fixed_point_solve(
        ws.DesignProblem(bank=bank, q=Q2, r=R1, weights=ws.WeightSpec(family="RN"))
    )
    assert float(record["pi_2_1"]) == sol.value[1, 0]
    assert float(record["l_1_1"]) == sol.gain[0, 0]


def test_design_trace_and_weights(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, base_config(out, solver={"method": "fixed-point", "bank_size": 300,
                                           "seed": 3, "trace": True,
                                           "dump_weights": True, "fp_tol": 1e-8}),
    )
    assert main(["design", str(cfg)]) == 0
    trace = read_rows(out / "trace.csv")
    solution = read_rows(out / "solution.csv")[0]
    assert len(trace) == int(solution["iterations"]) + 1
    assert trace[0]["s"] == "0"
    assert float(trace[-1]["delta"]) < 1e-8
    assert float(trace[-1]["residual"]) < 1e-6
    weights = read_rows(out / "weights.csv")
    assert len(weights) == 300
    mean_weight = np.mean([float(r["weight"]) for r in weights])
    assert abs(mean_weight - 1.0) <= 1e-9


def test_malformed_config_exits_one_without_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_dict = base_config(out)
    cfg_dict["system"]["stddev_scale"] = -0.5
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["design", str(cfg)]) == 1
    assert not out.exists()


def test_unknown_config_field_rejected(tmp_path):
    out = tmp_path / "out"
    cfg_dict = base_config(out)
    cfg_dict["solver"]["bank_siz"] = 4  # typo must be reported, not ignored
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["design", str(cfg)]) == 1


def test_invalid_yaml_exits_one(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("system: [unbalanced\n")
    assert main(["design", str(path)]) == 1


def test_missing_config_exits_three(tmp_path):
    assert main(["design", str(tmp_path / "nope.yaml")]) == 3


@pytest.mark.parametrize(
    "argv",
    [["design"], ["design", "configs/example.yaml", "--seed", "abc"], ["bogus"]],
    ids=["no-config", "bad-seed", "unknown-command"],
)
def test_command_line_error_exits_one(argv, capsys):
    # Exit code 2 is a solver error; a bad command line is a configuration error.
    assert main(argv) == 1
    assert "usage: wsriccati" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["-h"]) == 0
    assert "usage: wsriccati" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, section", [("design", "solver"), ("simulate", "task"), ("robustness", "task")]
)
def test_seed_override_sets_the_commands_seed(tmp_path, monkeypatch, command, section):
    seen = []
    monkeypatch.setattr(cli, "_require_task_inputs", lambda command, config: None)
    monkeypatch.setitem(cli._COMMANDS, command, lambda config: seen.append(config) or {})
    cfg = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main([command, str(cfg), "--seed", "99"]) == 0
    other = "task" if section == "solver" else "solver"
    assert getattr(seen[0], section).seed == 99
    assert getattr(seen[0], other).seed != 99


def test_solver_failure_exits_two(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_config(out, solver={"method": "fixed-point", "bank_size": 200,
                                 "seed": 3, "fp_max_iters": 4}),
    )
    assert main(["design", str(cfg)]) == 2
    assert not (out / "solution.csv").exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("design", {"solver": {"fp_max_iters": 3}}),
        ("robustness", {"solver": {"fp_max_iters": 3},
                        "task": {"repetitions": 2, "robustness_bank_size": 100}}),
    ],
)
def test_solver_failure_leaves_no_output_directory(tmp_path, command, overrides):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out, **overrides))
    assert main([command, str(cfg)]) == 2
    assert not out.exists()


def test_failure_after_the_first_table_writes_nothing(tmp_path, monkeypatch):
    # The solution and its trace are computed before the weights fail.
    def fail(*args, **kwargs):
        raise ws.NumericalError("injected weight failure")

    monkeypatch.setattr("wsriccati.cli.build_weighted_bank", fail)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, base_config(out, solver={"trace": True, "dump_weights": True})
    )
    assert main(["design", str(cfg)]) == 2
    assert not out.exists()


def _fail_on_second_table(monkeypatch) -> list:
    """Make cli._write_csv raise OSError on its second call; returns its paths."""
    paths = []
    write_csv = cli._write_csv

    def write(path, header, rows):
        paths.append(path)
        if len(paths) == 2:
            raise OSError(28, "No space left on device")
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", write)
    return paths


def test_io_error_while_writing_leaves_the_existing_files_alone(tmp_path, monkeypatch, caplog):
    # simulate reads its gain from a solution.csv in its own output directory.
    out = tmp_path / "out"
    task = {"solution": str(out / "solution.csv"), "x0": [1.0, 1.0], "horizon": 10,
            "trials": 20, "trajectory_count": 1}
    cfg = write_config(tmp_path, base_config(out, task=task))
    assert main(["design", str(cfg)]) == 0
    solution = (out / "solution.csv").read_bytes()
    paths = _fail_on_second_table(monkeypatch)
    assert main(["simulate", str(cfg)]) == 3
    assert "i/o error" in caplog.text and "No space left on device" in caplog.text
    assert len(paths) == 2 and all(path.parent == out for path in paths)
    assert [p.name for p in out.iterdir()] == ["solution.csv"]
    assert (out / "solution.csv").read_bytes() == solution


def test_io_error_while_writing_removes_the_directories_it_made(tmp_path, monkeypatch):
    out = tmp_path / "new" / "out"
    cfg = write_config(tmp_path, base_config(out, solver={"trace": True}))
    _fail_on_second_table(monkeypatch)
    assert main(["design", str(cfg)]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]


def test_sweep_rows_and_error_isolation(tmp_path):
    out = tmp_path / "out"
    cfg_dict = base_config(
        out,
        weight={"family": "RSL", "theta": 0.0},
        task={"theta_grid": [0.0, 50.0]},
    )
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["sweep", str(cfg)]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [row["theta"] for row in rows] == ["0.0", "50.0"]
    assert rows[0]["status"] == "ok"
    assert float(rows[0]["rho_plain"]) < 1.0
    assert rows[0]["ms_stable"] == "true"
    assert rows[0]["wms_stable"] == "true"
    # overflow at theta=50 is recorded in the row and does not abort the run
    assert rows[1]["status"] == "error"
    assert "overflow" in rows[1]["error"]
    assert rows[1]["rho_plain"] == ""


def test_sweep_single_point_matches_design_and_stability(tmp_path):
    out_sweep = tmp_path / "sweep"
    cfg_sweep = write_config(
        tmp_path,
        base_config(out_sweep, weight={"family": "RRSL", "theta": 0.5,
                                       "alpha": 10.0, "beta": 11.0},
                    task={"theta_grid": [0.5]}),
        name="sweep.yaml",
    )
    assert main(["sweep", str(cfg_sweep)]) == 0
    sweep_row = read_rows(out_sweep / "sweep.csv")[0]

    out_design = tmp_path / "design"
    cfg_design = write_config(
        tmp_path,
        base_config(out_design, weight={"family": "RRSL", "theta": 0.5,
                                        "alpha": 10.0, "beta": 11.0}),
        name="design.yaml",
    )
    assert main(["design", str(cfg_design)]) == 0

    out_stab = tmp_path / "stab"
    cfg_stab_dict = base_config(
        out_stab,
        weight={"family": "RRSL", "theta": 0.5, "alpha": 10.0, "beta": 11.0},
        task={"solution": str(out_design / "solution.csv")},
    )
    cfg_stab = write_config(tmp_path, cfg_stab_dict, name="stab.yaml")
    assert main(["stability", str(cfg_stab)]) == 0
    stab_row = read_rows(out_stab / "stability.csv")[0]

    assert float(stab_row["rho_plain"]) == float(sweep_row["rho_plain"])
    assert float(stab_row["rho_weighted"]) == float(sweep_row["rho_weighted"])


#: sha256 of stability.csv from the inline gain below, whose theta and
#: weighted columns are empty.
INLINE_STABILITY_PINNED = "9ae013301b9bfaed5669208f652c1b9d11d4cd467d6f671eb2597fa7bf7ef347"


@pytest.mark.parametrize("method", ["fixed-point", "newton-continuation"])
def test_sweep_rejects_a_continuation_grid_before_drawing(tmp_path, caplog, monkeypatch, method):
    monkeypatch.setattr(ws.config, "make_bank", lambda config: pytest.fail("bank drawn"))
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_config(
            out,
            solver={"method": method, "continuation": [0.5, 1.0]},
            task={"theta_grid": [0.0, 1.0]},
        ),
    )
    assert main(["sweep", str(cfg)]) == 1
    assert "configuration error: solver.continuation cannot be used with sweep" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "robustness"])
def test_continuation_grid_off_theta_is_rejected_before_drawing(
    tmp_path, caplog, monkeypatch, command
):
    def drawn(*args, **kwargs):
        pytest.fail("bank drawn")

    for module, name in [(ws.config, "make_bank"), (ws.config, "draw_bank"),
                         (ws.simulate, "draw_bank")]:
        monkeypatch.setattr(module, name, drawn)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_config(
            out,
            solver={"method": "newton-continuation", "continuation": [0.25, 0.5]},
            task={"repetitions": 2, "robustness_bank_size": 300},
        ),
    )
    assert main([command, str(cfg)]) == 1
    assert "configuration error: continuation grid must end at theta=1.0, got 0.5" in caplog.text
    assert not out.exists()


def test_continuation_grid_off_theta_does_not_stop_stability(tmp_path):
    # Only design and robustness solve; stability never runs the grid.
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_config(
            out,
            solver={"method": "newton-continuation", "continuation": [0.25, 0.5]},
            task={"gain": [[4.0, 3.5]]},
        ),
    )
    assert main(["stability", str(cfg)]) == 0
    assert (out / "stability.csv").exists()


def test_stability_with_inline_gain(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, base_config(out, task={"gain": [[4.0, 3.5]]})
    )
    assert main(["stability", str(cfg)]) == 0
    row = read_rows(out / "stability.csv")[0]
    assert row["theta"] == ""
    assert row["rho_weighted"] == ""
    assert float(row["rho_plain"]) > 0.0
    digest = hashlib.sha256((out / "stability.csv").read_bytes()).hexdigest()
    assert digest == INLINE_STABILITY_PINNED


def test_stability_of_a_gain_whose_closed_loop_overflows_exits_two(tmp_path, caplog):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out, task={"gain": [[1.0e300, 1.0e300]]}))
    assert main(["stability", str(cfg)]) == 2
    assert "solver error: closed-loop stability operator is not finite" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("index, radius", [(20, "1.2183"), (51, "1.2496")])
def test_design_past_the_rsl_fold_whose_gain_is_not_ms_stable_exits_two(
    tmp_path, caplog, index, radius
):
    # On these 2k banks the fixed-point route converges at RSL theta = 0.0025
    # to a root past the fold. Its weights sit on a few draws, on which the
    # gain is stable, while the closed loop diverges on the bank's own law.
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(
        out,
        weight={"family": "RSL", "theta": 0.0025},
        solver={"bank_size": 2000, "seed": ws.derive_seed(7, index), "fp_max_iters": 2000},
    ))
    assert main(["design", str(cfg)]) == 2
    assert "solver error: fixed-point solve: gain is not mean-square stable" in caplog.text
    assert f"(radius {radius})" in caplog.text
    assert not out.exists()


def test_stability_requires_gain_source(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out))
    assert main(["stability", str(cfg)]) == 1


def test_solution_fingerprint_mismatch_rejected(tmp_path):
    out_design = tmp_path / "design"
    cfg_design = write_config(
        tmp_path, base_config(out_design), name="design.yaml"
    )
    assert main(["design", str(cfg_design)]) == 0
    # different bank seed: the design blocks no longer match the artifact
    out_other = tmp_path / "other"
    cfg_dict = base_config(
        out_other,
        solver={"method": "fixed-point", "bank_size": 600, "seed": 999},
        task={"solution": str(out_design / "solution.csv")},
    )
    cfg = write_config(tmp_path, cfg_dict, name="other.yaml")
    assert main(["stability", str(cfg)]) == 1


def _analyse_solution(tmp_path, design_solver, analysis_solver):
    """Exit codes of ``stability`` and ``simulate`` on the solution of a design.

    Each ``*_solver`` is merged into the base config's solver block, of the
    design and of the analysis config respectively.
    """
    solver = {"method": "fixed-point", "bank_size": 600, "seed": 11}
    out_design = tmp_path / "design"
    cfg = base_config(out_design, solver={**solver, **design_solver})
    assert main(["design", str(write_config(tmp_path, cfg, name="design.yaml"))]) == 0
    task = {
        "solution": str(out_design / "solution.csv"), "x0": [1.0, 1.0], "trials": 5,
        "horizon": 3,
    }
    codes = []
    for command in ("stability", "simulate"):
        cfg = base_config(tmp_path / command, solver={**solver, **analysis_solver}, task=task)
        codes.append(main([command, str(write_config(tmp_path, cfg, name=f"{command}.yaml"))]))
    return codes


@pytest.mark.parametrize("design_on", [True, False])
def test_solution_fingerprint_ignores_trace_and_dump_weights(tmp_path, design_on):
    # The two switches choose output files, not the design.
    switches = {"trace": True, "dump_weights": True}
    off = {"trace": False, "dump_weights": False}
    design, analysis = (switches, off) if design_on else (off, switches)
    assert _analyse_solution(tmp_path, design, analysis) == [0, 0]


@pytest.mark.parametrize(
    "analysis_solver", [{"seed": 12}, {"method": "newton"}], ids=["seed", "method"]
)
def test_solution_of_another_design_is_still_rejected(tmp_path, caplog, analysis_solver):
    assert _analyse_solution(tmp_path, {"trace": True}, analysis_solver) == [1, 1]
    assert caplog.text.count("fingerprint mismatch") == 2


@pytest.mark.parametrize("command", ["stability", "simulate"])
def test_non_finite_solution_rejected(tmp_path, caplog, command):
    out_design = tmp_path / "design"
    cfg_design = write_config(tmp_path, base_config(out_design), name="design.yaml")
    assert main(["design", str(cfg_design)]) == 0
    path = out_design / "solution.csv"
    record = read_rows(path)[0]
    record["l_1_1"] = "nan"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(record))
        writer.writeheader()
        writer.writerow(record)
    # same design blocks, so the fingerprint still matches
    out = tmp_path / "out"
    task = {"solution": str(path), "x0": [1.0, 1.0], "trials": 5, "horizon": 3}
    cfg = write_config(tmp_path, base_config(out, task=task))
    assert main([command, str(cfg)]) == 1
    assert f"{path}: malformed solution file (l_1_1 is not finite)" in caplog.text
    assert not out.exists()


def test_simulate_single_trial_matches_rollout(tmp_path):
    out = tmp_path / "out"
    cfg_dict = base_config(
        out,
        task={"gain": [[4.0, 3.5]], "x0": [1.0, 1.0], "horizon": 25,
              "trials": 1, "rho_list": [100.0], "seed": 21,
              "trajectory_count": 1},
    )
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["simulate", str(cfg)]) == 0
    costs = read_rows(out / "costs.csv")
    assert len(costs) == 1
    dist = ws.build_distribution(
        2, 1, MEAN_A, MEAN_B, family_a="normal", family_b="laplace", stddev_scale=0.1
    )
    single = ws.rollout(
        dist, [[4.0, 3.5]], Q2, R1, [1.0, 1.0], 25, seed=ws.stream_rng(21, 0)
    )
    assert float(costs[0]["cost"]) == single.cost
    tail = read_rows(out / "tail.csv")
    assert float(tail[0]["worst_average"]) == single.cost
    traj = read_rows(out / "trajectories.csv")
    assert len(traj) == 26
    summary = read_rows(out / "summary.csv")[0]
    assert summary["trials"] == "1"
    assert summary["diverged"] == "0"


def test_simulate_requires_initial_state(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, base_config(out, task={"gain": [[4.0, 3.5]], "x0": None})
    )
    assert main(["simulate", str(cfg)]) == 1


def test_robustness_point_mass_zero_stddev(tmp_path):
    out = tmp_path / "out"
    cfg_dict = base_config(out)
    cfg_dict["system"]["family_a"] = "point"
    cfg_dict["system"]["family_b"] = "point"
    cfg_dict["system"]["stddev_scale"] = 0.0
    cfg_dict["weight"] = {"family": "RN"}
    cfg_dict["task"] = {"repetitions": 2, "robustness_bank_size": 4, "seed": 5}
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["robustness", str(cfg)]) == 0
    rows = read_rows(out / "robustness.csv")
    assert len(rows) == 2
    assert all(float(row["stddev"]) == 0.0 for row in rows)
    gains = read_rows(out / "gains.csv")
    assert len(gains) == 2
    assert all(row["status"] == "ok" for row in gains)


def test_sweep_runs_are_byte_identical(tmp_path):
    cfg_dict_a = base_config(
        tmp_path / "a",
        solver={"method": "fixed-point", "bank_size": 400, "seed": 17},
        task={"theta_grid": [0.0, 0.5, 1.0]},
    )
    cfg_dict_b = {**cfg_dict_a, "output_dir": str(tmp_path / "b")}
    cfg_a = write_config(tmp_path, cfg_dict_a, name="a.yaml")
    cfg_b = write_config(tmp_path, cfg_dict_b, name="b.yaml")
    assert main(["sweep", str(cfg_a)]) == 0
    assert main(["sweep", str(cfg_b)]) == 0
    bytes_a = (tmp_path / "a" / "sweep.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert bytes_a == bytes_b


def test_seed_override_changes_design(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg = write_config(tmp_path, base_config(out_a))
    assert main(["design", str(cfg)]) == 0
    assert main(["design", str(cfg), "--output-dir", str(out_b), "--seed", "99"]) == 0
    row_a = read_rows(out_a / "solution.csv")[0]
    row_b = read_rows(out_b / "solution.csv")[0]
    assert row_a["pi_1_1"] != row_b["pi_1_1"]
    assert row_a["config_fingerprint"] != row_b["config_fingerprint"]


def test_design_newton_methods_match_fixed_point(tmp_path):
    rows = {}
    for method, extra in [
        ("fixed-point", {}),
        ("newton", {}),
        ("newton-continuation", {"continuation": [0.5, 1.0]}),
    ]:
        out = tmp_path / method
        cfg = write_config(
            tmp_path,
            base_config(out, solver={"method": method, "bank_size": 400,
                                     "seed": 11, **extra}),
            name=f"{method}.yaml",
        )
        assert main(["design", str(cfg)]) == 0
        rows[method] = read_rows(out / "solution.csv")[0]
    for method in ("newton", "newton-continuation"):
        assert rows[method]["method"] == method
        for col in ("pi_1_1", "pi_2_1", "pi_2_2", "l_1_1", "l_1_2"):
            diff = abs(float(rows[method][col]) - float(rows["fixed-point"][col]))
            assert diff <= 1e-6, f"{method} {col} differs by {diff}"


def test_shipped_example_config_runs(tmp_path):
    from pathlib import Path

    example = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
    out = tmp_path / "out"
    assert main(["design", str(example), "--output-dir", str(out)]) == 0
    record = read_rows(out / "solution.csv")[0]
    assert record["weight_family"] == "RRSL"
    assert float(record["residual"]) < 1e-8
    # gains land in the expected region for the benchmark system
    assert 5.0 < float(record["l_1_1"]) < 9.0
    assert 5.0 < float(record["l_1_2"]) < 9.0


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out))
    proc = subprocess.run(
        [sys.executable, "-m", "wsriccati.cli", "design", str(cfg), "-v"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(ws.__file__).resolve().parent.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "solution.csv").exists()


def _point_mass_config(out, family, task):
    """Every draw is A = 2I, B = [1; 0]: the second state is unstable and uncontrollable."""
    return base_config(
        out,
        system={"mean_a": [[2.0, 0.0], [0.0, 2.0]], "mean_b": [[1.0], [0.0]],
                "family_a": "point", "family_b": "point", "stddev_scale": 0.0},
        weight={"family": family, "theta": 0.0},
        solver={"bank_size": 50},
        task=task,
    )


@pytest.mark.parametrize(
    "command, message",
    [
        ("design", "solver error: value map is not finite"),
        ("robustness", "needs >= 2 successful designs"),
    ],
)
def test_system_without_stabilizing_root_exits_two(tmp_path, caplog, command, message):
    out = tmp_path / "out"
    task = {"repetitions": 3, "robustness_bank_size": 50}
    cfg = write_config(tmp_path, _point_mass_config(out, "RN", task))
    assert main([command, str(cfg)]) == 2
    assert "solver error" in caplog.text
    assert message in caplog.text


def test_sweep_without_stabilizing_root_writes_an_error_row_per_theta(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, _point_mass_config(out, "RSL", {"theta_grid": [0.0, 0.5]}))
    assert main(["sweep", str(cfg)]) == 0
    rows = read_rows(out / "sweep.csv")
    assert [(row["theta"], row["status"]) for row in rows] == [("0.0", "error"), ("0.5", "error")]
    assert rows[0]["error"] == "value map is not finite"
    assert rows[1]["error"].startswith("RSL weight overflow: theta * J reaches ")
