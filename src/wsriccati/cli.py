"""Batch command-line front-end.

Subcommands: design, sweep, stability, simulate, robustness. Every run is
driven by one YAML configuration file; outputs are CSV files with a fixed
header row and full-precision floats. Exit codes: 0 success, 1
configuration error, 2 numerical/solver error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from .config import RunConfig, design_fingerprint, load_config
from .errors import ConfigurationError, NumericalError
from .matops import unvech, vec, vech
from .riccati import solve, solve_all
from .simulate import mc_cost_study, robustness_study
from .stability import ms_check, wms_check
from .weights import build_weighted_bank, save_weight_csv

log = logging.getLogger("wsriccati")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    # The output directory is made at the first write, so a run that fails
    # before it writes anything leaves no directory behind.
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    log.info("wrote %s", path)


def _vech_names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i + 1}_{j + 1}" for j in range(n) for i in range(j, n)]


def _vec_names(prefix: str, rows: int, cols: int) -> list[str]:
    return [f"{prefix}_{i + 1}_{j + 1}" for j in range(cols) for i in range(rows)]


def _solution_header(n: int, m: int) -> list[str]:
    return (
        ["n", "m", "weight_family", "theta", "method", "iterations", "residual",
         "config_fingerprint"]
        + _vech_names("pi", n)
        + _vec_names("l", m, n)
    )


def _write_solution(path: Path, config: RunConfig, solution) -> None:
    n, m = config.system.n, config.system.m
    row = (
        [n, m, config.weight.family, config.weight.theta, solution.method,
         solution.iterations, solution.residual, design_fingerprint(config)]
        + vech(solution.value).tolist()
        + vec(solution.gain).tolist()
    )
    _write_csv(path, _solution_header(n, m), [row])


def _load_solution(path: Path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            record = next(reader)
        except StopIteration:
            raise ConfigurationError(f"{path}: empty solution file")
    try:
        n, m = int(record["n"]), int(record["m"])
        names = _vech_names("pi", n) + _vec_names("l", m, n)
        entries = np.array([float(record[k]) for k in names])
        if not np.all(np.isfinite(entries)):
            raise ValueError(f"{names[np.argmax(~np.isfinite(entries))]} is not finite")
        head = n * (n + 1) // 2
        value = unvech(entries[:head], n)
        gain = entries[head:].reshape(m, n, order="F")
        return {
            "value": value,
            "gain": gain,
            "theta": float(record["theta"]),
            "fingerprint": record["config_fingerprint"],
        }
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"{path}: malformed solution file ({exc})") from exc


def _solver_options(config: RunConfig) -> dict:
    s = config.solver
    return {
        "fp_tol": s.fp_tol,
        "fp_max_iters": s.fp_max_iters,
        "residual_tol": s.residual_tol,
        "newton_tol": s.newton_tol,
        "newton_max_iters": s.newton_max_iters,
        "continuation": s.continuation,
    }


def _resolve_gain(config: RunConfig):
    """Gain for analysis commands: inline from the task block or a solution file."""
    task = config.task
    if task.solution is not None:
        record = _load_solution(Path(task.solution))
        expected = design_fingerprint(config)
        if record["fingerprint"] != expected:
            raise ConfigurationError(
                f"{task.solution}: solution was produced by a different design "
                f"configuration (fingerprint mismatch)"
            )
        return record
    gain, _ = config_mod._task_arrays(config)
    return {"gain": gain, "value": None, "theta": None}


def _require_task_inputs(command: str, task) -> None:
    """Reject a task block that lacks an input the command needs.

    :func:`main` calls this before the command runs.
    """
    if command == "sweep" and task.theta_grid is None:
        raise ConfigurationError("task.theta_grid is required for sweep")
    if command in ("stability", "simulate") and task.solution is None and task.gain is None:
        raise ConfigurationError("task.solution or task.gain is required")
    if command == "simulate" and task.x0 is None:
        raise ConfigurationError("task.x0 is required for simulate")


def cmd_design(config: RunConfig, out_dir: Path) -> int:
    bank = config_mod.make_bank(config)
    problem = config_mod.make_problem(config, bank)
    solution = solve(
        problem,
        method=config.solver.method,
        record_trace=config.solver.trace,
        **_solver_options(config),
    )
    _write_solution(out_dir / "solution.csv", config, solution)
    if config.solver.trace and solution.trace is None:
        log.warning("trace requested but method %r records none", solution.method)
    if config.solver.trace and solution.trace is not None:
        n, m = problem.n, problem.m
        header = (
            ["s"] + _vech_names("pi", n) + _vec_names("l", m, n) + ["delta", "residual"]
        )
        rows = [
            [s] + vech(value).tolist() + vec(gain).tolist() + [delta, residual]
            for s, value, gain, delta, residual in solution.trace
        ]
        _write_csv(out_dir / "trace.csv", header, rows)
    if config.solver.dump_weights:
        wbank = build_weighted_bank(
            bank,
            problem.weights,
            problem.theta,
            solution.gain,
            solution.value,
            problem.q,
            problem.r,
        )
        save_weight_csv(wbank, out_dir / "weights.csv")
        log.info("wrote %s", out_dir / "weights.csv")
    return 0


def cmd_sweep(config: RunConfig, out_dir: Path) -> int:
    bank = config_mod.make_bank(config)
    header = [
        "theta", "status", "iterations", "residual", "rho_plain", "rho_weighted",
        "ms_stable", "wms_stable", "error",
    ]
    grid = config.task.theta_grid
    problems = [config_mod.make_problem(config, bank, theta=theta) for theta in grid]
    results = solve_all(problems, config.solver.method, **_solver_options(config))
    rows = []
    for theta, problem, solution in zip(grid, problems, results):
        try:
            if isinstance(solution, NumericalError):
                raise solution
            plain = ms_check(bank, solution.gain)
            wbank = build_weighted_bank(
                bank, problem.weights, theta, solution.gain, solution.value,
                problem.q, problem.r,
            )
            weighted = wms_check(wbank, solution.gain)
            rows.append([
                theta, "ok", solution.iterations, solution.residual,
                plain.radius_plain, weighted.radius_weighted,
                plain.ms_stable, weighted.wms_stable, "",
            ])
        except NumericalError as exc:
            log.warning("theta=%s failed: %s", theta, exc)
            rows.append([theta, "error", None, None, None, None, None, None, str(exc)])
    _write_csv(out_dir / "sweep.csv", header, rows)
    return 0


def cmd_stability(config: RunConfig, out_dir: Path) -> int:
    record = _resolve_gain(config)
    bank = config_mod.make_bank(config)
    plain = ms_check(bank, record["gain"])
    radius_weighted = None
    wms_stable = None
    if record.get("value") is not None:
        problem = config_mod.make_problem(config, bank, theta=record["theta"])
        wbank = build_weighted_bank(
            bank, problem.weights, record["theta"], record["gain"], record["value"],
            problem.q, problem.r,
        )
        weighted = wms_check(wbank, record["gain"])
        radius_weighted = weighted.radius_weighted
        wms_stable = weighted.wms_stable
    _write_csv(
        out_dir / "stability.csv",
        ["theta", "rho_plain", "rho_weighted", "ms_stable", "wms_stable"],
        [[record.get("theta"), plain.radius_plain, radius_weighted,
          plain.ms_stable, wms_stable]],
    )
    return 0


def cmd_simulate(config: RunConfig, out_dir: Path) -> int:
    record = _resolve_gain(config)
    dist = config_mod.make_distribution(config)
    q, r = config_mod._cost_matrices(config)
    _, x0 = config_mod._task_arrays(config)
    summary = mc_cost_study(
        dist,
        record["gain"],
        q,
        r,
        x0,
        config.task.horizon,
        config.task.trials,
        config.task.rho_list,
        config.task.seed,
        trajectory_count=config.task.trajectory_count,
    )
    _write_csv(
        out_dir / "costs.csv",
        ["trial", "cost"],
        [[k, summary.costs[k]] for k in range(summary.trials)],
    )
    _write_csv(out_dir / "tail.csv", ["rho", "worst_average"], summary.tail_averages)
    traj_rows = []
    for k, states in enumerate(summary.trajectories):
        for t in range(states.shape[0]):
            traj_rows.append([k, t] + [float(v) for v in states[t]])
    _write_csv(
        out_dir / "trajectories.csv",
        ["trial", "t"] + [f"x_{i + 1}" for i in range(config.system.n)],
        traj_rows,
    )
    _write_csv(
        out_dir / "summary.csv",
        ["trials", "horizon", "mean_cost", "diverged"],
        [[summary.trials, summary.horizon, summary.mean_cost, summary.diverged]],
    )
    return 0


def cmd_robustness(config: RunConfig, out_dir: Path) -> int:
    dist = config_mod.make_distribution(config)
    q, r = config_mod._cost_matrices(config)
    spec = config_mod.make_weight_spec(config)
    summary = robustness_study(
        dist,
        q,
        r,
        spec,
        config.task.repetitions,
        config.task.robustness_bank_size,
        config.task.seed,
        method=config.solver.method,
        solver_options=_solver_options(config),
    )
    n, m = config.system.n, config.system.m
    rows = [
        [i + 1, j + 1, summary.gain_mean[i, j], summary.gain_stddev[i, j]]
        for j in range(n)
        for i in range(m)
    ]
    _write_csv(out_dir / "robustness.csv", ["row", "col", "mean", "stddev"], rows)
    gain_rows = []
    failed = dict(summary.failures)
    ok_gains = iter(summary.gains)
    for k in range(summary.repetitions):
        if k in failed:
            gain_rows.append([k, "error"] + [None] * (m * n) + [failed[k]])
        else:
            gain = next(ok_gains)
            gain_rows.append([k, "ok"] + vec(gain).tolist() + [""])
    _write_csv(
        out_dir / "gains.csv",
        ["repetition", "status"] + _vec_names("l", m, n) + ["error"],
        gain_rows,
    )
    return 0


_COMMANDS = {
    "design": cmd_design,
    "sweep": cmd_sweep,
    "stability": cmd_stability,
    "simulate": cmd_simulate,
    "robustness": cmd_robustness,
}

#: Commands whose --seed override retargets the evaluation seed instead of
#: the design bank seed.
_TASK_SEED_COMMANDS = {"simulate", "robustness"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsriccati",
        description="Design and analyze weighted-Riccati state-feedback controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("design", "solve the design equations and write the solution"),
        ("sweep", "design across a sensitivity grid and check stability"),
        ("stability", "spectral-radius stability checks for a gain"),
        ("simulate", "closed-loop Monte-Carlo cost study"),
        ("robustness", "gain dispersion across redrawn sample banks"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the YAML run configuration")
        p.add_argument("--output-dir", default=None, help="override output_dir")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument(
            "-v", "--verbose", action="count", default=0,
            help="-v for progress, -vv for debug output",
        )
    return parser


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if args.seed is not None:
        if args.command in _TASK_SEED_COMMANDS:
            task = dataclasses.replace(config.task, seed=args.seed)
            config = dataclasses.replace(config, task=task)
        else:
            solver = dataclasses.replace(config.solver, seed=args.seed)
            config = dataclasses.replace(config, solver=solver)
    if args.output_dir is not None:
        config = dataclasses.replace(config, output_dir=args.output_dir)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(message)s", stream=sys.stderr)
    try:
        config = load_config(args.config)
        config = _apply_overrides(config, args)
        _require_task_inputs(args.command, config.task)
        return _COMMANDS[args.command](config, Path(config.output_dir))
    except ConfigurationError as exc:
        log.error("configuration error: %s", exc)
        return 1
    except NumericalError as exc:
        log.error("solver error: %s", exc)
        return 2
    except OSError as exc:
        log.error("i/o error: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
