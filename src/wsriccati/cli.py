"""Batch command-line front-end.

Subcommands: design, sweep, stability, simulate, robustness. Every run is
driven by one YAML configuration file. Each command computes its tables
from the configuration and returns them, file name to (header, rows);
:func:`main` then writes them all as CSV files with a fixed header row and
full-precision floats, and moves them into place only once every one is
written, so a run that fails writes nothing. Exit codes: 0 success, 1
configuration or command-line error, 2 numerical/solver error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from .config import RunConfig, design_fingerprint, load_config
from .errors import ConfigurationError, NumericalError
from .matops import vec
from .riccati import _check_grid_end, pack_solution, solve, solve_all, unpack_solution
from .simulate import mc_cost_study, robustness_study
from .stability import ms_check, wms_check
from .weights import build_weighted_bank

log = logging.getLogger("wsriccati")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` of Python scalars: floats by ``repr``, None as an empty field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_tables(out_dir: Path, tables: dict) -> None:
    """Write every table into ``out_dir``, all of them or none.

    Each table goes to a hidden temporary file next to its target, and the
    temporaries are renamed onto their names with ``os.replace`` only after
    every one is written. If anything fails, the temporaries left and the
    directories this call made are removed before the error propagates;
    files that were already in ``out_dir`` (a ``solution.csv`` that
    ``simulate`` reads, say) are never touched.
    """
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    temps = {}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in tables.items():
            temps[name] = out_dir / f".{name}.{os.getpid()}.tmp"
            _write_csv(temps[name], header, rows)
        for name, temp in list(temps.items()):
            os.replace(temp, out_dir / name)
            del temps[name]
            log.info("wrote %s", out_dir / name)
    except BaseException:
        for path in temps.values():
            with contextlib.suppress(OSError):
                path.unlink()
        for path in made:
            with contextlib.suppress(OSError):
                path.rmdir()
        raise


def _gain_names(m: int, n: int) -> list[str]:
    return [f"l_{i + 1}_{j + 1}" for j in range(n) for i in range(m)]


def _solution_names(n: int, m: int) -> list[str]:
    """Column names of the :func:`pack_solution` vector [vech(P); vec(L)]."""
    return [f"pi_{i + 1}_{j + 1}" for j in range(n) for i in range(j, n)] + _gain_names(m, n)


def _load_solution(path: Path) -> dict:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            record = next(reader)
        except StopIteration:
            raise ConfigurationError(f"{path}: empty solution file")
    try:
        n, m = int(record["n"]), int(record["m"])
        names = _solution_names(n, m)
        entries = np.array([float(record[k]) for k in names])
        if not np.all(np.isfinite(entries)):
            raise ValueError(f"{names[np.argmax(~np.isfinite(entries))]} is not finite")
        value, gain = unpack_solution(entries, n, m)
        return {
            "value": value,
            "gain": gain,
            "theta": float(record["theta"]),
            "fingerprint": record["config_fingerprint"],
        }
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"{path}: malformed solution file ({exc})") from exc


def _resolve_gain(config: RunConfig):
    """Gain for analysis commands: inline from the task block or a solution file."""
    task = config.task
    if task.solution is not None:
        record = _load_solution(Path(task.solution))
        # trace and dump_weights choose output files, not the design.
        solvers = (
            dataclasses.replace(config.solver, trace=trace, dump_weights=dump)
            for trace in (False, True) for dump in (False, True)
        )
        accepted = {design_fingerprint(dataclasses.replace(config, solver=s)) for s in solvers}
        if record["fingerprint"] not in accepted:
            raise ConfigurationError(
                f"{task.solution}: solution was produced by a different design "
                f"configuration (fingerprint mismatch)"
            )
        return record
    gain, _ = config_mod._task_arrays(config)
    return {"gain": gain, "value": None, "theta": None}


def _require_task_inputs(command: str, config: RunConfig) -> None:
    """Reject a configuration that lacks an input the command needs or sets one it cannot use.

    :func:`main` calls this before the command runs.
    """
    task = config.task
    if command == "sweep" and task.theta_grid is None:
        raise ConfigurationError("task.theta_grid is required for sweep")
    if command == "sweep" and config.solver.continuation is not None:
        # A continuation grid ends at one theta, and each sweep point has its own.
        raise ConfigurationError("solver.continuation cannot be used with sweep")
    solver = config.solver
    if (
        command in ("design", "robustness")
        and solver.method == "newton-continuation"
        and solver.continuation is not None
    ):
        _check_grid_end(solver.continuation, config.weight.theta)
    if command in ("stability", "simulate") and task.solution is None and task.gain is None:
        raise ConfigurationError("task.solution or task.gain is required")
    if command == "simulate" and task.x0 is None:
        raise ConfigurationError("task.x0 is required for simulate")


def _stability_columns(bank, gain, problem=None, value=None, plain=None) -> list:
    """[rho_plain, rho_weighted, ms_stable, wms_stable] of ``gain`` on ``bank``.

    The verdicts are "true" or "false". ``plain`` is the plain report a
    solve's postcondition took on ``bank`` (``DesignSolution.stability``);
    without it the plain radius is computed here. The weighted pair needs
    the design ``problem`` and its ``value`` matrix; without them it is None.
    """
    if plain is None:
        plain = ms_check(bank, gain)
    if value is None:
        return [plain.radius_plain, None, str(plain.ms_stable).lower(), None]
    wbank = build_weighted_bank(
        bank, problem.weights, problem.theta, gain, value, problem.q, problem.r
    )
    weighted = wms_check(wbank, gain)
    return [
        plain.radius_plain, weighted.radius_weighted,
        str(plain.ms_stable).lower(), str(weighted.wms_stable).lower(),
    ]


def cmd_design(config: RunConfig) -> dict:
    bank = config_mod.make_bank(config)
    problem = config_mod.make_problem(config, bank)
    solution = solve(problem, config.solver, record_trace=config.solver.trace)
    n, m = problem.n, problem.m
    names = _solution_names(n, m)
    tables = {
        "solution.csv": (
            ["n", "m", "weight_family", "theta", "method", "iterations", "residual",
             "config_fingerprint"] + names,
            [[n, m, config.weight.family, config.weight.theta, solution.method,
              solution.iterations, solution.residual, design_fingerprint(config)]
             + pack_solution(solution.value, solution.gain).tolist()],
        ),
    }
    if config.solver.trace and solution.trace is None:
        log.warning("trace requested but method %r records none", solution.method)
    if config.solver.trace and solution.trace is not None:
        tables["trace.csv"] = (
            ["s"] + names + ["delta", "residual"],
            [[s] + pack_solution(value, gain).tolist() + [delta, residual]
             for s, value, gain, delta, residual in solution.trace],
        )
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
        tables["weights.csv"] = (
            ["sample", "predictive_cost", "raw_weight", "weight"],
            zip(
                range(wbank.size), wbank.predictive.tolist(),
                wbank.raw_weights.tolist(), wbank.weights.tolist(),
            ),
        )
    return tables


def cmd_sweep(config: RunConfig) -> dict:
    bank = config_mod.make_bank(config)
    header = [
        "theta", "status", "iterations", "residual", "rho_plain", "rho_weighted",
        "ms_stable", "wms_stable", "error",
    ]
    grid = config.task.theta_grid
    problems = [config_mod.make_problem(config, bank, theta=theta) for theta in grid]
    results = solve_all(problems, config.solver)
    rows = []
    for theta, problem, solution in zip(grid, problems, results):
        try:
            if isinstance(solution, NumericalError):
                raise solution
            columns = _stability_columns(
                bank, solution.gain, problem, solution.value, solution.stability
            )
            rows.append([theta, "ok", solution.iterations, solution.residual, *columns, ""])
        except NumericalError as exc:
            log.warning("theta=%s failed: %s", theta, exc)
            rows.append([theta, "error", None, None, None, None, None, None, str(exc)])
    return {"sweep.csv": (header, rows)}


def cmd_stability(config: RunConfig) -> dict:
    record = _resolve_gain(config)
    bank = config_mod.make_bank(config)
    problem = None
    if record["value"] is not None:
        problem = config_mod.make_problem(config, bank, theta=record["theta"])
    columns = _stability_columns(bank, record["gain"], problem, record["value"])
    header = ["theta", "rho_plain", "rho_weighted", "ms_stable", "wms_stable"]
    return {"stability.csv": (header, [[record["theta"], *columns]])}


def cmd_simulate(config: RunConfig) -> dict:
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
    # Python floats, so that each value is formatted by one repr.
    trajectories = (
        [k, t, *state]
        for k, states in enumerate(summary.trajectories)
        for t, state in enumerate(states.tolist())
    )
    return {
        "costs.csv": (["trial", "cost"], enumerate(summary.costs.tolist())),
        "tail.csv": (["rho", "worst_average"], summary.tail_averages),
        "trajectories.csv": (
            ["trial", "t"] + [f"x_{i + 1}" for i in range(config.system.n)],
            trajectories,
        ),
        "summary.csv": (
            ["trials", "horizon", "mean_cost", "diverged"],
            [[summary.trials, summary.horizon, summary.mean_cost, summary.diverged]],
        ),
    }


def cmd_robustness(config: RunConfig) -> dict:
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
        config.solver,
    )
    n, m = config.system.n, config.system.m
    rows = [
        [i + 1, j + 1, float(summary.gain_mean[i, j]), float(summary.gain_stddev[i, j])]
        for j in range(n)
        for i in range(m)
    ]
    gain_rows = []
    failed = dict(summary.failures)
    ok_gains = iter(summary.gains)
    for k in range(summary.repetitions):
        if k in failed:
            gain_rows.append([k, "error"] + [None] * (m * n) + [failed[k]])
        else:
            gain_rows.append([k, "ok"] + vec(next(ok_gains)).tolist() + [""])
    return {
        "robustness.csv": (["row", "col", "mean", "stddev"], rows),
        "gains.csv": (["repetition", "status"] + _gain_names(m, n) + ["error"], gain_rows),
    }


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
        section = "task" if args.command in _TASK_SEED_COMMANDS else "solver"
        seeded = dataclasses.replace(getattr(config, section), seed=args.seed)
        config = dataclasses.replace(config, **{section: seeded})
    if args.output_dir is not None:
        config = dataclasses.replace(config, output_dir=args.output_dir)
    return config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's exit: 0 after -h, 2 on a bad command line
        return 1 if exc.code else 0
    # basicConfig installs the handler once; the level is set on every call.
    logging.basicConfig(format="%(levelname)s %(message)s", stream=sys.stderr)
    log.setLevel((logging.WARNING, logging.INFO, logging.DEBUG)[min(args.verbose, 2)])
    try:
        config = load_config(args.config)
        config = _apply_overrides(config, args)
        _require_task_inputs(args.command, config)
        tables = _COMMANDS[args.command](config)
        _write_tables(Path(config.output_dir), tables)
        return 0
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
