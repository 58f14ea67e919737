"""Run configuration: one YAML file drives every subcommand.

All science parameters live in the file; the command line only selects the
subcommand and may override the output directory and a seed. Validation
reports the exact dotted path of an offending field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

import numpy as np
import yaml

from .ensemble import ParameterDistribution, SampleBank, build_distribution, draw_bank
from .errors import ConfigurationError
from .riccati import (
    DEFAULT_FP_MAX_ITERS,
    DEFAULT_FP_TOL,
    DEFAULT_NEWTON_MAX_ITERS,
    DEFAULT_NEWTON_TOL,
    DEFAULT_RESIDUAL_TOL,
    DesignProblem,
)
from .weights import FAMILY_RN, WeightSpec

__all__ = [
    "SystemConfig",
    "CostConfig",
    "WeightConfig",
    "SolverConfig",
    "TaskConfig",
    "RunConfig",
    "load_config",
    "design_fingerprint",
    "make_distribution",
    "make_bank",
    "make_weight_spec",
    "make_problem",
]

_METHODS = ("fixed-point", "newton", "newton-continuation")


@dataclass(frozen=True)
class SystemConfig:
    n: int
    m: int
    mean_a: list
    mean_b: list
    family_a: Any = "normal"
    family_b: Any = "laplace"
    stddev_a: list | None = None
    stddev_b: list | None = None
    stddev_scale: float | None = None


@dataclass(frozen=True)
class CostConfig:
    q: list
    r: list


@dataclass(frozen=True)
class WeightConfig:
    family: str = FAMILY_RN
    theta: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    sigma: list | str = "identity"


@dataclass(frozen=True)
class SolverConfig:
    method: str = "fixed-point"
    bank_size: int = 10_000
    seed: int = 0
    fp_tol: float = DEFAULT_FP_TOL
    fp_max_iters: int = DEFAULT_FP_MAX_ITERS
    residual_tol: float = DEFAULT_RESIDUAL_TOL
    newton_tol: float = DEFAULT_NEWTON_TOL
    newton_max_iters: int = DEFAULT_NEWTON_MAX_ITERS
    continuation: tuple[float, ...] | None = None
    trace: bool = False
    dump_weights: bool = False


@dataclass(frozen=True)
class TaskConfig:
    x0: list | None = None
    horizon: int = 300
    trials: int = 10_000
    rho_list: tuple[float, ...] = (1.0, 5.0, 10.0, 20.0, 50.0, 100.0)
    theta_grid: tuple[float, ...] | None = None
    repetitions: int = 20
    robustness_bank_size: int = 2_000
    trajectory_count: int = 10
    seed: int = 1
    gain: list | None = None
    solution: str | None = None


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    cost: CostConfig
    weight: WeightConfig
    solver: SolverConfig
    task: TaskConfig
    output_dir: str = "out"


class _Block:
    """Typed accessor over one nested mapping with dotted-path errors."""

    def __init__(self, data: dict, path: str, known: tuple[str, ...]):
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: expected a mapping")
        for key in data:
            if key not in known:
                raise ConfigurationError(f"{path}.{key}: unknown field")
        self.data = data
        self.path = path

    def has(self, key: str) -> bool:
        return key in self.data

    def get(self, key: str, kind, default=..., required: bool = False):
        if key not in self.data:
            if required:
                raise ConfigurationError(f"{self.path}.{key}: required field missing")
            return None if default is ... else default
        value = self.data[key]
        return _coerce(value, kind, f"{self.path}.{key}")


def _coerce(value, kind, path: str):
    try:
        if kind is int:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError
            return int(value)
        if kind is float:
            out = float(value)
            if not np.isfinite(out):
                raise ValueError
            return out
        if kind is bool:
            if not isinstance(value, bool):
                raise ValueError
            return value
        if kind is str:
            if not isinstance(value, str):
                raise ValueError
            return value
        if kind is list:
            if not isinstance(value, list):
                raise ValueError
            return value
        if kind == "floats":
            return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{path}: cannot interpret {value!r} as {kind}")
    raise ConfigurationError(f"{path}: unsupported field kind {kind!r}")


def load_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{path}: invalid YAML ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    return parse_config(data)


def parse_config(data: dict) -> RunConfig:
    known = {"system", "cost", "weight", "solver", "task", "output_dir"}
    for key in data:
        if key not in known:
            raise ConfigurationError(f"unknown top-level section {key!r}")

    sys_block = _Block(
        data.get("system", {}), "system",
        ("n", "m", "mean_a", "mean_b", "family_a", "family_b",
         "stddev_a", "stddev_b", "stddev_scale"),
    )
    n = sys_block.get("n", int, required=True)
    m = sys_block.get("m", int, required=True)
    if n < 1 or m < 1:
        raise ConfigurationError("system.n and system.m must be >= 1")
    system = SystemConfig(
        n=n,
        m=m,
        mean_a=sys_block.get("mean_a", list, required=True),
        mean_b=sys_block.get("mean_b", list, required=True),
        family_a=sys_block.data.get("family_a", "normal"),
        family_b=sys_block.data.get("family_b", "laplace"),
        stddev_a=sys_block.get("stddev_a", list, default=None),
        stddev_b=sys_block.get("stddev_b", list, default=None),
        stddev_scale=sys_block.get("stddev_scale", float, default=None),
    )

    cost_block = _Block(data.get("cost", {}), "cost", ("q", "r"))
    cost = CostConfig(
        q=cost_block.get("q", list, required=True),
        r=cost_block.get("r", list, required=True),
    )

    weight_block = _Block(
        data.get("weight", {}), "weight",
        ("family", "theta", "alpha", "beta", "sigma"),
    )
    weight = WeightConfig(
        family=weight_block.get("family", str, default=FAMILY_RN),
        theta=weight_block.get("theta", float, default=0.0),
        alpha=weight_block.get("alpha", float, default=0.0),
        beta=weight_block.get("beta", float, default=0.0),
        sigma=weight_block.data.get("sigma", "identity"),
    )

    solver_block = _Block(
        data.get("solver", {}), "solver",
        ("method", "bank_size", "seed", "fp_tol", "fp_max_iters",
         "residual_tol", "newton_tol", "newton_max_iters", "continuation",
         "trace", "dump_weights"),
    )
    method = solver_block.get("method", str, default="fixed-point")
    if method not in _METHODS:
        raise ConfigurationError(
            f"solver.method: unknown method {method!r}, expected one of {_METHODS}"
        )
    continuation = None
    if solver_block.has("continuation"):
        continuation = solver_block.get("continuation", "floats")
    solver = SolverConfig(
        method=method,
        bank_size=solver_block.get("bank_size", int, default=10_000),
        seed=solver_block.get("seed", int, default=0),
        fp_tol=solver_block.get("fp_tol", float, default=DEFAULT_FP_TOL),
        fp_max_iters=solver_block.get("fp_max_iters", int, default=DEFAULT_FP_MAX_ITERS),
        residual_tol=solver_block.get("residual_tol", float, default=DEFAULT_RESIDUAL_TOL),
        newton_tol=solver_block.get("newton_tol", float, default=DEFAULT_NEWTON_TOL),
        newton_max_iters=solver_block.get(
            "newton_max_iters", int, default=DEFAULT_NEWTON_MAX_ITERS
        ),
        continuation=continuation,
        trace=solver_block.get("trace", bool, default=False),
        dump_weights=solver_block.get("dump_weights", bool, default=False),
    )
    if solver.bank_size < 1:
        raise ConfigurationError("solver.bank_size must be >= 1")

    task_block = _Block(
        data.get("task", {}), "task",
        ("x0", "horizon", "trials", "rho_list", "theta_grid", "repetitions",
         "robustness_bank_size", "trajectory_count", "seed", "gain",
         "solution"),
    )
    task = TaskConfig(
        x0=task_block.get("x0", list, default=None),
        horizon=task_block.get("horizon", int, default=300),
        trials=task_block.get("trials", int, default=10_000),
        rho_list=task_block.get(
            "rho_list", "floats", default=(1.0, 5.0, 10.0, 20.0, 50.0, 100.0)
        ),
        theta_grid=task_block.get("theta_grid", "floats", default=None),
        repetitions=task_block.get("repetitions", int, default=20),
        robustness_bank_size=task_block.get("robustness_bank_size", int, default=2_000),
        trajectory_count=task_block.get("trajectory_count", int, default=10),
        seed=task_block.get("seed", int, default=1),
        gain=task_block.get("gain", list, default=None),
        solution=task_block.get("solution", str, default=None),
    )

    config = RunConfig(
        system=system,
        cost=cost,
        weight=weight,
        solver=solver,
        task=task,
        output_dir=_coerce(data.get("output_dir", "out"), str, "output_dir"),
    )
    # Building the distribution and weight spec validates shapes and ranges
    # up front, so a malformed file fails before any output is written.
    make_distribution(config)
    make_weight_spec(config)
    _cost_matrices(config)
    return config


def make_distribution(config: RunConfig) -> ParameterDistribution:
    sys = config.system
    try:
        return build_distribution(
            sys.n,
            sys.m,
            sys.mean_a,
            sys.mean_b,
            family_a=sys.family_a,
            family_b=sys.family_b,
            stddev_a=sys.stddev_a,
            stddev_b=sys.stddev_b,
            stddev_scale=sys.stddev_scale,
        )
    except (ConfigurationError, ValueError) as exc:
        raise ConfigurationError(f"system: {exc}") from exc


def make_bank(config: RunConfig) -> SampleBank:
    return draw_bank(make_distribution(config), config.solver.bank_size, config.solver.seed)


def make_weight_spec(config: RunConfig, theta: float | None = None) -> WeightSpec:
    w = config.weight
    sigma = None
    if not (isinstance(w.sigma, str) and w.sigma == "identity"):
        sigma = np.asarray(w.sigma, dtype=float)
    try:
        return WeightSpec(
            family=w.family,
            theta=w.theta if theta is None else float(theta),
            alpha=w.alpha,
            beta=w.beta,
            sigma=sigma,
        )
    except ValueError as exc:
        raise ConfigurationError(f"weight: {exc}") from exc


def _cost_matrices(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    n, m = config.system.n, config.system.m
    try:
        q = np.asarray(config.cost.q, dtype=float).reshape(n, n)
        r = np.asarray(config.cost.r, dtype=float).reshape(m, m)
    except ValueError as exc:
        raise ConfigurationError(f"cost: {exc}") from exc
    return q, r


def make_problem(
    config: RunConfig, bank: SampleBank | None = None, theta: float | None = None
) -> DesignProblem:
    if bank is None:
        bank = make_bank(config)
    q, r = _cost_matrices(config)
    spec = make_weight_spec(config, theta)
    try:
        return DesignProblem(bank=bank, q=q, r=r, weights=spec)
    except (ConfigurationError, ValueError) as exc:
        raise ConfigurationError(str(exc)) from exc


def design_fingerprint(config: RunConfig) -> str:
    """Hash of the blocks that determine a design (system, cost, weight, solver)."""
    payload = {
        "system": _plain(config.system),
        "cost": _plain(config.cost),
        "weight": _plain(config.weight),
        "solver": _plain(config.solver),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _plain(obj) -> dict:
    out = {}
    for key, value in vars(obj).items():
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out
