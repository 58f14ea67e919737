"""Run configuration: one YAML file drives every subcommand.

All science parameters live in the file; the command line only selects the
subcommand and may override the output directory and a seed. Each setting is
declared once, as a field of a section dataclass below (``SolverConfig``
inherits the solver's from :class:`~wsriccati.riccati.SolverOptions`): its
name is the YAML key, its default applies when the key is absent, and its
annotation decides how the value is checked. Validation reports the exact
dotted path of an offending field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from types import UnionType
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .ensemble import ParameterDistribution, SampleBank, build_distribution, draw_bank
from .errors import ConfigurationError
from .matops import symmetrize
from .riccati import DesignProblem, SolverOptions
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


@dataclass(frozen=True)
class SystemConfig:
    """The random system: the fields are :func:`build_distribution`'s parameters."""

    n: int
    m: int
    mean_a: list
    mean_b: list
    family_a: Any = "normal"
    family_b: Any = "laplace"
    stddev_a: list | None = None
    stddev_b: list | None = None
    stddev_scale: float | None = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigurationError("system.n and system.m must be >= 1")


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
class SolverConfig(SolverOptions):
    bank_size: int = 10_000
    seed: int = 0
    dump_weights: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.bank_size < 1:
            raise ConfigurationError("solver.bank_size must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("solver.seed must be >= 0")


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

    def __post_init__(self):
        if self.horizon < 0:
            raise ConfigurationError("task.horizon must be >= 0")
        if self.trials < 1:
            raise ConfigurationError("task.trials must be >= 1")
        if not self.rho_list:
            raise ConfigurationError("task.rho_list must not be empty")
        if self.theta_grid is not None and not self.theta_grid:
            raise ConfigurationError("task.theta_grid must not be empty")
        for i, rho in enumerate(self.rho_list):
            if not 0.0 < rho <= 100.0:
                raise ConfigurationError(f"task.rho_list[{i}]: {rho} outside (0, 100]")
        if self.repetitions < 2:
            raise ConfigurationError("task.repetitions must be >= 2")
        if self.robustness_bank_size < 1:
            raise ConfigurationError("task.robustness_bank_size must be >= 1")
        if self.trajectory_count < 0:
            raise ConfigurationError("task.trajectory_count must be >= 0")
        if self.seed < 0:
            raise ConfigurationError("task.seed must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    cost: CostConfig
    weight: WeightConfig
    solver: SolverConfig
    task: TaskConfig
    output_dir: str = "out"


def _coerce(value, kind, path: str):
    """Check or convert one YAML value to a field annotation.

    ``X | None`` coerces as X (an explicit null is rejected; leaving the key
    out gives the default). ``Any`` and unions of several types pass through
    for the consumer to validate. ``tuple[float, ...]`` takes a list of
    finite floats. Neither ``int`` nor ``float`` takes a boolean.
    """
    if get_origin(kind) is UnionType:
        options = [a for a in get_args(kind) if a is not type(None)]
        if len(options) > 1:
            return value
        kind = options[0]
    if kind is Any:
        return value
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{path}: cannot interpret {value!r} as a list of floats")
        return tuple(_coerce(v, float, f"{path}[{i}]") for i, v in enumerate(value))
    try:
        if kind is int and not isinstance(value, bool) and int(value) == value:
            return int(value)
        if kind is float and not isinstance(value, bool) and np.isfinite(float(value)):
            return float(value)
        if kind in (bool, str, list) and isinstance(value, kind):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigurationError(f"{path}: cannot interpret {value!r} as {kind.__name__}")


def _build(cls, data, path: str = ""):
    """Build dataclass ``cls`` from a mapping, one key per field.

    Unknown keys are errors, a missing field without a default is reported
    as required, and a nested dataclass field is built from its own mapping.
    """
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path or 'config'}: expected a mapping")
    kinds = get_type_hints(cls)
    for key in data:
        if key not in kinds:
            raise ConfigurationError(
                f"{path}.{key}: unknown field" if path else f"unknown top-level section {key!r}"
            )
    values = {}
    for f in fields(cls):
        where = f"{path}.{f.name}" if path else f.name
        if is_dataclass(kinds[f.name]):
            values[f.name] = _build(kinds[f.name], data.get(f.name, {}), where)
        elif f.name in data:
            values[f.name] = _coerce(data[f.name], kinds[f.name], where)
        elif f.default is MISSING:
            raise ConfigurationError(f"{where}: required field missing")
    return cls(**values)


#: PyYAML's safe loader on libyaml where the install has it, 7 to 12 times faster
#: on a run configuration, else its pure-Python one; both build the same data.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config(path) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"{path}: invalid YAML ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    return parse_config(data)


def parse_config(data: dict) -> RunConfig:
    config = _build(RunConfig, data)
    # Building the distribution, the weight spec and the matrices validates
    # shapes and ranges up front, so a malformed file fails before any output
    # is written.
    make_distribution(config)
    make_weight_spec(config)
    _cost_matrices(config)
    _task_arrays(config)
    return config


def make_distribution(config: RunConfig) -> ParameterDistribution:
    try:
        return build_distribution(**vars(config.system))
    except (ConfigurationError, ValueError) as exc:
        raise ConfigurationError(f"system: {exc}") from exc


def make_bank(config: RunConfig) -> SampleBank:
    return draw_bank(make_distribution(config), config.solver.bank_size, config.solver.seed)


def make_weight_spec(config: RunConfig, theta: float | None = None) -> WeightSpec:
    w = config.weight
    try:
        sigma = None
        if not (isinstance(w.sigma, str) and w.sigma == "identity"):
            sigma = np.asarray(w.sigma, dtype=float)
            n = config.system.n
            sigma = sigma.reshape(n, n) if sigma.size == n * n else sigma
        spec = WeightSpec(
            family=w.family,
            theta=w.theta if theta is None else float(theta),
            alpha=w.alpha,
            beta=w.beta,
            sigma=sigma,
        )
        spec.resolved_sigma(config.system.n)
    except ValueError as exc:
        raise ConfigurationError(f"weight: {exc}") from exc
    return spec


def _array(value, shape: tuple[int, ...], path: str) -> np.ndarray:
    """Finite float array of the given shape (entries read in row-major order)."""
    try:
        arr = np.asarray(value, dtype=float).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{path}: entries must be finite")
    return arr


def _cost_matrices(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """The cost matrices, checked to be symmetric positive definite."""
    n, m = config.system.n, config.system.m
    q, r = _array(config.cost.q, (n, n), "cost.q"), _array(config.cost.r, (m, m), "cost.r")
    for path, mat in (("cost.q", q), ("cost.r", r)):
        try:
            sym = symmetrize(mat, path)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        if np.linalg.eigvalsh(sym).min() <= 0.0:
            raise ConfigurationError(f"{path}: must be positive definite")
    return q, r


def _task_arrays(config: RunConfig) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The inline gain (m x n) and initial state (n,) of the task block, if set."""
    n, m = config.system.n, config.system.m
    task = config.task
    gain = None if task.gain is None else _array(task.gain, (m, n), "task.gain")
    x0 = None if task.x0 is None else _array(task.x0, (n,), "task.x0")
    return gain, x0


def make_problem(
    config: RunConfig, bank: SampleBank, theta: float | None = None
) -> DesignProblem:
    q, r = _cost_matrices(config)
    spec = make_weight_spec(config, theta)
    return DesignProblem(bank=bank, q=q, r=r, weights=spec)


def design_fingerprint(config: RunConfig) -> str:
    """Hash of the blocks that determine a design (system, cost, weight, solver)."""
    sections = ("system", "cost", "weight", "solver")
    payload = {name: vars(getattr(config, name)) for name in sections}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
