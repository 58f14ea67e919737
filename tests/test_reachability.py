"""Every package function is reached by a command, or listed with its reason.

The five CLI commands run in-process under ``sys.setprofile`` on a shrunk
copy of ``configs/example.yaml`` (a 1,000-draw bank, the theta grid [0, 0.5,
1], 300 trials of 40 steps, 3 redesigns on 500 draws):

- ``design``, ``sweep`` and ``robustness`` under each of the three routes
  and each of RRSL theta = 1, RSL theta = 0.00125 and RN, with ``trace``
  and ``dump_weights`` on;
- one ``newton-continuation`` design with an explicit
  ``solver.continuation``;
- ``stability`` and ``simulate`` from an inline gain, and from the
  ``solution.csv`` a design of the same configuration file wrote.

The functions no command enters must be exactly those of :data:`ALLOWED`,
each with the reason it stays. A function only the tests reach is deleted
or moved into ``tests/reference.py``; a listed function that a command
comes to reach leaves the list.

Functions are the module-level functions and class methods defined in the
package's modules, keyed by file and first line: the line of its first
decorator for a decorated function, as in its code object. Nested functions
are left out.
"""

import ast
import copy
import importlib
import os
import pkgutil
import sys
from pathlib import Path

import yaml

import wsriccati
from wsriccati.cli import main

EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"

_PERFBENCH = "perfbench binds it by name, and a missing name breaks its --trace 1 run"
_ERROR = "raised only by a solve that fails this way, which no example configuration does"

#: Functions no command reaches, with the reason each stays in the package.
#: No branch of a reached function is kept for a test.
ALLOWED = {
    "ensemble.stream_rng": "specification of the trial streams; " + _PERFBENCH,
    "errors.ConvergenceError.__init__": _ERROR,
    "errors.DomainViolationError.__init__": _ERROR,
    "riccati.newton_solve": _PERFBENCH,
    "riccati.residual_jacobian": _PERFBENCH,
    "riccati.value_map": _PERFBENCH,
    "simulate.rollout": "public specification of one closed-loop trajectory",
    "weights._libm_exp": (
        "the sigmoid's math.exp below x = -708, which a window entry reaches only "
        "for |theta| beyond about 1e291"
    ),
    "weights.predictive_costs": _PERFBENCH,
    "weights.weight_vector": _PERFBENCH,
}


def _defined() -> dict[tuple[str, int], str]:
    """(file, first line) -> ``module.qualname`` of every module-level function and method."""
    out = {}
    for path in sorted(Path(wsriccati.__file__).resolve().parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    out[(str(path), first)] = f"{path.stem}.{prefix}{fn.name}"
    return out


def _config(tmp_path: Path, name: str, **sections) -> Path:
    """The shrunk example with ``sections`` merged in, written to ``name``.yaml."""
    data = yaml.safe_load(EXAMPLE.read_text())
    data["solver"].update(bank_size=1_000, trace=True, dump_weights=True)
    data["task"].update(
        theta_grid=[0.0, 0.5, 1.0], trials=300, horizon=40, repetitions=3,
        robustness_bank_size=500,
    )
    for section, values in sections.items():
        data[section] = {**data[section], **copy.deepcopy(values)}
    data["output_dir"] = str(tmp_path / name)
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def _runs(tmp_path: Path) -> list[tuple[str, Path]]:
    weights = {
        "rrsl": {"family": "RRSL", "theta": 1.0},
        "rsl": {"family": "RSL", "theta": 0.00125},
        "rn": {"family": "RN"},
    }
    runs = []
    for method in ("fixed-point", "newton", "newton-continuation"):
        for label, weight in weights.items():
            name = f"{label}-{method}"
            path = _config(tmp_path, name, weight=weight, solver={"method": method})
            runs += [(command, path) for command in ("design", "sweep", "robustness")]
    path = _config(
        tmp_path, "continuation",
        solver={"method": "newton-continuation", "continuation": [0.25, 0.5, 1.0]},
    )
    runs.append(("design", path))
    path = _config(tmp_path, "inline", task={"gain": [[6.7, 7.4]]})
    runs += [("stability", path), ("simulate", path)]
    solution = tmp_path / "from-solution" / "solution.csv"
    path = _config(tmp_path, "from-solution", task={"solution": str(solution)})
    runs += [("design", path), ("stability", path), ("simulate", path)]
    return runs


def _clear_caches() -> None:
    """Empty the package's ``functools`` caches, so that earlier tests' calls do not hide a function."""
    for info in pkgutil.iter_modules(wsriccati.__path__):
        for value in vars(importlib.import_module(f"wsriccati.{info.name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def test_every_unreached_function_is_allowed_with_a_reason(tmp_path):
    runs = _runs(tmp_path)
    _clear_caches()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [(command, main([command, str(path)])) for command, path in runs]
    finally:
        sys.setprofile(previous)
    assert [c for c in codes if c[1] != 0] == []
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered}
    unreached = {name for key, name in _defined().items() if key not in reached}
    assert sorted(unreached) == sorted(ALLOWED)
