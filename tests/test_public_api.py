"""The package's public surface.

Every name a module lists in ``__all__`` must resolve. The per-draw forms of
the bank expectations are test oracles (``tests/reference.py``), and the
drivers that only the tests call live there too, so no package module may
define or export either; nor does the distribution carry accessors only
the tests read. The solver's stopping rules are declared once, as
fields of ``riccati.SolverOptions``: no public solver function restates one
as a parameter, and no ``DEFAULT_*`` constant is exported. The Jacobian
takes the call form the benchmark's kernel timings use, with no mode.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import wsriccati
from wsriccati import ensemble, riccati
from wsriccati.config import SystemConfig

MODULES = ["wsriccati"] + [
    f"wsriccati.{info.name}" for info in pkgutil.iter_modules(wsriccati.__path__)
]

REFERENCE_ONLY = (
    "expect",
    "weighted_expect",
    "predictive_cost",
    "raw_weight",
    "gain_map",
    "_maps",
    "closed_loop_kron_expect",
    "kron",
    "compress",
    "analytic_jacobian_theta0",
    "richardson_jacobian",
    "point_mass",
)


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_reference_forms_are_not_in_the_package(module):
    mod = importlib.import_module(module)
    assert [name for name in REFERENCE_ONLY if hasattr(mod, name)] == []


def test_the_distribution_has_no_mean_matrix_accessors():
    """E[A] and E[B] are read off ``mean`` by the oracles ``reference.mean_a`` and ``mean_b``."""
    dist = ensemble.ParameterDistribution
    assert [name for name in ("mean_a", "mean_b") if hasattr(dist, name)] == []


#: Parameter names that would restate a solver setting, or a fixed-point start.
RESTATED = {f.name for f in dataclasses.fields(riccati.SolverOptions)} | {
    "tol",
    "max_iters",
    "value0",
    "gain0",
}


def test_solver_settings_are_declared_once():
    restated = {
        name: sorted(RESTATED & set(inspect.signature(getattr(riccati, name)).parameters))
        for name in riccati.__all__
        if inspect.isfunction(getattr(riccati, name))
    }
    assert {name: params for name, params in restated.items() if params} == {}
    assert [name for name in riccati.__all__ if name.startswith("DEFAULT_")] == []


def test_residual_jacobian_takes_only_the_point_and_problem():
    assert list(inspect.signature(riccati.residual_jacobian).parameters) == ["z", "problem"]


def test_the_package_exports_its_modules_all():
    """``wsriccati.__all__`` is its modules' ``__all__`` end to end, each name once."""
    tree = ast.parse(inspect.getsource(wsriccati))
    imported = [
        node.module for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    modules = [importlib.import_module(f"wsriccati.{name}") for name in imported]
    assert [mod for mod in modules if not hasattr(mod, "__all__")] == []
    concatenated = [name for mod in modules for name in mod.__all__]
    assert wsriccati.__all__ == concatenated
    assert len(set(concatenated)) == len(concatenated)


def test_the_system_section_is_the_distributions_argument_list():
    names = [f.name for f in dataclasses.fields(SystemConfig)]
    assert names == list(inspect.signature(ensemble.build_distribution).parameters)
