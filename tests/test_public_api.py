"""The package's public surface.

Every name a module lists in ``__all__`` must resolve. The per-draw forms of
the bank expectations are test oracles (``tests/reference.py``), and the
drivers that only the tests call live there too, so no package module may
define or export either.
"""

import importlib
import pkgutil

import pytest

import wsriccati

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
