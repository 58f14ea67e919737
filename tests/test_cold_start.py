"""No command loads scipy.

The RRSL weight's sigmoid is the package's own kernel, ``weights._expit``,
with the bits of ``scipy.special.expit`` (``tests/test_weight_saturation.py``
holds it to them); scipy is a test dependency only. Each case runs in a
fresh interpreter, because other test modules import ``scipy.special`` into
the test process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import wsriccati
from wsriccati.cli import main

from test_cli import base_config

SRC = Path(wsriccati.__file__).resolve().parent.parent

#: Runs ``cli.main`` on the arguments, if any, then reports its exit code,
#: whether ``scipy.special`` was loaded and how often the sigmoid was taken.
PROBE = """
import sys
import wsriccati.cli
from wsriccati import weights
calls = []
expit = weights._expit
weights._expit = lambda x: calls.append(x.size) or expit(x)
code = wsriccati.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, "scipy.special" in sys.modules, len(calls))
"""

#: Prepended to :data:`PROBE`: every import of scipy, or of a submodule of
#: it, raises ``ImportError``, as in an environment without scipy.
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"no module named {name!r} here")
        return None

sys.meta_path.insert(0, NoScipy())
"""

SMALL = {"bank_size": 200, "seed": 11}
TASK = {"gain": [[4.0, 3.5]], "x0": [1.0, 1.0], "horizon": 20, "trials": 50,
        "trajectory_count": 2, "theta_grid": [0.0, 0.5, 1.0], "repetitions": 3,
        "robustness_bank_size": 200}


def _config_path(tmp_path, out, solver=SMALL, **overrides):
    config = base_config(out, solver=solver, task=TASK, **overrides)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def _probe(tmp_path, command=None, prelude="", **overrides):
    """(scipy.special loaded, sigmoid calls) of ``command`` in a fresh interpreter."""
    argv = []
    if command is not None:
        argv = [command, str(_config_path(tmp_path, tmp_path / "out", **overrides))]
    proc = subprocess.run(
        [sys.executable, "-c", prelude + PROBE, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded, calls = proc.stdout.split()
    assert code == "0", proc.stderr
    return loaded == "True", int(calls)


def test_import_loads_no_scipy(tmp_path):
    assert _probe(tmp_path) == (False, 0)


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("simulate", {}),
        ("stability", {}),
        ("design", {"weight": {"family": "RN"}}),
        ("design", {"weight": {"family": "RSL", "theta": 0.00125}}),
        # RRSL at theta = 0, with the weights dumped: every raw weight is
        # exactly 1, so no entry reaches the sigmoid.
        ("design", {"weight": {"theta": 0.0}, "solver": {**SMALL, "dump_weights": True}}),
        # RRSL at theta = 1 takes the sigmoid. The weights dumped after the
        # solve take it outside the solver's floating-point error state.
        ("design", {"solver": {**SMALL, "dump_weights": True}}),
        ("sweep", {}),
        ("robustness", {}),
    ],
)
def test_command_without_sigmoid_loads_no_scipy(tmp_path, command, overrides):
    weight = overrides.get("weight", {})
    sigmoid = (
        command in ("design", "sweep", "robustness")
        and weight.get("family", "RRSL") == "RRSL"
        and weight.get("theta", 1.0) != 0.0
    )
    loaded, calls = _probe(tmp_path, command, **overrides)
    assert not loaded
    assert (calls > 0) == sigmoid


def test_rrsl_design_loads_no_scipy(tmp_path):
    loaded, calls = _probe(tmp_path, "design")
    assert not loaded and calls > 0


def test_rrsl_design_runs_where_scipy_cannot_be_imported(tmp_path):
    solver = {**SMALL, "dump_weights": True, "trace": True}
    (tmp_path / "blocked").mkdir()
    loaded, calls = _probe(tmp_path / "blocked", "design", prelude=NO_SCIPY, solver=solver)
    assert not loaded and calls > 0
    here = tmp_path / "here"
    assert main(["design", str(_config_path(tmp_path, here, solver=solver))]) == 0
    names = ["solution.csv", "trace.csv", "weights.csv"]
    assert sorted(p.name for p in here.iterdir()) == names
    for name in names:
        assert (tmp_path / "blocked" / "out" / name).read_bytes() == (here / name).read_bytes()
