"""Commands that take no RRSL sigmoid never load scipy.

The RRSL weight's ``expit`` is the package's only use of scipy, and
``weights._rrsl_raw`` imports it the first time a weight falls inside the
window where the sigmoid is not already exact. Each case runs in a
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

from test_cli import base_config

SRC = Path(wsriccati.__file__).resolve().parent.parent

#: Runs ``cli.main`` on the arguments, if any, then reports its exit code
#: and whether ``scipy.special`` was loaded.
PROBE = """
import sys
import wsriccati.cli
code = wsriccati.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, "scipy.special" in sys.modules)
"""

SMALL = {"bank_size": 200, "seed": 11}
TASK = {"gain": [[4.0, 3.5]], "x0": [1.0, 1.0], "horizon": 20, "trials": 50,
        "trajectory_count": 2}


def _probe(tmp_path, command=None, solver=SMALL, **overrides):
    argv = []
    if command is not None:
        config = base_config(tmp_path / "out", solver=solver, task=TASK, **overrides)
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(config))
        argv = [command, str(path)]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.split()
    assert code == "0", proc.stderr
    return loaded == "True"


def test_import_loads_no_scipy(tmp_path):
    assert not _probe(tmp_path)


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
    ],
)
def test_command_without_sigmoid_loads_no_scipy(tmp_path, command, overrides):
    assert not _probe(tmp_path, command, **overrides)


def test_rrsl_design_loads_scipy(tmp_path):
    assert _probe(tmp_path, "design")
