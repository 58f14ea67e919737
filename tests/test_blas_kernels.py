"""The solver's results agree across OpenBLAS kernels within a fixed envelope.

numpy's OpenBLAS, when built with ``DYNAMIC_ARCH``, picks a kernel for the
CPU, and ``OPENBLAS_CORETYPE`` sets another for one process. The kernels sum
in different orders, so the output bytes move from one to the next; the
sha256 pins of ``test_solver_golden.py`` hold on one kernel only. This test
bounds how far the values move.

The configuration is that of ``test_solver_golden.py``: ``design`` and
``sweep`` under ``fixed-point`` and ``newton``, ``robustness``, and a
1,500-trial ``simulate`` of the frozen example gain (:data:`GAIN`). One
subprocess runs them all on the default kernel, and one on each kernel of
:data:`KERNELS` that the CPU can run. The simulation's tables must be
byte-identical, as README states. For the solver's tables, tolerances fixed
before the first run:

- every numeric column other than ``iterations`` and ``residual`` within
  1e-12 relative of the default-kernel run;
- every ``residual`` below ``solver.residual_tol``;
- every iteration count within one of the default run's;
- statuses and row counts equal.

They hold the result tables (:data:`TABLES`). The runs also write
``trace.csv`` and ``weights.csv``, which the envelope does not cover. Trace
rows are intermediate iterates, whose values moved by up to 1.3e-10
relative. An RRSL raw weight takes the sigmoid of alpha J - beta mean(J),
which scales a cost's last bits by alpha = 10 and J; the weights moved by
up to 3.1e-12 relative. (Haswell and Sandybridge against SkylakeX, x86.)
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import wsriccati as ws

EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"

RUNS = [
    ("design", "fixed-point"),
    ("design", "newton"),
    ("sweep", "fixed-point"),
    ("sweep", "newton"),
    ("robustness", "fixed-point"),
    ("simulate", "fixed-point"),
]
#: The result tables each command writes.
TABLES = {
    "design": ("solution.csv",),
    "sweep": ("sweep.csv",),
    "robustness": ("gains.csv", "robustness.csv"),
    "simulate": ("costs.csv", "tail.csv", "trajectories.csv", "summary.csv"),
}
#: The example's frozen RRSL theta = 1 gain of its 10k-bank design.
GAIN = [[6.683243074124488, 7.448763532065042]]
REL_TOL = 1e-12

#: OPENBLAS_CORETYPE value -> the CPU flags its code needs.
KERNELS = {"Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}}

#: Runs ``main(command, config)`` for each pair of arguments; exits 1 if any fails.
_CHILD = (
    "import sys\n"
    "from wsriccati.cli import main\n"
    "pairs = zip(sys.argv[1::2], sys.argv[2::2])\n"
    "sys.exit(int(any(main([command, path]) != 0 for command, path in pairs)))\n"
)


def _dynamic_openblas() -> bool:
    """numpy's BLAS is an OpenBLAS that picks its kernel at run time."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return False
    configuration = str(blas.get("openblas configuration", ""))
    return "openblas" in str(blas.get("name", "")).lower() and "DYNAMIC_ARCH" in configuration


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    lines = (line for line in text.splitlines() if line.startswith("flags"))
    return {flag for line in lines for flag in line.split()}


def _run_all(root: Path, coretype: str | None) -> Path:
    """Every run of :data:`RUNS` in one subprocess under ``coretype``; the output root."""
    root.mkdir(parents=True)
    args = []
    for command, method in RUNS:
        config = yaml.safe_load(EXAMPLE.read_text())
        config["solver"].update(
            method=method, bank_size=2000, trace=method == "fixed-point", dump_weights=True
        )
        config["task"].update(
            theta_grid=[0.0, 0.5, 1.0], repetitions=3, robustness_bank_size=500
        )
        if command == "simulate":
            config["task"].update(gain=GAIN, trials=1500)
        config["output_dir"] = str(root / f"{command}-{method}")
        path = root / f"{command}-{method}.yaml"
        path.write_text(yaml.safe_dump(config))
        args += [command, str(path)]
    env = {**os.environ, "PYTHONPATH": str(Path(ws.__file__).resolve().parent.parent)}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return root


def _rows(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def _check_row(want: dict, got: dict, residual_tol: float) -> None:
    for column, expected in want.items():
        actual = got[column]
        if column == "residual" and expected != "":
            assert float(expected) < residual_tol and float(actual) < residual_tol
        elif column == "iterations" and expected != "":
            assert abs(int(actual) - int(expected)) <= 1, (column, expected, actual)
        else:
            try:
                value = float(expected)
            except ValueError:
                assert actual == expected, column
                continue
            assert abs(float(actual) - value) <= REL_TOL * abs(value), (column, expected, actual)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("kernels") / "default", None)


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize(
    "coretype",
    [
        pytest.param(name, marks=pytest.mark.skipif(
            not flags <= _cpu_flags(), reason=f"the CPU lacks the {name} kernel's instructions"
        ))
        for name, flags in sorted(KERNELS.items())
    ],
)
def test_results_agree_across_kernels_within_the_envelope(default_run, tmp_path, coretype):
    other = _run_all(tmp_path / coretype, coretype)
    residual_tol = yaml.safe_load(EXAMPLE.read_text())["solver"]["residual_tol"]
    for command, method in RUNS:
        for name in TABLES[command]:
            if command == "simulate":
                want = (default_run / f"{command}-{method}" / name).read_bytes()
                assert (other / f"{command}-{method}" / name).read_bytes() == want, name
                continue
            header, want = _rows(default_run / f"{command}-{method}" / name)
            got_header, got = _rows(other / f"{command}-{method}" / name)
            assert (got_header, len(got)) == (header, len(want)), (command, method, name)
            for want_row, got_row in zip(want, got):
                _check_row(want_row, got_row, residual_tol)
