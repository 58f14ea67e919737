"""Byte-level pins of the solver outputs on the example system.

Each CLI run below writes CSVs whose bytes depend on every weighted
evaluation of the coupled maps and the residual: the fixed-point path and
its trace, the Newton steps, the final weights, a three-point sweep with
its stability radii, and a short robustness study. The digests were taken
before the RRSL weights skipped the sigmoid on saturated draws, so a change
that moves any output bit fails here.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from wsriccati.cli import main

EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"

#: (subcommand, solver.method, file) -> sha256 of the file it writes.
PINNED = {
    ("design", "fixed-point", "solution.csv"): "dcca9888e5bfb61a29507639f29c5c8f53ef80193458bae09387bbfdad2111c4",
    ("design", "fixed-point", "trace.csv"): "b0edaac271e8af52b89a255198ca1d82cf2df1a86914af16d8249c069b50242b",
    ("design", "fixed-point", "weights.csv"): "a62e83720109162947f129d1ea602b82fdeca6129c316edd0eed243c66d32cd0",
    ("design", "newton", "solution.csv"): "3d74047b88a311e15750755daef989240f0a8e7aa8300ed17e71bd786604580a",
    ("design", "newton", "weights.csv"): "1fc572aa09dbc1265dd69fc3950f00321b1710fca5454519d70797a2c1ba4a44",
    ("design", "newton-continuation", "solution.csv"): "f4b533b67c15c1403997001800c3aa19de7af61d3359a7ac4c756001e2b14a45",
    ("design", "newton-continuation", "weights.csv"): "dd176c090ac563758477bfe8e5f3d3d3667e4a6d4c745d85243599e3b81b1626",
    ("sweep", "fixed-point", "sweep.csv"): "68b182d098c928716f17af0b1fc6038c2a9a506384efec4bec4b4d0ba249b505",
    ("sweep", "newton", "sweep.csv"): "6e95214bb01398b90ded3797a5d3bfe6e84cf37050bdbf8237796b525c701f40",
    ("robustness", "fixed-point", "gains.csv"): "b386c5827201b4d570ad23b92901e12e8a44f6728dd7b93d0128f616c8a51ed3",
    ("robustness", "fixed-point", "robustness.csv"): "20cb5d0033007cf7b3f16d0671dd6d8a7735fd36291198aa46a14498812936b5",
}

RUNS = sorted({(command, method) for command, method, _ in PINNED})


def _run(tmp_path: Path, command: str, method: str) -> Path:
    config = yaml.safe_load(EXAMPLE.read_text())
    config["solver"].update(
        method=method,
        bank_size=2000,
        trace=method == "fixed-point",
        dump_weights=True,
    )
    config["task"].update(
        theta_grid=[0.0, 0.5, 1.0], repetitions=3, robustness_bank_size=500
    )
    out = tmp_path / "out"
    config["output_dir"] = str(out)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main([command, str(path)]) == 0
    return out


@pytest.mark.parametrize("command,method", RUNS)
def test_solver_outputs_are_pinned(tmp_path, command, method):
    out = _run(tmp_path, command, method)
    for (cmd, meth, name), digest in PINNED.items():
        if (cmd, meth) == (command, method):
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert got == digest, name


#: sha256 of stability.csv from ``stability`` on the fixed-point design's
#: solution.csv. Its weighted radius rebuilds the RRSL weights at the
#: solution (``build_weighted_bank``), so the run evaluates the sigmoid.
STABILITY_PINNED = "6120b6ae30472eedeab311b5b240f9731ff43a612e334a97f172c11c42fcd2d9"


def test_stability_from_rrsl_solution_is_pinned(tmp_path):
    out = _run(tmp_path, "design", "fixed-point")
    path = tmp_path / "run.yaml"
    config = yaml.safe_load(path.read_text())
    config["task"]["solution"] = str(out / "solution.csv")
    path.write_text(yaml.safe_dump(config))
    assert main(["stability", str(path)]) == 0
    got = hashlib.sha256((out / "stability.csv").read_bytes()).hexdigest()
    assert got == STABILITY_PINNED


#: sha256 of gains.csv and robustness.csv from five 500-draw redesigns
#: capped at 120 fixed-point iterations; the second and fifth do not
#: converge, so the gains table holds ok and error rows.
ROBUSTNESS_WITH_FAILURES_PINNED = {
    "gains.csv": "03dd72f7eb9645602afbfabd83f10e3d2abaa0f5d277c43975b50050ed4f3e75",
    "robustness.csv": "44c5491ec3fde6ec2251571a955326a33ce256e3c58dc32ae2d756db67b9034b",
}


def test_robustness_with_failed_redesigns_is_pinned(tmp_path):
    config = yaml.safe_load(EXAMPLE.read_text())
    config["solver"]["fp_max_iters"] = 120
    config["task"].update(repetitions=5, robustness_bank_size=500)
    out = tmp_path / "out"
    config["output_dir"] = str(out)
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main(["robustness", str(path)]) == 0
    statuses = [line.split(",")[1] for line in (out / "gains.csv").read_text().splitlines()[1:]]
    assert statuses == ["ok", "error", "ok", "ok", "error"]
    for name, digest in ROBUSTNESS_WITH_FAILURES_PINNED.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
