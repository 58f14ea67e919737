#!/usr/bin/env python3
"""Benchmark of the wsriccati command line: design, simulation, robustness.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload design-10k --seed 7 --seconds 20 --trace 0

One process, one client, calls in sequence: each workload is a list of CLI
subcommands run in-process through ``wsriccati.cli.main`` on configs this
script writes. With ``--trace 0`` it runs whole passes of the workload until
``--seconds`` have elapsed (at least one pass; a pass is never cut) and
reports the end-to-end metrics. With ``--trace 1`` it runs one untraced
pass, one traced pass and the isolated kernels, and reports the per-layer
metrics. Every output is checked after each pass, outside the timed region.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md here.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = 1
SETUP_REPEATS = 7
# A run never starts a pass that could take it past this many seconds.
RUN_BUDGET_S = 150.0

# The reference system of configs/example.yaml, copied so that the workloads
# do not change when that file does.
SYSTEM = {
    "n": 2, "m": 1,
    "mean_a": [[0.97, -0.03], [0.10, 1.03]],
    "mean_b": [[0.005], [0.010]],
    "family_a": "normal", "family_b": "laplace",
    "stddev_scale": 0.1,
}
COST = {"q": [[3.0, 0.0], [0.0, 3.0]], "r": [[1.0]]}
WEIGHT = {"family": "RRSL", "theta": 1.0, "alpha": 10.0, "beta": 11.0, "sigma": "identity"}
SOLVER = {
    "method": "fixed-point", "fp_tol": 1.0e-10, "fp_max_iters": 10000,
    "residual_tol": 1.0e-8, "newton_tol": 1.0e-9, "newton_max_iters": 100,
}
DESIGN_BANK_SEED = 12345
ROBUSTNESS_SEED = 7
DEFAULT_SEED = 7
# Fixed-point gains on the example config's 10k bank (seed 12345), frozen so
# that simulate-10k runs no solver: theta = 0, and RRSL theta = 1.
GAIN_THETA0 = [[4.086418205557842, 3.488599664549776]]
GAIN_THETA1 = [[6.683243074124488, 7.448763532065042]]

FULL = {"bank": 10_000, "grid": 11, "trials": 10_000, "horizon": 300,
        "repetitions": 20, "robustness_bank": 2_000}
SMOKE = {"bank": 1_000, "grid": 3, "trials": 300, "horizon": 40,
         "repetitions": 3, "robustness_bank": 500}

# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = ("design-10k", "simulate-10k", "robustness-2k")

#: Per-step metrics printed and saved with each result; the driver-facing
#: end-to-end metrics are in BENCHMARK.json.
DETAIL_UNITS = {
    "design_fp_s": "s", "design_newton_s": "s", "sweep_s": "s",
    "sim_steps_per_s": "1/s", "designs_per_s": "1/s", "failed_share": "ratio",
}


class LogCapture(logging.Handler):
    """Collects the package's warnings and errors during one CLI call."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def load_package():
    """Import wsriccati from this checkout's src/, never from elsewhere."""
    if not (SRC / "wsriccati" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'wsriccati'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import wsriccati

    if Path(wsriccati.__file__).resolve().parent != (SRC / "wsriccati").resolve():
        raise SystemExit(f"perfbench: imported wsriccati from {wsriccati.__file__}")
    return wsriccati


# ---------------------------------------------------------------- workloads

def _config(sizes, solver=None, task=None) -> dict:
    base_task = {
        "theta_grid": [k / (sizes["grid"] - 1) for k in range(sizes["grid"])],
        "x0": [1.0, 1.0], "horizon": sizes["horizon"], "trials": sizes["trials"],
        "rho_list": [1, 5, 10, 20, 50, 100], "trajectory_count": 10,
        "seed": ROBUSTNESS_SEED, "repetitions": sizes["repetitions"],
        "robustness_bank_size": sizes["robustness_bank"],
    }
    return {
        "system": SYSTEM, "cost": COST, "weight": WEIGHT,
        "solver": {**SOLVER, "bank_size": sizes["bank"], "seed": DESIGN_BANK_SEED,
                   **(solver or {})},
        "task": {**base_task, **(task or {})},
        "output_dir": "out",
    }


def workload_steps(workload: str, seed: int, sizes) -> list[tuple[str, str, dict]]:
    """(step, subcommand, config) in the order one pass runs them."""
    if workload == "design-10k":
        fp = _config(sizes)
        newton = _config(sizes, solver={"method": "newton"})
        return [("design_fp", "design", fp), ("design_newton", "design", newton),
                ("sweep", "sweep", fp)]
    if workload == "simulate-10k":
        return [
            (f"simulate_theta{k}", "simulate", _config(sizes, task={"gain": gain, "seed": seed}))
            for k, gain in ((0, GAIN_THETA0), (1, GAIN_THETA1))
        ]
    if workload == "robustness-2k":
        return [("robustness", "robustness", _config(sizes))]
    raise SystemExit(f"perfbench: unknown workload {workload!r}")


# ------------------------------------------------------------------- checks

def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_solution(path: Path, n: int, m: int):
    import numpy as np

    row = _read_rows(path)[0]
    value = np.array([[float(row[f"pi_{max(i, j) + 1}_{min(i, j) + 1}"]) for j in range(n)]
                      for i in range(n)])
    gain = np.array([[float(row[f"l_{i + 1}_{j + 1}"]) for j in range(n)] for i in range(m)])
    return value, gain, row


class Checker:
    """Correctness gate for the outputs of one pass.

    Each operation ends as ``ok``, ``error`` (the program reported a failure:
    a non-zero exit or an error row) or ``wrong`` (it produced an output
    that fails a check). All messages are kept.
    """

    def __init__(self, ws):
        self.ws = ws
        self.ops: list[dict] = []

    def op(self, name: str, program_errors=(), check_errors=()) -> dict:
        status = "wrong" if check_errors else ("error" if program_errors else "ok")
        record = {"op": name, "status": status,
                  "messages": list(program_errors) + list(check_errors)}
        self.ops.append(record)
        return record

    def design_gate(self, problem, value, gain, residual_tol) -> list[str]:
        import numpy as np

        ws = self.ws
        errors = []
        residual = float(np.linalg.norm(
            ws.implicit_residual(ws.pack_solution(value, gain), problem)))
        if not residual <= residual_tol:
            errors.append(f"residual {residual:.3e} exceeds {residual_tol:.1e}")
        if not np.linalg.eigvalsh(value).min() > 0.0:
            errors.append("P is not positive definite")
        if not np.linalg.eigvalsh(value - problem.q).min() >= -1e-9 * np.linalg.norm(value):
            errors.append("P - Q is not positive semidefinite")
        rho = ws.ms_check(problem.bank, gain).radius_plain
        if not rho < 1.0:
            errors.append(f"rho_plain {rho:.6f} is not below 1")
        return errors

    def design(self, step, result, cfg_path):
        out = result["dir"]
        if result["code"] != 0:
            self.op(step, result["logs"] + [f"exit code {result['code']}"])
            return None
        ws = self.ws
        config = ws.config.load_config(cfg_path)
        bank = ws.config.make_bank(config)
        problem = ws.config.make_problem(config, bank)
        value, gain, row = _read_solution(out / "solution.csv", problem.n, problem.m)
        errors = self.design_gate(problem, value, gain, config.solver.residual_tol)
        return {"record": self.op(step, check_errors=errors), "gain": gain, "row": row,
                "bank": bank, "errors": errors}

    def sweep(self, result, cfg_path, standalone):
        if result["code"] != 0:
            self.op("sweep", result["logs"] + [f"exit code {result['code']}"])
            return
        tol = self.ws.config.load_config(cfg_path).solver.residual_tol
        for row in _read_rows(result["dir"] / "sweep.csv"):
            name = f"sweep theta={row['theta']}"
            if row["status"] != "ok":
                self.op(name, [row["error"] or f"status {row['status']}"])
                continue
            errors = []
            if not float(row["residual"]) <= tol:
                errors.append(f"residual {row['residual']} exceeds {tol:.1e}")
            if not float(row["rho_plain"]) < 1.0:
                errors.append(f"rho_plain {row['rho_plain']} is not below 1")
            if row["ms_stable"] != "true" or row["wms_stable"] != "true":
                errors.append("not MS and WMS stable")
            if float(row["theta"]) == 1.0 and standalone is not None:
                rho = self.ws.ms_check(standalone["bank"], standalone["gain"]).radius_plain
                if (row["iterations"], row["residual"], float(row["rho_plain"])) != (
                        standalone["row"]["iterations"], standalone["row"]["residual"], rho):
                    errors.append("theta=1 row differs from the standalone design")
            self.op(name, check_errors=errors)

    def simulate(self, step, result):
        if result["code"] != 0:
            self.op(step, result["logs"] + [f"exit code {result['code']}"])
            return
        out = result["dir"]
        errors = []
        costs = [float(r["cost"]) for r in _read_rows(out / "costs.csv")]
        if not all(math.isfinite(c) and c >= 0.0 for c in costs):
            errors.append("a cost is negative or not finite")
        tail = [float(r["worst_average"]) for r in _read_rows(out / "tail.csv")]
        if any(b > a for a, b in zip(tail, tail[1:])):
            errors.append(f"tail averages increase: {tail}")
        summary = _read_rows(out / "summary.csv")[0]
        mean = math.fsum(costs) / len(costs)
        if abs(float(summary["mean_cost"]) - mean) > 1e-9 * mean:
            errors.append("mean_cost does not match costs.csv")
        self.op(step, check_errors=errors)

    def robustness(self, result, cfg_path):
        import numpy as np

        ws = self.ws
        config = ws.config.load_config(cfg_path)
        reps = config.task.repetitions
        if result["code"] != 0:
            for k in range(reps):
                self.op(f"repetition {k}", result["logs"] + [f"exit code {result['code']}"])
            return
        dist = ws.config.make_distribution(config)
        rows = _read_rows(result["dir"] / "gains.csv")
        gain_cols = [c for c in rows[0] if c.startswith("l_")]
        ok_gains, records = [], []
        for row in rows:
            k = int(row["repetition"])
            if row["status"] != "ok":
                self.op(f"repetition {k}", [row["error"] or f"status {row['status']}"])
                continue
            gain = np.array([float(row[c]) for c in gain_cols]).reshape(
                config.system.m, config.system.n, order="F")
            bank = ws.draw_bank(dist, config.task.robustness_bank_size,
                                ws.derive_seed(config.task.seed, k))
            rho = ws.ms_check(bank, gain).radius_plain
            errors = [] if rho < 1.0 else [f"rho_plain {rho:.6f} is not below 1"]
            ok_gains.append(gain)
            records.append(self.op(f"repetition {k}", check_errors=errors))
        if len(ok_gains) >= 2:
            stacked = np.stack(ok_gains)
            summary = {(int(r["row"]), int(r["col"])): r
                       for r in _read_rows(result["dir"] / "robustness.csv")}
            for (i, j), r in summary.items():
                column = stacked[:, i - 1, j - 1]
                if (abs(float(r["mean"]) - column.mean()) > 1e-9 * abs(column.mean())
                        or abs(float(r["stddev"]) - column.std(ddof=1))
                        > 1e-9 * abs(column.mean())):
                    for rec in records:
                        rec["status"] = "wrong"
                        rec["messages"].append("robustness.csv disagrees with gains.csv")
                    break


def check_pass(ws, steps, results, cfg_paths) -> list[dict]:
    checker = Checker(ws)
    standalone = {}
    for step, command, _ in steps:
        result = results[step]
        if command == "design":
            standalone[step] = checker.design(step, result, cfg_paths[step])
        elif command == "sweep":
            checker.sweep(result, cfg_paths[step], standalone.get("design_fp"))
        elif command == "simulate":
            checker.simulate(step, result)
        else:
            checker.robustness(result, cfg_paths[step])
    fp, newton = standalone.get("design_fp"), standalone.get("design_newton")
    if fp and newton:
        gap = float(abs(fp["gain"] - newton["gain"]).max())
        if gap > 1e-6:
            newton["record"]["status"] = "wrong"
            newton["record"]["messages"].append(
                f"Newton gain differs from fixed-point by {gap:.3e}")
    return checker.ops


# ------------------------------------------------------------------ running

def sha256_outputs(out_dir: Path) -> dict[str, str]:
    return {f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*/*.csv"))}


def run_pass(ws, steps, cfg_paths, work: Path, tracer=None, run_prefix=""):
    """One pass: every step through the CLI, timed. Checks come later, so
    that they are neither timed nor traced."""
    main = ws.cli.main
    results, spans = {}, {}
    capture = LogCapture()
    pkg_log = logging.getLogger("wsriccati")
    pkg_log.addHandler(capture)
    start, cpu_start = time.monotonic(), time.process_time()
    try:
        for step, command, _ in steps:
            out_dir = work / step
            argv = [command, str(cfg_paths[step]), "--output-dir", str(out_dir)]
            capture.messages = []
            t0 = time.monotonic()
            if tracer is None:
                code = main(argv)
            else:
                tracer.run = f"{run_prefix}{step}"
                code = tracer.wrap("cli.main", main)(argv)
            spans[step] = (t0, time.monotonic())
            results[step] = {"code": code, "dir": out_dir, "logs": capture.messages}
    finally:
        pkg_log.removeHandler(capture)
    end = time.monotonic()
    return {"span": (start, end), "wall_s": end - start, "cpu_s": time.process_time() - cpu_start,
            "step_spans": spans, "results": results}


def finish_pass(ws, steps, cfg_paths, work: Path, timed: dict) -> dict:
    results = timed.pop("results")
    return {**timed, "ops": check_pass(ws, steps, results, cfg_paths),
            "sha256": sha256_outputs(work)}


def measure_setup(cfg_paths) -> list[tuple[float, float]]:
    """Fresh interpreter until the package is imported and the configs parsed.

    Returns (start, end) ``time.monotonic()`` readings, one pair per child.
    """
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from wsriccati.config import load_config\n"
        "for path in sys.argv[2:]:\n"
        "    load_config(path)\n"
        "print(time.monotonic())\n"
    )
    argv = [sys.executable, "-c", code, str(SRC)] + [str(p) for p in cfg_paths]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
        samples.append((start, float(done.stdout.strip().splitlines()[-1])))
    return samples


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    for lib in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*.so*"):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(ws, workload, seed, cfg_paths) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workload": workload,
        "workload_seed": seed,
        "design_fingerprint": {
            step: ws.config.design_fingerprint(ws.config.load_config(path))
            for step, path in cfg_paths.items()
        },
    }


def detail_metrics(workload, passes, sizes, seconds) -> dict[str, float]:
    """Per-step metrics; ``seconds(start, end)`` turns an interval into a time."""
    def med(values):
        return statistics.median(values)

    ops = [op for p in passes for op in p["ops"]]
    out = {"failed_share": sum(op["status"] != "ok" for op in ops) / len(ops)}
    if workload == "design-10k":
        for step in ("design_fp", "design_newton", "sweep"):
            out[f"{step}_s"] = med([seconds(*p["step_spans"][step]) for p in passes])
    elif workload == "simulate-10k":
        steps = 2 * sizes["trials"] * sizes["horizon"]
        out["sim_steps_per_s"] = med(
            [steps / sum(seconds(*span) for span in p["step_spans"].values()) for p in passes])
    else:
        out["designs_per_s"] = med(
            [sum(op["status"] == "ok" for op in p["ops"]) / seconds(*p["span"]) for p in passes])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="evaluation seed of simulate-10k and seed of the kernel banks")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, to check the benchmark itself")
    parser.add_argument("--save", type=Path, default=None,
                        help="directory to write the full result record to")
    args = parser.parse_args(argv)

    ws = load_package()
    import wsriccati.cli  # noqa: F401  (binds ws.cli)

    sizes = SMOKE if args.smoke else FULL
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    (work / "configs").mkdir(parents=True)
    try:
        return run(ws, args, sizes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(ws, args, sizes, work: Path) -> int:
    steps = workload_steps(args.workload, args.seed, sizes)
    cfg_paths = {}
    for step, _, config in steps:
        cfg_paths[step] = work / "configs" / f"{step}.yaml"
        cfg_paths[step].write_text(yaml.safe_dump(config, sort_keys=False))

    record = {"provenance": provenance(ws, args.workload, args.seed, cfg_paths),
              "sizes": sizes, "trace": args.trace}
    passes = []
    tracer = None
    with SpeedProbe(work / "probe.log") as probe:
        if args.trace == 0:
            record["setup"] = setup = measure_setup(cfg_paths.values())
            start = time.monotonic()
            while True:
                timed = run_pass(ws, steps, cfg_paths, work)
                if not passes:
                    # Later passes can reuse or grow the allocator's pools, so
                    # the peak is taken over the first pass only.
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                passes.append(finish_pass(ws, steps, cfg_paths, work, timed))
                elapsed = time.monotonic() - start
                longest = max(p["wall_s"] for p in passes)
                if elapsed >= args.seconds or elapsed + 2 * longest > RUN_BUDGET_S:
                    break
        else:
            from spans import Tracer

            passes.append(finish_pass(ws, steps, cfg_paths, work,
                                      run_pass(ws, steps, cfg_paths, work)))
            tracer = Tracer()
            tracer.install()
            try:
                timed = run_pass(ws, steps, cfg_paths, work, tracer,
                                 run_prefix=f"{args.workload}/seed{args.seed}/")
            finally:
                tracer.uninstall()
            passes.append(finish_pass(ws, steps, cfg_paths, work, timed))
    seconds = probe.scale
    for p in passes:
        p["scaled_wall_s"] = seconds(*p["span"])
    ops = [op for p in passes for op in p["ops"]]

    if tracer is None:
        detail_passes = passes
        metrics = {
            "setup_s": (statistics.median(seconds(*span) for span in setup), "s"),
            "wall_s": (statistics.median(p["scaled_wall_s"] for p in passes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_share": (sum(op["status"] == "ok" for op in ops) / len(ops), "ratio"),
        }
    else:
        from kernels import kernel_metrics
        from spans import layer_metrics

        # Only the first, untraced pass is a fair timing.
        detail_passes = passes[:1]
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = (
            passes[1]["scaled_wall_s"] - passes[0]["scaled_wall_s"], "s")
        config = ws.config.load_config(next(iter(cfg_paths.values())))
        metrics.update(kernel_metrics(ws.config.make_distribution(config),
                                      COST["q"], COST["r"], args.seed))

    hashes = {json.dumps(p["sha256"], sort_keys=True) for p in passes}
    correct = all(op["status"] != "wrong" for op in ops) and len(hashes) == 1
    detail = detail_metrics(args.workload, detail_passes, sizes, seconds)
    record.update(passes=passes, detail=detail, correct=correct,
                  outputs_reproducible=len(hashes) == 1)
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(op["status"] != "ok" for op in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
        (args.save / name).write_text(json.dumps(record, indent=1, default=str))

    prov = record["provenance"]
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} commit={prov['git_commit']} "
          f"nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} "
          f"scipy={prov['scipy']} blas='{prov['blas']}' blas_threads={prov['blas_threads']}")
    print("# " + " ".join(f"{k}={v:.6g} {DETAIL_UNITS[k]}" for k, v in detail.items()))
    for op in ops:
        if op["status"] != "ok":
            print(f"# {op['status']}: {op['op']}: {'; '.join(op['messages'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
