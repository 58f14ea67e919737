#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

Usage:

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records ``run.py --save DIR`` writes, one per run.
For every workload and metric it prints each side's median and quartiles,
the ratio change/base, and a verdict under the metric's bound from
BENCHMARK.json:

- ``improved``: the change wins at least nine tenths of all (base, change)
  pairs and its median is better by more than the base's quartile spread;
- ``worse``: the median got worse by more than the bound;
- ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the bound (unless every change run beats every base run);
- ``within bound`` otherwise.

Per-step metrics of one workload (``design_fp_s`` ...) take the bound of
``wall_s``; ``failed_share`` may not grow at all. Per-layer metrics of
traced runs have no bound: they are listed with their ratio, and counts that
do not repeat exactly across all runs are flagged.
It also reports when the output files of a workload and seed differ in bytes.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Per-step metric -> (better, end-to-end metric whose bound it takes).
DETAIL = {
    "design_fp_s": ("lower", "wall_s"),
    "design_newton_s": ("lower", "wall_s"),
    "sweep_s": ("lower", "wall_s"),
    "sim_steps_per_s": ("higher", "wall_s"),
    "designs_per_s": ("higher", "wall_s"),
    "failed_share": ("lower", None),
}


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    # Positive gain means the change reads better.
    gain = sign * (bm - cm)
    if bm == 0.0:
        worsening = 0.0 if cm == 0.0 else float("inf") * (-1 if gain > 0 else 1)
    else:
        worsening = -gain / abs(bm)
    pairs = [(b, c) for b in base for c in change]
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    all_better = wins == len(pairs)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if wins >= 0.9 * len(pairs) and gain > (b3 - b1) and (all_better or spread <= bound):
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    return "worse" if worsening > bound else "within bound"


def collect(records, trace: int) -> dict:
    """workload -> metric -> values, for records of one trace mode."""
    out: dict[str, dict[str, list[float]]] = {}
    for rec in records:
        if rec["trace"] != trace:
            continue
        metrics = out.setdefault(rec["provenance"]["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        if trace == 0:
            for name, value in rec["detail"].items():
                metrics.setdefault(name, []).append(value)
    return out


def output_hashes(records) -> dict:
    out = {}
    for rec in records:
        key = (rec["provenance"]["workload"], rec["provenance"]["workload_seed"])
        for p in rec["passes"]:
            out.setdefault(key, {}).update(p["sha256"])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base_records, change_records = load(Path(argv[0])), load(Path(argv[1]))

    base, change = collect(base_records, 0), collect(change_records, 0)
    row = "{:<14} {:<16} {:>12} {:>25} {:>12} {:>25} {:>7}  {}"
    print(row.format("workload", "metric", "base", "[q1, q3]", "change", "[q1, q3]",
                     "ratio", "verdict"))
    for workload in sorted(set(base) & set(change)):
        names = set(base[workload]) & set(change[workload]) & (set(e2e) | set(DETAIL))
        for name in sorted(names):
            if name in e2e:
                better, bound = e2e[name]["better"], e2e[name]["bound"]
            else:
                better, ref = DETAIL[name]
                bound = e2e[ref]["bound"] if ref else 0.0
            bq, cq = quartiles(base[workload][name]), quartiles(change[workload][name])
            ratio = f"{cq[1] / bq[1]:.3f}" if bq[1] else "-"
            print(row.format(
                workload, name, f"{bq[1]:.6g}", f"[{bq[0]:.6g}, {bq[2]:.6g}]",
                f"{cq[1]:.6g}", f"[{cq[0]:.6g}, {cq[2]:.6g}]", ratio,
                verdict(base[workload][name], change[workload][name], better, bound)))

    base_t, change_t = collect(base_records, 1), collect(change_records, 1)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in sorted(set(base_t) & set(change_t)):
        print(f"\nper-layer, {workload} (traced runs; no bound)")
        for name in sorted(set(base_t[workload]) & set(change_t[workload])):
            bm = statistics.median(base_t[workload][name])
            cm = statistics.median(change_t[workload][name])
            ratio = f"{cm / bm:.3f}" if bm else "-"
            values = set(base_t[workload][name]) | set(change_t[workload][name])
            flag = "  counts differ" if units.get(name) == "count" and len(values) > 1 else ""
            print(f"  {name:<46} {bm:>14.6g} {cm:>14.6g} {ratio:>7}{flag}")

    base_h, change_h = output_hashes(base_records), output_hashes(change_records)
    for key in sorted(set(base_h) & set(change_h)):
        differ = sorted(f for f in base_h[key] if change_h[key].get(f) != base_h[key][f])
        if differ:
            print(f"\noutput bytes differ for {key[0]} seed {key[1]}: {', '.join(differ)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
