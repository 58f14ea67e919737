"""Isolated per-call timings of the hot layers at bank sizes 2k and 10k.

Each kernel is a call into one public function of the package, timed after
a warm-up; the reported value is the median over repeats. Comparing the 2k
and 10k figures separates the per-sample cost from the fixed per-call cost.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import wsriccati as ws

SIZES = {"n2k": 2_000, "n10k": 10_000}
WARMUP = 2
REPEATS = 9
TRIAL_BATCH = 200
HORIZON = 300

# The RRSL theta = 1 design on the example config's 10k bank (seed 12345),
# frozen so that no solve runs here.
VALUE = np.array([[834.4803348987513, 254.47206455317774],
                  [254.47206455317774, 684.926809725252]])
GAIN = np.array([[6.683243074124488, 7.448763532065042]])
# The exponential weight overflows at theta = 1 on these costs; this is the
# RSL sensitivity the package's acceptance suite uses.
RSL_THETA = 0.00125


def _median_ms(fn) -> float:
    for _ in range(WARMUP):
        fn()
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(samples)


def kernel_metrics(dist, q, r, seed: int) -> dict[str, tuple[float, str]]:
    q, r = np.asarray(q, dtype=float), np.asarray(r, dtype=float)
    rrsl = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    rsl = ws.WeightSpec(family="RSL", theta=RSL_THETA)
    z = ws.pack_solution(VALUE, GAIN)
    out: dict[str, tuple[float, str]] = {}
    for label, size in SIZES.items():
        bank = ws.draw_bank(dist, size, seed)
        problem = ws.DesignProblem(bank=bank, q=q, r=r, weights=rrsl)
        wbank = ws.build_weighted_bank(bank, rrsl, 1.0, GAIN, VALUE, q, r)
        calls = {
            "value_map": lambda: ws.value_map(VALUE, GAIN, problem),
            "weight_vector_rrsl": lambda: ws.weight_vector(bank, rrsl, 1.0, GAIN, VALUE, q, r),
            "weight_vector_rsl": lambda: ws.weight_vector(
                bank, rsl, RSL_THETA, GAIN, VALUE, q, r),
            "implicit_residual": lambda: ws.implicit_residual(z, problem),
            "residual_jacobian": lambda: ws.residual_jacobian(z, problem),
            "ms_check": lambda: ws.ms_check(bank, GAIN),
            "wms_check": lambda: ws.wms_check(wbank, GAIN),
        }
        for name, fn in calls.items():
            out[f"kernel.{name}.{label}_ms"] = (_median_ms(fn), "ms")

    def trials():
        for k in range(TRIAL_BATCH):
            dist.draw(ws.stream_rng(seed, k), HORIZON)

    out["kernel.trial_draw.us"] = (1000.0 * _median_ms(trials) / TRIAL_BATCH, "us")
    return out
