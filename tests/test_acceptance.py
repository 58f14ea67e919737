"""Acceptance suite: one test per release criterion, with a PASS/FAIL line
printed for each. Run with `pytest tests/test_acceptance.py -v -s`.

All criteria use the two-state benchmark system (nearly unstable mean
drift, weak control authority, 10 percent parameter spread) with Q = 3 I,
R = 1, and the sigmoid weight parameters alpha = 10, beta = 11.
"""

import time

import numpy as np
import pytest
import yaml

import wsriccati as ws
from wsriccati.cli import main as cli_main

from reference import (
    analytic_jacobian_theta0,
    duplication_matrix,
    elimination_matrix,
    point_mass,
)

MEAN_A = [[0.97, -0.03], [0.1, 1.03]]
MEAN_B = [[0.005], [0.01]]
Q2 = 3.0 * np.eye(2)
R1 = np.array([[1.0]])
FIXED_SEED = 12345
BANK_SIZE = 10_000
THETA_GRID = tuple(round(0.1 * k, 1) for k in range(11))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def dist():
    return ws.build_distribution(
        2, 1, MEAN_A, MEAN_B,
        family_a="normal", family_b="laplace", stddev_scale=0.1,
    )


@pytest.fixture(scope="module")
def bank(dist):
    return ws.draw_bank(dist, BANK_SIZE, seed=FIXED_SEED)


@pytest.fixture(scope="module")
def problem(bank):
    spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    return ws.DesignProblem(bank=bank, q=Q2, r=R1, weights=spec)


@pytest.fixture(scope="module")
def fp_solutions(problem):
    """Fixed-point solutions on the shared bank, cached per theta."""
    cache: dict[float, ws.DesignSolution] = {}

    def get(theta: float) -> ws.DesignSolution:
        if theta not in cache:
            cache[theta] = ws.fixed_point_solve(problem.with_theta(theta))
        return cache[theta]

    return get


# ---------------------------------------------------------------------------


def dare_fixed_point_oracle(a, b, q, r, iters=500_000, tol=1e-14):
    """Independent textbook value iteration for the deterministic equation."""
    a, b, q, r = (np.asarray(x, dtype=float) for x in (a, b, q, r))
    p = np.zeros_like(q)
    for _ in range(iters):
        gain = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
        new_p = a.T @ p @ a + q - a.T @ p @ b @ gain
        new_p = (new_p + new_p.T) / 2
        if np.linalg.norm(new_p - p) < tol:
            return new_p
        p = new_p
    raise AssertionError("oracle did not converge")


def test_criterion_1_deterministic_reduction():
    start = time.perf_counter()
    point = point_mass(MEAN_A, MEAN_B)
    bank0 = ws.draw_bank(point, 4, seed=0)
    sol = ws.fixed_point_solve(
        ws.DesignProblem(bank=bank0, q=Q2, r=R1, weights=ws.WeightSpec(family="RN"))
    )
    p_ref = dare_fixed_point_oracle(MEAN_A, MEAN_B, Q2, R1)
    frob = float(np.linalg.norm(sol.value - p_ref))

    scalar = point_mass([[0.5]], [[1.0]])
    scalar_bank = ws.draw_bank(scalar, 4, seed=0)
    scalar_sol = ws.fixed_point_solve(
        ws.DesignProblem(
            bank=scalar_bank, q=[[1.0]], r=[[1.0]], weights=ws.WeightSpec(family="RN")
        )
    )
    closed_form = (0.25 + np.sqrt(4.0625)) / 2.0
    scalar_err = abs(scalar_sol.value[0, 0] - closed_form)
    elapsed = time.perf_counter() - start

    ok = frob <= 1e-8 and scalar_err <= 1e-6 and elapsed < 1.0
    _report(1, ok, f"DARE match {frob:.2e}, scalar error {scalar_err:.2e}, "
                   f"{elapsed:.2f}s")
    assert frob <= 1e-8
    assert scalar_err <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_unweighted_stochastic_reduction(problem, bank):
    start = time.perf_counter()
    sol = ws.fixed_point_solve(problem.with_theta(0.0))
    elapsed = time.perf_counter() - start
    z = ws.pack_solution(sol.value, sol.gain)
    residual = float(np.linalg.norm(ws.implicit_residual(z, problem.with_theta(0.0))))
    floor_eig = float(np.linalg.eigvalsh(sol.value - Q2).min())
    rho = ws.ms_check(bank, sol.gain).radius_plain

    ok = residual < 1e-8 and floor_eig >= -1e-8 and rho < 1.0 and elapsed < 30.0
    _report(2, ok, f"residual {residual:.2e}, min eig(P - Q) {floor_eig:.2e}, "
                   f"rho_plain {rho:.4f}, {elapsed:.1f}s")
    assert residual < 1e-8
    assert floor_eig >= -1e-8
    assert rho < 1.0
    assert elapsed < 30.0


def test_criterion_3_cross_method_agreement(problem, fp_solutions):
    start = time.perf_counter()
    base = fp_solutions(0.0)
    z0 = ws.pack_solution(base.value, base.gain)
    worst_value = worst_gain = 0.0
    for theta in (0.2, 0.5, 1.0):
        fp = fp_solutions(theta)
        newton = ws.newton_solve(problem.with_theta(theta), z0=z0)
        worst_value = max(worst_value, float(np.linalg.norm(newton.value - fp.value)))
        worst_gain = max(worst_gain, float(np.linalg.norm(newton.gain - fp.gain)))
    elapsed = time.perf_counter() - start

    ok = worst_value <= 1e-6 and worst_gain <= 1e-6 and elapsed < 120.0
    _report(3, ok, f"max value diff {worst_value:.2e}, max gain diff "
                   f"{worst_gain:.2e}, {elapsed:.1f}s")
    assert worst_value <= 1e-6
    assert worst_gain <= 1e-6
    assert elapsed < 120.0


def test_criterion_4_convergence_profile(fp_solutions):
    sol = fp_solutions(1.0)
    deltas = np.asarray(sol.deltas)
    below = np.nonzero(deltas < 1e-6)[0]
    first = int(below[0]) + 1 if below.size else len(deltas) + 1

    ok = first < 300
    # A run that converges in fewer than 300 iterations has no delta at 300.
    at_300 = (f"{deltas[299]:.2e}" if deltas.size >= 300
              else f"none, converged in {deltas.size} iterations")
    _report(4, ok, f"delta fell below 1e-6 at iteration {first} "
                   f"(delta at 300: {at_300})")
    assert first < 300, (
        f"the per-iteration delta first fell below 1e-6 at iteration {first}, "
        f"not before 300; the fixed-point contraction rate on this system is "
        f"about 0.94-0.96 per iteration, which makes roughly 400+ iterations "
        f"unavoidable (see notes/decisions.md)"
    )


def test_criterion_5_stability_sweep(problem, bank, fp_solutions):
    worst_plain = worst_weighted = 0.0
    for theta in THETA_GRID:
        sol = fp_solutions(theta)
        plain = ws.ms_check(bank, sol.gain).radius_plain
        wbank = ws.build_weighted_bank(
            bank, problem.weights, theta, sol.gain, sol.value, Q2, R1
        )
        weighted = ws.wms_check(wbank, sol.gain).radius_weighted
        worst_plain = max(worst_plain, plain)
        worst_weighted = max(worst_weighted, weighted)

    ok = worst_plain < 1.0 and worst_weighted < 1.0
    _report(5, ok, f"max rho_plain {worst_plain:.4f}, max rho_weighted "
                   f"{worst_weighted:.4f} over theta grid {THETA_GRID}")
    assert worst_plain < 1.0
    assert worst_weighted < 1.0


def test_criterion_6_gain_dispersion(dist):
    start = time.perf_counter()
    sigmoid_spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    exp_spec = ws.WeightSpec(family="RSL", theta=0.00125)
    sigmoid = ws.robustness_study(
        dist, Q2, R1, sigmoid_spec, repetitions=20, bank_size=2_000, base_seed=42
    )
    exponential = ws.robustness_study(
        dist, Q2, R1, exp_spec, repetitions=20, bank_size=2_000, base_seed=42
    )
    elapsed = time.perf_counter() - start
    strictly_smaller = bool(
        np.all(sigmoid.gain_stddev < exponential.gain_stddev)
    )

    ok = strictly_smaller and elapsed < 300.0
    _report(6, ok, f"sigmoid stddev {np.round(sigmoid.gain_stddev.ravel(), 4)} < "
                   f"exponential stddev {np.round(exponential.gain_stddev.ravel(), 4)}"
                   f" per entry: {strictly_smaller}, {elapsed:.1f}s")
    assert not sigmoid.failures and not exponential.failures
    assert strictly_smaller
    assert elapsed < 300.0


def test_criterion_7_tail_risk_reduction(dist, fp_solutions):
    start = time.perf_counter()
    neutral = fp_solutions(0.0)
    averse = fp_solutions(1.0)
    x0 = [1.0, 1.0]
    mc_neutral = ws.mc_cost_study(
        dist, neutral.gain, Q2, R1, x0, 300, 10_000, [10.0], seed=7
    )
    mc_averse = ws.mc_cost_study(
        dist, averse.gain, Q2, R1, x0, 300, 10_000, [10.0], seed=7
    )
    elapsed = time.perf_counter() - start
    tail_neutral = mc_neutral.tail_averages[0][1]
    tail_averse = mc_averse.tail_averages[0][1]

    ok = tail_averse < tail_neutral and elapsed < 300.0
    _report(7, ok, f"worst-10% averages: risk-averse {tail_averse:.1f} vs "
                   f"risk-neutral {tail_neutral:.1f}, {elapsed:.1f}s")
    assert tail_averse < tail_neutral
    assert elapsed < 300.0


def test_criterion_8_property_suite(problem, bank, fp_solutions):
    failures = []

    # (a) weight normalization at the solved risk-averse policy
    averse = fp_solutions(1.0)
    wbank = ws.build_weighted_bank(
        bank, problem.weights, 1.0, averse.gain, averse.value, Q2, R1
    )
    norm_err = abs(float(wbank.weights.mean()) - 1.0)
    if norm_err > 1e-12:
        failures.append(f"weight normalization off by {norm_err:.2e}")

    # (b) zero sensitivity gives exactly unit weights
    zero_bank = ws.build_weighted_bank(
        bank, problem.weights, 0.0, averse.gain, averse.value, Q2, R1
    )
    if not np.all(zero_bank.weights == 1.0):
        failures.append("theta=0 weights are not exactly one")

    # (c) every iterate after the first dominates the state cost
    traced = ws.fixed_point_solve(problem, ws.SolverOptions(fp_tol=1e-8, trace=True))
    for s, value, _gain, _delta, _res in traced.trace:
        if s >= 1 and np.linalg.eigvalsh(value - Q2).min() < -1e-8:
            failures.append(f"iterate {s} lost the value floor")
            break

    # (d) half-vectorization identities are exact
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        dn = duplication_matrix(n)
        ln = elimination_matrix(n)
        s = rng.standard_normal((n, n))
        s = s + s.T
        if np.abs(dn @ ws.vech(s) - ws.vec(s)).max() > 1e-14:
            failures.append(f"duplication identity broke at n={n}")
        if np.abs(ln @ ws.vec(s) - ws.vech(s)).max() > 1e-14:
            failures.append(f"elimination identity broke at n={n}")
        if np.abs(ln @ dn - np.eye(n * (n + 1) // 2)).max() > 1e-14:
            failures.append(f"product identity broke at n={n}")

    # (e) closed-form Jacobian agrees with central differences at theta=0
    base = fp_solutions(0.0)
    z = ws.pack_solution(base.value, base.gain)
    zero_problem = problem.with_theta(0.0)
    j_fd = ws.residual_jacobian(z, zero_problem)
    j_an = analytic_jacobian_theta0(z, zero_problem)
    jac_err = float(np.abs(j_fd - j_an).max())
    if jac_err > 1e-5:
        failures.append(f"Jacobian mismatch {jac_err:.2e}")

    # (f) spectral verdict matches the contraction test on 50 random cases
    rng = np.random.default_rng(505)
    stable_count = unstable_count = 0
    for case in range(50):
        a = rng.standard_normal((300, 2, 2)) * 0.6
        b = rng.standard_normal((300, 2, 1)) * 0.3
        gain = rng.standard_normal((1, 2)) * 0.2
        raw_bank = ws.SampleBank(a=a, b=b)
        rho = ws.ms_check(raw_bank, gain).radius_plain
        target = float(rng.uniform(0.2, 0.8)) if case % 2 == 0 else float(
            rng.uniform(1.2, 2.5)
        )
        factor = np.sqrt(target / rho)
        case_bank = ws.SampleBank(a=factor * a, b=factor * b)
        report = ws.ms_check(case_bank, gain)
        closed = case_bank.a - np.matmul(case_bank.b, gain)
        s = np.eye(2)
        verdict = None
        for _ in range(200):
            s = np.einsum("sji,jk,skl->il", closed, s, closed) / case_bank.size
            norm = float(np.linalg.norm(s))
            if norm < 1e-10:
                verdict = True
                break
            if norm > 1e10:
                verdict = False
                break
        if verdict is None:
            failures.append(f"case {case}: contraction test inconclusive")
        elif verdict != report.ms_stable:
            failures.append(
                f"case {case}: contraction test {verdict} but radius "
                f"{report.radius_plain:.3f}"
            )
        stable_count += report.ms_stable
        unstable_count += not report.ms_stable
    if not (stable_count and unstable_count):
        failures.append("random cases did not cover both verdicts")

    ok = not failures
    _report(8, ok, "all properties hold" if ok else "; ".join(failures))
    assert not failures, failures


def test_criterion_9_sweep_determinism(tmp_path):
    config = {
        "system": {
            "n": 2, "m": 1, "mean_a": MEAN_A, "mean_b": MEAN_B,
            "family_a": "normal", "family_b": "laplace", "stddev_scale": 0.1,
        },
        "cost": {"q": [[3.0, 0.0], [0.0, 3.0]], "r": [[1.0]]},
        "weight": {"family": "RRSL", "theta": 1.0, "alpha": 10.0, "beta": 11.0},
        "solver": {"method": "fixed-point", "bank_size": 2_000, "seed": FIXED_SEED},
        "task": {"theta_grid": [0.0, 0.5, 1.0]},
        "output_dir": str(tmp_path / "a"),
    }
    cfg_a = tmp_path / "a.yaml"
    cfg_a.write_text(yaml.safe_dump(config))
    cfg_b = tmp_path / "b.yaml"
    cfg_b.write_text(yaml.safe_dump({**config, "output_dir": str(tmp_path / "b")}))

    assert cli_main(["sweep", str(cfg_a)]) == 0
    assert cli_main(["sweep", str(cfg_b)]) == 0
    bytes_a = (tmp_path / "a" / "sweep.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "sweep.csv").read_bytes()

    ok = bytes_a == bytes_b
    _report(9, ok, f"sweep outputs identical: {ok} ({len(bytes_a)} bytes)")
    assert ok
