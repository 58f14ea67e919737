import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsriccati as ws
from wsriccati import (
    ConfigurationError,
    ConvergenceError,
    DomainViolationError,
    NumericalError,
    riccati,
)

import reference
from conftest import MEAN_A, MEAN_B, Q2, R1, scalar_closed_form
from reference import point_mass


# ---------------------------------------------------------------------------
# independent oracles (straight-line numpy, no package solver code)
# ---------------------------------------------------------------------------

def dare_fixed_point_oracle(a, b, q, r, iters=200_000, tol=1e-13):
    """Textbook Riccati value iteration on deterministic matrices."""
    p = np.zeros_like(q)
    for _ in range(iters):
        gain = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
        new_p = a.T @ p @ a + q - a.T @ p @ b @ gain
        new_p = (new_p + new_p.T) / 2
        if np.linalg.norm(new_p - p) < tol:
            return new_p, gain
        p = new_p
    raise AssertionError("oracle iteration did not converge")


def stochastic_maps_oracle(bank, p, gain, q, r):
    """Per-sample loop evaluation of the unweighted value and gain maps."""
    n, m = bank.n, bank.m
    eapa = np.zeros((n, n))
    eapb = np.zeros((n, m))
    ebpb = np.zeros((m, m))
    ebpa = np.zeros((m, n))
    for idx in range(bank.size):
        a_i, b_i = bank.a[idx], bank.b[idx]
        eapa += a_i.T @ p @ a_i
        eapb += a_i.T @ p @ b_i
        ebpb += b_i.T @ p @ b_i
        ebpa += b_i.T @ p @ a_i
    eapa /= bank.size
    eapb /= bank.size
    ebpb /= bank.size
    ebpa /= bank.size
    new_gain = np.linalg.solve(ebpb + r, ebpa)
    new_p = eapa + q - eapb @ new_gain
    return (new_p + new_p.T) / 2, new_gain


# ---------------------------------------------------------------------------
# scalar deterministic reductions
# ---------------------------------------------------------------------------

def test_scalar_gain_map_at_root(scalar_problem):
    value, gain = scalar_closed_form()
    got = reference.gain_map([[value]], [[gain]], scalar_problem)
    assert got[0, 0] == pytest.approx(gain, abs=1e-10)


def test_scalar_value_map_fixed_point(scalar_problem):
    value, gain = scalar_closed_form()
    got = ws.value_map([[value]], [[gain]], scalar_problem)
    assert got[0, 0] == pytest.approx(value, abs=1e-10)


def test_gain_map_at_zero_value(scalar_problem):
    got = reference.gain_map(np.zeros((1, 1)), np.zeros((1, 1)), scalar_problem)
    assert got[0, 0] == 0.0


def test_value_map_at_zero_value(scalar_problem):
    got = ws.value_map(np.zeros((1, 1)), np.zeros((1, 1)), scalar_problem)
    assert got[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_scalar_fixed_point_matches_closed_form(scalar_problem):
    sol = ws.fixed_point_solve(scalar_problem)
    value, gain = scalar_closed_form()
    assert sol.value[0, 0] == pytest.approx(value, abs=1e-9)
    assert sol.gain[0, 0] == pytest.approx(gain, abs=1e-9)
    assert sol.residual <= 1e-8


def test_scalar_residual_at_root(scalar_problem):
    value, gain = scalar_closed_form()
    z = ws.pack_solution([[value]], [[gain]])
    res = ws.implicit_residual(z, scalar_problem)
    assert np.abs(res).max() <= 1e-10


def test_residual_at_origin_is_cost_block(scalar_problem):
    res = ws.implicit_residual(np.zeros(2), scalar_problem)
    assert res[0] == pytest.approx(1.0, abs=1e-15)  # vech(Q) for q=1
    assert res[1] == 0.0


def test_scalar_newton_from_origin(scalar_problem):
    sol = ws.newton_solve(scalar_problem, z0=np.zeros(2))
    value, gain = scalar_closed_form()
    assert sol.value[0, 0] == pytest.approx(value, abs=1e-9)
    assert sol.gain[0, 0] == pytest.approx(gain, abs=1e-9)


# ---------------------------------------------------------------------------
# stochastic reductions at zero sensitivity
# ---------------------------------------------------------------------------

def test_zero_covariance_matches_textbook_dare():
    dist = point_mass(MEAN_A, MEAN_B)
    bank = ws.draw_bank(dist, 4, seed=0)
    problem = ws.DesignProblem(
        bank=bank, q=Q2, r=R1, weights=ws.WeightSpec(family="RN")
    )
    sol = ws.fixed_point_solve(problem)
    p_ref, gain_ref = dare_fixed_point_oracle(
        np.asarray(MEAN_A), np.asarray(MEAN_B), Q2, R1
    )
    assert np.linalg.norm(sol.value - p_ref) <= 1e-8
    assert np.linalg.norm(sol.gain - gain_ref) <= 1e-8


def test_maps_match_straight_line_oracle(benchmark_dist):
    bank = ws.draw_bank(benchmark_dist, 150, seed=44)
    problem = ws.DesignProblem(
        bank=bank, q=Q2, r=R1, weights=ws.WeightSpec(family="RN")
    )
    rng = np.random.default_rng(8)
    p = rng.standard_normal((2, 2))
    p = p @ p.T + np.eye(2)
    gain = rng.standard_normal((1, 2))
    f_ref, g_ref = stochastic_maps_oracle(bank, p, gain, Q2, R1)
    assert np.abs(ws.value_map(p, gain, problem) - f_ref).max() <= 1e-10
    assert np.abs(reference.gain_map(p, gain, problem) - g_ref).max() <= 1e-10


def test_theta_zero_families_agree(bank2k, rrsl_spec):
    rn_problem = ws.DesignProblem(
        bank=bank2k, q=Q2, r=R1, weights=ws.WeightSpec(family="RN")
    )
    weighted_problem = ws.DesignProblem(
        bank=bank2k, q=Q2, r=R1, weights=rrsl_spec
    ).with_theta(0.0)
    p = 10.0 * np.eye(2)
    gain = np.array([[1.0, 2.0]])
    assert np.array_equal(
        reference.gain_map(p, gain, rn_problem), reference.gain_map(p, gain, weighted_problem)
    )
    assert np.array_equal(
        ws.value_map(p, gain, rn_problem), ws.value_map(p, gain, weighted_problem)
    )


def test_stochastic_fixed_point_against_loop_oracle(benchmark_dist):
    bank = ws.draw_bank(benchmark_dist, 150, seed=44)
    problem = ws.DesignProblem(
        bank=bank, q=Q2, r=R1, weights=ws.WeightSpec(family="RN")
    )
    sol = ws.fixed_point_solve(problem)
    p = np.zeros((2, 2))
    gain = np.zeros((1, 2))
    for _ in range(20_000):
        new_p, new_gain = stochastic_maps_oracle(bank, p, gain, Q2, R1)
        if np.linalg.norm(new_p - p) + np.linalg.norm(new_gain - gain) < 1e-12:
            break
        p, gain = new_p, new_gain
    assert np.linalg.norm(sol.value - p) <= 1e-8
    assert np.linalg.norm(sol.gain - gain) <= 1e-8


# ---------------------------------------------------------------------------
# weighted fixed point on the benchmark system
# ---------------------------------------------------------------------------

def test_weighted_fixed_point_converges(rrsl_solution_2k, rrsl_problem_2k):
    sol = rrsl_solution_2k
    assert sol.residual <= 1e-8
    assert np.linalg.eigvalsh(sol.value - Q2).min() >= -1e-8
    # self-consistency of the converged pair under both maps
    assert np.abs(
        ws.value_map(sol.value, sol.gain, rrsl_problem_2k) - sol.value
    ).max() <= 1e-8
    assert np.abs(
        reference.gain_map(sol.value, sol.gain, rrsl_problem_2k) - sol.gain
    ).max() <= 1e-8


def test_iterates_dominate_state_cost(rrsl_problem_2k):
    sol = ws.fixed_point_solve(rrsl_problem_2k, ws.SolverOptions(fp_tol=1e-8), record_trace=True)
    assert sol.trace is not None
    for s, value, _gain, _delta, _res in sol.trace:
        if s == 0:
            continue
        assert np.linalg.eigvalsh(value - Q2).min() >= -1e-8, f"iterate {s}"


def test_monotone_deltas_reach_tolerance(rrsl_solution_2k):
    deltas = np.asarray(rrsl_solution_2k.deltas)
    assert deltas[-1] < 1e-10
    assert rrsl_solution_2k.iterations == len(deltas)


def test_fixed_point_divergence_reports_history(rrsl_problem_2k):
    with pytest.raises(ConvergenceError) as info:
        ws.fixed_point_solve(rrsl_problem_2k, ws.SolverOptions(fp_max_iters=5))
    assert info.value.history is not None
    assert len(info.value.history) == 5


def test_domain_violation_reported_with_eigenvalue(bank2k):
    problem = ws.DesignProblem(
        bank=bank2k, q=Q2, r=R1, weights=ws.WeightSpec(family="RN")
    )
    with pytest.raises(DomainViolationError) as info:
        reference.gain_map(-1e9 * np.eye(2), np.zeros((1, 2)), problem)
    assert info.value.smallest_eigenvalue is not None
    assert info.value.smallest_eigenvalue < 0


def test_problem_validation(bank2k):
    with pytest.raises(ConfigurationError):
        ws.DesignProblem(
            bank=bank2k, q=-np.eye(2), r=R1, weights=ws.WeightSpec(family="RN")
        )
    with pytest.raises(ConfigurationError):
        ws.DesignProblem(
            bank=bank2k, q=Q2, r=np.zeros((1, 1)), weights=ws.WeightSpec(family="RN")
        )


# Banks of the 2k robustness studies on which plain iteration fails or crawls:
# at base seed 7, repetitions 11 and 13 wander at deltas of 0.04-0.08 until
# the 10,000-iteration cap; the RSL banks need several hundred iterations,
# and on repetition 7 Anderson mixing without the residual-decrease
# safeguard stalls at deltas of order 1.
HARD_BANKS = [
    pytest.param(
        ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0), 7, 11,
        id="RRSL-seed7-rep11",
    ),
    pytest.param(
        ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0), 7, 13,
        id="RRSL-seed7-rep13",
    ),
    pytest.param(ws.WeightSpec(family="RSL", theta=0.00125), 42, 0, id="RSL-seed42-rep0"),
    pytest.param(ws.WeightSpec(family="RSL", theta=0.00125), 42, 7, id="RSL-seed42-rep7"),
]


@pytest.mark.parametrize("spec, base_seed, index", HARD_BANKS)
def test_accelerated_fixed_point_on_hard_banks(
    benchmark_dist, monkeypatch, spec, base_seed, index
):
    bank = ws.draw_bank(benchmark_dist, 2_000, ws.derive_seed(base_seed, index))
    problem = ws.DesignProblem(bank=bank, q=Q2, r=R1, weights=spec)
    calls = []
    stacked_maps = riccati._stacked_maps

    def counted_maps(problems, *args):
        calls.extend(problems)
        return stacked_maps(problems, *args)

    monkeypatch.setattr(riccati, "_stacked_maps", counted_maps)
    sol = ws.fixed_point_solve(problem)
    evaluations = len(calls)
    assert evaluations > 0
    assert sol.deltas[-1] < ws.SolverOptions().fp_tol
    assert np.linalg.eigvalsh(sol.value - Q2).min() >= -1e-8
    newton = ws.newton_solve(problem)
    assert np.linalg.norm(sol.value - newton.value) <= 1e-6
    assert np.linalg.norm(sol.gain - newton.gain) <= 1e-6

    # Plain iteration from the same start, given as many map evaluations,
    # has not reached the tolerance.
    value, gain = np.zeros((2, 2)), np.zeros((1, 2))
    calls.clear()
    while len(calls) < evaluations:
        new_value, new_gain = reference._maps(problem, value, gain)
        delta = np.linalg.norm(new_value - value) + np.linalg.norm(new_gain - gain)
        value, gain = new_value, new_gain
        assert delta >= ws.SolverOptions().fp_tol, f"plain iteration converged in {len(calls)}"


def test_postcondition_rejects_value_below_state_cost():
    # Positive definite, but P - Q is not positive semidefinite: not the
    # stabilizing root of the equations.
    with pytest.raises(NumericalError, match="stabilizing root"):
        riccati._check_stabilizing(np.diag([4.0, 2.0]), Q2, "test")
    riccati._check_stabilizing(np.diag([4.0, 3.0]), Q2, "test")


# ---------------------------------------------------------------------------
# residual Jacobian
# ---------------------------------------------------------------------------

def test_jacobian_analytic_matches_finite_difference(rn_solution_2k, rrsl_problem_2k):
    problem = rrsl_problem_2k.with_theta(0.0)
    z = ws.pack_solution(rn_solution_2k.value, rn_solution_2k.gain)
    j_fd = ws.residual_jacobian(z, problem)
    j_an = reference.analytic_jacobian_theta0(z, problem)
    assert np.abs(j_fd - j_an).max() <= 1e-5


def test_jacobian_analytic_matches_fd_off_root(rrsl_problem_2k):
    problem = rrsl_problem_2k.with_theta(0.0)
    rng = np.random.default_rng(77)
    p = rng.standard_normal((2, 2))
    p = p @ p.T + 5.0 * np.eye(2)
    gain = rng.standard_normal((1, 2))
    z = ws.pack_solution(p, gain)
    j_fd = ws.residual_jacobian(z, problem)
    j_an = reference.analytic_jacobian_theta0(z, problem)
    assert np.abs(j_fd - j_an).max() <= 1e-5


def test_jacobian_gain_block_vanishes_at_root(rn_solution_2k, rrsl_problem_2k):
    problem = rrsl_problem_2k.with_theta(0.0)
    z = ws.pack_solution(rn_solution_2k.value, rn_solution_2k.gain)
    jac = reference.analytic_jacobian_theta0(z, problem)
    head = 3  # vech dimension for n=2
    assert np.abs(jac[:head, head:]).max() <= 1e-6


def test_jacobian_input_block_structure(rn_solution_2k, rrsl_problem_2k, bank2k):
    problem = rrsl_problem_2k.with_theta(0.0)
    z = ws.pack_solution(rn_solution_2k.value, rn_solution_2k.gain)
    jac = reference.analytic_jacobian_theta0(z, problem)
    ebpb = reference.expect(bank2k, lambda a, b: b.T @ rn_solution_2k.value @ b)
    block = np.kron(np.eye(2), ebpb + R1)
    assert np.abs(jac[3:, 3:] - block).max() <= 1e-10


@st.composite
def theta0_jacobian_cases(draw):
    """A random system of point, normal and Laplace entries at theta = 0.

    Returns the problem on a bank of 300 to 600 draws, a random positive
    semidefinite value P and a small gain L.
    """
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    entries = st.sampled_from(["point", "normal", "laplace"])
    family_a = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    family_b = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    size = draw(st.integers(300, 600))
    family = draw(st.sampled_from(["RN", "RSL", "RRSL"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mean_a, mean_b = 0.6 * rng.standard_normal((n, n)), 0.6 * rng.standard_normal((n, m))
    scale = rng.uniform(0.0, 0.2)

    def stddev(families, mean):  # scale * |mean|, zero on point entries
        return np.where(np.array(families) == "point", 0.0, scale * np.abs(mean))

    dist = ws.build_distribution(
        n,
        m,
        mean_a,
        mean_b,
        family_a=family_a,
        family_b=family_b,
        stddev_a=stddev(family_a, mean_a),
        stddev_b=stddev(family_b, mean_b),
    )
    alpha, beta = float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.0, 11.0))
    spec = ws.WeightSpec(family=family, theta=0.0, alpha=alpha, beta=beta)
    bank = ws.draw_bank(dist, size, seed=int(rng.integers(2**32)))
    problem = ws.DesignProblem(bank=bank, q=_spd(rng, n, 0.5), r=_spd(rng, m, 0.5), weights=spec)
    return problem, _spd(rng, n, 0.0), 0.2 * rng.standard_normal((m, n))


def _spd(rng, size, shift):
    x = rng.standard_normal((size, size))
    return x @ x.T + shift * np.eye(size)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta0_jacobian_cases())
def test_jacobian_matches_closed_form_on_random_systems(case):
    problem, value, gain = case
    z = ws.pack_solution(value, gain)
    jac = ws.residual_jacobian(z, problem)
    oracle = reference.analytic_jacobian_theta0(z, problem)
    assert np.abs(jac - oracle).max() <= 1e-8 * max(1.0, np.abs(oracle).max())
    # The value block plus the identity is the closed-loop operator
    # S -> E[C' S C] of the mean-square stability check.
    head = problem.n * (problem.n + 1) // 2
    radius = np.abs(np.linalg.eigvals(np.eye(head) + oracle[:head, :head])).max()
    expected = ws.ms_check(problem.bank, gain).radius_plain
    assert abs(radius - expected) <= 1e-10 * expected


#: Weight settings away from theta = 0 on the example system's 2k bank. The
#: saturated RRSL sigmoid (alpha = 10) is left out: no finite difference is a
#: trustworthy reference where the weights jump.
OFF_ZERO_CASES = [
    ("RSL", 0.00125, 10.0, 11.0),
    ("RRSL", 1.0, 1.0, 1.0),
    ("RRSL", 1.0, 0.01, 0.011),
]


@pytest.mark.parametrize("h0", [1e-3, 1e-4])
@pytest.mark.parametrize("family, theta, alpha, beta", OFF_ZERO_CASES)
def test_jacobian_matches_richardson_off_zero(bank2k, family, theta, alpha, beta, h0):
    spec = ws.WeightSpec(family=family, theta=theta, alpha=alpha, beta=beta)
    problem = ws.DesignProblem(bank=bank2k, q=Q2, r=R1, weights=spec)
    sol = ws.solve(problem, ws.SolverOptions("newton-continuation"))
    z = ws.pack_solution(sol.value, sol.gain)
    ref = reference.richardson_jacobian(z, problem, h0)
    assert np.abs(ws.residual_jacobian(z, problem) - ref).max() <= 1e-6 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# Newton route
# ---------------------------------------------------------------------------

def test_newton_at_zero_needs_at_most_one_step(rn_solution_2k, rrsl_problem_2k):
    problem = rrsl_problem_2k.with_theta(0.0)
    z0 = ws.pack_solution(rn_solution_2k.value, rn_solution_2k.gain)
    sol = ws.newton_solve(problem, z0=z0)
    assert sol.iterations <= 1


def test_newton_agrees_with_fixed_point(rrsl_problem_2k, rn_solution_2k, rrsl_solution_2k):
    z0 = ws.pack_solution(rn_solution_2k.value, rn_solution_2k.gain)
    sol = ws.newton_solve(rrsl_problem_2k, z0=z0)
    assert np.linalg.norm(sol.value - rrsl_solution_2k.value) <= 1e-6
    assert np.linalg.norm(sol.gain - rrsl_solution_2k.gain) <= 1e-6
    assert sol.residual < ws.SolverOptions().newton_tol


def test_newton_q_quadratic_tail(rrsl_problem_2k, rn_solution_2k):
    z0 = ws.pack_solution(rn_solution_2k.value, rn_solution_2k.gain)
    sol = ws.newton_solve(rrsl_problem_2k, z0=z0, options=ws.SolverOptions(newton_tol=1e-11))
    history = np.asarray(sol.deltas)
    below = np.nonzero(history < 1e-4)[0]
    assert below.size >= 1
    k = int(below[0])
    if k + 1 < history.size:
        prev, nxt = history[k], history[k + 1]
        # clearly superlinear drop and a bounded quadratic constant
        assert nxt <= 0.05 * prev
        assert nxt <= 1e6 * prev**2


def test_newton_iteration_budget_error(rrsl_problem_2k, rn_solution_2k):
    z0 = ws.pack_solution(rn_solution_2k.value, rn_solution_2k.gain)
    with pytest.raises(ConvergenceError):
        ws.newton_solve(rrsl_problem_2k, z0=z0, options=ws.SolverOptions(newton_max_iters=1))


def test_newton_default_start_is_zero_solution(rrsl_problem_2k, rrsl_solution_2k):
    sol = ws.newton_solve(rrsl_problem_2k)
    assert np.linalg.norm(sol.value - rrsl_solution_2k.value) <= 1e-6


# ---------------------------------------------------------------------------
# solution-vector packing and the front-end dispatcher
# ---------------------------------------------------------------------------

def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(10)
    p = rng.standard_normal((3, 3))
    p = p + p.T
    gain = rng.standard_normal((2, 3))
    z = ws.pack_solution(p, gain)
    assert z.size == 6 + 6
    p2, gain2 = ws.unpack_solution(z, 3, 2)
    assert np.array_equal(p2, p)
    assert np.array_equal(gain2, gain)
    with pytest.raises(ValueError):
        ws.unpack_solution(z[:-1], 3, 2)


def test_solve_dispatch_fixed_point(rrsl_problem_2k, rrsl_solution_2k):
    sol = ws.solve(rrsl_problem_2k, ws.SolverOptions("fixed-point"))
    assert np.array_equal(sol.value, rrsl_solution_2k.value)
    assert np.array_equal(sol.gain, rrsl_solution_2k.gain)


def test_solve_continuation_path_independent(rrsl_problem_2k):
    direct = ws.solve(rrsl_problem_2k, ws.SolverOptions("newton"))
    stepped = ws.solve(
        rrsl_problem_2k, ws.SolverOptions("newton-continuation", continuation=[0.5, 1.0])
    )
    assert stepped.method == "newton-continuation"
    assert np.linalg.norm(direct.value - stepped.value) <= 1e-6
    assert np.linalg.norm(direct.gain - stepped.gain) <= 1e-6


def test_solve_continuation_grid_validation(rrsl_problem_2k):
    with pytest.raises(ConfigurationError):
        ws.solve(rrsl_problem_2k, ws.SolverOptions("newton-continuation", continuation=[0.5]))
    with pytest.raises(ConfigurationError):
        ws.solve(rrsl_problem_2k, ws.SolverOptions("newton-continuation", continuation=[]))


def test_a_continuation_through_roots_that_are_not_ms_stable_returns_its_target(bank2k):
    # Risk-seeking RSL weights (theta < 0) favour the cheap draws. On this
    # bank the roots at theta = -0.1 and -0.05 have plain mean-square radii
    # of about 1.004 and 1.001, and the target's is about 0.955. The
    # postcondition reads only the gain a route returns, so the grid may
    # pass through them.
    grid = (-0.1, -0.05, -0.02, 0.0005)
    problem = ws.DesignProblem(
        bank=bank2k, q=Q2, r=R1, weights=ws.WeightSpec(family="RSL", theta=grid[-1])
    )
    start = ws.fixed_point_solve(problem.with_theta(0.0))
    with pytest.raises(ws.UnstableGainError, match="Newton solve: gain is not mean-square"):
        ws.newton_solve(problem.with_theta(grid[0]), ws.pack_solution(start.value, start.gain))
    solution = ws.solve(problem, ws.SolverOptions("newton-continuation", continuation=grid))
    assert solution.stability.radius_plain < 1.0


@pytest.mark.parametrize("method", ["fixed-point", "newton", "newton-continuation"])
def test_a_solution_carries_the_report_its_postcondition_checked(rrsl_problem_2k, method):
    options = ws.SolverOptions(method)
    solution = ws.solve(rrsl_problem_2k, options)
    (batched,) = ws.solve_all([rrsl_problem_2k], options)
    report = ws.ms_check(rrsl_problem_2k.bank, solution.gain)
    assert solution.stability == batched.stability == report
    assert report.ms_stable


def test_solve_unknown_method(rrsl_problem_2k):
    with pytest.raises(ConfigurationError):
        ws.solve(rrsl_problem_2k, ws.SolverOptions("gradient-descent"))


STOPPING_RULES = ["fp_tol", "fp_max_iters", "residual_tol", "newton_tol", "newton_max_iters"]


@pytest.mark.parametrize("name", STOPPING_RULES)
@pytest.mark.parametrize(
    "value, message",
    [(math.nan, "must be > 0"), (math.inf, "must be finite"), (-math.inf, "must be finite")],
)
def test_options_reject_non_finite_stopping_rules(name, value, message):
    with pytest.raises(ConfigurationError, match=f"solver.{name} {message}"):
        ws.SolverOptions(**{name: value})


def test_options_reject_non_finite_continuation():
    with pytest.raises(ConfigurationError, match="solver.continuation"):
        ws.SolverOptions("newton-continuation", continuation=(math.nan, 1.0))


#: Settings that change the path of both routes from the defaults.
PATH_OPTIONS = ws.SolverOptions(fp_tol=1e-8, fp_max_iters=400, newton_tol=1e-11)


def _same_solution(got, want):
    assert np.array_equal(got.value, want.value)
    assert np.array_equal(got.gain, want.gain)
    assert (got.method, got.iterations, got.deltas) == (want.method, want.iterations, want.deltas)


@pytest.mark.parametrize("family, theta", [("RRSL", 1.0), ("RSL", 0.00125)])
def test_front_ends_pass_options_through(rrsl_problem_2k, family, theta):
    weights = replace(rrsl_problem_2k.weights, family=family, theta=theta)
    problem = replace(rrsl_problem_2k, weights=weights)
    newton = replace(PATH_OPTIONS, method="newton")
    _same_solution(ws.fixed_point_solve(problem, PATH_OPTIONS), ws.solve(problem, PATH_OPTIONS))
    _same_solution(ws.newton_solve(problem, options=PATH_OPTIONS), ws.solve(problem, newton))

    short = replace(PATH_OPTIONS, fp_max_iters=5)
    for front_end, options in [
        (lambda: ws.fixed_point_solve(problem, short), short),
        (lambda: ws.newton_solve(problem, options=short), replace(short, method="newton")),
    ]:
        with pytest.raises(ConvergenceError) as got:
            front_end()
        with pytest.raises(ConvergenceError) as want:
            ws.solve(problem, options)
        assert (str(got.value), got.value.history) == (str(want.value), want.value.history)


# ---------------------------------------------------------------------------
# higher-dimensional generality
# ---------------------------------------------------------------------------

def _three_state_problem(weights=None):
    mean_a = np.array([
        [0.9, 0.05, 0.0],
        [-0.1, 0.8, 0.1],
        [0.0, 0.2, 0.7],
    ])
    mean_b = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.2]])
    dist = ws.build_distribution(
        3, 2, mean_a, mean_b, family_a="normal", family_b="normal",
        stddev_scale=0.05,
    )
    bank = ws.draw_bank(dist, 400, seed=314)
    if weights is None:
        weights = ws.WeightSpec(family="RN")
    return ws.DesignProblem(
        bank=bank, q=np.diag([1.0, 2.0, 0.5]), r=np.eye(2), weights=weights
    )


def test_three_state_two_input_solution_routes_agree():
    problem = _three_state_problem()
    fp = ws.fixed_point_solve(problem)
    newton = ws.newton_solve(problem, z0=np.zeros(6 + 6))
    assert np.linalg.norm(fp.value - newton.value) <= 1e-6
    assert np.linalg.norm(fp.gain - newton.gain) <= 1e-6
    assert np.linalg.eigvalsh(fp.value - problem.q).min() >= -1e-8


def test_three_state_zero_covariance_matches_oracle():
    mean_a = [[0.9, 0.05, 0.0], [-0.1, 0.8, 0.1], [0.0, 0.2, 0.7]]
    mean_b = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.2]]
    dist = point_mass(mean_a, mean_b)
    bank = ws.draw_bank(dist, 3, seed=0)
    q = np.diag([1.0, 2.0, 0.5])
    r = np.eye(2)
    problem = ws.DesignProblem(bank=bank, q=q, r=r, weights=ws.WeightSpec(family="RN"))
    sol = ws.fixed_point_solve(problem)
    p_ref, gain_ref = dare_fixed_point_oracle(
        np.asarray(mean_a), np.asarray(mean_b), q, r
    )
    assert np.linalg.norm(sol.value - p_ref) <= 1e-8
    assert np.linalg.norm(sol.gain - gain_ref) <= 1e-8


def test_three_state_jacobian_analytic_matches_fd():
    problem = _three_state_problem()
    sol = ws.fixed_point_solve(problem)
    z = ws.pack_solution(sol.value, sol.gain)
    j_fd = ws.residual_jacobian(z, problem)
    j_an = reference.analytic_jacobian_theta0(z, problem)
    assert j_fd.shape == (12, 12)
    assert np.abs(j_fd - j_an).max() <= 1e-5
    # and again away from the root, where the gain block is nonzero
    rng = np.random.default_rng(3)
    p = rng.standard_normal((3, 3))
    p = p @ p.T + 2.0 * np.eye(3)
    gain = rng.standard_normal((2, 3)) * 0.2
    z_off = ws.pack_solution(p, gain)
    j_fd = ws.residual_jacobian(z_off, problem)
    j_an = reference.analytic_jacobian_theta0(z_off, problem)
    assert np.abs(j_fd - j_an).max() <= 1e-5


# ---------------------------------------------------------------------------
# gain optimality at the root
# ---------------------------------------------------------------------------

def test_weighted_solution_is_resampled_value_function(
    rrsl_problem_2k, rrsl_solution_2k
):
    # Resampling the bank with probabilities proportional to the converged
    # weights turns the weighted design into a plain regulator problem on
    # the resampled ensemble, so the simulated expected closed-loop cost
    # must match the quadratic value function x0' P x0.
    problem, sol = rrsl_problem_2k, rrsl_solution_2k
    w = ws.weight_vector(
        problem.bank, problem.weights, problem.theta, sol.gain, sol.value,
        problem.q, problem.r,
    )
    probs = w / w.sum()
    closed = problem.bank.a - np.matmul(problem.bank.b, sol.gain)
    weight_mat = problem.q + sol.gain.T @ problem.r @ sol.gain
    rng = np.random.default_rng(99)
    trials, horizon = 20_000, 250
    x0 = np.array([1.0, 1.0])
    x = np.tile(x0, (trials, 1))
    cost = np.zeros(trials)
    for _ in range(horizon):
        cost += np.einsum("ki,ij,kj->k", x, weight_mat, x)
        idx = rng.choice(problem.bank.size, size=trials, p=probs)
        x = np.einsum("kij,kj->ki", closed[idx], x)
    predicted = float(x0 @ sol.value @ x0)
    assert abs(cost.mean() - predicted) <= 0.05 * predicted


def test_gain_minimizes_one_step_objective(rrsl_problem_2k, rrsl_solution_2k):
    # With the weights frozen at the root, the converged gain minimizes the
    # weighted one-step quadratic objective; the residual gain block grows
    # under every perturbation.
    problem = rrsl_problem_2k
    sol = rrsl_solution_2k
    w = ws.weight_vector(
        problem.bank, problem.weights, problem.theta, sol.gain, sol.value,
        problem.q, problem.r,
    )

    def one_step_objective(gain):
        closed = problem.bank.a - np.matmul(problem.bank.b, gain)
        quad = np.einsum(
            "s,sji,jk,skl->il", w, closed, sol.value, closed
        ) / problem.bank.size
        return float(np.trace(quad + gain.T @ problem.r @ gain))

    base_objective = one_step_objective(sol.gain)
    z_root = ws.pack_solution(sol.value, sol.gain)
    base_residual = np.linalg.norm(ws.implicit_residual(z_root, problem))
    rng = np.random.default_rng(2024)
    head = 3
    for _ in range(20):
        delta = rng.standard_normal((1, 2))
        delta *= 1e-3 / np.linalg.norm(delta)
        perturbed = sol.gain + delta
        assert one_step_objective(perturbed) >= base_objective
        z = ws.pack_solution(sol.value, perturbed)
        g_norm = np.linalg.norm(ws.implicit_residual(z, problem)[head:])
        assert g_norm > base_residual
