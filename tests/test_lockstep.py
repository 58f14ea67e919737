"""Fixed-point solves run in lockstep give each problem its own solve's bits.

``fixed_point_solve_all`` drives several problems through the control flow
of ``fixed_point_solve`` and evaluates the maps of all of them in one
stacked pass per round. Every result, solution or error, must equal the
sequential oracle in ``tests/reference.py`` bit for bit, whatever the
number of problems in flight.
"""

import functools
import hashlib
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import wsriccati as ws
from wsriccati import riccati, simulate
from wsriccati.cli import main
from wsriccati.errors import (
    ConvergenceError,
    DomainViolationError,
    NonFiniteError,
    NumericalError,
    WeightOverflowError,
)

from conftest import MEAN_A, MEAN_B, Q2, R1
from reference import sequential_fixed_point_solve
from test_cli import base_config, write_config

# Shrinking would rerun whole solves many times over; a failing example is
# reported as found.
PROPERTY = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)

#: Budget of the property tests' solves: the harder problems stop with a
#: ConvergenceError, whose message and history must match too.
MAX_ITERS = 150

#: (n, m, mean A, mean B, Q, R) of the systems the problems are drawn on:
#: the two-state example and a three-state, two-input one.
SYSTEMS = {
    "2x1": (2, 1, MEAN_A, MEAN_B, Q2, R1),
    "3x2": (
        3,
        2,
        [[0.9, 0.1, 0.0], [0.0, 0.95, 0.1], [0.05, 0.0, 1.02]],
        [[0.1, 0.0], [0.0, 0.1], [0.05, 0.05]],
        np.eye(3),
        np.eye(2),
    ),
}


@functools.lru_cache(maxsize=None)
def _bank(system: str, size: int, seed: int):
    n, m, mean_a, mean_b, _, _ = SYSTEMS[system]
    dist = ws.build_distribution(
        n, m, mean_a, mean_b, family_a="normal", family_b="laplace", stddev_scale=0.1
    )
    return ws.draw_bank(dist, size, seed=seed)


def _problem(system, size, seed, family, theta):
    q, r = SYSTEMS[system][4:]
    if family == "RRSL":
        spec = ws.WeightSpec(family=family, theta=theta, alpha=10.0, beta=11.0)
    else:
        spec = ws.WeightSpec(family=family, theta=theta)
    return ws.DesignProblem(bank=_bank(system, size, seed), q=q, r=r, weights=spec)


def _problems(max_size):
    return st.lists(
        st.builds(
            _problem,
            st.sampled_from(sorted(SYSTEMS)),
            st.sampled_from([120, 200]),
            st.integers(0, 2),
            st.sampled_from(["RN", "RSL", "RRSL", "RRSL"]),
            st.sampled_from([0.0, 0.00125, 1.0, 1.0]),
        ),
        min_size=2,
        max_size=max_size,
    )


def _solo(problem, max_iters=MAX_ITERS):
    try:
        return sequential_fixed_point_solve(
            problem, ws.riccati.DEFAULT_FP_TOL, max_iters, ws.riccati.DEFAULT_RESIDUAL_TOL
        )
    except NumericalError as exc:
        return exc


def _assert_same(got, want):
    if isinstance(want, NumericalError):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    assert not isinstance(got, NumericalError), got
    assert np.array_equal(got.value, want.value)
    assert np.array_equal(got.gain, want.gain)
    assert (got.iterations, got.residual, got.deltas) == (
        want.iterations,
        want.residual,
        want.deltas,
    )


def _in_lockstep(problems, window, **kwargs):
    """fixed_point_solve_all with exactly ``window`` problems in flight."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riccati, "_footprint", lambda problem, flight: 1)
        mp.setattr(riccati, "LOCKSTEP_BYTES", window)
        return ws.fixed_point_solve_all(iter(problems), **kwargs)


@PROPERTY
@given(_problems(5))
def test_lockstep_matches_sequential_oracle_for_every_window(problems):
    want = [_solo(problem) for problem in problems]
    for window in range(1, len(problems) + 1):
        got = _in_lockstep(problems, window, max_iters=MAX_ITERS)
        assert len(got) == len(problems)
        for result, expected in zip(got, want):
            _assert_same(result, expected)


@settings(PROPERTY, max_examples=60)
@given(_problems(8))
def test_stacked_evaluation_matches_maps_of_each_problem(problems):
    rng = np.random.default_rng(len(problems))
    values, gains = [], []
    for problem in problems:
        root = rng.standard_normal((problem.n, problem.n))
        values.append(50.0 * root @ root.T + problem.q)
        gains.append(rng.standard_normal((problem.m, problem.n)))
    got = riccati._evaluate(problems, values, gains)
    for problem, value, gain, result in zip(problems, values, gains, got):
        try:
            want = riccati._maps(problem, value, gain)
        except NumericalError as exc:
            assert type(result) is type(exc) and str(result) == str(exc)
            continue
        assert np.array_equal(result[0], want[0])
        assert np.array_equal(result[1], want[1])


def test_one_failing_problem_never_aborts_the_others():
    # On this bank RN needs 90 iterations and RRSL theta = 1 needs 120, so a
    # budget of 100 fails the latter only; RSL theta = 50 overflows.
    problems = [
        _problem("2x1", 500, 3, "RN", 0.0),
        _problem("2x1", 500, 3, "RSL", 50.0),
        _problem("2x1", 500, 3, "RRSL", 1.0),
        _problem("3x2", 300, 1, "RRSL", 1.0),
        _problem("3x2", 300, 1, "RSL", 0.00125),
    ]
    got = _in_lockstep(problems, len(problems), max_iters=100)
    assert isinstance(got[1], WeightOverflowError)
    assert isinstance(got[2], ConvergenceError)
    assert sum(isinstance(result, NumericalError) for result in got) == 2
    for problem, result in zip(problems, got):
        try:
            solo = ws.fixed_point_solve(problem, max_iters=100)
        except NumericalError as exc:
            solo = exc
        _assert_same(result, solo)


def _weighted(family, theta, **params):
    """A 2x1 problem on the 200-draw bank of seed 0 under the given weights."""
    spec = ws.WeightSpec(family=family, theta=theta, **params)
    return ws.DesignProblem(bank=_bank("2x1", 200, 0), q=Q2, r=R1, weights=spec)


def test_every_failure_kind_inside_one_stacked_batch():
    # Four groups by weight family, alpha and beta: in each of the RN, RSL
    # and RRSL (10, 11) groups the stacked pass fails and each problem is
    # evaluated again alone; the RRSL (1e6, 0) problem is a group of one.
    healthy = 50.0 * np.eye(2) + Q2
    gain = np.array([[0.5, 1.0]])
    inf_value = healthy.copy()
    inf_value[0, 0] = np.inf
    cases = [
        ("healthy RN", _weighted("RN", 0.0), healthy, None),
        ("non-finite cost", _weighted("RSL", 0.00125), inf_value, NonFiniteError),
        ("RSL overflow", _weighted("RSL", 50.0), healthy, WeightOverflowError),
        ("healthy RRSL", _weighted("RRSL", 1.0, alpha=10.0, beta=11.0), healthy, None),
        ("negative raw weight", _weighted("RRSL", -2.0, alpha=10.0, beta=11.0), healthy,
         NumericalError),
        ("zero raw weights", _weighted("RRSL", -1.0, alpha=1e6, beta=0.0), healthy,
         NumericalError),
        ("domain violation", _weighted("RN", 0.0), -1e5 * np.eye(2), DomainViolationError),
        ("healthy RSL", _weighted("RSL", 0.00125), healthy, None),
    ]
    problems = [problem for _, problem, _, _ in cases]
    values = [value for _, _, value, _ in cases]
    with np.errstate(invalid="ignore"):  # the infinite value entry meets zeros
        got = riccati._evaluate(problems, values, [gain] * len(cases))
    messages = set()
    for (label, problem, value, kind), result in zip(cases, got):
        try:
            with np.errstate(invalid="ignore"):
                want = riccati._maps(problem, value, gain)
        except NumericalError as exc:
            assert kind is not None and type(exc) is kind, label
            assert type(result) is kind and str(result) == str(exc), label
            messages.add(str(exc))
            continue
        assert kind is None, label
        assert np.array_equal(result[0], want[0]), label
        assert np.array_equal(result[1], want[1]), label
    assert any(message.startswith("raw weight negative") for message in messages)
    assert "all raw weights are zero; normalization impossible" in messages
    assert len(messages) == 5


def test_fixed_point_solve_all_default_window_matches_solo_solves(rrsl_problem_2k):
    problems = [rrsl_problem_2k.with_theta(theta) for theta in (0.0, 0.5, 1.0)]
    got = ws.fixed_point_solve_all(problems)
    for problem, result in zip(problems, got):
        _assert_same(result, ws.fixed_point_solve(problem))


#: sha256 of sweep.csv from the RSL sweep over theta = 0 and 50 of
#: tests/test_cli.py::test_sweep_rows_and_error_isolation, whose second point
#: overflows; taken before the sweep's solves ran in lockstep.
RSL_SWEEP_PINNED = "cc578c27cb7197598c1a333403c5de9da529d6bc44672071f6091740f6f20eca"


def test_error_isolating_sweep_is_pinned(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_config(
            out, weight={"family": "RSL", "theta": 0.0}, task={"theta_grid": [0.0, 50.0]}
        ),
    )
    assert main(["sweep", str(cfg)]) == 0
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == RSL_SWEEP_PINNED


def test_newton_sweep_solves_its_base_once(tmp_path, monkeypatch):
    calls = []
    solve_fp = riccati.fixed_point_solve

    def counted(problem, *args, **kwargs):
        calls.append(problem.theta)
        return solve_fp(problem, *args, **kwargs)

    monkeypatch.setattr(riccati, "fixed_point_solve", counted)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_config(
            out,
            solver={"method": "newton", "bank_size": 300, "seed": 11},
            task={"theta_grid": [0.0, 0.5, 1.0]},
        ),
    )
    assert main(["sweep", str(cfg)]) == 0
    assert calls == [0.0]


def _count_fixed_point_solves(monkeypatch) -> list:
    """Patch riccati.fixed_point_solve to record the theta of each call."""
    calls = []
    solve_fp = riccati.fixed_point_solve

    def counted(problem, *args, **kwargs):
        calls.append(problem.theta)
        return solve_fp(problem, *args, **kwargs)

    monkeypatch.setattr(riccati, "fixed_point_solve", counted)
    return calls


def test_newton_robustness_solves_one_start_per_bank(benchmark_dist, monkeypatch):
    calls = _count_fixed_point_solves(monkeypatch)
    spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    ws.robustness_study(benchmark_dist, Q2, R1, spec, 3, 300, base_seed=5, method="newton")
    assert calls == [0.0, 0.0, 0.0]


#: sha256 of sweep.csv from a three-point Newton sweep whose theta = 0 start
#: fails (fp_max_iters 2), so every point reports its error; taken before
#: the start was solved once per bank.
NEWTON_FAILED_START_PINNED = "82394c9e37c4c1dacd65f50f49342e3a3ec8e4904289a87e08ea68967c4c7ac8"


def test_newton_sweep_tries_a_failing_start_once(tmp_path, monkeypatch):
    calls = _count_fixed_point_solves(monkeypatch)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        base_config(
            out,
            solver={"method": "newton", "bank_size": 300, "seed": 11, "fp_max_iters": 2},
            task={"theta_grid": [0.0, 0.5, 1.0]},
        ),
    )
    assert main(["sweep", str(cfg)]) == 0
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == NEWTON_FAILED_START_PINNED
    assert calls == [0.0]


def test_newton_start_is_shared_only_by_the_same_bank_and_costs(benchmark_dist):
    spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    bank = ws.draw_bank(benchmark_dist, 300, seed=3)
    other = ws.draw_bank(benchmark_dist, 300, seed=4)
    problems = [
        ws.DesignProblem(bank=bank, q=Q2, r=R1, weights=spec),
        ws.DesignProblem(bank=bank, q=2.0 * Q2, r=R1, weights=spec),
        ws.DesignProblem(bank=other, q=2.0 * Q2, r=R1, weights=spec),
        ws.DesignProblem(bank=other, q=2.0 * Q2, r=R1, weights=spec).with_theta(0.5),
    ]
    got = ws.solve_all(problems, "newton")
    for problem, result in zip(problems, got):
        start = ws.fixed_point_solve(problem.with_theta(0.0))
        want = ws.newton_solve(problem, z0=ws.pack_solution(start.value, start.gain))
        assert np.array_equal(result.value, want.value)
        assert np.array_equal(result.gain, want.gain)
        assert result.deltas == want.deltas


def test_robustness_draws_banks_from_patched_derive_seed(benchmark_dist, monkeypatch):
    seeds = []

    def fixed_seed(base_seed, index):
        seeds.append(index)
        return 1000 + index

    monkeypatch.setattr(simulate, "derive_seed", fixed_seed)
    spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    summary = ws.robustness_study(benchmark_dist, Q2, R1, spec, 3, 300, base_seed=5)
    assert seeds == [0, 1, 2]
    for k, gain in enumerate(summary.gains):
        bank = ws.draw_bank(benchmark_dist, 300, 1000 + k)
        solo = ws.fixed_point_solve(ws.DesignProblem(bank=bank, q=Q2, r=R1, weights=spec))
        assert np.array_equal(gain, solo.gain)


def test_debug_log_has_one_line_per_accepted_iterate(rrsl_problem_2k, caplog):
    problems = [rrsl_problem_2k.with_theta(theta) for theta in (0.0, 1.0)]
    with caplog.at_level(logging.DEBUG, logger="wsriccati"):
        solutions = ws.fixed_point_solve_all(problems)
    for k, (problem, solution) in enumerate(zip(problems, solutions)):
        lines = [
            record.getMessage()
            for record in caplog.records
            if record.getMessage().startswith(f"fixed-point problem {k} ")
        ]
        assert len(lines) == solution.iterations
        assert lines[0] == (
            f"fixed-point problem {k} (theta={problem.theta!r}): iteration 1, "
            f"delta {solution.deltas[0]:.3e}, plain step"
        )
        assert lines[-1].startswith(
            f"fixed-point problem {k} (theta={problem.theta!r}): "
            f"iteration {solution.iterations}, delta {solution.deltas[-1]:.3e}, "
        )
        assert any(line.endswith("anderson step") for line in lines)


def test_no_debug_line_or_formatting_below_debug(rrsl_problem_2k, caplog, monkeypatch):
    checks = []
    log = logging.getLogger(riccati.__name__)
    enabled = log.isEnabledFor

    def counted(level):
        checks.append(level)
        return enabled(level)

    monkeypatch.setattr(log, "isEnabledFor", counted)
    monkeypatch.setattr(log, "debug", lambda *args: pytest.fail("formatted"))
    problems = [rrsl_problem_2k.with_theta(theta) for theta in (0.0, 0.5, 1.0)]
    with caplog.at_level(logging.WARNING, logger="wsriccati"):
        ws.fixed_point_solve_all(problems)
    assert caplog.records == []
    assert checks == [logging.DEBUG] * len(problems)


def _healthy_partner_cases():
    """(label, failing problem, its value, error type, healthy partner) per failure kind.

    Each partner shares the failing problem's family, alpha and beta, so the
    two are evaluated in one stacked pass.
    """
    healthy = 50.0 * np.eye(2) + Q2
    inf_value = healthy.copy()
    inf_value[0, 0] = np.inf
    rrsl = {"alpha": 10.0, "beta": 11.0}
    steep = {"alpha": 1e6, "beta": 0.0}
    return [
        ("non-finite cost", _weighted("RSL", 0.00125), inf_value, NonFiniteError,
         _weighted("RSL", 0.00125)),
        ("RSL overflow", _weighted("RSL", 50.0), healthy, WeightOverflowError,
         _weighted("RSL", 0.00125)),
        ("negative raw weight", _weighted("RRSL", -2.0, **rrsl), healthy, NumericalError,
         _weighted("RRSL", 1.0, **rrsl)),
        ("zero raw weights", _weighted("RRSL", -1.0, **steep), healthy, NumericalError,
         _weighted("RRSL", 0.5, **steep)),
        ("domain violation", _weighted("RN", 0.0), -1e5 * np.eye(2), DomainViolationError,
         _weighted("RN", 0.0)),
        ("non-finite value map", _weighted("RN", 0.0), 1.7e308 * np.eye(2), NonFiniteError,
         _weighted("RN", 0.0)),
    ]


@pytest.mark.parametrize(
    "label, failing, value, kind, partner",
    _healthy_partner_cases(),
    ids=[case[0] for case in _healthy_partner_cases()],
)
def test_each_failure_kind_next_to_a_healthy_problem_of_its_group(
    label, failing, value, kind, partner
):
    healthy = 50.0 * np.eye(2) + Q2
    gain = np.array([[0.5, 1.0]])
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericalError) as alone:
            riccati._maps(failing, value, gain)
        assert type(alone.value) is kind
        # The stacked pass raises the flagged problem's own error, here in
        # the middle row ...
        with pytest.raises(kind) as stacked:
            riccati._stacked_maps(
                [partner, failing, partner], [healthy, value, healthy], [gain] * 3
            )
        assert str(stacked.value) == str(alone.value)
        # ... and each problem then gets its own result or error.
        got = riccati._evaluate([partner, failing], [healthy, value], [gain, gain])
    want = riccati._maps(partner, healthy, gain)
    assert np.array_equal(got[0][0], want[0]) and np.array_equal(got[0][1], want[1])
    assert type(got[1]) is kind and str(got[1]) == str(alone.value)


def test_problems_of_other_weight_parameters_are_evaluated_apart():
    # Same bank, value and gain: only the family, alpha or beta differs, and
    # each must get the maps of its own weights.
    problems = [
        _weighted("RRSL", 1.0, alpha=10.0, beta=11.0),
        _weighted("RRSL", 1.0, alpha=10.0, beta=10.0),
        _weighted("RRSL", 1.0, alpha=1.0, beta=1.0),
        _weighted("RSL", 0.01),
        _weighted("RN", 1.0),
    ]
    value = 50.0 * np.eye(2) + Q2
    gain = np.array([[0.5, 1.0]])
    got = riccati._evaluate(problems, [value] * len(problems), [gain] * len(problems))
    images = set()
    for problem, result in zip(problems, got):
        want = riccati._maps(problem, value, gain)
        assert np.array_equal(result[0], want[0]) and np.array_equal(result[1], want[1])
        images.add(want[1].tobytes())
    assert len(images) == len(problems)


def _point_mass_problem(weights, size=10):
    """The system A = 2I, B = [1; 0]: its second state is unstable and uncontrollable."""
    bank = ws.draw_bank(ws.point_mass(2.0 * np.eye(2), [[1.0], [0.0]]), size, seed=0)
    return ws.DesignProblem(bank=bank, q=np.eye(2), r=np.eye(1), weights=weights)


def test_non_finite_value_map_is_a_typed_error_of_its_problem_alone():
    problems = [_point_mass_problem(ws.WeightSpec(family="RN"))] * 2
    values = [1.7e308 * np.eye(2), 50.0 * np.eye(2)]
    gains = [np.zeros((1, 2))] * 2
    with np.errstate(invalid="ignore", over="ignore"):
        got = riccati._evaluate(problems, values, gains)
    assert isinstance(got[0], NonFiniteError)
    assert str(got[0]) == "value map is not finite"
    want = riccati._maps(problems[1], values[1], gains[1])
    assert np.array_equal(got[1][0], want[0]) and np.array_equal(got[1][1], want[1])


def _uncontrollable_problem(n, growth, seed, spec):
    """A random n-state, one-input bank whose last state is unstable and uncontrollable.

    Every draw keeps the last row of A zero off the diagonal and the last
    entry of B zero (point masses), so no gain stabilizes the last state,
    whose diagonal entry has mean ``growth`` and a 10% standard deviation.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.6, 0.6, (n, n))
    a[-1, :-1] = 0.0
    a[-1, -1] = growth
    b = rng.uniform(-1.0, 1.0, (n, 1))
    b[-1] = 0.0
    dist = ws.build_distribution(
        n, 1, a, b,
        family_a=np.where(a == 0.0, "point", "normal").tolist(),
        family_b=np.where(b == 0.0, "point", "laplace").tolist(),
        stddev_scale=0.1,
    )
    bank = ws.draw_bank(dist, 20, seed=seed)
    return ws.DesignProblem(bank=bank, q=np.eye(n), r=np.eye(1), weights=spec)


@PROPERTY
@given(
    st.integers(2, 3),
    st.floats(3.0, 6.0),
    st.integers(0, 2**16),
    st.sampled_from([
        ws.WeightSpec(family="RN"),
        ws.WeightSpec(family="RSL", theta=1e-3),
        ws.WeightSpec(family="RSL", theta=0.5),
        ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0),
    ]),
)
def test_systems_without_a_stabilizing_root_fail_with_typed_errors(n, growth, seed, spec):
    problem = _uncontrollable_problem(n, growth, seed, spec)
    problems = [problem.with_theta(0.0), problem]
    with np.errstate(invalid="ignore", over="ignore"):
        got = ws.fixed_point_solve_all(problems)
        for problem, result in zip(problems, got):
            assert isinstance(result, (ws.DesignSolution, NumericalError)), result
            try:
                solo = ws.fixed_point_solve(problem)
            except NumericalError as exc:
                solo = exc
            _assert_same(result, solo)
