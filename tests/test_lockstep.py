"""Solves run in lockstep give each problem its own solve's bits.

``solve_all`` drives several solves, fixed-point or Newton, through their
own control flow and evaluates the maps and residuals all of them ask for in
one stacked pass per round. Every result, solution or error, must equal the
sequential oracles in ``tests/reference.py`` bit for bit, whatever the
number of solves in flight.
"""

import dataclasses
import functools
import hashlib
import logging
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import wsriccati as ws
from wsriccati import riccati, simulate
from wsriccati.cli import main
from wsriccati.errors import (
    ConvergenceError,
    DomainViolationError,
    NonFiniteError,
    NumericalError,
    UnstableGainError,
    WeightOverflowError,
)

import reference
from conftest import MEAN_A, MEAN_B, Q2, R1
from reference import point_mass, sequential_fixed_point_solve, sequential_newton_solve
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
        return sequential_fixed_point_solve(problem, ws.SolverOptions(fp_max_iters=max_iters))
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


def _evaluate_maps(problems, values, gains) -> list:
    """riccati._evaluate with one maps request per problem: each (F, G) or error."""
    requests = [("maps", p, [(v, g)]) for p, v, g in zip(problems, values, gains)]
    return [outcome for (outcome,) in riccati._evaluate(requests)]


def _in_lockstep(problems, window, options):
    """``solve_all`` with ``options`` and exactly ``window`` solves in flight."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riccati, "_footprint", lambda problem, flight, width: 1)
        mp.setattr(riccati, "LOCKSTEP_BYTES", window)
        return ws.solve_all(iter(problems), options)


#: Problems whose runs each fill the Anderson history past ANDERSON_MEMORY
#: differences and clear it after a rejected candidate.
HISTORY_CASE = [_problem("3x2", 120, 0, "RN", 0.0), _problem("2x1", 200, 2, "RRSL", 1.0)]


def _history_events(problem):
    """``_solo(problem)`` and whether the oracle's history shifted and was cleared.

    The oracle keeps ANDERSON_MEMORY + 1 points; a candidate accepted at
    that length, with a later step, drops the oldest. A rejected candidate
    clears them.
    """
    calls = []
    step = reference._anderson_step

    def spy(problem, points, images, best):
        result = step(problem, points, images, best)
        calls.append((len(points), result is None))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference, "_anderson_step", spy)
        result = _solo(problem)
    full = riccati.ANDERSON_MEMORY + 1
    shifted = any(size == full and not rejected for size, rejected in calls[:-1])
    cleared = any(rejected for _, rejected in calls[:-1])
    return result, shifted, cleared


@PROPERTY
@given(_problems(5))
@example(HISTORY_CASE)
def test_lockstep_matches_sequential_oracle_for_every_window(problems):
    want, shifted, cleared = zip(*(_history_events(problem) for problem in problems))
    if problems is HISTORY_CASE:
        assert all(shifted) and all(cleared)
    for window in range(1, len(problems) + 1):
        got = _in_lockstep(problems, window, ws.SolverOptions(fp_max_iters=MAX_ITERS))
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
    got = _evaluate_maps(problems, values, gains)
    for problem, value, gain, result in zip(problems, values, gains, got):
        try:
            want = reference._maps(problem, value, gain)
        except NumericalError as exc:
            assert type(result) is type(exc) and str(result) == str(exc)
            continue
        assert np.array_equal(result[0], want[0])
        assert np.array_equal(result[1], want[1])
    # The residual kind, two points a request, in one call with the maps.
    points = [
        [ws.pack_solution(value, gain), ws.pack_solution(2.0 * value, -gain)]
        for value, gain in zip(values, gains)
    ]
    requests = [("residual", p, z) for p, z in zip(problems, points)]
    requests += [("maps", p, [(v, g)]) for p, v, g in zip(problems, values, gains)]
    mixed = riccati._evaluate(requests)
    for result, (outcome,) in zip(got, mixed[len(problems):]):
        assert type(outcome) is type(result)
        if not isinstance(result, NumericalError):
            assert np.array_equal(outcome[0], result[0])
            assert np.array_equal(outcome[1], result[1])
    for problem, zs, outcome in zip(problems, points, mixed):
        assert len(outcome) == len(zs)
        for z, result in zip(zs, outcome):
            _assert_same_residual(result, problem, z)


def _assert_same_residual(result, problem, z):
    """``result`` is implicit_residual at z alone, in bits or in error."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            want = ws.implicit_residual(z, problem)
    except NumericalError as exc:
        assert type(result) is type(exc) and str(result) == str(exc)
        return
    assert not isinstance(result, NumericalError), result
    assert np.array_equal(result, want)


@pytest.mark.parametrize("family,theta", [("RN", 0.0), ("RSL", 0.00125), ("RRSL", 1.0)])
def test_every_public_view_is_its_row_of_the_stacked_pass(family, theta):
    """Each public function of one point returns that point's row of a stacked pass.

    Three problems on their own banks, each at its own theta, sigma and
    point, go through one stacked pass: ``riccati._evaluate`` for the maps
    and the residuals, ``weights._weigh_all`` for the costs and weights. A
    second implementation behind any public function breaks its bits here.
    """
    rng = np.random.default_rng(29)
    problems, values, gains = [], [], []
    for seed in range(3):
        base = _problem("2x1", 200, seed, family, theta * (1.0 + 0.5 * seed))
        root = rng.standard_normal((2, 2))
        spec = dataclasses.replace(base.weights, sigma=root @ root.T + np.eye(2))
        problems.append(dataclasses.replace(base, weights=spec))
        root = rng.standard_normal((2, 2))
        value = 50.0 * root @ root.T + Q2
        values.append(0.5 * (value + value.T))
        gains.append(rng.standard_normal((1, 2)))
    zs = [ws.pack_solution(value, gain) for value, gain in zip(values, gains)]
    maps = _evaluate_maps(problems, values, gains)
    residuals = riccati._evaluate([("residual", p, [z]) for p, z in zip(problems, zs)])
    costs, raw, weights = ws.weights._weigh_all(
        [p.bank for p in problems], [p.weights for p in problems],
        [p.theta for p in problems], np.array(gains), np.array(values),
        np.array([p.q for p in problems]), np.array([p.r for p in problems]),
    )
    for i, (p, value, gain, z) in enumerate(zip(problems, values, gains, zs)):
        args = (p.bank, p.weights, p.theta, gain, value, p.q, p.r)
        wbank = ws.build_weighted_bank(*args)
        assert np.array_equal(ws.value_map(value, gain, p), maps[i][0])
        assert np.array_equal(ws.implicit_residual(z, p), residuals[i][0])
        assert np.array_equal(ws.weight_vector(*args), weights[i])
        assert np.array_equal(wbank.weights, weights[i])
        assert np.array_equal(wbank.raw_weights, raw[i])
        assert np.array_equal(wbank.predictive, costs[i])
        got = ws.predictive_costs(p.bank.a, p.bank.b, gain, value, p.weights.sigma, p.q, p.r)
        assert np.array_equal(got, costs[i])


#: Each public function of one point, called at (problem, value, gain).
VIEWS = {
    "value_map": lambda p, value, gain: ws.value_map(value, gain, p),
    "implicit_residual": lambda p, value, gain: ws.implicit_residual(
        ws.pack_solution(value, gain), p
    ),
    "residual_jacobian": lambda p, value, gain: ws.residual_jacobian(
        ws.pack_solution(value, gain), p
    ),
    "weight_vector": lambda p, value, gain: ws.weight_vector(
        p.bank, p.weights, p.theta, gain, value, p.q, p.r
    ),
    "build_weighted_bank": lambda p, value, gain: ws.build_weighted_bank(
        p.bank, p.weights, p.theta, gain, value, p.q, p.r
    ),
    "predictive_costs": lambda p, value, gain: ws.predictive_costs(
        p.bank.a, p.bank.b, gain, value, p.weights.sigma, p.q, p.r
    ),
}


@pytest.mark.parametrize("view", sorted(VIEWS))
def test_every_public_view_fails_the_way_a_solve_fails(view):
    """At a point whose products overflow, each view raises the pass's typed error.

    The evaluation runs under the solver's ``np.errstate``, so no numpy
    warning escapes before the error.
    """
    problem = _problem("2x1", 200, 0, "RRSL", 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="predictive cost non-finite at sample 0"):
            VIEWS[view](problem, 1e300 * np.eye(2), np.array([[1e300, 1e300]]))


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
    got = _in_lockstep(problems, len(problems), ws.SolverOptions(fp_max_iters=100))
    assert isinstance(got[1], WeightOverflowError)
    assert isinstance(got[2], ConvergenceError)
    assert sum(isinstance(result, NumericalError) for result in got) == 2
    for problem, result in zip(problems, got):
        try:
            solo = ws.fixed_point_solve(problem, ws.SolverOptions(fp_max_iters=100))
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
        got = _evaluate_maps(problems, values, [gain] * len(cases))
    messages = set()
    for (label, problem, value, kind), result in zip(cases, got):
        try:
            with np.errstate(invalid="ignore"):
                want = reference._maps(problem, value, gain)
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
    # The same points as residual requests, each group one stacked pass
    # beside the maps; an RN residual at an infinite value is not finite.
    cases.append(("non-finite residual", _weighted("RN", 0.0), inf_value, NonFiniteError))
    inf_z = ws.pack_solution(healthy, gain)
    inf_z[0] = np.inf  # P[0, 0], as in inf_value
    zs = [inf_z if v is inf_value else ws.pack_solution(v, gain) for _, _, v, _ in cases]
    requests = [("maps", p, [(v, gain)]) for _, p, v, _ in cases]
    requests += [("residual", p, [z]) for (_, p, _, _), z in zip(cases, zs)]
    with np.errstate(invalid="ignore"):
        mixed = riccati._evaluate(requests)
    outcomes = [outcome for (outcome,) in mixed[len(cases):]]
    for (_, problem, _, _), z, result in zip(cases, zs, outcomes):
        _assert_same_residual(result, problem, z)
    failed = {label for (label, *_), result in zip(cases, outcomes)
              if isinstance(result, NumericalError)}
    assert {"non-finite cost", "RSL overflow", "non-finite residual"} <= failed
    assert not {"healthy RN", "healthy RSL", "healthy RRSL"} & failed
    assert str(outcomes[-1]) == "residual is not finite"


def test_fixed_point_solve_all_default_window_matches_solo_solves(rrsl_problem_2k):
    problems = [rrsl_problem_2k.with_theta(theta) for theta in (0.0, 0.5, 1.0)]
    got = ws.solve_all(problems)
    for problem, result in zip(problems, got):
        _assert_same(result, ws.fixed_point_solve(problem))


def _spy_on_calls(monkeypatch, *names) -> list:
    """Patch each named riccati function to record its name when it is called."""
    calls = []
    for name in names:
        def spy(*args, name=name, function=getattr(riccati, name)):
            calls.append(name)
            return function(*args)

        monkeypatch.setattr(riccati, name, spy)
    return calls


def test_an_untraced_fixed_point_solve_all_runs_one_lockstep(rrsl_problem_2k, monkeypatch):
    # Each solve's closing residual check is a request of the solve itself,
    # not a nested lockstep of its own.
    calls = _spy_on_calls(monkeypatch, "_lockstep", "implicit_residual")
    problems = [rrsl_problem_2k.with_theta(theta) for theta in (0.0, 0.5, 1.0)]
    got = ws.solve_all(problems)
    assert calls == ["_lockstep"]
    assert not any(isinstance(result, NumericalError) for result in got)


def test_a_gain_that_is_not_ms_stable_fails_lockstep_and_oracle_alike(benchmark_dist):
    # Past the RSL fold the fixed-point route converges on this bank to a
    # root whose gain diverges in mean square on the bank's own law.
    bank = ws.draw_bank(benchmark_dist, 2000, seed=ws.derive_seed(7, 20))
    problem = ws.DesignProblem(bank=bank, q=Q2, r=R1, weights=ws.WeightSpec("RSL", 0.0025))
    healthy = _problem("2x1", 200, 0, "RRSL", 1.0)
    want = [_solo(p, max_iters=2000) for p in (problem, healthy)]
    assert isinstance(want[0], UnstableGainError)
    assert "(radius 1.2183)" in str(want[0])
    for window in (1, 2):
        got = _in_lockstep([problem, healthy], window, ws.SolverOptions(fp_max_iters=2000))
        for result, expected in zip(got, want):
            _assert_same(result, expected)


#: sha256 of the files ``robustness`` writes on configs/example.yaml as
#: shipped (20 RRSL redesigns on 2k banks, task seed 7); taken when the
#: lockstep held about four of them at once.
EXAMPLE_ROBUSTNESS_PINNED = {
    "gains.csv": "19c9751b4988976b9cd30fce757b35f3b08d050176bf7016c8c7fc2d9c8fad33",
    "robustness.csv": "469a2e4bc0e0f5859a68465b5f785d93a870fc36ecc7f422c87812c6f2abde2d",
}


def _spy_on_evaluate(monkeypatch) -> list:
    """Patch riccati._evaluate to record the number of requests of each call."""
    sizes = []
    evaluate = riccati._evaluate

    def spy(requests, work):
        sizes.append(len(requests))
        return evaluate(requests, work)

    monkeypatch.setattr(riccati, "_evaluate", spy)
    return sizes


def test_default_budget_holds_nineteen_robustness_redesigns(tmp_path, monkeypatch):
    sizes = _spy_on_evaluate(monkeypatch)
    example = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
    out = tmp_path / "out"
    assert main(["robustness", str(example), "--output-dir", str(out)]) == 0
    assert max(sizes) >= 19
    for name, digest in EXAMPLE_ROBUSTNESS_PINNED.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_problem_larger_than_the_budget_runs_alone(rrsl_problem_2k, monkeypatch):
    problems = [rrsl_problem_2k.with_theta(theta) for theta in (0.5, 1.0)]
    assert riccati._footprint(problems[0], []) <= riccati.LOCKSTEP_BYTES
    monkeypatch.setattr(riccati, "LOCKSTEP_BYTES", riccati._footprint(problems[0], []) - 1)
    sizes = _spy_on_evaluate(monkeypatch)
    got = ws.solve_all(problems)
    assert sizes and set(sizes) == {1}
    for problem, result in zip(problems, got):
        _assert_same(result, ws.fixed_point_solve(problem))


#: sha256 of the files ``robustness`` writes on configs/example.yaml under
#: each Newton route at task seeds 7 and 42 (seed 42's repetition 6 fails
#: under ``newton``); taken when the routes solved one problem at a time.
NEWTON_ROBUSTNESS_PINNED = {
    ("newton", 7): (
        "18cd4ccee63b6ad80feab592c55852e38b08d2ff80e45cbd9871fe1eb1d43558",
        "1fe455f68565938b730befc8b451196717381f93d6ee0318e9b648a301912a3c",
    ),
    ("newton", 42): (
        "80a3eac6025866b61846ad93899e5be51321ac2d0c05a52a8d86f9c1413f1d23",
        "a7bae14ce6f111a1470568796a9cbea012d60c2b9af24ae0148a65acba21b395",
    ),
    ("newton-continuation", 7): (
        "334dabbd9650469fbcbea753e6daeb84088f68641b1fb57d2dd97169b0e0e451",
        "911353f08cdbda85c098864b5d91c69c535fe48504ea934c42efdf7832e4e5f8",
    ),
    ("newton-continuation", 42): (
        "74c9e0fb6f24fa0d3fc2685c211d8fc7ec58e3b886ab03974c7713751895bdf8",
        "d473f8a925f267f4c1fb281b0d7ff0c7d82be5a6e00cea6ca63fad92655efb2a",
    ),
}


def _spy_on_bytes_in_flight(monkeypatch) -> list:
    """Patch riccati._evaluate to record (requests, bytes in flight) of each round.

    The bytes are each point's work, the weight pass's declared scratch per
    draw (``weights._Workspace.BYTES_PER_DRAW``, which ``riccati._footprint``
    reads), and every bank but one, which the budget leaves out: a lower
    bound of what the lockstep counts against ``LOCKSTEP_BYTES``.
    """
    rounds = []
    evaluate = riccati._evaluate

    def spy(requests, workspace):
        work = sum(
            ws.weights._Workspace.BYTES_PER_DRAW * p.bank.size * len(points)
            for _, p, points in requests
        )
        banks = {id(p.bank): p.bank for _, p, _ in requests}.values()
        sizes = sorted(b.a.nbytes + b.b.nbytes + b.phi.nbytes for b in banks)
        rounds.append((len(requests), work + sum(sizes[:-1])))
        return evaluate(requests, workspace)

    monkeypatch.setattr(riccati, "_evaluate", spy)
    return rounds


@pytest.mark.parametrize("method, seed", sorted(NEWTON_ROBUSTNESS_PINNED))
def test_newton_robustness_stays_within_the_budget(tmp_path, monkeypatch, method, seed):
    # The shipped 20 x 2k study of configs/example.yaml under a Newton route.
    rounds = _spy_on_bytes_in_flight(monkeypatch)
    out = tmp_path / "out"
    example = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"
    config = yaml.safe_load(example.read_text())
    config["solver"]["method"] = method
    config["task"]["seed"] = seed
    config["output_dir"] = str(out)
    assert main(["robustness", str(write_config(tmp_path, config))]) == 0
    assert max(requests for requests, _ in rounds) >= 2
    assert max(held for _, held in rounds) <= riccati.LOCKSTEP_BYTES
    pins = zip(("gains.csv", "robustness.csv"), NEWTON_ROBUSTNESS_PINNED[method, seed])
    for name, digest in pins:
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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


def _count_fixed_point_solves(monkeypatch) -> list:
    """Patch the engine's fixed-point solve to record the theta of each one started."""
    calls = []
    steps = riccati._fixed_point_steps

    def counted(problem, *args, **kwargs):
        calls.append(problem.theta)
        return steps(problem, *args, **kwargs)

    monkeypatch.setattr(riccati, "_fixed_point_steps", counted)
    return calls


def test_newton_sweep_solves_its_base_once(tmp_path, monkeypatch):
    calls = _count_fixed_point_solves(monkeypatch)
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


def test_newton_robustness_solves_one_start_per_bank(benchmark_dist, monkeypatch):
    calls = _count_fixed_point_solves(monkeypatch)
    spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    ws.robustness_study(
        benchmark_dist, Q2, R1, spec, 3, 300, base_seed=5, options=ws.SolverOptions("newton")
    )
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
    got = ws.solve_all(problems, ws.SolverOptions("newton"))
    for problem, result in zip(problems, got):
        start = ws.fixed_point_solve(problem.with_theta(0.0))
        want = ws.newton_solve(problem, z0=ws.pack_solution(start.value, start.gain))
        assert np.array_equal(result.value, want.value)
        assert np.array_equal(result.gain, want.gain)
        assert result.deltas == want.deltas


def test_a_newton_run_is_read_whole_before_its_solve_exists(rrsl_problem_2k):
    # The first solve is driven to its end before the next one is asked
    # for, so a run that grew only while the lockstep read on would end
    # with its first point alone.
    problems = [rrsl_problem_2k.with_theta(theta) for theta in (0.0, 0.5, 1.0)]
    options = ws.SolverOptions("newton")
    solves = riccati._newton_solves(iter(problems), options)
    _, _, steps = next(solves)
    with np.errstate(over="ignore", invalid="ignore"):
        request = next(steps)
        while True:
            (outcome,) = riccati._evaluate([request])
            error = next((x for x in outcome if isinstance(x, NumericalError)), None)
            try:
                request = steps.send(outcome) if error is None else steps.throw(error)
            except StopIteration as stop:
                results = stop.value
                break
    assert len(results) == 3
    assert next(solves, None) is None
    for result, want in zip(results, ws.solve_all(problems, options)):
        _assert_same(result, want)


@functools.lru_cache(maxsize=None)
def _newton_base(system: str, size: int, seed: int):
    """The RN problem on one bank key, whose bank and costs a run shares.

    ``uncontrollable`` is a 20-draw bank with no stabilizing root, so every
    start on it fails.
    """
    if system == "uncontrollable":
        return _uncontrollable_problem(2, 4.0, seed, ws.WeightSpec(family="RN"))
    return _problem(system, size, seed, "RN", 0.0)


@functools.lru_cache(maxsize=None)
def _overflow_theta(system: str, size: int, seed: int) -> float:
    """An RSL theta at which the start's residual is finite but its Jacobian overflows.

    Every exponent theta * J stays a relative 1e-9 below RSL_MAX_EXPONENT at
    the theta = 0 root, so a central-difference point that raises a cost by
    more than that overflows.
    """
    base = _newton_base(system, size, seed)
    with np.errstate(invalid="ignore", over="ignore"):
        start = _solo(base)
    if isinstance(start, NumericalError):
        return 1.0
    n = base.n
    costs = ws.weights.predictive_costs(
        base.bank.a, base.bank.b, start.gain, start.value, np.eye(n), base.q, base.r
    )
    return ws.weights.RSL_MAX_EXPONENT / float(costs.max()) * (1.0 - 1e-9)


def _newton_problem(key, family, theta):
    if theta == "overflow":
        theta = _overflow_theta(*key)
    params = {"alpha": 10.0, "beta": 11.0} if family == "RRSL" else {}
    spec = ws.WeightSpec(family=family, theta=theta, **params)
    return dataclasses.replace(_newton_base(*key), weights=spec)


def _newton_runs(max_runs):
    """Lists of problems in runs on one bank key each (a run may share its key)."""
    run = st.tuples(
        st.tuples(
            st.sampled_from(sorted(SYSTEMS) + ["uncontrollable"]),
            st.sampled_from([120, 200]),
            st.integers(0, 2),
        ),
        st.lists(
            st.sampled_from([
                ("RN", 0.0), ("RSL", 0.00125), ("RSL", "overflow"), ("RRSL", 0.0),
                ("RRSL", 1.0), ("RRSL", 1.0),
            ]),
            min_size=1,
            max_size=3,
        ),
    )
    return st.lists(run, min_size=1, max_size=max_runs).map(
        lambda runs: [_newton_problem(key, *weights) for key, run in runs for weights in run]
    )


def _assert_newton_matches_sequential_oracle(problems, method):
    options = ws.SolverOptions(method, fp_max_iters=MAX_ITERS)
    want = sequential_newton_solve(problems, options)
    for window in range(1, len(problems) + 1):
        got = _in_lockstep(problems, window, options)
        assert len(got) == len(problems)
        for result, expected in zip(got, want):
            if not isinstance(expected, NumericalError):
                assert result.method == expected.method
            _assert_same(result, expected)
    return want


@PROPERTY
@given(_newton_runs(3), st.sampled_from(["newton", "newton-continuation"]))
def test_newton_routes_match_sequential_oracle_for_every_window(problems, method):
    _assert_newton_matches_sequential_oracle(problems, method)


@pytest.mark.parametrize("method", ["newton", "newton-continuation"])
def test_newton_failures_match_sequential_oracle_for_every_window(method):
    shared = ("2x1", 200, 1)
    problems = [
        _newton_problem(shared, "RRSL", 1.0),
        _newton_problem(shared, "RSL", "overflow"),
        _newton_problem(shared, "RN", 0.0),
        _newton_problem(("uncontrollable", 20, 3), "RRSL", 1.0),
        _newton_problem(("uncontrollable", 20, 3), "RN", 0.0),
        _newton_problem(("3x2", 120, 2), "RSL", 0.00125),
    ]
    want = _assert_newton_matches_sequential_oracle(problems, method)
    assert [isinstance(result, NumericalError) for result in want] == [
        False, True, False, True, True, False
    ]
    assert isinstance(want[1], WeightOverflowError)
    if method == "newton":
        # The overflow is raised inside the Jacobian: the start's residual
        # at the target theta is finite.
        assert np.isfinite(ws.implicit_residual(
            ws.pack_solution(want[2].value, want[2].gain), problems[1]
        )).all()
    assert str(want[3]) == str(want[4])


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


def test_debug_log_has_one_line_per_accepted_iterate(rrsl_problem_2k, benchmark_dist, caplog):
    problems = [rrsl_problem_2k.with_theta(theta) for theta in (0.0, 1.0)]
    with caplog.at_level(logging.DEBUG, logger="wsriccati"):
        solutions = ws.solve_all(problems)
    _assert_one_debug_line_per_iterate(caplog, problems, solutions)
    # The theta = 0 starts of a Newton robustness study share rounds, and
    # each logs under the index of its bank's run.
    spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    starts = [
        ws.DesignProblem(
            bank=ws.draw_bank(benchmark_dist, 300, ws.derive_seed(5, k)), q=Q2, r=R1,
            weights=spec,
        ).with_theta(0.0)
        for k in range(3)
    ]
    solutions = [ws.fixed_point_solve(start) for start in starts]
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="wsriccati"):
        ws.robustness_study(
            benchmark_dist, Q2, R1, spec, 3, 300, base_seed=5,
            options=ws.SolverOptions("newton"),
        )
    _assert_one_debug_line_per_iterate(caplog, starts, solutions)


def _assert_one_debug_line_per_iterate(caplog, problems, solutions):
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
        ws.solve_all(problems)
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
            reference._maps(failing, value, gain)
        assert type(alone.value) is kind
        # The stacked pass raises the flagged problem's own error, here in
        # the middle row ...
        with pytest.raises(kind) as stacked:
            riccati._stacked_maps(
                [partner, failing, partner], [healthy, value, healthy], [gain] * 3
            )
        assert str(stacked.value) == str(alone.value)
        # ... and each problem then gets its own result or error.
        got = _evaluate_maps([partner, failing], [healthy, value], [gain, gain])
    want = reference._maps(partner, healthy, gain)
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
    got = _evaluate_maps(problems, [value] * len(problems), [gain] * len(problems))
    images = set()
    for problem, result in zip(problems, got):
        want = reference._maps(problem, value, gain)
        assert np.array_equal(result[0], want[0]) and np.array_equal(result[1], want[1])
        images.add(want[1].tobytes())
    assert len(images) == len(problems)


def _point_mass_problem(weights, size=10):
    """The system A = 2I, B = [1; 0]: its second state is unstable and uncontrollable."""
    bank = ws.draw_bank(point_mass(2.0 * np.eye(2), [[1.0], [0.0]]), size, seed=0)
    return ws.DesignProblem(bank=bank, q=np.eye(2), r=np.eye(1), weights=weights)


def test_non_finite_value_map_is_a_typed_error_of_its_problem_alone():
    problems = [_point_mass_problem(ws.WeightSpec(family="RN"))] * 2
    values = [1.7e308 * np.eye(2), 50.0 * np.eye(2)]
    gains = [np.zeros((1, 2))] * 2
    with np.errstate(invalid="ignore", over="ignore"):
        got = _evaluate_maps(problems, values, gains)
    assert isinstance(got[0], NonFiniteError)
    assert str(got[0]) == "value map is not finite"
    want = reference._maps(problems[1], values[1], gains[1])
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
        got = ws.solve_all(problems)
        for problem, result in zip(problems, got):
            assert isinstance(result, (ws.DesignSolution, NumericalError)), result
            try:
                solo = ws.fixed_point_solve(problem)
            except NumericalError as exc:
                solo = exc
            _assert_same(result, solo)
