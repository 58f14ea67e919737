import numpy as np
import pytest

import wsriccati as ws
from wsriccati import ConfigurationError, NumericalError

from conftest import MEAN_A, MEAN_B, Q2, R1, scalar_closed_form
from reference import point_mass


def test_rollout_cost_equals_value_function():
    # deterministic scalar loop: infinite-horizon cost from x0=1 is the
    # converged value matrix entry
    value, gain = scalar_closed_form()
    dist = point_mass([[0.5]], [[1.0]])
    result = ws.rollout(dist, [[gain]], [[1.0]], [[1.0]], [1.0], 400, seed=3)
    assert result.diverged_at is None
    assert result.cost == pytest.approx(value, abs=1e-9)
    assert result.states.shape == (401, 1)


def test_rollout_dead_beat_case():
    dist = point_mass([[0.0]], [[1.0]])
    result = ws.rollout(dist, np.zeros((1, 1)), [[2.0]], [[1.0]], [3.0], 5, seed=0)
    assert result.states[1, 0] == 0.0
    assert result.cost == pytest.approx(2.0 * 9.0, abs=1e-12)


def test_rollout_seed_determinism(benchmark_dist):
    gain = np.array([[4.0, 3.5]])
    one = ws.rollout(benchmark_dist, gain, Q2, R1, [1.0, 1.0], 50, seed=11)
    two = ws.rollout(benchmark_dist, gain, Q2, R1, [1.0, 1.0], 50, seed=11)
    assert np.array_equal(one.states, two.states)
    assert one.cost == two.cost
    three = ws.rollout(benchmark_dist, gain, Q2, R1, [1.0, 1.0], 50, seed=12)
    assert not np.array_equal(one.states, three.states)


def test_rollout_overflow_is_reported():
    dist = point_mass([[3.0]], [[0.0001]])
    result = ws.rollout(dist, np.zeros((1, 1)), [[1.0]], [[1.0]], [1.0], 200, seed=0)
    assert result.diverged_at is not None
    assert np.isinf(result.cost)
    assert result.states.shape[0] == result.diverged_at + 1


def test_rollout_zero_horizon():
    dist = point_mass([[0.5]], [[1.0]])
    result = ws.rollout(dist, [[0.2]], [[2.0]], [[1.0]], [2.0], 0, seed=0)
    # single term: x0 Q x0 + u0 R u0 with u0 = -0.2 * 2
    assert result.cost == pytest.approx(8.0 + 0.16, abs=1e-12)


def test_worst_percent_averages_small_example():
    tail = ws.worst_percent_averages([1.0, 2.0, 3.0, 4.0, 5.0], [40.0, 100.0])
    assert tail[0] == (40.0, pytest.approx(4.5))
    assert tail[1] == (100.0, pytest.approx(3.0))
    with pytest.raises(ConfigurationError):
        ws.worst_percent_averages([1.0], [0.0])
    with pytest.raises(ConfigurationError):
        ws.worst_percent_averages([1.0], [120.0])


def test_worst_percent_averages_take_the_decimal_ceiling():
    # rho * N / 100 rounds in binary to just above 161, 322 and 644 for these
    # rho at N = 1,000; the tail is still that many costs, not one more.
    costs = np.arange(1000.0)
    got = ws.worst_percent_averages(costs, [16.1, 32.2, 64.4, 5, 100])
    for (rho, mean), k in zip(got, (161, 322, 644, 50, 1000)):
        assert mean == costs[-k:].mean(), rho


def test_tail_averages_monotone(benchmark_dist):
    gain = np.array([[4.0, 3.5]])
    summary = ws.mc_cost_study(
        benchmark_dist, gain, Q2, R1, [1.0, 1.0], 40, 300,
        [1, 2, 5, 10, 25, 50, 75, 100], seed=5,
    )
    averages = [avg for _, avg in summary.tail_averages]
    assert all(a >= b - 1e-12 for a, b in zip(averages, averages[1:]))
    assert summary.mean_cost == pytest.approx(summary.costs.mean())
    assert np.all(summary.costs >= 0.0)


def test_mc_study_reproducible_and_matches_single_rollouts(benchmark_dist):
    gain = np.array([[4.0, 3.5]])
    kwargs = dict(q=Q2, r=R1, x0=[1.0, 1.0], horizon=30, trials=25,
                  rho_list=[50.0], seed=123)
    one = ws.mc_cost_study(benchmark_dist, gain, **kwargs)
    two = ws.mc_cost_study(benchmark_dist, gain, **kwargs)
    assert np.array_equal(one.costs, two.costs)
    # trial k is reproducible standalone from its derived stream
    for k in (0, 7, 24):
        single = ws.rollout(
            benchmark_dist, gain, Q2, R1, [1.0, 1.0], 30,
            seed=ws.stream_rng(123, k),
        )
        assert single.cost == one.costs[k]


def test_mc_study_records_divergence():
    dist = point_mass([[2.5]], [[0.0001]])
    summary = ws.mc_cost_study(
        dist, np.zeros((1, 1)), [[1.0]], [[1.0]], [1.0], 300, 8, [100.0], seed=1
    )
    assert summary.diverged == 8
    assert np.all(np.isinf(summary.costs))


def test_trajectory_capture(benchmark_dist):
    gain = np.array([[4.0, 3.5]])
    summary = ws.mc_cost_study(
        benchmark_dist, gain, Q2, R1, [1.0, 1.0], 20, 10, [100.0], seed=9,
        trajectory_count=3,
    )
    assert len(summary.trajectories) == 3
    assert summary.trajectories[0].shape == (21, 2)
    # captured trajectories replay the same trials
    replay = ws.rollout(
        benchmark_dist, gain, Q2, R1, [1.0, 1.0], 20, seed=ws.stream_rng(9, 1)
    )
    assert np.array_equal(summary.trajectories[1], replay.states)


def test_summary_invariant_rejects_negative_costs():
    with pytest.raises(NumericalError):
        ws.SimulationSummary(
            trials=2, horizon=1, costs=np.array([-1.0, 1.0]), mean_cost=0.0,
            tail_averages=((100.0, 0.0),), diverged=0,
        )


def test_mean_cost_approaches_value_function(benchmark_dist):
    # zero-sensitivity design: simulated mean cost approaches x0' P x0
    bank = ws.draw_bank(benchmark_dist, 10_000, seed=12345)
    problem = ws.DesignProblem(
        bank=bank, q=Q2, r=R1, weights=ws.WeightSpec(family="RN")
    )
    sol = ws.fixed_point_solve(problem)
    x0 = np.array([1.0, 1.0])
    predicted = float(x0 @ sol.value @ x0)
    summary = ws.mc_cost_study(
        benchmark_dist, sol.gain, Q2, R1, x0, 300, 10_000, [100.0], seed=2
    )
    assert summary.diverged == 0
    assert abs(summary.mean_cost - predicted) <= 0.05 * predicted


def test_robustness_point_mass_has_zero_dispersion():
    dist = point_mass(MEAN_A, MEAN_B)
    spec = ws.WeightSpec(family="RN")
    summary = ws.robustness_study(
        dist, Q2, R1, spec, repetitions=3, bank_size=4, base_seed=5
    )
    assert np.abs(summary.gain_stddev).max() == 0.0
    assert summary.failures == ()
    assert summary.gains.shape == (3, 1, 2)


def test_robustness_identical_banks_give_zero_stddev(benchmark_dist, monkeypatch):
    # force every repetition onto the same bank seed: gains coincide exactly
    import wsriccati.simulate as sim

    monkeypatch.setattr(sim, "derive_seed", lambda base, k: 77)
    spec = ws.WeightSpec(family="RN")
    summary = ws.robustness_study(
        benchmark_dist, Q2, R1, spec, repetitions=2, bank_size=300, base_seed=5
    )
    assert np.abs(summary.gain_stddev).max() == 0.0


def test_robustness_requires_two_repetitions(benchmark_dist):
    spec = ws.WeightSpec(family="RN")
    with pytest.raises(ConfigurationError):
        ws.robustness_study(
            benchmark_dist, Q2, R1, spec, repetitions=1, bank_size=10, base_seed=1
        )


def test_robustness_records_failures(benchmark_dist):
    # tiny iteration budget: every design fails, which is itself an error
    spec = ws.WeightSpec(family="RN")
    with pytest.raises(NumericalError):
        ws.robustness_study(
            benchmark_dist, Q2, R1, spec, repetitions=2, bank_size=50,
            base_seed=1, options=ws.SolverOptions(fp_max_iters=3),
        )


def test_mc_study_rejects_negative_horizon(benchmark_dist):
    with pytest.raises(ConfigurationError, match="horizon must be >= 0"):
        ws.mc_cost_study(
            benchmark_dist, [[4.0, 3.5]], Q2, R1, [1.0, 1.0], -1, 10, [100.0], seed=1
        )
