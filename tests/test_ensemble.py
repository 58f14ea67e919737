import numpy as np
import pytest

import wsriccati as ws
from wsriccati import ConfigurationError, NonFiniteError
from wsriccati.ensemble import ParameterDistribution

from conftest import MEAN_A, MEAN_B


def test_benchmark_distribution_is_valid(benchmark_dist):
    assert benchmark_dist.dim == 6
    assert np.allclose(benchmark_dist.mean_a(), MEAN_A)
    assert np.allclose(benchmark_dist.mean_b(), MEAN_B)
    assert np.allclose(benchmark_dist.stddev, np.abs(benchmark_dist.mean) / 10.0)
    assert benchmark_dist.families[:4] == ("normal",) * 4
    assert benchmark_dist.families[4:] == ("laplace",) * 2


def test_zero_stddev_draws_are_deterministic():
    dist = ws.build_distribution(
        2, 1, MEAN_A, MEAN_B,
        family_a="normal", family_b="laplace",
        stddev_a=np.zeros((2, 2)), stddev_b=np.zeros((2, 1)),
    )
    bank = ws.draw_bank(dist, 50, seed=9)
    assert np.abs(bank.a - np.asarray(MEAN_A)).max() == 0.0
    assert np.abs(bank.b - np.asarray(MEAN_B)).max() == 0.0


def test_stddev_length_mismatch_rejected():
    # 5 components for a system that needs 6
    with pytest.raises(ConfigurationError):
        ParameterDistribution(
            n=2, m=1,
            families=("normal",) * 6,
            mean=np.zeros(6),
            stddev=np.zeros(5),
        )


def test_invalid_distributions_rejected():
    with pytest.raises(ConfigurationError):
        ws.build_distribution(2, 1, MEAN_A, MEAN_B, stddev_scale=-0.1)
    with pytest.raises(ConfigurationError):
        ws.build_distribution(
            2, 1, MEAN_A, MEAN_B, stddev_a=-np.ones((2, 2)), stddev_b=np.zeros((2, 1))
        )
    with pytest.raises(ConfigurationError):
        ws.build_distribution(2, 1, MEAN_A, MEAN_B, family_a="cauchy", stddev_scale=0.1)
    with pytest.raises(ConfigurationError):
        ws.build_distribution(2, 1, MEAN_A, MEAN_B)  # no stddev information
    with pytest.raises(ConfigurationError):
        ParameterDistribution(
            n=2, m=1, families=("point",) * 6, mean=np.zeros(6), stddev=np.ones(6)
        )


def test_point_mass_bank():
    dist = ws.point_mass(MEAN_A, MEAN_B)
    bank = ws.draw_bank(dist, 7, seed=123)
    for idx in range(bank.size):
        assert np.array_equal(bank.a[idx], np.asarray(MEAN_A, dtype=float))
        assert np.array_equal(bank.b[idx], np.asarray(MEAN_B, dtype=float))


def test_same_seed_reproduces_bank_exactly(benchmark_dist):
    one = ws.draw_bank(benchmark_dist, 500, seed=77)
    two = ws.draw_bank(benchmark_dist, 500, seed=77)
    assert np.array_equal(one.a, two.a)
    assert np.array_equal(one.b, two.b)
    other = ws.draw_bank(benchmark_dist, 500, seed=78)
    assert not np.array_equal(one.a, other.a)


def test_normal_components_match_clt_bound(benchmark_dist):
    size = 100_000
    bank = ws.draw_bank(benchmark_dist, size, seed=31)
    lam = np.concatenate(
        [bank.a.reshape(size, -1, order="F"), bank.b.reshape(size, -1, order="F")],
        axis=1,
    )
    for j in range(benchmark_dist.dim):
        err = abs(lam[:, j].mean() - benchmark_dist.mean[j])
        bound = 4.0 * benchmark_dist.stddev[j] / np.sqrt(size)
        assert err <= bound, f"component {j}: {err} > {bound}"


def test_laplace_components_match_variance():
    size = 100_000
    dist = ws.build_distribution(
        1, 1, [[0.8]], [[0.4]], family_a="laplace", family_b="laplace",
        stddev_scale=0.25,
    )
    bank = ws.draw_bank(dist, size, seed=13)
    for column, std in ((bank.a[:, 0, 0], 0.2), (bank.b[:, 0, 0], 0.1)):
        sample_var = column.var(ddof=1)
        # Laplace kurtosis is 6, so var(s^2) is about 5 sigma^4 / N.
        bound = 4.0 * np.sqrt(5.0 / size) * std**2
        assert abs(sample_var - std**2) <= bound


def test_expect_on_point_bank():
    dist = ws.point_mass(MEAN_A, MEAN_B)
    bank = ws.draw_bank(dist, 5, seed=2)
    assert np.allclose(ws.expect(bank, lambda a, b: a), MEAN_A, atol=1e-15)
    constant = np.array([[4.0, 2.0]])
    assert np.array_equal(ws.expect(bank, lambda a, b: constant), constant)


def test_expect_three_sample_hand_computation():
    a = np.array([
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [2.0, 0.0]],
        [[1.0, 1.0], [1.0, 1.0]],
    ])
    b = np.zeros((3, 2, 1))
    bank = ws.SampleBank(a=a, b=b)
    got = ws.expect(bank, lambda ai, bi: ai.T @ ai)
    expected = (a[0].T @ a[0] + a[1].T @ a[1] + a[2].T @ a[2]) / 3.0
    assert np.abs(got - expected).max() <= 1e-15


def test_expect_is_linear(bank2k):
    f = lambda a, b: a @ b
    g = lambda a, b: a.T @ a
    combo = ws.expect(bank2k, lambda a, b: 2.0 * (a @ b))
    assert np.abs(combo - 2.0 * ws.expect(bank2k, f)).max() <= 1e-12
    summed = ws.expect(bank2k, lambda a, b: a.T @ a + a.T @ a)
    assert np.abs(summed - 2.0 * ws.expect(bank2k, g)).max() <= 1e-10


def test_expect_reports_offending_sample():
    a = np.ones((3, 1, 1))
    b = np.ones((3, 1, 1))
    bank = ws.SampleBank(a=a, b=b)

    def bad(ai, bi):
        return np.array([[np.inf]]) if ai[0, 0] == 1.0 else ai

    with pytest.raises(NonFiniteError, match="sample 0"):
        ws.expect(bank, bad)


def test_bank_is_immutable(bank2k):
    with pytest.raises(ValueError):
        bank2k.a[0, 0, 0] = 99.0


def test_stream_rng_and_derive_seed_are_pure():
    a = ws.stream_rng(99, 3).standard_normal(4)
    b = ws.stream_rng(99, 3).standard_normal(4)
    assert np.array_equal(a, b)
    c = ws.stream_rng(99, 4).standard_normal(4)
    assert not np.array_equal(a, c)
    assert ws.derive_seed(99, 3) == ws.derive_seed(99, 3)
    assert ws.derive_seed(99, 3) != ws.derive_seed(99, 4)
