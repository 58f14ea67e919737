import numpy as np
import pytest

import wsriccati as ws

from reference import point_mass

# Two-state benchmark system with a nearly unstable mean drift and weak
# control authority; used throughout the suite.
MEAN_A = [[0.97, -0.03], [0.1, 1.03]]
MEAN_B = [[0.005], [0.01]]
Q2 = 3.0 * np.eye(2)
R1 = np.array([[1.0]])


@pytest.fixture(scope="session")
def benchmark_dist():
    return ws.build_distribution(
        2,
        1,
        MEAN_A,
        MEAN_B,
        family_a="normal",
        family_b="laplace",
        stddev_scale=0.1,
    )


@pytest.fixture(scope="session")
def bank2k(benchmark_dist):
    return ws.draw_bank(benchmark_dist, 2_000, seed=20_250_810)


@pytest.fixture(scope="session")
def rrsl_spec():
    return ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)


@pytest.fixture(scope="session")
def rrsl_problem_2k(bank2k, rrsl_spec):
    return ws.DesignProblem(bank=bank2k, q=Q2, r=R1, weights=rrsl_spec)


@pytest.fixture(scope="session")
def rn_solution_2k(rrsl_problem_2k):
    return ws.fixed_point_solve(rrsl_problem_2k.with_theta(0.0))


@pytest.fixture(scope="session")
def rrsl_solution_2k(rrsl_problem_2k):
    return ws.fixed_point_solve(rrsl_problem_2k)


@pytest.fixture()
def scalar_problem():
    """Deterministic scalar system a=0.5, b=1 with unit costs."""
    dist = point_mass([[0.5]], [[1.0]])
    bank = ws.draw_bank(dist, 4, seed=1)
    return ws.DesignProblem(
        bank=bank, q=[[1.0]], r=[[1.0]], weights=ws.WeightSpec(family="RN")
    )


def scalar_closed_form():
    """Root of p**2 - 0.25 p - 1 = 0 and the matching gain."""
    value = (0.25 + np.sqrt(4.0625)) / 2.0
    gain = 0.5 * value / (1.0 + value)
    return value, gain
