"""Metamorphic relations of the design: exact invariances checked design against design.

A design's equations read the bank only through weighted means over its
draws, and every weight reads the bank only through each draw's own cost and
the bank's mean cost. So taking every draw twice, or the draws in another
order, leaves the equations and their root unchanged; only the rounding of
the sums moves.

Scaling the costs Q, R by c scales every predictive cost J by c at (cP, L),
so the maps send (cP, L) to c times their image at (P, L) when the weights do
not move. RN weights never do. The RSL weight exp(theta J) keeps its value
under theta / c, and the RRSL sigmoid of alpha J - beta mean(J) under
(alpha, beta) / c with theta kept. The root is then (cP, L).

A change of state coordinates x -> T x leaves every draw's predictive cost
as it is when A_i -> T A_i T^-1, B_i -> T B_i, Q -> T^-T Q T^-1 and the
reference state's second moment Sigma -> T Sigma T'. The weights then do not
move, and the root is (T^-T P T^-1, L T^-1).

A change of input coordinates u -> M v leaves every draw's closed loop
A_i - B_i L and its input cost L' R L as they are when B_i -> B_i M,
R -> M' R M and L -> M^-1 L. The weights then do not move, and the root is
(P, M^-1 L).

The roots are compared, never the iteration counts, under a tolerance fixed
before the first run: 1e-9 of the root's norm.
"""

import dataclasses
import functools

import numpy as np
import pytest

import wsriccati as ws

from conftest import Q2, R1

#: Largest distance between two roots, relative to the norm of the first.
ROOT_RTOL = 1e-9

SPECS = {
    "RN": ws.WeightSpec(family="RN"),
    "RSL": ws.WeightSpec(family="RSL", theta=0.00125),
    "RRSL": ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0),
}


@functools.lru_cache(maxsize=None)
def _root(bank, family: str, method: str) -> np.ndarray:
    problem = ws.DesignProblem(bank=bank, q=Q2, r=R1, weights=SPECS[family])
    solution = ws.solve(problem, ws.SolverOptions(method=method))
    return ws.pack_solution(solution.value, solution.gain)


def _related(bank, relation: str):
    """The bank with every draw taken twice, or with its draws permuted."""
    if relation == "twice":
        return ws.SampleBank(a=np.repeat(bank.a, 2, axis=0), b=np.repeat(bank.b, 2, axis=0))
    order = np.random.default_rng(3).permutation(bank.size)
    return ws.SampleBank(a=bank.a[order], b=bank.b[order])


@pytest.mark.parametrize("relation", ["permuted", "twice"])
@pytest.mark.parametrize("method", ["fixed-point", "newton-continuation"])
@pytest.mark.parametrize("family", sorted(SPECS))
def test_the_design_is_invariant_under_the_bank_relations(bank2k, family, method, relation):
    want = _root(bank2k, family, method)
    got = _root(_related(bank2k, relation), family, method)
    assert np.linalg.norm(got - want) <= ROOT_RTOL * np.linalg.norm(want)


def _scaled(family: str, c: float) -> ws.WeightSpec:
    """The weights of ``family`` that keep their value when the costs are scaled by c."""
    spec = SPECS[family]
    if family == "RSL":
        return dataclasses.replace(spec, theta=spec.theta / c)
    if family == "RRSL":
        return dataclasses.replace(spec, alpha=spec.alpha / c, beta=spec.beta / c)
    return spec


@functools.lru_cache(maxsize=None)
def _scaled_design(bank, family: str, method: str, c: float):
    problem = ws.DesignProblem(bank=bank, q=c * Q2, r=c * R1, weights=_scaled(family, c))
    solution = ws.solve(problem, ws.SolverOptions(method=method))
    return solution.value, solution.gain


@pytest.mark.parametrize("c", [10.0, 0.1])
@pytest.mark.parametrize("method", ["fixed-point", "newton-continuation"])
@pytest.mark.parametrize("family", sorted(SPECS))
def test_scaling_the_costs_scales_the_value_and_keeps_the_gain(bank2k, family, method, c):
    value, gain = ws.unpack_solution(_root(bank2k, family, method), 2, 1)
    got_value, got_gain = _scaled_design(bank2k, family, method, c)
    assert np.linalg.norm(got_value - c * value) <= ROOT_RTOL * np.linalg.norm(c * value)
    assert np.linalg.norm(got_gain - gain) <= ROOT_RTOL * np.linalg.norm(gain)


#: The state change of coordinates x -> T x.
T = np.array([[1.3, 0.4], [-0.2, 0.8]])


def _transformed_design(bank, family: str, method: str):
    """The design in the coordinates T x, from the identity second moment of x."""
    t_inv = np.linalg.inv(T)
    transformed = ws.SampleBank(a=T @ bank.a @ t_inv, b=T @ bank.b)
    q = t_inv.T @ Q2 @ t_inv
    weights = dataclasses.replace(SPECS[family], sigma=T @ T.T)
    problem = ws.DesignProblem(bank=transformed, q=(q + q.T) / 2.0, r=R1, weights=weights)
    solution = ws.solve(problem, ws.SolverOptions(method=method))
    return solution.value, solution.gain


@pytest.mark.parametrize("method", ["fixed-point", "newton-continuation"])
@pytest.mark.parametrize("family", sorted(SPECS))
def test_a_change_of_state_coordinates_transforms_the_root(bank2k, family, method):
    value, gain = ws.unpack_solution(_root(bank2k, family, method), 2, 1)
    got_value, got_gain = _transformed_design(bank2k, family, method)
    t_inv = np.linalg.inv(T)
    want_value, want_gain = t_inv.T @ value @ t_inv, gain @ t_inv
    assert np.linalg.norm(got_value - want_value) <= ROOT_RTOL * np.linalg.norm(want_value)
    assert np.linalg.norm(got_gain - want_gain) <= ROOT_RTOL * np.linalg.norm(want_gain)


def _input_design(bank, family: str, method: str, m_mat: np.ndarray):
    """The design in the input coordinates v of u = M v."""
    transformed = ws.SampleBank(a=bank.a, b=bank.b @ m_mat)
    r = m_mat.T @ R1 @ m_mat
    problem = ws.DesignProblem(bank=transformed, q=Q2, r=(r + r.T) / 2.0, weights=SPECS[family])
    solution = ws.solve(problem, ws.SolverOptions(method=method))
    return solution.value, solution.gain


@pytest.mark.parametrize("m_entry", [2.5, -0.4])
@pytest.mark.parametrize("method", ["fixed-point", "newton-continuation"])
@pytest.mark.parametrize("family", sorted(SPECS))
def test_a_change_of_input_coordinates_transforms_the_gain(bank2k, family, method, m_entry):
    m_mat = np.array([[m_entry]])
    value, gain = ws.unpack_solution(_root(bank2k, family, method), 2, 1)
    got_value, got_gain = _input_design(bank2k, family, method, m_mat)
    want_gain = np.linalg.inv(m_mat) @ gain
    assert np.linalg.norm(got_value - value) <= ROOT_RTOL * np.linalg.norm(value)
    assert np.linalg.norm(got_gain - want_gain) <= ROOT_RTOL * np.linalg.norm(want_gain)
