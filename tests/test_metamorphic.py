"""Metamorphic relations of the design: exact invariances checked design against design.

A design's equations read the bank only through weighted means over its
draws, and every weight reads the bank only through each draw's own cost and
the bank's mean cost. So taking every draw twice, or the draws in another
order, leaves the equations and their root unchanged; only the rounding of
the sums moves. The roots are compared, never the iteration counts, under a
tolerance fixed before the first run: 1e-9 of the root's norm.
"""

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
