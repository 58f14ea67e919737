"""Second-moment stability checks for a candidate gain.

The closed loop x_{t+1} = (A_t - B_t L) x_t is mean-square stable exactly
when the operator

    S -> E[(A - B L)^T S (A - B L)]

on symmetric matrices has spectral radius below one (De Koning, Automatica
1982). Its matrix in vech coordinates is built from the bank's moment, one
column vech(K^T E[Z^T S_k Z] K) per basis matrix S_k = unvech(e_k), with
Z = [A B] and K = [I; -L]; no per-draw product is formed. It is the adjoint,
under the trace inner product, of S -> E[C S C^T], C = A - B L, whose matrix
is the compressed Kronecker matrix C(E[C kron C]), so the two have the same
eigenvalues; the tests check it against that per-draw form,
``closed_loop_kron_expect`` in ``tests/reference.py``.
Replacing the plain expectation with a weighted one gives the weighted
mean-square verdict for the policy the weights encode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import SampleBank, _closed_loop_operator
from .errors import NonFiniteError
from .matops import spectral_radius
from .weights import WeightedBank

__all__ = ["StabilityReport", "ms_check", "wms_check"]


@dataclass(frozen=True)
class StabilityReport:
    """Spectral radii and strict less-than-one verdicts for one gain.

    A check fills the radius it computes and leaves the other ``None``;
    callers wanting a guard band apply their own threshold to the radius.
    """

    radius_plain: float | None = None
    radius_weighted: float | None = None

    @property
    def ms_stable(self) -> bool | None:
        if self.radius_plain is None:
            return None
        return self.radius_plain < 1.0

    @property
    def wms_stable(self) -> bool | None:
        if self.radius_weighted is None:
            return None
        return self.radius_weighted < 1.0


def _radius(moment: np.ndarray, gain) -> float:
    """Spectral radius of the closed-loop operator of ``gain`` on ``moment``.

    An operator with a non-finite entry (a gain so large that the products
    overflow) raises :class:`NonFiniteError`, as a solve's evaluation does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        operator = _closed_loop_operator(moment, np.asarray(gain, dtype=float))
    if not np.isfinite(operator).all():
        raise NonFiniteError("closed-loop stability operator is not finite")
    return spectral_radius(operator)


def ms_check(bank: SampleBank, gain) -> StabilityReport:
    """Mean-square stability verdict under the plain empirical distribution."""
    return StabilityReport(radius_plain=_radius(bank.moment(), gain))


def wms_check(wbank: WeightedBank, gain) -> StabilityReport:
    """Weighted mean-square verdict under the policy the weights encode."""
    return StabilityReport(radius_weighted=_radius(wbank.bank.moment(wbank.weights), gain))
