"""The RRSL weights skip the sigmoid only where its result is already exact.

``_rrsl_raw`` sets the raw weight to 1 + theta where the sigmoid argument x
is at least 40 and to 1 where x is below log(2**-55 / |theta|), and takes
``1 + theta * expit(x)`` for every other entry. These tests hold it to that
full expression bit for bit, with arguments placed on and next to both
window edges, and check that a NaN argument still fails loudly. The
package's sigmoid, ``weights._expit``, is held to ``scipy.special.expit``
bit for bit, over the window of every theta and at the edges of its
``math.exp`` fallback.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

import wsriccati as ws
from wsriccati import NonFiniteError, weights
from wsriccati.ensemble import SampleBank
from wsriccati.weights import _expit

from reference import _raw_from_costs

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

THETAS = st.one_of(
    st.sampled_from([-0.9, -1e-3, 0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 7.0, 1e6, 1e300]),
    st.floats(-0.999, 1e8, allow_nan=False),
)


def _edges(theta: float) -> list[float]:
    edges = [40.0]
    if theta != 0.0:
        edges.append(math.log(2.0**-55) - math.log(abs(theta)))
    return edges


def _targets(theta: float, offsets: list[float]) -> np.ndarray:
    """Sigmoid arguments on, one ulp either side of, and near each window edge."""
    out = []
    for edge in _edges(theta):
        out += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        out += [edge + d for d in offsets]
    out += [-np.inf, np.inf, -800.0, 800.0, 0.0]
    return np.array(out)


@PROPERTY
@given(
    THETAS,
    st.one_of(st.just((1.0, 0.0)), st.tuples(st.floats(0.01, 100.0), st.floats(-50.0, 50.0))),
    st.floats(-1e3, 1e3),
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40),
)
def test_rrsl_raw_weights_equal_the_full_sigmoid(theta, slope, mean, offsets):
    alpha, beta = slope
    spec = ws.WeightSpec(family="RRSL", theta=theta, alpha=alpha, beta=beta)
    # Costs whose arguments alpha * J - beta * mean land on the targets (for
    # alpha = 1, beta = 0 exactly, else up to rounding).
    costs = (_targets(theta, offsets) + beta * mean) / alpha
    with np.errstate(invalid="ignore"):
        got = _raw_from_costs(spec, theta, costs, mean)
        want = 1.0 + theta * expit(alpha * costs - beta * mean)
    assert np.array_equal(got, want, equal_nan=True)


def _assert_expit_bits(x: np.ndarray) -> None:
    """_expit(x) has the bits of scipy's expit(x), NaN for NaN, and warns not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _expit(x)
    with np.errstate(all="ignore"):
        want = expit(x)
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    differ = np.flatnonzero(~same)
    assert differ.size == 0, (differ.size, x[differ[:5]])


@settings(PROPERTY, max_examples=100)
@given(st.floats(-300.0, 300.0), st.integers(0, 2**32 - 1))
def test_expit_kernel_equals_scipy_expit_in_the_window(log10_theta, seed):
    # The window [log(2**-55 / |theta|), 40) of |theta| = 10**log10_theta,
    # where _rrsl_raw takes the sigmoid.
    floor = math.log(2.0**-55) - log10_theta * math.log(10.0)
    assume(floor < 40.0)  # for |theta| below 1.2e-34 the window is empty
    x = np.random.default_rng(seed).uniform(floor, 40.0, 2_000)
    _assert_expit_bits(np.concatenate([[floor, np.nextafter(40.0, -np.inf)], x]))


def test_expit_kernel_equals_scipy_expit_at_the_edges():
    floors = [math.log(2.0**-55) - math.log(t) for t in (1e-300, 1e-12, 1.0, 1e6, 1e300)]
    x = [0.0, -0.0, np.inf, -np.inf, np.nan, 40.0, np.nextafter(40.0, -np.inf)]
    for floor in floors:
        x += [floor, np.nextafter(floor, -np.inf), np.nextafter(floor, np.inf)]
    # Across glibc's scaled cexp path (-x in [709.0, 709.78]), exp's overflow
    # and the -708 switch to math.exp, on both sides of each.
    grid = np.linspace(-745.0, -700.0, 100_001)
    _assert_expit_bits(np.concatenate([x, grid, [-708.0, np.nextafter(-708.0, 0.0)]]))


def test_nan_argument_still_raises_through_weight_vector():
    # Sample 1 costs 1e308: 10 J overflows to inf, as does 11 mean(J), so its
    # sigmoid argument is inf - inf = NaN; sample 0's argument is -inf.
    bank = SampleBank(a=np.array([[[0.5]], [[1e154]]]), b=np.zeros((2, 1, 1)))
    spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="raw weight non-finite at sample 1"):
            ws.weight_vector(bank, spec, 1.0, [[0.0]], [[1.0]], [[1.0]], [[1.0]])


@pytest.mark.parametrize("field", ["alpha", "beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_weight_spec_rejects_non_finite_slopes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ws.WeightSpec(family="RRSL", theta=1.0, **{field: value})


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**16))
def test_weigh_cost_matrix_is_np_kron(n, m, seed):
    rng = np.random.default_rng(seed)
    bank = SampleBank(a=rng.standard_normal((3, n, n)), b=rng.standard_normal((3, n, m)))
    root = rng.standard_normal((n, n))
    spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=0.5, beta=0.5, sigma=root @ root.T)
    gain = rng.standard_normal((m, n))
    value = rng.standard_normal((n, n))
    value = value + value.T
    seen = []
    original = weights._quadratic_forms

    def record(banks, matrices, out):
        seen.append(matrices[0])
        return original(banks, matrices, out)

    weights._quadratic_forms = record
    try:
        ws.weight_vector(bank, spec, 1.0, gain, value, np.eye(n), np.eye(m))
    finally:
        weights._quadratic_forms = original
    k_mat = np.vstack([np.eye(n), -gain])
    (got,) = seen
    assert np.array_equal(got, np.kron(k_mat @ spec.sigma @ k_mat.T, value))
