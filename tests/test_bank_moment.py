"""Property tests of the bank-moment kernel against per-sample loops.

Every bank expectation (the coupled maps, the stacked residual, the
predictive costs behind the weights, the closed-loop operator of the
stability checks) is read off the bank's moment matrix. Here each one is
recomputed draw by draw with straight-line numpy on random small systems and
all three weight families, and the two must agree to 1e-12 relative to the
size of the quantity.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wsriccati as ws
from wsriccati.ensemble import (
    SampleBank,
    _closed_loop_operator,
    _quadratic_forms,
    _weighted_moments,
    quadratic_expect,
)
from wsriccati.matops import _pair_index, unvech
from wsriccati.weights import RSL_MAX_EXPONENT, predictive_costs

import reference
from conftest import Q2, R1

REL = 1e-12
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _spd(rng, size, shift):
    x = rng.standard_normal((size, size))
    return x @ x.T + shift * np.eye(size)


@st.composite
def cases(draw):
    """A random bank, policy, costs and weight specification with theta > 0."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    size = draw(st.integers(1, 50))
    family = draw(st.sampled_from(["RN", "RSL", "RRSL"]))
    theta = draw(st.floats(0.001, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = 0.5 * rng.standard_normal((size, n, n))
    b = 0.5 * rng.standard_normal((size, n, m))
    sigma = _spd(rng, n, 0.1) if draw(st.booleans()) else None
    spec = ws.WeightSpec(
        family=family,
        theta=theta,
        alpha=float(rng.uniform(0.1, 10.0)),
        beta=float(rng.uniform(0.0, 11.0)),
        sigma=sigma,
    )
    problem = ws.DesignProblem(
        bank=ws.SampleBank(a=a, b=b),
        q=_spd(rng, n, 0.5),
        r=_spd(rng, m, 0.5),
        weights=spec,
    )
    value = _spd(rng, n, 0.0)
    gain = rng.standard_normal((m, n))
    if family == "RSL":
        # Larger exponents raise WeightOverflowError by design.
        assume(theta * loop_costs(problem, value, gain).max() < RSL_MAX_EXPONENT)
    return problem, value, gain


def loop_costs(problem, value, gain):
    bank, sigma = problem.bank, problem.weights.resolved_sigma(problem.n)
    out = np.empty(bank.size)
    for i in range(bank.size):
        closed = bank.a[i] - bank.b[i] @ gain
        inner = closed.T @ value @ closed + problem.q + gain.T @ problem.r @ gain
        out[i] = np.trace(inner @ sigma)
    return out


def loop_weights(problem, value, gain):
    spec, theta = problem.weights, problem.theta
    costs = loop_costs(problem, value, gain)
    if spec.family == "RN":
        raw = np.ones_like(costs)
    elif spec.family == "RSL":
        raw = np.exp(theta * costs)
    else:
        # 1 + theta * sigmoid(x), the sigmoid written as 0.5 + 0.5 tanh(x / 2)
        x = spec.alpha * costs - spec.beta * costs.mean()
        raw = 1.0 + theta * (0.5 + 0.5 * np.tanh(0.5 * x))
    return raw / raw.mean()


def loop_means(problem, value, gain):
    """E_w[A'PA], E_w[A'PB], E_w[B'PB], E_w[(A-BL)'P(A-BL)] draw by draw."""
    bank = problem.bank
    w = loop_weights(problem, value, gain)
    n, m = problem.n, problem.m
    eapa, eapb = np.zeros((n, n)), np.zeros((n, m))
    ebpb, ecpc = np.zeros((m, m)), np.zeros((n, n))
    for i in range(bank.size):
        a_i, b_i = bank.a[i], bank.b[i]
        closed = a_i - b_i @ gain
        eapa += w[i] * a_i.T @ value @ a_i
        eapb += w[i] * a_i.T @ value @ b_i
        ebpb += w[i] * b_i.T @ value @ b_i
        ecpc += w[i] * closed.T @ value @ closed
    return eapa / bank.size, eapb / bank.size, ebpb / bank.size, ecpc / bank.size


def assert_close(got, ref, scale=None):
    scale = np.abs(ref).max() if scale is None else scale
    assert np.abs(got - ref).max() <= REL * scale


@PROPERTY
@given(cases())
def test_maps_match_per_sample_loop(case):
    problem, value, gain = case
    eapa, eapb, ebpb, _ = loop_means(problem, value, gain)
    ref_gain = np.linalg.solve(ebpb + problem.r, eapb.T)
    ref_value = eapa + problem.q - eapb @ ref_gain
    got_value, got_gain = reference._maps(problem, value, gain)
    assert_close(got_value, ref_value)
    assert_close(got_gain, ref_gain)


@PROPERTY
@given(cases())
def test_residual_matches_per_sample_loop(case):
    problem, value, gain = case
    _, eapb, ebpb, ecpc = loop_means(problem, value, gain)
    f_mat = ecpc + gain.T @ problem.r @ gain + problem.q - value
    g_mat = (ebpb + problem.r) @ gain - eapb.T
    z = ws.pack_solution(value, gain)
    got = ws.implicit_residual(z, problem)
    head = problem.n * (problem.n + 1) // 2
    # The residual is a difference of terms; its error is measured against
    # the largest of them, not against the (possibly small) difference.
    f_scale = max(np.abs(t).max() for t in (ecpc, problem.q, value))
    g_scale = max(np.abs(ebpb + problem.r).max() * np.abs(gain).max(), np.abs(eapb).max())
    assert_close(got[:head], ws.vech(f_mat), f_scale)
    assert_close(got[head:], g_mat.reshape(-1, order="F"), g_scale)


@PROPERTY
@given(cases())
def test_weights_and_costs_match_per_sample_loop(case):
    problem, value, gain = case
    spec, theta, bank = problem.weights, problem.theta, problem.bank
    wbank = ws.build_weighted_bank(bank, spec, theta, gain, value, problem.q, problem.r)
    ref_costs = predictive_costs(
        bank.a, bank.b, gain, value, spec.resolved_sigma(problem.n), problem.q, problem.r
    )
    assert_close(wbank.predictive, ref_costs)
    assert_close(wbank.predictive, loop_costs(problem, value, gain))
    weights = ws.weight_vector(bank, spec, theta, gain, value, problem.q, problem.r)
    assert_close(weights, loop_weights(problem, value, gain))
    assert np.array_equal(wbank.weights, weights)


@PROPERTY
@given(cases())
def test_closed_loop_kron_matches_per_sample_loop(case):
    problem, value, gain = case
    bank = problem.bank
    wbank = ws.build_weighted_bank(
        bank, problem.weights, problem.theta, gain, value, problem.q, problem.r
    )
    plain = np.zeros((problem.n**2, problem.n**2))
    weighted = np.zeros_like(plain)
    for i in range(bank.size):
        closed = bank.a[i] - bank.b[i] @ gain
        plain += np.kron(closed, closed)
        weighted += wbank.weights[i] * np.kron(closed, closed)
    assert_close(reference.closed_loop_kron_expect(bank, gain), plain / bank.size)
    assert_close(reference.closed_loop_kron_expect(wbank, gain), weighted / bank.size)


@PROPERTY
@given(cases())
def test_closed_loop_operator_matches_compressed_kron(case):
    """S -> E_w[C'SC] from the moment is compress(E_w[C kron C]'), plain and weighted.

    The stability radii are that matrix's spectral radius.
    """
    problem, value, gain = case
    bank = problem.bank
    wbank = ws.build_weighted_bank(
        bank, problem.weights, problem.theta, gain, value, problem.q, problem.r
    )
    for source, moment, radius in (
        (bank, bank.moment(), ws.ms_check(bank, gain).radius_plain),
        (wbank, bank.moment(wbank.weights), ws.wms_check(wbank, gain).radius_weighted),
    ):
        ref = reference.compress(reference.closed_loop_kron_expect(source, gain).T)
        # An entry sums terms K' E_w[Z' S_k Z] K that may cancel, as in a - b l
        # close to 0; its error is measured against the size of those terms.
        scale = np.abs(moment).max() * max(1.0, np.abs(gain).max()) ** 2
        assert_close(_closed_loop_operator(moment, gain), ref, scale)
        assert_close(radius, ws.spectral_radius(ref), scale)


@PROPERTY
@given(
    st.integers(1, 4), st.integers(1, 2), st.integers(1, 50), st.integers(0, 2**32 - 1)
)
def test_closed_loop_operator_is_the_per_basis_loop_bit_for_bit(n, m, size, seed):
    """One contraction of the whole basis stack gives each S_k's own bits.

    Each E_w[Z' S_k Z] is taken on a stack of one, S_k = unvech(e_k), for a
    moment z'z/N of random draws and a random gain.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((size, n * (n + m)))
    moment = z.T @ z / size
    gain = rng.standard_normal((m, n))
    k_mat = np.vstack([np.eye(n), -gain])
    zsz = np.array([
        quadratic_expect(moment[None], unvech(e, n)[None])[0]
        for e in np.eye(n * (n + 1) // 2)
    ])
    zsc = zsz @ k_mat
    rows, cols, _ = _pair_index(n)
    operator = _closed_loop_operator(moment, gain)
    assert np.array_equal(operator, (k_mat.T @ zsc)[:, cols, rows].T)


def test_unit_weights_reproduce_the_plain_moment(bank2k):
    assert np.array_equal(bank2k.moment(np.ones(bank2k.size)), bank2k.moment())


@pytest.mark.parametrize("family, theta", [("RRSL", 1.0), ("RSL", 0.00125)])
def test_weighted_bank_sees_the_solver_weights(bank2k, family, theta):
    spec = ws.WeightSpec(family=family, theta=theta, alpha=10.0, beta=11.0)
    problem = ws.DesignProblem(bank=bank2k, q=Q2, r=R1, weights=spec)
    sol = ws.fixed_point_solve(problem)
    wbank = ws.build_weighted_bank(bank2k, spec, theta, sol.gain, sol.value, Q2, R1)
    solver = ws.weight_vector(bank2k, spec, theta, sol.gain, sol.value, Q2, R1)
    assert np.array_equal(wbank.weights, solver)


@pytest.mark.parametrize(
    "n, m, size, rows", [(1, 1, 1, 1), (2, 1, 9, 4), (3, 2, 50, 3), (2, 1, 10_000, 11)]
)
def test_stacked_moments_equal_per_call_moments(n, m, size, rows):
    # The lockstep reads every weighted moment off one stack. Each must be the
    # bits of the bank's own moment(w) and of the per-call formula, w' phi / N
    # gathered by the pair index. The weights are the rows of one C-contiguous
    # stack, as the weight workspace hands them over.
    rng = np.random.default_rng(1000 * n + 100 * m + rows)
    banks = [
        SampleBank(a=rng.standard_normal((size, n, n)), b=rng.standard_normal((size, n, m)))
        for _ in range(rows)
    ]
    weights = rng.exponential(size=(rows, size))
    stacked = _weighted_moments(banks, weights)
    assert stacked.shape == (rows, n * (n + m), n * (n + m))
    full = _pair_index(n * (n + m))[2]
    for bank, w, moment in zip(banks, weights, stacked):
        assert np.array_equal(moment, bank.moment(w))
        assert np.array_equal(moment, (w @ bank.phi / size)[full])


@pytest.mark.parametrize(
    "n, m, size, rows", [(1, 1, 1, 1), (2, 1, 9, 4), (3, 2, 50, 3), (2, 1, 10_000, 11)]
)
def test_stacked_quadratic_forms_equal_per_bank_products(n, m, size, rows):
    # The weight pass takes every row's costs off one stack of matrices. Each
    # row must be the bits of phi c, c the pair coefficients of its H (H[p, p]
    # on the diagonal, H[p, q] + H[q, p] for p < q), and z_i' H z_i draw by
    # draw up to rounding, for H that are not symmetric.
    rng = np.random.default_rng(1000 * n + 100 * m + rows)
    banks = [
        SampleBank(a=rng.standard_normal((size, n, n)), b=rng.standard_normal((size, n, m)))
        for _ in range(rows)
    ]
    d = n * (n + m)
    matrices = rng.standard_normal((rows, d, d))
    out = np.empty((rows, size))
    _quadratic_forms(banks, matrices, out)
    for bank, h, forms in zip(banks, matrices, out):
        c = np.array([
            h[p, q] if p == q else h[p, q] + h[q, p] for p, q in zip(*np.triu_indices(d))
        ])
        assert np.array_equal(forms, bank.phi @ c)
        z = np.concatenate([bank.a, bank.b], axis=2).transpose(0, 2, 1).reshape(size, d)
        ref = np.einsum("ip,pq,iq->i", z, h, z)
        scale = np.einsum("ip,pq,iq->i", np.abs(z), np.abs(h), np.abs(z))
        assert np.all(np.abs(forms - ref) <= REL * scale)
