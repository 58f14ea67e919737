import warnings

import numpy as np
import pytest

import wsriccati as ws
from wsriccati import NonFiniteError, vech

import reference
from conftest import Q2, R1
from reference import point_mass


def scalar_bank(a_value, b_value=1.0, size=3):
    dist = point_mass([[a_value]], [[b_value]])
    return ws.draw_bank(dist, size, seed=0)


def power_iteration_verdict(bank, gain, weights=None, steps=200):
    """Iterate S -> E[(A-BL)^T S (A-BL)] from the identity and classify.

    Returns True when the iterates collapse toward zero, False when they
    blow up; raises if neither is clear within the budget.
    """
    closed = bank.a - np.matmul(bank.b, np.asarray(gain, dtype=float))
    w = np.ones(bank.size) if weights is None else weights
    s = np.eye(bank.n)
    initial = np.linalg.norm(vech(s))
    for _ in range(steps):
        s = np.einsum("s,sji,jk,skl->il", w, closed, s, closed) / bank.size
        norm = np.linalg.norm(vech(s))
        if norm < 1e-10 * initial:
            return True
        if norm > 1e10 * initial:
            return False
    raise AssertionError("power iteration inconclusive")


def test_ms_check_scalar_examples():
    report = ws.ms_check(scalar_bank(0.5), np.zeros((1, 1)))
    assert report.radius_plain == pytest.approx(0.25, abs=1e-12)
    assert report.ms_stable is True

    report = ws.ms_check(scalar_bank(1.2), np.zeros((1, 1)))
    assert report.radius_plain == pytest.approx(1.44, abs=1e-12)
    assert report.ms_stable is False
    assert report.wms_stable is None
    assert report.radius_weighted is None


def test_closed_loop_kron_point_cases():
    got = reference.closed_loop_kron_expect(scalar_bank(0.5), np.zeros((1, 1)))
    assert got == pytest.approx(np.array([[0.25]]), abs=1e-15)
    # gain cancels the drift exactly: a - b l = 0
    got = reference.closed_loop_kron_expect(scalar_bank(0.7), np.array([[0.7]]))
    assert np.abs(got).max() == 0.0


def test_closed_loop_kron_hand_average():
    a = np.stack([np.eye(2), np.diag([2.0, 0.5]), np.ones((2, 2))])
    b = np.zeros((3, 2, 1))
    bank = ws.SampleBank(a=a, b=b)
    gain = np.zeros((1, 2))
    got = reference.closed_loop_kron_expect(bank, gain)
    expected = (np.kron(a[0], a[0]) + np.kron(a[1], a[1]) + np.kron(a[2], a[2])) / 3.0
    assert np.abs(got - expected).max() <= 1e-14


def test_closed_loop_kron_rejects_other_types():
    with pytest.raises(TypeError):
        reference.closed_loop_kron_expect(np.eye(2), np.zeros((1, 2)))


def test_weighted_radius_equals_plain_at_theta_zero(bank2k, rrsl_spec):
    gain = np.array([[1.0, 2.0]])
    wbank = ws.build_weighted_bank(
        bank2k, rrsl_spec, 0.0, gain, np.eye(2), Q2, R1
    )
    plain = ws.ms_check(bank2k, gain)
    weighted = ws.wms_check(wbank, gain)
    assert weighted.radius_weighted == plain.radius_plain


def test_converged_design_is_wms_stable(bank2k, rrsl_spec, rrsl_solution_2k):
    sol = rrsl_solution_2k
    wbank = ws.build_weighted_bank(
        bank2k, rrsl_spec, 1.0, sol.gain, sol.value, Q2, R1
    )
    weighted = ws.wms_check(wbank, sol.gain)
    assert weighted.wms_stable is True
    assert weighted.radius_weighted < 1.0
    plain = ws.ms_check(bank2k, sol.gain)
    assert plain.ms_stable is True


def test_concentrated_weights_reduce_to_single_sample():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 2, 2)) * 0.4
    b = rng.standard_normal((4, 2, 1)) * 0.1
    bank = ws.SampleBank(a=a, b=b)
    gain = np.zeros((1, 2))
    weights = np.array([0.0, 0.0, 0.0, 4.0])
    wbank = ws.WeightedBank(
        bank=bank, weights=weights, raw_weights=weights,
        predictive=np.zeros(4),
    )
    got = ws.wms_check(wbank, gain).radius_weighted
    single = ws.spectral_radius(reference.compress(np.kron(a[3], a[3])))
    assert got == pytest.approx(single, rel=1e-12)


def test_radius_scale_covariance():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((30, 2, 2)) * 0.5
    b = rng.standard_normal((30, 2, 1)) * 0.2
    gain = rng.standard_normal((1, 2)) * 0.3
    base = ws.ms_check(ws.SampleBank(a=a, b=b), gain).radius_plain
    c = 1.7
    scaled = ws.ms_check(ws.SampleBank(a=c * a, b=c * b), gain).radius_plain
    assert scaled == pytest.approx(c**2 * base, rel=1e-10)


def test_power_iteration_agrees_with_radius():
    rng = np.random.default_rng(101)
    stable_seen = unstable_seen = 0
    for case in range(12):
        a = rng.standard_normal((60, 2, 2)) * 0.6
        b = rng.standard_normal((60, 2, 1)) * 0.3
        gain = rng.standard_normal((1, 2)) * 0.2
        bank = ws.SampleBank(a=a, b=b)
        rho = ws.ms_check(bank, gain).radius_plain
        target = 0.45 if case % 2 == 0 else 1.8
        factor = np.sqrt(target / rho)
        bank = ws.SampleBank(a=factor * a, b=factor * b)
        report = ws.ms_check(bank, gain)
        verdict = power_iteration_verdict(bank, gain)
        assert verdict == report.ms_stable
        stable_seen += report.ms_stable
        unstable_seen += not report.ms_stable
    assert stable_seen and unstable_seen


def test_a_gain_whose_closed_loop_overflows_raises_a_typed_error(bank2k, rrsl_spec):
    gain = [[1e300, 1e300]]
    wbank = ws.build_weighted_bank(bank2k, rrsl_spec, 0.0, np.zeros((1, 2)), np.eye(2), Q2, R1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="stability operator is not finite"):
            ws.ms_check(bank2k, gain)
        with pytest.raises(NonFiniteError, match="stability operator is not finite"):
            ws.wms_check(wbank, gain)
