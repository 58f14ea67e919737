import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsriccati as ws
from wsriccati import NonFiniteError, NumericalError, WeightOverflowError
from wsriccati.weights import _raw_from_costs, predictive_costs

import reference
from conftest import Q2, R1


def test_predictive_cost_identity_case():
    got = reference.predictive_cost(
        np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)), np.eye(2),
        np.eye(2), np.eye(2), [[1.0]],
    )
    assert got == pytest.approx(4.0, abs=1e-14)


def test_predictive_cost_zero_reference_moment():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 1))
    gain = rng.standard_normal((1, 2))
    value = np.eye(2) * 3.0
    got = reference.predictive_cost(a, b, gain, value, np.zeros((2, 2)), Q2, R1)
    assert got == 0.0


def test_predictive_cost_scalar_case():
    got = reference.predictive_cost(
        [[0.5]], [[1.0]], [[0.25]], [[1.0]], [[1.0]], [[1.0]], [[1.0]]
    )
    assert got == pytest.approx(1.125, abs=1e-14)


def test_predictive_costs_batch_matches_scalar():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 2, 2))
    b = rng.standard_normal((6, 2, 1))
    gain = rng.standard_normal((1, 2))
    value = np.eye(2) + 0.5
    sigma = np.diag([1.0, 2.0])
    batch = predictive_costs(a, b, gain, value, sigma, Q2, R1)
    for idx in range(6):
        single = reference.predictive_cost(a[idx], b[idx], gain, value, sigma, Q2, R1)
        assert batch[idx] == pytest.approx(single, rel=1e-13)


def test_predictive_cost_affine_in_value_and_state_cost():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 1))
    gain = rng.standard_normal((1, 2))
    sigma = np.eye(2)

    def cost(value, q):
        return reference.predictive_cost(a, b, gain, value, sigma, q, R1)

    v1, v2 = np.eye(2), np.diag([2.0, 0.5])
    q1, q2 = np.eye(2), np.diag([3.0, 1.0])
    lhs = cost(v1 + v2, q1) - cost(v1, q1) - cost(v2, q1) + cost(np.zeros((2, 2)), q1)
    assert abs(lhs) <= 1e-12
    lhs_q = cost(v1, q1 + q2) - cost(v1, q1) - cost(v1, q2) + cost(v1, np.zeros((2, 2)))
    assert abs(lhs_q) <= 1e-12


def test_predictive_cost_quadratic_in_gain():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 1))
    delta = rng.standard_normal((1, 2))
    value = np.eye(2)
    sigma = np.eye(2)

    def cost(gain):
        return reference.predictive_cost(a, b, gain, value, sigma, Q2, R1)

    # second differences along a fixed direction are gain-independent
    base = rng.standard_normal((1, 2))
    second_at_base = cost(base + 2 * delta) - 2 * cost(base + delta) + cost(base)
    second_at_zero = cost(2 * delta) - 2 * cost(delta) + cost(np.zeros((1, 2)))
    assert second_at_base == pytest.approx(second_at_zero, rel=1e-9)
    # and cost(t * delta) is a parabola in t
    t = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    vals = [cost(ti * delta) for ti in t]
    fit = np.polyval(np.polyfit(t, vals, 2), t)
    assert np.abs(np.asarray(vals) - fit).max() <= 1e-10


def test_raw_weight_zero_sensitivity_is_one():
    a, b = [[0.5]], [[1.0]]
    for family in ("RN", "RSL", "RRSL"):
        spec = ws.WeightSpec(family=family, alpha=10.0, beta=11.0)
        got = reference.raw_weight(
            spec, a, b, 0.0, [[0.1]], [[1.0]], [[1.0]], [[1.0]], mean_predictive=1.0
        )
        assert got == 1.0


def test_raw_weight_rrsl_saturates_at_one_plus_theta():
    spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    got = reference.raw_weight(
        spec, [[1e6]], [[0.0]], 1.0, [[0.0]], [[1.0]], [[1.0]], [[1.0]],
        mean_predictive=10.0,
    )
    assert got == pytest.approx(2.0, abs=1e-12)


def test_raw_weight_rsl_direct_value():
    spec = ws.WeightSpec(family="RSL", theta=0.001)
    # craft J = 100: scalar a=10, value=1, gain=0, q=r small contributions
    a, b = [[10.0]], [[0.0]]
    got = reference.raw_weight(
        spec, a, b, 0.001, [[0.0]], [[1.0]], [[0.0]], [[1.0]]
    )
    # J = a^2 * value = 100, so the raw weight is exp(0.1)
    assert got == pytest.approx(np.exp(0.1), rel=1e-12)


def test_rsl_overflow_raises():
    spec = ws.WeightSpec(family="RSL", theta=1.0)
    a = np.full((3, 1, 1), 30.0)
    b = np.zeros((3, 1, 1))
    bank = ws.SampleBank(a=a, b=b)
    with pytest.raises(WeightOverflowError, match="theta"):
        ws.build_weighted_bank(
            bank, spec, 1.0, np.zeros((1, 1)), [[1.0]], [[1.0]], [[1.0]]
        )


def test_normalize_weights_two_sample_example():
    got = ws.normalize_weights(np.array([2.0, 6.0]))
    assert np.array_equal(got, [0.5, 1.5])
    with pytest.raises(NumericalError):
        ws.normalize_weights(np.zeros(4))
    with pytest.raises(NumericalError):
        ws.normalize_weights(np.array([1.0, -0.5]))


def test_rsl_bank_normalization_end_to_end():
    # two samples engineered to raw weights (2, 6), normalized (0.5, 1.5)
    a = np.array([[[0.0]], [[np.sqrt(np.log(3.0))]]])
    b = np.zeros((2, 1, 1))
    bank = ws.SampleBank(a=a, b=b)
    spec = ws.WeightSpec(family="RSL", theta=1.0)
    wbank = ws.build_weighted_bank(
        bank, spec, 1.0, np.zeros((1, 1)), [[1.0]], [[np.log(2.0)]], [[1.0]]
    )
    assert np.allclose(wbank.raw_weights, [2.0, 6.0], rtol=1e-12)
    assert np.allclose(wbank.weights, [0.5, 1.5], rtol=1e-12)


def test_zero_theta_weights_are_exactly_one(bank2k, rrsl_spec):
    wbank = ws.build_weighted_bank(
        bank2k, rrsl_spec, 0.0, np.zeros((1, 2)), np.eye(2), Q2, R1
    )
    assert np.all(wbank.weights == 1.0)
    assert np.all(wbank.raw_weights == 1.0)


def test_reference_setting_normalization(bank2k, rrsl_spec):
    wbank = ws.build_weighted_bank(
        bank2k, rrsl_spec, 1.0, np.zeros((1, 2)), 100.0 * np.eye(2), Q2, R1
    )
    assert abs(wbank.weights.mean() - 1.0) <= 1e-12
    assert np.all(wbank.weights >= 0.0)


def test_rrsl_raw_weights_are_bounded(bank2k, rrsl_spec):
    wbank = ws.build_weighted_bank(
        bank2k, rrsl_spec, 1.0, np.ones((1, 2)), 50.0 * np.eye(2), Q2, R1
    )
    assert wbank.raw_weights.min() >= 1.0 - 1e-15
    assert wbank.raw_weights.max() <= 2.0 + 1e-15


def test_negative_rrsl_weights_rejected(bank2k):
    spec = ws.WeightSpec(family="RRSL", theta=-2.0, alpha=10.0, beta=1.0)
    with pytest.raises(NumericalError):
        ws.build_weighted_bank(
            bank2k, spec, -2.0, np.zeros((1, 2)), 100.0 * np.eye(2), Q2, R1
        )


def test_weighted_expect_reduces_to_expect_at_theta_zero(bank2k, rrsl_spec):
    wbank = ws.build_weighted_bank(
        bank2k, rrsl_spec, 0.0, np.zeros((1, 2)), np.eye(2), Q2, R1
    )
    fn = lambda a, b: a.T @ a + b @ b.T
    assert np.array_equal(reference.weighted_expect(wbank, fn), reference.expect(bank2k, fn))


def test_weighted_expect_concentrated_weights():
    a = np.stack([np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2)])
    b = np.zeros((3, 2, 1))
    bank = ws.SampleBank(a=a, b=b)
    spec = ws.WeightSpec(family="RN")
    wbank = ws.WeightedBank(
        bank=bank,
        weights=np.array([0.0, 0.0, 3.0]),
        raw_weights=np.array([0.0, 0.0, 3.0]),
        predictive=np.zeros(3),
        spec=spec,
        theta=0.0,
        gain=np.zeros((1, 2)),
        value=np.eye(2),
    )
    got = reference.weighted_expect(wbank, lambda ai, bi: ai)
    assert np.allclose(got, 3.0 * np.eye(2), atol=1e-15)


def test_weighted_expect_three_sample_hand_case():
    a = np.stack([np.eye(2), 2.0 * np.eye(2), 4.0 * np.eye(2)])
    b = np.zeros((3, 2, 1))
    bank = ws.SampleBank(a=a, b=b)
    weights = np.array([0.5, 1.0, 1.5])
    wbank = ws.WeightedBank(
        bank=bank,
        weights=weights,
        raw_weights=weights,
        predictive=np.zeros(3),
        spec=ws.WeightSpec(family="RN"),
        theta=0.0,
        gain=np.zeros((1, 2)),
        value=np.eye(2),
    )
    got = reference.weighted_expect(wbank, lambda ai, bi: ai)
    expected = (0.5 * a[0] + 1.0 * a[1] + 1.5 * a[2]) / 3.0
    assert np.abs(got - expected).max() <= 1e-15


def test_weighted_bank_invariant_enforced(bank2k):
    bad = np.ones(bank2k.size)
    bad[0] = 5.0  # mean now off by a detectable amount
    with pytest.raises(NumericalError):
        ws.WeightedBank(
            bank=bank2k,
            weights=bad,
            raw_weights=bad,
            predictive=np.zeros(bank2k.size),
            spec=ws.WeightSpec(family="RN"),
            theta=0.0,
            gain=np.zeros((1, 2)),
            value=np.eye(2),
        )


@pytest.mark.parametrize(
    "raw, error, message",
    [
        ([1.0, np.nan, 2.0], NonFiniteError, "raw weight non-finite at sample 1"),
        ([1.0, 2.0, np.inf], NonFiniteError, "raw weight non-finite at sample 2"),
        ([1.0, -np.inf, 2.0], NonFiniteError, "raw weight non-finite at sample 1"),
        ([-1.0, 2.0, np.nan], NonFiniteError, "raw weight non-finite at sample 2"),
        ([1.0, 2.0, -0.5, -1.0], NumericalError, "raw weight negative at sample 2"),
        ([0.0, -0.0], NumericalError, "all raw weights are zero"),
        # Stacks of two rows: the first bad row raises, naming its own sample.
        ([[1.0, 2.0, 3.0], [4.0, 5.0, np.inf]], NonFiniteError,
         "raw weight non-finite at sample 2"),
        ([[1.0, 2.0, 3.0], [4.0, -5.0, 6.0]], NumericalError, "raw weight negative at sample 1"),
        ([[1.0, 2.0], [0.0, -0.0]], NumericalError, "all raw weights are zero"),
        ([[1.0, -2.0, 3.0], [np.nan, 5.0, 6.0]], NumericalError,
         "raw weight negative at sample 1"),
        ([[0.0, 0.0, 0.0], [1.0, np.nan, 2.0]], NumericalError, "all raw weights are zero"),
    ],
)
def test_normalize_weights_errors_name_the_first_bad_sample(raw, error, message):
    with pytest.raises(error, match=message):
        ws.normalize_weights(np.array(raw))


def _row_by_row(fn, *rows):
    """``fn`` on each row: the first error raised, or the stacked results."""
    out = []
    for args in zip(*rows):
        try:
            out.append(fn(*args))
        except NumericalError as exc:
            return exc
    return np.array(out)


def _assert_stack_matches_rows(got_fn, want):
    if isinstance(want, NumericalError):
        with pytest.raises(type(want)) as info:
            got_fn()
        assert str(info.value) == str(want)
    else:
        assert np.array_equal(got_fn(), want, equal_nan=True)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.sampled_from(["RN", "RSL", "RRSL"]),
    st.floats(-20.0, 20.0),
    st.floats(-20.0, 20.0),
    st.integers(1, 12),
    st.data(),
)
def test_stacked_raw_and_normalized_weights_equal_row_by_row_calls(
    family, alpha, beta, size, data
):
    # Rows share family, alpha and beta; theta, the costs and their mean
    # differ per row. Large RSL exponents overflow, and RRSL thetas below -1
    # give negative weights, so the errors are compared too.
    rows = data.draw(st.integers(1, 4))
    thetas = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=rows, max_size=rows))
    costs = np.array(
        data.draw(st.lists(
            st.lists(st.floats(0.0, 500.0), min_size=size, max_size=size),
            min_size=rows, max_size=rows,
        ))
    )
    means = np.add.reduce(costs, axis=1) / size
    spec = ws.WeightSpec(family=family, alpha=alpha, beta=beta)
    raw_rows = _row_by_row(
        lambda theta, row, mean: _raw_from_costs(spec, theta, row, mean), thetas, costs, means
    )
    _assert_stack_matches_rows(
        lambda: _raw_from_costs(spec, np.array(thetas)[:, None], costs, means[:, None]),
        raw_rows,
    )
    if not isinstance(raw_rows, NumericalError):
        _assert_stack_matches_rows(
            lambda: ws.normalize_weights(raw_rows), _row_by_row(ws.normalize_weights, raw_rows)
        )
