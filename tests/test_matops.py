import re

import numpy as np
import pytest

from wsriccati import (
    EigenSolverError,
    as_matrix,
    spectral_radius,
    symmetrize,
    unvech,
    vec,
    vech,
)

from reference import compress, duplication_matrix, elimination_matrix, kron

EXACT = 1e-14


def test_vec_column_stacking():
    assert np.array_equal(vec([[1, 3], [2, 4]]), [1, 2, 3, 4])
    assert np.array_equal(vec(np.eye(2)), [1, 0, 0, 1])
    assert np.array_equal(vec(np.zeros((2, 3))), np.zeros(6))


def test_vech_lower_triangle_columns():
    assert np.array_equal(vech([[1, 2], [2, 3]]), [1, 2, 3])
    assert np.array_equal(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])


@pytest.mark.parametrize("value, shape", [(3.0, "()"), ([1.0, 2.0], "(2,)")])
def test_as_matrix_rejects_a_scalar_or_vector(value, shape):
    with pytest.raises(ValueError, match=re.escape(f"must be 2-dimensional, got shape {shape}")):
        as_matrix(value)


def test_vech_rejects_non_square():
    with pytest.raises(ValueError):
        vech(np.ones((2, 3)))


def test_vech_unvech_roundtrip():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        s = rng.standard_normal((n, n))
        s = s + s.T
        assert np.abs(unvech(vech(s), n) - s).max() <= EXACT
        v = rng.standard_normal(n * (n + 1) // 2)
        assert np.abs(vech(unvech(v, n)) - v).max() <= EXACT


def test_unvech_examples_and_errors():
    assert np.array_equal(unvech([1, 2, 3], 2), [[1, 2], [2, 3]])
    assert np.array_equal(unvech(np.zeros(6), 3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        unvech([1, 2, 3, 4], 2)


def test_kron_block_layout():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = kron(np.eye(2), m)
    expected = np.zeros((4, 4))
    expected[:2, :2] = m
    expected[2:, 2:] = m
    assert np.array_equal(got, expected)
    assert np.array_equal(kron([[2.5]], m), 2.5 * m)


def test_kron_vec_identity():
    # (C1 kron C2) vec(X) = vec(C2 X C1^T), checked against plain loops.
    rng = np.random.default_rng(11)
    for _ in range(5):
        c1, c2, x = (rng.standard_normal((2, 2)) for _ in range(3))
        lhs = kron(c1, c2) @ vec(x)
        prod = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        prod[i, j] += c2[i, k] * x[k, l] * c1[j, l]
        assert np.abs(lhs - vec(prod)).max() <= 1e-12


def test_duplication_elimination_reference_values():
    l2 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    d2 = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    assert np.array_equal(elimination_matrix(2), l2)
    assert np.array_equal(duplication_matrix(2), d2)
    assert np.array_equal(elimination_matrix(3) @ duplication_matrix(3), np.eye(6))


def test_duplication_elimination_identities():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4):
        dn = duplication_matrix(n)
        ln = elimination_matrix(n)
        assert np.abs(ln @ dn - np.eye(n * (n + 1) // 2)).max() <= EXACT
        for _ in range(3):
            s = rng.standard_normal((n, n))
            s = s + s.T
            assert np.abs(dn @ vech(s) - vec(s)).max() <= EXACT
            assert np.abs(ln @ vec(s) - vech(s)).max() <= EXACT


def test_compress_trivial_cases():
    assert np.abs(compress(np.eye(4)) - np.eye(3)).max() <= EXACT
    assert np.array_equal(compress([[7.0]]), [[7.0]])
    with pytest.raises(ValueError):
        compress(np.ones((3, 3)))


def test_compress_matches_quadratic_recursion():
    # vech of the averaged congruence action equals the compressed
    # averaged Kronecker matrix applied to vech(S).
    rng = np.random.default_rng(17)
    samples = [rng.standard_normal((2, 2)) for _ in range(6)]
    s = rng.standard_normal((2, 2))
    s = s + s.T
    lhs = np.zeros((2, 2))
    kron_mean = np.zeros((4, 4))
    for mat in samples:
        lhs += mat.T @ s @ mat
        kron_mean += np.kron(mat.T, mat.T)
    lhs /= len(samples)
    kron_mean /= len(samples)
    assert np.abs(compress(kron_mean) @ vech(s) - vech(lhs)).max() <= 1e-12


def test_compress_linearity():
    rng = np.random.default_rng(23)
    d1 = rng.standard_normal((4, 4))
    d2 = rng.standard_normal((4, 4))
    got = compress(0.7 * d1 - 1.3 * d2)
    want = 0.7 * compress(d1) - 1.3 * compress(d2)
    assert np.abs(got - want).max() <= 1e-12


def test_spectral_radius_examples():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9, abs=1e-14)
    assert spectral_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-14)
    # characteristic polynomial x**2 + 0.25 has roots +/- 0.5i
    assert spectral_radius([[0.0, 1.0], [-0.25, 0.0]]) == pytest.approx(0.5, abs=1e-12)


def test_spectral_radius_scaling():
    rng = np.random.default_rng(29)
    mat = rng.standard_normal((4, 4))
    base = spectral_radius(mat)
    assert spectral_radius(-2.5 * mat) == pytest.approx(2.5 * base, rel=1e-10)


def test_spectral_radius_input_validation():
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError):
        spectral_radius([[np.nan, 0.0], [0.0, 1.0]])


def test_symmetrize_tolerance():
    s = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
    out = symmetrize(s)
    assert np.array_equal(out, out.T)
    with pytest.raises(ValueError):
        symmetrize([[1.0, 2.0], [2.5, 3.0]])


def test_eigen_error_type_is_distinct():
    assert issubclass(EigenSolverError, Exception)
