"""Small dense-matrix kernel.

Conventions are fixed package-wide: ``vec`` stacks columns, ``vech`` stacks
the columns of the lower triangle, and every flattened layout is
column-major. All operations are pure functions of their inputs. The
Kronecker product, its vech compression and the duplication and elimination
matrices behind it are test oracles in ``tests/reference.py``.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import EigenSolverError

__all__ = [
    "as_matrix",
    "symmetrize",
    "vec",
    "vech",
    "unvech",
    "spectral_radius",
]

#: Relative asymmetry below which a nearly symmetric matrix is silently
#: symmetrized instead of rejected.
SYMMETRY_TOL = 1e-12


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Check that ``value`` is 2-d with finite entries and return it as floats, never reshaped."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def symmetrize(value, name: str = "matrix") -> np.ndarray:
    """Return (S + S^T)/2 after checking S is square and nearly symmetric.

    Asymmetry up to ``SYMMETRY_TOL`` relative to the largest entry is
    absorbed silently; anything larger is rejected.
    """
    arr = as_matrix(value, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    scale = max(1.0, float(np.abs(arr).max()))
    asym = float(np.abs(arr - arr.T).max())
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(
            f"{name} is not symmetric (max asymmetry {asym:.3e} exceeds "
            f"{SYMMETRY_TOL:.1e} relative tolerance)"
        )
    return (arr + arr.T) / 2.0


def vec(mat) -> np.ndarray:
    """Column-stacked vectorization of a matrix."""
    return as_matrix(mat, "vec argument").reshape(-1, order="F")


@functools.lru_cache(maxsize=None)
def _pair_index(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (p, q), p <= q, in vech order, and their inverse.

    Entry k of vech(S) is S[cols[k], rows[k]] for (rows, cols) =
    ``np.triu_indices(dim)``: the lower triangle by columns is the upper one
    by rows, transposed. ``full[p, q]`` is the k of the pair {p, q}.
    """
    rows, cols = np.triu_indices(dim)
    full = np.empty((dim, dim), dtype=np.intp)
    full[rows, cols] = np.arange(rows.size)
    full[cols, rows] = np.arange(rows.size)
    for arr in (rows, cols, full):
        arr.setflags(write=False)
    return rows, cols, full


def vech(mat) -> np.ndarray:
    """Half vectorization: columns of the lower triangle, stacked."""
    arr = as_matrix(mat, "vech argument")
    n = arr.shape[0]
    if arr.shape[1] != n:
        raise ValueError(f"vech requires a square matrix, got shape {arr.shape}")
    rows, cols, _ = _pair_index(n)
    return arr[cols, rows]


def unvech(values, n: int) -> np.ndarray:
    """Inverse of :func:`vech` onto an n-by-n symmetric matrix."""
    v = np.asarray(values, dtype=float).reshape(-1)
    expected = n * (n + 1) // 2
    if v.size != expected:
        raise ValueError(f"unvech expected length {expected} for n={n}, got {v.size}")
    return v[_pair_index(n)[2]]


def spectral_radius(mat) -> float:
    """Largest eigenvalue magnitude of a square real matrix."""
    arr = as_matrix(mat, "spectral_radius argument")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"spectral_radius requires a square matrix, got {arr.shape}")
    try:
        eigs = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.max(np.abs(eigs)))
