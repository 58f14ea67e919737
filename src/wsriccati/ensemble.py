"""Random system-matrix ensembles.

A distribution describes the stacked parameter vector [vec(A); vec(B)] with
independent per-component marginals (point mass, normal, or Laplace) and a
diagonal covariance. Sample banks are fixed, seeded draws from such a
distribution; every expectation the solvers take is an empirical mean over
one bank, so repeated evaluations see common random numbers.

Each of those expectations is a (weighted) second moment of the stacked draw
Z_i = [A_i B_i]: it is linear in the products z_p z_q of the entries of
z = vec(Z_i). A bank therefore stores its moment matrix once, when it is
built, and every expectation is a product with it (see :class:`SampleBank`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NonFiniteError
from .matops import unvech

__all__ = [
    "FAMILIES",
    "ParameterDistribution",
    "SampleBank",
    "build_distribution",
    "point_mass",
    "draw_bank",
    "expect",
    "quadratic_expect",
    "stream_rng",
    "derive_seed",
]

FAMILIES = ("point", "normal", "laplace")


@dataclass(frozen=True)
class ParameterDistribution:
    """Distribution of the stacked parameter vector [vec(A); vec(B)].

    Components are mutually independent. ``mean`` and ``stddev`` have length
    n*(n+m) in column-major matrix order, A entries first.
    """

    n: int
    m: int
    families: tuple[str, ...]
    mean: np.ndarray
    stddev: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ConfigurationError("state and input dimensions must be >= 1")
        dim = self.n * (self.n + self.m)
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        stddev = np.asarray(self.stddev, dtype=float).reshape(-1)
        if len(self.families) != dim:
            raise ConfigurationError(
                f"families has length {len(self.families)}, expected {dim}"
            )
        if mean.size != dim:
            raise ConfigurationError(f"mean has length {mean.size}, expected {dim}")
        if stddev.size != dim:
            raise ConfigurationError(
                f"stddev has length {stddev.size}, expected {dim}"
            )
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(stddev)):
            raise ConfigurationError("mean and stddev must be finite")
        for j, family in enumerate(self.families):
            if family not in FAMILIES:
                raise ConfigurationError(
                    f"unknown marginal family {family!r} at component {j}"
                )
            if stddev[j] < 0.0:
                raise ConfigurationError(f"negative stddev at component {j}")
            if family == "point" and stddev[j] != 0.0:
                raise ConfigurationError(
                    f"point-mass component {j} must have stddev 0"
                )
        mean.setflags(write=False)
        stddev.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "stddev", stddev)
        object.__setattr__(self, "families", tuple(self.families))

    @property
    def dim(self) -> int:
        return self.n * (self.n + self.m)

    def mean_a(self) -> np.ndarray:
        return self.mean[: self.n * self.n].reshape(self.n, self.n, order="F")

    def mean_b(self) -> np.ndarray:
        return self.mean[self.n * self.n :].reshape(self.n, self.m, order="F")

    def fingerprint(self) -> str:
        payload = {
            "n": self.n,
            "m": self.m,
            "families": list(self.families),
            "mean": self.mean.tolist(),
            "stddev": self.stddev.tolist(),
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` parameter vectors, one per row.

        Components are drawn in index order with one generator call each,
        which fixes the stream layout for reproducibility. Laplace scales
        are stddev/sqrt(2) so the component variance equals stddev**2.
        """
        out = np.empty((size, self.dim))
        for j, family in enumerate(self.families):
            mu = self.mean[j]
            sd = self.stddev[j]
            if family == "point":
                out[:, j] = mu
            elif family == "normal":
                out[:, j] = mu + sd * rng.standard_normal(size)
            else:
                out[:, j] = rng.laplace(mu, sd / math.sqrt(2.0), size)
        return out

    def sample_matrices(
        self, rng: np.random.Generator, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw stacked (A, B) arrays of shapes (size, n, n) and (size, n, m)."""
        lam = self.draw(rng, size)
        return _split_stacked(lam, self.n, self.m)


def _split_stacked(lam: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    # Rows hold [vec(A); vec(B)]; an F-order reshape with a leading sample
    # axis recovers the matrices because both layouts are column-major.
    size = lam.shape[0]
    a = lam[:, : n * n].reshape(size, n, n, order="F")
    b = lam[:, n * n :].reshape(size, n, m, order="F")
    return np.ascontiguousarray(a), np.ascontiguousarray(b)


def build_distribution(
    n: int,
    m: int,
    mean_a,
    mean_b,
    family_a="normal",
    family_b="laplace",
    stddev_a=None,
    stddev_b=None,
    stddev_scale: float | None = None,
) -> ParameterDistribution:
    """Assemble a validated distribution from per-matrix settings.

    Families may be a single name applied to every entry of the matrix or a
    nested list with one name per entry. Standard deviations are either
    explicit arrays shaped like the means or, when ``stddev_scale`` is given,
    ``stddev_scale * |mean|`` componentwise.
    """
    mean_a = np.asarray(mean_a, dtype=float).reshape(n, n)
    mean_b = np.asarray(mean_b, dtype=float).reshape(n, m)
    fam_a = _family_entries(family_a, (n, n), "family_a")
    fam_b = _family_entries(family_b, (n, m), "family_b")
    std_a = _stddev_entries(stddev_a, mean_a, stddev_scale, "stddev_a")
    std_b = _stddev_entries(stddev_b, mean_b, stddev_scale, "stddev_b")
    mean = np.concatenate([mean_a.reshape(-1, order="F"), mean_b.reshape(-1, order="F")])
    stddev = np.concatenate([std_a.reshape(-1, order="F"), std_b.reshape(-1, order="F")])
    families = tuple(fam_a.reshape(-1, order="F")) + tuple(fam_b.reshape(-1, order="F"))
    return ParameterDistribution(n=n, m=m, families=families, mean=mean, stddev=stddev)


def point_mass(mean_a, mean_b) -> ParameterDistribution:
    """Deterministic system: every draw returns the mean matrices."""
    mean_a = np.asarray(mean_a, dtype=float)
    mean_a = mean_a.reshape(mean_a.shape[0], -1)
    mean_b = np.asarray(mean_b, dtype=float)
    if mean_b.ndim < 2:
        mean_b = mean_b.reshape(mean_a.shape[0], -1)
    n, m = mean_b.shape
    return build_distribution(
        n,
        m,
        mean_a,
        mean_b,
        family_a="point",
        family_b="point",
        stddev_a=np.zeros((n, n)),
        stddev_b=np.zeros((n, m)),
    )


def _family_entries(family, shape, name) -> np.ndarray:
    if isinstance(family, str):
        arr = np.full(shape, family, dtype=object)
    else:
        arr = np.asarray(family, dtype=object)
        if arr.shape != shape:
            raise ConfigurationError(f"{name} has shape {arr.shape}, expected {shape}")
    for entry in arr.reshape(-1):
        if entry not in FAMILIES:
            raise ConfigurationError(f"{name}: unknown family {entry!r}")
    return arr


def _stddev_entries(stddev, mean, scale, name) -> np.ndarray:
    if stddev is not None:
        arr = np.asarray(stddev, dtype=float)
        if arr.shape != mean.shape:
            raise ConfigurationError(
                f"{name} has shape {arr.shape}, expected {mean.shape}"
            )
        return arr
    if scale is None:
        raise ConfigurationError(f"{name} missing and no stddev_scale given")
    if scale < 0:
        raise ConfigurationError("stddev_scale must be nonnegative")
    return scale * np.abs(mean)


@functools.lru_cache(maxsize=None)
def _pair_index(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (p, q), p <= q, of the moment columns, and their inverse.

    Column k of the moment matrix holds z_p z_q for (p, q) = (rows[k],
    cols[k]), ordered as vech of the lower triangle (equivalently the rows of
    the upper one). ``full[p, q]`` is the column of the pair {p, q}.
    """
    rows, cols = np.triu_indices(dim)
    full = np.empty((dim, dim), dtype=np.intp)
    full[rows, cols] = np.arange(rows.size)
    full[cols, rows] = np.arange(rows.size)
    for arr in (rows, cols, full):
        arr.setflags(write=False)
    return rows, cols, full


def _moment_features(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row i holds z_p z_q, p <= q, of z = vec([A_i B_i]) = [vec A_i; vec B_i],
    # written one block of columns at a time into the output.
    size = a.shape[0]
    z = np.concatenate(
        [a.transpose(0, 2, 1).reshape(size, -1), b.transpose(0, 2, 1).reshape(size, -1)],
        axis=1,
    )
    dim = z.shape[1]
    phi = np.empty((size, dim * (dim + 1) // 2))
    col = 0
    for p in range(dim):
        np.multiply(z[:, p : p + 1], z[:, p:], out=phi[:, col : col + dim - p])
        col += dim - p
    return phi


@dataclass(frozen=True)
class SampleBank:
    """A fixed set of (A, B) draws shared by every expectation in a run.

    With z_i = vec(Z_i), Z_i = [A_i B_i] and d = n(n+m), the bank keeps its
    moment matrix ``phi`` (N by d(d+1)/2, row i the products z_p z_q, p <= q)
    and the unweighted moment E[z z'] computed from it. Every bank expectation
    is read off these: the weighted moment (1/N) sum_i w_i z_i z_i' is one
    product w' phi (:meth:`moment`), the per-draw quadratic forms z_i' H z_i
    are one product phi c (:meth:`quadratic_forms`), and E_w[Z' P Z] is a
    contraction of the moment with P (:func:`quadratic_expect`). None of them
    loops over draws.

    Limits: ``phi`` takes 8 N d(d+1)/2 bytes (1.7 MB at N = 10k for n = 2,
    m = 1; 119 MB for n = 6, m = 3), and each product with it costs
    N d(d+1)/2 multiply-adds: it grows with d^2, against n (n+m)^2 for
    per-sample products. At N = 10k on one BLAS thread (2-vCPU x86 VM) one
    weighted evaluation of the coupled maps took about 0.5 ms against 3 ms
    with per-sample products for n = 2, m = 1, and about the same time
    (14-17 ms) near n = 6, m = 3, where the moment stops paying off.
    """

    a: np.ndarray
    b: np.ndarray
    seed: int | None = None
    provenance: str = ""
    phi: np.ndarray = field(init=False, repr=False, compare=False)
    _plain: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 3 or b.ndim != 3:
            raise ConfigurationError("bank arrays must be stacked 3-d arrays")
        if a.shape[0] != b.shape[0]:
            raise ConfigurationError("bank A and B sample counts differ")
        if a.shape[1] != a.shape[2] or b.shape[1] != a.shape[1]:
            raise ConfigurationError(
                f"inconsistent bank shapes {a.shape} and {b.shape}"
            )
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise NonFiniteError("bank contains non-finite samples")
        a = a.copy()
        b = b.copy()
        phi = _moment_features(a, b)
        for arr in (a, b, phi):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "phi", phi)
        # The unweighted moment is the weighted one at w = 1, by the same
        # expression, so unit weights reproduce it bit for bit.
        object.__setattr__(self, "_plain", self.moment(np.ones(a.shape[0])))

    @property
    def size(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def m(self) -> int:
        return self.b.shape[2]

    def moment(self, weights: np.ndarray | None = None) -> np.ndarray:
        """E_w[z z'] = (1/N) sum_i w_i z_i z_i', d by d; ``None`` is the unweighted moment."""
        if weights is None:
            return self._plain
        flat = np.asarray(weights, dtype=float) @ self.phi / self.size
        out = flat[_pair_index(self.n * (self.n + self.m))[2]]
        out.setflags(write=False)
        return out

    def quadratic_forms(self, h: np.ndarray) -> np.ndarray:
        """z_i' H z_i for every draw, as phi c with c the pair coefficients of H."""
        rows, cols, _ = _pair_index(self.n * (self.n + self.m))
        h = np.asarray(h, dtype=float)
        coef = np.where(rows == cols, h[rows, cols], h[rows, cols] + h[cols, rows])
        return self.phi @ coef


def quadratic_expect(moment: np.ndarray, value: np.ndarray) -> np.ndarray:
    """E_w[Z' P Z], (n+m) by (n+m), from the moment E_w[z z'] of z = vec(Z)."""
    n = value.shape[0]
    k = moment.shape[0] // n
    return np.einsum("arbs,rs->ab", moment.reshape(k, n, k, n), value)


def _closed_loop_operator(moment: np.ndarray, gain: np.ndarray):
    """The operator S -> E_w[C' S C], C = A - B L, on symmetric S in vech coordinates.

    With K = [I; -L], C = Z K. Column k is vech(K' E_w[Z' S_k Z] K) for
    S_k = unvech(e_k), k < n(n+1)/2, each E_w[Z' S_k Z] read off the moment
    by :func:`quadratic_expect`. Also returns the stack of E_w[Z' S_k C],
    n(n+1)/2 by (n+m) by n, whose last m rows are the E_w[B' S_k C] of the
    gain residual's derivative.
    """
    n = gain.shape[1]
    k_mat = np.vstack([np.eye(n), -gain])
    zsz = [quadratic_expect(moment, unvech(e, n)) for e in np.eye(n * (n + 1) // 2)]
    zsc = np.stack(zsz) @ k_mat
    rows, cols = np.triu_indices(n)  # vech order: the lower triangle by columns
    return (k_mat.T @ zsc)[:, cols, rows].T, zsc


def draw_bank(dist: ParameterDistribution, size: int, seed: int) -> SampleBank:
    """Draw an i.i.d. bank; identical (dist, size, seed) reproduce it exactly."""
    if size < 1:
        raise ConfigurationError("bank size must be >= 1")
    rng = np.random.default_rng(seed)
    a, b = dist.sample_matrices(rng, size)
    return SampleBank(a=a, b=b, seed=seed, provenance=dist.fingerprint())


def expect(bank: SampleBank, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Empirical mean of fn(A_i, B_i) over the bank.

    Uses numpy's pairwise mean, so the reduction order is fixed and the
    result is deterministic. A non-finite fn output aborts with the index of
    the offending sample.
    """
    values = _evaluate(bank, fn)
    return values.mean(axis=0)


def _evaluate(bank: SampleBank, fn) -> np.ndarray:
    values = None
    for idx in range(bank.size):
        out = np.asarray(fn(bank.a[idx], bank.b[idx]), dtype=float)
        if not np.all(np.isfinite(out)):
            raise NonFiniteError(f"function output non-finite at sample {idx}")
        if values is None:
            values = np.empty((bank.size,) + out.shape)
        elif out.shape != values.shape[1:]:
            raise ValueError(
                f"function output shape changed at sample {idx}: "
                f"{out.shape} vs {values.shape[1:]}"
            )
        values[idx] = out
    return values


def stream_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for worker ``index``: default_rng(SeedSequence(seed, spawn_key=(index,)))."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def derive_seed(seed: int, index: int) -> int:
    """Integer sub-seed for worker ``index``, a pure function of (seed, index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])
