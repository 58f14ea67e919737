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
The per-draw forms the tests check these against are in ``tests/reference.py``.

Monte-Carlo trial k draws from the stream ``stream_rng(seed, k)``.
:func:`_stream_rngs` builds the generators of a block of indices, any below
2**64, in one vectorized seeding pass that gives each the same state: it
continues numpy's own SeedSequence pool of the seed with each index.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigurationError, NonFiniteError
from .matops import _pair_index

__all__ = [
    "FAMILIES",
    "ParameterDistribution",
    "SampleBank",
    "build_distribution",
    "point_mass",
    "draw_bank",
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
    _runs: tuple[tuple, ...] = field(init=False, repr=False, compare=False)

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
        # (family, start, stop, loc, scale) of each run of consecutive equal
        # families. A point or normal run keeps its means and stddevs as
        # (k, 1) columns, for one broadcast scale and shift; a Laplace run,
        # one generator call per component, keeps each component's location
        # and scale stddev/sqrt(2) as floats.
        starts = [j for j in range(dim) if j == 0 or self.families[j] != self.families[j - 1]]
        runs = []
        for start, stop in zip(starts, starts[1:] + [dim]):
            family = self.families[start]
            if family == "laplace":
                loc = mean[start:stop].tolist()
                scale = (stddev[start:stop] / math.sqrt(2.0)).tolist()
            else:
                loc, scale = mean[start:stop, None], stddev[start:stop, None]
            runs.append((family, start, stop, loc, scale))
        object.__setattr__(self, "_runs", tuple(runs))

    @property
    def dim(self) -> int:
        return self.n * (self.n + self.m)

    def mean_a(self) -> np.ndarray:
        return self.mean[: self.n * self.n].reshape(self.n, self.n, order="F")

    def mean_b(self) -> np.ndarray:
        return self.mean[self.n * self.n :].reshape(self.n, self.m, order="F")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` parameter vectors, one per row.

        Components are drawn in index order, which fixes the stream layout
        for reproducibility: one generator call per run of consecutive
        normal components (the same numbers as one call per component) and
        one per Laplace component. Laplace scales are stddev/sqrt(2) so the
        component variance equals stddev**2. The result is the transpose of
        a C-contiguous (dim, size) array.
        """
        out = np.empty((1, self.dim, size))
        self._fill((rng,), out)
        return out[0].T

    def _fill(self, rngs, out: np.ndarray) -> None:
        """Write the draws of ``rngs[k]`` into ``out[k]``, (dim, size), for every k.

        :meth:`draw` is the case of one generator; the Monte-Carlo study fills
        a block of trials at once. Each generator is called in the order
        :meth:`draw` describes. Normal runs take their standard normals
        straight into ``out``, and stddev * z + mean then runs once over the
        block: the same two roundings per entry as one trial at a time.
        """
        size = out.shape[2]
        for family, start, stop, loc, scale in self._runs:
            rows = out[:, start:stop]
            if family == "point":
                rows[...] = loc
            elif family == "normal":
                for rng, z in zip(rngs, rows):
                    rng.standard_normal(out=z)
                np.multiply(scale, rows, out=rows)
                rows += loc
            else:
                for j, loc_j, scale_j in zip(range(start, stop), loc, scale):
                    for rng, trial in zip(rngs, out):
                        trial[j] = rng.laplace(loc_j, scale_j, size)


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
    product w' phi (:meth:`moment`, :func:`_weighted_moments`), the per-draw
    quadratic forms z_i' H z_i are one product phi c
    (:func:`_quadratic_forms`), and E_w[Z' P Z] is a contraction of the
    moment with P (:func:`quadratic_expect`). None of them loops over draws.

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
        out = _weighted_moments([self], np.asarray(weights, dtype=float)[None])[0]
        out.setflags(write=False)
        return out


def _weighted_moments(banks, weights: np.ndarray) -> np.ndarray:
    """E_w[z z'] of each bank at its row of the (rows, N) ``weights``: (rows, d, d).

    The banks share n, m and N. One gemv w' phi per bank writes its row of
    one (rows, d(d+1)/2) stack, and one division and one gather unpack the
    whole stack: each moment is the bits :meth:`SampleBank.moment` gives it,
    which is this on a stack of one.
    """
    flats = np.empty((len(banks), banks[0].phi.shape[1]))
    for flat, bank, w in zip(flats, banks, weights):
        np.matmul(w, bank.phi, out=flat)
    flats /= banks[0].size
    return flats[:, _pair_index(banks[0].n * (banks[0].n + banks[0].m))[2]]


def _quadratic_forms(banks, matrices: np.ndarray, out: np.ndarray) -> None:
    """z_i' H z_i of every draw of each bank at its H of the (rows, d, d) ``matrices``.

    The twin of :func:`_weighted_moments`: one gather takes the pair
    coefficients c of every H (H[p, p], and H[p, q] + H[q, p] for p < q),
    and one gemv phi c per bank writes its row of ``out``, (rows, N).
    """
    rows, cols, _ = _pair_index(matrices.shape[1])
    upper = matrices[:, rows, cols]
    coeffs = np.where(rows == cols, upper, upper + matrices[:, cols, rows])
    for row, bank, c in zip(out, banks, coeffs):
        np.matmul(bank.phi, c, out=row)


def quadratic_expect(moment: np.ndarray, value: np.ndarray) -> np.ndarray:
    """E_w[Z' P Z] of each stacked moment E_w[z z'], z = vec(Z), and value P.

    The result is (rows, n+m, n+m); each item is the same bits as from a
    stack of one.
    """
    n = value.shape[-1]
    k = moment.shape[-1] // n
    return np.einsum("parbs,prs->pab", moment.reshape(-1, k, n, k, n), value)


def _closed_loop_operator(moment: np.ndarray, gain: np.ndarray):
    """The operator S -> E_w[C' S C], C = A - B L, on symmetric S in vech coordinates.

    With K = [I; -L], C = Z K. Column k is vech(K' E_w[Z' S_k Z] K) for
    S_k = unvech(e_k), k < n(n+1)/2, all E_w[Z' S_k Z] read off the moment
    by one :func:`quadratic_expect` on the stack of S_k.
    """
    n = gain.shape[1]
    rows, cols, full = _pair_index(n)
    k_mat = np.vstack([np.eye(n), -gain])
    basis = np.eye(rows.size)[:, full]  # basis[k] = unvech(e_k)
    zsc = quadratic_expect(np.broadcast_to(moment, (rows.size,) + moment.shape), basis) @ k_mat
    return (k_mat.T @ zsc)[:, cols, rows].T


def draw_bank(dist: ParameterDistribution, size: int, seed: int) -> SampleBank:
    """Draw an i.i.d. bank; identical (dist, size, seed) reproduce it exactly."""
    if size < 1:
        raise ConfigurationError("bank size must be >= 1")
    lam = dist.draw(np.random.default_rng(seed), size)
    # Rows hold [vec(A); vec(B)]; an F-order reshape with a leading sample
    # axis recovers the matrices because both layouts are column-major.
    n, m = dist.n, dist.m
    a = lam[:, : n * n].reshape(size, n, n, order="F")
    return SampleBank(a=a, b=lam[:, n * n :].reshape(size, n, m, order="F"))


def stream_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for worker ``index``: default_rng(SeedSequence(seed, spawn_key=(index,))).

    This is the specification of trial streams; :func:`_stream_rngs` builds
    the same generators for a whole block of indices at once.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def derive_seed(seed: int, index: int) -> int:
    """Integer sub-seed for worker ``index``, a pure function of (seed, index)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


# The constants of numpy's SeedSequence, whose algorithm NEP 19 fixes for
# stream compatibility; the seed words continue the mixing of its pool.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _stream_seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words of the streams (seed, k), start <= k < stop.

    Row k - start equals ``SeedSequence(entropy=seed, spawn_key=(k,))
    .generate_state(4, np.uint64)``, computed for all k at once in uint32
    arithmetic. numpy mixes the seed's 32-bit words into its pool first, the
    same for every k, so ``SeedSequence(seed).pool`` is that state; the words
    of k (one below 2**32, two from there to the largest accepted index,
    2**64 - 1) continue the mixing. The pool words stay one-element arrays
    that broadcast against the per-index words.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ConfigurationError(f"stream seed must be >= 0, got {seed}")
    if not 0 <= start <= stop <= 2**64:
        raise ConfigurationError(f"stream indices [{start}, {stop}) outside [0, 2**64)")
    index = start + np.arange(stop - start, dtype=np.uint64)
    low = (index & _MASK32).astype(np.uint32)
    high = (index >> 32).astype(np.uint32)
    # The pool took one hash per word of the first four (the seed zero-padded
    # to four words), twelve for their all-to-all mixing and four per further
    # seed word, each hash one step of the hash constant.
    extra = max(0, -(-seed.bit_length() // 32) - _POOL_SIZE)
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * extra, 2**32) & _MASK32

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [mix(word, hashmix(low)) for word in np.random.SeedSequence(seed).pool[:, None]]
    # Indices from 2**32 on have a second spawn-key word.
    wide = [mix(word, hashmix(high)) for word in pool]
    pool = [np.where(high > 0, w, p) for w, p in zip(wide, pool)]

    state = np.empty((stop - start, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, i] = value ^ (value >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Hands PCG64 its precomputed seed words; it cannot ``spawn()``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("_SeedWords holds only the 4 uint64 words PCG64 asks for")
        return self.words


def _stream_rngs(seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """``[stream_rng(seed, k) for k in range(start, stop)]``, seeded in one pass.

    numpy's PCG64 still does its own seeding from each row of
    :func:`_stream_seed_words`, so every generator is in the same state as
    ``stream_rng(seed, k)``. Only its ``bit_generator.seed_seq`` differs: a
    :class:`_SeedWords`, not a SeedSequence, so the generator cannot spawn.
    """
    return [
        np.random.Generator(np.random.PCG64(_SeedWords(words)))
        for words in _stream_seed_words(seed, start, stop)
    ]
