"""Policy-dependent weight functions.

Three families are supported. With J denoting the predictive per-step cost
of a parameter draw under the candidate policy (gain L, quadratic value
matrix P, reference second moment S):

    J(A, B) = trace(((A - B L)^T P (A - B L) + Q + L^T R L) S)

the un-normalized weights are

    RN    1
    RSL   exp(theta * J)
    RRSL  1 + theta / (1 + exp(-alpha * J + beta * mean(J)))

where mean(J) is the unweighted bank average. Weights are then normalized
by their empirical mean so the weighted expectation of 1 is exactly 1. One
stacked pass (:func:`_weigh_all`) takes the costs of a bank, one product
with its moment matrix (see :class:`~wsriccati.ensemble.SampleBank`), and
weighs them; :func:`predictive_costs` (the pass at unit weights),
:func:`weight_vector` and :func:`build_weighted_bank` are its views. The
per-draw cost and weight the tests check them against are in
``tests/reference.py``.

The RRSL sigmoid saturates in double precision: outside a window of
x = alpha J - beta mean(J) the raw weight is exactly 1 + theta or exactly 1
(:func:`_rrsl_raw` gives the bounds). The sigmoid is taken only inside it,
in slices of ``_SLICE`` = 2,048 entries, and the weights are the same bits
as with it taken everywhere. On the example system (alpha = 10, beta = 11)
the window holds every draw at the first iterate from (0, 0), 5-9% of the
draws over a fixed-point solve on the 10k-bank theta sweep (1-2% at the
root) and 5.7% over the 20 robustness designs on 2k banks.

The sigmoid is :func:`_expit`, ``1 / (1 + exp(-x))`` with the C library's
``exp``. That is the expression and the ``exp`` of ``scipy.special.expit``,
so the weights have its bits and the package needs no scipy.

- Not ``1 / (1 + np.exp(-x))``: numpy's float ``exp`` is SIMD code, not
  the C library's. The two differ in the last bit on 4.6% of arguments
  drawn uniformly from the window (2M draws on an x86 VM), which moves 1.9%
  of the sigmoid values and with them every RRSL output digest.
- numpy's complex ``exp`` calls the C library's ``cexp``, and glibc's
  ``cexp`` returns ``exp(re) * 1.0`` for a zero imaginary part. So the real
  part of ``np.exp`` of ``-x`` cast to complex is the C library's
  ``exp(-x)``, at C speed. A ``math.exp`` loop gives the same bits at
  about 18 times ``expit``'s cost.
- For -x from 709.0 up to where ``exp`` overflows (709.78), glibc's ``cexp``
  takes a scaled path whose subnormal result differs. Every x < -708
  therefore takes ``math.exp``, inf once it overflows. Inside the window an
  entry gets there only when |theta| exceeds about 1e291.
- The kernel costs about 28 ns an entry against ``expit``'s 10 ns at 1,000
  entries, and 19 ns against 10 ns at 10,000 (2-vCPU x86 VM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import SampleBank, _quadratic_forms
from .errors import NonFiniteError, NumericalError, WeightOverflowError
from .matops import symmetrize

__all__ = [
    "FAMILY_RN",
    "FAMILY_RSL",
    "FAMILY_RRSL",
    "RSL_MAX_EXPONENT",
    "WeightSpec",
    "WeightedBank",
    "predictive_costs",
    "weight_vector",
    "build_weighted_bank",
]

FAMILY_RN = "RN"
FAMILY_RSL = "RSL"
FAMILY_RRSL = "RRSL"
_FAMILIES = (FAMILY_RN, FAMILY_RSL, FAMILY_RRSL)

#: Exponents beyond this raise instead of silently saturating.
RSL_MAX_EXPONENT = 700.0

#: Sigmoid arguments from which expit is exactly 1.0 (see :func:`_rrsl_raw`).
_EXPIT_ONE = 40.0
_LOG_2_M55 = math.log(2.0**-55)
#: Sigmoid arguments below which :func:`_expit` takes ``math.exp``, clear of
#: glibc's scaled ``cexp`` path from -x > 709.0.
_CEXP_FLOOR = -708.0
#: Window entries :func:`_rrsl_raw` takes the sigmoid of at a time. Each
#: temporary of a slice, the complex exponentials included (32 KB), stays
#: far below glibc's 128 KB mmap threshold.
_SLICE = 2048


@dataclass(frozen=True)
class WeightSpec:
    """Weight family selection with its parameters.

    ``sigma`` is the second moment of the reference state; ``None`` means
    the identity. The RN family ignores ``theta`` entirely.
    """

    family: str
    theta: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    sigma: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}")
        for name in ("theta", "alpha", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma is not None:
            sigma = symmetrize(self.sigma, "sigma")
            if np.linalg.eigvalsh(sigma).min() < -1e-12:
                raise ValueError("sigma must be positive semidefinite")
            sigma.setflags(write=False)
            object.__setattr__(self, "sigma", sigma)

    def resolved_sigma(self, n: int) -> np.ndarray:
        if self.sigma is None:
            return np.eye(n)
        if self.sigma.shape != (n, n):
            raise ValueError(
                f"sigma has shape {self.sigma.shape}, expected {(n, n)}"
            )
        return self.sigma


class _Workspace:
    """Reused buffers of the stacked weight pass: 3 float64 and 2 bool arrays.

    They hold the predictive costs, the sigmoid arguments or RSL exponents
    (later the normalized weights), the raw weights and the two RRSL masks.
    Each is one flat buffer, grown to the largest stack seen, and a pass of
    any shape takes its first entries as C-contiguous arrays (:meth:`take`),
    so its rows lie as a fresh stack's would. A pass on a new
    ``_Workspace()`` returns arrays that nothing else holds. Beyond these
    buffers a pass holds at most 8 ``_SLICE`` flat indices of the RRSL
    window and the temporaries of one ``_SLICE`` of them (:func:`_rrsl_raw`).
    """

    _DTYPES = (np.float64,) * 3 + (np.bool_,) * 2
    #: Scratch of a pass per draw per point, one slice's temporaries aside:
    #: the buffers (3 x 8 + 2 = 26 bytes) and at most one window index (8),
    #: 34 bytes. The solver's lockstep sizes its batches by it.
    BYTES_PER_DRAW = sum(np.dtype(t).itemsize for t in _DTYPES) + np.dtype(np.intp).itemsize

    def __init__(self):
        self._buffers = ()

    def take(self, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """Costs, arguments, raw weights and the two masks of one pass, each of ``shape``."""
        cells = math.prod(shape)
        if not self._buffers or cells > self._buffers[0].size:
            self._buffers = tuple(np.empty(cells, dtype=t) for t in self._DTYPES)
        return tuple(buf[:cells].reshape(shape) for buf in self._buffers)


def _raw_into(spec, theta, costs, mean_predictive, args, raw, saturated, window):
    """Raw weights of a (rows, N) stack of predictive costs, written into ``raw``.

    ``theta`` and ``mean_predictive`` are (rows, 1) columns, one entry per
    row, and every row shares the family, alpha and beta of ``spec``. An RSL
    exponent beyond ``RSL_MAX_EXPONENT`` raises for the first row that has
    one, with that row's largest exponent. The buffers have the shape of
    ``costs``: ``args`` ends up holding the RSL exponents or the RRSL sigmoid
    arguments, the masks are scratch, and ``raw`` is returned.
    """
    if spec.family == FAMILY_RN:
        raw[...] = 1.0
        return raw
    if spec.family == FAMILY_RSL:
        exponents = np.multiply(theta, costs, out=args)
        if exponents.size and exponents.max() > RSL_MAX_EXPONENT:
            worst = exponents.max(axis=-1).reshape(-1)
            row = int(np.argmax(worst > RSL_MAX_EXPONENT))
            raise WeightOverflowError(
                f"RSL weight overflow: theta * J reaches {worst[row]:.6g}, "
                f"beyond exp({RSL_MAX_EXPONENT:.0f})"
            )
        return np.exp(exponents, out=raw)
    x = np.multiply(spec.alpha, costs, out=args)
    np.subtract(x, spec.beta * mean_predictive, out=x)
    return _rrsl_raw(theta, x, raw, saturated, window)


def _rrsl_raw(theta, x: np.ndarray, raw, saturated, window) -> np.ndarray:
    """1 + theta * expit(x) into ``raw``, taking the sigmoid only where the result is not exact.

    For x >= 40, exp(-x) < 2**-53, so 1 + exp(-x) rounds to 1, expit(x) is
    exactly 1.0 and the weight exactly 1 + theta. For x below
    log(2**-55 / |theta|), |theta| expit(x) < |theta| exp(x) < 2**-55; the
    few roundings of expit, of the product and of the bound itself keep it
    below 2**-54, half an ulp of 1 from below, so 1 + theta * expit(x)
    rounds to 1.0 (at theta = 0 for every finite x). One product and one
    sum set both exact values, theta [x >= 40] + 1: 1 + theta where x >= 40
    and 0 + 1 = 1 elsewhere. At theta = +-inf or NaN, whose product with 0
    is NaN, no x lies below the window, so every entry that is not
    saturated is overwritten. Every other entry, NaN included, takes the
    full expression, so the result equals it bit for bit and a NaN still
    reaches :func:`_normalize_into`.

    The window's flat indices are taken one segment of the flattened stack
    at a time: the whole stack when its window holds at most 8 ``_SLICE``
    entries, as in 97% of the RRSL passes of perfbench's ``design-10k`` and
    ``robustness-2k`` workloads, else segments of 8 ``_SLICE`` entries. So
    the index array holds at most min(8 ``_SLICE``, rows N) entries
    (128 KB), within the 8 bytes per draw that ``_Workspace.BYTES_PER_DRAW``
    declares for it, and a small window is not cut into part slices (fixed
    segments throughout made ``design-10k`` 3-4% slower). Each segment's
    entries are taken ``_SLICE`` at a time; entry j of the flattened stack
    takes the theta of row j // N. Every step is elementwise, so neither
    length changes a bit.

    ``theta`` is a (rows, 1) column of one theta per row of the (rows, N)
    stack ``x``. ``saturated`` and ``window`` are boolean scratch of the
    shape of ``x``.
    """
    np.greater_equal(x, _EXPIT_ONE, out=saturated)
    np.multiply(saturated, theta, out=raw)
    raw += 1.0
    np.less(x, np.array([[_window_floor(t)] for t in theta[:, 0]]), out=window)
    window |= saturated
    np.logical_not(window, out=window)
    flat_x, flat_raw, flat_window = x.reshape(-1), raw.reshape(-1), window.reshape(-1)
    cap = 8 * _SLICE
    segment = cap if np.count_nonzero(flat_window) > cap else max(flat_window.size, 1)
    for offset in range(0, flat_window.size, segment):
        mid = np.flatnonzero(flat_window[offset : offset + segment])
        mid += offset
        for start in range(0, mid.size, _SLICE):
            part = mid[start : start + _SLICE]
            flat_raw[part] = 1.0 + theta[part // x.shape[1], 0] * _expit(flat_x[part])
    return raw


def _expit(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) with the C library's exp: ``scipy.special.expit``'s bits.

    The exponential is the real part of numpy's complex ``exp`` (the C
    library's ``cexp``) for x >= -708 and ``math.exp``, inf once it
    overflows, below; the module docstring says why. NaN stays NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(np.negative(x), dtype=np.complex128).real
        low = x < _CEXP_FLOOR
        if low.any():
            e[low] = [_libm_exp(-v) for v in x[low]]
        e += 1.0
        return np.divide(1.0, e)


def _libm_exp(v: float) -> float:
    """The C library's exp(v), inf where it overflows."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _window_floor(theta: float) -> float:
    """log(2**-55 / |theta|), below which 1 + theta * expit(x) is exactly 1."""
    return math.inf if theta == 0.0 else _LOG_2_M55 - math.log(abs(theta))


def _normalize_into(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each row of ``raw`` divided by its own mean, written into ``out``.

    ``raw`` is one row of weights or a (rows, N) stack; the normalized
    weights of a row average to 1. The first bad row raises: a non-finite
    weight, then a negative one, then all zero.
    """
    mean = np.add.reduce(raw, axis=-1, keepdims=True) / raw.shape[-1]
    # One min and one max clear the common case (NaN fails both tests); the
    # index search runs only when a check is bound to fail.
    if raw.size and not (raw.min() >= 0.0 and raw.max() < np.inf and mean.min() > 0.0):
        rows = raw.reshape(-1, raw.shape[-1])
        ok = (rows.min(axis=1) >= 0.0) & (rows.max(axis=1) < np.inf)
        row = rows[int(np.argmin(ok & (mean.reshape(-1) > 0.0)))]
        if not np.all(np.isfinite(row)):
            idx = int(np.argmax(~np.isfinite(row)))
            raise NonFiniteError(f"raw weight non-finite at sample {idx}")
        if np.any(row < 0.0):
            idx = int(np.argmax(row < 0.0))
            raise NumericalError(f"raw weight negative at sample {idx}")
        raise NumericalError("all raw weights are zero; normalization impossible")
    return np.divide(raw, mean, out=out)


def _unit_weights(spec: WeightSpec, theta: float) -> bool:
    """RN and theta = 0 give weights that are exactly one."""
    return spec.family == FAMILY_RN or theta == 0.0


def _check_costs(costs: np.ndarray, sums: np.ndarray) -> None:
    """Raise for the first non-finite cost of the first (rows, N) row that has one.

    ``sums`` are the row sums. A finite row sum has only finite terms, and
    a sum that overflows with finite terms flags no row and is no error.
    """
    if not np.isfinite(sums).all():
        flagged = np.flatnonzero(~np.isfinite(costs).all(axis=1))
        if flagged.size:
            idx = int(np.argmax(~np.isfinite(costs[flagged[0]])))
            raise NonFiniteError(f"predictive cost non-finite at sample {idx}")


def _weigh_all(banks, specs, thetas, gains, values, qs, rs, work: _Workspace | None = None):
    """Predictive costs, raw and normalized weights of several problems at once.

    Row i of each returned (rows, N) array is for ``banks[i]``, all of one
    size, at the policy (``gains[i]``, ``values[i]``) under ``specs[i]`` and
    ``thetas[i]``; the other arguments are stacked along their first axis.
    The specs share family, alpha and beta; their sigmas may differ. With
    K = [I; -L] the cost of a draw is z' kron(K S K', P) z + tr((Q +
    L' R L) S), z = vec([A B]), so all N costs of a bank are one product with
    its moment matrix: one :func:`~wsriccati.ensemble._quadratic_forms` call
    takes every row's, and one add puts each row's offset on.

    Each row is what the row alone gives, bit for bit: every step is an
    elementwise operation, a reduction along a row, or a small product per
    row. Each check (non-finite cost, RSL overflow, then normalization, in
    that order) is one test on the whole stack and raises the
    :class:`NumericalError` of the first row it flags, so on a single row
    the error is the row's own.

    The (rows, N) arrays are written with ``out=`` into the buffers of
    ``work``, which the next pass on it overwrites; without it, into new
    ones. The solver's lockstep passes the workspace it created for its
    rounds (``riccati._lockstep``); no other caller in the package passes
    one. Either way the bits are the same: each step is the same operation
    on the same operands.
    """
    count, n = values.shape[:2]
    sigma = np.array([spec.resolved_sigma(n) for spec in specs])
    k_mat = np.empty((count, n + gains.shape[1], n))
    k_mat[:, :n] = np.eye(n)
    np.negative(gains, out=k_mat[:, n:])
    base = ((qs + gains.transpose(0, 2, 1) @ rs @ gains) @ sigma).trace(axis1=1, axis2=2)
    # kron(K S K', P) as one broadcast product: the same single product per
    # entry as np.kron, without its per-call overhead.
    outer = k_mat @ sigma @ k_mat.transpose(0, 2, 1)
    dim = outer.shape[1] * n
    kron = (outer[:, :, None, :, None] * values[:, None, :, None, :]).reshape(count, dim, dim)
    size = banks[0].size
    costs, args, raw, saturated, window = (work if work is not None else _Workspace()).take(
        (count, size)
    )
    _quadratic_forms(banks, kron, costs)
    costs += base[:, None]
    sums = np.add.reduce(costs, axis=1)
    _check_costs(costs, sums)
    theta = np.array(thetas, dtype=float)[:, None]
    raw = _raw_into(specs[0], theta, costs, sums[:, None] / size, args, raw, saturated, window)
    return costs, raw, _normalize_into(raw, args)


def _weigh(bank: SampleBank, spec: WeightSpec, theta: float, gain, value, q, r):
    """Predictive costs, raw and normalized weights of every draw of one bank.

    The pass runs under the solver's ``np.errstate``: every non-finite value
    it hides raises the pass's own typed error.
    """
    gain, value, q, r = (np.asarray(x, dtype=float) for x in (gain, value, q, r))
    with np.errstate(over="ignore", invalid="ignore"):
        costs, raw, weights = _weigh_all(
            [bank], [spec], [theta], gain[None], value[None], q[None], r[None]
        )
    return costs[0], raw[0], weights[0]


def predictive_costs(a, b, gain, value, sigma, q, r) -> np.ndarray:
    """Predictive cost J of each draw of the stacked arrays ``a`` and ``b``.

    The weight pass at unit weights, on a bank of these draws: the
    ``predictive`` of :func:`build_weighted_bank` at a symmetric ``value``,
    bit for bit.
    """
    spec = WeightSpec(FAMILY_RN, sigma=sigma)
    return _weigh(SampleBank(a=a, b=b), spec, 0.0, gain, value, q, r)[0]


def weight_vector(
    bank: SampleBank, spec: WeightSpec, theta: float, gain, value, q, r
) -> np.ndarray:
    """Normalized weights on the bank at policy (theta, gain, value).

    RN and theta = 0 short-circuit to exact ones, matching the defining
    property that zero sensitivity reproduces the unweighted expectation.
    """
    if _unit_weights(spec, theta):
        return np.ones(bank.size)
    return _weigh(bank, spec, theta, gain, value, q, r)[2]


@dataclass(frozen=True)
class WeightedBank:
    """A sample bank with normalized weights frozen at one policy."""

    bank: SampleBank
    weights: np.ndarray
    raw_weights: np.ndarray
    predictive: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.bank.size,):
            raise ValueError("weight count does not match the bank size")
        if np.any(w < 0.0):
            raise NumericalError("normalized weights must be nonnegative")
        if abs(w.mean() - 1.0) > 1e-12:
            raise NumericalError(
                f"weight normalization off by {abs(w.mean() - 1.0):.3e}"
            )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.bank.size


def build_weighted_bank(
    bank: SampleBank, spec: WeightSpec, theta: float, gain, value, q, r
) -> WeightedBank:
    """Evaluate and normalize the weights of every sample in the bank.

    The weights come from the same computation as :func:`weight_vector`, so
    at a symmetric value matrix they equal the solver's weights bit for bit.
    """
    value = symmetrize(value, "value matrix")
    predictive, raw, weights = _weigh(bank, spec, theta, gain, value, q, r)
    return WeightedBank(bank=bank, weights=weights, raw_weights=raw, predictive=predictive)
