"""Weighted stochastic Riccati solver.

The design equations couple a quadratic value matrix P and a gain L through
weighted empirical expectations E_w[.] taken at the current policy, each a
block of E_w[Z^T P Z], Z = [A B], read off the bank's moment matrix:

    value map   F(P, L) = E_w[A^T P A] + Q - E_w[A^T P B] G(P, L)
    gain map    G(P, L) = E_w[B^T P B + R]^{-1} E_w[B^T P A]

Two solution routes are provided. The fixed-point route iterates the
coupled maps x <- (F, G)(x), x = (P, L), from a positive semidefinite start,
accelerated by safeguarded type-II Anderson mixing (Walker & Ni, SIAM J.
Numer. Anal. 2011) of the last few iterates z = [vech(P); vec(L)] and their
map images. A mixed candidate is accepted only if P - Q >= 0, the maps can
be evaluated at it, and its fixed-point residual ||F - P||_F + ||G - L||_F
is below that of every earlier accepted iterate (a residual-decrease
safeguard; compare the globalized Anderson acceleration of Zhang, O'Donoghue
& Boyd, SIAM J. Optim. 2020); otherwise the history is cleared and the
paper's plain step is taken. The Newton route solves the stacked residual

    h(z) = [ vech(E_w[(A-BL)^T P (A-BL)] + L^T R L + Q - P) ]
           [ vec(E_w[B^T P B + R] L - E_w[B^T P A])          ]

for z = [vech(P); vec(L)], warm-started at the zero-sensitivity solution.
Every route ends with the stabilizing-root postcondition P > 0, P - Q >= 0
and a gain that is mean-square stable on the bank, and raises
:class:`NumericalError` when it fails.

Every route runs in lockstep. A solve is a generator that yields requests
(kind, problem, points): kind ``maps`` asks for (F, G) at each (P, L) of
``points``, kind ``residual`` for h at each z. :func:`_lockstep` evaluates
the requests of every solve in flight at once (:func:`_evaluate`), one
stacked pass per group of points of one kind whose problems share n, m,
bank size, weight family, alpha and beta, and sends each solve its list of
results or throws in the first error among them. The fixed-point route is
:func:`_fixed_point_steps`; a Newton route is :func:`_newton_run`, one
theta = 0 start per run of problems on one bank, then :func:`_newton_steps`,
whose finite-difference Jacobian is one request of 2 dim points. Each check
of an evaluation (a non-finite cost, an RSL overflow, weights that cannot be
normalized, a weighted input cost that is not positive definite, a value
map or residual that is not finite, a value map that is not symmetric) is
one test on the whole stack that raises the first flagged point's own
:class:`NumericalError`; if one point of a group fails, each is evaluated
again alone. Each result is the same bits as the point's own evaluation,
because every stacked step is one whose result for an item does not depend
on the others, as checked on an x86 VM (numpy 2.4, OpenBLAS):

- elementwise operations;
- ``add.reduce``, ``min`` and ``max`` along the last axis of a C-contiguous
  stack;
- stacked ``eigvalsh`` and ``solve``;
- ``einsum("parbs,prs->pab")`` (:func:`~wsriccati.ensemble.quadratic_expect`);
- stacked small matmuls and ``trace(axis1, axis2)``.

The two products with a bank's moment matrix per evaluation, phi c and
w' phi, stay one gemv per problem: one gemm over several columns gives other
bits. So does the Frobenius norm taken over a stack (``np.linalg.norm`` with
``axis=(1, 2)``, or an einsum), so each solve takes its own fixed-point
residual.

Each :func:`_lockstep` creates one :class:`~wsriccati.weights._Workspace`
and every round of its solves writes its weights there: :func:`_evaluate`
passes it through the maps (:func:`_stacked_maps`) and the residuals
(:func:`_stacked_residuals`, so Newton's Jacobian requests too) to
:func:`_zpz_all` and the stacked weight pass. The pass writes the round's
predictive costs, sigmoid arguments, raw and normalized weights and its two
masks into those buffers with ``out=`` ufuncs. With at most one RRSL window
index per draw that is the 34 bytes per draw per point the workspace declares
(``_Workspace.BYTES_PER_DRAW``), by which :func:`_footprint` sizes the
batches; beyond them a round holds only the sigmoid's temporaries of one
slice of 2,048 entries. The weights leave the pass only
as the moments read off them, so the next round may overwrite the buffers;
every step is the same operation as on fresh arrays, so the bits are the
same. The workspace is freed when the lockstep returns, and a lockstep in
another thread has its own. Without one (``work=None``, as in the weight
views of :mod:`~wsriccati.weights`) a pass writes into fresh arrays.
:func:`value_map`, :func:`implicit_residual` and :func:`residual_jacobian`
are one request run alone (:func:`_drive`). No lockstep runs inside
another: a fixed-point solve's closing residual check is a ``residual``
request of the solve, and a traced solve takes the residuals of its trace
rows after its own lockstep has returned.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import SampleBank, _weighted_moments, quadratic_expect
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainViolationError,
    NonFiniteError,
    NumericalError,
    SingularJacobianError,
    UnstableGainError,
)
from .matops import _pair_index, symmetrize, unvech, vech
from .stability import StabilityReport, ms_check
from .weights import WeightSpec, _Workspace, _unit_weights, _weigh_all

__all__ = [
    "SolverOptions",
    "DesignProblem",
    "DesignSolution",
    "value_map",
    "fixed_point_solve",
    "pack_solution",
    "unpack_solution",
    "implicit_residual",
    "residual_jacobian",
    "newton_solve",
    "solve",
    "solve_all",
]

DEFAULT_MAX_HALVINGS = 30

#: Relative eigenvalue floor below which the weighted input-cost matrix is
#: treated as a domain violation instead of being regularized.
DOMAIN_EIG_FLOOR = 1e-12

#: Number of residual differences mixed by an Anderson step (Walker & Ni's m).
ANDERSON_MEMORY = 5

#: Bytes that solves in lockstep may hold beyond one solve's (see
#: :func:`_footprint`). On the example system that is all 11 fixed-point
#: sweep points on one 10k bank (340 KB each), and 21 fixed-point or 9 Newton
#: redesigns on their own 2k banks (500 KB or 1.1 MB each, bank included),
#: so all 20 of the example's ``robustness`` redesigns under the fixed-point
#: route. A solve whose own footprint is larger still runs, alone.
LOCKSTEP_BYTES = 5 * 2**21

_METHODS = ("fixed-point", "newton", "newton-continuation")


@dataclass(frozen=True)
class SolverOptions:
    """The solution route, its stopping rules and its trace, checked when built.

    The only place a solver setting is declared: every front-end takes the
    options whole. ``fp_tol``, ``fp_max_iters`` and ``residual_tol`` govern
    the fixed-point route and the theta = 0 start of the Newton routes (see
    :func:`fixed_point_solve`), ``newton_tol`` and ``newton_max_iters`` each
    Newton run (see :func:`newton_solve`); each must be finite and > 0.
    ``continuation`` is the theta grid of ``newton-continuation``, finite
    entries ending at the problem's theta; without it the grid is half the
    target, then the target. ``trace`` asks :func:`fixed_point_solve` for
    its iterates; no other route records them.
    """

    method: str = "fixed-point"
    fp_tol: float = 1e-10
    fp_max_iters: int = 10_000
    residual_tol: float = 1e-8
    newton_tol: float = 1e-9
    newton_max_iters: int = 100
    continuation: tuple[float, ...] | None = None
    trace: bool = False

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigurationError(
                f"solver.method: unknown method {self.method!r}, expected one of {_METHODS}"
            )
        for name in ("fp_tol", "fp_max_iters", "residual_tol", "newton_tol", "newton_max_iters"):
            value = getattr(self, name)
            if abs(value) == math.inf:
                raise ConfigurationError(f"solver.{name} must be finite")
            if not value > 0:
                raise ConfigurationError(f"solver.{name} must be > 0")
        if self.continuation is not None and len(self.continuation) == 0:
            raise ConfigurationError("solver.continuation must not be empty")
        if not all(math.isfinite(theta) for theta in self.continuation or ()):
            raise ConfigurationError("solver.continuation entries must be finite")


@dataclass(frozen=True)
class DesignProblem:
    """A bank, positive definite cost matrices, and a weight specification.

    The domain floor ``DOMAIN_EIG_FLOOR * ||R||_2`` on the weighted
    input-cost matrix is computed once here, not at every map evaluation.
    """

    bank: SampleBank
    q: np.ndarray
    r: np.ndarray
    weights: WeightSpec
    _domain_floor: float = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = symmetrize(self.q, "Q")
        r = symmetrize(self.r, "R")
        n, m = self.bank.n, self.bank.m
        if q.shape != (n, n):
            raise ConfigurationError(f"Q has shape {q.shape}, expected {(n, n)}")
        if r.shape != (m, m):
            raise ConfigurationError(f"R has shape {r.shape}, expected {(m, m)}")
        if np.linalg.eigvalsh(q).min() <= 0.0:
            raise ConfigurationError("Q must be positive definite")
        if np.linalg.eigvalsh(r).min() <= 0.0:
            raise ConfigurationError("R must be positive definite")
        if self.weights.sigma is not None and self.weights.sigma.shape != (n, n):
            raise ConfigurationError(
                f"sigma has shape {self.weights.sigma.shape}, expected {(n, n)}"
            )
        q.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_domain_floor", DOMAIN_EIG_FLOOR * np.linalg.norm(r, 2))

    @property
    def n(self) -> int:
        return self.bank.n

    @property
    def m(self) -> int:
        return self.bank.m

    @property
    def theta(self) -> float:
        return self.weights.theta

    def with_theta(self, theta: float) -> "DesignProblem":
        return dataclasses.replace(
            self, weights=dataclasses.replace(self.weights, theta=float(theta))
        )


@dataclass(frozen=True)
class DesignSolution:
    """Converged (value, gain) pair with solver diagnostics.

    ``deltas`` holds the per-iteration convergence history. For the
    fixed-point route it is the fixed-point residual ||F(x) - P||_F +
    ||G(x) - L||_F at each accepted iterate x = (P, L), which on a plain step
    equals the iterate change; ``iterations`` is its length. For the Newton
    route it holds the stacked residual norms, starting at the initial point.
    A Newton route's ``iterations`` sums the Newton steps over every theta
    of its grid, without the theta = 0 fixed-point start, while ``deltas``
    and ``residual`` are those of the last theta alone; so under
    ``newton-continuation`` ``iterations`` may exceed ``len(deltas) - 1``.
    ``stability`` reports the gain's plain mean-square radius on the design
    bank, which every route's postcondition has checked below 1.
    """

    value: np.ndarray
    gain: np.ndarray
    method: str
    iterations: int
    residual: float
    deltas: tuple[float, ...]
    trace: tuple | None = None
    stability: StabilityReport | None = None


def _zpz_all(problems, values, gains, work=None):
    """The stacked P, L, Q, R and E_w[Z^T P Z], Z = [A B], of every problem at its policy.

    Problems share n, m and the bank size; ``values`` and ``gains`` list
    their policies. Each E_w[Z^T P Z] is read off its bank's moment at the
    weights of its policy (the unweighted moment for RN and theta = 0, whose
    weights are exactly one); the weighted problems share weight family,
    alpha and beta. A weight check that fails raises (see
    :func:`~wsriccati.weights._weigh_all`). The weights are written into
    ``work``, the lockstep's workspace (fresh arrays when ``None``), and
    used only here, for the moments, which are read off one stack
    (:func:`~wsriccati.ensemble._weighted_moments`).
    """
    values = np.array(values, dtype=float)
    gains = np.array(gains, dtype=float)
    qs = np.array([p.q for p in problems])
    rs = np.array([p.r for p in problems])
    moments = np.array([p.bank.moment() for p in problems])
    weighted = [i for i, p in enumerate(problems) if not _unit_weights(p.weights, p.theta)]
    if weighted:
        sub = [problems[i] for i in weighted]
        banks = [p.bank for p in sub]
        weights = _weigh_all(
            banks, [p.weights for p in sub], [p.theta for p in sub],
            *(x[weighted] for x in (gains, values, qs, rs)), work=work,
        )[2]
        moments[weighted] = _weighted_moments(banks, weights)
    zpz = quadratic_expect(moments, values)
    return values, gains, qs, rs, 0.5 * (zpz + zpz.transpose(0, 2, 1))


def _check_input_cost(ebpb_r: np.ndarray, floors: np.ndarray) -> None:
    """Raise for the first stacked E_w[B^T P B + R] not positive definite above its floor.

    ``floors`` holds each problem's floor (see :class:`DesignProblem`).
    """
    smallest = np.minimum.reduce(np.linalg.eigvalsh(ebpb_r), axis=1)
    flagged = smallest <= floors
    if flagged.any():
        row = int(np.argmax(flagged))
        raise DomainViolationError(
            f"weighted input-cost matrix is not positive definite "
            f"(smallest eigenvalue {smallest[row]:.3e})",
            smallest_eigenvalue=float(smallest[row]),
        )


def _stacked_maps(problems, values, gains, work=None):
    """The stacked maps (F, G) of problems that share n, m, bank size and weights.

    The problems share weight family, alpha and beta. One straight-line pass
    of stacked calls (see the module docstring for which calls keep per-item
    bits). Each check is one test on the whole stack that raises the first
    flagged problem's own :class:`NumericalError`, so on a batch of one the
    error is the problem's own.
    """
    values, gains, qs, rs, zpz = _zpz_all(problems, values, gains, work)
    n = values.shape[1]
    eapa, eapb, ebpb = zpz[:, :n, :n], zpz[:, :n, n:], zpz[:, n:, n:]
    ebpb_r = ebpb + rs
    _check_input_cost(ebpb_r, np.array([p._domain_floor for p in problems]))
    new_gain = np.linalg.solve(ebpb_r, eapb.transpose(0, 2, 1))
    return _symmetrize_all(eapa + qs - eapb @ new_gain), new_gain


def _stacked_residuals(problems, zs, work=None) -> np.ndarray:
    """The stacked residuals h(z) of problems that share n, m, bank size and weights.

    Row i is h at ``zs[i]`` for ``problems[i]``, with the checks of
    :func:`_stacked_maps` and one more: a non-finite entry raises.
    """
    n, m = problems[0].n, problems[0].m
    values, gains = zip(*(unpack_solution(z, n, m) for z in zs))
    values, gains, qs, rs, zpz = _zpz_all(problems, values, gains, work)
    k_mat = np.concatenate([np.broadcast_to(np.eye(n), (len(zs), n, n)), -gains], axis=1)
    empm = k_mat.transpose(0, 2, 1) @ zpz @ k_mat  # E_w[(A-BL)^T P (A-BL)]
    empm = 0.5 * (empm + empm.transpose(0, 2, 1))
    f_mat = empm + gains.transpose(0, 2, 1) @ rs @ gains + qs - values
    g_mat = (zpz[:, n:, n:] + rs) @ gains - zpz[:, :n, n:].transpose(0, 2, 1)
    rows, cols, _ = _pair_index(n)
    out = np.concatenate(
        [f_mat[:, cols, rows], g_mat.transpose(0, 2, 1).reshape(len(zs), -1)], axis=1
    )
    if not np.isfinite(out).all():
        raise NonFiniteError("residual is not finite")
    return out


def _evaluate(requests, work=None) -> list:
    """Each request's list of results, one stacked pass per group of points.

    A request is (kind, problem, points). Each result is the same bits as its
    point gives alone, as a stack of one (:func:`_stacked_maps`,
    :func:`_stacked_residuals`), or the :class:`NumericalError` it raises
    alone: when a group's pass raises, each of its points is evaluated again
    alone. Every pass writes its weights into ``work`` (see :func:`_zpz_all`).
    """
    flat = [(kind, p, x) for kind, p, points in requests for x in points]
    groups: dict[tuple, list[int]] = {}
    for i, (kind, p, _) in enumerate(flat):
        key = (kind, p.n, p.m, p.bank.size, p.weights.family, p.weights.alpha, p.weights.beta)
        groups.setdefault(key, []).append(i)
    out: list = [None] * len(flat)
    for (kind, *_), idx in groups.items():
        problems, points = [flat[i][1] for i in idx], [flat[i][2] for i in idx]
        try:
            if kind == "residual":
                results = list(_stacked_residuals(problems, points, work))
            else:
                results = list(zip(*_stacked_maps(problems, *zip(*points), work)))
        except NumericalError as exc:
            results = [exc] if len(idx) == 1 else [
                _evaluate([(kind, p, [x])], work)[0][0] for p, x in zip(problems, points)
            ]
        for i, result in zip(idx, results):
            out[i] = result
    results = iter(out)
    return [[next(results) for _ in points] for _, _, points in requests]


def _symmetrize_all(arr: np.ndarray) -> np.ndarray:
    """(S + S^T)/2 of each stacked value-map image S; the first bad one raises.

    An image with a non-finite entry raises :class:`NonFiniteError`, and one
    whose asymmetry exceeds 1e-6 max(1, max |S|) raises
    :class:`NumericalError`. Every scale is at least 1, so an asymmetry
    within 1e-6 everywhere clears every image in one comparison; a
    non-finite entry makes that largest asymmetry NaN or infinite.
    """
    trans = arr.transpose(0, 2, 1)
    asym = np.abs(arr - trans)
    if not asym.max() <= 1e-6:
        finite = np.isfinite(arr).all(axis=(1, 2))
        asym = asym.max(axis=(1, 2))
        scale = np.maximum(1.0, np.abs(arr).max(axis=(1, 2)))
        flagged = ~finite | (asym > 1e-6 * scale)
        row = int(np.argmax(flagged))
        if not finite[row]:
            raise NonFiniteError("value map is not finite")
        if flagged[row]:
            raise NumericalError(
                f"value map is not symmetric (max asymmetry {asym[row]:.3e} exceeds "
                f"1.0e-06 relative tolerance)"
            )
    return (arr + trans) / 2.0


def value_map(value, gain, problem: DesignProblem) -> np.ndarray:
    """One application of the value map F at the given policy."""
    value = symmetrize(value, "value matrix")
    return _drive(problem, _request("maps", problem, (value, gain)))[0]


def _check_stabilizing(value: np.ndarray, q: np.ndarray, label: str) -> None:
    """Postcondition of every route: P > 0 and P - Q >= 0 (the stabilizing root).

    The floor on P - Q is scale-aware, -1e-9 ||P||_2, so that rounding in a
    converged iterate is not mistaken for a wrong root.
    """
    eigs = np.linalg.eigvalsh(value)
    if eigs.min() <= 0.0:
        raise NumericalError(f"{label}: converged value matrix is not positive definite")
    floor = float(np.linalg.eigvalsh(value - q).min())
    if floor < -1e-9 * float(np.abs(eigs).max()):
        raise NumericalError(
            f"{label}: converged value matrix does not dominate the state cost "
            f"(smallest eigenvalue of P - Q is {floor:.3e}); not the stabilizing root"
        )


def _check_mean_square(bank: SampleBank, solution: DesignSolution, label: str):
    """Postcondition of every route's result: the gain stabilizes ``bank`` in mean square.

    The radius is the plain one, under the bank's own unweighted law: past
    the RSL fold a root's weights can sit on a few draws on which its gain
    is stable while the closed loop diverges on the bank. Returns the
    solution with its report in ``stability``. Only what a route returns is
    checked, not the theta = 0 start of a Newton run nor a continuation
    step before the last.
    """
    report = ms_check(bank, solution.gain)
    if not report.ms_stable:
        raise UnstableGainError(
            f"{label}: gain is not mean-square stable on the design bank "
            f"(radius {report.radius_plain:.4f})"
        )
    return dataclasses.replace(solution, stability=report)


def _map_step(problem: DesignProblem, value, gain):
    """Map image (F, G) of (P, L) and the fixed-point residual ||F-P||_F + ||G-L||_F.

    A generator step of a solve: the lockstep sends back [(F, G)] or throws
    in the :class:`NumericalError` evaluating the maps raised.
    """
    ((new_value, new_gain),) = yield "maps", problem, [(value, gain)]
    return new_value, new_gain, _frobenius(new_value - value) + _frobenius(new_gain - gain)


def _frobenius(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a real array, by its own ravel, dot and sqrt."""
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _anderson_step(problem: DesignProblem, d_images, d_residuals, image, residual, best: float):
    """Safeguarded type-II Anderson candidate, or None when it is rejected.

    ``image`` is the packed map image g_k of the last accepted iterate z_k and
    ``residual`` its residual f_k = g_k - z_k. The columns of ``d_images``
    and ``d_residuals`` are the differences g_{j+1} - g_j and f_{j+1} - f_j
    of consecutive accepted iterates, oldest first. The candidate
    g_k - dG gamma, with gamma minimizing ||f_k - dF gamma|| (Walker & Ni
    2011), is rejected when P - Q has a negative eigenvalue, when evaluating
    the maps at it fails (for instance a weighted input-cost matrix that is
    not positive definite), or when its fixed-point residual is not below
    the smallest residual of any accepted iterate. An accepted candidate is
    returned packed, with its (P, L) and their map image and residual.
    """
    gamma = np.linalg.lstsq(d_residuals, residual, rcond=None)[0]
    point = image - d_images @ gamma
    head = problem.n * (problem.n + 1) // 2
    value = point[_pair_index(problem.n)[2]]
    gain = point[head:].reshape(problem.m, problem.n, order="F")
    if np.linalg.eigvalsh(value - problem.q).min() < 0.0:
        return None
    try:
        new_value, new_gain, delta = yield from _map_step(problem, value, gain)
    except NumericalError:
        return None
    if not delta < best:
        return None
    return point, value, gain, new_value, new_gain, delta


def _debug_logger():
    """The solver's logger when it logs DEBUG, else None.

    ``logging`` is imported here, not with the module, so that importing the
    package does not load it; the command line has it loaded already.
    """
    import logging

    log = logging.getLogger(__name__)
    return log if log.isEnabledFor(logging.DEBUG) else None


def _fixed_point_steps(problem: DesignProblem, options: SolverOptions, label: int):
    """The iteration of :func:`fixed_point_solve` from (0, 0) as a generator for the lockstep.

    It yields each (P, L) at which it needs the maps, then the returned pair
    packed for its closing residual, is sent each result or thrown the error
    evaluating it raised, and returns the :class:`DesignSolution`. Under
    ``options.trace`` its trace holds the rows (s, P, L, delta) without
    their residuals. ``label`` names the problem in the DEBUG lines.
    """
    n, m = problem.n, problem.m
    value, gain = np.zeros((n, n)), np.zeros((m, n))
    log = _debug_logger()

    trace: list[tuple] | None = [] if options.trace else None

    def record(delta: float) -> None:
        if trace is not None:
            trace.append((len(trace), value.copy(), gain.copy(), delta))

    record(float("nan"))
    new_value, new_gain, delta = yield from _map_step(problem, value, gain)
    deltas = [delta]
    best = delta
    accelerated = False
    # Iterates and map images are packed as [vech(P); vec(L)] without
    # pack_solution's checks, so that a non-finite iterate ends as the
    # evaluation's NumericalError. The history is the image and residual of
    # the last accepted iterate, when there is one, and the differences of
    # up to ANDERSON_MEMORY + 1 consecutive ones, the first ``held`` columns
    # of the two difference matrices.
    rows, cols, _ = _pair_index(n)
    d_images, d_residuals = diffs = np.empty((2, n * (n + 1) // 2 + m * n, ANDERSON_MEMORY))
    held, last = 0, None

    def pack(value, gain):
        return np.concatenate([value[cols, rows], gain.reshape(-1, order="F")])

    point = pack(value, gain)
    while True:
        if log is not None:
            log.debug(
                "fixed-point problem %d (theta=%r): iteration %d, delta %.3e, %s step",
                label, problem.theta, len(deltas), delta,
                "anderson" if accelerated else "plain",
            )
        if delta < options.fp_tol:
            break
        if len(deltas) >= options.fp_max_iters:
            raise ConvergenceError(
                f"fixed-point iteration did not converge in {options.fp_max_iters} iterations "
                f"(last delta {delta:.3e})",
                history=tuple(deltas),
            )
        image = pack(new_value, new_gain)
        residual = image - point
        if last is not None:
            if held == ANDERSON_MEMORY:
                diffs[..., :-1] = diffs[..., 1:]
                held -= 1
            np.subtract(image, last[0], out=d_images[:, held])
            np.subtract(residual, last[1], out=d_residuals[:, held])
            held += 1
        last = image, residual
        step = None
        if held:
            step = yield from _anderson_step(
                problem, d_images[:, :held], d_residuals[:, :held], image, residual, best
            )
            if step is None:
                held, last = 0, None
        accelerated = step is not None
        if step is None:
            step = (image, new_value, new_gain) + (
                yield from _map_step(problem, new_value, new_gain)
            )
        point, value, gain, new_value, new_gain, step_delta = step
        record(delta)
        delta = step_delta
        deltas.append(delta)
        best = min(best, delta)

    value, gain = new_value, new_gain
    record(delta)
    (closing,) = yield "residual", problem, [pack(value, gain)]
    residual = float(np.linalg.norm(closing))
    if residual > options.residual_tol:
        raise ConvergenceError(
            f"fixed point stalled: residual {residual:.3e} exceeds "
            f"{options.residual_tol:.1e}",
            history=tuple(deltas),
        )
    _check_stabilizing(value, problem.q, "fixed-point solve")
    return DesignSolution(
        value=value,
        gain=gain,
        method="fixed-point",
        iterations=len(deltas),
        residual=residual,
        deltas=tuple(deltas),
        trace=None if trace is None else tuple(trace),
    )


def _footprint(problem: DesignProblem, flight, width: int = 1) -> int:
    """Bytes that solving ``problem`` next to the solves in ``flight`` adds.

    Each of the ``width`` points it can request at once needs the weight
    pass's scratch, ``_Workspace.BYTES_PER_DRAW`` per draw of its bank; a
    bank that no solve in flight shares adds its draws and moment features,
    unless nothing is in flight (one solve at a time holds one bank anyway).
    """
    bank = problem.bank
    cost = _Workspace.BYTES_PER_DRAW * bank.size * width
    if flight and all(item[1].bank is not bank for item in flight):
        cost += bank.a.nbytes + bank.b.nbytes + bank.phi.nbytes
    return cost


def _lockstep(solves) -> list:
    """Run solves side by side, one batched evaluation of their requests a round.

    ``solves`` yields (problem, width, steps): a problem on the solve's bank,
    the most points it requests at once and its generator, taken only when
    the solve joins; a solve evaluates nothing before its first request, so
    joining raises no :class:`NumericalError`. Each round sends every solve
    in flight the list of its results, or throws in the first error among
    them in point order. A solve joins while the bytes in flight stay within ``LOCKSTEP_BYTES`` (see
    :func:`_footprint`). Every round writes its weights into one
    :class:`~wsriccati.weights._Workspace` that lives as long as this call.
    Returns what each solve returned, or the :class:`NumericalError` it
    raised, in input order; others propagate.
    """
    results: list = []
    flight: list[list] = []  # [index, problem, steps, request, footprint]
    held = 0
    work = _Workspace()
    pending = next(solves, None)
    # Every non-finite value hidden here is turned into a typed error by the
    # checks of the evaluation.
    with np.errstate(over="ignore", invalid="ignore"):
        while flight or pending is not None:
            while pending is not None:
                problem, width, steps = pending
                cost = _footprint(problem, flight, width)
                if flight and held + cost > LOCKSTEP_BYTES:
                    break
                results.append(None)
                flight.append([len(results) - 1, problem, steps, next(steps), cost])
                held += cost
                pending = next(solves, None)
            outcomes = _evaluate([item[3] for item in flight], work)
            still = []
            for item, outcome in zip(flight, outcomes):
                steps = item[2]
                error = next((x for x in outcome if isinstance(x, NumericalError)), None)
                try:
                    item[3] = steps.send(outcome) if error is None else steps.throw(error)
                    still.append(item)
                    continue
                except StopIteration as stop:
                    results[item[0]] = stop.value
                except NumericalError as exc:
                    results[item[0]] = exc
                held -= item[4]
            flight = still
    return results


def _request(kind: str, problem: DesignProblem, point):
    """The one-point request of ``kind`` at ``point``, as a generator returning its result."""
    (result,) = yield kind, problem, [point]
    return result


def _drive(problem: DesignProblem, steps):
    """What the one solve ``steps`` on ``problem`` returns, run alone; its error raises."""
    (result,) = _lockstep(iter([(problem, 1, steps)]))
    if isinstance(result, NumericalError):
        raise result
    return result


def fixed_point_solve(
    problem: DesignProblem, options: SolverOptions = SolverOptions()
) -> DesignSolution:
    """Safeguarded Anderson-accelerated iteration of (P, L) <- (F(P, L), G(P, L)).

    Each iteration accepts one iterate x_k = (P_k, L_k) and records its
    fixed-point residual ||F(x_k) - P_k||_F + ||G(x_k) - L_k||_F in
    ``deltas``; on a plain step this is exactly the change P_{k+1} - P_k,
    L_{k+1} - L_k of the paper's iteration. The next iterate is the type-II
    Anderson combination of the last ``ANDERSON_MEMORY + 1`` iterates and
    their map images (see :func:`_anderson_step`). The history is two
    preallocated difference matrices, of consecutive map images and of
    consecutive residuals, each accepted iterate adding one column and the
    oldest shifted out when they are full; when a candidate is rejected the
    history is cleared and the plain step x_{k+1} = (F, G)(x_k) is taken
    instead. An accepted candidate costs one evaluation of the maps, a
    rejected one up to two, so ``iterations`` counts accepted iterates, not
    map evaluations.

    Every accepted candidate has a smaller residual than all earlier accepted
    iterates and satisfies P - Q >= 0, so acceleration only ever shortens
    the path of the plain iteration towards the stabilizing root.

    Starts at (0, 0), stops when the residual falls below ``options.fp_tol``
    (or raises after ``options.fp_max_iters`` iterates) and returns the map
    image of that iterate, then checks the stacked residual norm, one more
    request of the solve, against ``options.residual_tol`` and the
    stabilizing-root postcondition P > 0, P - Q >= 0 and a mean-square
    stable gain; ``options.method`` is not read. Under ``options.trace`` the
    trace holds the start, one row per accepted iterate and the returned
    pair, each (s, P, L, delta, residual) with the delta of the iterate
    before it and the norm of :func:`implicit_residual` at its own (P, L),
    taken row by row once the solve's lockstep has returned. This is
    :func:`solve` under the fixed-point route, the lockstep of
    :func:`solve_all` on one problem.
    """
    solution = _drive(problem, _fixed_point_route(problem, options, 0))
    if solution.trace is None:
        return solution
    rows = tuple(
        row + (float(np.linalg.norm(implicit_residual(pack_solution(*row[1:3]), problem))),)
        for row in solution.trace
    )
    return dataclasses.replace(solution, trace=rows)


def _fixed_point_route(problem: DesignProblem, options: SolverOptions, label: int):
    """:func:`_fixed_point_steps` with the mean-square postcondition on what it returns."""
    solution = yield from _fixed_point_steps(problem, options, label)
    return _check_mean_square(problem.bank, solution, "fixed-point solve")


def pack_solution(value, gain) -> np.ndarray:
    """Stack [vech(P); vec(L)] into one solution vector."""
    return np.concatenate(
        [vech(value), np.asarray(gain, dtype=float).reshape(-1, order="F")]
    )


def unpack_solution(z: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_solution`."""
    z = np.asarray(z, dtype=float).reshape(-1)
    head = n * (n + 1) // 2
    if z.size != head + m * n:
        raise ValueError(f"solution vector has length {z.size}, expected {head + m * n}")
    value = unvech(z[:head], n)
    gain = z[head:].reshape(m, n, order="F")
    return value, gain


def implicit_residual(z, problem: DesignProblem) -> np.ndarray:
    """Residual h(z) whose root is the design solution: one row."""
    return _drive(problem, _request("residual", problem, z))


def _fd_jacobian(z: np.ndarray, problem: DesignProblem):
    """Central differences of the residual at ``z``, as a generator.

    The points z + h_j e_j and z - h_j e_j of every j are one request.
    """
    steps = float(np.finfo(float).eps) ** (1.0 / 3.0) * np.maximum(1.0, np.abs(z))
    points = np.repeat(z[None], 2 * z.size, axis=0)
    j = np.arange(z.size)
    points[2 * j, j] += steps
    points[2 * j + 1, j] -= steps
    residuals = np.array((yield "residual", problem, points))
    return (residuals[0::2] - residuals[1::2]).T / (2.0 * steps)


def residual_jacobian(z, problem: DesignProblem) -> np.ndarray:
    """Jacobian of the residual with respect to the solution vector.

    Central differences with per-coordinate steps eps^(1/3) * max(1, |z_j|),
    the Jacobian of every Newton step (:func:`_fd_jacobian`).
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    return _drive(problem, _fd_jacobian(z, problem))


def _newton_steps(problem: DesignProblem, z: np.ndarray, options: SolverOptions):
    """The damped Newton iteration of :func:`newton_solve` from ``z``, as a generator.

    It stops below ``options.newton_tol`` or raises after
    ``options.newton_max_iters`` steps. The start, the Jacobian
    (:func:`_fd_jacobian`) and each line-search trial are residual requests.
    """
    (residual,) = yield "residual", problem, [z]
    norm = float(np.linalg.norm(residual))
    history = [norm]
    while norm >= options.newton_tol:
        iterations = len(history) - 1
        if iterations >= options.newton_max_iters:
            raise ConvergenceError(
                f"Newton did not reach tolerance in {options.newton_max_iters} iterations "
                f"(residual {norm:.3e})",
                history=tuple(history),
            )
        jac = yield from _fd_jacobian(z, problem)
        try:
            step = np.linalg.solve(jac, residual)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(jac))
            raise SingularJacobianError(
                f"singular Jacobian at iteration {iterations} "
                f"(condition estimate {cond:.3e})",
                condition_estimate=cond,
            ) from exc
        for halvings in range(DEFAULT_MAX_HALVINGS + 1):
            candidate = z - 0.5**halvings * step
            (cand_res,) = yield "residual", problem, [candidate]
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm < norm:
                break
        else:
            raise ConvergenceError(
                f"Newton made no progress after {DEFAULT_MAX_HALVINGS} halvings "
                f"(residual {norm:.3e})",
                history=tuple(history),
            )
        z, residual, norm = candidate, cand_res, cand_norm
        history.append(norm)

    value, gain = unpack_solution(z, problem.n, problem.m)
    value = symmetrize(value)
    _check_stabilizing(value, problem.q, "Newton solve")
    return DesignSolution(
        value=value,
        gain=gain,
        method="newton",
        iterations=len(history) - 1,
        residual=norm,
        deltas=tuple(history),
    )


def newton_solve(
    problem: DesignProblem,
    z0: np.ndarray | None = None,
    options: SolverOptions = SolverOptions(),
) -> DesignSolution:
    """Damped Newton iteration on the stacked residual, under ``options``' Newton settings.

    When ``z0`` is omitted this is :func:`solve` under the ``newton`` route:
    Newton starts at the zero-sensitivity solution of the fixed-point route
    (run with ``options``' fixed-point settings), the initialization with a
    convergence guarantee near theta = 0. Steps are halved (at most
    ``DEFAULT_MAX_HALVINGS`` times) whenever the residual norm fails to
    decrease. From ``z0`` this is :func:`_newton_steps` run alone.
    ``options.method`` and ``options.continuation`` are not read.
    """
    if z0 is None:
        return solve(problem, dataclasses.replace(options, method="newton"))
    z0 = np.array(z0, dtype=float).reshape(-1)
    solution = _drive(problem, _newton_steps(problem, z0, options))
    return _check_mean_square(problem.bank, solution, "Newton solve")


def _theta_steps(problem: DesignProblem, options: SolverOptions) -> tuple[float, ...]:
    """The theta grid a Newton route runs through to ``problem.theta``."""
    target = problem.theta
    if options.method == "newton":
        return (target,)
    steps = options.continuation
    if steps is None:
        return (target / 2.0, target) if target != 0.0 else (0.0,)
    _check_grid_end(steps, target)
    return steps


def _check_grid_end(steps: tuple[float, ...], theta: float) -> None:
    """Reject a continuation grid that does not end at the design's ``theta``."""
    if steps[-1] != theta:
        raise ConfigurationError(f"continuation grid must end at theta={theta}, got {steps[-1]}")


def solve(problem: DesignProblem, options: SolverOptions = SolverOptions()) -> DesignSolution:
    """Solve ``problem`` by the route ``options.method``, under ``options``' stopping rules.

    The options pass through whole: the fixed-point route is
    :func:`fixed_point_solve` on them. Both Newton routes solve at theta = 0
    with the fixed-point route first and then run Newton through a grid of
    theta values, warm-starting each run at the previous solution.
    ``newton`` uses the one-point grid (theta,); ``newton-continuation``
    uses ``options.continuation`` (default: half the target, then the
    target). Only the fixed-point route records a trace, under
    ``options.trace``, with each row's residual taken after the solve (see
    :func:`fixed_point_solve`). A Newton route is :func:`solve_all` on one
    problem.
    """
    if options.method == "fixed-point":
        return fixed_point_solve(problem, options)
    (result,) = solve_all([problem], options)
    if isinstance(result, NumericalError):
        raise result
    return result


def _newton_solves(problems, options: SolverOptions):
    """The lockstep's (problem, width, steps) for each run of the Newton routes.

    A run is the (problem, theta grid) of each of the consecutive problems
    on one bank and cost matrices, a ``groupby`` group: banks compare by
    identity, cost matrices by their entries. Each run is read whole, which
    reads the problem after it too, before its solve is created, so no run
    grows once its solve exists. The label, the run's index, names its start
    in the DEBUG lines.
    """
    runs = itertools.groupby(problems, key=lambda p: (p.bank, p.q.tolist(), p.r.tolist()))
    for label, (_, group) in enumerate(runs):
        run = tuple((problem, _theta_steps(problem, options)) for problem in group)
        head = run[0][0]
        width = 2 * (head.n * (head.n + 1) // 2 + head.m * head.n)
        yield head, width, _newton_run(run, options, label)


def _newton_run(run: tuple, options: SolverOptions, label: int):
    """A Newton route on each problem of ``run`` from one theta = 0 start, as a generator.

    Each problem runs Newton through its theta grid, each step from the
    solution of the one before, and its last solution alone meets the
    mean-square postcondition. Returns each problem's solution or error; a
    start that fails is the error of every problem of the run.
    """
    try:
        start = yield from _fixed_point_steps(run[0][0].with_theta(0.0), options, label)
    except NumericalError as exc:
        return [exc] * len(run)
    results = []
    for problem, grid in run:
        z = pack_solution(start.value, start.gain)
        iterations = 0
        try:
            for theta in grid:
                solution = yield from _newton_steps(problem.with_theta(theta), z, options)
                z = pack_solution(solution.value, solution.gain)
                iterations += solution.iterations
            solution = _check_mean_square(problem.bank, solution, "Newton solve")
        except NumericalError as exc:
            results.append(exc)
            continue
        results.append(dataclasses.replace(solution, method=options.method, iterations=iterations))
    return results


def solve_all(problems, options: SolverOptions = SolverOptions()) -> list:
    """:func:`solve` on each problem: its solution or the NumericalError it raised.

    Every problem is solved with ``options``. Results are in input order,
    each the same bits as the problem's own solve, and every route runs in
    lockstep. Under a Newton route each run of consecutive problems on the
    same bank and cost matrices (a sweep's points) is one solve
    (:func:`_newton_run`): one theta = 0 fixed-point start, then Newton on
    each problem in turn. ``problems`` may be a generator, read as problems
    join. No solve records a trace: ``options.trace`` is not read.
    """
    options = dataclasses.replace(options, trace=False)
    if options.method == "fixed-point":
        steps = ((p, 1, _fixed_point_route(p, options, k)) for k, p in enumerate(problems))
        return _lockstep(steps)
    return [result for run in _lockstep(_newton_solves(problems, options)) for result in run]
