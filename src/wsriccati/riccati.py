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
and raises :class:`NumericalError` when it fails.

Fixed-point solves run in lockstep. Each solve is a generator
(:func:`_fixed_point_steps`) that yields every point at which it needs the
maps; :func:`_lockstep` gathers the one point each solve in flight asks for
and evaluates them (:func:`_evaluate`), one stacked pass for each group of
problems that share n, m, bank size, weight family, alpha and beta, then
hands each solve its result or the error it raised. Each check of a map
evaluation (a non-finite cost, an RSL overflow, weights that cannot be
normalized, a weighted input cost that is not positive definite, a value
map that is not finite or not symmetric) is one test on the whole stack
that raises the first flagged problem's own :class:`NumericalError`. The
checks are all or nothing: if one problem of a group fails, each problem of
the group is evaluated again alone and gets its own result or error.
:func:`fixed_point_solve` is the lockstep of one problem, and a sweep or a
robustness study puts several in flight (:func:`fixed_point_solve_all`), so
numpy's per-call overhead is paid once per round instead of once per
problem. Each result is the same bits as the problem's own solve, because
every stacked step is one whose result for an item does not depend on the
others, as checked on an x86 VM (numpy 2.4, OpenBLAS):

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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import SampleBank, _closed_loop_operator, quadratic_expect
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainViolationError,
    NonFiniteError,
    NumericalError,
    SingularJacobianError,
)
from .matops import _pair_index, _stack, symmetrize, unvech, vech
from .weights import WeightSpec, _unit_weights, _weigh_all

__all__ = [
    "DEFAULT_FP_TOL",
    "DEFAULT_FP_MAX_ITERS",
    "DEFAULT_RESIDUAL_TOL",
    "DEFAULT_NEWTON_TOL",
    "DEFAULT_NEWTON_MAX_ITERS",
    "DesignProblem",
    "DesignSolution",
    "value_map",
    "fixed_point_solve",
    "fixed_point_solve_all",
    "pack_solution",
    "unpack_solution",
    "implicit_residual",
    "residual_jacobian",
    "newton_solve",
    "solve",
    "solve_all",
]

DEFAULT_FP_TOL = 1e-10
DEFAULT_FP_MAX_ITERS = 10_000
DEFAULT_RESIDUAL_TOL = 1e-8
DEFAULT_NEWTON_TOL = 1e-9
DEFAULT_NEWTON_MAX_ITERS = 100
DEFAULT_MAX_HALVINGS = 30

#: Relative eigenvalue floor below which the weighted input-cost matrix is
#: treated as a domain violation instead of being regularized.
DOMAIN_EIG_FLOOR = 1e-12

#: Number of residual differences mixed by an Anderson step (Walker & Ni's m).
ANDERSON_MEMORY = 5

#: Bytes that fixed-point solves run in lockstep may hold beyond one solve's
#: (see :func:`_footprint`): about four problems in flight, both for the points
#: of a sweep on one 10k bank and for redesigns on their own 2k banks.
LOCKSTEP_BYTES = 5 * 2**19

#: Bytes per draw of the temporaries of one map evaluation in a batch.
_WORK_BYTES_PER_DRAW = 64



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
    """

    value: np.ndarray
    gain: np.ndarray
    method: str
    iterations: int
    residual: float
    deltas: tuple[float, ...]
    trace: tuple | None = None


def _zpz_all(problems, values: np.ndarray, gains: np.ndarray, qs: np.ndarray, rs: np.ndarray):
    """E_w[Z^T P Z], Z = [A B], of every problem at its policy, stacked.

    Problems share n, m and the bank size; ``qs`` and ``rs`` stack their
    cost matrices. Each E_w[Z^T P Z] is read off its bank's moment at the
    weights of its policy (the unweighted moment for RN and theta = 0, whose
    weights are exactly one); the weighted problems share weight family,
    alpha and beta. A weight check that fails raises (see
    :func:`~wsriccati.weights._weigh_all`).
    """
    moments = [p.bank.moment() for p in problems]
    weighted = [i for i, p in enumerate(problems) if not _unit_weights(p.weights, p.theta)]
    if weighted:
        sub, stacks = problems, (gains, values, qs, rs)
        if len(weighted) < len(problems):
            sub = [problems[i] for i in weighted]
            stacks = tuple(x[weighted] for x in stacks)
        weights = _weigh_all(
            [p.bank for p in sub], [p.weights for p in sub], [p.theta for p in sub], *stacks
        )[2]
        for i, problem, w in zip(weighted, sub, weights):
            moments[i] = problem.bank.moment(w)
    zpz = quadratic_expect(_stack(moments), values)
    return 0.5 * (zpz + zpz.transpose(0, 2, 1))


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


def _stacked_maps(problems, values, gains):
    """The stacked maps (F, G) of problems that share n, m, bank size and weights.

    The problems share weight family, alpha and beta. One straight-line pass
    of stacked calls (see the module docstring for which calls keep per-item
    bits). Each check is one test on the whole stack that raises the first
    flagged problem's own :class:`NumericalError`, so on a batch of one the
    error is the problem's own.
    """
    values = _stack([np.asarray(v, dtype=float) for v in values])
    n = values.shape[1]
    gains = _stack([np.asarray(g, dtype=float) for g in gains])
    qs = _stack([p.q for p in problems])
    rs = _stack([p.r for p in problems])
    zpz = _zpz_all(problems, values, gains, qs, rs)
    eapa, eapb, ebpb = zpz[:, :n, :n], zpz[:, :n, n:], zpz[:, n:, n:]
    ebpb_r = ebpb + rs
    _check_input_cost(ebpb_r, np.array([p._domain_floor for p in problems]))
    new_gain = np.linalg.solve(ebpb_r, eapb.transpose(0, 2, 1))
    return _symmetrize_all(eapa + qs - eapb @ new_gain), new_gain


def _evaluate(problems, values, gains) -> list:
    """The maps (F, G) of every problem at its (P, L), a stacked pass per group.

    Entry i is (F, G) for ``problems[i]`` at (``values[i]``, ``gains[i]``),
    the same bits as :func:`_maps` gives for it alone, or the
    :class:`NumericalError` that :func:`_maps` raises for it. Problems are
    grouped by n, m, bank size, weight family, alpha and beta; a group of
    several takes one pass of :func:`_stacked_maps`, and a group of one
    calls :func:`_maps`. The checks are all or nothing: when the pass of a
    group of several problems raises, each of them is evaluated again alone
    and gets its own result or error.
    """
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(problems):
        key = (p.n, p.m, p.bank.size, p.weights.family, p.weights.alpha, p.weights.beta)
        groups.setdefault(key, []).append(i)
    out: list = [None] * len(problems)
    for idx in groups.values():
        batch = [(problems[i], values[i], gains[i]) for i in idx]
        try:
            if len(batch) == 1:
                results = [_maps(*batch[0])]
            else:
                new_value, new_gain = _stacked_maps(*zip(*batch))
                results = zip(new_value, new_gain)
        except NumericalError as exc:
            results = [exc] if len(batch) == 1 else [
                _evaluate([p], [v], [g])[0] for p, v, g in batch
            ]
        for i, result in zip(idx, results):
            out[i] = result
    return out


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


def _maps(problem: DesignProblem, value, gain):
    """(F, G) at (P, L): :func:`_stacked_maps` on a batch of one."""
    new_value, new_gain = _stacked_maps([problem], [value], [gain])
    return new_value[0], new_gain[0]


def value_map(value, gain, problem: DesignProblem) -> np.ndarray:
    """One application of the value map F at the given policy."""
    value = symmetrize(value, "value matrix")
    gain = np.asarray(gain, dtype=float)
    return _maps(problem, value, gain)[0]


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


def _map_step(value, gain):
    """Map image (F, G) of (P, L) and the fixed-point residual ||F-P||_F + ||G-L||_F.

    A generator step of a solve: it yields (P, L) to the lockstep, which sends
    back (F, G) or throws in the :class:`NumericalError` evaluating them raised.
    """
    new_value, new_gain = yield value, gain
    return new_value, new_gain, _frobenius(new_value - value) + _frobenius(new_gain - gain)


def _frobenius(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a real array, by its own ravel, dot and sqrt."""
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _anderson_step(problem: DesignProblem, points, images, best: float):
    """Safeguarded type-II Anderson candidate, or None when it is rejected.

    ``points`` holds the packed recent accepted iterates z_j as columns,
    oldest first, and ``images`` their map images g_j. The candidate g_k - dG
    gamma, with gamma minimizing ||f_k - dF gamma|| over the differences of
    the residuals f_j = g_j - z_j (Walker & Ni 2011), is rejected when P - Q
    has a negative eigenvalue, when evaluating the maps at it fails (for
    instance a weighted input-cost matrix that is not positive definite), or
    when its fixed-point residual is not below the smallest residual of any
    accepted iterate.
    """
    d_g = images[:, 1:] - images[:, :-1]
    residuals = images - points
    d_f = residuals[:, 1:] - residuals[:, :-1]
    gamma = np.linalg.lstsq(d_f, images[:, -1] - points[:, -1], rcond=None)[0]
    value, gain = unpack_solution(images[:, -1] - d_g @ gamma, problem.n, problem.m)
    if np.linalg.eigvalsh(value - problem.q).min() < 0.0:
        return None
    try:
        new_value, new_gain, delta = yield from _map_step(value, gain)
    except NumericalError:
        return None
    if not delta < best:
        return None
    return value, gain, new_value, new_gain, delta


def _debug_logger():
    """The solver's logger when it logs DEBUG, else None.

    ``logging`` is imported here, not with the module, so that importing the
    package does not load it; the command line has it loaded already.
    """
    import logging

    log = logging.getLogger(__name__)
    return log if log.isEnabledFor(logging.DEBUG) else None


def _fixed_point_steps(
    problem: DesignProblem,
    value0,
    gain0,
    tol: float,
    max_iters: int,
    residual_tol: float,
    record_trace: bool,
    label: int,
):
    """The iteration of :func:`fixed_point_solve` as a generator for the lockstep.

    It yields each (P, L) at which it needs the maps, is sent their image or
    thrown the error evaluating them raised, and returns the
    :class:`DesignSolution`. ``label`` names the problem in the DEBUG lines.
    """
    n, m = problem.n, problem.m
    value = np.zeros((n, n)) if value0 is None else symmetrize(value0, "value0")
    gain = np.zeros((m, n)) if gain0 is None else np.asarray(gain0, dtype=float)
    if gain.shape != (m, n):
        raise ConfigurationError(f"gain0 has shape {gain.shape}, expected {(m, n)}")
    if np.linalg.eigvalsh(value).min() < -1e-10:
        raise ConfigurationError("value0 must be positive semidefinite")
    log = _debug_logger()

    trace: list[tuple] | None = [] if record_trace else None

    def record(delta: float) -> None:
        if trace is not None:
            res = float(
                np.linalg.norm(implicit_residual(pack_solution(value, gain), problem))
            )
            trace.append((len(trace), value.copy(), gain.copy(), delta, res))

    record(float("nan"))
    new_value, new_gain, delta = yield from _map_step(value, gain)
    deltas = [delta]
    best = delta
    accelerated = False
    # The last ANDERSON_MEMORY + 1 accepted iterates and their images, packed
    # as columns [vech(P); vec(L)], oldest first; ``kept`` columns are filled.
    head = n * (n + 1) // 2
    rows, cols, _ = _pair_index(n)
    points = np.empty((head + m * n, ANDERSON_MEMORY + 1))
    images = np.empty_like(points)
    kept = 0
    while True:
        if log is not None:
            log.debug(
                "fixed-point problem %d (theta=%r): iteration %d, delta %.3e, %s step",
                label, problem.theta, len(deltas), delta,
                "anderson" if accelerated else "plain",
            )
        if delta < tol:
            break
        if len(deltas) >= max_iters:
            raise ConvergenceError(
                f"fixed-point iteration did not converge in {max_iters} iterations "
                f"(last delta {delta:.3e})",
                history=tuple(deltas),
            )
        if kept == ANDERSON_MEMORY + 1:
            points[:, :-1] = points[:, 1:]
            images[:, :-1] = images[:, 1:]
            kept -= 1
        points[:head, kept] = value[cols, rows]
        points[head:, kept] = gain.reshape(-1, order="F")
        images[:head, kept] = new_value[cols, rows]
        images[head:, kept] = new_gain.reshape(-1, order="F")
        kept += 1
        step = None
        if kept > 1:
            step = yield from _anderson_step(
                problem, points[:, :kept], images[:, :kept], best
            )
            if step is None:
                kept = 0
        accelerated = step is not None
        if step is None:
            step = (new_value, new_gain) + (yield from _map_step(new_value, new_gain))
        value, gain, new_value, new_gain, step_delta = step
        record(delta)
        delta = step_delta
        deltas.append(delta)
        best = min(best, delta)

    value, gain = new_value, new_gain
    record(delta)
    residual = float(
        np.linalg.norm(implicit_residual(pack_solution(value, gain), problem))
    )
    if residual > residual_tol:
        raise ConvergenceError(
            f"fixed point stalled: residual {residual:.3e} exceeds "
            f"{residual_tol:.1e}",
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
        trace=tuple(trace) if record_trace else None,
    )


def _footprint(problem: DesignProblem, flight) -> int:
    """Bytes that solving ``problem`` next to the problems in ``flight`` adds.

    Its map evaluations need ``_WORK_BYTES_PER_DRAW`` per draw of its bank;
    a bank that no problem in flight shares adds its draws and moment
    features, unless nothing is in flight (one problem at a time holds one
    bank anyway).
    """
    bank = problem.bank
    cost = _WORK_BYTES_PER_DRAW * bank.size
    if flight and all(item[1].bank is not bank for item in flight):
        cost += bank.a.nbytes + bank.b.nbytes + bank.phi.nbytes
    return cost


def _lockstep(solves) -> list:
    """Run fixed-point solves side by side, one batched map evaluation a round.

    ``solves`` yields (problem, steps) pairs, ``steps`` a
    :func:`_fixed_point_steps` generator; a pair is taken only when its
    problem joins. Each round evaluates the maps at the one point every
    solve in flight asks for, and sends each its result. A problem joins
    while the bytes of those in flight and its own stay within
    ``LOCKSTEP_BYTES`` (see :func:`_footprint`), and when a problem finishes
    the next one joins. Returns each solve's :class:`DesignSolution`, or the
    :class:`NumericalError` it raised, in input order; any other exception
    propagates.
    """
    results: list = []
    flight: list[list] = []  # [index, problem, steps, request, footprint]
    held = 0
    pending = next(solves, None)
    # Every non-finite value hidden here is turned into a typed error by the
    # checks of the map evaluation.
    with np.errstate(over="ignore", invalid="ignore"):
        while flight or pending is not None:
            while pending is not None:
                problem, steps = pending
                cost = _footprint(problem, flight)
                if flight and held + cost > LOCKSTEP_BYTES:
                    break
                results.append(None)
                try:
                    flight.append([len(results) - 1, problem, steps, next(steps), cost])
                    held += cost
                except NumericalError as exc:
                    results[-1] = exc
                pending = next(solves, None)
            if not flight:
                continue
            values, gains = zip(*(item[3] for item in flight))
            outcomes = _evaluate([item[1] for item in flight], values, gains)
            still = []
            for item, outcome in zip(flight, outcomes):
                steps = item[2]
                try:
                    if isinstance(outcome, NumericalError):
                        item[3] = steps.throw(outcome)
                    else:
                        item[3] = steps.send(outcome)
                    still.append(item)
                    continue
                except StopIteration as stop:
                    results[item[0]] = stop.value
                except NumericalError as exc:
                    results[item[0]] = exc
                held -= item[4]
            flight = still
    return results


def fixed_point_solve(
    problem: DesignProblem,
    value0=None,
    gain0=None,
    tol: float = DEFAULT_FP_TOL,
    max_iters: int = DEFAULT_FP_MAX_ITERS,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    record_trace: bool = False,
) -> DesignSolution:
    """Safeguarded Anderson-accelerated iteration of (P, L) <- (F(P, L), G(P, L)).

    Each iteration accepts one iterate x_k = (P_k, L_k) and records its
    fixed-point residual ||F(x_k) - P_k||_F + ||G(x_k) - L_k||_F in
    ``deltas``; on a plain step this is exactly the change P_{k+1} - P_k,
    L_{k+1} - L_k of the paper's iteration. The next iterate is the type-II
    Anderson combination of the last ``ANDERSON_MEMORY + 1`` iterates and
    their map images (see :func:`_anderson_step`); when that candidate is
    rejected the history is cleared and the plain step x_{k+1} = (F, G)(x_k)
    is taken instead. An accepted candidate costs one evaluation of the maps,
    a rejected one up to two, so ``iterations`` counts accepted iterates, not
    map evaluations.

    Every accepted candidate has a smaller residual than all earlier accepted
    iterates and satisfies P - Q >= 0, so acceleration only ever shortens
    the path of the plain iteration towards the stabilizing root.

    Stops when the residual falls below ``tol`` and returns the map image of
    that iterate, then checks the stacked residual norm against
    ``residual_tol`` and the stabilizing-root postcondition P > 0, P - Q >= 0.
    The start must be positive semidefinite; the default is (0, 0). With
    ``record_trace`` the trace holds the start, one row per accepted iterate
    and the returned pair, each with the residual of the iterate before it.
    This is the lockstep of :func:`fixed_point_solve_all` on one problem.
    """
    steps = _fixed_point_steps(
        problem, value0, gain0, tol, max_iters, residual_tol, record_trace, 0
    )
    (result,) = _lockstep(iter([(problem, steps)]))
    if isinstance(result, NumericalError):
        raise result
    return result


def fixed_point_solve_all(
    problems,
    *,
    tol: float = DEFAULT_FP_TOL,
    max_iters: int = DEFAULT_FP_MAX_ITERS,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list:
    """:func:`fixed_point_solve` from (0, 0) on each problem, solved in lockstep.

    Each problem runs the control flow of :func:`fixed_point_solve`
    unchanged, but the problems in flight share one stacked map evaluation
    per round (see :func:`_lockstep`), so each result is the same bits as its
    own solve. ``problems`` may be any iterable; it is read only as problems
    join, so a generator can build each problem (and draw its bank) just in
    time. Returns, in input order, each :class:`DesignSolution` or the
    :class:`NumericalError` its solve raised.
    """
    return _lockstep(
        (problem, _fixed_point_steps(problem, None, None, tol, max_iters, residual_tol,
                                     False, k))
        for k, problem in enumerate(problems)
    )


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


def implicit_residual(z, problem: DesignProblem, theta=None) -> np.ndarray:
    """Stacked residual h(z) whose root is the design solution (at ``theta`` if given)."""
    if theta is not None:
        problem = problem.with_theta(theta)
    n, m = problem.n, problem.m
    value, gain = unpack_solution(z, n, m)
    zpz = _zpz_all([problem], value[None], gain[None], problem.q[None], problem.r[None])[0]
    k_mat = np.concatenate([np.eye(n), -gain])
    empm = k_mat.T @ zpz @ k_mat  # E_w[(A-BL)^T P (A-BL)]
    empm = 0.5 * (empm + empm.T)
    eapb, ebpb = zpz[:n, n:], zpz[n:, n:]
    f_part = vech(empm + gain.T @ problem.r @ gain + problem.q - value)
    g_mat = (ebpb + problem.r) @ gain - eapb.T
    g_part = g_mat.reshape(-1, order="F")
    return np.concatenate([f_part, g_part])


def _fd_jacobian(z: np.ndarray, problem: DesignProblem) -> np.ndarray:
    dim = z.size
    jac = np.empty((dim, dim))
    step_base = float(np.finfo(float).eps) ** (1.0 / 3.0)
    for j in range(dim):
        h = step_base * max(1.0, abs(float(z[j])))
        zp = z.copy()
        zp[j] += h
        zm = z.copy()
        zm[j] -= h
        diff = implicit_residual(zp, problem) - implicit_residual(zm, problem)
        jac[:, j] = diff / (2.0 * h)
    return jac


def _analytic_jacobian_theta0(z: np.ndarray, problem: DesignProblem) -> np.ndarray:
    # Valid only at theta = 0, where the weights are identically one and
    # contribute no derivative terms. In the direction S_k = unvech(e_k),
    # dF = vech(E[C^T S_k C]) - e_k and dG = -vec(E[B^T S_k C]), C = A - B L.
    n, m = problem.n, problem.m
    value, gain = unpack_solution(z, n, m)
    bank = problem.bank
    head = n * (n + 1) // 2
    operator, zsc = _closed_loop_operator(bank.moment(), gain)
    zpz = _zpz_all([problem], value[None], gain[None], problem.q[None], problem.r[None])[0]
    eapb, ebpb = zpz[:n, n:], zpz[n:, n:]
    ebpb_r = ebpb + problem.r
    s_mat = ebpb_r @ gain - eapb.T
    t_mat = gain.T @ ebpb_r - eapb

    df_dvalue = operator - np.eye(head)
    df_dgain = np.empty((head, m * n))
    col = 0
    for j in range(n):
        for i in range(m):
            unit = np.zeros((m, n))
            unit[i, j] = 1.0
            df_dgain[:, col] = vech(unit.T @ s_mat + t_mat @ unit)
            col += 1
    dg_dvalue = -zsc[:, n:, :].transpose(0, 2, 1).reshape(head, m * n).T
    dg_dgain = np.kron(np.eye(n), ebpb_r)

    top = np.hstack([df_dvalue, df_dgain])
    bottom = np.hstack([dg_dvalue, dg_dgain])
    return np.vstack([top, bottom])


def residual_jacobian(z, problem: DesignProblem, mode: str = "finite-diff") -> np.ndarray:
    """Jacobian of the residual with respect to the solution vector.

    ``finite-diff`` uses central differences with per-coordinate steps
    eps^(1/3) * max(1, |z_j|). ``analytic-theta0`` assembles the closed-form
    blocks that hold at zero sensitivity and rejects any other theta.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if mode == "finite-diff":
        return _fd_jacobian(z, problem)
    if mode == "analytic-theta0":
        if problem.theta != 0.0:
            raise ConfigurationError(
                "analytic-theta0 Jacobian is only valid at theta = 0"
            )
        return _analytic_jacobian_theta0(z, problem)
    raise ConfigurationError(f"unknown Jacobian mode {mode!r}")


def newton_solve(
    problem: DesignProblem,
    theta: float | None = None,
    z0: np.ndarray | None = None,
    tol: float = DEFAULT_NEWTON_TOL,
    max_iters: int = DEFAULT_NEWTON_MAX_ITERS,
) -> DesignSolution:
    """Damped Newton iteration on the stacked residual (at ``theta`` if given).

    When ``z0`` is omitted the zero-sensitivity solution is computed with
    the fixed-point route and used as the start, which is the initialization
    with a convergence guarantee near theta = 0. Steps are halved (at most
    ``DEFAULT_MAX_HALVINGS`` times) whenever the residual norm fails to
    decrease.
    """
    if theta is not None:
        problem = problem.with_theta(theta)
    if z0 is None:
        base = fixed_point_solve(problem.with_theta(0.0))
        z = pack_solution(base.value, base.gain)
    else:
        z = np.asarray(z0, dtype=float).reshape(-1).copy()

    residual = implicit_residual(z, problem)
    norm = float(np.linalg.norm(residual))
    history = [norm]
    iterations = 0
    while norm >= tol:
        if iterations >= max_iters:
            raise ConvergenceError(
                f"Newton did not reach tolerance in {max_iters} iterations "
                f"(residual {norm:.3e})",
                history=tuple(history),
            )
        jac = residual_jacobian(z, problem)
        try:
            step = np.linalg.solve(jac, residual)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(jac))
            raise SingularJacobianError(
                f"singular Jacobian at iteration {iterations} "
                f"(condition estimate {cond:.3e})",
                condition_estimate=cond,
            ) from exc
        scale = 1.0
        accepted = False
        for _ in range(DEFAULT_MAX_HALVINGS + 1):
            candidate = z - scale * step
            cand_res = implicit_residual(candidate, problem)
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm < norm:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            raise ConvergenceError(
                f"Newton made no progress after {DEFAULT_MAX_HALVINGS} halvings "
                f"(residual {norm:.3e})",
                history=tuple(history),
            )
        z, residual, norm = candidate, cand_res, cand_norm
        history.append(norm)
        iterations += 1

    value, gain = unpack_solution(z, problem.n, problem.m)
    value = symmetrize(value)
    _check_stabilizing(value, problem.q, "Newton solve")
    return DesignSolution(
        value=value,
        gain=gain,
        method="newton",
        iterations=iterations,
        residual=norm,
        deltas=tuple(history),
    )


def _theta_steps(problem: DesignProblem, method: str, continuation) -> tuple[float, ...]:
    """The theta grid a Newton route runs through to ``problem.theta``."""
    target = problem.theta
    if method == "newton":
        return (target,)
    if method != "newton-continuation":
        raise ConfigurationError(f"unknown solve method {method!r}")
    if continuation is None:
        return (target / 2.0, target) if target != 0.0 else (0.0,)
    steps = tuple(float(t) for t in continuation)
    if not steps:
        raise ConfigurationError("continuation grid is empty")
    if steps[-1] != target:
        raise ConfigurationError(
            f"continuation grid must end at theta={target}, got {steps[-1]}"
        )
    return steps


def solve(
    problem: DesignProblem,
    method: str = "fixed-point",
    fp_tol: float = DEFAULT_FP_TOL,
    fp_max_iters: int = DEFAULT_FP_MAX_ITERS,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    newton_tol: float = DEFAULT_NEWTON_TOL,
    newton_max_iters: int = DEFAULT_NEWTON_MAX_ITERS,
    continuation: tuple[float, ...] | None = None,
    record_trace: bool = False,
) -> DesignSolution:
    """Front-end dispatching to the configured solution route.

    Both Newton routes solve at theta = 0 with the fixed-point route first
    and then run Newton through a grid of theta values, warm-starting each
    run at the previous solution. ``newton`` uses the one-point grid (theta,);
    ``newton-continuation`` uses ``continuation`` (default: half the target,
    then the target). A Newton route is :func:`solve_all` on one problem.
    """
    if method == "fixed-point":
        return fixed_point_solve(
            problem,
            tol=fp_tol,
            max_iters=fp_max_iters,
            residual_tol=residual_tol,
            record_trace=record_trace,
        )
    (result,) = solve_all(
        [problem],
        method,
        fp_tol=fp_tol,
        fp_max_iters=fp_max_iters,
        residual_tol=residual_tol,
        newton_tol=newton_tol,
        newton_max_iters=newton_max_iters,
        continuation=continuation,
    )
    if isinstance(result, NumericalError):
        raise result
    return result


def solve_all(
    problems,
    method: str = "fixed-point",
    *,
    fp_tol: float = DEFAULT_FP_TOL,
    fp_max_iters: int = DEFAULT_FP_MAX_ITERS,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    newton_tol: float = DEFAULT_NEWTON_TOL,
    newton_max_iters: int = DEFAULT_NEWTON_MAX_ITERS,
    continuation: tuple[float, ...] | None = None,
) -> list:
    """:func:`solve` on each problem: its solution or the NumericalError it raised.

    Results are in input order. The fixed-point route solves the problems in
    lockstep (:func:`fixed_point_solve_all`), each to the same bits as alone.
    The Newton routes solve them one at a time, each after its theta grid
    is checked. Each run of consecutive problems on the same bank and cost
    matrices (a sweep's points) shares one theta = 0 fixed-point start, and
    a start that fails is the error of every problem of its run.
    ``problems`` may be a generator, read as problems are solved.
    """
    if method == "fixed-point":
        return fixed_point_solve_all(
            problems, tol=fp_tol, max_iters=fp_max_iters, residual_tol=residual_tol
        )
    results: list = []
    owner = None  # the problem whose theta = 0 solution ``start`` is
    for problem in problems:
        steps = _theta_steps(problem, method, continuation)
        if owner is None or not (
            problem.bank is owner.bank
            and np.array_equal(problem.q, owner.q)
            and np.array_equal(problem.r, owner.r)
        ):
            owner = problem
            try:
                start = fixed_point_solve(
                    problem.with_theta(0.0),
                    tol=fp_tol,
                    max_iters=fp_max_iters,
                    residual_tol=residual_tol,
                )
            except NumericalError as exc:
                start = exc
        if isinstance(start, NumericalError):
            results.append(start)
            continue
        z = pack_solution(start.value, start.gain)
        iterations = 0
        try:
            for theta in steps:
                solution = newton_solve(
                    problem, theta=theta, z0=z, tol=newton_tol, max_iters=newton_max_iters
                )
                z = pack_solution(solution.value, solution.gain)
                iterations += solution.iterations
        except NumericalError as exc:
            results.append(exc)
            continue
        results.append(dataclasses.replace(solution, method=method, iterations=iterations))
    return results
