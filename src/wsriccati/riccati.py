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
& Boyd, SIAM J. Optim. 2020); otherwise the history is cleared and the paper's plain step is taken. The
Newton route solves the stacked residual

    h(z) = [ vech(E_w[(A-BL)^T P (A-BL)] + L^T R L + Q - P) ]
           [ vec(E_w[B^T P B + R] L - E_w[B^T P A])          ]

for z = [vech(P); vec(L)], warm-started at the zero-sensitivity solution.
Every route ends with the stabilizing-root postcondition P > 0, P - Q >= 0
and raises :class:`NumericalError` when it fails.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .ensemble import SampleBank, _closed_loop_operator, quadratic_expect
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainViolationError,
    NumericalError,
    SingularJacobianError,
)
from .matops import symmetrize, unvech, vech
from .weights import WeightSpec, _unit_weights, weight_vector

__all__ = [
    "DEFAULT_FP_TOL",
    "DEFAULT_FP_MAX_ITERS",
    "DEFAULT_RESIDUAL_TOL",
    "DEFAULT_NEWTON_TOL",
    "DEFAULT_NEWTON_MAX_ITERS",
    "DesignProblem",
    "DesignSolution",
    "gain_map",
    "value_map",
    "fixed_point_solve",
    "pack_solution",
    "unpack_solution",
    "implicit_residual",
    "residual_jacobian",
    "newton_solve",
    "solve",
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


@dataclass(frozen=True)
class DesignProblem:
    """A bank, positive definite cost matrices, and a weight specification."""

    bank: SampleBank
    q: np.ndarray
    r: np.ndarray
    weights: WeightSpec

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


def _weights_at(problem: DesignProblem, value, gain, theta=None) -> np.ndarray | None:
    """Weights at the policy, or None where they are exactly one (RN, theta = 0)."""
    if theta is None:
        theta = problem.theta
    if _unit_weights(problem.weights, theta):
        return None
    return weight_vector(
        problem.bank, problem.weights, theta, gain, value, problem.q, problem.r
    )


def _zpz(bank: SampleBank, w: np.ndarray | None, value: np.ndarray) -> np.ndarray:
    """E_w[Z^T P Z] with Z = [A B], from the bank's moment (w None: unweighted)."""
    zpz = quadratic_expect(bank.moment(w), value)
    return 0.5 * (zpz + zpz.T)


def _expectations(bank: SampleBank, w: np.ndarray | None, value: np.ndarray):
    """Weighted means E_w[A^T P A], E_w[A^T P B], E_w[B^T P B]: blocks of E_w[Z^T P Z]."""
    n = bank.n
    zpz = _zpz(bank, w, value)
    return zpz[:n, :n], zpz[:n, n:], zpz[n:, n:]


def _gain_from(ebpb_r: np.ndarray, eapb: np.ndarray, r: np.ndarray) -> np.ndarray:
    floor = DOMAIN_EIG_FLOOR * np.linalg.norm(r, 2)
    smallest = float(np.linalg.eigvalsh(ebpb_r).min())
    if smallest <= floor:
        raise DomainViolationError(
            f"weighted input-cost matrix is not positive definite "
            f"(smallest eigenvalue {smallest:.3e})",
            smallest_eigenvalue=smallest,
        )
    return np.linalg.solve(ebpb_r, eapb.T)


def _maps(problem: DesignProblem, value, gain, theta=None):
    w = _weights_at(problem, value, gain, theta)
    eapa, eapb, ebpb = _expectations(problem.bank, w, value)
    new_gain = _gain_from(ebpb + problem.r, eapb, problem.r)
    new_value = symmetrize(eapa + problem.q - eapb @ new_gain, tol=1e-6)
    return new_value, new_gain


def gain_map(value, gain, problem: DesignProblem, theta=None) -> np.ndarray:
    """One application of the gain map G at the given policy."""
    value = symmetrize(value, "value matrix")
    gain = np.asarray(gain, dtype=float)
    return _maps(problem, value, gain, theta)[1]


def value_map(value, gain, problem: DesignProblem, theta=None) -> np.ndarray:
    """One application of the value map F at the given policy."""
    value = symmetrize(value, "value matrix")
    gain = np.asarray(gain, dtype=float)
    return _maps(problem, value, gain, theta)[0]


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


def _map_step(problem: DesignProblem, value, gain):
    """Map image (F, G) of (P, L) and the fixed-point residual ||F-P||_F + ||G-L||_F."""
    new_value, new_gain = _maps(problem, value, gain)
    delta = float(np.linalg.norm(new_value - value) + np.linalg.norm(new_gain - gain))
    return new_value, new_gain, delta


def _anderson_step(problem: DesignProblem, points, images, best: float):
    """Safeguarded type-II Anderson candidate, or None when it is rejected.

    ``points`` are the packed recent accepted iterates z_j and ``images`` their
    map images g_j. The candidate g_k - dG gamma, with gamma minimizing
    ||f_k - dF gamma|| over the differences of the residuals f_j = g_j - z_j
    (Walker & Ni 2011), is rejected when P - Q has a negative eigenvalue,
    when evaluating the maps at it fails (for instance a weighted input-cost
    matrix that is not positive definite), or when its fixed-point residual
    is not below the smallest residual of any accepted iterate.
    """
    z = np.stack(points, axis=1)
    g = np.stack(images, axis=1)
    d_g = np.diff(g, axis=1)
    d_f = np.diff(g - z, axis=1)
    gamma = np.linalg.lstsq(d_f, g[:, -1] - z[:, -1], rcond=None)[0]
    value, gain = unpack_solution(g[:, -1] - d_g @ gamma, problem.n, problem.m)
    if np.linalg.eigvalsh(value - problem.q).min() < 0.0:
        return None
    try:
        new_value, new_gain, delta = _map_step(problem, value, gain)
    except NumericalError:
        return None
    if not delta < best:
        return None
    return value, gain, new_value, new_gain, delta


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
    """
    n, m = problem.n, problem.m
    value = np.zeros((n, n)) if value0 is None else symmetrize(value0, "value0")
    gain = np.zeros((m, n)) if gain0 is None else np.asarray(gain0, dtype=float)
    if gain.shape != (m, n):
        raise ConfigurationError(f"gain0 has shape {gain.shape}, expected {(m, n)}")
    if np.linalg.eigvalsh(value).min() < -1e-10:
        raise ConfigurationError("value0 must be positive semidefinite")

    trace: list[tuple] | None = [] if record_trace else None

    def record(delta: float) -> None:
        if trace is not None:
            res = float(
                np.linalg.norm(implicit_residual(pack_solution(value, gain), problem))
            )
            trace.append((len(trace), value.copy(), gain.copy(), delta, res))

    record(float("nan"))
    new_value, new_gain, delta = _map_step(problem, value, gain)
    deltas = [delta]
    best = delta
    points: list[np.ndarray] = []
    images: list[np.ndarray] = []
    while not delta < tol:
        if len(deltas) >= max_iters:
            raise ConvergenceError(
                f"fixed-point iteration did not converge in {max_iters} iterations "
                f"(last delta {delta:.3e})",
                history=tuple(deltas),
            )
        points.append(pack_solution(value, gain))
        images.append(pack_solution(new_value, new_gain))
        del points[: -ANDERSON_MEMORY - 1], images[: -ANDERSON_MEMORY - 1]
        step = None
        if len(points) > 1:
            step = _anderson_step(problem, points, images, best)
            if step is None:
                points.clear()
                images.clear()
        if step is None:
            step = (new_value, new_gain) + _map_step(problem, new_value, new_gain)
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
    """Stacked residual h(z) whose root is the design solution."""
    n, m = problem.n, problem.m
    value, gain = unpack_solution(z, n, m)
    zpz = _zpz(problem.bank, _weights_at(problem, value, gain, theta), value)
    k_mat = np.vstack([np.eye(n), -gain])
    empm = k_mat.T @ zpz @ k_mat  # E_w[(A-BL)^T P (A-BL)]
    empm = 0.5 * (empm + empm.T)
    eapb, ebpb = zpz[:n, n:], zpz[n:, n:]
    f_part = vech(empm + gain.T @ problem.r @ gain + problem.q - value)
    g_mat = (ebpb + problem.r) @ gain - eapb.T
    g_part = g_mat.reshape(-1, order="F")
    return np.concatenate([f_part, g_part])


def _fd_jacobian(z: np.ndarray, problem: DesignProblem, theta) -> np.ndarray:
    dim = z.size
    jac = np.empty((dim, dim))
    step_base = float(np.finfo(float).eps) ** (1.0 / 3.0)
    for j in range(dim):
        h = step_base * max(1.0, abs(float(z[j])))
        zp = z.copy()
        zp[j] += h
        zm = z.copy()
        zm[j] -= h
        jac[:, j] = (
            implicit_residual(zp, problem, theta)
            - implicit_residual(zm, problem, theta)
        ) / (2.0 * h)
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
    _, eapb, ebpb = _expectations(bank, None, value)
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


def residual_jacobian(
    z, problem: DesignProblem, theta=None, mode: str = "finite-diff"
) -> np.ndarray:
    """Jacobian of the residual with respect to the solution vector.

    ``finite-diff`` uses central differences with per-coordinate steps
    eps^(1/3) * max(1, |z_j|). ``analytic-theta0`` assembles the closed-form
    blocks that hold at zero sensitivity and rejects any other theta.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    if theta is None:
        theta = problem.theta
    if mode == "finite-diff":
        return _fd_jacobian(z, problem, theta)
    if mode == "analytic-theta0":
        if theta != 0.0:
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
    max_halvings: int = DEFAULT_MAX_HALVINGS,
) -> DesignSolution:
    """Damped Newton iteration on the stacked residual.

    When ``z0`` is omitted the zero-sensitivity solution is computed with
    the fixed-point route and used as the start, which is the initialization
    with a convergence guarantee near theta = 0. Steps are halved (at most
    ``max_halvings`` times) whenever the residual norm fails to decrease.
    """
    if theta is None:
        theta = problem.theta
    if z0 is None:
        base = fixed_point_solve(problem.with_theta(0.0))
        z = pack_solution(base.value, base.gain)
    else:
        z = np.asarray(z0, dtype=float).reshape(-1).copy()

    residual = implicit_residual(z, problem, theta)
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
        jac = residual_jacobian(z, problem, theta)
        try:
            step = np.linalg.solve(jac, residual)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at iteration {iterations} "
                f"(condition estimate {np.linalg.cond(jac):.3e})",
                condition_estimate=float(np.linalg.cond(jac)),
            ) from exc
        scale = 1.0
        accepted = False
        for _ in range(max_halvings + 1):
            candidate = z - scale * step
            cand_res = implicit_residual(candidate, problem, theta)
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm < norm:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            raise ConvergenceError(
                f"Newton made no progress after {max_halvings} halvings "
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


def solve(
    problem: DesignProblem,
    method: str = "fixed-point",
    value0=None,
    gain0=None,
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
    then the target).
    """
    if method == "fixed-point":
        return fixed_point_solve(
            problem,
            value0=value0,
            gain0=gain0,
            tol=fp_tol,
            max_iters=fp_max_iters,
            residual_tol=residual_tol,
            record_trace=record_trace,
        )
    target = problem.theta
    if method == "newton":
        steps = (target,)
    elif method == "newton-continuation":
        if continuation is None:
            steps = (target / 2.0, target) if target != 0.0 else (0.0,)
        else:
            steps = tuple(float(t) for t in continuation)
            if not steps:
                raise ConfigurationError("continuation grid is empty")
            if steps[-1] != target:
                raise ConfigurationError(
                    f"continuation grid must end at theta={target}, got {steps[-1]}"
                )
    else:
        raise ConfigurationError(f"unknown solve method {method!r}")
    base = fixed_point_solve(
        problem.with_theta(0.0),
        value0=value0,
        gain0=gain0,
        tol=fp_tol,
        max_iters=fp_max_iters,
        residual_tol=residual_tol,
    )
    z = pack_solution(base.value, base.gain)
    total_iterations = 0
    for theta_step in steps:
        solution = newton_solve(
            problem,
            theta=theta_step,
            z0=z,
            tol=newton_tol,
            max_iters=newton_max_iters,
        )
        z = pack_solution(solution.value, solution.gain)
        total_iterations += solution.iterations
    return dataclasses.replace(solution, method=method, iterations=total_iterations)
