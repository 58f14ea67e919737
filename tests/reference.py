"""Per-draw reference forms of the package's bank expectations.

The package reads every expectation over a sample bank off the bank's moment
matrix (see :class:`wsriccati.ensemble.SampleBank`). The functions here take
the same quantities one draw at a time and serve the tests as oracles. For
each, the package path it checks:

- :func:`expect`: the plain per-draw mean behind
  :func:`analytic_jacobian_theta0` (and, with :func:`weighted_expect`, the
  unit weights of ``weights.build_weighted_bank`` at theta = 0).
- :func:`analytic_jacobian_theta0`: the closed-form Jacobian of the
  residual at zero sensitivity, built from :func:`expect` alone, against
  which ``riccati.residual_jacobian`` (central differences on the lockstep
  engine) is checked at theta = 0.
- :func:`richardson_jacobian`: central differences of
  ``riccati.implicit_residual`` at two step sizes, one residual call at a
  time, extrapolated to cancel the leading error term; the reference for
  ``riccati.residual_jacobian`` at theta != 0.
- :func:`weighted_expect`: the weights ``weights.WeightedBank`` carries.
- :func:`predictive_cost`: ``weights.predictive_costs``, draw by draw.
- :func:`raw_weight`: :func:`_raw_from_costs`, the weight formula the
  solver's ``weights.weight_vector`` applies, called on one draw's cost.
- :func:`_raw_from_costs`: the package's stacked weight pass,
  ``weights._raw_into``, driven on a fresh ``weights._Workspace`` for a
  (rows, N) stack of costs, or for one row with a float theta as a stack
  of one row. It drives the package's path rather than re-deriving it, so
  the tests that hold the sigmoid window to the full expression test that
  path.
- :func:`normalize_weights`: ``weights._normalize_into`` written into a new
  array, one row or a (rows, N) stack.
- :func:`_maps`: (F, G) at one (P, L), ``riccati._stacked_maps`` on a
  stack of one, the maps ``riccati._evaluate`` gives each point. It looks
  ``_stacked_maps`` up on the module at each call, so a test that patches
  it there sees these calls too.
- :func:`gain_map`: the gain half of :func:`_maps`.
- :func:`closed_loop_kron_expect`: the Kronecker mean
  E_w[(A - B L) kron (A - B L)]; compressed by :func:`compress`, its
  transpose is the matrix ``ensemble._closed_loop_operator`` builds for
  ``stability.ms_check`` and ``stability.wms_check`` (De Koning, Automatica
  1982).
- :func:`kron` and :func:`compress`: the Kronecker product and its
  compression L_n X D_n onto vech coordinates, built from
  :func:`elimination_matrix` and :func:`duplication_matrix`, which also
  check ``matops.vech`` and ``matops.vec`` against each other.
- :func:`sequential_fixed_point_solve`: ``riccati.fixed_point_solve`` under
  a ``SolverOptions``' fixed-point settings, from (0, 0) as a plain loop,
  one problem and one :func:`_maps` call at a time; ``riccati.solve_all``
  under the fixed-point route must give the same bits for each problem it
  solves in lockstep.
- :func:`sequential_newton_solve`: the Newton routes of ``riccati.solve_all``
  as plain loops, one problem and one ``riccati.implicit_residual`` call at
  a time; ``riccati.solve_all`` must give the same bits for each problem it
  solves in lockstep.
- :func:`point_mass`: a distribution of one system, the ``point`` family
  of ``ensemble.build_distribution`` on every entry with zero stddevs, as a
  run configuration's ``system`` section gives it.
- :func:`mean_a` and :func:`mean_b`: E[A] and E[B] of a distribution, read
  off its column-major ``mean``.
- :func:`per_step_trials`: ``simulate.mc_cost_study`` as a per-step loop
  over a batch of trials. Its state update sums the products left to right,
  as the block kernel's product does on a block of two or more trials, so it
  gives the kernel's bits for every n there. On a block of one trial numpy
  sums the n products in the order of a contiguous dot product, which at
  n >= 3 can round differently.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from wsriccati import riccati
from wsriccati.ensemble import ParameterDistribution, SampleBank, build_distribution
from wsriccati.errors import (
    ConvergenceError,
    NonFiniteError,
    NumericalError,
    SingularJacobianError,
)
from wsriccati.matops import as_matrix, symmetrize
from wsriccati.riccati import (
    ANDERSON_MEMORY,
    DEFAULT_MAX_HALVINGS,
    DesignSolution,
    _check_mean_square,
    _check_stabilizing,
    _theta_steps,
    implicit_residual,
    pack_solution,
    unpack_solution,
)
from wsriccati.weights import WeightedBank, _normalize_into, _raw_into, _Workspace


def expect(bank: SampleBank, fn) -> np.ndarray:
    """Empirical mean of fn(A_i, B_i) over the bank.

    Uses numpy's pairwise mean, so the reduction order is fixed and the
    result is deterministic. A non-finite fn output aborts with the index of
    the offending sample.
    """
    return _evaluate(bank, fn).mean(axis=0)


def weighted_expect(wbank: WeightedBank, fn) -> np.ndarray:
    """Weighted empirical mean (1/N) sum_i w_i fn(A_i, B_i)."""
    values = _evaluate(wbank.bank, fn)
    shape = (wbank.size,) + (1,) * (values.ndim - 1)
    return (values * wbank.weights.reshape(shape)).mean(axis=0)


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


def analytic_jacobian_theta0(z, problem) -> np.ndarray:
    """Closed-form Jacobian of the residual h at theta = 0, draw by draw.

    At zero sensitivity every weight is one and contributes no derivative.
    With C = A - B L, the value directions S_k = unvech(e_k) give
    dF = vech(E[C' S_k C]) - e_k and dG = -vec(E[B' S_k C]); the gain
    directions E_ij give dF = vech(E_ij' S + S' E_ij), with
    S = (E[B' P B] + R) L - E[B' P A], and dG = vec((E[B' P B] + R) E_ij).
    Every mean is an :func:`expect`; vech, vec and S_k come from
    :func:`elimination_matrix` and :func:`duplication_matrix`.
    """
    if problem.theta != 0.0:
        raise ValueError(f"the closed form holds only at theta = 0, got {problem.theta}")
    n, m = problem.n, problem.m
    value, gain = unpack_solution(z, n, m)
    head = n * (n + 1) // 2
    elim = elimination_matrix(n)
    basis = duplication_matrix(n).T.reshape(head, n, n)  # basis[k] = unvech(e_k)

    def forms(a, b):
        closed = a - b @ gain
        return np.stack([np.hstack([closed, b]).T @ s @ closed for s in basis])

    zsc = expect(problem.bank, forms)  # E[C' S_k C] over E[B' S_k C], per k
    ebpb_r = expect(problem.bank, lambda a, b: b.T @ value @ b) + problem.r
    ebpa = expect(problem.bank, lambda a, b: b.T @ value @ a)
    s_mat = ebpb_r @ gain - ebpa

    def vec(x):
        return x.reshape(-1, order="F")

    units = np.eye(m * n).reshape(m * n, n, m).transpose(0, 2, 1)  # vec(units[j]) = e_j
    df_dvalue = np.stack([elim @ vec(x) for x in zsc[:, :n]], axis=1) - np.eye(head)
    df_dgain = np.stack([elim @ vec(u.T @ s_mat + s_mat.T @ u) for u in units], axis=1)
    dg_dvalue = -np.stack([vec(x) for x in zsc[:, n:]], axis=1)
    dg_dgain = np.stack([vec(ebpb_r @ u) for u in units], axis=1)
    return np.block([[df_dvalue, df_dgain], [dg_dvalue, dg_dgain]])


def richardson_jacobian(z, problem, h0) -> np.ndarray:
    """Jacobian of ``riccati.implicit_residual`` by extrapolated central differences.

    Column j is (4 D(h / 2) - D(h)) / 3 with h = h0 * max(1, |z_j|) and
    D(h) = (h(z + h e_j) - h(z - h e_j)) / (2 h), which cancels the h^2 term
    of the central difference. Each residual is its own call.
    """
    z = np.asarray(z, dtype=float).reshape(-1)

    def central(j, h):
        step = np.zeros_like(z)
        step[j] = h
        return (implicit_residual(z + step, problem) - implicit_residual(z - step, problem)) / (
            2.0 * h
        )

    columns = []
    for j in range(z.size):
        h = h0 * max(1.0, abs(float(z[j])))
        columns.append((4.0 * central(j, 0.5 * h) - central(j, h)) / 3.0)
    return np.stack(columns, axis=1)


def predictive_cost(a, b, gain, value, sigma, q, r) -> float:
    """Expected one-step cost-plus-value of the transition under one draw."""
    a, b, gain, value, sigma, q, r = (
        np.asarray(x, dtype=float) for x in (a, b, gain, value, sigma, q, r)
    )
    closed = a - b @ gain
    inner = closed.T @ value @ closed + q + gain.T @ r @ gain
    return float(np.trace(inner @ sigma))


def raw_weight(spec, a, b, theta, gain, value, q, r, mean_predictive=None) -> float:
    """Un-normalized weight of a single draw at the given policy.

    RRSL needs ``mean_predictive``, the bank mean of the predictive cost.
    """
    sigma = spec.resolved_sigma(np.asarray(a).shape[0])
    cost = predictive_cost(a, b, gain, value, sigma, q, r)
    return float(_raw_from_costs(spec, theta, np.asarray([cost]), mean_predictive)[0])


def _raw_from_costs(spec, theta, costs, mean_predictive) -> np.ndarray:
    """Raw weights of one row of predictive costs, or of a (rows, N) stack.

    For a stack, ``theta`` and ``mean_predictive`` are (rows, 1) columns.
    A float ``theta`` takes one row of costs and a float mean (``None`` for
    RN and RSL), run as a stack of one row with (1, 1) columns. The result
    is a new array.
    """
    costs = np.asarray(costs, dtype=float)
    if np.ndim(theta) == 0:
        theta = np.full((1, 1), theta, dtype=float)
        if mean_predictive is not None:
            mean_predictive = np.full((1, 1), mean_predictive, dtype=float)
        return _raw_from_costs(spec, theta, costs[None], mean_predictive)[0]
    _, args, raw, saturated, window = _Workspace().take(costs.shape)
    return _raw_into(spec, theta, costs, mean_predictive, args, raw, saturated, window)


def normalize_weights(raw) -> np.ndarray:
    """Each row of ``raw`` divided by its own mean, in a new array.

    The first bad row raises: a non-finite weight, then a negative one,
    then all zero.
    """
    raw = np.asarray(raw, dtype=float)
    return _normalize_into(raw, np.empty_like(raw))


def _maps(problem, value, gain):
    """(F, G) at (P, L): ``riccati._stacked_maps`` on a stack of one."""
    new_value, new_gain = riccati._stacked_maps([problem], [value], [gain])
    return new_value[0], new_gain[0]


def gain_map(value, gain, problem) -> np.ndarray:
    """One application of the gain map G at the given policy."""
    value = symmetrize(value, "value matrix")
    return _maps(problem, value, np.asarray(gain, dtype=float))[1]


def closed_loop_kron_expect(bank, gain) -> np.ndarray:
    """(Weighted) empirical mean of (A - B L) kron (A - B L).

    Accepts a plain :class:`SampleBank` or a :class:`WeightedBank`.
    """
    if isinstance(bank, WeightedBank):
        weights = bank.weights
        bank = bank.bank
    elif isinstance(bank, SampleBank):
        weights = None
    else:
        raise TypeError(f"expected a sample bank, got {type(bank).__name__}")
    closed = bank.a - np.matmul(bank.b, np.asarray(gain, dtype=float))
    n = bank.n
    kron_all = np.einsum("sij,skl->sikjl", closed, closed).reshape(
        bank.size, n * n, n * n
    )
    if weights is None:
        return kron_all.mean(axis=0)
    return (kron_all * weights[:, None, None]).mean(axis=0)


def duplication_matrix(n: int) -> np.ndarray:
    """D_n with D_n vech(S) = vec(S) for every symmetric S."""
    if n < 1:
        raise ValueError("duplication_matrix requires n >= 1")
    rows = n * n
    cols = n * (n + 1) // 2
    out = np.zeros((rows, cols))
    k = 0
    for j in range(n):
        for i in range(j, n):
            out[i + j * n, k] = 1.0
            out[j + i * n, k] = 1.0
            k += 1
    return out


def elimination_matrix(n: int) -> np.ndarray:
    """L_n with L_n vec(S) = vech(S) and L_n D_n = I."""
    if n < 1:
        raise ValueError("elimination_matrix requires n >= 1")
    rows = n * (n + 1) // 2
    out = np.zeros((rows, n * n))
    k = 0
    for j in range(n):
        for i in range(j, n):
            out[k, i + j * n] = 1.0
            k += 1
    return out


def kron(left, right) -> np.ndarray:
    """Kronecker product with the usual block layout."""
    return np.kron(as_matrix(left, "kron left"), as_matrix(right, "kron right"))


def compress(mat) -> np.ndarray:
    """Compression L_n D D_n of an n^2-by-n^2 matrix onto vech coordinates."""
    arr = as_matrix(mat, "compress argument")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"compress requires a square matrix, got shape {arr.shape}")
    n = int(round(arr.shape[0] ** 0.5))
    if n * n != arr.shape[0]:
        raise ValueError(f"compress requires an n^2-sized matrix, got {arr.shape[0]}")
    return elimination_matrix(n) @ arr @ duplication_matrix(n)


def _map_step(problem, value, gain):
    new_value, new_gain = _maps(problem, value, gain)
    delta = float(np.linalg.norm(new_value - value) + np.linalg.norm(new_gain - gain))
    return new_value, new_gain, delta


def _anderson_step(problem, points, images, best):
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


def sequential_fixed_point_solve(problem, options) -> DesignSolution:
    """The safeguarded Anderson iteration from (0, 0), one map evaluation at a time.

    ``options`` gives the stopping rules ``fp_tol``, ``fp_max_iters`` and
    ``residual_tol``. The returned gain must be mean-square stable on the
    bank, as every route's result must.
    """
    return _check_mean_square(problem.bank, _fixed_point(problem, options), "fixed-point solve")


def _fixed_point(problem, options) -> DesignSolution:
    """:func:`sequential_fixed_point_solve` without the mean-square postcondition."""
    n, m = problem.n, problem.m
    value, gain = np.zeros((n, n)), np.zeros((m, n))
    new_value, new_gain, delta = _map_step(problem, value, gain)
    deltas = [delta]
    best = delta
    points: list[np.ndarray] = []
    images: list[np.ndarray] = []
    while not delta < options.fp_tol:
        if len(deltas) >= options.fp_max_iters:
            raise ConvergenceError(
                f"fixed-point iteration did not converge in {options.fp_max_iters} iterations "
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
        value, gain, new_value, new_gain, delta = step
        deltas.append(delta)
        best = min(best, delta)

    value, gain = new_value, new_gain
    residual = float(np.linalg.norm(implicit_residual(pack_solution(value, gain), problem)))
    if residual > options.residual_tol:
        raise ConvergenceError(
            f"fixed point stalled: residual {residual:.3e} exceeds {options.residual_tol:.1e}",
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
    )


def _fd_jacobian(z, problem) -> np.ndarray:
    """Central differences of the residual, one column and two residuals at a time."""
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


def _newton(problem, z, tol, max_iters) -> DesignSolution:
    """Damped Newton from ``z``, one residual evaluation at a time."""
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
        jac = _fd_jacobian(z, problem)
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


def sequential_newton_solve(problems, options) -> list:
    """The Newton route ``options.method`` on each problem in turn: its solution or its error.

    Each run of consecutive problems on the same bank and cost matrices
    shares one theta = 0 start (:func:`_fixed_point`), and a
    start that fails is the error of every problem of its run. Each problem
    then runs Newton through its theta grid, each step from the solution of
    the one before, and only its last solution must have a gain that is
    mean-square stable on the bank.
    """
    results: list = []
    owner = None  # the problem whose theta = 0 solution ``start`` is
    with np.errstate(over="ignore", invalid="ignore"):
        for problem in problems:
            steps = _theta_steps(problem, options)
            if owner is None or not (
                problem.bank is owner.bank
                and np.array_equal(problem.q, owner.q)
                and np.array_equal(problem.r, owner.r)
            ):
                owner = problem
                try:
                    start = _fixed_point(problem.with_theta(0.0), options)
                except NumericalError as exc:
                    start = exc
            if isinstance(start, NumericalError):
                results.append(start)
                continue
            z = pack_solution(start.value, start.gain)
            iterations = 0
            try:
                for theta in steps:
                    solution = _newton(
                        problem.with_theta(theta), z, options.newton_tol, options.newton_max_iters
                    )
                    z = pack_solution(solution.value, solution.gain)
                    iterations += solution.iterations
                solution = _check_mean_square(problem.bank, solution, "Newton solve")
            except NumericalError as exc:
                results.append(exc)
                continue
            results.append(
                dataclasses.replace(solution, method=options.method, iterations=iterations)
            )
    return results


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


def mean_a(dist: ParameterDistribution) -> np.ndarray:
    """E[A], the first n*n entries of ``dist.mean`` in column-major order."""
    n = dist.n
    return dist.mean[: n * n].reshape(n, n, order="F")


def mean_b(dist: ParameterDistribution) -> np.ndarray:
    """E[B], the entries of ``dist.mean`` after E[A], in column-major order."""
    n = dist.n
    return dist.mean[n * n :].reshape(n, dist.m, order="F")


def per_step_trials(draws, gain, q, r, x0, limit):
    """Closed-loop costs, divergence steps and states of a batch of trials, step by step.

    ``draws[k, t]`` is trial k's vec([A_t B_t]) at step t (column-major), so
    ``draws`` is trials x horizon x n(n+m). All trials advance together one
    step at a time. At each step t = 0..horizon the cost adds x' W x,
    W = Q + L' R L, itself summed as (x_i W_ij) x_j over i, then j. The next state
    is x_{t+1} = (A_t - B_t L) x_t, each entry summed over j = 0, 1, ... in
    order. A trial whose new state is non-finite or has a Euclidean norm
    above ``limit`` diverges at that step: its cost is infinite and its
    states from that step on are zero. Returns the costs, the divergence
    steps (-1 for none) and the states, trials x (horizon + 1) x n.
    """
    gain = np.asarray(gain, dtype=float)
    m, n = gain.shape
    count, horizon, _ = draws.shape
    a_seq = draws[:, :, : n * n].reshape(count, horizon, n, n, order="F")
    b_seq = draws[:, :, n * n :].reshape(count, horizon, n, m, order="F")
    closed = a_seq - np.einsum("ktij,jl->ktil", b_seq, gain)
    weight = q + gain.T @ r @ gain
    x = np.tile(np.asarray(x0, dtype=float).reshape(1, n), (count, 1))
    cost = np.zeros(count)
    diverged_at = np.full(count, -1)
    states = np.empty((count, horizon + 1, n))
    states[:, 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon + 1):
            form = np.zeros(count)
            for i in range(n):
                for j in range(n):
                    form = form + x[:, i] * weight[i, j] * x[:, j]
            cost = cost + form
            if t == horizon:
                break
            step = closed[:, t, :, 0] * x[:, :1]
            for j in range(1, n):
                step = step + closed[:, t, :, j] * x[:, j : j + 1]
            squares = step[:, 0] * step[:, 0]
            for i in range(1, n):
                squares = squares + step[:, i] * step[:, i]
            bad = ~(np.sqrt(squares) <= limit)  # NaN fails the test
            newly = bad & (diverged_at < 0)
            diverged_at[newly] = t + 1
            cost[newly] = np.inf
            step[bad] = 0.0
            x = step
            states[:, t + 1] = x
    return cost, diverged_at, states
