"""Closed-loop Monte-Carlo simulation and design-robustness studies.

Unlike the solver, which evaluates expectations on one fixed bank,
simulation draws fresh matrices at every step so trajectories follow the
true i.i.d. process. Trial k draws from the stream (seed, k),
``stream_rng(seed, k)``, so a standalone run of one trial on that stream
(``rollout``) always makes trial k's draws. Its states and costs equal
trial k's bit for bit for n <= 2. For n >= 3 they may differ in the last
bits, because a block of one trial sums the n products of a state update in
another order than a block of two or more.

Trials run in blocks of B = ``_BLOCK`` (the last block may be smaller), and
a single rollout is a block of one. A block's generators are seeded in one
pass: ``ensemble._stream_rngs`` computes the PCG64 seed words of all its
indices at once, in the uint32 arithmetic of numpy's SeedSequence, so each
is in the state ``stream_rng(seed, k)`` would give it. Within a block of
horizon H, with d = n(n+m) parameter components:

- the trials draw in chunks of C = max(1, 2**19 // (8 d H)) trials, whose
  raw draws take about 0.5 MiB (C = 36 for n = 2, m = 1 and H = 300). Each
  trial of a chunk takes its H parameter vectors from its own stream, the
  same numbers in the same order as ``ParameterDistribution.draw``, into its
  slice of a trial-major C x d x H buffer; the scale and shift of the normal
  components run once over the chunk;
- each chunk then forms its trials' closed-loop matrices C_t = A_t - B_t L
  trial-major, from views of the buffer, and copies them into one
  H x n x n x B array, the trial axis last and contiguous;
- the states x_0..x_H form one (H+1) x n x B array, filled by one product
  x_{t+1} = C_t x_t over the whole block per step;
- the divergence test, the zeroing of diverged states and the costs are
  then taken over all steps at once.

A block's arrays live in two flat buffers, allocated once per call of
``mc_cost_study`` or ``rollout`` and reused by each of its blocks. Arrays
that are never live at the same time share a buffer:

- the states buffer holds the block's states. During the chunk loop, before
  any state is written, it also holds the chunk's raw draws, from its start,
  and the chunk's closed-loop matrices, from the first 64-byte line past
  room for C draws. Both are dead once the last chunk is copied into the
  block's closed-loop array;
- the closed-loop buffer holds the block's closed-loop array, which is dead
  once the states are propagated. The overflow test then takes the squares
  of the states and their norms in it, at disjoint offsets, and the cost
  fold its two (H+1) x B buffers.

With align8(k) = 8 ceil(k / 8), the two buffers take

    8 (max(B (H+1) n, align8(C d H) + C n^2 H)
       + max(B H n^2, 2 align8(B (H+1)), align8(B H n) + B H)) bytes,

3,690,496 bytes (3.7 MB) for the example system at H = 300 and B = 256.
Every array is a C-contiguous view that starts on a 64-byte line of its
buffer. A block of k < B trials views the first entries at each offset as
its own arrays, so every product runs on, and rounds as on, the layout a
block of k trials alone would have.

A trial diverges at the first step t >= 1 whose state is non-finite or has
a Euclidean norm above ``OVERFLOW_LIMIT``. Its cost is infinite, and its
states from that step on are reported as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import ParameterDistribution, _stream_rngs, derive_seed, draw_bank
from .errors import ConfigurationError, NumericalError
from .matops import symmetrize
from .riccati import DesignProblem, SolverOptions, solve_all
from .weights import WeightSpec

__all__ = [
    "OVERFLOW_LIMIT",
    "RolloutResult",
    "SimulationSummary",
    "RobustnessSummary",
    "rollout",
    "worst_percent_averages",
    "mc_cost_study",
    "robustness_study",
]

#: State norms beyond this mark the trial as diverged (infinite cost).
OVERFLOW_LIMIT = 1e12

_BLOCK = 256
#: Raw-draw bytes of one chunk of trials (see the module docstring).
_CHUNK_BYTES = 2**19


@dataclass(frozen=True)
class RolloutResult:
    """One closed-loop trajectory with its accumulated quadratic cost."""

    states: np.ndarray
    cost: float
    diverged_at: int | None = None


@dataclass(frozen=True)
class SimulationSummary:
    """Per-trial costs plus tail statistics over the worst outcomes."""

    trials: int
    horizon: int
    costs: np.ndarray
    mean_cost: float
    tail_averages: tuple[tuple[float, float], ...]
    diverged: int
    trajectories: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        if np.any(costs < 0.0):
            raise NumericalError("per-trial costs must be nonnegative")
        averages = [avg for _, avg in self.tail_averages]
        for prev, nxt in zip(averages, averages[1:]):
            if nxt > prev + 1e-9 * max(1.0, abs(prev)):
                raise NumericalError(
                    "tail averages must be nonincreasing in the tail fraction"
                )
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)


@dataclass(frozen=True)
class RobustnessSummary:
    """Dispersion of repeatedly designed gains across bank seeds."""

    repetitions: int
    gains: np.ndarray
    gain_mean: np.ndarray
    gain_stddev: np.ndarray
    failures: tuple[tuple[int, str], ...] = ()


def _align(cells: int) -> int:
    """``cells`` rounded up to whole 64-byte lines of float64 entries."""
    return -(-cells // 8) * 8


class _Workspace:
    """The two flat buffers of one block of up to ``size`` trials.

    ``states`` holds the states, and before them the chunk's draws and, from
    ``chunk_at``, its closed-loop matrices; ``closed`` holds the closed-loop
    array, and after it the overflow test's squares and norms and the cost
    fold (see the module docstring). A block of k trials takes each array as
    a reshaped prefix of the buffer from its offset (:func:`_prefix`). The
    chunk size, in trials, is computed here from the target of
    ``_CHUNK_BYTES`` raw-draw bytes.
    """

    def __init__(self, dist: ParameterDistribution, horizon: int, size: int):
        n, cells = dist.n, dist.dim * horizon
        self.chunk = min(size, max(1, _CHUNK_BYTES // max(8 * cells, 1)))
        self.chunk_at = _align(self.chunk * cells)
        self.states = np.empty(
            max(size * (horizon + 1) * n, self.chunk_at + self.chunk * n * n * horizon)
        )
        self.closed = np.empty(
            max(
                size * horizon * n * n,
                2 * _align(size * (horizon + 1)),
                _align(size * horizon * n) + size * horizon,
            )
        )


def _prefix(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The first prod(shape) entries of a flat buffer, as a C-contiguous array."""
    return buffer[: math.prod(shape)].reshape(shape)


def _fold_steps(quad: np.ndarray) -> np.ndarray:
    """Each column's sum over the steps, (H+1) x trials, as the left fold t = 0, 1, ..., H.

    ``np.add.reduce`` along the first axis of a C-contiguous array of two or
    more columns adds one step's row at a time: the left fold, without the
    (H+1) x trials array of ``np.cumsum``. A lone column it sums pairwise,
    so one trial takes its ``cumsum``.
    """
    if quad.shape[1] == 1:
        return np.cumsum(quad[:, 0])[-1:]
    return np.add.reduce(quad, axis=0)


def _run_trials(
    dist: ParameterDistribution,
    gain: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
    x0: np.ndarray,
    horizon: int,
    rngs,
    work: _Workspace,
):
    """Simulate one block of trials in ``work``, one fresh draw per trial and step.

    Trial k takes its draws from ``rngs[k]`` as one ``draw(rngs[k], horizon)``
    would, so a standalone single-trial run makes the same draws. Its states
    and costs match bit for bit for n <= 2 and may differ in the last bits
    for n >= 3, where a block of one sums each state update's products in
    another order (see the module docstring). Returns the
    per-trial costs, the step at which each trial diverged (-1 if it did
    not) and the states, (horizon + 1) x n x trials: a view into
    ``work.states`` that the next block, or its chunk loop, overwrites.

    Each array is a view into one of the two buffers of ``work``, and each is
    dead before the next array at its offset is written: the chunk's draws
    and closed-loop matrices before the states, the closed-loop array before
    the squares, the norms and the fold buffers.
    """
    count = len(rngs)
    n, m = dist.n, dist.m
    closed = _prefix(work.closed, horizon, n, n, count)
    for k0 in range(0, count, work.chunk):
        size = min(work.chunk, count - k0)
        lam = _prefix(work.states, size, dist.dim, horizon)
        dist._fill(rngs[k0 : k0 + size], lam)
        # Component i + n j is entry (i, j) of A, then of B (column-major); the
        # views index [k, j, i, t]. C_t is formed trial-major, where every
        # operand is contiguous in t, and then copied into the block's array.
        a_seq = lam[:, : n * n].reshape(size, n, n, horizon)
        b_seq = lam[:, n * n :].reshape(size, m, n, horizon)
        part = _prefix(work.states[work.chunk_at :], size, n, n, horizon)
        np.einsum("kjit,jl->klit", b_seq, gain, out=part)
        np.subtract(a_seq, part, out=part)
        np.copyto(closed[..., k0 : k0 + size], part.transpose(3, 2, 1, 0))

    states = _prefix(work.states, horizon + 1, n, count)
    states[0] = np.asarray(x0, dtype=float).reshape(n, 1)
    dead_steps = np.zeros(count, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            np.einsum("ijk,jk->ik", closed[t], states[t], out=states[t + 1])
        after = states[1:]
        # Entries within LIMIT/(2n) keep every norm below the limit, so only
        # a block that fails this test (or holds a NaN) needs the norms.
        bound = OVERFLOW_LIMIT / (2 * n)
        if not (after.max(initial=0.0) <= bound and after.min(initial=0.0) >= -bound):
            # The norm as np.linalg.norm forms it, its squares and then the
            # norms in the spent closed-loop buffer, apart, so that the
            # reduction needs no copy; NaN fails the comparison.
            squares = np.multiply(after, after, out=_prefix(work.closed, horizon, n, count))
            norm = _prefix(work.closed[_align(squares.size) :], horizon, count)
            np.add.reduce(squares, axis=1, out=norm)
            np.sqrt(norm, out=norm)
            dead = np.logical_or.accumulate(~(norm <= OVERFLOW_LIMIT), axis=0)
            np.copyto(after, 0.0, where=dead[:, None, :])
            dead_steps = dead.sum(axis=0)

    # x' W x summed as (x_i W_ij) x_j over i, then j, and over the steps by
    # _fold_steps: the same left folds, in the same order, as a per-step loop.
    weight_mat = q + gain.T @ r @ gain
    quad = _prefix(work.closed, horizon + 1, count)
    term = _prefix(work.closed[_align(quad.size) :], horizon + 1, count)
    quad[...] = 0.0
    for i in range(n):
        for j in range(n):
            np.multiply(states[:, i], weight_mat[i, j], out=term)
            term *= states[:, j]
            quad += term
    cost = _fold_steps(quad)
    diverged_at = np.where(dead_steps > 0, horizon + 1 - dead_steps, -1)
    cost[dead_steps > 0] = np.inf
    return cost, diverged_at, states


def rollout(
    dist: ParameterDistribution,
    gain,
    q,
    r,
    x0,
    horizon: int,
    seed,
) -> RolloutResult:
    """Single closed-loop trajectory under u_t = -L x_t.

    ``seed`` may be an integer or a ready generator. The cost sums
    x_t' Q x_t + u_t' R u_t for t = 0..horizon inclusive; if the state norm
    exceeds ``OVERFLOW_LIMIT`` the trial is reported as diverged with
    infinite cost and the trajectory is truncated at that step.

    The trial runs as a block of one (B = C = 1 in the module docstring's
    formula): its workspace takes 33.6 KB for the example system at
    H = 300, where the states buffer is sized by the draws and closed-loop
    matrices of the chunk. The returned states are a copy, cut to the
    divergence step.
    """
    if horizon < 0:
        raise ConfigurationError("horizon must be >= 0")
    gain = np.asarray(gain, dtype=float)
    q = symmetrize(q, "Q")
    r = symmetrize(r, "R")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cost, diverged_at, states = _run_trials(
        dist, gain, q, r, x0, horizon, [rng], _Workspace(dist, horizon, 1)
    )
    stop = int(diverged_at[0])
    if stop < 0:
        return RolloutResult(states=states[:, :, 0].copy(), cost=float(cost[0]))
    return RolloutResult(
        states=states[: stop + 1, :, 0].copy(), cost=float(cost[0]), diverged_at=stop
    )


def worst_percent_averages(costs, rho_list) -> list[tuple[float, float]]:
    """Mean of the ceil(rho * N / 100) largest costs for each decimal rho."""
    costs = np.asarray(costs, dtype=float)
    trials = costs.size
    if trials < 1:
        raise ConfigurationError("need at least one cost")
    ranked = np.sort(costs)[::-1]
    prefix = np.cumsum(ranked)
    out = []
    for rho in rho_list:
        rho = float(rho)
        if not 0.0 < rho <= 100.0:
            raise ConfigurationError(f"tail fraction {rho} outside (0, 100]")
        share = rho * trials / 100.0
        # rho's decimal, the product and the quotient each round, so share is within
        # 3 ulps of the exact rho N / 100: a share that close above k means k, not k + 1.
        k = max(1, math.ceil(share - 4 * math.ulp(share)))
        out.append((rho, float(prefix[k - 1] / k)))
    return out


def mc_cost_study(
    dist: ParameterDistribution,
    gain,
    q,
    r,
    x0,
    horizon: int,
    trials: int,
    rho_list,
    seed: int,
    trajectory_count: int = 0,
) -> SimulationSummary:
    """Independent rollouts with tail statistics over the worst outcomes."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    if horizon < 0:
        raise ConfigurationError("horizon must be >= 0")
    gain = np.asarray(gain, dtype=float)
    q = symmetrize(q, "Q")
    r = symmetrize(r, "R")
    costs = np.empty(trials)
    diverged = 0
    trajectories = []
    work = _Workspace(dist, horizon, min(trials, _BLOCK))
    for start in range(0, trials, _BLOCK):
        stop = min(start + _BLOCK, trials)
        block_costs, block_div, states = _run_trials(
            dist, gain, q, r, x0, horizon, _stream_rngs(seed, start, stop), work
        )
        costs[start:stop] = block_costs
        diverged += int(np.sum(block_div >= 0))
        for k in range(start, min(stop, trajectory_count)):
            trajectories.append(states[:, :, k - start].copy())

    tail = tuple(worst_percent_averages(costs, rho_list))
    return SimulationSummary(
        trials=trials,
        horizon=horizon,
        costs=costs,
        mean_cost=float(costs.mean()),
        tail_averages=tail,
        diverged=diverged,
        trajectories=tuple(trajectories),
    )


def robustness_study(
    dist: ParameterDistribution,
    q,
    r,
    weight_spec: WeightSpec,
    repetitions: int,
    bank_size: int,
    base_seed: int,
    options: SolverOptions = SolverOptions(),
) -> RobustnessSummary:
    """Redesign the gain across freshly seeded banks and report dispersion.

    Bank k uses the integer sub-seed derive_seed(base_seed, k). Designs
    that fail are recorded and excluded from the statistics; at least two
    must succeed for a standard deviation to exist.

    The designs run through :func:`~wsriccati.riccati.solve_all` with
    ``options``, so every route solves several in lockstep, each to the same
    bits as alone; under a Newton route each bank has its own theta = 0
    start. Bank k is drawn only when design k joins, and the lockstep's
    byte budget (``riccati.LOCKSTEP_BYTES``) bounds the banks held at once:
    22 of the example system's 2k banks under the fixed-point route and 11
    under a Newton route, however many ``repetitions`` there are. A Newton
    route reads each bank's run together with the next problem, so it
    draws one bank more.
    """
    if repetitions < 2:
        raise ConfigurationError("repetitions must be >= 2")
    problems = (
        DesignProblem(
            bank=draw_bank(dist, bank_size, derive_seed(base_seed, k)),
            q=q,
            r=r,
            weights=weight_spec,
        )
        for k in range(repetitions)
    )
    gains = []
    failures: list[tuple[int, str]] = []
    for k, result in enumerate(solve_all(problems, options)):
        if isinstance(result, NumericalError):
            failures.append((k, str(result)))
        else:
            gains.append(result.gain)
    if len(gains) < 2:
        raise NumericalError(
            f"robustness study needs >= 2 successful designs, got {len(gains)} "
            f"({len(failures)} failures)"
        )
    stacked = np.stack(gains)
    # Shift by the first design before the moments; identical designs then
    # report exactly zero dispersion instead of one-ulp rounding noise.
    shifted = stacked - stacked[0]
    return RobustnessSummary(
        repetitions=repetitions,
        gains=stacked,
        gain_mean=stacked[0] + shifted.mean(axis=0),
        gain_stddev=shifted.std(axis=0, ddof=1),
        failures=tuple(failures),
    )
