"""Closed-loop Monte-Carlo simulation and design-robustness studies.

Unlike the solver, which evaluates expectations on one fixed bank,
simulation draws fresh matrices at every step so trajectories follow the
true i.i.d. process. Trial k draws from the stream (seed, k),
``stream_rng(seed, k)``, so any single trial can be reproduced standalone.

Trials run in blocks of B = ``_BLOCK`` (the last block may be smaller), and
a single rollout is a block of one. A block's generators are seeded in one
pass: ``ensemble._stream_rngs`` computes the PCG64 seed words of all its
indices at once, in the uint32 arithmetic of numpy's SeedSequence, so each
is in the state ``stream_rng(seed, k)`` would give it. Within a block of
horizon H, with d = n(n+m) parameter components:

- each trial takes its H parameter vectors from its own stream, the same
  numbers in the same order as ``ParameterDistribution.draw``, straight
  into its slice of a trial-major B x d x H array; the scale and shift of
  the normal components then run once over the block;
- the closed-loop matrices C_t = A_t - B_t L are built from strided views of
  it into one H x n x n x B array, the trial axis last and contiguous;
- the states x_0..x_H form one (H+1) x n x B array, filled by one product
  x_{t+1} = C_t x_t over the whole block per step;
- the divergence test, the zeroing of diverged states and the costs are
  then taken over all steps at once.

The draws and the closed-loop matrices coexist while the latter are built,
so a block peaks at about 8 B H (d + n^2) bytes: 12 MB for n = 2, m = 1 and
H = 300 at B = 512.

A trial diverges at the first step t >= 1 whose state is non-finite or has
a Euclidean norm above ``OVERFLOW_LIMIT``. Its cost is infinite, and its
states from that step on are reported as zero.
"""

from __future__ import annotations

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

_BLOCK = 512


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


def _run_trials(
    dist: ParameterDistribution,
    gain: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
    x0: np.ndarray,
    horizon: int,
    rngs,
):
    """Simulate one block of trials, one fresh draw per trial and step.

    Returns the per-trial costs, the step at which each trial diverged (-1
    if it did not) and the states, (horizon + 1) x n x trials. Trial k takes
    its draws from ``rngs[k]`` as one ``draw(rngs[k], horizon)`` would, so
    results match a standalone single-trial run.
    """
    count = len(rngs)
    n, m = dist.n, dist.m
    lam = np.empty((count, dist.dim, horizon))
    dist._fill(rngs, lam)
    # Component i + n j is entry (i, j) of A, then of B (column-major); the
    # views index [t, i, j, k].
    a_seq = lam[:, : n * n].reshape(count, n, n, horizon).transpose(3, 2, 1, 0)
    b_seq = lam[:, n * n :].reshape(count, m, n, horizon).transpose(3, 2, 1, 0)
    closed = np.empty((horizon, n, n, count))
    np.einsum("tijk,jl->tilk", b_seq, gain, out=closed)
    np.subtract(a_seq, closed, out=closed)
    del lam, a_seq, b_seq

    states = np.empty((horizon + 1, n, count))
    states[0] = np.asarray(x0, dtype=float).reshape(n, 1)
    dead_steps = np.zeros(count, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            np.einsum("ijk,jk->ik", closed[t], states[t], out=states[t + 1])
        del closed
        after = states[1:]
        # Entries within LIMIT/(2n) keep every norm below the limit, so only
        # a block that fails this test (or holds a NaN) needs the norms.
        bound = OVERFLOW_LIMIT / (2 * n)
        if not (after.max(initial=0.0) <= bound and after.min(initial=0.0) >= -bound):
            # The norm as np.linalg.norm forms it; NaN fails the comparison.
            norm = np.sqrt(np.add.reduce(after * after, axis=1))
            dead = np.logical_or.accumulate(~(norm <= OVERFLOW_LIMIT), axis=0)
            np.copyto(after, 0.0, where=dead[:, None, :])
            dead_steps = dead.sum(axis=0)

    # x' W x summed as (x_i W_ij) x_j over i, then j, and over the steps by
    # cumsum: the same left folds, in the same order, as a per-step loop.
    weight_mat = q + gain.T @ r @ gain
    quad = np.zeros((horizon + 1, count))
    for i in range(n):
        for j in range(n):
            quad += states[:, i] * weight_mat[i, j] * states[:, j]
    cost = np.cumsum(quad, axis=0)[-1]
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
    """
    if horizon < 0:
        raise ConfigurationError("horizon must be >= 0")
    gain = np.asarray(gain, dtype=float)
    q = symmetrize(q, "Q")
    r = symmetrize(r, "R")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cost, diverged_at, states = _run_trials(dist, gain, q, r, x0, horizon, [rng])
    path = np.ascontiguousarray(states[:, :, 0])
    stop = int(diverged_at[0])
    if stop < 0:
        return RolloutResult(states=path, cost=float(cost[0]), diverged_at=None)
    return RolloutResult(states=path[: stop + 1], cost=float(cost[0]), diverged_at=stop)


def worst_percent_averages(costs, rho_list) -> list[tuple[float, float]]:
    """Mean of the ceil(rho * N / 100) largest costs for each rho."""
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
        k = int(np.ceil(rho * trials / 100.0))
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
    for start in range(0, trials, _BLOCK):
        stop = min(start + _BLOCK, trials)
        block_costs, block_div, states = _run_trials(
            dist, gain, q, r, x0, horizon, _stream_rngs(seed, start, stop)
        )
        costs[start:stop] = block_costs
        diverged += int(np.sum(block_div >= 0))
        for k in range(start, min(stop, trajectory_count)):
            trajectories.append(np.ascontiguousarray(states[:, :, k - start]))

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
    19 of the example system's 2k banks under the fixed-point route and 6
    under a Newton route, however many ``repetitions`` there are.
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
