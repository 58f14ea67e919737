"""The block kernel of the Monte-Carlo study against a per-step reference.

``reference_trials`` is a per-step loop over a trial-major batch: all
trials advance together one step at a time, with the cost, the divergence
test and the zeroing of diverged states done at every step. Its quadratic
forms are summed in one fixed order (see ``_quadratic``). ``reference_draw``
takes one generator call per component. The kernel and the grouped draw
must reproduce them bit for bit wherever the arithmetic is the same: for
n <= 2 every state update is a sum of at most two products, which rounds
the same in either order. For n = 3 the kernel sums the three products of a
state update in another order, so states and costs may differ by rounding;
that case is held to a first-order error bound (see ``_bounds``).
"""

import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import wsriccati as ws
from wsriccati import simulate
from wsriccati.cli import main
from wsriccati.ensemble import FAMILIES, ParameterDistribution

from reference import per_step_trials

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"


def reference_draw(dist, rng, size):
    """One generator call per component, in index order."""
    out = np.empty((size, dist.dim))
    for j, family in enumerate(dist.families):
        mu = dist.mean[j]
        sd = dist.stddev[j]
        if family == "point":
            out[:, j] = mu
        elif family == "normal":
            out[:, j] = mu + sd * rng.standard_normal(size)
        else:
            out[:, j] = rng.laplace(mu, sd / math.sqrt(2.0), size)
    return out


def _quadratic(x, w):
    """x_k' W x_k for each row, summed as (x_i W_ij) x_j with i outer.

    This is the order of np.einsum("ki,ij,kj->k") for three or more rows; for
    one or two rows (n = 2) the einsum adds the two row sums instead, which
    would round the cost of a one- or two-trial batch differently.
    """
    out = np.zeros(x.shape[0])
    for i in range(x.shape[1]):
        for j in range(x.shape[1]):
            out = out + x[:, i] * w[i, j] * x[:, j]
    return out


def reference_trials(dist, gain, q, r, x0, horizon, rngs):
    """Per-step simulation of a batch: costs, divergence steps, states (trial-major)."""
    count = len(rngs)
    n, m = dist.n, dist.m
    lam = np.empty((count, horizon, dist.dim))
    for k, rng in enumerate(rngs):
        lam[k] = reference_draw(dist, rng, horizon)
    a_seq = lam[:, :, : n * n].reshape(count, horizon, n, n, order="F")
    b_seq = lam[:, :, n * n :].reshape(count, horizon, n, m, order="F")
    closed_seq = a_seq - np.einsum("ktij,jl->ktil", b_seq, gain)

    weight_mat = q + gain.T @ r @ gain
    x = np.tile(np.asarray(x0, dtype=float).reshape(1, n), (count, 1))
    cost = np.zeros(count)
    diverged_at = np.full(count, -1, dtype=int)
    states = np.empty((count, horizon + 1, n))
    states[:, 0, :] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            cost = cost + _quadratic(x, weight_mat)
            x = np.einsum("kij,kj->ki", closed_seq[:, t], x)
            bad = ~np.all(np.isfinite(x), axis=1) | (
                np.linalg.norm(x, axis=1) > simulate.OVERFLOW_LIMIT
            )
            newly = bad & (diverged_at < 0)
            if np.any(newly):
                diverged_at[newly] = t + 1
                cost[newly] = np.inf
            x[bad] = 0.0
            states[:, t + 1, :] = x
    final = _quadratic(x, weight_mat)
    alive = diverged_at < 0
    cost[alive] = cost[alive] + final[alive]
    return cost, diverged_at, states


def _spd(rng, size, shift):
    x = rng.standard_normal((size, size))
    return x @ x.T + shift * np.eye(size)


@st.composite
def distributions(draw, max_n=3):
    """Small systems whose entries mix point, normal and Laplace marginals."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, 2))
    dim = n * (n + m)
    families = tuple(draw(st.lists(st.sampled_from(FAMILIES), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stddev = np.where(np.array(families) == "point", 0.0, rng.uniform(0.0, 0.5, dim))
    dist = ParameterDistribution(
        n=n, m=m, families=families, mean=0.6 * rng.standard_normal(dim), stddev=stddev
    )
    return dist, rng


@st.composite
def studies(draw, trials=1):
    """A study with horizons 0, 1 or up to 60.

    Large initial states and gains make some or all trials diverge; the
    largest gains overflow states to inf and NaN after they diverge.
    """
    dist, rng = draw(distributions())
    n, m = dist.n, dist.m
    x0 = rng.standard_normal(n)
    # The last scale puts |x0| a factor 3.3 below the limit, so trials with
    # more growth than that over the horizon diverge and the others do not.
    x0 *= rng.choice([1.0, 1e6, 0.3 * simulate.OVERFLOW_LIMIT / np.linalg.norm(x0)])
    return {
        "dist": dist,
        "gain": rng.choice([0.1, 1.0, 1e4, 1e8]) * rng.standard_normal((m, n)),
        "q": _spd(rng, n, 0.5),
        "r": _spd(rng, m, 0.5),
        "x0": x0,
        "horizon": int(rng.choice([0, 1, rng.integers(2, 61)])),
        "trials": trials,
        "trajectory_count": int(rng.choice([0, 3, simulate._BLOCK + 88])),
        "seed": int(rng.integers(2**16)),
    }


def _bounds(dist, gain, weight_mat, x0, horizon, rngs):
    """First-order bounds on |kernel - reference|: per state, and per cost.

    States: each side sums x_{t+1} = C_t x_t to within gamma_n |C_t| |x_t|
    of the exact product (gamma_k = k u / (1 - k u), u the unit roundoff),
    and the error already in x_t passes through |C_t|. With the size of the
    summed terms y_{t+1} = |C_t| y_t, y_0 = |x_0|, each side is within
    t gamma_n y_t of exact arithmetic, so the two differ by e_t = 2 t gamma_n y_t.

    Costs: two states within e_t give forms x' W x that differ by at most
    (2 y_t + e_t)' |W| e_t, and forming each cost (n^2 products and sums per
    step, then horizon + 1 sums) adds at most gamma_{n^2 + horizon + 3}
    times sum_t y_t' |W| y_t on each side. Over the n = 3 studies among 150
    generated ones of 257 trials (11,359 finite costs, 2,473 of them not
    bit-equal), the largest differences were 0.12 of the cost bound (4.7e-14
    of the cost) and 0.44 of the state bound.
    """
    count, n = len(rngs), dist.n
    lam = np.stack([reference_draw(dist, rng, horizon) for rng in rngs])
    a_seq = lam[:, :, : n * n].reshape(count, horizon, n, n, order="F")
    b_seq = lam[:, :, n * n :].reshape(count, horizon, n, dist.m, order="F")
    size = np.abs(a_seq) + np.abs(b_seq) @ np.abs(gain)
    unit = np.finfo(float).eps / 2

    def gamma(k):
        return k * unit / (1 - k * unit)

    y = np.empty((count, horizon + 1, n))
    y[:, 0] = np.abs(x0)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon):
            y[:, t + 1] = np.einsum("kij,kj->ki", size[:, t], y[:, t])
        y *= 1 + 1e-6
        state = 2 * np.arange(horizon + 1)[None, :, None] * gamma(n) * y
        w = np.abs(weight_mat)
        cost = np.einsum("kti,ij,ktj->k", 2 * y + state, w, state) + 2 * gamma(
            n * n + horizon + 3
        ) * np.einsum("kti,ij,ktj->k", y, w, y)
    return np.nan_to_num(state, nan=np.inf), np.nan_to_num(cost, nan=np.inf)


#: Trials per draw chunk on the example system (d = 6) at 300 steps.
EXAMPLE_CHUNK = simulate._CHUNK_BYTES // (8 * 6 * 300)


@pytest.mark.parametrize(
    "trials",
    [
        1,
        EXAMPLE_CHUNK - 1,
        EXAMPLE_CHUNK,
        EXAMPLE_CHUNK + 1,
        simulate._BLOCK - 1,
        simulate._BLOCK,
        simulate._BLOCK + 1,
        511,
        512,
        513,
        1025,
    ],
)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_study_matches_per_step_reference(trials, data):
    # Trial counts straddle the edges of the example's first draw chunk (C - 1,
    # C, C + 1 for C = EXAMPLE_CHUNK), of the first block (B - 1, B, B + 1 for
    # B = simulate._BLOCK = 256) and of the second (511, 512, 513 = 2B - 1, 2B,
    # 2B + 1); 1025 = 4B + 1 opens a fifth block of one trial. The study's
    # chunks and blocks must not show.
    case = data.draw(studies(trials))
    dist, gain, q, r, x0, horizon, trials, keep, seed = (
        case["dist"], case["gain"], case["q"], case["r"], case["x0"], case["horizon"],
        case["trials"], case["trajectory_count"], case["seed"],
    )
    summary = ws.mc_cost_study(
        dist, gain, q, r, x0, horizon, trials, [100.0], seed, trajectory_count=keep
    )
    rngs = [ws.stream_rng(seed, k) for k in range(trials)]
    cost, diverged_at, states = reference_trials(dist, gain, q, r, x0, horizon, rngs)
    keep = min(keep, trials)
    assert summary.diverged == int(np.sum(diverged_at >= 0))
    assert len(summary.trajectories) == keep
    kernel_states = np.stack(summary.trajectories) if keep else states[:0]
    if dist.n <= 2:
        assert np.array_equal(summary.costs, cost)
        assert np.array_equal(kernel_states, states[:keep])
        return
    # n = 3: the same trials diverge, and states and costs are within the
    # rounding bounds of _bounds.
    assert np.array_equal(np.isinf(summary.costs), np.isinf(cost))
    state_bound, cost_bound = _bounds(
        dist, gain, q + gain.T @ r @ gain, x0, horizon,
        [ws.stream_rng(seed, k) for k in range(trials)],
    )
    alive = diverged_at < 0
    assert np.all(np.abs(summary.costs[alive] - cost[alive]) <= cost_bound[alive])
    assert np.all(np.abs(kernel_states - states[:keep]) <= state_bound[:keep])


@PROPERTY
@given(studies())
def test_rollout_matches_per_step_reference(case):
    dist, gain, q, r, x0, horizon, seed = (
        case["dist"], case["gain"], case["q"], case["r"], case["x0"], case["horizon"],
        case["seed"],
    )
    result = ws.rollout(dist, gain, q, r, x0, horizon, seed=ws.stream_rng(seed, 0))
    cost, diverged_at, states = reference_trials(
        dist, gain, q, r, x0, horizon, [ws.stream_rng(seed, 0)]
    )
    stop = int(diverged_at[0])
    assert result.diverged_at == (None if stop < 0 else stop)
    assert result.states.shape == (horizon + 1 if stop < 0 else stop + 1, dist.n)
    if dist.n <= 2:
        assert result.cost == cost[0]
        assert np.array_equal(result.states, states[0, : result.states.shape[0]])


@PROPERTY
@given(distributions(), st.sampled_from([0, 1, 7, 300]), st.integers(0, 2**16))
def test_grouped_draw_is_bit_identical_to_per_component_draws(drawn, size, seed):
    dist, _ = drawn
    got = dist.draw(np.random.default_rng(seed), size)
    assert got.shape == (size, dist.dim)
    assert np.array_equal(got, reference_draw(dist, np.random.default_rng(seed), size))


@pytest.mark.parametrize("width", [1, 2, 511, 512])
@pytest.mark.parametrize("horizon", [0, 1, 300])
def test_step_fold_equals_the_cumsum_fold(width, horizon):
    # Per-step costs spread over many magnitudes, so that summing in any
    # other order than t = 0, 1, ..., H would round differently. The block
    # takes them as a C-contiguous prefix of a longer buffer, as a block of
    # fewer trials than the workspace holds does.
    rng = np.random.default_rng(width * 1000 + horizon)
    buffer = np.exp(rng.uniform(-30.0, 30.0, (horizon + 1) * width + 17))
    quad = buffer[: (horizon + 1) * width].reshape(horizon + 1, width)
    want = np.cumsum(quad, axis=0)[-1]
    got = simulate._fold_steps(quad)
    assert got.shape == (width,)
    assert np.array_equal(got, want)
    if width == 1 and horizon == 300:
        # numpy's own reduction of a lone column is pairwise, not this fold.
        assert not np.array_equal(np.add.reduce(quad, axis=0), want)


def test_study_with_diverging_trials_matches_reference(benchmark_dist):
    # Some trials of this gain diverge, some do not, in every block.
    gain = np.array([[-6.5, -6.5]])
    q, r = 3.0 * np.eye(2), np.eye(1)
    summary = ws.mc_cost_study(
        benchmark_dist, gain, q, r, [1.0, 1.0], 300, 1100, [100.0], seed=4,
        trajectory_count=600,
    )
    rngs = [ws.stream_rng(4, k) for k in range(1100)]
    cost, diverged_at, states = reference_trials(
        benchmark_dist, gain, q, r, [1.0, 1.0], 300, rngs
    )
    assert 0 < summary.diverged < 1100
    assert summary.diverged == int(np.sum(diverged_at >= 0))
    assert np.array_equal(summary.costs, cost)
    assert np.array_equal(np.stack(summary.trajectories), states[:600])


@pytest.mark.parametrize(
    "trials",
    [EXAMPLE_CHUNK - 1, EXAMPLE_CHUNK, EXAMPLE_CHUNK + 1, simulate._BLOCK + EXAMPLE_CHUNK + 1],
)
def test_chunk_edges_match_reference_and_trajectories_are_copies(benchmark_dist, trials):
    # On the example system at 300 steps a block draws in chunks of
    # EXAMPLE_CHUNK trials; every trajectory is kept, the last block's too.
    gain = np.array([[-6.5, -6.5]])
    q, r = 3.0 * np.eye(2), np.eye(1)
    summary = ws.mc_cost_study(
        benchmark_dist, gain, q, r, [1.0, 1.0], 300, trials, [100.0], seed=11,
        trajectory_count=trials,
    )
    rngs = [ws.stream_rng(11, k) for k in range(trials)]
    cost, diverged_at, states = reference_trials(
        benchmark_dist, gain, q, r, [1.0, 1.0], 300, rngs
    )
    assert summary.diverged == int(np.sum(diverged_at >= 0))
    assert np.array_equal(summary.costs, cost)
    assert np.array_equal(np.stack(summary.trajectories), states)
    for path in summary.trajectories:
        assert path.base is None and path.flags.c_contiguous
    first, last = summary.trajectories[0], summary.trajectories[-1]
    assert not np.shares_memory(first, last)
    result = ws.rollout(benchmark_dist, gain, q, r, [1.0, 1.0], 300, seed=ws.stream_rng(11, 0))
    assert result.states.base is None


def test_study_peaks_within_its_workspace(benchmark_dist):
    # The workspace bound of the simulate module docstring, for the example
    # system at 300 steps, plus 2 MiB for Python objects.
    n, d, horizon, block = 2, 6, 300, simulate._BLOCK
    workspace = 8 * (
        EXAMPLE_CHUNK * (d + n * n) * horizon
        + block * horizon * n * n
        + block * (horizon + 1) * (n + 2)
    )
    gain = np.array([[6.683243074124488, 7.448763532065042]])
    args = (benchmark_dist, gain, 3.0 * np.eye(2), np.eye(1), [1.0, 1.0], horizon)
    ws.mc_cost_study(*args, 3, [100.0], seed=7)
    tracemalloc.start()
    try:
        ws.mc_cost_study(*args, 1100, [100.0], seed=7)
        study_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ws.rollout(*args, seed=7)
        rollout_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert study_peak <= workspace + 2 * 2**20
    assert rollout_peak < 64 * 2**10


def _align8(cells):
    return -(-cells // 8) * 8


def _workspace_bytes(n, m, horizon, block):
    """The two buffers of the simulate module docstring, in bytes."""
    d = n * (n + m)
    chunk = min(block, max(1, simulate._CHUNK_BYTES // max(8 * d * horizon, 1)))
    states = max(block * (horizon + 1) * n, _align8(chunk * d * horizon) + chunk * n * n * horizon)
    closed = max(
        block * horizon * n * n,
        2 * _align8(block * (horizon + 1)),
        _align8(block * horizon * n) + block * horizon,
    )
    return 8 * (states + closed)


def _aliasing_system(n, m):
    """A fixed system mixing point, normal and Laplace entries, mean A = 0.5 I."""
    dim = n * (n + m)
    families = tuple(FAMILIES[k % 3] for k in range(dim))
    mean = np.concatenate([0.5 * np.eye(n).reshape(-1), np.linspace(0.2, 1.0, n * m)])
    stddev = np.where(np.array(families) == "point", 0.0, 0.1)
    return ParameterDistribution(n=n, m=m, families=families, mean=mean, stddev=stddev)


@pytest.mark.parametrize("horizon", [0, 1, 2, 37])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_aliased_workspace_matches_per_step_reference(n, m, horizon):
    # Trial counts at the edges of a chunk (a whole block where a chunk would
    # hold more) and past one block. Under the small gain no trial diverges;
    # under the large one states overflow from x0 = 0.3 LIMIT on, so the
    # overflow test writes its squares and norms into the closed-loop buffer.
    # At n = 1 the two fold buffers outgrow the closed-loop array. A trial
    # alone in its block (and a rollout) sums a state update as numpy's
    # contiguous dot product does, the order of reference_trials; every
    # other trial as the left fold of per_step_trials. For n <= 2 the two
    # orders round the same.
    dist = _aliasing_system(n, m)
    block = simulate._BLOCK
    edge = simulate._Workspace(dist, horizon, block).chunk
    counts = [edge - 1, edge, edge + 1, block + edge + 1]
    q, r = np.eye(n), np.eye(m)
    seed = 100 * n + 10 * m + horizon
    draws = np.stack([
        reference_draw(dist, ws.stream_rng(seed, k), horizon) for k in range(max(counts))
    ])
    unit = np.ones(n) / np.sqrt(n)
    for gain, x0 in [
        (0.1 * np.ones((m, n)), unit),
        (1e3 * np.ones((m, n)), 0.3 * simulate.OVERFLOW_LIMIT * unit),
    ]:
        wide = per_step_trials(draws, gain, q, r, x0, simulate.OVERFLOW_LIMIT)
        assert np.any(wide[1] > 0) == (gain[0, 0] > 1.0 and horizon > 0)
        for trials in counts:
            cost, diverged_at, states = (arr[:trials].copy() for arr in wide)
            if trials % block == 1:
                lone = reference_trials(
                    dist, gain, q, r, x0, horizon, [ws.stream_rng(seed, trials - 1)]
                )
                for arr, value in zip((cost, diverged_at, states), lone):
                    arr[-1] = value[0]
            summary = ws.mc_cost_study(
                dist, gain, q, r, x0, horizon, trials, [100.0], seed, trajectory_count=trials
            )
            assert np.array_equal(summary.costs, cost)
            assert summary.diverged == int(np.sum(diverged_at >= 0))
            assert np.array_equal(np.stack(summary.trajectories), states)
            for path in summary.trajectories:
                assert path.base is None and path.flags.c_contiguous
        cost, diverged_at, states = reference_trials(
            dist, gain, q, r, x0, horizon, [ws.stream_rng(seed, 0)]
        )
        result = ws.rollout(dist, gain, q, r, x0, horizon, seed=ws.stream_rng(seed, 0))
        assert result.cost == cost[0]
        assert result.diverged_at == (None if diverged_at[0] < 0 else diverged_at[0])
        assert np.array_equal(result.states, states[0, : len(result.states)])
        assert result.states.base is None


@pytest.mark.parametrize(
    "n, m, horizon, block, want",
    [(2, 1, 300, simulate._BLOCK, 3_690_496), (1, 1, 300, 512, None), (3, 2, 37, 512, None),
     (1, 2, 2, 3, None), (2, 1, 5, 1, None), (2, 2, 0, 7, None), (3, 1, 1, 1, None)],
)
def test_workspace_bytes_follow_the_docstring_formula(n, m, horizon, block, want):
    dist = _aliasing_system(n, m)
    work = simulate._Workspace(dist, horizon, block)
    total = work.states.nbytes + work.closed.nbytes
    assert total == _workspace_bytes(n, m, horizon, block)
    if want is not None:
        assert total == want


@pytest.mark.parametrize(
    "gain", [[[6.683243074124488, 7.448763532065042]], [[-6.5, -6.5]]], ids=["stable", "diverging"]
)
def test_study_bytes_do_not_depend_on_the_block_width(benchmark_dist, monkeypatch, gain):
    # (block, chunk bytes): 512 and 256 trials in chunks of 72 and 36, and
    # blocks of 5 in chunks of one trial, whose last block is a lone trial.
    # At n = 2 every width sums each product in the same order.
    widths = [(512, 2**20), (256, 2**19), (5, 2**12)]
    trials, horizon = 601, 300
    args = (benchmark_dist, np.array(gain), 3.0 * np.eye(2), np.eye(1), [1.0, 1.0], horizon)
    studies = []
    for block, chunk_bytes in widths:
        monkeypatch.setattr(simulate, "_BLOCK", block)
        monkeypatch.setattr(simulate, "_CHUNK_BYTES", chunk_bytes)
        studies.append(ws.mc_cost_study(
            *args, trials, [1, 5, 10, 20, 50, 100], seed=7, trajectory_count=trials
        ))
    assert trials % 5 == 1 and simulate._Workspace(benchmark_dist, horizon, 5).chunk == 1
    first = studies[0]
    assert (first.diverged > 0) == (gain[0][0] < 0)
    for other in studies[1:]:
        assert np.array_equal(other.costs, first.costs)
        assert other.tail_averages == first.tail_averages
        assert other.diverged == first.diverged
        assert np.array_equal(np.stack(other.trajectories), np.stack(first.trajectories))


@pytest.mark.parametrize(
    "n, m, horizon, trials", [(2, 1, 300, 585), (1, 2, 37, 1100), (3, 1, 2, 5)]
)
def test_kernel_views_are_aligned_and_contiguous_in_their_buffers(
    monkeypatch, n, m, horizon, trials
):
    # Every array the kernel takes is a view of one of the workspace's two
    # buffers that is C-contiguous and starts on a 64-byte line of it. The
    # large gain sends the overflow test through its squares and norms.
    buffers, views = [], []
    workspace, prefix = simulate._Workspace, simulate._prefix

    def recording_workspace(*args):
        work = workspace(*args)
        buffers.extend([work.states, work.closed])
        return work

    def recording_prefix(buffer, *shape):
        view = prefix(buffer, *shape)
        views.append(view)
        return view

    monkeypatch.setattr(simulate, "_Workspace", recording_workspace)
    monkeypatch.setattr(simulate, "_prefix", recording_prefix)
    dist = _aliasing_system(n, m)
    x0 = 0.3 * simulate.OVERFLOW_LIMIT * np.ones(n) / np.sqrt(n)
    summary = ws.mc_cost_study(
        dist, 1e3 * np.ones((m, n)), np.eye(n), np.eye(m), x0, horizon, trials, [100.0], seed=3
    )
    # One block: the closed-loop array, one chunk's draws and closed-loop
    # matrices, the states, the squares, the norms and the two fold buffers.
    assert summary.diverged > 0
    assert len(buffers) == 2 and len(views) >= 8
    for view in views:
        assert view.flags.c_contiguous
        (owner,) = [buf for buf in buffers if np.shares_memory(view, buf)]
        offset = view.ctypes.data - owner.ctypes.data
        assert offset % 64 == 0
        assert 0 <= offset and offset + view.nbytes <= owner.nbytes
    # Arrays live at the same time are taken one after the other, and must
    # not overlap: a chunk's draws (3-d) and closed-loop matrices (4-d), the
    # squares (3-d) and norms (2-d), and the two fold buffers (2-d, of one
    # shape). An overlap of the squares and norms would cost a hidden copy.
    for first, second in zip(views, views[1:]):
        if (first.ndim, second.ndim) in {(3, 4), (3, 2)} or (
            first.ndim == 2 and first.shape == second.shape
        ):
            assert not np.shares_memory(first, second)


@pytest.mark.parametrize(
    "gain", [[[6.683243074124488, 7.448763532065042]], [[-6.5, -6.5]]], ids=["stable", "diverging"]
)
def test_study_peaks_within_its_two_buffers(benchmark_dist, gain):
    # The two-buffer bound of the simulate module docstring, for the example
    # system at 300 steps, plus 2 MiB for Python objects; a 300-step rollout
    # stays under 48 KiB. Under the diverging gain every block runs the
    # overflow test, whose norms must not overlap its squares: numpy would
    # then copy the squares, 2.4 MB more.
    horizon = 300
    workspace = _workspace_bytes(2, 1, horizon, simulate._BLOCK)
    args = (benchmark_dist, np.array(gain), 3.0 * np.eye(2), np.eye(1), [1.0, 1.0], horizon)
    ws.mc_cost_study(*args, 3, [100.0], seed=7)
    tracemalloc.start()
    try:
        summary = ws.mc_cost_study(*args, 1100, [100.0], seed=7)
        study_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ws.rollout(*args, seed=7)
        rollout_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (summary.diverged > 0) == (gain[0][0] < 0)
    assert study_peak <= workspace + 2 * 2**20
    assert rollout_peak < 48 * 2**10

#: sha256 of the simulate outputs below, as written before the block kernel.
PINNED = {
    "costs.csv": "95e7b2ac90a3c610dd6fba0ec4c2db3ae009caed4ae85ef6b773727648b4b75e",
    "tail.csv": "ca5ea9a39386cbf0a2f6c0f9108a334937dc43c33a9316c9061add0e0adf007a",
    "trajectories.csv": "85059951ed31aed7a0a6e7089e830e31d2923a57738132600cca2cac21a2d167",
    "summary.csv": "2c9dba742d4099a79e435bcba5481488d897e80261bbcb619ea7631024d57c18",
}


def test_simulate_outputs_are_pinned(tmp_path):
    # The example system and costs with the frozen RRSL theta = 1 gain of its
    # 10k-bank design: 1,500 trials, six blocks of 256 or fewer.
    example = yaml.safe_load(EXAMPLE.read_text())
    config = {
        "system": example["system"],
        "cost": example["cost"],
        "task": {
            "gain": [[6.683243074124488, 7.448763532065042]],
            "x0": [1.0, 1.0],
            "horizon": 300,
            "trials": 1500,
            "rho_list": [1, 5, 10, 20, 50, 100],
            "trajectory_count": 10,
            "seed": 7,
        },
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    assert main(["simulate", str(path)]) == 0
    for name, digest in PINNED.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name
