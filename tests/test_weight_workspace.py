"""The stacked weight pass in a reused workspace.

Each lockstep call creates one ``weights._Workspace``, and each round's
pass works in place in its one float stack: predictive costs, sigmoid
arguments, raw and normalized weights, each written over the one before.
Single-bank calls run the same pass on buffers of their own and copy the
costs and raw weights out. Either way every result must be the same bits,
or the same error, as on fresh arrays, whatever the shapes the workspace
served before, and no result of a single-bank call may share the buffers.
Once a solve returns, its workspace is gone.
"""

import dataclasses
import functools
import gc
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import wsriccati as ws
from wsriccati import config as config_mod
from wsriccati import riccati, weights
from wsriccati.errors import NumericalError
from wsriccati.weights import _expit

import reference
from conftest import MEAN_A, MEAN_B, Q2, R1
from reference import _raw_from_costs

EXAMPLE = Path(__file__).resolve().parent.parent / "configs" / "example.yaml"

#: The two bank sizes of the property test.
SIZES = (9, 16)


@functools.lru_cache(maxsize=None)
def _bank(size: int, poisoned: bool):
    """A bank of the two-state system; a poisoned one has a draw whose costs overflow."""
    dist = ws.build_distribution(
        2, 1, MEAN_A, MEAN_B, family_a="normal", family_b="laplace", stddev_scale=0.1
    )
    bank = ws.draw_bank(dist, size, seed=size)
    if not poisoned:
        return bank
    a = bank.a.copy()
    a[size // 2, 0, 0] = 1e160
    with np.errstate(over="ignore"):
        return ws.SampleBank(a=a, b=bank.b)


def _oracle(spec, thetas, costs):
    """Raw and normalized weights of the costs by the full expressions, on new arrays."""
    size = costs.shape[1]
    theta = np.array(thetas)[:, None]
    mean = np.add.reduce(costs, axis=1, keepdims=True) / size
    if spec.family == "RSL":
        raw = np.exp(theta * costs)
    else:
        raw = 1.0 + theta * _expit(spec.alpha * costs - spec.beta * mean)
    return raw, raw / (np.add.reduce(raw, axis=-1, keepdims=True) / size)


def _outcome(fn):
    try:
        return fn()
    except NumericalError as exc:
        return exc


_row = st.tuples(
    st.sampled_from([0.0, -0.5, 0.3, 1.0, -2.0, 5.0]),  # theta
    st.sampled_from([1.0, 100.0]),  # scale of the value matrix
    st.sampled_from([False] * 7 + [True]),  # a poisoned bank
    st.integers(0, 2**16),  # seed of the policy
)
_call = st.tuples(
    st.sampled_from(SIZES),
    st.sampled_from(["RSL", "RRSL"]),
    st.lists(_row, min_size=1, max_size=5),
)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(_call, min_size=2, max_size=5), st.booleans())
def test_workspace_pass_equals_the_owned_pass(calls, scribble):
    # Consecutive passes on one workspace grow and shrink their row count
    # and switch bank size; with ``scribble`` every buffer is overwritten
    # with garbage between passes, so a stale entry that were read would
    # show. Thetas 0 and negative, RSL overflow (theta 5 on the large
    # values), negative RRSL weights (theta -2) and non-finite costs (the
    # poisoned banks) all occur.
    work = weights._Workspace()
    for size, family, rows in calls:
        if family == "RRSL":
            spec = ws.WeightSpec(family=family, alpha=10.0, beta=11.0)
        else:
            spec = ws.WeightSpec(family=family)
        thetas, gains, values, banks = [], [], [], []
        for theta, scale, poisoned, seed in rows:
            rng = np.random.default_rng(seed)
            root = rng.standard_normal((2, 2))
            thetas.append(theta)
            values.append(scale * (root @ root.T + np.eye(2)))
            gains.append(rng.standard_normal((1, 2)))
            banks.append(_bank(size, poisoned))
        args = (
            banks, [spec] * len(rows), thetas, np.array(gains), np.array(values),
            np.repeat(Q2[None], len(rows), axis=0), np.repeat(R1[None], len(rows), axis=0),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            owned = _outcome(lambda: weights._weigh_all(*args))
            shared = _outcome(lambda: weights._weigh_all(*args, work=work))
        if isinstance(owned, NumericalError):
            assert type(shared) is type(owned) and str(shared) == str(owned)
        else:
            assert not isinstance(shared, NumericalError), shared
            assert np.array_equal(shared, owned[2])
            with np.errstate(over="ignore", invalid="ignore"):
                raw, normalized = _oracle(spec, thetas, owned[0])
            assert np.array_equal(owned[1], raw)
            assert np.array_equal(owned[2], normalized)
        if scribble:
            for buf in work._buffers:
                buf[...] = True if buf.dtype == bool else np.nan


def _policy(seed):
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((2, 2))
    return rng.standard_normal((1, 2)), 50.0 * (root @ root.T) + Q2


def test_a_second_weight_vector_leaves_the_first_unchanged(bank2k, rrsl_spec):
    gain, value = _policy(1)
    first = ws.weight_vector(bank2k, rrsl_spec, 1.0, gain, value, Q2, R1)
    kept = first.copy()
    other_gain, other_value = _policy(2)
    second = ws.weight_vector(bank2k, rrsl_spec, 0.5, other_gain, other_value, Q2, R1)
    assert not np.array_equal(second, kept)
    assert np.array_equal(first, kept)


@pytest.mark.parametrize("family, theta", [("RRSL", 1.0), ("RSL", 0.001), ("RN", 0.0)])
def test_a_second_weighted_bank_leaves_the_first_unchanged(bank2k, family, theta):
    spec = ws.WeightSpec(family=family, theta=theta, alpha=10.0, beta=11.0)
    gain, value = _policy(3)
    first = ws.build_weighted_bank(bank2k, spec, theta, gain, value, Q2, R1)
    kept = {name: getattr(first, name).copy() for name in ("weights", "raw_weights", "predictive")}
    other_gain, other_value = _policy(4)
    second = ws.build_weighted_bank(bank2k, spec, theta, other_gain, other_value, Q2, R1)
    # An evaluation of the maps between the two calls runs the weight pass too.
    problem = ws.DesignProblem(bank=bank2k, q=Q2, r=R1, weights=spec)
    reference._maps(problem, value, gain)
    assert not np.array_equal(second.predictive, kept["predictive"])
    for name, array in kept.items():
        assert np.array_equal(getattr(first, name), array), name
    for name in ("raw_weights", "predictive"):
        assert not np.shares_memory(getattr(first, name), getattr(second, name)), name


def _sweep(family, thetas, size, seed):
    dist = ws.build_distribution(
        2, 1, MEAN_A, MEAN_B, family_a="normal", family_b="laplace", stddev_scale=0.1
    )
    bank = ws.draw_bank(dist, size, seed=seed)
    return [
        ws.DesignProblem(
            bank=bank, q=Q2, r=R1,
            weights=ws.WeightSpec(family=family, theta=theta, alpha=10.0, beta=11.0),
        )
        for theta in thetas
    ]


def _same(got, want):
    if isinstance(want, NumericalError):
        return type(got) is type(want) and str(got) == str(want)
    return (
        np.array_equal(got.value, want.value)
        and np.array_equal(got.gain, want.gain)
        and got.deltas == want.deltas
    )


def test_solves_in_threads_return_the_serial_bits():
    # The sweeps stack the same shapes, so a workspace shared between the
    # threads would hand one thread's weights to another. There are more
    # threads than the two cores the suite was written on.
    sweeps = [
        _sweep("RRSL", (0.25, 0.5, 1.0), 4_000, 11),
        _sweep("RRSL", (0.75, 1.5, 2.0), 4_000, 12),
        _sweep("RRSL", (0.5, 1.25, 3.0), 4_000, 13),
    ]
    options = ws.SolverOptions(fp_max_iters=400)
    want = [ws.solve_all(problems, options) for problems in sweeps]
    start = threading.Barrier(len(sweeps))
    got = [None] * len(sweeps)

    def run(k):
        start.wait()
        got[k] = [ws.solve_all(sweeps[k], options) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(sweeps))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for runs, expected in zip(got, want):
        assert runs is not None
        for results in runs:
            assert all(_same(g, w) for g, w in zip(results, expected))


#: Traced bytes from which an allocation counts as large: glibc's default
#: threshold for serving it with its own mmap.
LARGE = 128 * 2**10


def _count_large_allocations(fn) -> int:
    """Lines of the package whose run raised the traced memory by LARGE or more.

    Every line executed in ``wsriccati`` is one interval of a line tracer,
    which resets tracemalloc's peak at each line; an interval whose peak
    rose ``LARGE`` above its start allocated a block that large (or several
    smaller ones live at once) and counts once. A snapshot filtered to
    numpy's domain would see only the blocks still live, not the ones a
    round allocates and frees, so the peak is taken over every domain: no
    Python object a round makes comes near ``LARGE``.
    """
    package = str(Path(ws.__file__).parent)
    count = 0
    start = 0

    def on_line(frame, event, arg):
        nonlocal count, start
        if event == "line":
            current, peak = tracemalloc.get_traced_memory()
            count += peak - start >= LARGE
            tracemalloc.reset_peak()
            start = current
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(package) else None

    previous = sys.gettrace()
    tracemalloc.start()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
        tracemalloc.stop()
    return count


def test_sweep_rounds_allocate_no_stack_sized_temporaries(monkeypatch):
    # The example sweep: 11 theta on the 10k bank, ten of them weighted.
    config = config_mod.load_config(EXAMPLE)
    bank = config_mod.make_bank(config)
    problems = [config_mod.make_problem(config, bank, theta=t) for t in config.task.theta_grid]
    rounds = []
    evaluate = riccati._evaluate

    def spy(requests, work):
        rounds.append(len(requests))
        return evaluate(requests, work)

    monkeypatch.setattr(riccati, "_evaluate", spy)
    large = _count_large_allocations(lambda: ws.solve_all(problems, config.solver))
    # Each round's (10, 10k) stack is 800 KB; only the sigmoid's temporaries
    # of a round whose window holds a large share of the draws, and the
    # workspace when it first grows, reach the threshold.
    assert large < len(rounds), (large, len(rounds))


#: Traced bytes a solve may leave allocated once it has returned.
HELD = 64 * 2**10


def _left_behind(fn) -> tuple[int, int]:
    """Live ``weights._Workspace`` objects and traced bytes once ``fn`` has returned."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    alive = sum(isinstance(obj, weights._Workspace) for obj in gc.get_objects())
    return alive, held


def test_solves_release_their_scratch():
    # The example sweep (ten weighted points on the 10k bank, 2.6 MB of
    # workspace at its widest) and a Newton design on the same bank, whose
    # Jacobian requests weigh ten points a round. The theta = 0 warm-up
    # weighs nothing but makes the lazy imports and caches the solves reach.
    config = config_mod.load_config(EXAMPLE)
    bank = config_mod.make_bank(config)
    problems = [config_mod.make_problem(config, bank, theta=t) for t in config.task.theta_grid]
    newton = dataclasses.replace(config.solver, method="newton")
    ws.solve(problems[0], newton)
    for fn in (
        lambda: ws.solve_all(problems, config.solver),
        lambda: ws.solve(problems[-1], newton),
    ):
        alive, held = _left_behind(fn)
        assert alive == 0
        assert held < HELD, held


@pytest.mark.parametrize("length", [1, 3, 7])
def test_sliced_sigmoid_window_equals_the_full_expression(monkeypatch, length):
    # With alpha = 10 and beta = 11, x = 10 J - 11 mean(J) runs from about
    # -55 to 45: each row has draws below the window, above it and inside
    # it, in shuffled order, and rows of 13 draws put slice boundaries
    # inside rows. Theta 0 leaves its row's window empty.
    monkeypatch.setattr(weights, "_SLICE", length)
    spec = ws.WeightSpec(family="RRSL", alpha=10.0, beta=11.0)
    thetas = [-2.0, 0.0, 0.3, 1.0]
    rng = np.random.default_rng(length)
    grid = np.linspace(0.0, 10.0, 13) + rng.uniform(-0.05, 0.05, (len(thetas), 1))
    costs = rng.permuted(grid, axis=1)
    mean = np.add.reduce(costs, axis=1, keepdims=True) / costs.shape[1]
    want, _ = _oracle(spec, thetas, costs)
    x = spec.alpha * costs - spec.beta * mean
    for k, theta in enumerate(thetas):
        low = weights._window_floor(theta)
        inside = (x[k] >= low) & (x[k] < weights._EXPIT_ONE)
        assert inside.sum() > length if theta else not inside.any()
        assert (x[k] < low).any() and (x[k] >= weights._EXPIT_ONE).any()
    theta = np.array(thetas)[:, None]
    assert np.array_equal(_raw_from_costs(spec, theta, costs, mean), want)
    for k in range(len(thetas)):
        # A stack of one row and a lone row with a float theta.
        row = _raw_from_costs(spec, theta[k : k + 1], costs[k : k + 1], mean[k : k + 1])
        assert np.array_equal(row, want[k : k + 1])
        alone = _raw_from_costs(spec, thetas[k], costs[k], mean[k, 0])
        assert np.array_equal(alone, want[k])


def test_an_rrsl_pass_allocates_no_stack_sized_temporaries(benchmark_dist):
    # At the policy (0, 0) every cost is tr(Q) = 6, so x = -6 for every draw
    # of the (10, 10k) stack: the whole stack lies in the sigmoid window, as
    # in the first round of every RRSL solve. Past the workspace, the pass
    # holds at most 8 _SLICE of the window's flat indices (128 KB, where an
    # index of the whole window took 800 KB) and slices far below LARGE.
    bank = ws.draw_bank(benchmark_dist, 10_000, seed=5)
    rows = 10
    spec = ws.WeightSpec(family="RRSL", alpha=10.0, beta=11.0)
    args = (
        [bank] * rows, [spec] * rows, [0.25 * (k + 1) for k in range(rows)],
        np.zeros((rows, 1, 2)), np.zeros((rows, 2, 2)),
        np.repeat(Q2[None], rows, axis=0), np.repeat(R1[None], rows, axis=0),
    )
    work = weights._Workspace()
    weights._weigh_all(*args, work=work)
    window = work._buffers[weights._Workspace.WINDOW][: rows * bank.size]
    assert window.all()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        weights._weigh_all(*args, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 2**20, peak - start


#: Bytes a weight pass may allocate beyond its workspace, whatever its stack:
#: at most 8 ``_SLICE`` flat indices of the RRSL window (128 KB) and one
#: slice's temporaries, about 200 KB at most.
PASS_CAP = 2**19


@pytest.mark.parametrize("rows", [10, 20])
def test_an_rrsl_pass_holds_a_capped_window_index(benchmark_dist, rows):
    # At the policy (0, 0) every draw of the (rows, 10k) stack lies in the
    # sigmoid window, as in the first round of every RRSL solve; an index
    # of the whole window would take 8 bytes of each of its draws.
    bank = ws.draw_bank(benchmark_dist, 10_000, seed=5)
    spec = ws.WeightSpec(family="RRSL", alpha=10.0, beta=11.0)
    args = (
        [bank] * rows, [spec] * rows, [0.25 * (k + 1) for k in range(rows)],
        np.zeros((rows, 1, 2)), np.zeros((rows, 2, 2)),
        np.repeat(Q2[None], rows, axis=0), np.repeat(R1[None], rows, axis=0),
    )
    work = weights._Workspace()
    weights._weigh_all(*args, work=work)
    assert work._buffers[weights._Workspace.WINDOW][: rows * bank.size].all()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        weights._weigh_all(*args, work=work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= PASS_CAP, peak - start


#: Bytes per window entry of every temporary ``weights._rrsl_raw`` makes for
#: one slice, counted as if all were alive at once: the entries' row index
#: (intp), their theta and their x; in ``_expit`` the negation, its cast to
#: complex, the complex exponential, the mask below the cexp floor (bool)
#: and the quotient; then the product with theta and the sum with 1.
SLICE_BYTES_PER_ENTRY = 8 + 8 + 8 + 8 + 16 + 16 + 1 + 8 + 8 + 8


def _assert_round_within_declared_scratch(requests, draws):
    """One ``riccati._evaluate`` round on a new workspace, its ``draws`` all in the window.

    It may allocate the declared scratch of each draw of each point, which
    the lockstep sizes its batches by, and one slice's temporaries.
    """
    riccati._evaluate(requests)  # fills the lazy caches the round reaches
    work = weights._Workspace()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        outcomes = riccati._evaluate(requests, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(x, NumericalError) for outcome in outcomes for x in outcome)
    assert work._buffers[weights._Workspace.WINDOW][:draws].all()
    bound = draws * weights._Workspace.BYTES_PER_DRAW + SLICE_BYTES_PER_ENTRY * weights._SLICE
    assert peak - start <= bound, (peak - start, bound)


@pytest.mark.parametrize("count", [1, 19])
def test_a_maps_round_allocates_within_the_declared_scratch(benchmark_dist, count):
    # At (0, 0) every cost is tr(Q) = 6, so x = -6 puts every draw of each
    # 2k bank in the sigmoid window, as in the first round of every RRSL
    # solve; 19 points on their own banks come near the 20 redesigns a
    # round of the example's robustness study holds.
    spec = ws.WeightSpec(family="RRSL", theta=1.0, alpha=10.0, beta=11.0)
    banks = [ws.draw_bank(benchmark_dist, 2000, seed=k) for k in range(count)]
    requests = [
        ("maps", ws.DesignProblem(bank=bank, q=Q2, r=R1, weights=spec),
         [(np.zeros((2, 2)), np.zeros((1, 2)))])
        for bank in banks
    ]
    _assert_round_within_declared_scratch(requests, count * 2000)


def test_a_jacobian_request_allocates_within_the_declared_scratch(rrsl_problem_2k):
    # Newton's central differences at z = 0: ten points next to (0, 0).
    request = next(riccati._fd_jacobian(np.zeros(5), rrsl_problem_2k))
    assert len(request[2]) == 10
    _assert_round_within_declared_scratch([request], 10 * rrsl_problem_2k.bank.size)


def test_the_workspace_holds_one_float_stack_and_two_masks():
    work = weights._Workspace()
    stack, saturated, window = work.take((3, 7))
    assert [buf.dtype for buf in work._buffers] == [np.float64, np.bool_, np.bool_]
    assert window.base is work._buffers[weights._Workspace.WINDOW]
    assert (stack.shape, saturated.shape, window.shape) == ((3, 7),) * 3
    # The stack, one window index and one window value per draw.
    assert weights._Workspace.BYTES_PER_DRAW == 8 + 1 + 1 + 8 + 8


def _stacked_args(bank, spec, thetas, gains, values):
    rows = len(thetas)
    return (
        [bank] * rows, [spec] * rows, list(thetas), np.array(gains), np.array(values),
        np.repeat(Q2[None], rows, axis=0), np.repeat(R1[None], rows, axis=0),
    )


def test_a_row_whose_cost_sum_overflows_raises_as_alone(benchmark_dist):
    # Draws 3 and 7 cost about 1e308 each: every cost is finite, but their
    # sum overflows, so 11 mean(J) and 10 J are inf and their sigmoid
    # arguments inf - inf = NaN. The NaN lies in the window, its raw weight
    # is NaN, and normalization raises for the first of them.
    bank = ws.draw_bank(benchmark_dist, 16, seed=3)
    a = bank.a.copy()
    a[[3, 7], 0, 0] = 1e154
    with np.errstate(over="ignore"):
        poisoned = ws.SampleBank(a=a, b=bank.b)
    spec = ws.WeightSpec(family="RRSL", alpha=10.0, beta=11.0)
    gains, values = [np.zeros((1, 2))] * 2, [np.eye(2)] * 2
    with np.errstate(over="ignore", invalid="ignore"):
        costs = ws.predictive_costs(poisoned.a, poisoned.b, gains[0], values[0], None, Q2, R1)
        assert np.isfinite(costs).all() and not np.isfinite(np.add.reduce(costs))
        args = _stacked_args(poisoned, spec, [0.5, 1.0], gains, values)
        args[0][0] = bank  # a healthy row before the poisoned one
        for work in (None, weights._Workspace()):
            with pytest.raises(ws.NonFiniteError) as caught:
                weights._weigh_all(*args, work=work)
            assert str(caught.value) == "raw weight non-finite at sample 3"


def test_rsl_overflow_raises_the_first_flagged_rows_message(bank2k):
    spec = ws.WeightSpec(family="RSL")
    thetas = [0.001, 5.0, 5.0]
    gains = [np.zeros((1, 2))] * 3
    values = [np.eye(2), 100.0 * np.eye(2), 200.0 * np.eye(2)]
    costs = [ws.predictive_costs(bank2k.a, bank2k.b, g, v, None, Q2, R1) for g, v in zip(gains, values)]
    worst = (thetas[1] * costs[1]).max()
    assert worst > weights.RSL_MAX_EXPONENT
    want = f"RSL weight overflow: theta * J reaches {worst:.6g}, beyond exp(700)"
    for work in (None, weights._Workspace()):
        with pytest.raises(ws.WeightOverflowError) as caught:
            weights._weigh_all(*_stacked_args(bank2k, spec, thetas, gains, values), work=work)
        assert str(caught.value) == want


def test_a_window_past_the_cap_goes_by_segments_of_one_row(benchmark_dist, monkeypatch):
    # At P = I / 2 and L = 0 the costs spread around 7, so x = 10 J - 11
    # mean(J) puts every draw of the (2, 20k) stack in the window: 40k
    # entries, past the 8 _SLICE = 16,384 that one block may gather.
    bank = ws.draw_bank(benchmark_dist, 20_000, seed=8)
    spec = ws.WeightSpec(family="RRSL", alpha=10.0, beta=11.0)
    thetas = [0.5, -0.25]
    args = _stacked_args(bank, spec, thetas, [np.zeros((1, 2))] * 2, [0.5 * np.eye(2)] * 2)
    blocks = []
    block = weights._rrsl_block

    def spy(theta, x, saturated, window):
        blocks.append((x.shape, int(np.count_nonzero(window))))
        return block(theta, x, saturated, window)

    monkeypatch.setattr(weights, "_rrsl_block", spy)
    costs, raw, normalized = weights._weigh_all(*args)
    cap = 8 * weights._SLICE
    assert blocks == [((1, cap), cap), ((1, 20_000 - cap), 20_000 - cap)] * 2
    theta = np.array(thetas)[:, None]
    mean = np.add.reduce(costs, axis=1, keepdims=True) / bank.size
    assert np.array_equal(raw, _oracle(spec, thetas, costs)[0])
    assert np.array_equal(raw, _raw_from_costs(spec, theta, costs, mean))
    work = weights._Workspace()
    assert np.array_equal(weights._weigh_all(*args, work=work), normalized)
    assert work._buffers[weights._Workspace.WINDOW][: 2 * bank.size].all()


def test_a_ten_point_round_on_the_10k_bank_allocates_within_the_declared_scratch(benchmark_dist):
    # Ten sweep points at (0, 0): all 100k draws of the round's stack lie in
    # the sigmoid window, as in the first round of the example's sweep.
    bank = ws.draw_bank(benchmark_dist, 10_000, seed=5)
    requests = [
        ("maps", ws.DesignProblem(
            bank=bank, q=Q2, r=R1,
            weights=ws.WeightSpec(family="RRSL", theta=0.1 * k, alpha=10.0, beta=11.0),
        ), [(np.zeros((2, 2)), np.zeros((1, 2)))])
        for k in range(1, 11)
    ]
    _assert_round_within_declared_scratch(requests, 10 * bank.size)


def test_a_nan_argument_stays_in_the_window():
    # The window is the complement of x below its floor or x >= 40, so a NaN
    # argument takes the full expression and stays NaN.
    stack, saturated, window = weights._Workspace().take((1, 4))
    stack[...] = [np.nan, -100.0, 0.0, 100.0]
    raw = weights._rrsl_raw(np.array([[1.0]]), stack, saturated, window)
    assert np.array_equal(raw, [[np.nan, 1.0, 1.5, 2.0]], equal_nan=True)
    assert window.tolist() == [[True, False, True, False]]
