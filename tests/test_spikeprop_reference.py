"""The padded spike-time matrix against the per-input loops it replaced.

The functions below are verbatim copies of the earlier SpikeProp engine,
which summed the kernel and its derivative in a Python loop over inputs and
skipped empty inputs. The engine in ``spikegrad.spikeprop`` must give the
same spike times and the same df/dW on seeded nets. Which outputs never
cross threshold must agree in every case.

* Up to 7 spikes per input they are equal with ``==``. numpy sums fewer
  than 8 values strictly left to right, so the zeros the +inf padding adds
  at the end of a row change no bit.
* Up to 50 spikes per input they agree within 1e-12 relative. From 8
  values on, numpy sums a row in blocks of 8, so a row padded past a block
  boundary is grouped differently from the same row unpadded.

The same copies check the shared kernel grid: all outputs bisected together
give the spike times of bisecting each alone, a training run gives the
history, weights and thresholds of the reference loop, and the one-entry
grid cache never returns another sample's or another kernel's grid.
"""

import numpy as np
import pytest

from spikegrad import spikeprop as sp
from spikegrad.spikeprop import (
    BISECTION_DEPTH,
    BISECTION_RESIDUAL,
    GRID_BLOCK,
    DeadNeuronError,
    SrmNet,
    alpha_kernel,
    alpha_kernel_deriv,
)
from spikegrad.objectives import _square_error

# ---------------------------------------------------------------------------
# reference engine (verbatim copies of the per-input loops)


def _spike_arrays(presyn_spikes) -> list[np.ndarray]:
    return [np.asarray(f, dtype=np.float64) for f in presyn_spikes]


def _kernel_sums(presyn: list[np.ndarray], t, tau: float) -> np.ndarray:
    """Per-input summed kernel responses at time(s) t: K_i(t) = sum_k eps(t - f_ik)."""
    t = np.asarray(t, dtype=np.float64)
    sums = np.zeros((len(presyn),) + t.shape)
    for i, f in enumerate(presyn):
        if f.size:
            sums[i] = alpha_kernel(t[..., None] - f, tau).sum(axis=-1)
    return sums


def _membrane_slope(net: SrmNet, presyn: list[np.ndarray], j: int, t: float) -> float:
    """dU_j/dt at time t, from the closed-form kernel derivative."""
    slope = 0.0
    for i, f in enumerate(presyn):
        if f.size:
            slope += net.w[j, i] * float(np.sum(alpha_kernel_deriv(t - f, net.tau)))
    return slope


def find_spike_time(net: SrmNet, presyn_spikes, j: int) -> float | None:
    """First threshold crossing of output neuron j, or None if it never fires.

    Scans the fine grid for the first point above threshold, then bisects
    the bracketing interval until |U(f) - theta| < 1e-10 (typically much
    tighter; the depth cap alone narrows the bracket below 1e-15 tau).
    """
    presyn = _spike_arrays(presyn_spikes)
    grid = np.arange(0.0, net.t_end + net.dt_fine, net.dt_fine)
    u = net.w[j] @ _kernel_sums(presyn, grid, net.tau)
    above = np.nonzero(u > net.theta[j])[0]
    if above.size == 0:
        return None
    hi_idx = int(above[0])
    if hi_idx == 0:
        return float(grid[0])
    lo, hi = float(grid[hi_idx - 1]), float(grid[hi_idx])

    def membrane(t: float) -> float:
        return float(net.w[j] @ _kernel_sums(presyn, np.float64(t), net.tau))

    for _ in range(BISECTION_DEPTH):
        mid = 0.5 * (lo + hi)
        u_mid = membrane(mid)
        if abs(u_mid - net.theta[j]) < BISECTION_RESIDUAL:
            return mid
        if u_mid > net.theta[j]:
            hi = mid
        else:
            lo = mid
    return hi


def spike_time_weight_grad(net: SrmNet, presyn_spikes, j: int, f_j: float | None = None) -> np.ndarray:
    """Closed-form df_j/dW_ji for every input i.

    Raising W lifts the membrane by the summed kernel response, which moves
    the crossing earlier by that amount over the membrane slope:
    df/dW = -sum_k eps(f_j - f_ik) / (dU_j/dt at f_j).
    """
    presyn = _spike_arrays(presyn_spikes)
    if f_j is None:
        f_j = find_spike_time(net, presyn_spikes, j)
    if f_j is None:
        raise DeadNeuronError(j)
    responses = _kernel_sums(presyn, np.float64(f_j), net.tau)
    slope = _membrane_slope(net, presyn, j, f_j)
    return -responses / slope


# ---------------------------------------------------------------------------
# seeded nets


def _net_and_spikes(seed: int, max_spikes: int):
    """1-7 inputs with 0..max_spikes unsorted spikes each (empty inputs included)."""
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(1, 8))
    n_out = int(rng.integers(1, 4))
    tau = float(rng.uniform(0.5, 2.0))
    t_end = 6.0 * tau
    presyn = [rng.uniform(0.0, 0.5 * t_end, size=int(rng.integers(0, max_spikes + 1))) for _ in range(n_in)]
    total = sum(f.size for f in presyn)
    w = rng.uniform(-0.3, 1.5, size=(n_out, n_in)) * (2.5 / max(total, 1)) * rng.uniform(0.5, 4.0)
    return SrmNet(w=w, tau=tau, theta=1.0, t_end=t_end), presyn


def _compare(seeds, max_spikes: int, check) -> int:
    """Run both engines on every output of every seeded net; return the crossings seen."""
    crossings = 0
    for seed in seeds:
        net, presyn = _net_and_spikes(seed, max_spikes)
        for j in range(net.n_out):
            f_ref = find_spike_time(net, presyn, j)
            f_new = sp.find_spike_time(net, presyn, j)
            assert (f_ref is None) == (f_new is None), f"seed {seed}, output {j}: {f_ref} vs {f_new}"
            if f_ref is None:
                continue
            crossings += 1
            check(f_new, f_ref, f"seed {seed}, output {j}, time")
            check(
                sp.spike_time_weight_grad(net, presyn, j, f_new),
                spike_time_weight_grad(net, presyn, j, f_ref),
                f"seed {seed}, output {j}, df/dW",
            )
    return crossings


def _assert_equal(new, ref, where):
    assert np.array_equal(new, ref), f"{where}: {new} != {ref}"


def _assert_close(new, ref, where):
    new, ref = np.asarray(new), np.asarray(ref)
    scale = max(float(np.max(np.abs(ref))), np.finfo(np.float64).tiny)
    assert float(np.max(np.abs(new - ref))) <= 1e-12 * scale, f"{where}: {new} vs {ref}"


@pytest.mark.parametrize("block", range(4))
def test_bit_equal_up_to_seven_spikes_per_input(block):
    crossings = _compare(range(100 * block, 100 * block + 75), 7, _assert_equal)
    assert crossings >= 50


@pytest.mark.parametrize("block", range(2))
def test_close_up_to_twelve_spikes_per_input(block):
    crossings = _compare(range(500 + 75 * block, 500 + 75 * block + 75), 12, _assert_close)
    assert crossings >= 50


@pytest.mark.parametrize("block", range(2))
def test_close_up_to_fifty_spikes_per_input(block):
    crossings = _compare(range(1000 + 40 * block, 1000 + 40 * block + 40), 50, _assert_close)
    assert crossings >= 25


def test_single_spike_inputs_bit_equal():
    # the shape of the perfbench workload: one spike per input, ten inputs
    rng = np.random.default_rng(7)
    for _ in range(20):
        net = SrmNet(w=rng.uniform(0.5, 1.5, size=(2, 10)) * 0.2, tau=1.0, theta=1.0, t_end=6.0)
        presyn = [np.array([t]) for t in rng.permutation(10) * 0.2 + rng.random(10) * 0.2]
        for j in range(2):
            f_ref = find_spike_time(net, presyn, j)
            assert sp.find_spike_time(net, presyn, j) == f_ref
            if f_ref is not None:
                _assert_equal(
                    sp.spike_time_weight_grad(net, presyn, j, f_ref),
                    spike_time_weight_grad(net, presyn, j, f_ref),
                    "df/dW",
                )


def test_empty_inputs_between_spiking_ones():
    net = SrmNet(w=np.array([[0.9, 5.0, 0.7, -2.0]]), tau=1.0, theta=1.0, t_end=8.0)
    presyn = [[0.0, 0.9], [], [0.4], []]
    f_ref = find_spike_time(net, presyn, 0)
    assert f_ref is not None
    assert sp.find_spike_time(net, presyn, 0) == f_ref
    grad = sp.spike_time_weight_grad(net, presyn, 0, f_ref)
    _assert_equal(grad, spike_time_weight_grad(net, presyn, 0, f_ref), "df/dW")
    assert grad[1] == 0.0 and grad[3] == 0.0


def test_all_inputs_empty():
    net = SrmNet(w=np.ones((2, 3)), tau=1.0, theta=0.5, t_end=6.0)
    presyn = [[], [], []]
    for j in range(2):
        assert find_spike_time(net, presyn, j) is None
        assert sp.find_spike_time(net, presyn, j) is None
        with pytest.raises(DeadNeuronError):
            sp.spike_time_weight_grad(net, presyn, j)
    assert np.array_equal(sp.srm_membrane(net, presyn, np.linspace(0, 6, 7)), np.zeros((2, 7)))


# ---------------------------------------------------------------------------
# one kernel grid per sample, all outputs bisected together


def _multi_output_net(seed: int, max_spikes: int):
    """1-7 inputs, 1-4 outputs with their own thresholds; some nets steep enough
    that outputs stop by the depth rule rather than the residual."""
    rng = np.random.default_rng(seed)
    n_in = int(rng.integers(1, 8))
    n_out = int(rng.integers(1, 5))
    tau = float(rng.uniform(0.5, 2.0))
    t_end = 6.0 * tau
    presyn = [rng.uniform(0.0, 0.5 * t_end, size=int(rng.integers(0, max_spikes + 1))) for _ in range(n_in)]
    total = sum(f.size for f in presyn)
    gain = 10.0 ** rng.uniform(5.0, 9.0) if rng.random() < 0.25 else rng.uniform(0.5, 4.0)
    w = rng.uniform(-0.3, 1.5, size=(n_out, n_in)) * (2.5 / max(total, 1)) * gain
    theta = rng.uniform(0.5, 1.5, size=n_out)
    return SrmNet(w=w, tau=tau, theta=theta, t_end=t_end), presyn


def _spy_bisection_widths(monkeypatch) -> list[int]:
    """Record how many outputs each bisection step of ``_first_spikes`` evaluates."""
    widths = []
    kernel_sums = sp._kernel_sums

    def spy(spikes, t, tau):
        t = np.asarray(t)
        if t.ndim == 1 and t.size <= 4:
            widths.append(t.size)
        return kernel_sums(spikes, t, tau)

    monkeypatch.setattr(sp, "_kernel_sums", spy)
    return widths


def _compare_all_outputs(seeds, max_spikes: int, check, widths: list[int]):
    """_first_spikes over every output against the reference, output by output.

    Returns the silent outputs, the nets whose outputs stopped at different
    bisection steps, and the nets that bisected to the depth cap.
    """
    silent = staggered = to_depth = 0
    for seed in seeds:
        net, presyn = _multi_output_net(seed, max_spikes)
        widths.clear()
        got = sp._first_spikes(net, sp._spike_arrays(presyn, net.n_in), range(net.n_out))
        ref = [find_spike_time(net, presyn, j) for j in range(net.n_out)]
        assert [f is None for f in got] == [f is None for f in ref], f"seed {seed}: {got} vs {ref}"
        for j, (f_new, f_ref) in enumerate(zip(got, ref)):
            if f_ref is not None:
                check(f_new, f_ref, f"seed {seed}, output {j}")
        silent += ref.count(None)
        staggered += any(b < a for a, b in zip(widths, widths[1:]))
        to_depth += len(widths) == BISECTION_DEPTH
    return silent, staggered, to_depth


@pytest.mark.parametrize("block", range(4))
def test_all_outputs_together_equal_the_reference_up_to_seven_spikes(block, monkeypatch):
    widths = _spy_bisection_widths(monkeypatch)
    silent, staggered, to_depth = _compare_all_outputs(
        range(3000 + 75 * block, 3000 + 75 * block + 75), 7, _assert_equal, widths
    )
    assert silent >= 10 and staggered >= 10 and to_depth >= 3


@pytest.mark.parametrize("block", range(2))
def test_all_outputs_together_close_to_the_reference_up_to_fifty_spikes(block, monkeypatch):
    widths = _spy_bisection_widths(monkeypatch)
    silent, staggered, to_depth = _compare_all_outputs(
        range(4000 + 40 * block, 4000 + 40 * block + 40), 50, _assert_close, widths
    )
    assert silent >= 5 and staggered >= 5


def test_threshold_on_a_grid_membrane_brackets_as_the_reference():
    # theta equal to one grid value of U_j: which grid point is the first above
    # threshold depends on the last bit of the grid membrane, so only the same
    # per-output product as the reference finds the same bracket
    cases = past_first_block = 0
    for seed in range(5000, 5040):
        net, presyn = _multi_output_net(seed, 3)
        grid = np.arange(0.0, net.t_end + net.dt_fine, net.dt_fine)
        for j in range(net.n_out):
            u = net.w[j] @ _kernel_sums(_spike_arrays(presyn), grid, net.tau)
            rising = np.nonzero((u[1:] > u[:-1]) & (u[1:] > 0.0))[0]
            if rising.size == 0:
                continue
            net.theta[j] = u[1 + rising[rising.size // 3]]
            cases += 1
            past_first_block += np.flatnonzero(u > net.theta[j])[0] >= GRID_BLOCK
        got = sp._first_spikes(net, sp._spike_arrays(presyn, net.n_in), range(net.n_out))
        assert got == [find_spike_time(net, presyn, j) for j in range(net.n_out)], f"seed {seed}"
    assert cases >= 40 and past_first_block >= 10


def _workload_samples(seed: int, n_samples: int, weak_output: float = 1.0):
    """10 inputs with one jittered spike each and 2 outputs, as in the perfbench
    workload: targets 0.1 tau after and before the initial crossings.  A weak
    second output is silent in the initial net, gets the target 1.5 tau and
    needs threshold drops."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, size=(2, 10)) * 0.2
    w[1] *= weak_output
    net = SrmNet(w=w, tau=1.0, theta=1.0, t_end=6.0)
    samples = []
    for _ in range(n_samples):
        presyn = [np.array([t]) for t in (rng.permutation(10) + rng.random(10)) * 0.2]
        first = [find_spike_time(net, presyn, j) for j in range(2)]
        targets = np.array([1.5 if f is None else f + shift for f, shift in zip(first, (0.1, -0.1))])
        samples.append((presyn, targets))
    return net, samples


def _reference_train(net: SrmNet, samples, lr: float, epochs: int, factor: float = 0.9):
    """train_spikeprop's loop on the reference find_spike_time and df/dW."""
    rows, drops = [], 0
    for epoch in range(epochs):
        epoch_loss = 0.0
        for presyn, targets in samples:
            while True:
                first = [find_spike_time(net, presyn, j) for j in range(net.n_out)]
                if None not in first:
                    break
                drops += 1
                assert drops <= 200, "the reference loop needs more threshold drops than train_spikeprop allows"
                net.theta[first.index(None)] *= factor
            _, dl_df = _square_error(targets, np.array(first))
            grad = np.zeros_like(net.w)
            for j, f_j in enumerate(first):
                grad[j] = dl_df[j] * spike_time_weight_grad(net, presyn, j, f_j)
            net.w = net.w - lr * grad
            first = [find_spike_time(net, presyn, j) for j in range(net.n_out)]
            epoch_loss += float("inf") if None in first else _square_error(targets, np.array(first))[0]
        rows.append((epoch, epoch_loss / len(samples)))
    return rows, drops


@pytest.mark.parametrize("seed, weak_output", [(0, 1.0), (7, 1.0), (11, 0.4)])
def test_training_equals_the_reference_loop(seed, weak_output):
    net, samples = _workload_samples(seed, 6, weak_output)
    ref_net = SrmNet(w=net.w.copy(), tau=net.tau, theta=net.theta.copy(), t_end=net.t_end)
    rows, drops = _reference_train(ref_net, samples, lr=0.01, epochs=3)
    history = sp.train_spikeprop(net, samples, lr=0.01, epochs=3)
    assert history.rows == rows
    assert history.threshold_interventions == drops
    assert (drops > 0) == (weak_output < 1.0)
    assert np.array_equal(net.w, ref_net.w)
    assert np.array_equal(net.theta, ref_net.theta)


def _block_edges(size: int) -> list[int]:
    """Starts at multiples of GRID_BLOCK; the last block runs to the end of the grid."""
    return list(range(0, max(size // GRID_BLOCK, 1) * GRID_BLOCK, GRID_BLOCK)) + [size]


def _assert_blocks_are_the_whole_grid(kernel_grid, net, spikes):
    fresh = np.arange(0.0, net.t_end + net.dt_fine, net.dt_fine)
    assert np.array_equal(kernel_grid.grid, fresh)
    assert kernel_grid.edges == _block_edges(fresh.size)
    whole = sp._kernel_sums(spikes, fresh, net.tau)
    for b, (start, stop) in enumerate(zip(kernel_grid.edges, kernel_grid.edges[1:])):
        assert np.array_equal(kernel_grid.block(b), whole[:, start:stop]), f"block {b}"


def test_grid_cache_keys_on_the_kernel_and_every_spike():
    presyn = [[0.1, 0.9], [0.3], []]
    moved = [[0.1, 0.9], [0.35], []]
    base = dict(w=np.array([[1.0, 0.8, 0.5], [0.6, 1.3, 0.2]]), tau=1.0, theta=1.0, t_end=6.0, dt_fine=0.001)
    variants = [
        (base, moved),
        ({**base, "tau": 1.1}, presyn),
        ({**base, "t_end": 6.5}, presyn),
        ({**base, "dt_fine": 0.0008}, presyn),
    ]
    for kwargs, spikes_of in variants:
        sp._first_spikes(SrmNet(**base), sp._spike_arrays(presyn, 3), range(2))  # fills the cache
        net, spikes = SrmNet(**kwargs), sp._spike_arrays(spikes_of, 3)
        _assert_blocks_are_the_whole_grid(sp._grid_sums(net, spikes), net, spikes)
        got = sp._first_spikes(net, spikes, range(2))
        assert got == [find_spike_time(net, spikes_of, j) for j in range(2)], kwargs
        assert None not in got


def test_grid_arrays_are_read_only():
    net = SrmNet(w=np.ones((1, 2)), tau=1.0, theta=1.0, t_end=5.0)
    kernel_grid = sp._grid_sums(net, sp._spike_arrays([[0.2], [0.4, 1.0]], net.n_in))
    grid, block = kernel_grid.grid, kernel_grid.block(1)
    assert not grid.flags.writeable and not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 1.0
    with pytest.raises(ValueError):
        grid[0] = 1.0


@pytest.mark.parametrize("n_in", range(1, 13))
def test_block_products_equal_the_whole_grid_product(n_in):
    # every block starts at a multiple of 8 and, but for the last, is a multiple
    # of 8 wide, so numpy groups each block's dot products as it groups the same
    # columns of the whole-grid product.  Blocks 510 wide, or a last block only 2
    # or 3 points wide (sizes 514 and 515 cut at 512), are grouped differently.
    rng = np.random.default_rng(6000 + n_in)
    sizes = (300, 512, 513, 514, 515, 1026, 1027, 1031, 2056, 4099, 6001)
    for k, size in zip((1, 2, 3, 5, 7, 8, 9, 16, 25, 33, 50), sizes):
        tau = float(rng.uniform(0.5, 2.0))
        dt_fine = tau / 1000.0
        net = SrmNet(w=rng.uniform(-0.5, 1.5, size=(4, n_in)), tau=tau, theta=1.0, t_end=(size - 1.5) * dt_fine)
        presyn = [rng.uniform(0.0, net.t_end, size=k) for _ in range(n_in)]
        spikes = sp._spike_arrays(presyn, n_in)
        kernel_grid = sp._KernelGrid(spikes, net.tau, net.t_end, net.dt_fine)
        assert kernel_grid.grid.size == size
        _assert_blocks_are_the_whole_grid(kernel_grid, net, spikes)
        whole = sp._kernel_sums(spikes, kernel_grid.grid, net.tau)
        for j in range(net.n_out):
            u = net.w[j] @ whole
            for b, (start, stop) in enumerate(zip(kernel_grid.edges, kernel_grid.edges[1:])):
                assert np.array_equal(net.w[j] @ kernel_grid.block(b), u[start:stop]), (k, size, j, b)


def test_silent_output_evaluates_every_block(monkeypatch):
    net = SrmNet(w=np.array([[0.1, 0.2]]), tau=1.0, theta=1.0, t_end=6.0)
    spikes = sp._spike_arrays([[0.5], [1.0, 2.0]], net.n_in)
    sp._cached_grid_sums.cache_clear()
    sizes = []
    kernel_sums = sp._kernel_sums

    def spy(spikes, t, tau):
        sizes.append(np.size(t))
        return kernel_sums(spikes, t, tau)

    monkeypatch.setattr(sp, "_kernel_sums", spy)
    assert sp._first_spikes(net, spikes, [0]) == [None]
    assert sizes == np.diff(_block_edges(6001)).tolist()
    # a later scan of the same sample reuses every block
    assert sp._first_spikes(net, spikes, [0]) == [None]
    assert len(sizes) == 6001 // GRID_BLOCK


def test_one_grid_per_sample_pass():
    net, samples = _workload_samples(3, 5)
    sp._cached_grid_sums.cache_clear()
    history = sp.train_spikeprop(net, samples, lr=0.01, epochs=3)
    assert history.threshold_interventions == 0
    info = sp._cached_grid_sums.cache_info()
    # a miss for the gradient step, a hit for the loss after the update
    assert (info.misses, info.hits) == (15, 15)
