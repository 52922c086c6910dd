"""The closed-form first-spike times against the grid engine they replaced.

The functions below are verbatim copies of the earlier SpikeProp engine,
which summed the kernel and its derivative in a Python loop over inputs,
located the first threshold crossing on a fine grid and bisected it.  Here
the bisection runs its full 60 halvings with no residual stop, so the
reference time is the crossing of the directly summed membrane to within a
few ulps.  On seeded nets with up to 7, 12 and 50 spikes per input, every
output that one engine finds silent the other finds silent too, and spike
times and df/dW agree within 1e-12 relative.  A training run gives the
history, weights and thresholds of the reference loop.
"""

import numpy as np
import pytest

from spikegrad import spikeprop as sp
from spikegrad.spikeprop import (
    DeadNeuronError,
    SrmNet,
    alpha_kernel,
    alpha_kernel_deriv,
)
from spikegrad.objectives import _square_error

BISECTION_DEPTH = 60

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
    the bracketing interval BISECTION_DEPTH times.
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


def _assert_close(new, ref, where):
    new, ref = np.asarray(new), np.asarray(ref)
    scale = max(float(np.max(np.abs(ref))), np.finfo(np.float64).tiny)
    assert float(np.max(np.abs(new - ref))) <= 1e-12 * scale, f"{where}: {new} vs {ref}"


@pytest.mark.parametrize("block", range(4))
def test_close_up_to_seven_spikes_per_input(block):
    crossings = _compare(range(100 * block, 100 * block + 75), 7, _assert_close)
    assert crossings >= 50


@pytest.mark.parametrize("block", range(2))
def test_close_up_to_twelve_spikes_per_input(block):
    crossings = _compare(range(500 + 75 * block, 500 + 75 * block + 75), 12, _assert_close)
    assert crossings >= 50


@pytest.mark.parametrize("block", range(2))
def test_close_up_to_fifty_spikes_per_input(block):
    crossings = _compare(range(1000 + 40 * block, 1000 + 40 * block + 40), 50, _assert_close)
    assert crossings >= 25


def test_single_spike_inputs_close():
    # the shape of the perfbench workload: one spike per input, ten inputs
    rng = np.random.default_rng(7)
    for _ in range(20):
        net = SrmNet(w=rng.uniform(0.5, 1.5, size=(2, 10)) * 0.2, tau=1.0, theta=1.0, t_end=6.0)
        presyn = [np.array([t]) for t in rng.permutation(10) * 0.2 + rng.random(10) * 0.2]
        for j in range(2):
            f_ref, f_new = find_spike_time(net, presyn, j), sp.find_spike_time(net, presyn, j)
            assert (f_new is None) == (f_ref is None)
            if f_ref is not None:
                _assert_close(f_new, f_ref, "time")
                _assert_close(
                    sp.spike_time_weight_grad(net, presyn, j, f_new),
                    spike_time_weight_grad(net, presyn, j, f_ref),
                    "df/dW",
                )


def test_empty_inputs_between_spiking_ones():
    net = SrmNet(w=np.array([[0.9, 5.0, 0.7, -2.0]]), tau=1.0, theta=1.0, t_end=8.0)
    presyn = [[0.0, 0.9], [], [0.4], []]
    f_ref = find_spike_time(net, presyn, 0)
    assert f_ref is not None
    f_new = sp.find_spike_time(net, presyn, 0)
    _assert_close(f_new, f_ref, "time")
    grad = sp.spike_time_weight_grad(net, presyn, 0, f_new)
    _assert_close(grad, spike_time_weight_grad(net, presyn, 0, f_ref), "df/dW")
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
# all outputs of a sample together


def _multi_output_net(seed: int, max_spikes: int):
    """1-7 inputs, 1-4 outputs with their own thresholds; about one net in four
    has weights 1e5 to 1e9 times larger, so it crosses just after a spike."""
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


def _compare_all_outputs(seeds, max_spikes: int, check) -> int:
    """_first_spikes over every output against the reference, output by output.

    Returns the silent outputs.
    """
    silent = 0
    for seed in seeds:
        net, presyn = _multi_output_net(seed, max_spikes)
        got = sp._first_spikes(net, sp._spike_arrays(presyn, net.n_in), range(net.n_out))
        ref = [find_spike_time(net, presyn, j) for j in range(net.n_out)]
        assert [f is None for f in got] == [f is None for f in ref], f"seed {seed}: {got} vs {ref}"
        for j, (f_new, f_ref) in enumerate(zip(got, ref)):
            if f_ref is not None:
                check(f_new, f_ref, f"seed {seed}, output {j}")
        silent += ref.count(None)
    return silent


@pytest.mark.parametrize("block", range(4))
def test_all_outputs_together_close_to_the_reference_up_to_seven_spikes(block):
    silent = _compare_all_outputs(range(3000 + 75 * block, 3000 + 75 * block + 75), 7, _assert_close)
    assert silent >= 10


@pytest.mark.parametrize("block", range(2))
def test_all_outputs_together_close_to_the_reference_up_to_fifty_spikes(block):
    silent = _compare_all_outputs(range(4000 + 40 * block, 4000 + 40 * block + 40), 50, _assert_close)
    assert silent >= 5


def test_threshold_equal_to_a_grid_membrane_value_as_the_reference():
    # theta equal to one grid value of U_j on a rising stretch: the crossing is
    # that grid point, or an earlier one where U_j reached the same value
    cases = 0
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
        got = sp._first_spikes(net, sp._spike_arrays(presyn, net.n_in), range(net.n_out))
        for j, f_new in enumerate(got):
            f_ref = find_spike_time(net, presyn, j)
            assert (f_new is None) == (f_ref is None), f"seed {seed}, output {j}: {f_new} vs {f_ref}"
            if f_ref is not None:
                _assert_close(f_new, f_ref, f"seed {seed}, output {j}")
    assert cases >= 40


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
    assert [epoch for epoch, _ in history.rows] == [epoch for epoch, _ in rows]
    _assert_close([loss for _, loss in history.rows], [loss for _, loss in rows], "losses")
    assert history.threshold_interventions == drops
    assert (drops > 0) == (weak_output < 1.0)
    _assert_close(net.w, ref_net.w, "weights")
    assert np.array_equal(net.theta, ref_net.theta)
