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
"""

import numpy as np
import pytest

from spikegrad import spikeprop as sp
from spikegrad.spikeprop import (
    BISECTION_DEPTH,
    BISECTION_RESIDUAL,
    DeadNeuronError,
    SrmNet,
    alpha_kernel,
    alpha_kernel_deriv,
)

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
