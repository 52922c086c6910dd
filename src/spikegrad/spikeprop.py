"""Continuous-time spike response model with spike-time gradients.

The membrane of each output neuron is a weighted sum of alpha kernels, one
per presynaptic spike:

    U_j(t) = sum_{i,k} W_ji * eps(t - f_i^(k)),   eps(t) = (t/tau) e^(1 - t/tau)

The first threshold crossing of U_j is located on a fine grid and refined
by bisection.  Learning differentiates the *time* of that crossing rather
than the spike itself: a weight change moves the membrane, which moves the
crossing by df/dU = -1 / (dU/dt at the crossing).  Every quantity is
available in closed form from the kernel, and the whole chain is verified
against finite differences of the located spike time.

A neuron that never crosses threshold has no spike time to differentiate;
training then lowers that neuron's threshold by a configurable factor and
logs the intervention (more effective than inflating weights, which fights
the initialisation scale).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .objectives import _square_error

__all__ = [
    "SrmNet",
    "DeadNeuronError",
    "alpha_kernel",
    "alpha_kernel_deriv",
    "srm_membrane",
    "find_spike_time",
    "spike_time_weight_grad",
    "spikeprop_grad",
    "train_spikeprop",
]

log = logging.getLogger(__name__)

BISECTION_DEPTH = 60
BISECTION_RESIDUAL = 1e-12


class DeadNeuronError(RuntimeError):
    """An output neuron never fired, so no spike-time gradient exists."""

    def __init__(self, neuron: int):
        super().__init__(
            f"output neuron {neuron} never fired; a spike is required for its gradient"
        )
        self.neuron = neuron


@dataclass
class SrmNet:
    """Single weight layer of spike-response neurons.

    theta may be given as a scalar (shared) or per-output vector; it is
    stored per neuron so training can lower individual thresholds.
    dt_fine is the grid resolution used to bracket threshold crossings.
    """

    w: np.ndarray
    tau: float
    theta: np.ndarray
    t_end: float
    dt_fine: float | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 2:
            raise ValueError(f"w must be N_out x N_in, got shape {self.w.shape}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim == 0:
            theta = np.full(self.w.shape[0], float(theta))
        if theta.shape != (self.w.shape[0],):
            raise ValueError(f"theta must be scalar or length {self.w.shape[0]}")
        self.theta = theta
        if self.dt_fine is None:
            self.dt_fine = self.tau / 1000.0
        if self.dt_fine > self.tau / 100.0:
            raise ValueError("dt_fine must be at most tau/100 for reliable bracketing")

    @property
    def n_out(self) -> int:
        return self.w.shape[0]

    @property
    def n_in(self) -> int:
        return self.w.shape[1]


def alpha_kernel(t, tau: float):
    """(t/tau) * e^(1 - t/tau) for t > 0, else 0; peaks at exactly 1 when t = tau."""
    t = np.asarray(t, dtype=np.float64)
    out = np.where(t > 0.0, (t / tau) * np.exp(1.0 - t / tau), 0.0)
    return out if out.ndim else float(out)


def alpha_kernel_deriv(t, tau: float):
    """d eps/dt = e^(1 - t/tau) (tau - t) / tau^2 for t > 0, else 0."""
    t = np.asarray(t, dtype=np.float64)
    out = np.where(t > 0.0, np.exp(1.0 - t / tau) * (tau - t) / tau**2, 0.0)
    return out if out.ndim else float(out)


def _spike_arrays(presyn_spikes) -> np.ndarray:
    """One row of spike times per input, padded with +inf to a common length.

    An empty input is a row of padding. The kernel and its derivative are
    exactly 0 at t - inf, so padding adds 0.0 to every sum.
    """
    rows = [np.asarray(f, dtype=np.float64).reshape(-1) for f in presyn_spikes]
    spikes = np.full((len(rows), max(map(len, rows), default=0)), np.inf)
    for i, f in enumerate(rows):
        if not np.isfinite(f).all():
            raise ValueError(f"input {i} has a non-finite spike time; give no spike as an empty list")
        spikes[i, : f.size] = f
    return spikes


def _kernel_sums(spikes: np.ndarray, t, tau: float) -> np.ndarray:
    """Per-input summed kernel responses at time(s) t: K_i(t) = sum_k eps(t - f_ik)."""
    t = np.asarray(t, dtype=np.float64)
    per_input = spikes.reshape((spikes.shape[0],) + (1,) * t.ndim + (spikes.shape[1],))
    return alpha_kernel(t[..., None] - per_input, tau).sum(axis=-1)


def srm_membrane(net: SrmNet, presyn_spikes, t) -> np.ndarray:
    """Membrane potential of every output neuron at time t (scalar or array).

    presyn_spikes is one sequence of spike times per input neuron.
    """
    spikes = _spike_arrays(presyn_spikes)
    if spikes.shape[0] != net.n_in:
        raise ValueError(f"{spikes.shape[0]} input spike lists but net has {net.n_in} inputs")
    return net.w @ _kernel_sums(spikes, t, net.tau)


def _membrane_slope(net: SrmNet, spikes: np.ndarray, j: int, t: float) -> float:
    """dU_j/dt at time t, from the closed-form kernel derivative, summed input by input."""
    return float(sum(net.w[j] * alpha_kernel_deriv(t - spikes, net.tau).sum(axis=-1)))


def find_spike_time(net: SrmNet, presyn_spikes, j: int) -> float | None:
    """First threshold crossing of output neuron j, or None if it never fires.

    Scans the fine grid for the first point above threshold, then bisects
    the bracketing interval until |U(f) - theta| < 1e-10 (typically much
    tighter; the depth cap alone narrows the bracket below 1e-15 tau).
    """
    spikes = _spike_arrays(presyn_spikes)
    grid = np.arange(0.0, net.t_end + net.dt_fine, net.dt_fine)
    u = net.w[j] @ _kernel_sums(spikes, grid, net.tau)
    above = np.nonzero(u > net.theta[j])[0]
    if above.size == 0:
        return None
    hi_idx = int(above[0])
    if hi_idx == 0:
        return float(grid[0])
    lo, hi = float(grid[hi_idx - 1]), float(grid[hi_idx])

    def membrane(t: float) -> float:
        return float(net.w[j] @ _kernel_sums(spikes, np.float64(t), net.tau))

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
    spikes = _spike_arrays(presyn_spikes)
    if f_j is None:
        f_j = find_spike_time(net, presyn_spikes, j)
    if f_j is None:
        raise DeadNeuronError(j)
    responses = _kernel_sums(spikes, np.float64(f_j), net.tau)
    slope = _membrane_slope(net, spikes, j, f_j)
    return -responses / slope


def spikeprop_grad(net: SrmNet, presyn_spikes, targets) -> np.ndarray:
    """dL/dW for the square error between first-spike times and targets.

    Chains dL/df_j = -2 (y_j - f_j) through the closed-form df_j/dW row by
    row.  The sign convention of the chain (the loss falls when an early
    spike is delayed towards its target) is pinned by the finite-difference
    suite rather than by any symbolic manipulation.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (net.n_out,):
        raise ValueError(f"need {net.n_out} target times, got shape {targets.shape}")
    first = [find_spike_time(net, presyn_spikes, j) for j in range(net.n_out)]
    if None in first:
        raise DeadNeuronError(first.index(None))
    _, dl_df = _square_error(targets, np.array(first))
    grad = np.zeros_like(net.w)
    for j, f_j in enumerate(first):
        grad[j] = dl_df[j] * spike_time_weight_grad(net, presyn_spikes, j, f_j)
    return grad


@dataclass
class SpikePropHistory:
    rows: list[tuple[int, float]] = field(default_factory=list)  # (epoch, loss)
    threshold_interventions: int = 0

    @property
    def final_loss(self) -> float:
        return self.rows[-1][1]


def train_spikeprop(
    net: SrmNet,
    dataset,
    lr: float,
    epochs: int,
    dead_neuron_factor: float = 0.9,
    max_threshold_drops: int = 200,
) -> SpikePropHistory:
    """Gradient descent on first-spike times over (presyn lists, target times) pairs.

    Whenever an output neuron stays silent for some sample, its threshold
    is lowered by ``dead_neuron_factor`` and the sample retried, counting
    and logging each intervention.  ``max_threshold_drops`` caps the drops
    over the whole run: the next silent output raises ``DeadNeuronError``
    before any update from that sample.
    """
    samples = dataset.samples if hasattr(dataset, "samples") else list(dataset)
    if len(samples) == 0:
        raise ValueError("dataset is empty")
    history = SpikePropHistory()
    for epoch in range(epochs):
        epoch_loss = 0.0
        for presyn, targets in samples:
            while True:
                try:
                    grad = spikeprop_grad(net, presyn, targets)
                    break
                except DeadNeuronError as dead:
                    history.threshold_interventions += 1
                    if history.threshold_interventions > max_threshold_drops:
                        raise
                    net.theta[dead.neuron] *= dead_neuron_factor
                    log.info(
                        "lowered threshold of neuron %d to %.6g after a silent rollout",
                        dead.neuron,
                        net.theta[dead.neuron],
                    )
            net.w = net.w - lr * grad
            first = [find_spike_time(net, presyn, j) for j in range(net.n_out)]
            epoch_loss += float("inf") if None in first else _square_error(targets, np.array(first))[0]
        history.rows.append((epoch, epoch_loss / len(samples)))
    return history
