"""Continuous-time spike response model with spike-time gradients.

The membrane of each output neuron is a weighted sum of alpha kernels, one
per presynaptic spike:

    U_j(t) = sum_{i,k} W_ji * eps(t - f_i^(k)),   eps(t) = (t/tau) e^(1 - t/tau)

Between two input spikes U_j is (e/tau) e^(-s/tau) (A s + C) in the time s
since the earlier one, so its first threshold crossing is found in closed
form, as a Lambert-W0 value, by one walk over the sorted input spikes.
Learning differentiates the *time* of that crossing rather than the spike
itself: a weight change moves the membrane, which moves the crossing by
df/dU = -1 / (dU/dt at the crossing).  Every quantity is
available in closed form from the kernel, and the whole chain is verified
against finite differences of the located spike time.

A neuron that never crosses threshold has no spike time to differentiate;
training then lowers that neuron's threshold by the factor
``THRESHOLD_DROP`` and logs the intervention (more effective than inflating
weights, which fights the initialisation scale), at most
``MAX_THRESHOLD_DROPS`` times per run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .objectives import _square_error
from .tasks import _samples

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

THRESHOLD_DROP = 0.9
MAX_THRESHOLD_DROPS = 200


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
    dt_fine is the time of one raster step when the CLI reads event rasters
    as spike times; the spike-time engine itself needs no time step.
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
        bad_w = np.argwhere(~np.isfinite(self.w))
        if bad_w.size:
            j, i = bad_w[0]
            raise ValueError(f"w[{j}, {i}] is {self.w[j, i]}; weights must be finite")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim == 0:
            theta = np.full(self.w.shape[0], float(theta))
        if theta.shape != (self.w.shape[0],):
            raise ValueError(f"theta must be scalar or length {self.w.shape[0]}")
        bad_theta = np.flatnonzero(~(np.isfinite(theta) & (theta > 0.0)))
        if bad_theta.size:
            j = bad_theta[0]
            raise ValueError(f"theta of output neuron {j} is {theta[j]}; it must be finite and positive")
        self.theta = theta
        if self.dt_fine is None:
            self.dt_fine = self.tau / 1000.0
        if not self.dt_fine > 0.0:
            raise ValueError(f"dt_fine must be positive, got {self.dt_fine}")
        if self.dt_fine > self.tau / 100.0:
            raise ValueError("dt_fine, the time of one CLI raster step, must be at most tau/100")

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


def _spike_arrays(presyn_spikes, n_in: int) -> np.ndarray:
    """One row of spike times per input, padded with +inf to a common length.

    An empty input is a row of padding. The kernel and its derivative are
    exactly 0 at t - inf, so padding adds 0.0 to every sum. Every entry
    point reads its sample here, so this one check rejects a count != n_in.
    """
    rows = [np.asarray(f, dtype=np.float64).reshape(-1) for f in presyn_spikes]
    if len(rows) != n_in:
        raise ValueError(f"{len(rows)} input spike lists but net has {n_in} inputs")
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
    return net.w @ _kernel_sums(_spike_arrays(presyn_spikes, net.n_in), t, net.tau)


def _membrane_slope(net: SrmNet, spikes: np.ndarray, j: int, t: float) -> float:
    """dU_j/dt at time t, from the closed-form kernel derivative, summed input by input."""
    return float(sum(net.w[j] * alpha_kernel_deriv(t - spikes, net.tau).sum(axis=-1)))


def _lambert_w0(z: float) -> float:
    """Principal branch of Lambert W on [-1/e, 0): the w >= -1 with w e^w = z.

    Three Halley steps from the branch-point series (z below -1/(2e)) or
    from log1p(z) reach rounding level everywhere on that range.
    """
    p = math.sqrt(max(2.0 * (math.e * z + 1.0), 0.0))
    if p == 0.0:
        return -1.0
    w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3 if p < 1.0 else math.log1p(z)
    for _ in range(3):
        ew = math.exp(w)
        f = w * ew - z
        w -= f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def _first_crossing(times: list[float], weights: list[float], tau: float, theta: float, t_end: float) -> float | None:
    """First t in [0, t_end] with sum_k weights[k] eps(t - times[k]) = theta, times sorted.

    From a reference time t0 until the next spike the membrane is
    U(t0 + s) = (e/tau) e^(-s/tau) (a s + c), with a = sum w e^(-d/tau) and
    c = sum w d e^(-d/tau) over the spikes at d = t0 - t_k >= 0 before it.
    With a > 0 it rises to its peak at s = tau - c/a and falls after, and
    with a <= 0 it never rises above max(U(t0), 0), so only an interval
    with a > 0 whose highest point lies above theta holds the crossing.
    There it is the Lambert-W0 root s = -tau W0(z) - c/a, with
    z = -(theta / (e a)) e^(-c / (a tau)).
    """
    a = c = start = 0.0
    k = 0
    while k < len(times) and times[k] <= 0.0:
        decay = math.exp(times[k] / tau)
        a += weights[k] * decay
        c -= weights[k] * times[k] * decay
        k += 1
    if math.e / tau * c > theta:
        return 0.0
    while start < t_end:
        end = min(times[k], t_end) if k < len(times) else t_end
        if a > 0.0:
            s = min(max(tau - c / a, 0.0), end - start)
            if math.e / tau * math.exp(-s / tau) * (a * s + c) > theta:
                z = -theta / (math.e * a) * math.exp(-c / (a * tau))
                return start + max(-tau * _lambert_w0(z) - c / a, 0.0)
        if k == len(times):
            break
        decay = math.exp((start - end) / tau)
        a, c = a * decay + weights[k], (c + a * (end - start)) * decay
        start = end
        k += 1
    return None


def _first_spikes(net: SrmNet, spikes: np.ndarray, outputs) -> list[float | None]:
    """First threshold crossing of each listed output, None where it never fires.

    The spikes of every input are walked in time order, once per output
    (``_first_crossing``).
    """
    inputs, slots = np.nonzero(np.isfinite(spikes))
    times = spikes[inputs, slots]
    order = np.argsort(times, kind="stable")
    times, inputs = times[order].tolist(), inputs[order]
    return [_first_crossing(times, net.w[j, inputs].tolist(), net.tau, float(net.theta[j]), net.t_end) for j in outputs]


def find_spike_time(net: SrmNet, presyn_spikes, j: int) -> float | None:
    """First threshold crossing of output neuron j, or None if it never fires.

    The output fires only if U_j goes strictly above theta somewhere in
    [0, t_end], so a peak exactly equal to theta is silent and no crossing
    has zero slope.  The spike time f is the first t >= 0 with
    U_j(t) = theta, and 0.0 if U_j(0) is already above theta (which takes
    input spikes before 0).  f is exact up to rounding, however briefly
    U_j stays above theta.
    """
    return _first_spikes(net, _spike_arrays(presyn_spikes, net.n_in), [j])[0]


def spike_time_weight_grad(net: SrmNet, presyn_spikes, j: int, f_j: float | None = None) -> np.ndarray:
    """Closed-form df_j/dW_ji for every input i.

    Raising W lifts the membrane by the summed kernel response, which moves
    the crossing earlier by that amount over the membrane slope:
    df/dW = -sum_k eps(f_j - f_ik) / (dU_j/dt at f_j).
    """
    spikes = _spike_arrays(presyn_spikes, net.n_in)
    if f_j is None:
        f_j = _first_spikes(net, spikes, [j])[0]
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
    first = _first_spikes(net, _spike_arrays(presyn_spikes, net.n_in), range(net.n_out))
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


def _check_finite(what: str, rows: np.ndarray, epoch: int, sample: int) -> None:
    """Raise ValueError naming the first output whose row holds a NaN or inf."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"non-finite {what} of output {bad[0]} at epoch {epoch}, sample {sample}")


def train_spikeprop(net: SrmNet, dataset, lr: float, epochs: int) -> SpikePropHistory:
    """Gradient descent on first-spike times over (presyn lists, target times) pairs.

    Whenever an output neuron stays silent for some sample, its threshold
    is multiplied by ``THRESHOLD_DROP`` and the sample retried, counting
    and logging each intervention.  ``MAX_THRESHOLD_DROPS`` caps the drops
    over the whole run: the next silent output raises ``DeadNeuronError``
    before any update from that sample.  A non-finite gradient or updated
    weight raises ``ValueError`` naming the epoch, sample and output, with
    the weights left as they were.  Every sample's spike matrix is built
    before the first update, so a wrong input count or a non-finite spike
    time raises ``ValueError`` naming the sample before anything changes.
    """
    samples = _samples(dataset)
    if not (np.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"lr must be finite and non-negative, got {lr}")
    spike_matrices = []
    for index, (presyn, _) in enumerate(samples):
        try:
            spike_matrices.append(_spike_arrays(presyn, net.n_in))
        except ValueError as exc:
            raise ValueError(f"sample {index}: {exc}") from None
    history = SpikePropHistory()
    for epoch in range(epochs):
        epoch_loss = 0.0
        for index, (presyn, targets) in enumerate(samples):
            while True:
                try:
                    grad = spikeprop_grad(net, presyn, targets)
                    break
                except DeadNeuronError as dead:
                    history.threshold_interventions += 1
                    if history.threshold_interventions > MAX_THRESHOLD_DROPS:
                        raise
                    net.theta[dead.neuron] *= THRESHOLD_DROP
                    log.info(
                        "lowered threshold of neuron %d to %.6g after a silent rollout",
                        dead.neuron,
                        net.theta[dead.neuron],
                    )
            _check_finite("gradient", grad, epoch, index)
            w = net.w - lr * grad
            _check_finite("updated weight", w, epoch, index)
            net.w = w
            first = _first_spikes(net, spike_matrices[index], range(net.n_out))
            epoch_loss += float("inf") if None in first else _square_error(targets, np.array(first))[0]
        history.rows.append((epoch, epoch_loss / len(samples)))
    return history
