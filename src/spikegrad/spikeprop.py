"""Continuous-time spike response model with spike-time gradients.

The membrane of each output neuron is a weighted sum of alpha kernels, one
per presynaptic spike:

    U_j(t) = sum_{i,k} W_ji * eps(t - f_i^(k)),   eps(t) = (t/tau) e^(1 - t/tau)

The first threshold crossing of U_j is located on a fine grid and refined
by bisection.  The per-input kernel sums on that grid depend only on the
input spikes, so one grid per sample serves every output, before and after
a weight update, and the outputs of a sample are bisected together.  The
sums are computed ``GRID_BLOCK`` grid points at a time, only as far as the
first block in which an output crosses threshold.
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

import functools
import logging
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

BISECTION_DEPTH = 60
BISECTION_RESIDUAL = 1e-12
GRID_BLOCK = 512  # a multiple of 8, which keeps block products bit-equal to whole-grid ones
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
        bad_w = np.argwhere(~np.isfinite(self.w))
        if bad_w.size:
            j, i = bad_w[0]
            raise ValueError(f"w[{j}, {i}] is {self.w[j, i]}; weights must be finite")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
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


class _KernelGrid:
    """The fine grid of one sample and its kernel sums K_i(t), a block at a time.

    Block b holds the N_in rows of sums on ``grid[edges[b]:edges[b + 1]]``.
    Blocks start at multiples of GRID_BLOCK and the last one runs to the end
    of the grid, so no block is narrower than GRID_BLOCK unless the whole
    grid is.  A block is computed the first time an output's scan reaches
    it and kept, read-only, for every later scan.
    """

    def __init__(self, spikes: np.ndarray, tau: float, t_end: float, dt_fine: float):
        self.grid = np.arange(0.0, t_end + dt_fine, dt_fine)
        self.grid.flags.writeable = False
        self.edges = list(range(0, max(self.grid.size // GRID_BLOCK, 1) * GRID_BLOCK, GRID_BLOCK))
        self.edges.append(self.grid.size)
        self._spikes, self._tau, self._blocks = spikes, tau, []

    def block(self, b: int) -> np.ndarray:
        while len(self._blocks) <= b:
            n = len(self._blocks)
            sums = _kernel_sums(self._spikes, self.grid[self.edges[n] : self.edges[n + 1]], self._tau)
            sums.flags.writeable = False
            self._blocks.append(sums)
        return self._blocks[b]

    def first_above(self, w_j: np.ndarray, theta_j: float) -> int | None:
        """Index of the first grid point where w_j @ K > theta_j, scanning block by block."""
        for b, start in enumerate(self.edges[:-1]):
            above = np.flatnonzero(w_j @ self.block(b) > theta_j)
            if above.size:
                return start + int(above[0])
        return None


@functools.lru_cache(maxsize=1)
def _cached_grid_sums(shape, data: bytes, tau: float, t_end: float, dt_fine: float) -> _KernelGrid:
    return _KernelGrid(np.frombuffer(data, dtype=np.float64).reshape(shape), tau, t_end, dt_fine)


def _grid_sums(net: SrmNet, spikes: np.ndarray) -> _KernelGrid:
    """The sample's kernel grid, with the blocks that earlier scans computed.

    K depends on the spikes and the kernel, not on w or theta, so one entry
    keyed by content serves every output of a sample and the loss after its
    weight update; the next sample replaces it.  A block's temporaries are
    N_in x GRID_BLOCK x K while it is summed, not N_in x G x K: at 10 inputs
    and K = 50 spikes each, about 2 MB instead of 24 MB (up to twice that for
    the wider last block).
    """
    return _cached_grid_sums(spikes.shape, spikes.tobytes(), net.tau, net.t_end, net.dt_fine)


def _first_spikes(net: SrmNet, spikes: np.ndarray, outputs) -> list[float | None]:
    """First threshold crossing of each listed output, None where it never fires.

    Each output is bracketed on the shared grid by its own ``w[j] @ K``,
    block by block up to the first block that holds a crossing (a single
    product over all outputs would group the sums differently).  Blocks
    start at multiples of GRID_BLOCK, a multiple of 8, and none is narrower
    than that, so each block's product equals the same slice of the
    whole-grid product bit for bit and the brackets, spike times and
    gradients are those of a whole-grid scan.  Then all bracketed outputs
    are bisected together: one kernel-sum call per step evaluates every
    output's midpoint, and each output stops on its own residual or depth
    rule.
    """
    kernel_grid = _grid_sums(net, spikes)
    grid = kernel_grid.grid
    first: list[float | None] = [None] * len(outputs)
    brackets = {}  # position in outputs -> [lo, hi]
    for pos, j in enumerate(outputs):
        hi_idx = kernel_grid.first_above(net.w[j], net.theta[j])
        if hi_idx is None:
            continue
        if hi_idx == 0:
            first[pos] = float(grid[0])
        else:
            brackets[pos] = [float(grid[hi_idx - 1]), float(grid[hi_idx])]

    for _ in range(BISECTION_DEPTH):
        if not brackets:
            break
        mids = {pos: 0.5 * (lo + hi) for pos, (lo, hi) in brackets.items()}
        # one contiguous N_in row per output, so each dot sums as a lone vector would
        rows = _kernel_sums(spikes, np.array(list(mids.values())), net.tau).T.copy()
        for (pos, mid), row in zip(mids.items(), rows):
            j = outputs[pos]
            u_mid = float(net.w[j] @ row)
            if abs(u_mid - net.theta[j]) < BISECTION_RESIDUAL:
                first[pos] = mid
                del brackets[pos]
            elif u_mid > net.theta[j]:
                brackets[pos][1] = mid
            else:
                brackets[pos][0] = mid
    for pos, (_, hi) in brackets.items():
        first[pos] = hi
    return first


def find_spike_time(net: SrmNet, presyn_spikes, j: int) -> float | None:
    """First threshold crossing of output neuron j, or None if it never fires.

    Scans the fine grid for the first point above threshold, then bisects
    the bracketing interval until |U(f) - theta| < 1e-12 (typically much
    tighter; the depth cap alone narrows the bracket below 1e-15 tau).
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

    @property
    def final_loss(self) -> float:
        return self.rows[-1][1]


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
