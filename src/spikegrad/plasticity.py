"""Pair-based STDP and the weight-perturbation learning baseline.

The STDP window potentiates causal pairs (pre before post) and depresses
anti-causal ones, each side an exponential in the spike-time gap:

    dW = A+ * exp(dt / tau+)   for dt < 0      (dt = t_pre - t_post)
    dW = A- * exp(-dt / tau-)  for dt > 0
    dW = 0                     at dt = 0 (the piecewise form is undefined there)

Weight perturbation needs no gradient at all: jiggle every trained
parameter with Gaussian noise, keep the change if the loss improved.  Its
accept rate collapses as the weight count grows, since any single helpful
nudge is drowned by the noise on all the others; the baseline exists to
demonstrate exactly that.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bptt import SnnLayer, _FlatParams, forward
from .neuron import _as_matrix
from .objectives import ObjectiveSpec, eval_objective
from .tasks import _samples

__all__ = [
    "Pairing",
    "StdpParams",
    "stdp_delta_w",
    "stdp_update",
    "perturbation_train",
    "PerturbationHistory",
]


class Pairing(enum.Enum):
    ALL_PAIRS = "all_pairs"
    NEAREST_NEIGHBOR = "nearest_neighbor"


@dataclass(frozen=True)
class StdpParams:
    """Window shape, clamp bounds and pairing scheme.

    a_minus should be negative for depression.  The defaults keep the net
    drift mildly depressive (|A-| slightly above A+), a standard stability
    choice; all values are plain knobs.  The amplitudes must be finite and
    the time constants finite and positive; the bounds and the window may be
    infinite but not NaN, and the window must be >= 0.
    """

    a_plus: float = 0.01
    a_minus: float = -0.012
    tau_plus: float = 20.0
    tau_minus: float = 20.0
    w_min: float = -math.inf
    w_max: float = math.inf
    pairing: Pairing = Pairing.ALL_PAIRS
    window: float = 100.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if name in ("a_plus", "a_minus") and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name in ("tau_plus", "tau_minus") and not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
            if name in ("w_min", "w_max", "window") and math.isnan(value):
                raise ValueError(f"{name} must not be NaN")
        if self.window < 0.0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        if self.w_min > self.w_max:
            raise ValueError(f"w_min {self.w_min} exceeds w_max {self.w_max}")


def stdp_delta_w(dt: float, p: StdpParams) -> float:
    """Weight change for one (pre, post) pair with gap dt = t_pre - t_post."""
    if dt < 0.0:
        return p.a_plus * math.exp(dt / p.tau_plus)
    if dt > 0.0:
        return p.a_minus * math.exp(-dt / p.tau_minus)
    return 0.0


def stdp_update(pre, post, w: np.ndarray, p: StdpParams) -> np.ndarray:
    """Apply the pairing rule between two rasters and return the clamped weights.

    pre is T x N_pre, post is T x N_post, w is N_post x N_pre (w[j, i]
    connects pre neuron i to post neuron j); any nonzero raster entry is a
    spike.  The window depends only on the lag t_pre - t_post, so it is
    tabulated once for the 2T-1 lags and the sum over spike pairs is a
    contraction of the binarised rasters.  ALL_PAIRS: post.T @ K @ pre, with
    K[t_post, t_pre] the table at lag t_pre - t_post (0 beyond ``window``),
    a Toeplitz view that copies nothing.  NEAREST_NEIGHBOR: post.T @ A +
    B.T @ pre, with A[t, i] the table at the lag back to pre neuron i's last
    spike strictly before t, B likewise for post, 0 where there is none.
    The temporaries are T x T float64 (320 KB at T = 200).
    """
    pre_m = (_as_matrix(pre) != 0).astype(np.float64)
    post_m = (_as_matrix(post) != 0).astype(np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (post_m.shape[1], pre_m.shape[1]):
        raise ValueError(
            f"w shape {w.shape} does not match {post_m.shape[1]} post x {pre_m.shape[1]} pre neurons"
        )
    t_steps = pre_m.shape[0]
    if post_m.shape[0] != t_steps:
        raise ValueError(f"pre has {t_steps} steps but post has {post_m.shape[0]}")
    if t_steps == 0:
        return np.clip(w, p.w_min, p.w_max)

    lags = np.arange(-(t_steps - 1), t_steps)
    table = np.array([stdp_delta_w(float(d), p) for d in lags])
    if p.pairing is Pairing.ALL_PAIRS:
        table = np.where(np.abs(lags) <= p.window, table, 0.0)
        delta = (post_m.T @ sliding_window_view(table, t_steps)[::-1]) @ pre_m
    else:
        padded = np.append(table, 0.0)  # index -1: no earlier spike
        steps = np.arange(t_steps)[:, None]
        last_pre, last_post = _last_spike_before(pre_m), _last_spike_before(post_m)
        a = padded[np.where(last_pre >= 0, last_pre - steps + t_steps - 1, -1)]
        b = padded[np.where(last_post >= 0, steps - last_post + t_steps - 1, -1)]
        delta = post_m.T @ a + b.T @ pre_m
    return np.clip(w + delta, p.w_min, p.w_max)


def _last_spike_before(raster: np.ndarray) -> np.ndarray:
    """[t, n]: the last step strictly before t at which neuron n spiked, else -1."""
    steps = np.arange(raster.shape[0])[:, None]
    last = np.maximum.accumulate(np.where(raster != 0, steps, -1), axis=0)
    return np.vstack([np.full((1, raster.shape[1]), -1), last[:-1]])


@dataclass
class PerturbationHistory:
    rows: list[tuple[int, float, bool]] = field(default_factory=list)  # (trial, loss, accepted)

    @property
    def accept_rate(self) -> float:
        if not self.rows:
            return 0.0
        return sum(1 for _, _, acc in self.rows if acc) / len(self.rows)

    @property
    def final_loss(self) -> float:
        return self.rows[-1][1]


def _dataset_loss(model: list[SnnLayer], samples, objective: ObjectiveSpec) -> float:
    total = 0.0
    for x, target in samples:
        record = forward(model, x)
        loss, _, _ = eval_objective(
            objective, record.output_membrane(), record.output_spikes(), target
        )
        total += loss
    return total / len(samples)


def perturbation_train(
    model: list[SnnLayer],
    dataset,
    sigma: float,
    trials: int,
    objective: ObjectiveSpec,
    seed: int = 0,
) -> PerturbationHistory:
    """Accept/reject random Gaussian parameter perturbations, in place.

    Each trial perturbs every trained parameter at once by N(0, sigma) (w,
    plus v when set and beta when learned, beta clipped to [1e-9, 1] as in
    BPTT), keeps the perturbation if the dataset loss strictly decreased,
    and reverts otherwise.  The recorded loss is therefore non-increasing
    (and constant in the degenerate sigma = 0 case).  A non-finite dataset
    loss raises ValueError naming the trial, with the parameters of the last
    accepted trial.
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    samples = _samples(dataset)
    rng = np.random.default_rng(seed)
    best = _dataset_loss(model, samples, objective)
    if not math.isfinite(best):
        raise ValueError(f"non-finite loss {best} before trial 0")
    history = PerturbationHistory()
    params = _FlatParams(model)
    for trial in range(trials):
        saved = params.vec.copy()
        params.vec += rng.normal(0.0, sigma, size=params.vec.size)
        params.sync()
        candidate = _dataset_loss(model, samples, objective)
        if candidate < best:
            best = candidate
            history.rows.append((trial, best, True))
        else:
            # restore the saved vector: subtracting the noise again is not
            # bit-exact, and the kept model must be the one that scored best
            params.vec[:] = saved
            params.sync()
            if not math.isfinite(candidate):
                raise ValueError(f"non-finite loss {candidate} at trial {trial}")
            history.rows.append((trial, best, False))
    return history
