"""Pair-based STDP and the weight-perturbation learning baseline.

The STDP window potentiates causal pairs (pre before post) and depresses
anti-causal ones, each side an exponential in the spike-time gap:

    dW = A+ * exp(dt / tau+)   for dt < 0      (dt = t_pre - t_post)
    dW = A- * exp(-dt / tau-)  for dt > 0
    dW = 0                     at dt = 0 (the piecewise form is undefined there)

Weight perturbation needs no gradient at all: jiggle every weight with
Gaussian noise, keep the change if the loss improved.  Its accept rate
collapses as the weight count grows, since any single helpful nudge is
drowned by the noise on all the others; the baseline exists to demonstrate
exactly that.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .bptt import SnnLayer, forward
from .neuron import _as_matrix
from .objectives import ObjectiveSpec, eval_objective

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
    choice; all values are plain knobs.
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
        if self.tau_plus <= 0.0 or self.tau_minus <= 0.0:
            raise ValueError("tau_plus and tau_minus must be positive")
        if self.w_min > self.w_max:
            raise ValueError(f"w_min {self.w_min} exceeds w_max {self.w_max}")


def stdp_delta_w(dt: float, p: StdpParams) -> float:
    """Weight change for one (pre, post) pair with gap dt = t_pre - t_post."""
    if dt < 0.0:
        return p.a_plus * math.exp(dt / p.tau_plus)
    if dt > 0.0:
        return p.a_minus * math.exp(-dt / p.tau_minus)
    return 0.0


def _pair_sum_all(pre_times: np.ndarray, post_times: np.ndarray, p: StdpParams) -> float:
    if pre_times.size == 0 or post_times.size == 0:
        return 0.0
    dt = pre_times[:, None] - post_times[None, :]
    dt = dt[np.abs(dt) <= p.window]
    total = 0.0
    for d in dt.ravel():
        total += stdp_delta_w(float(d), p)
    return total


def _pair_sum_nearest(pre_times: np.ndarray, post_times: np.ndarray, p: StdpParams) -> float:
    """Each post pairs with its nearest strictly preceding pre, and vice versa."""
    total = 0.0
    for t_post in post_times:
        idx = np.searchsorted(pre_times, t_post)
        if idx > 0:
            total += stdp_delta_w(float(pre_times[idx - 1] - t_post), p)
    for t_pre in pre_times:
        idx = np.searchsorted(post_times, t_pre)
        if idx > 0:
            total += stdp_delta_w(float(t_pre - post_times[idx - 1]), p)
    return total


def stdp_update(pre, post, w: np.ndarray, p: StdpParams) -> np.ndarray:
    """Apply the pairing rule between two rasters and return the clamped weights.

    pre is T x N_pre, post is T x N_post, w is N_post x N_pre (w[j, i]
    connects pre neuron i to post neuron j).
    """
    pre_m = _as_matrix(pre)
    post_m = _as_matrix(post)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (post_m.shape[1], pre_m.shape[1]):
        raise ValueError(
            f"w shape {w.shape} does not match {post_m.shape[1]} post x {pre_m.shape[1]} pre neurons"
        )
    pair_sum = _pair_sum_all if p.pairing is Pairing.ALL_PAIRS else _pair_sum_nearest

    out = w.copy()
    pre_times = [np.nonzero(pre_m[:, i])[0].astype(np.float64) for i in range(pre_m.shape[1])]
    post_times = [np.nonzero(post_m[:, j])[0].astype(np.float64) for j in range(post_m.shape[1])]
    for j in range(post_m.shape[1]):
        for i in range(pre_m.shape[1]):
            out[j, i] += pair_sum(pre_times[i], post_times[j], p)
    return np.clip(out, p.w_min, p.w_max)


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
    """Accept/reject random Gaussian weight perturbations, in place.

    Each trial perturbs every weight matrix at once by N(0, sigma), keeps
    the perturbation if the dataset loss strictly decreased, and reverts
    otherwise.  The recorded loss is therefore non-increasing (and constant
    in the degenerate sigma = 0 case).
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    samples = dataset.samples if hasattr(dataset, "samples") else list(dataset)
    if len(samples) == 0:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(seed)
    best = _dataset_loss(model, samples, objective)
    history = PerturbationHistory()
    for trial in range(trials):
        saved = [layer.w for layer in model]
        for layer in model:
            layer.w = layer.w + rng.normal(0.0, sigma, size=layer.w.shape)
        candidate = _dataset_loss(model, samples, objective)
        if candidate < best:
            best = candidate
            history.rows.append((trial, best, True))
        else:
            # restore the saved arrays: subtracting the noise again is not
            # bit-exact, and the kept model must be the one that scored best
            for layer, w in zip(model, saved):
                layer.w = w
            history.rows.append((trial, best, False))
    return history
