"""Spike encoders and decoders.

Encoders turn static or streaming features into spike rasters:

  * rate: each feature value in [0, 1] is the per-step Bernoulli firing
    probability of its input neuron;
  * latency: each feature produces at most one spike, earlier for stronger
    features, at the RC charging time t(x) = tau * ln(x / (x - theta));
  * delta modulation: a spike marks a sufficiently large step-to-step
    increase of a signal (with an optional second raster for decreases).

Decoders reduce an output raster to a predicted class: highest spike count,
earliest first spike, or summed counts over a population of neurons per
class.  All argmax/argmin ties break to the lowest index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .neuron import SpikeRaster, _as_matrix

__all__ = [
    "ClampMode",
    "Polarity",
    "LatencyParams",
    "DeltaParams",
    "rate_encode",
    "latency_encode",
    "delta_encode",
    "rate_decode",
    "latency_decode",
    "population_decode",
    "first_spike_steps",
]


class ClampMode(enum.Enum):
    """What to do with features that never reach the latency threshold."""

    NO_SPIKE = "no_spike"
    FORCE_LAST = "force_last"


class Polarity(enum.Enum):
    POSITIVE_ONLY = "positive_only"
    BIPOLAR = "bipolar"


@dataclass(frozen=True)
class LatencyParams:
    """RC constants of the latency encoder (independent of any layer's LIF)."""

    tau: float
    theta: float
    t_max: int
    clamp_mode: ClampMode = ClampMode.NO_SPIKE

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if not 0.0 < self.theta < math.inf:
            raise ValueError(f"theta must be finite and positive, got {self.theta}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")


@dataclass(frozen=True)
class DeltaParams:
    threshold: float
    polarity: Polarity = Polarity.POSITIVE_ONLY

    def __post_init__(self):
        if not 0.0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be finite and positive, got {self.threshold}")


def rate_encode(features, t_steps: int, rng: np.random.Generator) -> SpikeRaster:
    """Bernoulli spike train: entry (t, i) fires with probability features[i].

    The generator is an explicit argument so that encoding is reproducible
    (same seed, same raster) and parallel encodes can use spawned streams.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"features must be a vector, got shape {x.shape}")
    if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails too
        raise ValueError("rate features must lie in [0, 1]")
    if t_steps < 1:
        raise ValueError(f"t_steps must be >= 1, got {t_steps}")
    draws = rng.random((t_steps, x.shape[0]))
    return SpikeRaster((draws < x).astype(np.float64))


def latency_time(x: float, tau: float, theta: float) -> float:
    """Continuous first-spike time of the RC charging model; inf below threshold."""
    if x <= theta:
        return math.inf
    return tau * math.log(x / (x - theta))


def latency_encode(features, params: LatencyParams) -> SpikeRaster:
    """One spike per neuron at the rounded RC charging time.

    Spike steps are rounded to the nearest integer (numpy rounding,
    ties-to-even).  Features at or below the threshold, or whose rounded
    time falls beyond the horizon, either stay silent (NO_SPIKE) or are
    pinned to the final step (FORCE_LAST).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"features must be a vector, got shape {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"feature {bad[0]} is {x[bad[0]]}; latency features must be finite")
    raster = np.zeros((params.t_max, x.shape[0]))
    for i, xi in enumerate(x):
        t = latency_time(xi, params.tau, params.theta)
        if math.isfinite(t):
            step = int(np.round(t))
            if step < params.t_max:
                raster[step, i] = 1.0
                continue
        if params.clamp_mode is ClampMode.FORCE_LAST:
            raster[params.t_max - 1, i] = 1.0
    return SpikeRaster(raster)


def delta_encode(signal, params: DeltaParams):
    """Spike on sufficiently large step-to-step change of a T x N signal.

    Returns one raster of onset events (increase > threshold), or a pair
    (onset, offset) in BIPOLAR mode where the offset raster marks decreases
    below -threshold.  The first row never fires: there is no preceding
    sample to difference against, which keeps the code invariant to a
    constant offset of the whole signal.
    """
    sig = _as_matrix(signal)
    bad = np.argwhere(~np.isfinite(sig))
    if bad.size:
        t, i = bad[0]
        raise ValueError(f"signal[{t}, {i}] is {sig[t, i]}; delta signals must be finite")
    diff = np.zeros_like(sig)
    diff[1:] = sig[1:] - sig[:-1]
    on = SpikeRaster((diff > params.threshold).astype(np.float64))
    if params.polarity is Polarity.POSITIVE_ONLY:
        return on
    off = SpikeRaster((diff < -params.threshold).astype(np.float64))
    return on, off


def rate_decode(raster) -> tuple[np.ndarray, int]:
    """Per-neuron spike counts and the argmax class (lowest index on ties)."""
    data = _as_matrix(raster)
    if data.shape[1] < 1:
        raise ValueError("raster must have at least one neuron")
    counts = data.sum(axis=0)
    return counts, int(np.argmax(counts))


def first_spike_steps(raster) -> np.ndarray:
    """Step of each neuron's first spike; neurons that never fire get T."""
    data = _as_matrix(raster)
    t_steps = data.shape[0]
    fired = data > 0.0
    first = np.where(fired.any(axis=0), fired.argmax(axis=0), t_steps)
    return first.astype(np.float64)


def latency_decode(raster) -> int:
    """Class of the neuron that fires first; silent neurons rank last."""
    data = _as_matrix(raster)
    if data.shape[1] < 1:
        raise ValueError("raster must have at least one neuron")
    return int(np.argmin(first_spike_steps(data)))


def population_decode(raster, groups) -> int:
    """Argmax over summed counts of each class's neuron group.

    ``groups`` is a sequence of length N giving each neuron's class index,
    a whole number >= 0.
    """
    data = _as_matrix(raster)
    n = data.shape[1]
    g = np.asarray(groups, dtype=np.float64)
    if g.shape != (n,):
        raise ValueError(f"group map covers {g.shape[0] if g.ndim == 1 else '?'} neurons, raster has {n}")
    bad = np.flatnonzero(~(np.isfinite(g) & (g >= 0.0) & (g == np.floor(g))))
    if bad.size:
        raise ValueError(f"neuron {bad[0]} has class {g[bad[0]]:g}; a class index is a whole number >= 0")
    assign = g.astype(int)
    counts = data.sum(axis=0)
    n_classes = int(assign.max()) + 1
    sums = np.zeros(n_classes)
    np.add.at(sums, assign, counts)
    return int(np.argmax(sums))
