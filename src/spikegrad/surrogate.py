"""Backward-pass derivative substitutes for the spike function.

The forward pass (``neuron._lif_update``) thresholds the membrane with a
hard step, whose exact derivative is zero almost everywhere (the
dead-neuron regime).  During the backward pass the step's derivative is
replaced by one of several smooth or piecewise stand-ins, all centred on
the threshold and (except the hybrid and step variants) normalised to a
peak value of 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SurrogateVariant",
    "SurrogateKind",
    "surrogate_grad",
    "sigmoid",
    "DEFAULT_SURROGATE",
]


class SurrogateVariant(enum.Enum):
    HEAVISIDE = "heaviside"
    SIGMOID = "sigmoid"
    FAST_SIGMOID = "fast_sigmoid"
    TRIANGULAR = "triangular"
    HYBRID_SPIKE = "hybrid_spike"
    SHIFTED_RELU = "shifted_relu"
    # Unnormalised exact derivative of the sigmoid spike relaxation; used by
    # the relaxed-forward gradient checks, not a training surrogate.
    SIGMOID_EXACT = "sigmoid_exact"


@dataclass(frozen=True)
class SurrogateKind:
    """A chosen derivative substitute plus its shape parameters.

    k      slope of the sigmoid-family variants (finite, > 0)
    c      subthreshold scale of the hybrid variant (finite, >= 0); with c = 0 the
           backward derivative is exactly the forward spike
    scale  constant gradient above threshold for the shifted-ReLU variant (finite)
    """

    variant: SurrogateVariant
    k: float = 25.0
    c: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.k < np.inf:
            raise ValueError(f"slope k must be finite and positive, got {self.k}")
        if not 0.0 <= self.c < np.inf:
            raise ValueError(f"subthreshold scale must be finite and >= 0, got {self.c}")
        if not np.isfinite(self.scale):
            raise ValueError(f"scale must be finite, got {self.scale}")

    @classmethod
    def heaviside(cls) -> "SurrogateKind":
        return cls(SurrogateVariant.HEAVISIDE)

    @classmethod
    def fast_sigmoid(cls, k: float = 25.0) -> "SurrogateKind":
        return cls(SurrogateVariant.FAST_SIGMOID, k=k)

    @classmethod
    def hybrid_spike(cls, c: float = 0.0) -> "SurrogateKind":
        return cls(SurrogateVariant.HYBRID_SPIKE, c=c)

    @classmethod
    def sigmoid_exact(cls, k: float) -> "SurrogateKind":
        return cls(SurrogateVariant.SIGMOID_EXACT, k=k)


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def surrogate_grad(kind: SurrogateKind, u, theta, s=None):
    """Backward-pass estimate of d(spike)/d(membrane), elementwise.

    ``s`` is the spike computed in the forward pass.  Only the hybrid
    variant reads it (its derivative *is* the forward spike, or the small
    constant c below threshold), and it requires it: the spike rule lives in
    ``neuron._lif_update`` alone.  The other variants accept ``s=None``.
    """
    u = np.asarray(u, dtype=np.float64)
    x = u - theta
    v = kind.variant

    if v is SurrogateVariant.HEAVISIDE:
        return np.zeros_like(u)

    if v is SurrogateVariant.SIGMOID:
        # derivative of sigmoid(k*(u - theta)) rescaled so the peak is 1
        sig = sigmoid(kind.k * x)
        return 4.0 * sig * (1.0 - sig)

    if v is SurrogateVariant.SIGMOID_EXACT:
        # true derivative of sigmoid(k*(u - theta)), no normalisation
        sig = sigmoid(kind.k * x)
        return kind.k * sig * (1.0 - sig)

    if v is SurrogateVariant.FAST_SIGMOID:
        return 1.0 / (1.0 + kind.k * np.abs(x)) ** 2

    if v is SurrogateVariant.TRIANGULAR:
        return np.maximum(1.0 - np.abs(x), 0.0)

    if v is SurrogateVariant.HYBRID_SPIKE:
        if s is None:
            raise ValueError("the hybrid surrogate needs the forward spikes s")
        s = np.asarray(s, dtype=np.float64)
        return np.where(s > 0.0, s, kind.c)

    if v is SurrogateVariant.SHIFTED_RELU:
        return np.where(x > 0.0, kind.scale, 0.0)

    raise ValueError(f"unknown surrogate variant {v!r}")


DEFAULT_SURROGATE = SurrogateKind.fast_sigmoid(k=25.0)
