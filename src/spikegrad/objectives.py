"""Loss functions and activity regularizers.

Eight objectives are provided, split by what they read from the output
layer (spike counts, membrane potential, or spike times) and by loss type
(softmax cross-entropy with one-hot targets, or summed square error).
Each operation returns the scalar loss together with the gradient with
respect to its direct input, so the training engines can chain it into
their own adjoints.

Spike-time objectives also come with a discrete-time gradient path for
BPTT: the first-spike step is written as f = T - sum_t cummax(S)[t], which
is exact in value and routes the subgradient -(T - k) to the first spike
step k (or to step 0 for a silent neuron).  This relaxation is an
extension beyond the usual continuous-time treatment; the training
accuracy bar for spike-time tasks is set accordingly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .codec import first_spike_steps
from .neuron import _as_matrix

__all__ = [
    "ObjectiveKind",
    "Inversion",
    "ObjectiveSpec",
    "RegularizerSpec",
    "ce_spike_rate",
    "mse_spike_rate",
    "max_membrane_ce",
    "sum_membrane_ce",
    "mse_membrane",
    "ce_spike_time",
    "mse_relative_spike_time",
    "regularize",
    "eval_objective",
    "predict_class",
    "first_spike_grad_to_raster",
]


class ObjectiveKind(enum.Enum):
    CE_SPIKE_RATE = "ce_spike_rate"
    MSE_SPIKE_RATE = "mse_spike_rate"
    MAX_MEMBRANE_CE = "max_membrane_ce"
    SUM_MEMBRANE_CE = "sum_membrane_ce"
    MSE_MEMBRANE = "mse_membrane"
    CE_SPIKE_TIME = "ce_spike_time"
    MSE_SPIKE_TIME = "mse_spike_time"
    MSE_RELATIVE_SPIKE_TIME = "mse_relative_spike_time"


class Inversion(enum.Enum):
    """How first-spike times are turned into logits (early spike = large logit)."""

    NEGATE = "negate"
    RECIPROCAL = "reciprocal"


_RATE_KINDS = {
    ObjectiveKind.CE_SPIKE_RATE,
    ObjectiveKind.MSE_SPIKE_RATE,
    ObjectiveKind.MAX_MEMBRANE_CE,
    ObjectiveKind.SUM_MEMBRANE_CE,
    ObjectiveKind.MSE_MEMBRANE,
}


@dataclass(frozen=True)
class ObjectiveSpec:
    """Tagged choice of loss function plus its kind-specific knobs.

    Per-sample targets come from the dataset (a class index for the CE
    variants, or an explicit target payload for the MSE variants).  When a
    dataset only carries class labels, the *_correct / *_incorrect fields
    below let the MSE variants synthesise a target vector or trace from
    the label.
    """

    kind: ObjectiveKind
    inversion: Inversion = Inversion.NEGATE
    f0: float = 0.0
    gamma: float = 0.0
    count_target_correct: float | None = None
    count_target_incorrect: float | None = None
    membrane_target_correct: float | None = None
    membrane_target_incorrect: float = 0.0


@dataclass(frozen=True)
class RegularizerSpec:
    """Weights of the three activity penalties (all disabled at 0).

    lambda_l1      L1 penalty on total output-layer spiking
    lambda_upper   population penalty once a layer's total count exceeds
                   theta_upper, raised to upper_exponent (1 or 2)
    lambda_lower   per-neuron penalty for firing below theta_lower

    Every weight and threshold must be finite and >= 0.
    """

    lambda_l1: float = 0.0
    lambda_upper: float = 0.0
    theta_upper: float = 0.0
    upper_exponent: int = 2
    lambda_lower: float = 0.0
    theta_lower: float = 0.0

    def __post_init__(self):
        for name in ("lambda_l1", "lambda_upper", "theta_upper", "lambda_lower", "theta_lower"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.upper_exponent not in (1, 2):
            raise ValueError(f"upper_exponent must be 1 or 2, got {self.upper_exponent}")

    @property
    def active(self) -> bool:
        return self.lambda_l1 > 0.0 or self.lambda_upper > 0.0 or self.lambda_lower > 0.0


def _softmax_ce(logits: np.ndarray, target_class: int) -> tuple[float, np.ndarray]:
    """One-hot softmax cross-entropy; returns (loss, dloss/dlogits = p - onehot)."""
    if logits.size == 0:
        raise ValueError("empty logits")
    if not 0 <= target_class < logits.shape[0]:
        raise ValueError(f"target class {target_class} out of range for {logits.shape[0]} logits")
    z = logits - logits.max()
    ez = np.exp(z)
    p = ez / ez.sum()
    loss = -(z[target_class] - np.log(ez.sum()))
    grad = p.copy()
    grad[target_class] -= 1.0
    return float(loss), grad


def _square_error(y: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed square error of x against the target y, and its gradient -2 (y - x) w.r.t. x."""
    err = y - x
    return float(np.sum(err * err)), -2.0 * err


def ce_spike_rate(counts, target_class: int) -> tuple[float, np.ndarray]:
    """Cross-entropy over spike counts used directly as softmax logits."""
    c = np.asarray(counts, dtype=np.float64)
    if c.size == 0:
        raise ValueError("counts must be non-empty")
    return _softmax_ce(c, target_class)


def mse_spike_rate(counts, target_counts) -> tuple[float, np.ndarray]:
    """Summed square error between actual and target per-neuron spike counts."""
    c = np.asarray(counts, dtype=np.float64)
    y = np.asarray(target_counts, dtype=np.float64)
    if c.shape != y.shape:
        raise ValueError(f"counts shape {c.shape} != targets shape {y.shape}")
    return _square_error(y, c)


def max_membrane_ce(trace, target_class: int) -> tuple[float, np.ndarray]:
    """Cross-entropy over each neuron's peak membrane value.

    The gradient is routed entirely to the step where the peak occurs
    (the earliest such step when the peak is attained more than once).
    """
    u = _as_matrix(trace)
    peak_steps = np.argmax(u, axis=0)
    logits = u[peak_steps, np.arange(u.shape[1])]
    loss, dlogits = _softmax_ce(logits, target_class)
    grad = np.zeros_like(u)
    grad[peak_steps, np.arange(u.shape[1])] = dlogits
    return loss, grad


def sum_membrane_ce(trace, target_class: int) -> tuple[float, np.ndarray]:
    """Cross-entropy over time-summed membrane values.

    Every step's membrane enters the logits alike, so the gradient is the
    N-vector dloss/dlogits, which ``backward`` applies at every step.
    """
    return _softmax_ce(_as_matrix(trace).sum(axis=0), target_class)


def mse_membrane(trace, target_trace) -> tuple[float, np.ndarray]:
    """Summed square error against a per-step membrane target."""
    u = _as_matrix(trace)
    y = _as_matrix(target_trace)
    if u.shape != y.shape:
        raise ValueError(f"trace shape {u.shape} != target shape {y.shape}")
    return _square_error(y, u)


def ce_spike_time(
    first_spike: np.ndarray, target_class: int, inversion: Inversion = Inversion.NEGATE
) -> tuple[float, np.ndarray]:
    """Cross-entropy over inverted first-spike times.

    NEGATE uses logits -f; RECIPROCAL uses 1/f and therefore rejects spikes
    at step 0.
    """
    f = np.asarray(first_spike, dtype=np.float64)
    if inversion is Inversion.NEGATE:
        loss, dlogits = _softmax_ce(-f, target_class)
        return loss, -dlogits
    if np.any(f == 0.0):
        raise ValueError("reciprocal inversion requires all first-spike steps >= 1")
    loss, dlogits = _softmax_ce(1.0 / f, target_class)
    return loss, dlogits * (-1.0 / (f * f))


def mse_relative_spike_time(
    first_spike: np.ndarray, target_class: int, f0: float, gamma: float
) -> tuple[float, np.ndarray]:
    """Square error pinning only the correct class's time.

    The correct class targets f0.  An incorrect class is penalised only if
    it fires within the latency window [f0, f0 + gamma); beyond that its
    target equals its own time and the term vanishes.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    f = np.asarray(first_spike, dtype=np.float64)
    y = np.where(f < f0 + gamma, f0 + gamma, f)
    y[target_class] = f0
    return _square_error(y, f)


def regularize(layer_counts, spec: RegularizerSpec):
    """Total activity penalty plus per-layer gradients w.r.t. spike counts.

    ``layer_counts`` holds one spike-count vector per layer (last = output
    layer).  The L1 term reads only the output layer; the upper (population)
    and lower (per-neuron) terms apply to every layer.
    """
    counts = [np.asarray(c, dtype=np.float64) for c in layer_counts]
    if any(c.ndim != 1 for c in counts):
        raise ValueError("regularize takes one spike-count vector per layer")

    penalty = 0.0
    grads = [np.zeros_like(c) for c in counts]

    if spec.lambda_l1 > 0.0:
        penalty += spec.lambda_l1 * float(counts[-1].sum())
        grads[-1] += spec.lambda_l1

    for l, c in enumerate(counts):
        if spec.lambda_upper > 0.0:
            excess = max(float(c.sum()) - spec.theta_upper, 0.0)
            penalty += spec.lambda_upper * excess**spec.upper_exponent
            if excess > 0.0:
                grads[l] += (
                    spec.lambda_upper * spec.upper_exponent * excess ** (spec.upper_exponent - 1)
                )
        if spec.lambda_lower > 0.0:
            deficit = np.maximum(spec.theta_lower - c, 0.0)
            n = c.shape[0]
            penalty += (spec.lambda_lower / n) * float(np.sum(deficit * deficit))
            grads[l] += (spec.lambda_lower / n) * 2.0 * deficit * (-1.0)

    return penalty, grads


def first_spike_grad_to_raster(d_first_spike: np.ndarray, raster, membrane) -> np.ndarray:
    """Map a gradient on first-spike steps onto the spike raster.

    Uses the prefix-maximum relaxation f_i = T - sum_t cummax(S_i)[t]: the
    whole subgradient -(T - k_i) lands on neuron i's first spike step k_i.
    A neuron that never fired leaves the prefix maximum tied at zero
    everywhere, so any step is a valid route; the gradient goes to the step
    of peak membrane, where the neuron came closest to firing and a
    surrogate can actually act.
    """
    s = _as_matrix(raster)
    t_steps = s.shape[0]
    f = first_spike_steps(s)
    route = np.where(f >= t_steps, np.argmax(_as_matrix(membrane), axis=0), f).astype(int)
    grad = np.zeros_like(s)
    grad[route, np.arange(s.shape[1])] = d_first_spike * -(t_steps - route)
    return grad


def _target_counts(spec: ObjectiveSpec, target, n: int) -> np.ndarray:
    if isinstance(target, (int, np.integer)):
        if spec.count_target_correct is None or spec.count_target_incorrect is None:
            raise ValueError(
                "mse_spike_rate with a class label needs count_target_correct/_incorrect"
            )
        y = np.full(n, spec.count_target_incorrect, dtype=np.float64)
        y[int(target)] = spec.count_target_correct
        return y
    return np.asarray(target, dtype=np.float64)


def _target_trace(spec: ObjectiveSpec, target, shape) -> np.ndarray:
    if isinstance(target, (int, np.integer)):
        if spec.membrane_target_correct is None:
            raise ValueError("mse_membrane with a class label needs membrane_target_correct")
        y = np.full(shape, spec.membrane_target_incorrect, dtype=np.float64)
        y[:, int(target)] = spec.membrane_target_correct
        return y
    return _as_matrix(target)


def eval_objective(
    spec: ObjectiveSpec, u_trace: np.ndarray, s_raster: np.ndarray, target
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Evaluate an objective on the output layer's recorded traces.

    Returns (loss, dloss/d_spikes, dloss/d_membrane); either gradient may
    be None when the objective does not touch that trace.  The spike-rate
    kinds give dloss/d_counts and ``sum_membrane_ce`` gives dloss/d_logits,
    N-vectors that ``backward`` applies at every step; other gradients are
    T x N.  ``target`` is a class index or payload.
    """
    u = _as_matrix(u_trace)
    s = _as_matrix(s_raster)
    kind = spec.kind

    if kind is ObjectiveKind.CE_SPIKE_RATE:
        return (*ce_spike_rate(s.sum(axis=0), int(target)), None)
    if kind is ObjectiveKind.MSE_SPIKE_RATE:
        return (*mse_spike_rate(s.sum(axis=0), _target_counts(spec, target, s.shape[1])), None)
    if kind is ObjectiveKind.MAX_MEMBRANE_CE:
        loss, du = max_membrane_ce(u, int(target))
        return loss, None, du
    if kind is ObjectiveKind.SUM_MEMBRANE_CE:
        loss, du = sum_membrane_ce(u, int(target))
        return loss, None, du
    if kind is ObjectiveKind.MSE_MEMBRANE:
        loss, du = mse_membrane(u, _target_trace(spec, target, u.shape))
        return loss, None, du

    f = first_spike_steps(s)
    if kind is ObjectiveKind.CE_SPIKE_TIME:
        loss, df = ce_spike_time(f, int(target), spec.inversion)
    elif kind is ObjectiveKind.MSE_SPIKE_TIME:
        y = np.asarray(target, dtype=np.float64)
        if y.shape != f.shape:
            raise ValueError(f"spike-time target shape {y.shape} != {f.shape}")
        loss, df = _square_error(y, f)
    elif kind is ObjectiveKind.MSE_RELATIVE_SPIKE_TIME:
        loss, df = mse_relative_spike_time(f, int(target), spec.f0, spec.gamma)
    else:
        raise ValueError(f"unknown objective kind {kind!r}")
    return loss, first_spike_grad_to_raster(df, s, membrane=u), None


def predict_class(spec: ObjectiveSpec, s_raster) -> int:
    """Decode a prediction the way the objective's family reads the output."""
    from .codec import latency_decode, rate_decode

    if spec.kind in _RATE_KINDS:
        return rate_decode(s_raster)[1]
    return latency_decode(s_raster)
