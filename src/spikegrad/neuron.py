"""Discrete-time leaky integrate-and-fire dynamics.

The membrane potential of each neuron decays geometrically and integrates a
weighted input current:

    U[t] = beta * U[t-1] + WX[t] - reset[t]

A spike is emitted whenever U[t] exceeds the effective firing threshold
(strict inequality; a membrane sitting exactly at the threshold does not
fire).  Three reset mechanisms are supported: subtract the threshold,
force the membrane to zero, or no reset at all.  An optional adaptive
threshold bumps the firing threshold after every spike and relaxes it
back geometrically.

``lif_scan`` rolls a whole T x N input from rest and returns plain
membrane, spike and threshold arrays; ``lif_step`` advances a given state
by one step.  Both apply ``_lif_update``, the one spike rule of the package.

All arithmetic is 64-bit; the gradient checks elsewhere in the package
depend on it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .surrogate import sigmoid

__all__ = [
    "ResetMode",
    "LifParams",
    "LifState",
    "SpikeRaster",
    "beta_from_tau",
    "lif_step",
    "lif_scan",
]


class ResetMode(enum.Enum):
    """What happens to the membrane after a spike."""

    SUBTRACT = "subtract"
    ZERO = "zero"
    NONE = "none"


def _as_matrix(x) -> np.ndarray:
    """Coerce a SpikeRaster or array-like to a float64 2-D array."""
    if isinstance(x, SpikeRaster):
        return x.data
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a T x N matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SpikeRaster:
    """T x N binary spike tensor.

    The common currency between codecs, layers and losses.  Every entry is
    exactly 0.0 or 1.0 (stored as float64 so it can enter matmuls directly).
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"spike raster must be 2-D (T x N), got shape {arr.shape}")
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise ValueError("spike raster entries must be exactly 0 or 1")
        object.__setattr__(self, "data", arr)

    def counts(self) -> np.ndarray:
        """Per-neuron spike counts (column sums)."""
        return self.data.sum(axis=0)

    def __array__(self, dtype=None, copy=None):
        return self.data if dtype is None else self.data.astype(dtype)


@dataclass(frozen=True)
class LifParams:
    """Per-layer neuron constants.

    beta        membrane decay per step, in (0, 1]
    theta0      steady-state firing threshold, finite and > 0
    reset_mode  post-spike reset mechanism
    adapt_alpha decay rate of the adaptive threshold offset, in [0, 1);
                0 disables adaptation entirely
    learn_beta  whether training treats beta as a learnable parameter
    """

    beta: float
    theta0: float = 1.0
    reset_mode: ResetMode = ResetMode.SUBTRACT
    adapt_alpha: float = 0.0
    learn_beta: bool = False

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if not 0.0 < self.theta0 < math.inf:
            raise ValueError(f"theta0 must be finite and positive, got {self.theta0}")
        if not (0.0 <= self.adapt_alpha < 1.0):
            raise ValueError(f"adapt_alpha must be in [0, 1), got {self.adapt_alpha}")
        if not isinstance(self.reset_mode, ResetMode):
            raise ValueError(f"reset_mode must be a ResetMode, got {self.reset_mode!r}")


@dataclass(frozen=True)
class LifState:
    """Evolving per-neuron state: membrane, adaptive threshold offset, last spikes."""

    u: np.ndarray
    b: np.ndarray
    s_prev: np.ndarray

    @classmethod
    def zeros(cls, n: int) -> "LifState":
        """Nulled initial conditions (the default before any input arrives)."""
        return cls(u=np.zeros(n), b=np.zeros(n), s_prev=np.zeros(n))


def beta_from_tau(tau: float, dt: float = 1.0) -> float:
    """Membrane decay rate for a time constant ``tau`` sampled at step ``dt``.

    Uses the exact ratio of the continuous exponential decay between
    consecutive samples, beta = exp(-dt/tau), which stays valid even when
    dt is not small against tau (the linearised 1 - dt/tau is not).
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return math.exp(-dt / tau)


def _lif_update(
    params: LifParams,
    u: np.ndarray,
    b: np.ndarray,
    s_prev: np.ndarray,
    wx: np.ndarray,
    relaxed_slope: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The LIF update rule, the only definition of it in the package.

    Returns the new membrane, adaptive offset and spikes, plus the effective
    threshold the spikes were tested against.  With ``relaxed_slope`` set,
    the hard threshold becomes sigmoid(slope * (u - theta)) and the spikes
    are continuous (a test-only relaxation for the gradient checks).
    """
    theta_eff = params.theta0 + b
    if params.reset_mode is ResetMode.SUBTRACT:
        u_new = params.beta * u + wx - s_prev * theta_eff
    elif params.reset_mode is ResetMode.ZERO:
        u_new = (params.beta * u + wx) * (1.0 - s_prev)
    else:
        u_new = params.beta * u + wx

    if relaxed_slope is None:
        s_new = (u_new > theta_eff).astype(np.float64)
    else:
        s_new = sigmoid(relaxed_slope * (u_new - theta_eff))

    if params.adapt_alpha > 0.0:
        b_new = params.adapt_alpha * b + (1.0 - params.adapt_alpha) * s_new
    else:
        b_new = b
    return u_new, b_new, s_new, theta_eff


def lif_step(
    state: LifState, params: LifParams, weighted_input: np.ndarray
) -> tuple[LifState, np.ndarray]:
    """Advance one LIF layer by a single time step.

    weighted_input is the already-weighted current WX[t] for each neuron.
    Returns the new state and the spike vector (0/1 float64).

    Conventions, fixed here once for the whole package:
      * the effective threshold theta[t] = theta0 + b is read *before*
        b is updated with this step's spike (b lags by one step);
      * SUBTRACT reset removes the effective threshold at positions that
        spiked in the previous step;
      * ZERO reset computes beta*u + WX first, then zeroes positions that
        spiked in the previous step;
      * spiking uses strict inequality u > theta.
    """
    wx = np.asarray(weighted_input, dtype=np.float64)
    if wx.shape != state.u.shape:
        raise ValueError(
            f"weighted_input shape {wx.shape} does not match state of {state.u.shape[0]} neurons"
        )
    u, b, s, _ = _lif_update(params, state.u, state.b, state.s_prev, wx)
    return LifState(u=u, b=b, s_prev=s), s


def lif_scan(
    params: LifParams,
    wx: np.ndarray,
    v: np.ndarray | None = None,
    relaxed_slope: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roll the LIF update over a T x N matrix of weighted input currents.

    ``v`` is an optional N x N explicit-recurrence matrix: step t receives
    v @ s[t-1] on top of wx[t].  The scan starts at rest (``LifState.zeros``).
    Returns the T x N membrane (the value used in each step's threshold
    test), spike and effective-threshold traces.
    """
    wx = np.asarray(wx, dtype=np.float64)
    if wx.ndim != 2:
        raise ValueError(f"expected a T x N matrix, got shape {wx.shape}")
    t_steps, n = wx.shape
    state = LifState.zeros(n)
    u, b, s = state.u, state.b, state.s_prev
    u_trace = np.empty((t_steps, n))
    s_trace = np.empty((t_steps, n))
    theta_trace = np.empty((t_steps, n))
    for t in range(t_steps):
        current = wx[t] if v is None else wx[t] + v @ s
        u, b, s, theta = _lif_update(params, u, b, s, current, relaxed_slope)
        u_trace[t] = u
        s_trace[t] = s
        theta_trace[t] = theta
    return u_trace, s_trace, theta_trace
