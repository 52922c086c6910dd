"""Temporally local gradient computation (forward-mode, RTRL style).

Instead of unrolling time backwards, each layer carries an influence
matrix m[t] tracking the derivative of the present membrane potential with
respect to each weight.  Because the membrane decays by beta per step and
each weight's immediate effect is its unweighted input, the influence
obeys the one-step recursion

    m[t] = beta * m[t-1] + x[t]

and the instantaneous weight gradient is the product of the per-step
credit assignment cbar[t] = dL[t]/dU[t] with m[t].  Under the zero reset a
spike of neuron j at t-1 zeroes U_j[t], so row j is gated by 1 - s_j[t-1].
Summed over the sequence this equals the BPTT gradient exactly for a
single weight layer, for every reset mode and with threshold adaptation
(reset pathway excluded on both sides); for deeper stacks the hidden
layers receive only the instantaneous spatial adjoint (cross-layer
temporal dependencies are truncated, eligibility-trace style), so the
exactness claim is restricted to one layer.

Everything here reads values available at t and t-1 only.  The state is
plain arrays: per layer the LIF state, the N_out x N_in influence m and a
gradient accumulator of the same shape, so its size is independent of the
stream length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bptt import LayerGrads, OptimizerState, SnnLayer, _non_finite, optimizer_step
from .bptt import _assign_params, _collect_grads, _collect_params, _w_only
from .neuron import LifState, ResetMode, lif_step
from .objectives import ObjectiveKind, ObjectiveSpec, _square_error
from .surrogate import DEFAULT_SURROGATE, SurrogateKind, surrogate_grad

__all__ = ["influence_step", "online_grad", "train_online", "OnlineHistory"]


def influence_step(m: np.ndarray, beta: float, x: np.ndarray) -> np.ndarray:
    """Advance the N_out x N_in influence m[i, j] = dU_i/dW_ij by one step: beta*m + x (broadcast).

    The unweighted input x_j enters every post-synaptic row identically,
    since dU_i/dW_ij depends on the weight only through its input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.shape[1],):
        raise ValueError(f"input shape {x.shape} does not match influence of {m.shape}")
    return beta * m + x


def online_grad(cbar: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Instantaneous weight gradient dL[t]/dW_ij = cbar_i * m_ij."""
    cbar = np.asarray(cbar, dtype=np.float64)
    if cbar.shape != (m.shape[0],):
        raise ValueError(f"cbar length {cbar.shape} does not match {m.shape[0]} outputs")
    return cbar[:, None] * m


@dataclass
class OnlineHistory:
    """One row per optimizer update: (step index, mean loss since last update)."""

    rows: list[tuple[int, float]] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.rows[-1][1]


def _step_credit(
    objective: ObjectiveSpec,
    u: np.ndarray,
    s: np.ndarray,
    target,
    surrogate: SurrogateKind,
    theta: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Instantaneous loss and cbar = dL[t]/dU[t] at the output layer.

    Only objectives with a per-step form are usable online: a membrane
    target (direct derivative) or a spike target (through the surrogate).
    """
    y = np.asarray(target, dtype=np.float64)
    if objective.kind is ObjectiveKind.MSE_MEMBRANE:
        return _square_error(y, u)
    if objective.kind is ObjectiveKind.MSE_SPIKE_RATE:
        loss, d_s = _square_error(y, s)
        return loss, d_s * surrogate_grad(surrogate, u, theta, s)
    raise ValueError(
        f"objective {objective.kind.value} has no instantaneous per-step form; "
        "use mse_membrane (membrane target per step) or mse_spike_rate (spike target per step)"
    )


def train_online(
    model: list[SnnLayer],
    stream,
    objective: ObjectiveSpec,
    surrogate: SurrogateKind = DEFAULT_SURROGATE,
    interval: float = math.inf,
    optimizer: OptimizerState | None = None,
) -> OnlineHistory:
    """Train on a single stream of (input step, target step) pairs, in place.

    The optimizer receives the gradient gathered since the previous update
    every ``interval`` steps, and once more at the end of the stream for
    any steps left over.  The default, ``math.inf``, accumulates the
    whole-stream gradient and applies one update at the end; an interval
    below 1, or finite and not a whole number, raises ``ValueError``.  The
    stream may be any iterable: nothing is read ahead and no trace is stored.

    Only w is trained: a layer with ``v`` or a learned beta raises
    ``ValueError`` naming it.  A step target without one entry per output
    neuron raises ``ValueError`` naming the stream step (counted from 1, as
    in the history rows).  Before each update, a non-finite pending loss or
    gradient raises ``ValueError`` naming the layer and the stream step of
    the update; the weights stay untouched.
    """
    if not (interval >= 1):
        raise ValueError(f"interval must be >= 1, got {interval}")
    if math.isfinite(interval) and interval != int(interval):
        raise ValueError(f"interval must be a whole number or inf, got {interval}")
    _w_only(model, "train_online")
    if optimizer is None:
        optimizer = OptimizerState.sgd(lr=1e-3)

    # per layer: the LIF state, the influence dU/dW and the gradient since the last update
    states = [LifState.zeros(layer.n_out) for layer in model]
    influences = [np.zeros(layer.w.shape) for layer in model]
    grad_acc = [np.zeros(layer.w.shape) for layer in model]
    history = OnlineHistory()

    pending_loss = 0.0
    pending_steps = 0
    n_steps = 0

    def apply_update(step_idx: int) -> None:
        nonlocal pending_loss, pending_steps
        grads = [LayerGrads(d_w=g) for g in grad_acc]
        bad = _non_finite(model, pending_loss, grads)
        if bad is not None:
            raise ValueError(f"non-finite {bad} at the update after stream step {step_idx}")
        new_params = optimizer_step(_collect_params(model), _collect_grads(model, grads), optimizer)
        _assign_params(model, new_params)
        for g in grad_acc:
            g.fill(0.0)
        history.rows.append((step_idx, pending_loss / pending_steps))
        pending_loss = 0.0
        pending_steps = 0

    n_out = model[-1].n_out
    for x_t, y_t in stream:
        n_steps += 1
        if np.shape(y_t) != (n_out,):
            raise ValueError(f"target of stream step {n_steps} has shape {np.shape(y_t)}, not ({n_out},)")

        # forward one step through the stack, advancing each layer's influence; the
        # spikes were tested against theta0 + b from before lif_step adds them to b
        layer_theta = []
        x = np.asarray(x_t, dtype=np.float64)
        for l, layer in enumerate(model):
            influences[l] = influence_step(influences[l], layer.lif.beta, x)
            if layer.lif.reset_mode is ResetMode.ZERO:
                # a spike at t-1 zeroes U[t], and with it every row's influence
                influences[l] *= (1.0 - states[l].s_prev)[:, None]
            layer_theta.append(layer.lif.theta0 + states[l].b)
            states[l], x = lif_step(states[l], layer.lif, layer.w @ x)

        out = len(model) - 1
        loss, cbar = _step_credit(
            objective, states[out].u, states[out].s_prev, y_t, surrogate, layer_theta[out]
        )
        pending_loss += loss
        pending_steps += 1

        # instantaneous spatial adjoint into hidden layers (temporal
        # cross-layer terms truncated)
        for l in range(out, -1, -1):
            grad_acc[l] += online_grad(cbar, influences[l])
            if l > 0:
                cbar = (model[l].w.T @ cbar) * surrogate_grad(
                    surrogate, states[l - 1].u, layer_theta[l - 1], states[l - 1].s_prev
                )

        if n_steps % interval == 0:
            apply_update(n_steps)

    if n_steps == 0:
        raise ValueError("stream is empty")
    if pending_steps > 0:
        apply_update(n_steps)
    return history
