"""Temporally local gradient computation (forward-mode, RTRL style).

Instead of unrolling time backwards, each layer carries an influence
matrix m[t] tracking the derivative of the present membrane potential with
respect to each weight.  Because the membrane decays by beta per step and
each weight's immediate effect is its unweighted input, the influence
obeys the one-step recursion

    m[t] = beta * m[t-1] + x[t]

and the instantaneous weight gradient is the product of the per-step
credit assignment cbar[t] = dL[t]/dU[t] with m[t].  Summed over the
sequence this equals the BPTT gradient exactly for a single weight layer
(reset pathway excluded on both sides); for deeper stacks the hidden
layers receive only the instantaneous spatial adjoint (cross-layer
temporal dependencies are truncated, eligibility-trace style), so the
exactness claim is restricted to one layer.

Everything here reads values available at t and t-1 only, and state size
is independent of the stream length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bptt import LayerGrads, OptimizerState, SnnLayer, _non_finite, optimizer_step
from .neuron import LifParams, LifState, lif_step
from .objectives import ObjectiveKind, ObjectiveSpec, _square_error
from .surrogate import DEFAULT_SURROGATE, SurrogateKind, surrogate_grad

__all__ = [
    "InfluenceState",
    "UpdatePolicy",
    "influence_step",
    "online_grad",
    "train_online",
    "OnlineHistory",
]


@dataclass
class InfluenceState:
    """Influence values dU_j[t]/dW_ij plus a deferred-update accumulator."""

    m: np.ndarray          # N_out x N_in
    grad_acc: np.ndarray   # same shape

    @classmethod
    def zeros(cls, n_out: int, n_in: int) -> "InfluenceState":
        return cls(m=np.zeros((n_out, n_in)), grad_acc=np.zeros((n_out, n_in)))


def influence_step(state: InfluenceState, beta: float, x: np.ndarray) -> InfluenceState:
    """Advance the influence recursion by one step: m <- beta*m + x (broadcast).

    The unweighted input x_i enters every post-synaptic row identically,
    since dU_j/dW_ij depends on the weight only through its input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (state.m.shape[1],):
        raise ValueError(f"input shape {x.shape} does not match influence of {state.m.shape}")
    return InfluenceState(m=beta * state.m + x, grad_acc=state.grad_acc)


def online_grad(cbar: np.ndarray, state: InfluenceState) -> np.ndarray:
    """Instantaneous weight gradient dL[t]/dW_ij = cbar_j * m_ij."""
    cbar = np.asarray(cbar, dtype=np.float64)
    if cbar.shape != (state.m.shape[0],):
        raise ValueError(f"cbar length {cbar.shape} does not match {state.m.shape[0]} outputs")
    return cbar[:, None] * state.m


@dataclass(frozen=True)
class UpdatePolicy:
    """Hand the accumulated gradient to the optimizer every ``interval`` steps."""

    interval: float = math.inf

    @classmethod
    def deferred(cls) -> "UpdatePolicy":
        return cls()

    @classmethod
    def per_step(cls, interval: float = 1) -> "UpdatePolicy":
        if not (interval >= 1):
            raise ValueError(f"interval must be >= 1, got {interval}")
        return cls(interval=interval)


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
    update_policy: UpdatePolicy | None = None,
    optimizer: OptimizerState | None = None,
    seed: int = 0,
) -> OnlineHistory:
    """Train on a single stream of (input step, target step) pairs, in place.

    ``UpdatePolicy.deferred()`` accumulates the whole-stream gradient and
    applies one update at the end; ``per_step(k)`` updates every k steps
    with the gradient gathered since the previous update (plus a final
    flush).  The stream may be any iterable: nothing is read ahead and no
    trace is stored.

    Before each update, a non-finite pending loss or gradient raises
    ``ValueError`` naming the layer and the stream step of the update
    (counted from 1, as in the history rows); the weights stay untouched.
    """
    if update_policy is None:
        update_policy = UpdatePolicy.deferred()
    if optimizer is None:
        optimizer = OptimizerState.sgd(lr=1e-3)

    states = [LifState.zeros(layer.n_out) for layer in model]
    influences = [InfluenceState.zeros(layer.n_out, layer.n_in) for layer in model]
    history = OnlineHistory()

    pending_loss = 0.0
    pending_steps = 0
    n_steps = 0

    def apply_update(step_idx: int) -> None:
        nonlocal pending_loss, pending_steps
        bad = _non_finite(pending_loss, [LayerGrads(d_w=inf.grad_acc) for inf in influences])
        if bad is not None:
            raise ValueError(f"non-finite {bad} at the update after stream step {step_idx}")
        params = [layer.w for layer in model]
        grads = [inf.grad_acc for inf in influences]
        new_params = optimizer_step(params, grads, optimizer)
        for layer, w in zip(model, new_params):
            layer.w = w
        for inf in influences:
            inf.grad_acc = np.zeros_like(inf.grad_acc)
        history.rows.append((step_idx, pending_loss / max(pending_steps, 1)))
        pending_loss = 0.0
        pending_steps = 0

    for x_t, y_t in stream:
        x_t = np.asarray(x_t, dtype=np.float64)
        n_steps += 1

        # forward one step through the stack, tracking per-layer inputs
        layer_inputs = []
        layer_u = []
        layer_s = []
        x = x_t
        for l, layer in enumerate(model):
            current = layer.w @ x
            if layer.v is not None:
                current += layer.v @ states[l].s_prev
            layer_inputs.append(x)
            states[l], spikes = lif_step(states[l], layer.lif, current)
            layer_u.append(states[l].u)
            layer_s.append(spikes)
            x = spikes

        for l, layer in enumerate(model):
            influences[l] = influence_step(influences[l], layer.lif.beta, layer_inputs[l])

        out = len(model) - 1
        theta_out = model[out].lif.theta0 + states[out].b
        loss, cbar = _step_credit(
            objective, layer_u[out], layer_s[out], y_t, surrogate, theta_out
        )
        pending_loss += loss
        pending_steps += 1

        # instantaneous spatial adjoint into hidden layers (temporal
        # cross-layer terms truncated)
        for l in range(out, -1, -1):
            influences[l].grad_acc += online_grad(cbar, influences[l])
            if l > 0:
                theta_h = model[l - 1].lif.theta0 + states[l - 1].b
                cbar = (model[l].w.T @ cbar) * surrogate_grad(
                    surrogate, layer_u[l - 1], theta_h, layer_s[l - 1]
                )

        if n_steps % update_policy.interval == 0:
            apply_update(n_steps)

    if n_steps == 0:
        raise ValueError("stream is empty")
    if pending_steps > 0:
        apply_update(n_steps)
    return history
