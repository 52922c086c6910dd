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

Everything here reads values available at t and t-1 only.  The weights
change only at an optimizer update, so ``train_online`` reads the stream
one chunk at a time: up to the next update, and at most ``_CHUNK`` steps.
Per layer it steps the influence and the LIF state through the chunk,
then forms the chunk's credit and gradient at once.  The state is plain
arrays: per layer the LIF state, the N_out x N_in influence m, a gradient
accumulator of the same shape and the chunk's traces, so memory is
O(_CHUNK * N_out * N_in) per layer, whatever the stream length.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bptt import OptimizerState, SnnLayer, _FlatParams, _w_only, optimizer_step
from .neuron import LifState, ResetMode, lif_step
from .objectives import ObjectiveKind, ObjectiveSpec
from .surrogate import DEFAULT_SURROGATE, SurrogateKind, surrogate_grad

__all__ = ["influence_step", "online_grad", "train_online", "OnlineHistory"]

_CHUNK = 64  # stream steps read ahead at most; bounds the stored traces


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
    """Instantaneous weight gradient dL[t]/dW_ij = cbar_i * m_ij.

    With a leading step axis, a c x N_out credit and c x N_out x N_in
    influences give the c per-step products.
    """
    cbar = np.asarray(cbar, dtype=np.float64)
    if cbar.shape != m.shape[:-1]:
        raise ValueError(f"credit of shape {cbar.shape} does not match influence of shape {m.shape}")
    return cbar[..., None] * m


@dataclass
class OnlineHistory:
    """One row per optimizer update: (step index, mean loss since last update)."""

    rows: list[tuple[int, float]] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.rows[-1][1]


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
    stream may be any iterable.  It is read up to the next update, at most
    ``_CHUNK`` (64) steps ahead, and only that chunk's traces are stored:
    O(_CHUNK * N_out * N_in) per layer.  Weights and history rows equal
    those of a step-by-step engine bit for bit.

    Only objectives with a per-step form are usable: ``mse_membrane`` and
    ``mse_spike_rate``; any other raises ``ValueError`` before the stream
    is read.  Only w is trained: a layer with ``v`` or a learned beta raises
    ``ValueError`` naming it.  A step input or target without one entry per
    input or output neuron raises ``ValueError`` naming the stream step
    (counted from 1, as in the history rows), after the updates of the
    steps before it.  Before each update, a non-finite pending loss or
    gradient raises ``ValueError`` naming the layer and the stream step of
    the update; the weights stay untouched.
    """
    if not (interval >= 1):
        raise ValueError(f"interval must be >= 1, got {interval}")
    if math.isfinite(interval) and interval != int(interval):
        raise ValueError(f"interval must be a whole number or inf, got {interval}")
    _w_only(model, "train_online")
    if objective.kind not in (ObjectiveKind.MSE_MEMBRANE, ObjectiveKind.MSE_SPIKE_RATE):
        raise ValueError(
            f"objective {objective.kind.value} has no instantaneous per-step form; "
            "use mse_membrane (membrane target per step) or mse_spike_rate (spike target per step)"
        )
    if optimizer is None:
        optimizer = OptimizerState.sgd(lr=1e-3)

    # per layer: the LIF state, the influence dU/dW and a view of the gradient since the last update
    params = _FlatParams(model)
    grad = np.zeros_like(params.vec)
    grad_acc = params.views(grad)
    states = [LifState.zeros(layer.n_out) for layer in model]
    influences = [np.zeros(layer.w.shape) for layer in model]
    history = OnlineHistory()

    pending_loss = 0.0
    pending_steps = 0
    n_steps = 0

    def apply_update(step_idx: int) -> None:
        nonlocal pending_loss, pending_steps
        bad = params.non_finite(pending_loss, grad)
        if bad is not None:
            raise ValueError(f"non-finite {bad} at the update after stream step {step_idx}")
        optimizer_step(params.vec, grad, optimizer)
        grad.fill(0.0)
        history.rows.append((step_idx, pending_loss / pending_steps))
        pending_loss = 0.0
        pending_steps = 0

    n_in, n_out = model[0].n_in, model[-1].n_out
    stream = iter(stream)
    while True:
        # read up to the next update (the weights are fixed until then), at most _CHUNK steps
        room = int(min(_CHUNK, interval - n_steps % interval))
        xs, ys = [], []
        for x_t, y_t in itertools.islice(stream, room):
            step = n_steps + len(ys) + 1
            if np.shape(y_t) != (n_out,):
                raise ValueError(f"target of stream step {step} has shape {np.shape(y_t)}, not ({n_out},)")
            if np.shape(x_t) != (n_in,):
                raise ValueError(f"input of stream step {step} has shape {np.shape(x_t)}, not ({n_in},)")
            xs.append(x_t)
            ys.append(y_t)
        if not ys:
            break
        n_steps += len(ys)

        # forward the chunk one layer at a time, advancing each layer's influence
        x = np.array(xs, dtype=np.float64)
        traces = []
        for l, layer in enumerate(model):
            lif, m, state = layer.lif, influences[l], states[l]
            wx = np.matmul(layer.w, x[:, :, None])[:, :, 0]  # w @ x[t] for every step t
            m_trace, state_trace = [], [state]
            for x_t, wx_t in zip(x, wx):
                m = influence_step(m, lif.beta, x_t)
                if lif.reset_mode is ResetMode.ZERO:
                    # a spike at t-1 zeroes U[t], and with it every row's influence
                    m *= (1.0 - state.s_prev)[:, None]
                state, _ = lif_step(state, lif, wx_t)
                m_trace.append(m)
                state_trace.append(state)
            influences[l], states[l] = m, state
            u = np.array([st.u for st in state_trace[1:]])
            s = np.array([st.s_prev for st in state_trace[1:]])
            # the spikes were tested against theta0 + b from before lif_step adds them to b
            theta = lif.theta0 + np.array([st.b for st in state_trace[:-1]])
            traces.append((np.array(m_trace), u, s, theta))
            x = s

        # output credit cbar[t] = dL[t]/dU[t]: a membrane target's directly, a spike target's
        # through the surrogate
        _, u, s, theta = traces[-1]
        err = np.array(ys, dtype=np.float64) - (u if objective.kind is ObjectiveKind.MSE_MEMBRANE else s)
        cbar = -2.0 * err
        if objective.kind is ObjectiveKind.MSE_SPIKE_RATE:
            cbar = cbar * surrogate_grad(surrogate, u, theta, s)
        for loss in np.sum(err * err, axis=1).tolist():  # in step order, as a running total rounds
            pending_loss += loss
        pending_steps += len(ys)

        # instantaneous spatial adjoint into hidden layers (temporal
        # cross-layer terms truncated)
        for l in range(len(model) - 1, -1, -1):
            for g in online_grad(cbar, traces[l][0]):  # in step order: a sum over steps rounds otherwise
                grad_acc[l] += g
            if l > 0:
                _, u, s, theta = traces[l - 1]
                cbar = np.matmul(model[l].w.T, cbar[:, :, None])[:, :, 0] * surrogate_grad(surrogate, u, theta, s)

        if n_steps % interval == 0:
            apply_update(n_steps)
        if len(ys) < room:
            break

    if n_steps == 0:
        raise ValueError("stream is empty")
    if pending_steps > 0:
        apply_update(n_steps)
    return history
