"""The array-state online engine against the dataclass-state engine it replaced.

``InfluenceState``, ``influence_step``, ``online_grad``, ``UpdatePolicy``
and ``train_online`` below are verbatim copies of the earlier engine, which
kept each layer's influence and gradient accumulator in an
``InfluenceState`` rebuilt on every step and the update interval in an
``UpdatePolicy``.  ``spikegrad.online.train_online`` keeps plain arrays and
must reproduce the reference bit for bit: ``np.array_equal`` weights and
``==`` history rows, not merely agreement to a tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from spikegrad import online
from spikegrad.bptt import LayerGrads, OptimizerState, SnnLayer, _non_finite, optimizer_step
from spikegrad.bptt import _assign_params, _collect_grads, _collect_params, _w_only
from spikegrad.neuron import LifParams, LifState, ResetMode, lif_step
from spikegrad.objectives import ObjectiveKind, ObjectiveSpec
from spikegrad.online import OnlineHistory, _step_credit
from spikegrad.surrogate import DEFAULT_SURROGATE, SurrogateKind, surrogate_grad


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


def train_online(
    model: list[SnnLayer],
    stream,
    objective: ObjectiveSpec,
    surrogate: SurrogateKind = DEFAULT_SURROGATE,
    update_policy: UpdatePolicy | None = None,
    optimizer: OptimizerState | None = None,
) -> OnlineHistory:
    """Train on a single stream of (input step, target step) pairs, in place.

    ``UpdatePolicy.deferred()`` accumulates the whole-stream gradient and
    applies one update at the end; ``per_step(k)`` updates every k steps
    with the gradient gathered since the previous update (plus a final
    flush).  The stream may be any iterable: nothing is read ahead and no
    trace is stored.

    Only w is trained: a layer with ``v`` or a learned beta raises
    ``ValueError`` naming it.  Before each update, a non-finite pending loss
    or gradient raises ``ValueError`` naming the layer and the stream step
    of the update (counted from 1, as in the history rows); the weights stay
    untouched.
    """
    _w_only(model, "train_online")
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
        grads = [LayerGrads(d_w=inf.grad_acc) for inf in influences]
        bad = _non_finite(model, pending_loss, grads)
        if bad is not None:
            raise ValueError(f"non-finite {bad} at the update after stream step {step_idx}")
        new_params = optimizer_step(_collect_params(model), _collect_grads(model, grads), optimizer)
        _assign_params(model, new_params)
        for inf in influences:
            inf.grad_acc = np.zeros_like(inf.grad_acc)
        history.rows.append((step_idx, pending_loss / pending_steps))
        pending_loss = 0.0
        pending_steps = 0

    for x_t, y_t in stream:
        n_steps += 1

        # forward one step through the stack, advancing each layer's influence; the
        # spikes were tested against theta0 + b from before lif_step adds them to b
        layer_theta = []
        x = np.asarray(x_t, dtype=np.float64)
        for l, layer in enumerate(model):
            influences[l] = influence_step(influences[l], layer.lif.beta, x)
            if layer.lif.reset_mode is ResetMode.ZERO:
                # a spike at t-1 zeroes U[t], and with it every row's influence
                influences[l].m *= (1.0 - states[l].s_prev)[:, None]
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
            influences[l].grad_acc += online_grad(cbar, influences[l])
            if l > 0:
                cbar = (model[l].w.T @ cbar) * surrogate_grad(
                    surrogate, states[l - 1].u, layer_theta[l - 1], states[l - 1].s_prev
                )

        if n_steps % update_policy.interval == 0:
            apply_update(n_steps)

    if n_steps == 0:
        raise ValueError("stream is empty")
    if pending_steps > 0:
        apply_update(n_steps)
    return history


def _problem(seed, n_layers, reset_mode, adapt_alpha, kind, t_steps=25):
    """A stack of 1-3 layers driven hard enough that every layer spikes, and two streams to train on."""
    rng = np.random.default_rng(seed)
    sizes = [5, 6, 4][:n_layers] + [3]
    lif = LifParams(beta=0.85, theta0=0.6, reset_mode=reset_mode, adapt_alpha=adapt_alpha)
    weights = [rng.normal(0.2, 1.0 / np.sqrt(n_in), size=(n_out, n_in)) for n_in, n_out in zip(sizes, sizes[1:])]
    streams = []
    for _ in range(2):
        x = (rng.random((t_steps, sizes[0])) < 0.5).astype(np.float64)
        if kind is ObjectiveKind.MSE_SPIKE_RATE:
            y = (rng.random((t_steps, sizes[-1])) < 0.5).astype(np.float64)
        else:
            y = rng.normal(0.0, 1.0, size=(t_steps, sizes[-1]))
        streams.append((x, y))
    return lif, weights, streams


OPTIMIZERS = {"sgd": lambda: OptimizerState.sgd(0.05), "adam": lambda: OptimizerState.adam(0.01)}


@pytest.mark.parametrize(
    "n_layers, reset_mode, interval",
    list(itertools.product((1, 2, 3), list(ResetMode), (1, 3, 10, math.inf))),
)
def test_array_engine_equals_reference(n_layers, reset_mode, interval):
    surrogate = SurrogateKind.fast_sigmoid(k=5.0)
    cases = itertools.product((0.0, 0.6), (ObjectiveKind.MSE_SPIKE_RATE, ObjectiveKind.MSE_MEMBRANE), OPTIMIZERS)
    for seed, (adapt_alpha, kind, opt) in enumerate(cases):
        case = f"adapt_alpha={adapt_alpha} {kind.value} {opt}"
        lif, weights, streams = _problem(seed, n_layers, reset_mode, adapt_alpha, kind)
        ref_model = [SnnLayer(w=w.copy(), lif=lif) for w in weights]
        new_model = [SnnLayer(w=w.copy(), lif=lif) for w in weights]
        ref_opt, new_opt = OPTIMIZERS[opt](), OPTIMIZERS[opt]()
        policy = UpdatePolicy.deferred() if interval == math.inf else UpdatePolicy.per_step(interval)
        # two streams through one optimizer, as the CLI trains sample after sample
        for x, y in streams:
            ref = train_online(ref_model, zip(x, y), ObjectiveSpec(kind), surrogate, policy, ref_opt)
            new = online.train_online(new_model, zip(x, y), ObjectiveSpec(kind), surrogate, interval, new_opt)
            assert new.rows == ref.rows, case
            for l, (a, b) in enumerate(zip(new_model, ref_model)):
                assert np.array_equal(a.w, b.w), f"{case}: layer {l}"


@pytest.mark.parametrize("reset_mode", list(ResetMode))
def test_every_layer_spikes_so_the_reset_gate_is_exercised(reset_mode):
    for n_layers in (1, 2, 3):
        lif, weights, streams = _problem(0, n_layers, reset_mode, 0.0, ObjectiveKind.MSE_MEMBRANE)
        states = [LifState.zeros(w.shape[0]) for w in weights]
        counts = [0.0] * n_layers
        for x in streams[0][0]:
            for l, w in enumerate(weights):
                states[l], x = lif_step(states[l], lif, w @ x)
                counts[l] += float(x.sum())
        assert all(c > 0 for c in counts), counts
