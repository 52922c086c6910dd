"""The chunked online engine against the step-by-step engine it replaced.

``InfluenceState``, ``influence_step``, ``online_grad``, ``UpdatePolicy``,
``_step_credit`` and ``train_online`` below are verbatim copies of earlier
engines, which advanced every layer, credit and gradient one stream step
at a time and kept each layer's influence and gradient accumulator in an
``InfluenceState`` rebuilt on every step and the update interval in an
``UpdatePolicy``.  ``_collect_params``, ``_collect_grads``,
``_assign_params``, ``_non_finite`` and ``optimizer_step`` are verbatim
copies of the earlier update path, which moved the parameters as a list
of arrays and kept Adam's moments keyed by list position in
``SlotOptimizerState.slots``.  ``spikegrad.online.train_online`` reads the
stream one update interval (at most ``online._CHUNK`` steps) at a time,
updates one flat parameter vector, and must reproduce the reference bit
for bit: ``np.array_equal`` weights and ``==`` history rows, not merely
agreement to a tolerance.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np
import pytest

from spikegrad import online
from spikegrad.bptt import LayerGrads, OptimizerKind, OptimizerState, SnnLayer, _trained, _w_only
from spikegrad.neuron import LifParams, LifState, ResetMode, lif_step
from spikegrad.objectives import ObjectiveKind, ObjectiveSpec, _square_error
from spikegrad.online import OnlineHistory
from spikegrad.surrogate import DEFAULT_SURROGATE, SurrogateKind, surrogate_grad


@dataclass
class SlotOptimizerState(OptimizerState):
    """An optimizer state with the earlier Adam slots, keyed by list position."""

    slots: dict = field(default_factory=dict)


def _collect_params(model: list[SnnLayer]) -> list[np.ndarray]:
    return [np.asarray(getattr(layer.lif if n == "beta" else layer, n)) for layer in model for n in _trained(layer)]


def _collect_grads(model: list[SnnLayer], layer_grads: list[LayerGrads]) -> list[np.ndarray]:
    return [np.asarray(getattr(lg, "d_" + n)) for layer, lg in zip(model, layer_grads) for n in _trained(layer)]


def _assign_params(model: list[SnnLayer], params: list[np.ndarray]) -> None:
    it = iter(params)
    for layer in model:
        for name in _trained(layer):
            if name == "beta":
                # beta > 1 puts the temporal gradient in the exploding regime
                beta = float(np.clip(next(it), 1e-9, 1.0))
                layer.lif = dataclasses.replace(layer.lif, beta=beta)
            else:
                setattr(layer, name, next(it))


def _non_finite(model: list[SnnLayer], loss: float, layer_grads: list[LayerGrads]) -> str | None:
    """Name the first NaN or inf among the loss and the trained parameters' gradients, if any."""
    if not np.isfinite(loss):
        return f"loss {loss}"
    for l, (layer, lg) in enumerate(zip(model, layer_grads)):
        for name in _trained(layer):
            if not np.isfinite(getattr(lg, "d_" + name)).all():
                return f"gradient of layer {l} parameter {name}"
    return None


def optimizer_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: OptimizerState
) -> list[np.ndarray]:
    """One update over a flat list of parameter arrays; returns new arrays.

    ``state`` is mutated in place (step counter and Adam moments, keyed by
    position in the list, which must stay stable across calls).
    """
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params but {len(grads)} grads")
    state.step_count += 1
    out = []
    for idx, (p, g) in enumerate(zip(params, grads)):
        p = np.asarray(p, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        if p.shape != g.shape:
            raise ValueError(f"param {idx}: shape {p.shape} != grad shape {g.shape}")
        if state.kind is OptimizerKind.SGD:
            out.append(p - state.lr * g)
            continue
        m, v = state.slots.get(idx, (np.zeros_like(p), np.zeros_like(p)))
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.slots[idx] = (m, v)
        m_hat = m / (1.0 - state.beta1**state.step_count)
        v_hat = v / (1.0 - state.beta2**state.step_count)
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


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


# a stack of n layers, or a named shape: (layer sizes, stream length)
STACKS = {
    1: ((5, 3), 25),
    2: ((5, 6, 3), 25),
    3: ((5, 6, 4, 3), 25),
    "out9": ((5, 6, 9), 25),  # numpy sums rows of 8 or more pairwise
    "1x1": ((1, 1, 1), 40),  # a 1 x 1 weight, where a reduction over steps would run pairwise
    "T1": ((5, 6, 3), 1),
    "T150": ((5, 6, 3), 150),  # longer than online._CHUNK
    "T23": ((5, 6, 3), 23),  # not a multiple of the interval
}


def _problem(seed, stack, reset_mode, adapt_alpha, kind):
    """A stack driven hard enough that every layer spikes, and two streams to train on."""
    rng = np.random.default_rng(seed)
    sizes, t_steps = STACKS[stack]
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


# optimizer name -> its state for a given state class: the reference's keeps list-position slots
OPTIMIZERS = {"sgd": lambda cls: cls.sgd(0.05), "adam": lambda cls: cls.adam(0.01)}
MODES = list(ResetMode)


@pytest.mark.parametrize(
    "stack, reset_mode, interval",
    list(itertools.product((1, 2, 3), MODES, (1, 3, 10, math.inf)))
    + list(itertools.product(("out9",), MODES, (1, 10, math.inf)))
    + list(itertools.product(("1x1",), MODES, (3, math.inf)))
    + list(itertools.product(("T1",), MODES, (1, math.inf)))
    + list(itertools.product(("T150",), MODES, (70, math.inf)))
    + list(itertools.product(("T23",), MODES, (10,))),
)
def test_array_engine_equals_reference(stack, reset_mode, interval):
    surrogate = SurrogateKind.fast_sigmoid(k=5.0)
    cases = itertools.product((0.0, 0.6), (ObjectiveKind.MSE_SPIKE_RATE, ObjectiveKind.MSE_MEMBRANE), OPTIMIZERS)
    for seed, (adapt_alpha, kind, opt) in enumerate(cases):
        case = f"adapt_alpha={adapt_alpha} {kind.value} {opt}"
        lif, weights, streams = _problem(seed, stack, reset_mode, adapt_alpha, kind)
        ref_model = [SnnLayer(w=w.copy(), lif=lif) for w in weights]
        new_model = [SnnLayer(w=w.copy(), lif=lif) for w in weights]
        ref_opt, new_opt = OPTIMIZERS[opt](SlotOptimizerState), OPTIMIZERS[opt](OptimizerState)
        policy = UpdatePolicy.deferred() if interval == math.inf else UpdatePolicy.per_step(interval)
        # two streams through one optimizer, as the CLI trains sample after sample
        for x, y in streams:
            ref = train_online(ref_model, zip(x, y), ObjectiveSpec(kind), surrogate, policy, ref_opt)
            new = online.train_online(new_model, zip(x, y), ObjectiveSpec(kind), surrogate, interval, new_opt)
            assert new.rows == ref.rows, case
            for l, (a, b) in enumerate(zip(new_model, ref_model)):
                assert np.array_equal(a.w, b.w), f"{case}: layer {l}"


@pytest.mark.parametrize("interval, bad_step", [(5, 7), (70, 75)])
def test_a_bad_target_leaves_the_updates_before_it(interval, bad_step):
    # reading ahead stops at the next update, so a bad target leaves the
    # weights of the last update before it, as the reference has them there
    lif, weights, [(x, y), _] = _problem(0, "T150", ResetMode.SUBTRACT, 0.0, ObjectiveKind.MSE_MEMBRANE)
    targets = list(y)
    targets[bad_step - 1] = y[bad_step - 1, :2]
    last_update = (bad_step - 1) // interval * interval
    ref_model = [SnnLayer(w=w.copy(), lif=lif) for w in weights]
    new_model = [SnnLayer(w=w.copy(), lif=lif) for w in weights]
    objective = ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE)
    train_online(ref_model, zip(x[:last_update], y[:last_update]), objective,
                 update_policy=UpdatePolicy.per_step(interval))
    message = f"target of stream step {bad_step} has shape (2,), not (3,)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        online.train_online(new_model, zip(x, targets), objective, interval=interval)
    for l, (a, b, w) in enumerate(zip(new_model, ref_model, weights)):
        assert np.array_equal(a.w, b.w), f"layer {l}"
        assert not np.array_equal(a.w, w), f"layer {l} was not updated"


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
