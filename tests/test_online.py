"""Unit tests for the temporally local (influence-based) trainer."""

import numpy as np
import pytest

from spikegrad.bptt import OptimizerState, OutputGrads, SnnLayer, backward, forward
from spikegrad.neuron import LifParams, ResetMode
from spikegrad.objectives import ObjectiveKind, ObjectiveSpec, mse_membrane
from spikegrad.online import (
    InfluenceState,
    UpdatePolicy,
    influence_step,
    online_grad,
    train_online,
)


class TestInfluenceStep:
    def test_hand_rolled_recursion(self):
        # beta=0.5, inputs 1, 0, 1 -> influence 1, 0.5, 1.25
        state = InfluenceState.zeros(1, 1)
        values = []
        for x in (1.0, 0.0, 1.0):
            state = influence_step(state, 0.5, np.array([x]))
            values.append(state.m[0, 0])
        assert values == pytest.approx([1.0, 0.5, 1.25])

    def test_zero_input_decays_geometrically(self):
        state = InfluenceState(m=np.full((2, 3), 4.0), grad_acc=np.zeros((2, 3)))
        state = influence_step(state, 0.25, np.zeros(3))
        assert np.all(state.m == 1.0)

    def test_beta_zero_is_memoryless(self):
        state = InfluenceState(m=np.full((1, 2), 9.0), grad_acc=np.zeros((1, 2)))
        state = influence_step(state, 0.0, np.array([0.5, 0.0]))
        assert state.m[0] == pytest.approx([0.5, 0.0])

    def test_broadcast_same_input_every_row(self):
        state = InfluenceState.zeros(3, 2)
        state = influence_step(state, 0.7, np.array([1.0, 2.0]))
        assert np.array_equal(state.m, np.tile([1.0, 2.0], (3, 1)))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            influence_step(InfluenceState.zeros(2, 3), 0.5, np.zeros(4))

    def test_state_size_independent_of_stream_length(self):
        state = InfluenceState.zeros(4, 6)
        rng = np.random.default_rng(0)
        for _ in range(500):
            state = influence_step(state, 0.9, rng.random(6))
        assert state.m.shape == (4, 6)
        assert state.grad_acc.shape == (4, 6)


class TestOnlineGrad:
    def test_zero_credit_zero_gradient(self):
        state = InfluenceState(m=np.ones((2, 3)), grad_acc=np.zeros((2, 3)))
        assert np.all(online_grad(np.zeros(2), state) == 0.0)

    def test_scalar_product(self):
        state = InfluenceState(m=np.array([[1.25]]), grad_acc=np.zeros((1, 1)))
        assert online_grad(np.array([2.0]), state)[0, 0] == pytest.approx(2.5)

    def test_outer_structure(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        state = InfluenceState(m=m, grad_acc=np.zeros_like(m))
        g = online_grad(np.array([10.0, 0.1]), state)
        assert g == pytest.approx(np.array([[10.0, 20.0], [0.3, 0.4]]))


def _sequence_problem(seed=0, n_in=5, n_out=3, t_steps=24):
    rng = np.random.default_rng(seed)
    lif = LifParams(beta=0.85, theta0=0.8, reset_mode=ResetMode.SUBTRACT)
    w0 = rng.normal(0, 1.2 / np.sqrt(n_in), size=(n_out, n_in))
    x = (rng.random((t_steps, n_in)) < 0.4).astype(float)
    y = rng.normal(0, 1, size=(t_steps, n_out))
    return lif, w0, x, y


class TestTrainOnline:
    def test_deferred_equals_single_bptt_update(self):
        lif, w0, x, y = _sequence_problem()
        # reverse-mode side: one full-sequence gradient, one SGD step
        layer = SnnLayer(w=w0.copy(), lif=lif)
        record = forward([layer], x)
        _, d_u = mse_membrane(record.output_membrane(), y)
        g = backward(record, OutputGrads(d_membrane=d_u), detach_reset=True)[0].d_w
        lr = 1e-3
        w_bptt = w0 - lr * g
        # forward-mode side: deferred online update over the same stream
        layer2 = SnnLayer(w=w0.copy(), lif=lif)
        train_online(
            [layer2],
            zip(x, y),
            ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE),
            update_policy=UpdatePolicy.deferred(),
            optimizer=OptimizerState.sgd(lr),
        )
        assert np.max(np.abs(layer2.w - w_bptt)) < 1e-9 * max(1.0, np.max(np.abs(w_bptt)))

    def test_per_step_with_infinite_interval_equals_deferred(self):
        lif, w0, x, y = _sequence_problem(seed=3)
        obj = ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE)
        a = SnnLayer(w=w0.copy(), lif=lif)
        b = SnnLayer(w=w0.copy(), lif=lif)
        train_online([a], zip(x, y), obj, update_policy=UpdatePolicy.deferred(),
                     optimizer=OptimizerState.sgd(1e-3))
        train_online([b], zip(x, y), obj, update_policy=UpdatePolicy.per_step(float("inf")),
                     optimizer=OptimizerState.sgd(1e-3))
        assert np.array_equal(a.w, b.w)

    def test_zero_lr_leaves_weights_unchanged(self):
        lif, w0, x, y = _sequence_problem(seed=4)
        layer = SnnLayer(w=w0.copy(), lif=lif)
        train_online([layer], zip(x, y), ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE),
                     update_policy=UpdatePolicy.per_step(1),
                     optimizer=OptimizerState.sgd(0.0))
        assert np.array_equal(layer.w, w0)

    def test_accepts_one_shot_generator_stream(self):
        # nothing is read ahead: a generator that can only be consumed once works
        lif, w0, x, y = _sequence_problem(seed=5)
        layer = SnnLayer(w=w0.copy(), lif=lif)
        stream = ((x[t], y[t]) for t in range(x.shape[0]))
        hist = train_online([layer], stream, ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE),
                            optimizer=OptimizerState.sgd(1e-4))
        assert len(hist.rows) == 1

    def test_per_step_updates_every_interval(self):
        lif, w0, x, y = _sequence_problem(seed=6, t_steps=20)
        layer = SnnLayer(w=w0.copy(), lif=lif)
        hist = train_online([layer], zip(x, y), ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE),
                            update_policy=UpdatePolicy.per_step(5),
                            optimizer=OptimizerState.sgd(1e-4))
        assert [row[0] for row in hist.rows] == [5, 10, 15, 20]

    def test_spike_target_objective_runs(self):
        lif, w0, x, _ = _sequence_problem(seed=7)
        layer = SnnLayer(w=w0.copy(), lif=lif)
        y_spikes = np.zeros((x.shape[0], w0.shape[0]))
        y_spikes[:, 0] = 1.0
        hist = train_online([layer], zip(x, y_spikes),
                            ObjectiveSpec(ObjectiveKind.MSE_SPIKE_RATE),
                            optimizer=OptimizerState.sgd(1e-3))
        assert np.isfinite(hist.final_loss)

    def test_unsupported_objective_named(self):
        lif, w0, x, y = _sequence_problem(seed=8)
        layer = SnnLayer(w=w0.copy(), lif=lif)
        with pytest.raises(ValueError, match="per-step"):
            train_online([layer], zip(x, y), ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE))

    def test_empty_stream_rejected(self):
        lif, w0, _, _ = _sequence_problem()
        with pytest.raises(ValueError, match="empty"):
            train_online([SnnLayer(w=w0, lif=lif)], [], ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE))

    def test_multi_layer_hidden_weights_move(self):
        rng = np.random.default_rng(9)
        lif = LifParams(beta=0.9, theta0=0.6)
        model = [SnnLayer.init(4, 6, lif, rng), SnnLayer.init(6, 2, lif, rng)]
        w_hidden = model[0].w.copy()
        x = (rng.random((30, 4)) < 0.5).astype(float)
        y = np.tile([1.0, 0.0], (30, 1))
        train_online(model, zip(x, y), ObjectiveSpec(ObjectiveKind.MSE_SPIKE_RATE),
                     optimizer=OptimizerState.sgd(1e-2))
        assert not np.array_equal(model[0].w, w_hidden)

    def test_non_finite_gradient_raises_before_the_update(self):
        lif, w0, x, _ = _sequence_problem(seed=10, t_steps=20)
        x[3, 1] = np.nan
        y_spikes = np.zeros((20, w0.shape[0]))
        layer = SnnLayer(w=w0.copy(), lif=lif)
        with pytest.raises(ValueError, match="non-finite gradient of layer 0 parameter w "
                                             "at the update after stream step 10"):
            train_online([layer], zip(x, y_spikes), ObjectiveSpec(ObjectiveKind.MSE_SPIKE_RATE),
                         update_policy=UpdatePolicy.per_step(10),
                         optimizer=OptimizerState.sgd(1e-3))
        assert np.array_equal(layer.w, w0)

    def test_non_finite_loss_raises_before_the_update(self):
        lif, w0, x, y = _sequence_problem(seed=11, t_steps=20)
        y[12, 0] = np.inf
        obj = ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE)
        clean_half = SnnLayer(w=w0.copy(), lif=lif)
        train_online([clean_half], zip(x[:10], y[:10]), obj,
                     update_policy=UpdatePolicy.per_step(10), optimizer=OptimizerState.sgd(1e-3))
        layer = SnnLayer(w=w0.copy(), lif=lif)
        with pytest.raises(ValueError, match="non-finite loss inf at the update after stream step 20"):
            train_online([layer], zip(x, y), obj,
                         update_policy=UpdatePolicy.per_step(10), optimizer=OptimizerState.sgd(1e-3))
        assert np.array_equal(layer.w, clean_half.w)
