"""Unit tests for the temporally local (influence-based) trainer."""

import re

import numpy as np
import pytest

from spikegrad.bptt import OptimizerState, OutputGrads, SnnLayer, backward, forward
from spikegrad.neuron import LifParams, ResetMode
from spikegrad.objectives import ObjectiveKind, ObjectiveSpec, mse_membrane
from spikegrad.online import influence_step, online_grad, train_online
from spikegrad.surrogate import SurrogateKind


class TestInfluenceStep:
    def test_hand_rolled_recursion(self):
        # beta=0.5, inputs 1, 0, 1 -> influence 1, 0.5, 1.25
        m = np.zeros((1, 1))
        values = []
        for x in (1.0, 0.0, 1.0):
            m = influence_step(m, 0.5, np.array([x]))
            values.append(m[0, 0])
        assert values == pytest.approx([1.0, 0.5, 1.25])

    def test_zero_input_decays_geometrically(self):
        m = influence_step(np.full((2, 3), 4.0), 0.25, np.zeros(3))
        assert np.all(m == 1.0)

    def test_beta_zero_is_memoryless(self):
        m = influence_step(np.full((1, 2), 9.0), 0.0, np.array([0.5, 0.0]))
        assert m[0] == pytest.approx([0.5, 0.0])

    def test_broadcast_same_input_every_row(self):
        m = influence_step(np.zeros((3, 2)), 0.7, np.array([1.0, 2.0]))
        assert np.array_equal(m, np.tile([1.0, 2.0], (3, 1)))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            influence_step(np.zeros((2, 3)), 0.5, np.zeros(4))

    def test_state_size_independent_of_stream_length(self):
        m = np.zeros((4, 6))
        rng = np.random.default_rng(0)
        for _ in range(500):
            m = influence_step(m, 0.9, rng.random(6))
        assert m.shape == (4, 6)


class TestOnlineGrad:
    def test_zero_credit_zero_gradient(self):
        assert np.all(online_grad(np.zeros(2), np.ones((2, 3))) == 0.0)

    def test_scalar_product(self):
        assert online_grad(np.array([2.0]), np.array([[1.25]]))[0, 0] == pytest.approx(2.5)

    def test_outer_structure(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = online_grad(np.array([10.0, 0.1]), m)
        assert g == pytest.approx(np.array([[10.0, 20.0], [0.3, 0.4]]))

    def test_leading_step_axis_stacks_the_per_step_products(self):
        rng = np.random.default_rng(14)
        cbar, m = rng.normal(size=(7, 3)), rng.normal(size=(7, 3, 5))
        stacked = online_grad(cbar, m)
        assert np.array_equal(stacked, np.stack([online_grad(c, m_t) for c, m_t in zip(cbar, m)]))

    @pytest.mark.parametrize("cbar_shape, m_shape", [((2,), (3, 4)), ((5, 3), (4, 3, 2)), ((3,), (5, 3, 2))])
    def test_shape_mismatch_names_both_shapes(self, cbar_shape, m_shape):
        message = f"credit of shape {cbar_shape} does not match influence of shape {m_shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            online_grad(np.zeros(cbar_shape), np.zeros(m_shape))


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
            interval=float("inf"),
            optimizer=OptimizerState.sgd(lr),
        )
        assert np.max(np.abs(layer2.w - w_bptt)) < 1e-9 * max(1.0, np.max(np.abs(w_bptt)))

    def test_per_step_with_infinite_interval_equals_deferred(self):
        lif, w0, x, y = _sequence_problem(seed=3)
        obj = ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE)
        a = SnnLayer(w=w0.copy(), lif=lif)
        b = SnnLayer(w=w0.copy(), lif=lif)
        train_online([a], zip(x, y), obj, optimizer=OptimizerState.sgd(1e-3))
        train_online([b], zip(x, y), obj, interval=float("inf"),
                     optimizer=OptimizerState.sgd(1e-3))
        assert np.array_equal(a.w, b.w)

    def test_zero_lr_leaves_weights_unchanged(self):
        lif, w0, x, y = _sequence_problem(seed=4)
        layer = SnnLayer(w=w0.copy(), lif=lif)
        train_online([layer], zip(x, y), ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE),
                     interval=1,
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
                            interval=5,
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
        # it is rejected before the stream is read
        lif, w0, x, y = _sequence_problem(seed=8)
        layer = SnnLayer(w=w0.copy(), lif=lif)
        stream = zip(x, y)
        message = ("objective ce_spike_rate has no instantaneous per-step form; use mse_membrane "
                   "(membrane target per step) or mse_spike_rate (spike target per step)")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_online([layer], stream, ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE))
        assert np.array_equal(next(stream)[0], x[0])

    @pytest.mark.parametrize(
        "kind, target",
        [
            (ObjectiveKind.MSE_MEMBRANE, [0.5]),
            (ObjectiveKind.MSE_SPIKE_RATE, 1.0),
            (ObjectiveKind.MSE_SPIKE_RATE, [1.0, 0.0, 0.0]),
        ],
        ids=["membrane-(1,)", "rate-scalar", "rate-(3,)"],
    )
    def test_step_target_needs_one_entry_per_output(self, kind, target):
        # a (1,) or scalar target used to be broadcast over both outputs
        rng = np.random.default_rng(13)
        layer = SnnLayer.init(3, 2, LifParams(beta=0.9, theta0=0.6), rng)
        w0 = layer.w.copy()
        x = (rng.random((6, 3)) < 0.5).astype(float)
        targets = [[1.0, 0.0]] * 3 + [target] + [[1.0, 0.0]] * 2
        message = f"target of stream step 4 has shape {np.shape(target)}, not (2,)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_online([layer], zip(x, targets), ObjectiveSpec(kind), optimizer=OptimizerState.sgd(1e-2))
        assert np.array_equal(layer.w, w0)

    @pytest.mark.parametrize("step_input", [np.ones(4), np.ones(2), 1.0], ids=["(4,)", "(2,)", "scalar"])
    def test_step_input_needs_one_entry_per_input(self, step_input):
        rng = np.random.default_rng(15)
        layer = SnnLayer.init(3, 2, LifParams(beta=0.9, theta0=0.6), rng)
        w0 = layer.w.copy()
        x = list((rng.random((6, 3)) < 0.5).astype(float))
        x[3] = step_input
        message = f"input of stream step 4 has shape {np.shape(step_input)}, not (3,)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train_online([layer], zip(x, np.tile([1.0, 0.0], (6, 1))), ObjectiveSpec(ObjectiveKind.MSE_SPIKE_RATE),
                         optimizer=OptimizerState.sgd(1e-2))
        assert np.array_equal(layer.w, w0)

    @pytest.mark.parametrize("interval", [0, 0.5, -1, float("nan")])
    def test_interval_below_one_rejected(self, interval):
        lif, w0, x, y = _sequence_problem()
        layer = SnnLayer(w=w0.copy(), lif=lif)
        with pytest.raises(ValueError, match=f"^interval must be >= 1, got {interval}$"):
            train_online([layer], zip(x, y), ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE), interval=interval)
        assert np.array_equal(layer.w, w0)

    @pytest.mark.parametrize("interval", [2.5, 1.5, 7.25])
    def test_fractional_interval_rejected(self, interval):
        lif, w0, x, y = _sequence_problem()
        layer = SnnLayer(w=w0.copy(), lif=lif)
        with pytest.raises(ValueError, match=f"^interval must be a whole number or inf, got {interval}$"):
            train_online([layer], zip(x, y), ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE), interval=interval)
        assert np.array_equal(layer.w, w0)

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
                         interval=10,
                         optimizer=OptimizerState.sgd(1e-3))
        assert np.array_equal(layer.w, w0)

    def test_non_finite_loss_raises_before_the_update(self):
        lif, w0, x, y = _sequence_problem(seed=11, t_steps=20)
        y[12, 0] = np.inf
        obj = ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE)
        clean_half = SnnLayer(w=w0.copy(), lif=lif)
        train_online([clean_half], zip(x[:10], y[:10]), obj,
                     interval=10, optimizer=OptimizerState.sgd(1e-3))
        layer = SnnLayer(w=w0.copy(), lif=lif)
        with pytest.raises(ValueError, match="non-finite loss inf at the update after stream step 20"):
            train_online([layer], zip(x, y), obj,
                         interval=10, optimizer=OptimizerState.sgd(1e-3))
        assert np.array_equal(layer.w, clean_half.w)

    @pytest.mark.parametrize("recurrent, learn_beta, name", [(True, False, "v"), (False, True, "beta")])
    def test_v_and_learned_beta_are_refused_by_name(self, recurrent, learn_beta, name):
        rng = np.random.default_rng(12)
        hidden = SnnLayer.init(4, 6, LifParams(beta=0.9, theta0=0.6), rng)
        out = SnnLayer.init(6, 2, LifParams(beta=0.9, theta0=0.6, learn_beta=learn_beta), rng, recurrent=recurrent)
        w0 = [hidden.w.copy(), out.w.copy()]
        x = (rng.random((10, 4)) < 0.5).astype(float)
        y = np.tile([1.0, 0.0], (10, 1))
        with pytest.raises(ValueError, match=f"^train_online trains w only, but layer 1 also trains {name}$"):
            train_online([hidden, out], zip(x, y), ObjectiveSpec(ObjectiveKind.MSE_SPIKE_RATE),
                         optimizer=OptimizerState.sgd(1e-2))
        assert np.array_equal(hidden.w, w0[0]) and np.array_equal(out.w, w0[1])


def _online_vs_bptt_error(seed, reset_mode, adapt_alpha, kind):
    """Relative gap between one deferred online SGD step (lr 1) and BPTT's detached-reset gradient.

    One layer, 5 -> 3, T = 30, per-step loss, fast sigmoid surrogate with k = 5.
    """
    rng = np.random.default_rng(seed)
    lif = LifParams(beta=0.85, theta0=0.8, reset_mode=reset_mode, adapt_alpha=adapt_alpha)
    w0 = rng.normal(0, 1.5 / np.sqrt(5), size=(3, 5))
    x = (rng.random((30, 5)) < 0.5).astype(float)
    surrogate = SurrogateKind.fast_sigmoid(k=5.0)
    record = forward([SnnLayer(w=w0, lif=lif)], x)
    if kind is ObjectiveKind.MSE_SPIKE_RATE:
        y = (rng.random((30, 3)) < 0.5).astype(float)
        out = OutputGrads(d_spikes=-2.0 * (y - record.output_spikes()))
    else:
        y = rng.normal(0, 1, size=(30, 3))
        out = OutputGrads(d_membrane=-2.0 * (y - record.output_membrane()))
    g = backward(record, out, surrogate=surrogate, detach_reset=True)[0].d_w
    layer = SnnLayer(w=w0.copy(), lif=lif)
    train_online([layer], zip(x, y), ObjectiveSpec(kind), surrogate=surrogate,
                 interval=float("inf"), optimizer=OptimizerState.sgd(1.0))
    return np.max(np.abs((w0 - layer.w) - g)) / np.max(np.abs(g))


class TestOnlineEqualsBptt:
    """On one layer the deferred online gradient is BPTT's with the reset pathway detached."""

    @pytest.mark.parametrize("reset_mode", list(ResetMode))
    def test_every_reset_mode(self, reset_mode):
        errs = [_online_vs_bptt_error(seed, reset_mode, 0.0, ObjectiveKind.MSE_MEMBRANE) for seed in range(10)]
        assert max(errs) < 1e-9

    @pytest.mark.parametrize("reset_mode", list(ResetMode))
    def test_spike_loss_under_threshold_adaptation(self, reset_mode):
        # the surrogate must see the threshold the spike was tested against,
        # theta0 + b from before this step's spike is added to b
        errs = [_online_vs_bptt_error(seed, reset_mode, 0.6, ObjectiveKind.MSE_SPIKE_RATE) for seed in range(10)]
        assert max(errs) < 1e-9
