"""Unit tests for the network forward pass, adjoint, optimizers and checkpoints."""

import re

import numpy as np
import pytest

import spikegrad.surrogate
from spikegrad.bptt import (
    Feedback,
    OptimizerState,
    OutputGrads,
    SnnLayer,
    backward,
    forward,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    train_bptt,
)
from spikegrad.neuron import LifParams, ResetMode, lif_scan
from spikegrad.objectives import ObjectiveKind, ObjectiveSpec, mse_membrane
from spikegrad.surrogate import SurrogateKind
from spikegrad.tasks import gen_rate_task


def small_model(rng, sizes=(3, 4, 2), beta=0.9, theta=1.0, **lif_kw):
    lif = LifParams(beta=beta, theta0=theta, **lif_kw)
    return [
        SnnLayer.init(sizes[i], sizes[i + 1], lif, rng, random_feedback=True)
        for i in range(len(sizes) - 1)
    ]


class TestForward:
    def test_zero_weights_zero_output(self):
        layer = SnnLayer(w=np.zeros((4, 3)), lif=LifParams(beta=0.9))
        x = np.ones((10, 3))
        record = forward([layer], x)
        assert record.output_spikes().sum() == 0

    def test_single_neuron_decay_trace(self):
        layer = SnnLayer(w=np.array([[1.0]]), lif=LifParams(beta=0.5, theta0=10.0))
        x = np.zeros((5, 1))
        x[0, 0] = 1.0
        record = forward([layer], x)
        assert record.output_membrane()[:, 0] == pytest.approx([0.5**k for k in range(5)])

    def test_two_layer_chain_matches_resimulation(self):
        rng = np.random.default_rng(3)
        model = small_model(rng)
        x = (rng.random((12, 3)) < 0.5).astype(float)
        record = forward(model, x)
        # layer 1's input raster is layer 0's spike raster
        assert np.array_equal(record.traces[1].x, record.traces[0].s)
        # re-simulate each layer independently through the neuron module
        for l, layer in enumerate(model):
            wx = record.traces[l].x @ layer.w.T
            u_ref, s_ref, _ = lif_scan(layer.lif, wx)
            assert np.array_equal(u_ref, record.traces[l].u)
            assert np.array_equal(s_ref, record.traces[l].s)

    def test_dimension_mismatch_rejected(self):
        layer = SnnLayer(w=np.zeros((4, 3)), lif=LifParams(beta=0.9))
        with pytest.raises(ValueError):
            forward([layer], np.zeros((5, 2)))

    @pytest.mark.parametrize(
        "matrices, first_bad",
        [
            (dict(w=[[np.nan]]), "w[0, 0] is nan"),
            (dict(w=[[1.0, 2.0], [0.5, -np.inf]]), "w[1, 1] is -inf"),
            (dict(w=[[1.0]], v=[[np.inf]]), "v[0, 0] is inf"),
            (dict(w=[[1.0, 2.0]], feedback_b=[[1.0], [np.nan]]), "feedback_b[1, 0] is nan"),
        ],
        ids=["w-nan", "w-inf", "v", "feedback_b"],
    )
    def test_non_finite_weight_is_named(self, matrices, first_bad):
        with pytest.raises(ValueError, match=re.escape(f"{first_bad}; weights must be finite")):
            SnnLayer(lif=LifParams(beta=0.9), **matrices)

    def test_explicit_recurrence_feeds_own_spikes(self):
        lif = LifParams(beta=0.5, theta0=0.5, reset_mode=ResetMode.NONE)
        layer = SnnLayer(w=np.array([[1.0]]), v=np.array([[2.0]]), lif=lif)
        x = np.zeros((3, 1))
        x[0, 0] = 1.0  # causes a spike at t=0; V keeps the neuron firing after
        record = forward([layer], x)
        assert record.output_spikes()[:, 0].tolist() == [1.0, 1.0, 1.0]
        assert record.output_membrane()[:, 0] == pytest.approx([1.0, 2.5, 3.25])


class TestBackward:
    def test_zero_output_gradient_gives_zero_dw(self):
        rng = np.random.default_rng(0)
        model = small_model(rng)
        x = (rng.random((8, 3)) < 0.5).astype(float)
        record = forward(model, x)
        zeros = np.zeros_like(record.output_spikes())
        grads = backward(record, OutputGrads(d_spikes=zeros, d_membrane=zeros))
        for g in grads:
            assert np.all(g.d_w == 0.0)

    def test_random_feedback_matches_symmetric_on_output_layer(self):
        rng = np.random.default_rng(2)
        model = small_model(rng)
        x = (rng.random((10, 3)) < 0.5).astype(float)
        record = forward(model, x)
        d_s = rng.normal(size=record.output_spikes().shape)
        sym = backward(record, OutputGrads(d_spikes=d_s), feedback=Feedback.SYMMETRIC)
        rnd = backward(record, OutputGrads(d_spikes=d_s), feedback=Feedback.RANDOM_FIXED)
        assert np.array_equal(sym[-1].d_w, rnd[-1].d_w)
        assert not np.array_equal(sym[0].d_w, rnd[0].d_w)

    def test_random_feedback_requires_matrices(self):
        rng = np.random.default_rng(3)
        lif = LifParams(beta=0.9)
        model = [SnnLayer.init(3, 4, lif, rng), SnnLayer.init(4, 2, lif, rng)]
        record = forward(model, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="feedback_b"):
            backward(
                record,
                OutputGrads(d_spikes=np.zeros((4, 2))),
                feedback=Feedback.RANDOM_FIXED,
            )

    def test_detached_subtract_equals_none_reset_when_silent(self):
        # subthreshold run: reset pathway carries nothing either way
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 0.05, size=(10, 3))
        d_u = rng.normal(size=(10, 2))
        grads = {}
        for mode in (ResetMode.SUBTRACT, ResetMode.NONE):
            lif = LifParams(beta=0.9, theta0=5.0, reset_mode=mode)
            rng_w = np.random.default_rng(7)
            model = [SnnLayer.init(3, 2, lif, rng_w)]
            record = forward(model, x)
            assert record.output_spikes().sum() == 0
            grads[mode] = backward(record, OutputGrads(d_membrane=d_u), detach_reset=True)
        assert np.array_equal(grads[ResetMode.SUBTRACT][0].d_w, grads[ResetMode.NONE][0].d_w)

    def test_heaviside_kills_spike_pathways(self):
        rng = np.random.default_rng(5)
        model = small_model(rng)
        x = (rng.random((10, 3)) < 0.6).astype(float)
        record = forward(model, x)
        d_s = rng.normal(size=record.output_spikes().shape)
        grads = backward(record, OutputGrads(d_spikes=d_s), surrogate=SurrogateKind.heaviside())
        for g in grads:
            assert np.all(g.d_w == 0.0)

    def test_quiet_gap_contribution_ratio_is_exactly_beta(self):
        beta = 0.75
        lif = LifParams(beta=beta, theta0=1.0, reset_mode=ResetMode.SUBTRACT)
        t_post = 12
        mags = []
        for gap in (3, 4):
            layer = SnnLayer(w=np.array([[0.05, 2.0]]), lif=lif)
            x = np.zeros((16, 2))
            x[t_post - gap, 0] = 1.0
            x[t_post, 1] = 1.0
            record = forward([layer], x)
            d_s = np.zeros((16, 1))
            d_s[t_post, 0] = 1.0
            g = backward(
                record, OutputGrads(d_spikes=d_s), surrogate=SurrogateKind.hybrid_spike(0.0)
            )
            mags.append(abs(g[0].d_w[0, 0]))
        assert mags[1] / mags[0] == pytest.approx(beta, abs=1e-12)

    def test_subthreshold_gradient_matches_true_finite_differences(self):
        # with no spikes anywhere, the hard forward pass is smooth in W and
        # the surrogate never engages: backward must match plain FD
        rng = np.random.default_rng(10)
        lif = LifParams(beta=0.8, theta0=50.0)
        layer = SnnLayer(w=rng.normal(0, 0.3, size=(2, 3)), lif=lif)
        x = (rng.random((12, 3)) < 0.5).astype(float)
        y = rng.normal(size=(12, 2))

        def loss_of(model):
            rec = forward(model, x)
            assert rec.output_spikes().sum() == 0
            return mse_membrane(rec.output_membrane(), y)[0]

        record = forward([layer], x)
        _, d_u = mse_membrane(record.output_membrane(), y)
        grad = backward(record, OutputGrads(d_membrane=d_u))[0].d_w

        eps = 1e-6
        for idx in np.ndindex(layer.w.shape):
            base = layer.w[idx]
            layer.w[idx] = base + eps
            lp = loss_of([layer])
            layer.w[idx] = base - eps
            lm = loss_of([layer])
            layer.w[idx] = base
            fd = (lp - lm) / (2 * eps)
            assert grad[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_regularizer_pathway_matches_relaxed_finite_differences(self):
        # activity penalties enter as extra per-layer spike gradients; in
        # relaxed mode the whole composition is smooth and FD-checkable
        from spikegrad.objectives import RegularizerSpec, regularize

        rng = np.random.default_rng(11)
        lif = LifParams(beta=0.85, theta0=0.6, reset_mode=ResetMode.SUBTRACT)
        model = [SnnLayer.init(3, 4, lif, rng), SnnLayer.init(4, 2, lif, rng)]
        x = (rng.random((8, 3)) < 0.5).astype(float)
        spec = RegularizerSpec(
            lambda_l1=0.3, lambda_upper=0.2, theta_upper=1.0, lambda_lower=0.4, theta_lower=3.0
        )
        slope = 3.0

        def loss_of():
            rec = forward(model, x, relaxed_slope=slope)
            counts = [tr.s.sum(axis=0) for tr in rec.traces]
            penalty, grads = regularize(counts, spec)
            extra = [np.broadcast_to(g, tr.s.shape).copy() for g, tr in zip(grads, rec.traces)]
            return penalty, rec, extra

        _, record, extra = loss_of()
        zeros = np.zeros_like(record.output_spikes())
        grads = backward(
            record,
            OutputGrads(d_spikes=zeros),
            surrogate=SurrogateKind.sigmoid_exact(slope),
            detach_reset=False,
            extra_spike_grads=extra,
        )
        eps = 1e-5
        for l, layer in enumerate(model):
            for idx in np.ndindex(layer.w.shape):
                base = layer.w[idx]
                layer.w[idx] = base + eps
                lp = loss_of()[0]
                layer.w[idx] = base - eps
                lm = loss_of()[0]
                layer.w[idx] = base
                fd = (lp - lm) / (2 * eps)
                assert grads[l].d_w[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    @pytest.mark.parametrize("reset_mode", list(ResetMode), ids=lambda m: m.value)
    def test_analytic_reset_with_adaptation_rejected(self, reset_mode):
        # the attached adjoint has no spike-to-threshold term, with or without a reset
        rng = np.random.default_rng(6)
        lif = LifParams(beta=0.9, adapt_alpha=0.5, reset_mode=reset_mode)
        model = [SnnLayer.init(3, 2, lif, rng)]
        record = forward(model, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="adaptation"):
            backward(record, OutputGrads(d_spikes=np.zeros((4, 2))), detach_reset=False)


def _same_bits(a, b) -> bool:
    """Equal values with equal signs, so that -0.0 and +0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestPerStepGradients:
    """backward takes each gradient as T x N, or as an N-vector applied at every step."""

    @pytest.mark.parametrize("detach_reset", [True, False], ids=["detached", "attached"])
    @pytest.mark.parametrize("reset_mode", list(ResetMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("sizes", [(3, 2), (3, 4, 2)], ids=["1-layer", "2-layer"])
    def test_vectors_equal_their_broadcast_copies(self, sizes, reset_mode, detach_reset):
        rng = np.random.default_rng([len(sizes), list(ResetMode).index(reset_mode), detach_reset])
        lif = LifParams(beta=0.85, theta0=0.6, reset_mode=reset_mode, learn_beta=True)
        # positive feed-forward weights, so that every layer fires
        model = [
            SnnLayer(w=rng.uniform(0.1, 0.8, size=(b, a)), lif=lif, v=rng.uniform(-0.4, 0.4, size=(b, b)))
            for a, b in zip(sizes, sizes[1:])
        ]
        t_steps = 9
        record = forward(model, (rng.random((t_steps, sizes[0])) < 0.6).astype(float))
        assert record.output_spikes().any()
        d_s, d_u = rng.normal(size=sizes[-1]), rng.normal(size=sizes[-1])
        extras = [rng.normal(size=n) for n in sizes[1:]]

        def grads_of(d_s, d_u, extras):
            out = OutputGrads(d_spikes=d_s, d_membrane=d_u)
            return backward(record, out, detach_reset=detach_reset, extra_spike_grads=extras)

        def per_step(g):
            return np.broadcast_to(g, (t_steps, g.shape[0])).copy()

        for vectors in ((d_s, None, extras), (d_s, d_u, [None] * len(model)), (None, d_u, extras)):
            matrices = [per_step(g) if g is not None else None for g in vectors[:2]]
            matrices.append([per_step(g) if g is not None else None for g in vectors[2]])
            for got, want in zip(grads_of(*vectors), grads_of(*matrices)):
                assert _same_bits(got.d_w, want.d_w)
                assert _same_bits(got.d_v, want.d_v)
                assert _same_bits(got.d_beta, want.d_beta)

    @staticmethod
    def _record(monkeypatch):
        """A 3-4-2 rollout over 6 steps; the adjoint fails the test if it takes a step."""
        model = small_model(np.random.default_rng(8))
        record = forward(model, np.ones((6, 3)))

        def no_step(*args):
            raise AssertionError("the adjoint ran before the shape check")

        monkeypatch.setattr(spikegrad.surrogate, "surrogate_grad", no_step)
        return record

    BAD_OUTPUT = [np.zeros((6, 1)), np.zeros((1, 2)), np.float64(0.5), np.zeros(3), np.zeros((6, 2, 1))]

    @pytest.mark.parametrize("bad", BAD_OUTPUT, ids=lambda g: str(np.shape(g)))
    @pytest.mark.parametrize("name", ["d_spikes", "d_membrane"])
    def test_other_output_shapes_are_named(self, monkeypatch, name, bad):
        record = self._record(monkeypatch)
        msg = f"{name} shape {np.shape(bad)} is neither (6, 2) nor (2,)"
        with pytest.raises(ValueError, match=re.escape(msg)):
            backward(record, OutputGrads(**{name: bad}))

    @pytest.mark.parametrize("bad", [np.zeros((1, 4)), np.zeros((6, 1)), 1.0, [0.0] * 3], ids=lambda g: str(np.shape(g)))
    def test_other_extra_shapes_are_named_with_their_layer(self, monkeypatch, bad):
        record = self._record(monkeypatch)
        msg = f"extra spike gradient of layer 0 shape {np.shape(bad)} is neither (6, 4) nor (4,)"
        with pytest.raises(ValueError, match=re.escape(msg)):
            backward(record, OutputGrads(d_spikes=np.zeros(2)), extra_spike_grads=[bad, np.zeros(2)])

    @pytest.mark.parametrize("n_extras", [0, 1, 3])
    def test_extras_list_needs_one_entry_per_layer(self, monkeypatch, n_extras):
        record = self._record(monkeypatch)
        with pytest.raises(ValueError, match=f"^{n_extras} extra spike gradients for 2 layers$"):
            backward(record, OutputGrads(d_spikes=np.zeros(2)), extra_spike_grads=[np.zeros(4)] * n_extras)


class TestOptimizer:
    def test_zero_gradient_no_change(self):
        for state in (OptimizerState.sgd(0.1), OptimizerState.adam(0.1)):
            p = np.array([1.0, 2.0])
            optimizer_step(p, np.zeros(2), state)
            assert np.array_equal(p, [1.0, 2.0])

    def test_sgd_step(self):
        p = np.array([1.0])
        optimizer_step(p, np.array([1.0]), OptimizerState.sgd(0.1))
        assert p[0] == pytest.approx(0.9)

    def test_adam_first_step_magnitude_is_lr(self):
        lr = 0.05
        p = np.array([3.0])
        optimizer_step(p, np.array([1.0]), OptimizerState.adam(lr))
        # bias correction makes the first update lr * g/|g| up to eps
        assert p[0] == pytest.approx(3.0 - lr, abs=lr * 1e-6)

    def test_adam_recurrence_hand_rolled(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        state = OptimizerState.adam(lr, b1, b2, eps)
        p = np.array([0.0])
        expected = 0.0
        m = v = 0.0
        for t in range(1, 6):
            g = float(t)
            optimizer_step(p, np.array([g]), state)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            expected = expected - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert p[0] == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^params of shape \(2,\) but grads of shape \(3,\)$"):
            optimizer_step(np.zeros(2), np.zeros(3), OptimizerState.sgd(0.1))

    def test_refused_step_changes_nothing(self):
        # a refused call must not count a step: a retry would use the wrong bias correction
        state, p = OptimizerState.adam(0.1), np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            optimizer_step(p, np.zeros(3), state)
        assert state.step_count == 0 and state.moments is None
        optimizer_step(p, np.array([0.5, -1.0]), state)
        fresh, q = OptimizerState.adam(0.1), np.array([1.0, 2.0])
        optimizer_step(q, np.array([0.5, -1.0]), fresh)
        assert p.tobytes() == q.tobytes() and state == fresh

    def test_moments_of_another_model_rejected(self):
        state = OptimizerState.adam(0.1)
        optimizer_step(np.zeros(3), np.ones(3), state)
        m, v = (a.copy() for a in state.moments)
        p = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match=r"^Adam moments of length 3 for 2 params$"):
            optimizer_step(p, np.ones(2), state)
        assert state.step_count == 1 and np.array_equal(p, [1.0, 2.0])
        assert np.array_equal(state.moments[0], m) and np.array_equal(state.moments[1], v)

    def test_moments_stay_out_of_eq_and_repr(self):
        a, b = OptimizerState.adam(0.1), OptimizerState.adam(0.1)
        optimizer_step(np.zeros(2), np.ones(2), a)
        b.step_count = 1
        assert a == b and "moments" not in repr(a)

    @pytest.mark.parametrize("lr", [float("inf"), float("nan"), -0.1])
    def test_lr_must_be_finite_and_non_negative(self, lr):
        with pytest.raises(ValueError, match=f"lr must be finite and non-negative, got {lr}"):
            OptimizerState.sgd(lr)

    @pytest.mark.parametrize("eps", [float("inf"), float("nan")])
    def test_eps_must_be_finite(self, eps):
        with pytest.raises(ValueError, match=f"eps must be finite and non-negative, got {eps}"):
            OptimizerState.adam(0.01, eps=eps)


class TestTrainBptt:
    def test_zero_lr_keeps_loss_constant(self):
        ds = gen_rate_task(seed=0, n_inputs=4, t_steps=10, rate_lo=0.1, rate_hi=0.9, n_samples_per_class=5)
        rng = np.random.default_rng(0)
        model = small_model(rng, sizes=(4, 6, 2))
        hist = train_bptt(
            model, ds, ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE),
            optimizer=OptimizerState.sgd(0.0), epochs=4, seed=1,
        )
        losses = [r.loss for r in hist.rows]
        assert all(l == pytest.approx(losses[0], rel=1e-12) for l in losses)

    def test_deterministic_given_seed(self):
        ds = gen_rate_task(seed=0, n_inputs=4, t_steps=10, rate_lo=0.1, rate_hi=0.9, n_samples_per_class=5)

        def run():
            rng = np.random.default_rng(0)
            model = small_model(rng, sizes=(4, 6, 2))
            h = train_bptt(
                model, ds, ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE),
                optimizer=OptimizerState.adam(1e-3), epochs=3, seed=1,
            )
            return h, model

        h1, m1 = run()
        h2, m2 = run()
        assert h1.rows == h2.rows
        for a, b in zip(m1, m2):
            assert np.array_equal(a.w, b.w)

    def test_threaded_training_matches_single_thread(self):
        ds = gen_rate_task(seed=0, n_inputs=4, t_steps=10, rate_lo=0.1, rate_hi=0.9, n_samples_per_class=4)

        def run(threads):
            rng = np.random.default_rng(0)
            model = small_model(rng, sizes=(4, 5, 2))
            h = train_bptt(
                model, ds, ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE),
                optimizer=OptimizerState.adam(1e-3), epochs=2, seed=1, threads=threads,
            )
            return h, model

        h1, m1 = run(1)
        h2, m2 = run(2)
        assert h1.rows == h2.rows
        for a, b in zip(m1, m2):
            assert np.array_equal(a.w, b.w)

    def test_learnable_beta_stays_clamped(self):
        ds = gen_rate_task(seed=0, n_inputs=4, t_steps=10, rate_lo=0.1, rate_hi=0.9, n_samples_per_class=5)
        rng = np.random.default_rng(0)
        model = small_model(rng, sizes=(4, 4, 2), learn_beta=True)
        train_bptt(
            model, ds, ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE),
            optimizer=OptimizerState.adam(0.05), epochs=3, seed=1,
        )
        for layer in model:
            assert 0.0 < layer.lif.beta <= 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_bptt([], [], ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE))

    def test_payload_targets_report_nan_accuracy(self):
        # explicit membrane target traces carry no class label to score against
        rng = np.random.default_rng(0)
        model = small_model(rng, sizes=(3, 2))
        ds = [((rng.random((8, 3)) < 0.5).astype(float), rng.normal(size=(8, 2))) for _ in range(4)]
        hist = train_bptt(
            model, ds, ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE),
            optimizer=OptimizerState.sgd(1e-3), epochs=2, seed=1, batch_size=2,
        )
        assert all(np.isnan(r.accuracy) for r in hist.rows)
        assert all(np.isfinite(r.loss) for r in hist.rows)

    def test_nan_input_raises_before_the_update(self):
        # a NaN input never crosses threshold, so the loss stays finite and
        # only the layer-0 weight gradient carries the NaN
        rng = np.random.default_rng(0)
        model = small_model(rng, sizes=(3, 2))
        w_before = model[0].w.copy()
        x_bad = (rng.random((8, 3)) < 0.5).astype(float)
        x_bad[2, 1] = np.nan
        ds = [((rng.random((8, 3)) < 0.5).astype(float), 0), (x_bad, 1)]
        with pytest.raises(
            ValueError,
            match=r"non-finite gradient of layer 0 parameter w at epoch 0, batch 0, "
            r"sample \d of the epoch \(dataset index 1\)",
        ):
            train_bptt(
                model, ds, ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE),
                optimizer=OptimizerState.sgd(1e-2), epochs=2, seed=0, batch_size=2,
            )
        assert np.array_equal(model[0].w, w_before)

    # (layer, parameter, flat entry): the first and the last entry of every block, and an interior one
    @pytest.mark.parametrize(
        "l, name, entry",
        [(0, "w", 0), (0, "w", -1), (0, "v", 0), (0, "v", 6), (0, "v", -1), (0, "beta", None),
         (1, "w", 0), (1, "w", -1), (1, "beta", None)],
    )
    def test_non_finite_gradient_names_its_layer_and_parameter(self, monkeypatch, l, name, entry):
        import spikegrad.bptt as bptt

        rng = np.random.default_rng(0)
        lif = LifParams(beta=0.9, learn_beta=True)
        model = [SnnLayer.init(3, 4, lif, rng, recurrent=True), SnnLayer.init(4, 2, lif, rng)]
        before = [(layer.w.copy(), None if layer.v is None else layer.v.copy(), layer.lif.beta) for layer in model]
        real = bptt.backward

        def poisoned(*args, **kwargs):
            grads = real(*args, **kwargs)
            grads[1].d_beta = np.nan  # a later bad entry, never the one named unless it is the first
            if name == "beta":
                grads[l].d_beta = np.nan
            else:
                getattr(grads[l], "d_" + name).flat[entry] = np.inf
            return grads

        monkeypatch.setattr(bptt, "backward", poisoned)
        ds = [((rng.random((8, 3)) < 0.5).astype(float), 0)]
        with pytest.raises(ValueError, match=f"^non-finite gradient of layer {l} parameter {name} at epoch 0, batch 0, "):
            train_bptt(model, ds, ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE), optimizer=OptimizerState.sgd(1e-2))
        for layer, (w, v, beta) in zip(model, before):
            assert np.array_equal(layer.w, w) and layer.lif.beta == beta
            assert v is None or np.array_equal(layer.v, v)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        rng = np.random.default_rng(0)
        ds = [((rng.random((8, 3)) < 0.5).astype(float), 0)]
        with pytest.raises(ValueError, match=f"^batch_size must be at least 1, got {batch_size}$"):
            train_bptt(small_model(rng), ds, ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE), batch_size=batch_size)

    def test_nan_loss_raises(self):
        rng = np.random.default_rng(1)
        model = small_model(rng, sizes=(3, 2))
        x = (rng.random((8, 3)) < 0.5).astype(float)
        target = np.zeros((8, 2))
        target[5, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite loss nan at epoch 0, batch 0, sample 0"):
            train_bptt(model, [(x, target)], ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE))


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(8)
        lif0 = LifParams(beta=0.8123456789012345, theta0=0.9, reset_mode=ResetMode.ZERO)
        lif1 = LifParams(beta=0.95, theta0=1.1, adapt_alpha=0.25, learn_beta=True)
        model = [
            SnnLayer.init(5, 7, lif0, rng, recurrent=True),
            SnnLayer.init(7, 3, lif1, rng),
        ]
        path = tmp_path / "ckpt.txt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert len(loaded) == 2
        for a, b in zip(model, loaded):
            assert np.array_equal(a.w, b.w)
            assert a.lif == b.lif
            if a.v is None:
                assert b.v is None
            else:
                assert np.array_equal(a.v, b.v)
        # saving the loaded model reproduces the file byte for byte
        path2 = tmp_path / "ckpt2.txt"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_round_trip_keeps_feedback_matrices(self, tmp_path):
        rng = np.random.default_rng(9)
        lif = LifParams(beta=0.9, theta0=0.5)
        model = [
            SnnLayer.init(3, 4, lif, rng, recurrent=True, random_feedback=True),
            SnnLayer.init(4, 5, lif, rng),
            SnnLayer.init(5, 2, lif, rng, random_feedback=True),
        ]
        path = tmp_path / "ckpt.txt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for a, b in zip(model, loaded):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.v, b.v)
            assert np.array_equal(a.feedback_b, b.feedback_b)
        assert loaded[1].feedback_b is None
        path2 = tmp_path / "ckpt2.txt"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_random_feedback_gradients_survive_the_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        model = small_model(rng, sizes=(3, 6, 4, 2), theta=0.3)
        x = (rng.random((12, 3)) < 0.6).astype(float)
        d_s = rng.normal(size=(12, 2))
        path = tmp_path / "ckpt.txt"
        save_checkpoint(model, path)

        def grads(m):
            return backward(forward(m, x), OutputGrads(d_spikes=d_s), feedback=Feedback.RANDOM_FIXED)

        before, after = grads(model), grads(load_checkpoint(path))
        assert any(np.any(g.d_w != 0.0) for g in before[:-1])  # the feedback path carries something
        for a, b in zip(before, after):
            assert np.array_equal(a.d_w, b.d_w)

    def test_feedback_block_layout(self, tmp_path):
        lif = LifParams(beta=0.5)
        plain = SnnLayer(w=np.array([[0.5, -0.25]]), lif=lif)
        with_b = SnnLayer(w=plain.w, lif=lif, feedback_b=np.array([[1.0], [2.5]]))
        path = tmp_path / "ckpt.txt"
        save_checkpoint([plain], path)
        assert path.read_text() == "spikegrad-v1\nlayer 0 1 2 0\nlif 0.5 1 subtract 0 0\n0.5\n-0.25\n"
        save_checkpoint([with_b], path)
        assert path.read_text() == "spikegrad-v1\nlayer 0 1 2 0 1\nlif 0.5 1 subtract 0 0\n0.5\n-0.25\n1\n2.5\n"

    @pytest.mark.parametrize(
        "header, line_no, reason",
        [
            ("layer 0 2 3 0 2", 2, "flags must be 0 or 1, got '2'"),
            ("layer 0 2 3 0 1 1", 2, "expected a layer line of 4 fields, got 'layer 0 2 3 0 1 1'"),
            ("layer 0 2 3 0 1", 4, "truncated weight block"),
        ],
        ids=["b-flag", "field-count", "truncated-feedback"],
    )
    def test_malformed_feedback_header_is_named(self, tmp_path, header, line_no, reason):
        path = tmp_path / "ckpt.txt"
        save_checkpoint([SnnLayer.init(3, 2, LifParams(beta=0.9), np.random.default_rng(0))], path)
        lines = path.read_text().splitlines()
        lines[1] = header
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"ckpt.txt:{line_no}: {reason}"):
            load_checkpoint(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-checkpoint\n")
        with pytest.raises(ValueError, match="spikegrad-v1"):
            load_checkpoint(path)

    def test_rejects_truncated_block(self, tmp_path):
        rng = np.random.default_rng(0)
        model = [SnnLayer.init(3, 2, LifParams(beta=0.9), rng)]
        path = tmp_path / "ckpt.txt"
        save_checkpoint(model, path)
        lines = path.read_text().splitlines()[:-2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "line_no,text,reason",
        [
            (2, "layer 0 2 x 0", "invalid literal for int"),
            (2, "layer 0 -2 3 0", "expected layer 0 with sizes of at least 1, got 'layer 0 -2 3 0'"),
            (2, "layer 0 2 3 2", "flags must be 0 or 1, got '2'"),
            (2, "layer 1 2 3 0", "expected layer 0 with sizes of at least 1, got 'layer 1 2 3 0'"),
            (2, "layer 0 2 3", "expected a layer line of 4 fields, got 'layer 0 2 3'"),
            (3, "lif abc 1 subtract 0 0", "could not convert string to float: 'abc'"),
            (3, "lif 0.9 1 bogus 0 0", "'bogus' is not a valid ResetMode"),
            (3, "lif 2.0 1 subtract 0 0", r"beta must be in \(0, 1\], got 2.0"),
            (3, "lif 0.9 1 subtract 0 7", "flags must be 0 or 1, got '7'"),
            (3, "lif 0.9 inf subtract 0 0", "theta0 must be finite and positive, got inf"),
            (5, "nan", "weights must be finite, got 'nan'"),
            (9, "-inf", "weights must be finite, got '-inf'"),
            (4, "0.1.2", "could not convert string to float: '0.1.2'"),
        ],
        ids=[
            "size-not-int", "negative-size", "v-flag", "layer-index", "field-count",
            "beta-not-float", "reset-mode", "beta-range", "learn-flag", "inf-theta", "nan-weight", "inf-weight",
            "weight-not-float",
        ],
    )
    def test_malformed_line_is_named(self, tmp_path, line_no, text, reason):
        rng = np.random.default_rng(0)
        path = tmp_path / "ckpt.txt"
        save_checkpoint([SnnLayer.init(3, 2, LifParams(beta=0.9), rng)], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 9  # magic, header, lif, six weights
        lines[line_no - 1] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"ckpt.txt:{line_no}: {reason}"):
            load_checkpoint(path)

    def test_header_at_end_of_file_names_the_missing_lif_line(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        path.write_text("spikegrad-v1\nlayer 0 2 3 0\n")
        with pytest.raises(ValueError, match="ckpt.txt:3: expected a lif line of 5 fields, got ''"):
            load_checkpoint(path)
