"""Unit tests for STDP updates and the perturbation baseline."""

import dataclasses
import math

import numpy as np
import pytest

from spikegrad.bptt import SnnLayer, forward
from spikegrad.neuron import LifParams, ResetMode, SpikeRaster
from spikegrad.objectives import ObjectiveKind, ObjectiveSpec
from spikegrad.plasticity import (
    Pairing,
    StdpParams,
    perturbation_train,
    stdp_delta_w,
    stdp_update,
)
from spikegrad.plasticity import _dataset_loss


class TestStdpDeltaW:
    def test_causal_curve_value(self):
        p = StdpParams(a_plus=1.0, tau_plus=10.0)
        assert stdp_delta_w(-10.0, p) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_limit_at_zero_gap_is_peak(self):
        p = StdpParams(a_plus=0.7, a_minus=-0.9, tau_plus=5.0, tau_minus=5.0)
        assert stdp_delta_w(-1e-9, p) == pytest.approx(0.7, rel=1e-6)
        assert stdp_delta_w(1e-9, p) == pytest.approx(-0.9, rel=1e-6)

    def test_exactly_zero_gap_is_zero(self):
        assert stdp_delta_w(0.0, StdpParams()) == 0.0

    def test_decays_to_zero_for_large_gaps(self):
        p = StdpParams(a_plus=1.0, a_minus=-1.0, tau_plus=3.0, tau_minus=3.0)
        assert abs(stdp_delta_w(-90.0, p)) < 1e-12
        assert abs(stdp_delta_w(90.0, p)) < 1e-12

    def test_sign_antisymmetry(self):
        p = StdpParams(a_plus=0.01, a_minus=-0.012)
        for dt in (-30.0, -5.0, -0.5):
            assert stdp_delta_w(dt, p) > 0.0
        for dt in (0.5, 5.0, 30.0):
            assert stdp_delta_w(dt, p) < 0.0


def raster_with(times, t_steps=40, n=1, neuron=0):
    data = np.zeros((t_steps, n))
    for t in times:
        data[t, neuron] = 1.0
    return SpikeRaster(data)


class TestStdpUpdate:
    def test_empty_rasters_leave_weights_alone(self):
        w = np.array([[0.3]])
        out = stdp_update(raster_with([]), raster_with([]), w, StdpParams())
        assert np.array_equal(out, w)

    def test_zero_step_rasters_return_the_clipped_weights(self):
        w = np.array([[0.9, -2.0, 0.1]])
        out = stdp_update(np.zeros((0, 3)), np.zeros((0, 1)), w, StdpParams(w_min=-0.5, w_max=0.5))
        assert np.array_equal(out, [[0.5, -0.5, 0.1]])

    def test_single_causal_pair(self):
        p = StdpParams(a_plus=0.02, tau_plus=7.0, w_min=-1, w_max=1)
        out = stdp_update(raster_with([2]), raster_with([5]), np.zeros((1, 1)), p)
        assert out[0, 0] == pytest.approx(0.02 * math.exp(-3.0 / 7.0), rel=1e-12)

    def test_all_pairs_window_cutoff(self):
        p = StdpParams(a_plus=1.0, tau_plus=5.0, window=3.0, w_min=-10, w_max=10)
        out = stdp_update(raster_with([0, 10]), raster_with([12]), np.zeros((1, 1)), p)
        # the pre spike at 0 lies outside the +-3 window of the post at 12
        assert out[0, 0] == pytest.approx(math.exp(-2.0 / 5.0), rel=1e-12)

    def test_repeated_causal_pairing_saturates_at_clamp(self):
        p = StdpParams(a_plus=0.5, tau_plus=10.0, w_min=0.0, w_max=1.0)
        w = np.zeros((1, 1))
        pre = raster_with([0, 4, 8, 12, 16, 20])
        post = raster_with([1, 5, 9, 13, 17, 21])
        previous = 0.0
        for _ in range(10):
            w = stdp_update(pre, post, w, p)
            assert w[0, 0] <= 1.0
            assert w[0, 0] >= previous
            previous = w[0, 0]
        assert w[0, 0] == 1.0  # pinned at the upper clamp, growth stopped

    def test_nearest_neighbor_pairs_only_adjacent(self):
        p = StdpParams(
            a_plus=1.0, a_minus=-1.0, tau_plus=5.0, tau_minus=5.0,
            pairing=Pairing.NEAREST_NEIGHBOR, w_min=-10, w_max=10,
        )
        # pre at 0 and 4, post at 5: potentiation only from pre@4 (nearest),
        # depression: nearest post preceding each pre -> none
        out = stdp_update(raster_with([0, 4]), raster_with([5]), np.zeros((1, 1)), p)
        assert out[0, 0] == pytest.approx(math.exp(-1.0 / 5.0), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stdp_update(raster_with([1]), raster_with([2]), np.zeros((2, 2)), StdpParams())

    def test_matrix_update_is_per_pair_of_neurons(self):
        pre = np.zeros((20, 2))
        pre[3, 0] = 1.0
        post = np.zeros((20, 2))
        post[6, 1] = 1.0
        p = StdpParams(a_plus=1.0, tau_plus=10.0, w_min=-5, w_max=5)
        out = stdp_update(SpikeRaster(pre), SpikeRaster(post), np.zeros((2, 2)), p)
        assert out[1, 0] == pytest.approx(math.exp(-0.3), rel=1e-12)
        assert out[0, 0] == out[0, 1] == out[1, 1] == 0.0


def _teacher_problem(n_in, n_out, seed, init_loss=5.0, n_samples=4, t_steps=12):
    """Quadratic testbed: silent linear membranes chasing a teacher's traces."""
    rng = np.random.default_rng(seed)
    lif = LifParams(beta=0.9, theta0=1e6, reset_mode=ResetMode.NONE)
    xs = [(rng.random((t_steps, n_in)) < 0.4).astype(float) for _ in range(n_samples)]
    w_star = rng.normal(0, 0.3, size=(n_out, n_in))
    teacher = [SnnLayer(w=w_star, lif=lif)]
    targets = [forward(teacher, x).output_membrane() for x in xs]
    ds = list(zip(xs, targets))
    obj = ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE)
    offset = rng.normal(0, 1, size=(n_out, n_in))
    model = [SnnLayer(w=w_star + offset, lif=lif)]
    scale = math.sqrt(init_loss / _dataset_loss(model, ds, obj))
    model[0].w = w_star + offset * scale
    return model, ds, obj


class TestPerturbationTrain:
    def test_zero_sigma_keeps_loss_constant(self):
        model, ds, obj = _teacher_problem(4, 2, seed=0)
        hist = perturbation_train(model, ds, sigma=0.0, trials=20, objective=obj, seed=1)
        losses = [loss for _, loss, _ in hist.rows]
        assert all(l == losses[0] for l in losses)
        assert hist.accept_rate == 0.0

    def test_loss_non_increasing(self):
        model, ds, obj = _teacher_problem(5, 2, seed=2)
        hist = perturbation_train(model, ds, sigma=0.05, trials=150, objective=obj, seed=3)
        losses = [loss for _, loss, _ in hist.rows]
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert hist.accept_rate > 0.0

    def test_accept_rate_collapses_with_weight_count(self):
        # a helpful nudge on one weight is drowned by noise on the other 999
        def rate(n_in, n_out, seed=3):
            model, ds, obj = _teacher_problem(n_in, n_out, seed=seed)
            h = perturbation_train(model, ds, sigma=0.02, trials=200, objective=obj, seed=seed)
            return h.accept_rate, h.final_loss

        rate_small, loss_small = rate(5, 2)    # 10 weights
        rate_large, loss_large = rate(100, 10)  # 1000 weights
        assert rate_small > rate_large
        assert loss_small < 5.0  # the small net actually made progress
        assert rate_large < 0.05

    def test_rejected_trial_restores_weights_bit_exactly(self):
        model, ds, obj = _teacher_problem(16, 12, seed=5)
        w0 = model[0].w.copy()
        hist = perturbation_train(model, ds, sigma=0.5, trials=1, objective=obj, seed=0)
        assert hist.rows[0][2] is False  # the trial was rejected
        assert np.array_equal(model[0].w, w0)

    def test_v_and_learned_beta_are_perturbed_and_restored(self):
        def with_v_and_beta():
            model, ds, obj = _teacher_problem(4, 2, seed=2)
            lif = dataclasses.replace(model[0].lif, learn_beta=True)
            return [SnnLayer(w=model[0].w, lif=lif, v=np.zeros((2, 2)))], ds, obj

        model, ds, obj = with_v_and_beta()
        hist = perturbation_train(model, ds, sigma=0.05, trials=1, objective=obj, seed=0)
        assert hist.rows[0][2] is True  # accepted: every trained parameter moved
        assert not np.array_equal(model[0].v, np.zeros((2, 2)))
        assert model[0].lif.beta != 0.9

        model, ds, obj = with_v_and_beta()
        w0 = model[0].w.copy()
        hist = perturbation_train(model, ds, sigma=0.05, trials=1, objective=obj, seed=2)
        assert hist.rows[0][2] is False  # rejected: every trained parameter restored
        assert np.array_equal(model[0].w, w0)
        assert np.array_equal(model[0].v, np.zeros((2, 2)))
        assert model[0].lif.beta == 0.9

    def test_negative_sigma_rejected(self):
        model, ds, obj = _teacher_problem(3, 2, seed=4)
        with pytest.raises(ValueError):
            perturbation_train(model, ds, sigma=-0.1, trials=5, objective=obj)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        model, ds, obj = _teacher_problem(3, 2, seed=4)
        with pytest.raises(ValueError, match=f"^sigma must be finite and >= 0, got {sigma}$"):
            perturbation_train(model, ds, sigma=sigma, trials=5, objective=obj)

    def test_empty_dataset_rejected(self):
        model, _, obj = _teacher_problem(3, 2, seed=4)
        with pytest.raises(ValueError, match="^dataset is empty$"):
            perturbation_train(model, [], sigma=0.1, trials=5, objective=obj)

    def test_non_finite_initial_loss_raises(self):
        model, ds, obj = _teacher_problem(3, 2, seed=4)
        w0 = model[0].w.copy()
        obj = ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE, membrane_target_correct=float("inf"))
        labelled = [(x, 0) for x, _ in ds]
        with pytest.raises(ValueError, match="^non-finite loss inf before trial 0$"):
            perturbation_train(model, labelled, sigma=0.1, trials=5, objective=obj)
        assert np.array_equal(model[0].w, w0)

    def test_non_finite_trial_loss_raises_with_last_accepted_weights(self, monkeypatch):
        import spikegrad.plasticity as plasticity

        model, ds, obj = _teacher_problem(4, 2, seed=2)
        probe = [SnnLayer(w=model[0].w.copy(), lif=model[0].lif)]
        hist = perturbation_train(probe, ds, sigma=0.05, trials=3, objective=obj, seed=3)
        assert any(acc for _, _, acc in hist.rows)
        real = plasticity._dataset_loss
        calls = []

        def nan_at_trial_3(model, samples, objective):
            calls.append(None)  # call 1 is the loss before trial 0
            return float("nan") if len(calls) == 5 else real(model, samples, objective)

        monkeypatch.setattr(plasticity, "_dataset_loss", nan_at_trial_3)
        with pytest.raises(ValueError, match="^non-finite loss nan at trial 3$"):
            perturbation_train(model, ds, sigma=0.05, trials=5, objective=obj, seed=3)
        assert np.array_equal(model[0].w, probe[0].w)


class TestStdpParamsValidation:
    def test_tau_positive(self):
        with pytest.raises(ValueError):
            StdpParams(tau_plus=0.0)

    def test_clamp_ordering(self):
        with pytest.raises(ValueError):
            StdpParams(w_min=1.0, w_max=0.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("a_plus", math.inf, "a_plus must be finite"),
            ("a_plus", math.nan, "a_plus must be finite"),
            ("a_minus", -math.inf, "a_minus must be finite"),
            ("a_minus", math.nan, "a_minus must be finite"),
            ("tau_plus", math.nan, "tau_plus must be finite and positive"),
            ("tau_plus", math.inf, "tau_plus must be finite and positive"),
            ("tau_minus", math.nan, "tau_minus must be finite and positive"),
            ("tau_minus", -1.0, "tau_minus must be finite and positive"),
            ("w_min", math.nan, "w_min must not be NaN"),
            ("w_max", math.nan, "w_max must not be NaN"),
            ("window", math.nan, "window must not be NaN"),
            ("window", -5.0, r"window must be >= 0, got -5.0$"),
            ("window", -math.inf, r"window must be >= 0, got -inf$"),
        ],
    )
    def test_values_that_break_the_rule_are_named(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            StdpParams(**{field: value})

    def test_infinite_window_and_bounds_stay_valid(self):
        p = StdpParams(w_min=-math.inf, w_max=math.inf, window=math.inf)
        pre = np.zeros((6, 1))
        post = np.zeros((6, 1))
        pre[1, 0] = post[3, 0] = 1.0
        out = stdp_update(SpikeRaster(pre), SpikeRaster(post), np.zeros((1, 1)), p)
        assert out[0, 0] == pytest.approx(0.01 * math.exp(-2 / 20), rel=1e-12)
