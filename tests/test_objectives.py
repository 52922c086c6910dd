"""Unit tests for the loss functions and activity regularizers."""

import math

import numpy as np
import pytest

from spikegrad.bptt import OutputGrads, SnnLayer, backward, forward
from spikegrad.neuron import LifParams
from spikegrad.objectives import (
    Inversion,
    ObjectiveKind,
    ObjectiveSpec,
    RegularizerSpec,
    ce_spike_rate,
    ce_spike_time,
    eval_objective,
    first_spike_grad_to_raster,
    max_membrane_ce,
    mse_membrane,
    mse_relative_spike_time,
    mse_spike_rate,
    regularize,
    sum_membrane_ce,
)


def central_diff(fn, x, eps=1e-6):
    """Finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        grad[idx] = (fn(xp) - fn(xm)) / (2 * eps)
    return grad


class TestCeSpikeRate:
    def test_hand_evaluated_softmax(self):
        loss, _ = ce_spike_rate(np.array([2.0, 0.0, 0.0]), 0)
        assert loss == pytest.approx(-math.log(math.e**2 / (math.e**2 + 2.0)), rel=1e-12)
        assert loss == pytest.approx(0.2395447662218845, rel=1e-10)

    def test_uniform_counts(self):
        loss, grad = ce_spike_rate(np.full(4, 3.0), 1)
        assert loss == pytest.approx(math.log(4.0), rel=1e-12)
        expected = np.full(4, 0.25)
        expected[1] -= 1.0
        assert grad == pytest.approx(expected, rel=1e-12)

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            counts = rng.normal(0, 3, size=rng.integers(2, 8))
            _, grad = ce_spike_rate(counts, int(rng.integers(0, counts.shape[0])))
            assert abs(grad.sum()) < 1e-12

    def test_gradient_matches_finite_differences(self):
        counts = np.array([1.0, 4.0, 2.5, 0.5])
        _, grad = ce_spike_rate(counts, 2)
        fd = central_diff(lambda c: ce_spike_rate(c, 2)[0], counts)
        assert grad == pytest.approx(fd, rel=1e-7)

    def test_errors(self):
        with pytest.raises(ValueError):
            ce_spike_rate(np.array([]), 0)
        with pytest.raises(ValueError):
            ce_spike_rate(np.array([1.0, 2.0]), 2)


class TestMseSpikeRate:
    def test_zero_at_target(self):
        loss, grad = mse_spike_rate(np.array([3.0, 1.0]), np.array([3.0, 1.0]))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_hand_summed(self):
        loss, _ = mse_spike_rate(np.array([8.0, 4.0, 0.0]), np.array([6.0, 2.0, 2.0]))
        assert loss == pytest.approx(12.0)

    def test_quadratic_scaling(self):
        c = np.array([1.0, 2.0])
        y = np.array([3.0, 5.0])
        base, _ = mse_spike_rate(c, y)
        scaled, _ = mse_spike_rate(y + 3.0 * (c - y), y)
        assert scaled == pytest.approx(9.0 * base)

    def test_gradient_matches_finite_differences(self):
        c = np.array([1.0, 5.0, 2.0])
        y = np.array([2.0, 2.0, 2.0])
        _, grad = mse_spike_rate(c, y)
        fd = central_diff(lambda v: mse_spike_rate(v, y)[0], c)
        assert grad == pytest.approx(fd, rel=1e-8)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse_spike_rate(np.array([1.0]), np.array([1.0, 2.0]))


class TestMembraneCe:
    def test_single_step_reduces_to_plain_ce(self):
        u = np.array([[0.3, 1.2, -0.4]])
        for fn in (max_membrane_ce, sum_membrane_ce):
            loss, grad = fn(u, 1)
            ref_loss, ref_grad = ce_spike_rate(u[0], 1)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            # max gives a T x N gradient, sum the N-vector applied at every step
            assert np.broadcast_to(grad, u.shape)[0] == pytest.approx(ref_grad, rel=1e-12)

    def test_max_routes_gradient_to_unique_peaks(self):
        u = np.array([[0.1, 0.9], [0.8, 0.2], [0.3, 0.5]])
        _, grad = max_membrane_ce(u, 0)
        assert np.count_nonzero(grad[:, 0]) == 1
        assert np.count_nonzero(grad[:, 1]) == 1
        assert grad[1, 0] != 0.0  # neuron 0 peaks at step 1
        assert grad[0, 1] != 0.0  # neuron 1 peaks at step 0

    def test_max_tie_goes_to_earlier_step(self):
        u = np.array([[0.7, 0.1], [0.7, 0.2]])  # neuron 0 peaks at steps 0 and 1
        _, grad = max_membrane_ce(u, 0)
        assert grad[0, 0] != 0.0
        assert grad[1, 0] == 0.0

    def test_sum_gradient_backpropagates_as_its_per_step_broadcast(self):
        rng = np.random.default_rng(3)
        layers = [
            SnnLayer(w=rng.normal(0.0, 0.8, size=(5, 4)), lif=LifParams(beta=0.9, learn_beta=True)),
            SnnLayer(w=rng.normal(0.0, 0.8, size=(3, 5)), lif=LifParams(beta=0.85, learn_beta=True)),
        ]
        record = forward(layers, (rng.random((12, 4)) < 0.4).astype(float))
        _, grad = sum_membrane_ce(record.output_membrane(), 1)
        assert grad.shape == (3,)
        per_step = np.broadcast_to(grad, (12, 3)).copy()
        for a, b in zip(backward(record, OutputGrads(d_membrane=grad)),
                        backward(record, OutputGrads(d_membrane=per_step))):
            assert np.array_equal(a.d_w, b.d_w)
            assert np.array_equal(a.d_beta, b.d_beta)

    def test_sum_constant_trace_logits(self):
        v, t_steps = 0.37, 6
        u = np.full((t_steps, 2), v)
        u[:, 1] = 0.0
        loss, _ = sum_membrane_ce(u, 0)
        ref, _ = ce_spike_rate(np.array([t_steps * v, 0.0]), 0)
        assert loss == pytest.approx(ref, rel=1e-12)

    def test_gradients_match_finite_differences_away_from_ties(self):
        rng = np.random.default_rng(5)
        u = rng.normal(0, 1, size=(7, 3))  # continuous draws: no exact ties
        for fn in (max_membrane_ce, sum_membrane_ce):
            _, grad = fn(u, 2)
            fd = central_diff(lambda v: fn(v, 2)[0], u)
            assert np.max(np.abs(grad - fd)) < 1e-7


class TestMseMembrane:
    def test_zero_at_target(self):
        u = np.random.default_rng(0).normal(size=(4, 2))
        loss, grad = mse_membrane(u, u.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_threshold_target_layout(self):
        theta = 0.8
        u = np.zeros((5, 3))
        y = np.zeros((5, 3))
        y[:, 0] = theta  # correct class pinned at threshold, others at zero
        loss, _ = mse_membrane(u, y)
        assert loss == pytest.approx(5 * theta**2)

    def test_single_offset(self):
        u = np.zeros((3, 2))
        y = np.zeros((3, 2))
        y[1, 1] = 3.0
        loss, grad = mse_membrane(u, y)
        assert loss == pytest.approx(9.0)
        assert grad[1, 1] == pytest.approx(-6.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        _, grad = mse_membrane(u, y)
        fd = central_diff(lambda v: mse_membrane(v, y)[0], u)
        assert np.max(np.abs(grad - fd)) < 1e-7

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse_membrane(np.zeros((3, 2)), np.zeros((2, 3)))


class TestCeSpikeTime:
    def test_negate_hand_evaluated(self):
        loss, _ = ce_spike_time(np.array([1.0, 5.0, 9.0]), 0, Inversion.NEGATE)
        assert loss == pytest.approx(0.01847930259465741, rel=1e-10)

    def test_equal_times_give_log_n(self):
        loss, _ = ce_spike_time(np.full(3, 4.0), 2, Inversion.NEGATE)
        assert loss == pytest.approx(math.log(3.0), rel=1e-12)

    def test_reciprocal_logits(self):
        f = np.array([1.0, 2.0])
        loss, _ = ce_spike_time(f, 0, Inversion.RECIPROCAL)
        ref, _ = ce_spike_rate(np.array([1.0, 0.5]), 0)
        assert loss == pytest.approx(ref, rel=1e-12)

    def test_reciprocal_rejects_step_zero(self):
        with pytest.raises(ValueError):
            ce_spike_time(np.array([0.0, 3.0]), 1, Inversion.RECIPROCAL)

    @pytest.mark.parametrize("inversion", [Inversion.NEGATE, Inversion.RECIPROCAL])
    def test_gradient_matches_finite_differences(self, inversion):
        f = np.array([2.0, 5.0, 3.0])
        _, grad = ce_spike_time(f, 1, inversion)
        fd = central_diff(lambda v: ce_spike_time(v, 1, inversion)[0], f)
        assert np.max(np.abs(grad - fd)) < 1e-7


class TestMseRelativeSpikeTime:
    def test_zero_when_correct_first_and_others_beyond_window(self):
        f0, gamma = 2.0, 3.0
        f = np.array([2.0, 5.0, 8.0])
        loss, grad = mse_relative_spike_time(f, 0, f0, gamma)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_early_incorrect_contributes_gamma_squared(self):
        f0, gamma = 2.0, 3.0
        f = np.array([2.0, 2.0])
        loss, _ = mse_relative_spike_time(f, 0, f0, gamma)
        assert loss == pytest.approx(gamma**2)

    def test_zero_gamma_only_penalises_correct_class(self):
        # f0 is the minimum possible spike step, so all times sit at or above it
        f = np.array([4.0, 1.0, 9.0])
        loss, _ = mse_relative_spike_time(f, 0, 1.0, 0.0)
        assert loss == pytest.approx((1.0 - 4.0) ** 2)

    def test_continuous_at_window_edge(self):
        f0, gamma = 1.0, 2.0
        lo, _ = mse_relative_spike_time(np.array([1.0, f0 + gamma - 1e-9]), 0, f0, gamma)
        hi, _ = mse_relative_spike_time(np.array([1.0, f0 + gamma + 1e-9]), 0, f0, gamma)
        assert abs(lo - hi) < 1e-8

    def test_gradient_matches_finite_differences_away_from_kink(self):
        f0, gamma = 1.0, 2.5
        f = np.array([1.5, 2.0, 6.0])  # neither incorrect time near f0+gamma
        _, grad = mse_relative_spike_time(f, 0, f0, gamma)
        fd = central_diff(lambda v: mse_relative_spike_time(v, 0, f0, gamma)[0], f)
        assert np.max(np.abs(grad - fd)) < 1e-6


class TestRegularize:
    def test_silent_with_zero_lower_threshold(self):
        spec = RegularizerSpec(lambda_l1=1.0, lambda_upper=1.0, theta_upper=0.0, lambda_lower=1.0, theta_lower=0.0)
        penalty, grads = regularize([np.zeros(4)], spec)
        assert penalty == 0.0

    def test_upper_penalty_quadratic_excess(self):
        spec = RegularizerSpec(lambda_upper=1.0, theta_upper=8.0, upper_exponent=2)
        counts = np.array([6.0, 4.0])  # layer total 10
        penalty, grads = regularize([counts], spec)
        assert penalty == pytest.approx(4.0)  # (10-8)^2
        assert grads[0] == pytest.approx([4.0, 4.0])  # 2*(10-8) each

    def test_lower_penalty_per_neuron(self):
        spec = RegularizerSpec(lambda_lower=2.0, theta_lower=2.0)
        penalty, grads = regularize([np.array([0.0, 5.0])], spec)
        assert penalty == pytest.approx(4.0)  # (2/2) * (2-0)^2
        assert grads[0][0] == pytest.approx(-4.0)
        assert grads[0][1] == 0.0

    def test_l1_reads_output_layer_only(self):
        spec = RegularizerSpec(lambda_l1=0.5)
        penalty, grads = regularize([np.array([9.0]), np.array([2.0, 3.0])], spec)
        assert penalty == pytest.approx(0.5 * 5.0)
        assert np.all(grads[0] == 0.0)
        assert grads[1] == pytest.approx([0.5, 0.5])

    def test_rectifiers_vanish_below_threshold(self):
        spec = RegularizerSpec(lambda_upper=3.0, theta_upper=100.0, lambda_lower=3.0, theta_lower=0.5)
        penalty, grads = regularize([np.array([2.0, 2.0])], spec)
        assert penalty == 0.0
        assert np.all(grads[0] == 0.0)

    def test_rejects_rasters(self):
        with pytest.raises(ValueError, match="one spike-count vector per layer"):
            regularize([np.zeros(3), np.zeros((10, 2))], RegularizerSpec(lambda_l1=1.0))

    def test_gradient_matches_finite_differences_away_from_kinks(self):
        spec = RegularizerSpec(
            lambda_l1=0.3, lambda_upper=0.7, theta_upper=4.0, upper_exponent=2,
            lambda_lower=1.1, theta_lower=2.0,
        )
        counts = np.array([1.0, 6.0, 3.3])  # away from both thresholds
        _, grads = regularize([counts], spec)
        fd = central_diff(lambda c: regularize([c], spec)[0], counts)
        assert np.max(np.abs(grads[0] - fd)) < 1e-7

    def test_validation(self):
        with pytest.raises(ValueError):
            RegularizerSpec(lambda_l1=-1.0)
        with pytest.raises(ValueError):
            RegularizerSpec(theta_lower=-1.0)
        with pytest.raises(ValueError):
            RegularizerSpec(upper_exponent=3)

    @pytest.mark.parametrize("name", ["lambda_l1", "lambda_upper", "theta_upper", "lambda_lower", "theta_lower"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got {value}"):
            RegularizerSpec(**{name: value})


class TestFirstSpikeGradRouting:
    def test_routes_to_first_spike_with_horizon_weight(self):
        s = np.zeros((8, 2))
        s[3, 0] = s[6, 0] = 1.0  # first spike at 3
        s[1, 1] = 1.0
        grad = first_spike_grad_to_raster(np.array([2.0, -1.0]), s, membrane=np.ones((8, 2)))
        expected = np.zeros((8, 2))
        expected[3, 0] = 2.0 * -(8 - 3)
        expected[1, 1] = -1.0 * -(8 - 1)
        assert np.array_equal(grad, expected)

    def test_silent_neuron_routes_to_peak_membrane(self):
        s = np.zeros((6, 1))
        u = np.array([[0.1], [0.4], [0.9], [0.3], [0.2], [0.0]])
        grad = first_spike_grad_to_raster(np.array([1.0]), s, membrane=u)
        assert grad[2, 0] == pytest.approx(-(6 - 2))
        assert np.count_nonzero(grad) == 1


class TestEvalObjective:
    def test_rate_kinds_consume_spikes(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(6, 3))
        s = (rng.random((6, 3)) < 0.4).astype(float)
        spec = ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE)
        loss, d_s, d_u = eval_objective(spec, u, s, 1)
        ref, _ = ce_spike_rate(s.sum(axis=0), 1)
        assert loss == pytest.approx(ref)
        assert d_u is None
        assert d_s.shape == (3,)

    def test_mse_rate_builds_targets_from_label(self):
        spec = ObjectiveSpec(
            ObjectiveKind.MSE_SPIKE_RATE, count_target_correct=8.0, count_target_incorrect=2.0
        )
        s = np.zeros((10, 2))
        s[:8, 0] = 1.0
        s[:2, 1] = 1.0
        loss, _, _ = eval_objective(spec, np.zeros((10, 2)), s, 0)
        assert loss == 0.0

    def test_mse_rate_takes_an_explicit_count_target_array(self):
        # an array target needs no count_target_correct/_incorrect
        spec = ObjectiveSpec(ObjectiveKind.MSE_SPIKE_RATE)
        s = np.zeros((10, 2))
        s[:3, 0] = 1.0
        s[:1, 1] = 1.0
        loss, d_s, d_u = eval_objective(spec, np.zeros((10, 2)), s, np.array([5.0, 1.0]))
        ref, ref_grad = mse_spike_rate(np.array([3.0, 1.0]), np.array([5.0, 1.0]))
        assert loss == ref == 4.0
        assert np.array_equal(d_s, ref_grad)
        assert d_u is None

    def test_mse_rate_without_targets_names_the_problem(self):
        spec = ObjectiveSpec(ObjectiveKind.MSE_SPIKE_RATE)
        with pytest.raises(ValueError, match="count_target"):
            eval_objective(spec, np.zeros((4, 2)), np.zeros((4, 2)), 0)

    def test_spike_time_kind_routes_through_first_spikes(self):
        spec = ObjectiveSpec(ObjectiveKind.CE_SPIKE_TIME)
        s = np.zeros((9, 2))
        s[2, 0] = 1.0
        s[5, 1] = 1.0
        u = np.zeros((9, 2))
        loss, d_s, d_u = eval_objective(spec, u, s, 0)
        ref, _ = ce_spike_time(np.array([2.0, 5.0]), 0)
        assert loss == pytest.approx(ref)
        assert d_s[2, 0] != 0.0 and d_s[5, 1] != 0.0
        assert np.count_nonzero(d_s) == 2

    def test_mse_spike_time_kind_takes_first_spike_targets(self):
        spec = ObjectiveSpec(ObjectiveKind.MSE_SPIKE_TIME)
        s = np.zeros((10, 2))
        s[3, 0] = 1.0
        s[7, 1] = 1.0
        loss, d_s, _ = eval_objective(spec, np.zeros((10, 2)), s, np.array([3.0, 5.0]))
        assert loss == pytest.approx(4.0)  # (5 - 7)^2
        assert d_s[3, 0] == 0.0  # neuron 0 already on target
        assert d_s[7, 1] != 0.0

    def test_relative_spike_time_kind(self):
        spec = ObjectiveSpec(ObjectiveKind.MSE_RELATIVE_SPIKE_TIME, f0=2.0, gamma=3.0)
        s = np.zeros((12, 2))
        s[2, 0] = 1.0
        s[8, 1] = 1.0  # beyond the window: no penalty
        loss, _, _ = eval_objective(spec, np.zeros((12, 2)), s, 0)
        assert loss == 0.0
