"""Unit tests for the continuous-time spike response model and its gradients."""

import math

import numpy as np
import pytest

from spikegrad.spikeprop import (
    BISECTION_RESIDUAL,
    DeadNeuronError,
    SrmNet,
    alpha_kernel,
    alpha_kernel_deriv,
    find_spike_time,
    spike_time_weight_grad,
    spikeprop_grad,
    srm_membrane,
    train_spikeprop,
)


class TestAlphaKernel:
    def test_peak_is_exactly_one_at_tau(self):
        for tau in (0.3, 1.0, 2.71):
            assert float(alpha_kernel(tau, tau)) == 1.0

    def test_zero_at_and_before_onset(self):
        assert float(alpha_kernel(0.0, 1.0)) == 0.0
        assert float(alpha_kernel(-0.5, 1.0)) == 0.0

    def test_two_tau_value(self):
        assert float(alpha_kernel(2.0, 1.0)) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    def test_derivative_matches_finite_differences(self):
        tau = 0.8
        ts = np.linspace(0.05, 4.0, 50)
        h = 1e-7
        numeric = (alpha_kernel(ts + h, tau) - alpha_kernel(ts - h, tau)) / (2 * h)
        assert alpha_kernel_deriv(ts, tau) == pytest.approx(numeric, abs=1e-6)

    def test_derivative_zero_before_onset(self):
        assert float(alpha_kernel_deriv(-1.0, 1.0)) == 0.0


class TestSrmMembrane:
    def test_no_input_spikes_gives_zero(self):
        net = SrmNet(w=np.ones((2, 3)), tau=1.0, theta=1.0, t_end=5.0)
        u = srm_membrane(net, [[], [], []], 2.0)
        assert np.all(u == 0.0)

    def test_unit_weight_peaks_at_tau(self):
        net = SrmNet(w=np.array([[1.0]]), tau=0.7, theta=10.0, t_end=5.0)
        assert srm_membrane(net, [[0.0]], 0.7)[0] == pytest.approx(1.0)

    def test_superposition(self):
        net = SrmNet(w=np.array([[1.0]]), tau=1.0, theta=10.0, t_end=8.0)
        single = srm_membrane(net, [[1.0]], 2.5)[0]
        double = srm_membrane(net, [[1.0, 1.0]], 2.5)[0]
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_non_finite_spike_time_rejected(self):
        net = SrmNet(w=np.ones((1, 2)), tau=1.0, theta=1.0, t_end=5.0)
        with pytest.raises(ValueError, match="input 0 has a non-finite spike time"):
            srm_membrane(net, [[float("nan")], [0.3]], 1.0)
        with pytest.raises(ValueError, match="input 1"):
            find_spike_time(net, [[0.1], [0.2, float("-inf")]], 0)

    def test_vectorised_times(self):
        net = SrmNet(w=np.array([[0.5, 1.5]]), tau=1.0, theta=10.0, t_end=6.0)
        presyn = [[0.3], [0.1, 1.2]]
        grid = np.linspace(0, 5, 11)
        batch = srm_membrane(net, presyn, grid)
        for k, t in enumerate(grid):
            assert batch[0, k] == pytest.approx(srm_membrane(net, presyn, float(t))[0])


class TestFindSpikeTime:
    def test_subthreshold_returns_none(self):
        net = SrmNet(w=np.array([[0.5]]), tau=1.0, theta=1.0, t_end=6.0)
        assert find_spike_time(net, [[0.0]], 0) is None

    def test_bisection_residual_bound(self):
        net = SrmNet(w=np.array([[1.4, 0.9]]), tau=1.0, theta=1.0, t_end=8.0)
        presyn = [[0.0, 0.8], [0.4]]
        f = find_spike_time(net, presyn, 0)
        assert f is not None
        assert abs(srm_membrane(net, presyn, f)[0] - 1.0) < 1e-10
        assert BISECTION_RESIDUAL <= 1e-10

    def test_stronger_weights_fire_no_later(self):
        presyn = [[0.0]]
        prev = None
        for scale in (1.1, 1.5, 2.5, 5.0):
            net = SrmNet(w=np.array([[scale]]), tau=1.0, theta=1.0, t_end=8.0)
            f = find_spike_time(net, presyn, 0)
            assert f is not None
            if prev is not None:
                assert f <= prev + 1e-12
            prev = f

    def test_barely_suprathreshold_fires_near_kernel_peak(self):
        tau = 1.3
        net = SrmNet(w=np.array([[1.001]]), tau=tau, theta=1.0, t_end=8.0)
        f = find_spike_time(net, [[0.0]], 0)
        assert f == pytest.approx(tau, abs=0.1)


class TestSpikePropGrad:
    def test_zero_gradient_at_target(self):
        net = SrmNet(w=np.array([[1.5]]), tau=1.0, theta=1.0, t_end=8.0)
        f = find_spike_time(net, [[0.0]], 0)
        grad = spikeprop_grad(net, [[0.0]], np.array([f]))
        assert np.all(grad == 0.0)

    def test_dead_neuron_error_names_neuron(self):
        net = SrmNet(w=np.array([[2.0], [0.01]]), tau=1.0, theta=1.0, t_end=6.0)
        with pytest.raises(DeadNeuronError, match="neuron 1"):
            spikeprop_grad(net, [[0.0]], np.array([1.0, 1.0]))

    def test_membrane_slope_matches_numerics_at_crossing(self):
        net = SrmNet(w=np.array([[1.3, 0.8]]), tau=1.0, theta=1.0, t_end=8.0)
        presyn = [[0.0, 1.1], [0.5]]
        f = find_spike_time(net, presyn, 0)
        h = net.dt_fine
        numeric = (srm_membrane(net, presyn, f + h)[0] - srm_membrane(net, presyn, f - h)[0]) / (2 * h)
        from spikegrad.spikeprop import _membrane_slope, _spike_arrays

        analytic = _membrane_slope(net, _spike_arrays(presyn), 0, f)
        assert analytic == pytest.approx(numeric, rel=1e-6)

    def test_spike_time_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        net = SrmNet(w=rng.uniform(0.8, 1.4, size=(1, 3)), tau=1.0, theta=1.0, t_end=8.0)
        presyn = [list(np.sort(rng.uniform(0, 2, size=2))) for _ in range(3)]
        assert find_spike_time(net, presyn, 0) is not None
        grad = spike_time_weight_grad(net, presyn, 0)
        eps = 1e-6
        for i in range(3):
            base = net.w[0, i]
            net.w[0, i] = base + eps
            f_plus = find_spike_time(net, presyn, 0)
            net.w[0, i] = base - eps
            f_minus = find_spike_time(net, presyn, 0)
            net.w[0, i] = base
            fd = (f_plus - f_minus) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-3)

    def test_loss_gradient_matches_finite_differences_of_true_loss(self):
        # pins the sign convention of the whole chain
        net = SrmNet(w=np.array([[1.2, 0.9]]), tau=1.0, theta=1.0, t_end=8.0)
        presyn = [[0.0], [0.4]]
        target = np.array([2.0])
        grad = spikeprop_grad(net, presyn, target)

        def loss_at(w_val, idx):
            base = net.w[0, idx]
            net.w[0, idx] = w_val
            f = find_spike_time(net, presyn, 0)
            net.w[0, idx] = base
            return (target[0] - f) ** 2

        eps = 1e-6
        for i in range(2):
            fd = (loss_at(net.w[0, i] + eps, i) - loss_at(net.w[0, i] - eps, i)) / (2 * eps)
            assert grad[0, i] == pytest.approx(fd, rel=1e-3)


class TestTrainSpikeProp:
    def _toy(self, shift=-0.3):
        # target an *earlier* spike: learning then climbs the rising kernel
        # slope instead of chasing the tail (where the spike can vanish)
        net = SrmNet(w=np.array([[1.0, 0.8]]), tau=1.0, theta=1.0, t_end=8.0)
        presyn = [[0.0], [0.3]]
        f_init = find_spike_time(net, presyn, 0)
        target = np.array([f_init + shift])
        return net, [(presyn, target)]

    def test_zero_lr_constant_loss(self):
        net, ds = self._toy()
        hist = train_spikeprop(net, ds, lr=0.0, epochs=5)
        losses = [loss for _, loss in hist.rows]
        assert all(l == pytest.approx(losses[0], rel=1e-12) for l in losses)

    def test_small_lr_decreases_loss_monotonically(self):
        net, ds = self._toy()
        hist = train_spikeprop(net, ds, lr=0.01, epochs=30)
        losses = [loss for _, loss in hist.rows]
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_dead_neuron_threshold_lowering_revives_training(self):
        # second output too weak to fire; threshold drops until it does
        net = SrmNet(w=np.array([[1.5, 1.0], [0.05, 0.04]]), tau=1.0, theta=1.0, t_end=8.0)
        ds = [([[0.0], [0.3]], np.array([0.6, 0.9]))]
        hist = train_spikeprop(net, ds, lr=0.005, epochs=3)
        assert hist.threshold_interventions > 0
        assert net.theta[1] < 1.0
        assert net.theta[0] == 1.0
        assert find_spike_time(net, ds[0][0], 1) is not None
        assert np.isfinite(hist.final_loss)

    def test_empty_dataset_rejected(self):
        net, _ = self._toy()
        with pytest.raises(ValueError):
            train_spikeprop(net, [], lr=0.1, epochs=1)

    def _silent_sample(self):
        # no input spikes: no threshold above zero is ever crossed
        return [[], []], np.array([1.0])

    def test_silent_first_sample_raises_after_the_drop_budget(self):
        net, _ = self._toy()
        w0 = net.w.copy()
        with pytest.raises(DeadNeuronError, match="neuron 0"):
            train_spikeprop(net, [self._silent_sample()], lr=0.01, epochs=1)
        theta = 1.0
        for _ in range(200):
            theta *= 0.9
        assert net.theta[0] == theta
        assert np.array_equal(net.w, w0)

    def test_silent_sample_after_a_good_one_raises_and_leaves_weights(self):
        net, ds = self._toy()
        after_good = SrmNet(w=net.w.copy(), tau=net.tau, theta=net.theta.copy(), t_end=net.t_end)
        train_spikeprop(after_good, ds, lr=0.01, epochs=1)
        with pytest.raises(DeadNeuronError, match="neuron 0"):
            train_spikeprop(net, ds + [self._silent_sample()], lr=0.01, epochs=1, max_threshold_drops=5)
        assert np.array_equal(net.w, after_good.w)

    def test_non_finite_input_spike_rejected(self):
        net, ds = self._toy()
        presyn, target = ds[0]
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="input 1 has a non-finite spike time"):
                train_spikeprop(net, [([presyn[0], [bad]], target)], lr=0.01, epochs=1)


class TestSrmNetValidation:
    def test_dt_fine_bound(self):
        with pytest.raises(ValueError):
            SrmNet(w=np.ones((1, 1)), tau=1.0, theta=1.0, t_end=5.0, dt_fine=0.5)

    def test_scalar_theta_broadcasts(self):
        net = SrmNet(w=np.ones((3, 2)), tau=1.0, theta=0.9, t_end=5.0)
        assert net.theta.shape == (3,)
        assert np.all(net.theta == 0.9)
