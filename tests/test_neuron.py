"""Unit tests for the LIF dynamics."""

import math

import numpy as np
import pytest

from spikegrad.neuron import (
    LifParams,
    LifState,
    ResetMode,
    SpikeRaster,
    beta_from_tau,
    lif_scan,
    lif_step,
)


class TestBetaFromTau:
    def test_direct_values(self):
        assert beta_from_tau(2.0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert beta_from_tau(1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_large_tau_limit(self):
        assert beta_from_tau(1e12, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert beta_from_tau(1e12, 1.0) < 1.0

    def test_result_in_open_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            b = beta_from_tau(float(rng.uniform(0.01, 50)), float(rng.uniform(0.01, 5)))
            assert 0.0 < b < 1.0

    @pytest.mark.parametrize("tau,dt", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_non_positive_arguments(self, tau, dt):
        with pytest.raises(ValueError):
            beta_from_tau(tau, dt)


class TestLifStep:
    def test_subtract_mode_hand_rolled(self):
        # beta=0.5, u=1.0, WX=0.3 -> u'=0.8 > theta=0.5 -> spike
        params = LifParams(beta=0.5, theta0=0.5, reset_mode=ResetMode.SUBTRACT)
        state = LifState(u=np.array([1.0]), b=np.zeros(1), s_prev=np.zeros(1))
        state, spikes = lif_step(state, params, np.array([0.3]))
        assert state.u[0] == pytest.approx(0.8)
        assert spikes[0] == 1.0
        # next step the reset subtracts exactly theta
        state2, _ = lif_step(state, params, np.array([0.0]))
        assert state2.u[0] == pytest.approx(0.5 * 0.8 - 0.5)

    def test_zero_state_zero_input_stays_silent(self):
        params = LifParams(beta=0.73, theta0=1.0)
        state, spikes = lif_step(LifState.zeros(3), params, np.zeros(3))
        assert np.all(state.u == 0.0)
        assert np.all(spikes == 0.0)

    def test_zero_mode_zeroes_after_previous_spike(self):
        # beta=0.9, u=0.6, WX=0.5, s_prev=1 -> (0.54+0.5) zeroed -> 0
        params = LifParams(beta=0.9, theta0=1.0, reset_mode=ResetMode.ZERO)
        state = LifState(u=np.array([0.6]), b=np.zeros(1), s_prev=np.array([1.0]))
        state, spikes = lif_step(state, params, np.array([0.5]))
        assert state.u[0] == 0.0
        assert spikes[0] == 0.0

    def test_spike_condition_is_strict(self):
        params = LifParams(beta=1.0, theta0=0.5, reset_mode=ResetMode.NONE)
        state = LifState(u=np.array([0.5]), b=np.zeros(1), s_prev=np.zeros(1))
        _, spikes = lif_step(state, params, np.zeros(1))
        assert spikes[0] == 0.0  # u == theta does not fire

    def test_dimension_mismatch_rejected(self):
        params = LifParams(beta=0.9)
        with pytest.raises(ValueError):
            lif_step(LifState.zeros(3), params, np.zeros(4))

    def test_determinism_bitwise(self):
        params = LifParams(beta=0.77, theta0=0.9, adapt_alpha=0.3)
        rng = np.random.default_rng(5)
        state = LifState(u=rng.normal(size=4), b=np.abs(rng.normal(size=4)), s_prev=np.zeros(4))
        wx = rng.normal(size=4)
        s1, sp1 = lif_step(state, params, wx)
        s2, sp2 = lif_step(state, params, wx)
        assert np.array_equal(s1.u, s2.u)
        assert np.array_equal(s1.b, s2.b)
        assert np.array_equal(sp1, sp2)


class TestAdaptiveThreshold:
    def test_threshold_read_before_update(self):
        # b lags one step: the spike at t bumps the threshold used at t+1
        params = LifParams(beta=1.0, theta0=0.5, reset_mode=ResetMode.NONE, adapt_alpha=0.5)
        state = LifState(u=np.array([0.4]), b=np.zeros(1), s_prev=np.zeros(1))
        state, spikes = lif_step(state, params, np.array([0.2]))
        assert spikes[0] == 1.0  # fired against theta0 alone
        assert state.b[0] == pytest.approx(0.5)  # (1 - alpha) * spike

    def test_geometric_decay_between_spikes(self):
        alpha = 0.8
        params = LifParams(beta=0.5, theta0=10.0, adapt_alpha=alpha)
        state = LifState(u=np.zeros(1), b=np.array([1.0]), s_prev=np.zeros(1))
        values = []
        for _ in range(5):
            state, _ = lif_step(state, params, np.zeros(1))
            values.append(state.b[0])
        expected = [alpha ** (k + 1) for k in range(5)]
        assert values == pytest.approx(expected, rel=1e-12)
        assert all(v >= 0 for v in values)


class TestLifForward:
    def test_all_zero_input(self):
        trace, raster, _ = lif_scan(LifParams(beta=0.9), np.zeros((7, 3)))
        assert np.all(trace == 0.0)
        assert np.all(raster == 0.0)

    def test_constant_input_converges_to_geometric_limit(self):
        beta, current = 0.8, 0.05
        params = LifParams(beta=beta, theta0=10.0)  # never spikes
        trace, raster, _ = lif_scan(params, np.full((400, 1), current))
        assert raster.sum() == 0
        assert trace[-1, 0] == pytest.approx(current / (1.0 - beta), rel=1e-9)

    def test_pulse_then_geometric_decay(self):
        beta = 0.5
        params = LifParams(beta=beta, theta0=10.0)
        wx = np.zeros((6, 1))
        wx[0, 0] = 1.0
        trace, _, _ = lif_scan(params, wx)
        assert trace[:, 0] == pytest.approx([beta**k for k in range(6)])

    def test_no_reset_no_spike_is_pure_recurrence(self):
        rng = np.random.default_rng(9)
        beta = 0.85
        wx = rng.normal(0, 0.01, size=(30, 2))  # subthreshold
        trace, raster, _ = lif_scan(LifParams(beta=beta, theta0=5.0, reset_mode=ResetMode.NONE), wx)
        assert raster.sum() == 0
        u = np.zeros(2)
        for t in range(30):
            u = beta * u + wx[t]
            assert trace[t] == pytest.approx(u, abs=1e-15)

    def test_subtract_residual_is_exact(self):
        # after a spike the next membrane keeps the superthreshold residue
        params = LifParams(beta=1.0, theta0=1.0, reset_mode=ResetMode.SUBTRACT)
        wx = np.array([[1.7], [0.0]])
        trace, raster, _ = lif_scan(params, wx)
        assert raster[0, 0] == 1.0
        assert trace[1, 0] == pytest.approx(1.7 - 1.0)


class TestTypeValidation:
    def test_spike_raster_rejects_non_binary(self):
        with pytest.raises(ValueError):
            SpikeRaster(np.array([[0.0, 0.5]]))

    def test_spike_raster_shape_and_counts(self):
        r = SpikeRaster(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]))
        assert r.data.shape == (3, 2)
        assert r.counts() == pytest.approx([2.0, 1.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.0},
            {"beta": 1.5},
            {"beta": 0.9, "theta0": 0.0},
            {"beta": 0.9, "theta0": float("inf")},
            {"beta": 0.9, "theta0": float("nan")},
            {"beta": 0.9, "adapt_alpha": 1.0},
            {"beta": 0.9, "adapt_alpha": -0.1},
        ],
    )
    def test_lif_params_invariants(self, kwargs):
        with pytest.raises(ValueError):
            LifParams(**kwargs)
