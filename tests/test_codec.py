"""Unit tests for the spike encoders and decoders."""

import math

import numpy as np
import pytest

from spikegrad.codec import (
    ClampMode,
    DeltaParams,
    LatencyParams,
    Polarity,
    delta_encode,
    first_spike_steps,
    latency_decode,
    latency_encode,
    population_decode,
    rate_decode,
    rate_encode,
)
from spikegrad.neuron import SpikeRaster


class TestRateEncode:
    def test_feature_zero_never_spikes(self):
        raster = rate_encode(np.array([0.0, 0.3]), 200, np.random.default_rng(0))
        assert raster.data[:, 0].sum() == 0

    def test_feature_one_always_spikes(self):
        raster = rate_encode(np.array([1.0, 0.3]), 200, np.random.default_rng(0))
        assert raster.data[:, 0].sum() == 200

    def test_half_rate_within_three_sigma(self):
        raster = rate_encode(np.array([0.5]), 10000, np.random.default_rng(123))
        rate = raster.data[:, 0].mean()
        assert abs(rate - 0.5) <= 0.015  # 3 * sqrt(0.25/10000)

    def test_mean_over_trials_approaches_feature(self):
        rng = np.random.default_rng(7)
        features = np.array([0.1, 0.35, 0.8])
        total = np.zeros(3)
        trials, t_steps = 50, 100
        for _ in range(trials):
            total += rate_encode(features, t_steps, rng).counts()
        rates = total / (trials * t_steps)
        sigma = np.sqrt(features * (1 - features) / (trials * t_steps))
        assert np.all(np.abs(rates - features) <= 3 * sigma + 1e-12)

    def test_same_seed_same_raster(self):
        a = rate_encode(np.array([0.4, 0.6]), 50, np.random.default_rng(9))
        b = rate_encode(np.array([0.4, 0.6]), 50, np.random.default_rng(9))
        assert np.array_equal(a.data, b.data)

    def test_rejects_out_of_range_features(self):
        with pytest.raises(ValueError):
            rate_encode(np.array([1.2]), 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            rate_encode(np.array([-0.01]), 10, np.random.default_rng(0))

    def test_rejects_nan_feature(self):
        with pytest.raises(ValueError, match=r"rate features must lie in \[0, 1\]"):
            rate_encode(np.array([np.nan, 0.5]), 10, np.random.default_rng(0))

    @pytest.mark.parametrize("t_steps", (0, -1))
    def test_rejects_t_steps_below_one(self, t_steps):
        with pytest.raises(ValueError, match=f"t_steps must be >= 1, got {t_steps}"):
            rate_encode(np.array([0.5]), t_steps, np.random.default_rng(0))


class TestLatencyEncode:
    def test_unit_feature_spikes_at_rounded_log_time(self):
        params = LatencyParams(tau=1.0, theta=0.5, t_max=10)
        raster = latency_encode(np.array([1.0]), params)
        assert first_spike_steps(raster)[0] == 1  # round(ln 2) = 1

    def test_at_threshold_never_spikes(self):
        params = LatencyParams(tau=1.0, theta=0.5, t_max=10, clamp_mode=ClampMode.NO_SPIKE)
        raster = latency_encode(np.array([0.5]), params)
        assert raster.data.sum() == 0

    def test_force_last_pins_silent_features_to_final_step(self):
        params = LatencyParams(tau=1.0, theta=0.5, t_max=10, clamp_mode=ClampMode.FORCE_LAST)
        raster = latency_encode(np.array([0.5, 0.2]), params)
        assert np.all(first_spike_steps(raster) == 9)

    def test_monotone_in_feature_strength(self):
        params = LatencyParams(tau=5.0, theta=0.5, t_max=64)
        xs = np.array([0.51, 0.6, 0.7, 0.8, 0.9, 1.0])
        steps = first_spike_steps(latency_encode(xs, params))
        assert np.all(np.diff(steps) <= 0)  # stronger feature spikes no later

    def test_at_most_one_spike_per_neuron(self):
        rng = np.random.default_rng(3)
        params = LatencyParams(tau=3.0, theta=0.3, t_max=32, clamp_mode=ClampMode.FORCE_LAST)
        for _ in range(20):
            raster = latency_encode(rng.uniform(0, 1, size=8), params)
            assert np.all(raster.counts() <= 1)


class TestDeltaEncode:
    def test_constant_signal_is_silent(self):
        signal = np.full((20, 3), 7.5)
        raster = delta_encode(signal, DeltaParams(threshold=0.1))
        assert raster.data.sum() == 0

    def test_step_produces_single_spike(self):
        th = 0.2
        signal = np.zeros((10, 1))
        signal[4:, 0] = 2 * th
        raster = delta_encode(signal, DeltaParams(threshold=th))
        assert raster.data.sum() == 1
        assert raster.data[4, 0] == 1.0

    def test_ramp_at_exact_threshold_is_silent(self):
        th = 0.5
        signal = (th * np.arange(12))[:, None]  # slope exactly the threshold
        raster = delta_encode(signal, DeltaParams(threshold=th))
        assert raster.data.sum() == 0

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        signal = rng.normal(0, 1, size=(30, 4)).cumsum(axis=0)
        p = DeltaParams(threshold=0.7)
        base = delta_encode(signal, p)
        shifted = delta_encode(signal + 123.4, p)
        assert np.array_equal(base.data, shifted.data)

    def test_bipolar_second_raster_marks_decreases(self):
        signal = np.array([[0.0], [1.0], [1.0], [-1.0]])
        on, off = delta_encode(signal, DeltaParams(threshold=0.5, polarity=Polarity.BIPOLAR))
        assert on.data[:, 0].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert off.data[:, 0].tolist() == [0.0, 0.0, 0.0, 1.0]


class TestRateDecode:
    def test_counts_and_argmax(self):
        raster = np.zeros((12, 3))
        raster[:8, 0] = 1.0
        raster[:4, 1] = 1.0
        counts, pred = rate_decode(SpikeRaster(raster))
        assert counts.tolist() == [8.0, 4.0, 0.0]
        assert pred == 0

    def test_all_zero_tie_breaks_low(self):
        counts, pred = rate_decode(np.zeros((5, 4)))
        assert np.all(counts == 0)
        assert pred == 0

    def test_argmax_by_inspection(self):
        raster = np.zeros((6, 3))
        raster[:2, 0] = 1.0
        raster[:2, 1] = 1.0
        raster[:5, 2] = 1.0
        _, pred = rate_decode(raster)
        assert pred == 2

    def test_counts_match_brute_force_column_sums(self):
        rng = np.random.default_rng(2)
        raster = (rng.random((40, 6)) < 0.3).astype(float)
        counts, _ = rate_decode(raster)
        brute = [sum(raster[t, i] for t in range(40)) for i in range(6)]
        assert counts.tolist() == brute


class TestLatencyDecode:
    def test_earliest_first_spike_wins(self):
        raster = np.zeros((10, 3))
        raster[5, 0] = raster[1, 1] = raster[9, 2] = 1.0
        assert latency_decode(raster) == 1

    def test_silent_raster_tie_breaks_low(self):
        assert latency_decode(np.zeros((10, 3))) == 0

    def test_equal_first_spikes_tie_break(self):
        raster = np.zeros((10, 3))
        raster[4, 1] = raster[4, 2] = 1.0
        assert latency_decode(raster) == 1

    def test_silent_neurons_rank_last(self):
        raster = np.zeros((10, 2))
        raster[9, 1] = 1.0
        assert latency_decode(raster) == 1


class TestPopulationDecode:
    def test_group_sums(self):
        raster = np.zeros((10, 4))
        raster[:3, 0] = 1.0  # class 0 neurons: counts 3, 1
        raster[:1, 1] = 1.0
        raster[:2, 3] = 1.0  # class 1 neurons: counts 0, 2
        assert population_decode(raster, [0, 0, 1, 1]) == 0

    def test_single_neuron_per_class_matches_rate_decode(self):
        rng = np.random.default_rng(4)
        raster = (rng.random((25, 5)) < 0.4).astype(float)
        assert population_decode(raster, [0, 1, 2, 3, 4]) == rate_decode(raster)[1]

    def test_equal_group_sums_tie_break(self):
        raster = np.zeros((10, 2))
        raster[0, 0] = raster[1, 1] = 1.0
        assert population_decode(raster, [0, 1]) == 0

    def test_unmapped_neuron_rejected(self):
        with pytest.raises(ValueError):
            population_decode(np.zeros((5, 3)), [0, 1])

    @pytest.mark.parametrize(
        "groups, first_bad",
        [([0, -1], "neuron 1 has class -1"), ([1.7, 0.2], "neuron 0 has class 1.7"),
         ([0, math.nan], "neuron 1 has class nan"), ([math.inf, 0], "neuron 0 has class inf")],
    )
    def test_negative_or_fractional_class_rejected(self, groups, first_bad):
        # neuron 1 fires 3 times; these maps once both decoded to class 0
        raster = np.zeros((5, 2))
        raster[:3, 1] = 1.0
        with pytest.raises(ValueError, match=f"^{first_bad}; a class index is a whole number >= 0$"):
            population_decode(raster, groups)

    def test_whole_float_classes_and_the_demo_map_decode(self):
        raster = np.zeros((5, 3))
        raster[:3, 2] = 1.0
        assert population_decode(raster, [0, 0, 1]) == 1
        assert population_decode(raster, np.array([0.0, 0.0, 1.0])) == 1


class TestParamValidation:
    def test_latency_params(self):
        with pytest.raises(ValueError):
            LatencyParams(tau=0.0, theta=0.5, t_max=4)
        with pytest.raises(ValueError):
            LatencyParams(tau=1.0, theta=0.0, t_max=4)
        with pytest.raises(ValueError):
            LatencyParams(tau=1.0, theta=0.5, t_max=0)

    def test_delta_params(self):
        with pytest.raises(ValueError):
            DeltaParams(threshold=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_params_must_be_finite(self, value):
        with pytest.raises(ValueError, match="^tau must be finite and positive"):
            LatencyParams(tau=value, theta=0.5, t_max=4)
        with pytest.raises(ValueError, match="^theta must be finite and positive"):
            LatencyParams(tau=1.0, theta=value, t_max=4)
        with pytest.raises(ValueError, match="^threshold must be finite and positive"):
            DeltaParams(threshold=value)


class TestNonFiniteInput:
    def test_latency_names_the_first_non_finite_feature(self):
        params = LatencyParams(tau=1.0, theta=0.5, t_max=10)
        with pytest.raises(ValueError, match="^feature 1 is nan; latency features must be finite$"):
            latency_encode([0.9, math.nan, math.inf, 0.2], params)
        with pytest.raises(ValueError, match="^feature 2 is inf; latency features must be finite$"):
            latency_encode([0.9, 0.1, math.inf], params)

    @pytest.mark.parametrize("polarity", list(Polarity), ids=lambda p: p.value)
    def test_delta_names_the_first_non_finite_entry(self, polarity):
        signal = np.array([[0.0, 0.0], [math.nan, 1.0], [1.0, -math.inf]])
        with pytest.raises(ValueError, match=r"^signal\[1, 0\] is nan; delta signals must be finite$"):
            delta_encode(signal, DeltaParams(threshold=0.5, polarity=polarity))
