"""Unit tests for the spike function and its derivative substitutes."""

import numpy as np
import pytest

from spikegrad.surrogate import (
    SurrogateKind,
    SurrogateVariant,
    sigmoid,
    surrogate_grad,
)


class TestSurrogateValues:
    def test_heaviside_is_zero_everywhere(self):
        u = np.linspace(-3, 3, 101)
        assert np.all(surrogate_grad(SurrogateKind.heaviside(), u, 0.0) == 0.0)

    def test_sigmoid_normalised_peak(self):
        for k in (1.0, 5.0, 25.0):
            g = surrogate_grad(SurrogateKind(SurrogateVariant.SIGMOID, k=k), np.array([1.0]), 1.0)
            assert g[0] == pytest.approx(1.0, abs=1e-12)

    def test_unnormalised_sigmoid_slope_below_threshold(self):
        # slope of sigmoid(u - theta) at u=0, theta=1: sigma'(-1) ~ 0.1966
        g = surrogate_grad(SurrogateKind(SurrogateVariant.SIGMOID, k=1.0), np.array([0.0]), 1.0)
        unnormalised = g[0] / 4.0  # peak normalisation multiplies by 4/k, k=1
        assert unnormalised == pytest.approx(0.19661193324148185, abs=1e-10)
        assert unnormalised == pytest.approx(0.20, abs=5e-3)

    def test_fast_sigmoid_formula(self):
        k = 25.0
        u = np.array([0.0, 1.0, 1.4])
        g = surrogate_grad(SurrogateKind.fast_sigmoid(k), u, 1.0)
        expected = 1.0 / (1.0 + k * np.abs(u - 1.0)) ** 2
        assert g == pytest.approx(expected, rel=1e-12)

    def test_triangular_support(self):
        kind = SurrogateKind(SurrogateVariant.TRIANGULAR)
        assert surrogate_grad(kind, np.array([1.0]), 1.0)[0] == 1.0
        assert surrogate_grad(kind, np.array([0.0]), 1.0)[0] == 0.0
        assert surrogate_grad(kind, np.array([2.0]), 1.0)[0] == 0.0
        assert surrogate_grad(kind, np.array([1.5]), 1.0)[0] == pytest.approx(0.5)
        # compact support [theta - 1, theta + 1]
        assert surrogate_grad(kind, np.array([-0.001]), 1.0)[0] == 0.0
        assert surrogate_grad(kind, np.array([2.001]), 1.0)[0] == 0.0

    def test_hybrid_spike_is_the_forward_spike(self):
        kind = SurrogateKind.hybrid_spike(c=0.0)
        assert surrogate_grad(kind, np.array([2.0]), 1.0, np.array([1.0]))[0] == 1.0
        assert surrogate_grad(kind, np.array([0.2]), 1.0, np.array([0.0]))[0] == 0.0
        scaled = SurrogateKind.hybrid_spike(c=0.05)
        assert surrogate_grad(scaled, np.array([0.2]), 1.0, np.array([0.0]))[0] == 0.05

    def test_hybrid_spike_without_s_is_rejected(self):
        kind = SurrogateKind.hybrid_spike(c=0.0)
        with pytest.raises(ValueError, match="the hybrid surrogate needs the forward spikes s"):
            surrogate_grad(kind, np.array([0.5, 1.5]), 1.0)

    def test_shifted_relu(self):
        kind = SurrogateKind(SurrogateVariant.SHIFTED_RELU, scale=0.3)
        u = np.array([0.9, 1.1])
        assert surrogate_grad(kind, u, 1.0) == pytest.approx([0.0, 0.3])


class TestSurrogateShapeProperties:
    SMOOTH = [
        SurrogateKind(SurrogateVariant.SIGMOID, k=7.0),
        SurrogateKind.fast_sigmoid(13.0),
        SurrogateKind(SurrogateVariant.TRIANGULAR),
    ]

    @pytest.mark.parametrize("kind", SMOOTH, ids=lambda k: k.variant.value)
    def test_even_about_threshold_nonnegative_peak_one(self, kind):
        theta = 0.7
        offsets = np.linspace(0.0, 3.0, 301)
        left = surrogate_grad(kind, theta - offsets, theta)
        right = surrogate_grad(kind, theta + offsets, theta)
        assert left == pytest.approx(right, abs=1e-12)
        assert np.all(left >= 0.0)
        assert float(surrogate_grad(kind, np.array([theta]), theta)[0]) == pytest.approx(1.0)
        assert np.max(left) <= 1.0 + 1e-12

    def test_sigmoid_exact_is_true_derivative(self):
        k = 3.0
        kind = SurrogateKind.sigmoid_exact(k)
        u = np.linspace(-2, 2, 41)
        h = 1e-6
        numeric = (sigmoid(k * (u + h - 0.5)) - sigmoid(k * (u - h - 0.5))) / (2 * h)
        assert surrogate_grad(kind, u, 0.5) == pytest.approx(numeric, abs=1e-7)


class TestKindValidation:
    def test_slope_must_be_positive(self):
        with pytest.raises(ValueError):
            SurrogateKind(SurrogateVariant.FAST_SIGMOID, k=0.0)

    def test_subthreshold_scale_nonnegative(self):
        with pytest.raises(ValueError):
            SurrogateKind.hybrid_spike(c=-0.1)

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_slope_must_be_finite(self, k):
        with pytest.raises(ValueError, match=f"slope k must be finite and positive, got {k}"):
            SurrogateKind.fast_sigmoid(k)

    @pytest.mark.parametrize("c", [float("nan"), float("inf")])
    def test_subthreshold_scale_must_be_finite(self, c):
        with pytest.raises(ValueError, match=f"subthreshold scale must be finite and >= 0, got {c}"):
            SurrogateKind.hybrid_spike(c=c)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
    def test_shifted_relu_scale_must_be_finite(self, scale):
        with pytest.raises(ValueError, match=f"scale must be finite, got {scale}"):
            SurrogateKind(SurrogateVariant.SHIFTED_RELU, scale=scale)
