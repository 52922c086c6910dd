"""Unit tests for the verification-suite helpers (the suites themselves run
in the acceptance module and behind the CLI)."""

from dataclasses import replace

import numpy as np
import pytest

from spikegrad.bptt import _trained, backward
from spikegrad.gradcheck import (
    CaseResult,
    _beta_power_case,
    _random_two_layer,
    _relaxed_loss,
    fit_log_linear_r2,
    max_rel_err,
    run_beta_power,
    run_relaxed_fd,
)
from spikegrad.surrogate import SurrogateKind


class TestMaxRelErr:
    def test_identical_arrays(self):
        a = np.array([1.0, -2.0, 0.0])
        assert max_rel_err(a, a.copy()) == 0.0

    def test_all_zero_arrays(self):
        assert max_rel_err(np.zeros(4), np.zeros(4)) == 0.0

    def test_true_ratio_on_dominant_entries(self):
        a = np.array([1.0, 100.0])
        b = np.array([1.0, 101.0])
        assert max_rel_err(a, b) == pytest.approx(1.0 / 101.0)

    def test_floor_suppresses_noise_on_tiny_entries(self):
        # a 1e-12 discrepancy on a ~0 element must not read as rel err 1
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1e-12])
        assert max_rel_err(a, b, floor_frac=1e-4) == pytest.approx(1e-8)

    def test_empty_input(self):
        assert max_rel_err(np.array([]), np.array([])) == 0.0


class TestFitLogLinearR2:
    def test_pure_exponential_fits_perfectly(self):
        x = np.arange(1, 10)
        y = 3.0 * 0.8**x
        assert fit_log_linear_r2(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_non_exponential_fits_poorly(self):
        x = np.arange(1, 10).astype(float)
        y = np.abs(np.sin(x)) + 0.1
        assert fit_log_linear_r2(x, y) < 0.9


class TestCaseResult:
    def test_pass_is_strict(self):
        assert CaseResult("c", 1e-10, 1e-9).passed
        assert not CaseResult("c", 1e-9, 1e-9).passed


def _ref_run_relaxed_fd(seed: int = 0, n_cases: int = 20, eps: float = 1e-5) -> list[CaseResult]:
    """Verbatim copy of the earlier relaxed-fd suite, which walked the parameters by name."""
    rng = np.random.default_rng(seed)
    results = []
    for case in range(n_cases):
        model, x, y_trace, label = _random_two_layer(rng)
        slope = float(rng.uniform(2.0, 5.0))
        surrogate = SurrogateKind.sigmoid_exact(slope)

        _, record, out_grads = _relaxed_loss(model, x, y_trace, label, slope)
        grads = backward(
            record, out_grads, surrogate=surrogate, detach_reset=False
        )

        analytic: list[float] = []
        numeric: list[float] = []

        def fd_at(getter, setter):
            base = getter()
            setter(base + eps)
            lp, _, _ = _relaxed_loss(model, x, y_trace, label, slope)
            setter(base - eps)
            lm, _, _ = _relaxed_loss(model, x, y_trace, label, slope)
            setter(base)
            return (lp - lm) / (2.0 * eps)

        for l, layer in enumerate(model):
            for name in _trained(layer):
                if name == "beta":
                    def set_beta(v, layer=layer):
                        layer.lif = replace(layer.lif, beta=v)

                    analytic.append(grads[l].d_beta)
                    numeric.append(fd_at(lambda layer=layer: layer.lif.beta, set_beta))
                    continue
                param, grad = getattr(layer, name), getattr(grads[l], "d_" + name)
                for idx in np.ndindex(param.shape):
                    analytic.append(grad[idx])
                    numeric.append(fd_at(lambda: param[idx], lambda v, idx=idx: param.__setitem__(idx, v)))

        err = max_rel_err(np.array(analytic), np.array(numeric), floor_frac=1e-3)
        results.append(CaseResult(f"relaxed-fd[{case}]", err, 1e-5))
    return results


@pytest.mark.parametrize("seed", [0, 5])
def test_relaxed_fd_walks_the_parameters_as_the_named_walk_did(seed):
    assert run_relaxed_fd(seed) == _ref_run_relaxed_fd(seed)


def test_beta_power_draws_its_case_from_the_seed():
    assert _beta_power_case(0) == (0.8, 0.05)
    cases = {seed: _beta_power_case(seed) for seed in (1, 2)}
    assert cases[1] != cases[2]
    for seed, (beta, w_probe) in cases.items():
        assert 0.6 <= beta <= 0.95 and 0.01 <= w_probe <= 0.1
        assert all(r.passed for r in run_beta_power(seed)), seed
