"""Gradient verification suites.

Four independent checks of the training engines, runnable from the CLI and
reused verbatim by the acceptance tests:

  * relaxed-fd: with the hard threshold swapped for a sigmoid of known
    slope (and the matching exact-derivative surrogate), the BPTT adjoint
    must agree with central finite differences of the now-smooth loss.
  * rtrl-vs-bptt: for a single weight layer with per-step membrane losses,
    the summed forward-mode (influence) gradient and the reverse-mode
    gradient are two evaluations of the same sum and must agree to 1e-9.
  * spikeprop-fd: the closed-form spike-time derivative must track finite
    differences of the located crossing time.
  * beta-power: with the hybrid (spike-valued) surrogate, the gradient
    reaching a weight across an n-step quiet gap must scale exactly as
    beta^n, i.e. the causal half of an STDP-style exponential window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bptt import OutputGrads, SnnLayer, _FlatParams, backward, forward
from .neuron import LifParams, LifState, ResetMode, lif_step
from .objectives import ce_spike_rate, mse_membrane
from .online import influence_step, online_grad
from .spikeprop import (
    SrmNet,
    alpha_kernel,
    find_spike_time,
    spike_time_weight_grad,
)
from .surrogate import SurrogateKind

__all__ = [
    "CaseResult",
    "max_rel_err",
    "fit_log_linear_r2",
    "run_relaxed_fd",
    "run_rtrl_vs_bptt",
    "run_spikeprop_fd",
    "run_beta_power",
    "SUITES",
]


@dataclass(frozen=True)
class CaseResult:
    """One case of a suite. ``case`` says what the seed drew for it and takes
    no part in comparisons, which look at the name, error and tolerance."""

    name: str
    max_rel_err: float
    tol: float
    case: str = field(default="", compare=False)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def max_rel_err(a: np.ndarray, b: np.ndarray, floor_frac: float = 1e-4) -> float:
    """Largest elementwise relative difference, floored against tiny entries.

    The denominator never drops below floor_frac times the largest
    magnitude present, so elements that are zero (or cancel to rounding
    noise) do not manufacture spurious relative error while genuine
    discrepancies on meaningful entries are measured as true ratios.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if scale == 0.0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor_frac * scale)
    return float(np.max(np.abs(a - b) / denom))


def fit_log_linear_r2(x: np.ndarray, y: np.ndarray) -> float:
    """R^2 of a straight-line fit to (x, log|y|): how exponential the curve is."""
    ly = np.log(np.abs(np.asarray(y, dtype=np.float64)))
    x = np.asarray(x, dtype=np.float64)
    slope, intercept = np.polyfit(x, ly, 1)
    resid = ly - (slope * x + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - float(np.sum(resid**2)) / ss_tot


def _random_two_layer(rng: np.random.Generator):
    n_in = int(rng.integers(2, 5))
    n_hid = int(rng.integers(2, 5))
    n_out = int(rng.integers(2, 4))
    t_steps = int(rng.integers(6, 13))

    def make_layer(ni, no):
        lif = LifParams(
            beta=float(rng.uniform(0.5, 0.95)),
            theta0=float(rng.uniform(0.4, 1.0)),
            reset_mode=rng.choice(list(ResetMode)),
            learn_beta=bool(rng.integers(0, 2)),
        )
        w = rng.normal(0.0, 1.5 / np.sqrt(ni), size=(no, ni))
        v = rng.normal(0.0, 0.5 / np.sqrt(no), size=(no, no)) if rng.random() < 0.5 else None
        return SnnLayer(w=w, lif=lif, v=v)

    model = [make_layer(n_in, n_hid), make_layer(n_hid, n_out)]
    x = (rng.random((t_steps, n_in)) < 0.3).astype(np.float64)
    y_trace = rng.normal(0.0, 1.0, size=(t_steps, n_out))
    label = int(rng.integers(0, n_out))
    return model, x, y_trace, label


def _relaxed_loss(model, x, y_trace, label, slope):
    record = forward(model, x, relaxed_slope=slope)
    loss_m, d_u = mse_membrane(record.output_membrane(), y_trace)
    loss_c, d_counts = ce_spike_rate(record.output_spikes().sum(axis=0), label)
    return loss_m + loss_c, record, OutputGrads(d_spikes=d_counts, d_membrane=d_u)


def run_relaxed_fd(seed: int = 0) -> list[CaseResult]:
    """Backward vs central finite differences of the relaxed (smooth) loss.

    Randomises layer sizes, reset modes, explicit recurrence and learnable
    beta; the analytic reset pathway is kept attached so every term of the
    adjoint is exercised.
    """
    n_cases, eps = 20, 1e-5
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

        params = _FlatParams(model)
        saved = params.vec.copy()

        def loss_at(k, step):
            params.vec[:] = saved
            params.vec[k] += step
            params.sync()
            return _relaxed_loss(model, x, y_trace, label, slope)[0]

        numeric = [(loss_at(k, eps) - loss_at(k, -eps)) / (2.0 * eps) for k in range(saved.size)]
        err = max_rel_err(params.gather(grads), np.array(numeric), floor_frac=1e-3)
        (n_hid, n_in), n_out = model[0].w.shape, model[1].w.shape[0]
        results.append(CaseResult(f"relaxed-fd[{case}]", err, 1e-5, f"net {n_in}-{n_hid}-{n_out}, T={x.shape[0]}"))
    return results


def run_rtrl_vs_bptt(seed: int = 0) -> list[CaseResult]:
    """Deferred influence gradient vs BPTT on one layer, per-step membrane loss.

    Reset modes are subtract or none: the influence recursion models the
    additive (detached) reset, matching backward() with detach_reset on.
    """
    n_cases = 50
    rng = np.random.default_rng(seed)
    results = []
    for case in range(n_cases):
        n_in = int(rng.integers(1, 9))
        n_out = int(rng.integers(1, 5))
        t_steps = int(rng.integers(4, 33))
        lif = LifParams(
            beta=float(rng.uniform(0.3, 0.99)),
            theta0=float(rng.uniform(0.5, 1.2)),
            reset_mode=rng.choice([ResetMode.SUBTRACT, ResetMode.NONE]),
        )
        layer = SnnLayer(w=rng.normal(0.0, 1.5 / np.sqrt(n_in), size=(n_out, n_in)), lif=lif)
        x = (rng.random((t_steps, n_in)) < 0.4).astype(np.float64)
        y = rng.normal(0.0, 1.0, size=(t_steps, n_out))

        record = forward([layer], x)
        _, d_u = mse_membrane(record.output_membrane(), y)
        bptt_grad = backward(record, OutputGrads(d_membrane=d_u), detach_reset=True)[0].d_w

        state = LifState.zeros(n_out)
        infl = np.zeros((n_out, n_in))
        online = np.zeros_like(layer.w)
        for t in range(t_steps):
            state, _ = lif_step(state, lif, layer.w @ x[t])
            infl = influence_step(infl, lif.beta, x[t])
            cbar = -2.0 * (y[t] - state.u)
            online += online_grad(cbar, infl)

        err = max_rel_err(online, bptt_grad)
        results.append(CaseResult(f"rtrl-vs-bptt[{case}]", err, 1e-9, f"net {n_in}-{n_out}, T={t_steps}"))
    return results


def run_spikeprop_fd(seed: int = 0) -> list[CaseResult]:
    """Closed-form df/dW vs finite differences of the located spike time."""
    n_cases, eps = 20, 1e-6
    rng = np.random.default_rng(seed)
    results = [
        CaseResult("kernel-peak", abs(float(alpha_kernel(1.7, 1.7)) - 1.0), 1e-12, "tau=1.7")
    ]
    case = 0
    while case < n_cases:
        n_in = int(rng.integers(2, 5))
        n_out = int(rng.integers(1, 3))
        tau = float(rng.uniform(0.5, 2.0))
        t_end = 6.0 * tau
        presyn = [
            np.sort(rng.uniform(0.0, 0.5 * t_end, size=rng.integers(1, 4)))
            for _ in range(n_in)
        ]
        w = rng.uniform(0.5, 1.5, size=(n_out, n_in)) * (1.5 / n_in)
        net = SrmNet(w=w, tau=tau, theta=1.0, t_end=t_end)

        # scale rows up until every output fires with a healthy crossing slope
        ok = True
        for j in range(n_out):
            for _ in range(40):
                if find_spike_time(net, presyn, j) is not None:
                    break
                net.w[j] *= 1.3
            else:
                ok = False
        if not ok:
            continue

        analytic = []
        numeric = []
        for j in range(n_out):
            grad_row = spike_time_weight_grad(net, presyn, j)
            for i in range(n_in):
                base = net.w[j, i]
                net.w[j, i] = base + eps
                f_plus = find_spike_time(net, presyn, j)
                net.w[j, i] = base - eps
                f_minus = find_spike_time(net, presyn, j)
                net.w[j, i] = base
                if f_plus is None or f_minus is None:
                    continue
                analytic.append(grad_row[i])
                numeric.append((f_plus - f_minus) / (2.0 * eps))
        err = max_rel_err(np.array(analytic), np.array(numeric), floor_frac=1e-3)
        results.append(CaseResult(f"spikeprop-fd[{case}]", err, 1e-3, f"n_in={n_in}, n_out={n_out}, tau={tau:.6g}"))
        case += 1
    return results


def _beta_power_case(seed: int) -> tuple[float, float]:
    """(beta, probe weight): 0.8 and 0.05 at seed 0, else drawn from [0.6, 0.95] and [0.01, 0.1]."""
    if seed == 0:
        return 0.8, 0.05
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.6, 0.95)), float(rng.uniform(0.01, 0.1))


def run_beta_power(seed: int = 0) -> list[CaseResult]:
    """Hybrid-surrogate gradient across an n-step quiet gap scales as beta^n.

    A weak probe input spikes n steps before a strong driver forces the
    (single) output spike; the probe weight's gradient must shrink by
    exactly beta per extra quiet step, tracing out the causal half of an
    STDP-style exponential window.  The seed picks beta and the probe
    weight (``_beta_power_case``).
    """
    beta, w_probe = _beta_power_case(seed)
    max_gap = 12
    lif = LifParams(beta=beta, theta0=1.0, reset_mode=ResetMode.SUBTRACT)
    t_steps = max_gap + 6
    t_post = t_steps - 3
    gaps = np.arange(1, max_gap + 1)
    magnitudes = []
    for n in gaps:
        layer = SnnLayer(w=np.array([[w_probe, 2.0]]), lif=lif)
        x = np.zeros((t_steps, 2))
        x[t_post - n, 0] = 1.0  # probe
        x[t_post, 1] = 1.0      # driver: forces the output spike at t_post
        record = forward([layer], x)
        assert record.output_spikes()[:, 0].sum() == 1.0
        assert record.output_spikes()[t_post, 0] == 1.0
        d_s = np.zeros((t_steps, 1))
        d_s[t_post, 0] = 1.0
        grads = backward(
            record,
            OutputGrads(d_spikes=d_s),
            surrogate=SurrogateKind.hybrid_spike(c=0.0),
            detach_reset=True,
        )
        magnitudes.append(abs(grads[0].d_w[0, 0]))
    magnitudes = np.array(magnitudes)

    ratios = magnitudes[1:] / magnitudes[:-1]
    ratio_err = float(np.max(np.abs(ratios - beta)))
    r2 = fit_log_linear_r2(gaps, magnitudes)
    case = f"beta={beta:.6g}, w_probe={w_probe:.6g}"
    return [
        CaseResult("beta-power-ratio", ratio_err, 1e-9, case),
        CaseResult("beta-power-exp-fit", 1.0 - r2, 1e-3, case),
    ]


SUITES = {
    "relaxed-fd": run_relaxed_fd,
    "rtrl-vs-bptt": run_rtrl_vs_bptt,
    "spikeprop-fd": run_spikeprop_fd,
    "beta-power": run_beta_power,
}
