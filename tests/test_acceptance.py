"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single pass/fail line so a run of
``pytest tests/test_acceptance.py -s`` doubles as the acceptance report.
Training-based criteria pin every hyperparameter here; nothing is left to
later calibration.
"""

import time

import numpy as np
import pytest

from spikegrad.bptt import (
    Feedback,
    OptimizerState,
    OutputGrads,
    SnnLayer,
    backward,
    forward,
    load_checkpoint,
    save_checkpoint,
    train_bptt,
)
from spikegrad.codec import LatencyParams, first_spike_steps, latency_encode, rate_encode
from spikegrad.events import load_events, save_events
from spikegrad.gradcheck import (
    run_beta_power,
    run_relaxed_fd,
    run_rtrl_vs_bptt,
    run_spikeprop_fd,
)
from spikegrad.neuron import LifParams, ResetMode, SpikeRaster, beta_from_tau, lif_scan
from spikegrad.objectives import ObjectiveKind, ObjectiveSpec, RegularizerSpec
from spikegrad.surrogate import SurrogateKind
from spikegrad.tasks import gen_latency_task, gen_rate_task


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


# -----------------------------------------------------------------------
# shared training runs (criteria 6 and 10 compare against the same seed)
# -----------------------------------------------------------------------


def _rate_task():
    return gen_rate_task(
        seed=42, n_inputs=10, t_steps=50, rate_lo=0.2, rate_hi=0.8, n_samples_per_class=100
    )


def _rate_model(rng, random_feedback=False):
    lif = LifParams(beta=0.9, theta0=1.0, reset_mode=ResetMode.SUBTRACT)
    return [
        SnnLayer.init(10, 16, lif, rng, random_feedback=random_feedback),
        SnnLayer.init(16, 2, lif, rng, random_feedback=random_feedback),
    ]


def _train_rate(reg=None, feedback=Feedback.SYMMETRIC, epochs=50):
    rng = np.random.default_rng(42)
    model = _rate_model(rng, random_feedback=feedback is Feedback.RANDOM_FIXED)
    history = train_bptt(
        model,
        _rate_task(),
        ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE),
        reg=reg,
        feedback=feedback,
        optimizer=OptimizerState.adam(1e-3),
        epochs=epochs,
        seed=42,
        batch_size=32,
    )
    return model, history


@pytest.fixture(scope="module")
def rate_run():
    start = time.time()
    model, history = _train_rate()
    return model, history, time.time() - start


def _min_hidden_count(model, dataset):
    counts = np.zeros(model[0].n_out)
    for x, _ in dataset.samples:
        counts += forward(model, x).traces[0].s.sum(axis=0)
    return float(counts.min())


# -----------------------------------------------------------------------
# criteria
# -----------------------------------------------------------------------


def test_criterion_1_online_equals_bptt():
    start = time.time()
    results = run_rtrl_vs_bptt(seed=0)
    elapsed = time.time() - start
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 10.0
    report("1 online-vs-bptt", ok, f"50 nets, worst rel err {worst:.2e} < 1e-9, {elapsed:.1f}s < 10s")


def test_criterion_2_relaxed_finite_differences():
    start = time.time()
    results = run_relaxed_fd(seed=0)
    elapsed = time.time() - start
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 30.0
    report("2 relaxed-fd", ok, f"20 nets, worst rel err {worst:.2e} < 1e-5, {elapsed:.1f}s < 30s")


def test_criterion_3_spikeprop_gradients():
    start = time.time()
    results = run_spikeprop_fd(seed=0)
    elapsed = time.time() - start
    kernel = next(r for r in results if r.name == "kernel-peak")
    others = [r for r in results if r.name != "kernel-peak"]
    worst = max(r.max_rel_err for r in others)
    ok = all(r.passed for r in results) and elapsed < 30.0
    report(
        "3 spikeprop-fd",
        ok,
        f"20 nets, worst rel err {worst:.2e} < 1e-3, kernel peak off by {kernel.max_rel_err:.1e} < 1e-12, {elapsed:.1f}s < 30s",
    )


def test_criterion_4_beta_power_stdp_shape():
    results = run_beta_power(seed=0)
    ratio = next(r for r in results if r.name == "beta-power-ratio")
    fit = next(r for r in results if r.name == "beta-power-exp-fit")
    ok = ratio.passed and (1.0 - fit.max_rel_err) > 0.999
    report(
        "4 beta-power",
        ok,
        f"quiet-gap ratio off by {ratio.max_rel_err:.1e} < 1e-9, exponential fit R^2 = {1.0 - fit.max_rel_err:.6f} > 0.999",
    )


def test_criterion_5_dead_neuron_demonstration():
    dataset = _rate_task()
    rng = np.random.default_rng(42)
    model = _rate_model(rng)
    obj = ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE)

    def epoch_hidden_grads(surrogate):
        total = np.zeros_like(model[0].w)
        any_nonzero = False
        for x, target in dataset.samples:
            record = forward(model, x)
            from spikegrad.objectives import eval_objective

            _, d_s, _ = eval_objective(obj, record.output_membrane(), record.output_spikes(), target)
            grads = backward(record, OutputGrads(d_spikes=d_s), surrogate=surrogate)
            total += np.abs(grads[0].d_w)
            any_nonzero = any_nonzero or np.any(grads[0].d_w != 0.0)
        return total, any_nonzero

    dead_total, dead_any = epoch_hidden_grads(SurrogateKind.heaviside())
    live_total, live_any = epoch_hidden_grads(SurrogateKind.fast_sigmoid(25.0))
    ok = (not dead_any) and np.all(dead_total == 0.0) and live_any
    report(
        "5 dead-neuron",
        ok,
        f"heaviside hidden grads all zero over {len(dataset.samples)} samples; fast-sigmoid nonzero",
    )


def test_criterion_6_rate_training(rate_run):
    _, history, elapsed = rate_run
    best = max(r.accuracy for r in history.rows)
    hit = next((r.epoch for r in history.rows if r.accuracy >= 0.95), None)
    ok_main = hit is not None and elapsed < 60.0

    rf_model, rf_history = _train_rate(feedback=Feedback.RANDOM_FIXED)
    ratio = rf_history.rows[-1].loss / rf_history.rows[0].loss
    ok = ok_main and ratio < 0.5
    report(
        "6 rate-training",
        ok,
        f">=95% at epoch {hit} (best {best:.3f}), {elapsed:.1f}s < 60s; random-feedback loss ratio {ratio:.3f} < 0.5",
    )


def test_criterion_7_latency_pipeline():
    dataset = gen_latency_task(
        seed=7, n_inputs=8, t_steps=24, n_classes=4, n_samples_per_class=25, jitter=1
    )
    lif = LifParams(beta=0.9, theta0=0.5)
    rng = np.random.default_rng(42)
    model = [SnnLayer.init(8, 24, lif, rng), SnnLayer.init(24, 4, lif, rng)]
    history = train_bptt(
        model,
        dataset,
        ObjectiveSpec(ObjectiveKind.CE_SPIKE_TIME),
        # a mild per-neuron floor keeps output classes from falling silent,
        # which the first-spike objective cannot recover from on its own
        reg=RegularizerSpec(lambda_lower=0.1, theta_lower=1.0),
        surrogate=SurrogateKind.fast_sigmoid(5.0),
        optimizer=OptimizerState.adam(1e-2),
        epochs=100,
        seed=42,
        batch_size=16,
    )
    hit = next((r.epoch for r in history.rows if r.accuracy >= 0.90), None)
    best = max(r.accuracy for r in history.rows)
    report("7 latency-pipeline", hit is not None, f">=90% at epoch {hit} (best {best:.3f}) within 100 epochs")


def test_criterion_8_encoder_statistics():
    raster = rate_encode(np.array([0.5]), 10000, np.random.default_rng(42))
    rate = float(raster.data[:, 0].mean())
    ok_rate = 0.485 <= rate <= 0.515

    params = LatencyParams(tau=5.0, theta=0.5, t_max=64)
    xs = np.array([0.51, 0.6, 0.7, 0.8, 0.9, 1.0])
    steps = first_spike_steps(latency_encode(xs, params))
    ok_mono = bool(np.all(np.diff(steps) <= 0))
    report(
        "8 encoder-statistics",
        ok_rate and ok_mono,
        f"empirical rate {rate:.4f} in [0.485, 0.515]; latency steps {steps.astype(int).tolist()} non-increasing",
    )


def test_criterion_9_reset_mode_convergence():
    def max_gap(dt, tau=1.0, theta=0.5, t_phys=2.0):
        beta = beta_from_tau(tau, dt)
        steps = int(round(t_phys / dt))
        times = np.arange(steps) * dt
        drive = np.where(times < 0.6, 1.2, 0.2)  # subthreshold hold after one crossing
        wx = ((1.0 - beta) * drive)[:, None]
        u_sub, s_sub, _ = lif_scan(LifParams(beta=beta, theta0=theta, reset_mode=ResetMode.SUBTRACT), wx)
        u_zero, s_zero, _ = lif_scan(LifParams(beta=beta, theta0=theta, reset_mode=ResetMode.ZERO), wx)
        assert s_sub.sum() == s_zero.sum() == 1
        return float(np.max(np.abs(u_sub - u_zero)))

    g1, g2, g3 = max_gap(0.02), max_gap(0.01), max_gap(0.005)
    ok = g2 < g1 and g3 < g2
    report("9 reset-convergence", ok, f"max |U_sub - U_zero|: {g1:.5f} -> {g2:.5f} -> {g3:.5f} as dt halves")


def test_criterion_10_regularizer_raises_activity_floor(rate_run):
    base_model, _, _ = rate_run
    dataset = _rate_task()
    base_min = _min_hidden_count(base_model, dataset)

    reg_model, _ = _train_rate(reg=RegularizerSpec(lambda_lower=0.5, theta_lower=5.0))
    reg_min = _min_hidden_count(reg_model, dataset)
    ok = reg_min > base_min
    report(
        "10 regularizer-effect",
        ok,
        f"min per-neuron hidden count {base_min:.0f} (unregularized) -> {reg_min:.0f} (theta_L=5), strictly increased",
    )


def test_criterion_11_file_format_round_trips(tmp_path):
    rng = np.random.default_rng(0)
    ev_path = tmp_path / "r.ev"
    ev2_path = tmp_path / "r2.ev"
    for case in range(1000):
        t_steps = int(rng.integers(1, 24))
        n = int(rng.integers(1, 10))
        raster = SpikeRaster((rng.random((t_steps, n)) < rng.random()).astype(float))
        save_events(raster, ev_path)
        loaded = load_events(ev_path)
        assert np.array_equal(loaded.data, raster.data), f"event case {case}"
        save_events(loaded, ev2_path)
        assert ev_path.read_bytes() == ev2_path.read_bytes(), f"event bytes case {case}"

    ck_path = tmp_path / "m.ckpt"
    ck2_path = tmp_path / "m2.ckpt"
    for case in range(1000):
        sizes = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(2, 4)))]
        model = []
        for l in range(len(sizes) - 1):
            lif = LifParams(
                beta=float(rng.uniform(0.1, 1.0)),
                theta0=float(rng.uniform(0.1, 3.0)),
                reset_mode=rng.choice(list(ResetMode)),
                adapt_alpha=float(rng.uniform(0.0, 0.99)),
                learn_beta=bool(rng.integers(0, 2)),
            )
            model.append(
                SnnLayer.init(sizes[l], sizes[l + 1], lif, rng, recurrent=bool(rng.integers(0, 2)))
            )
        save_checkpoint(model, ck_path)
        loaded = load_checkpoint(ck_path)
        for a, b in zip(model, loaded):
            assert np.array_equal(a.w, b.w), f"checkpoint case {case}"
            assert a.lif == b.lif, f"checkpoint lif case {case}"
            assert (a.v is None) == (b.v is None)
            if a.v is not None:
                assert np.array_equal(a.v, b.v)
        save_checkpoint(loaded, ck2_path)
        assert ck_path.read_bytes() == ck2_path.read_bytes(), f"checkpoint bytes case {case}"

    report("11 round-trips", True, "1000 event files and 1000 checkpoints round-tripped bit-exactly")
