"""Tests of the benchmark's own logic: seeded inputs, self-time arithmetic,
failure accounting and the tracer's rebinding."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Replica  # noqa: E402


def _inputs(name, seed, workdir):
    wl = WORKLOADS[name]
    if name == "spikeprop":
        _, samples = wl.setup(wl, seed, workdir)
        return [np.concatenate(presyn + [targets]) for presyn, targets in samples]
    cfg, _ = wl.setup(wl, seed, workdir)
    return [np.asarray(x.data) for x, _ in cfg.dataset.samples]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name, tmp_path):
    first = _inputs(name, 5, tmp_path)
    again = _inputs(name, 5, tmp_path)
    other = _inputs(name, 6, tmp_path)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def test_replica_seeds_are_distinct_and_repeatable():
    seeds = {harness.replica_seed(s, i) for s in range(4) for i in range(50)}
    assert len(seeds) == 200
    assert harness.replica_seed(3, 7) == harness.replica_seed(3, 7)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 1.5, 2.5, 1),   # grandchild: charged to a, not to root
        Span("a", 5.0, 6.0, 0),
        Span("c", 7.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 1.0 - 2.0)
    assert own["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert own["b"] == pytest.approx(1.0)
    assert own["c"] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def _stub(fail_on: set[int]):
    """A cheap workload whose replica ``i`` raises when i is in fail_on."""

    def setup(wl, seed, workdir):
        return seed

    def train(seed):
        if seed in fail_on:
            raise RuntimeError("forced failure")
        return Replica(losses=[1.0, 0.5], accuracies=[0.5, 1.0], weights=[np.ones(2)])

    return replace(
        WORKLOADS["online"],
        name="stub",
        epochs=2,
        loss_target=0.75,
        samples=10,
        min_replicas=4,
        setup=setup,
        train=train,
        check=lambda state, rep: None,
    )


def test_forced_failure_counts_its_samples(tmp_path):
    bad = harness.replica_seed(0, 2)
    wl = _stub({bad})
    outcomes = harness.measure(wl, 0, tmp_path, seconds=0)
    summary = harness.summarize(wl, outcomes)
    assert summary["attempted"] == 40
    assert summary["failed"] == 10
    assert len(summary["failures"]) == 1 and "forced failure" in summary["failures"][0]
    # time to target: both good epochs' share is 1/2 of the training time
    assert math.isfinite(summary["metrics"]["time_to_target_s"])


def test_missed_loss_target_is_a_failure(tmp_path):
    wl = replace(_stub(set()), loss_target=0.1)
    summary = harness.summarize(wl, harness.measure(wl, 0, tmp_path, seconds=0))
    assert summary["failed"] == summary["attempted"] == 40
    assert "not reached" in summary["failures"][0]


def test_tracer_rebinds_imported_names_and_restores_them():
    from spikegrad import bptt, objectives, surrogate
    from spikegrad.bptt import OutputGrads, SnnLayer, backward, forward
    from spikegrad.neuron import LifParams
    from spikegrad.objectives import ObjectiveKind, ObjectiveSpec

    originals = (bptt.eval_objective, objectives.eval_objective, surrogate.surrogate_grad, bptt.forward)
    tracer = Tracer()
    tracer.install()
    try:
        assert bptt.eval_objective is objectives.eval_objective is not originals[0]
        layer = SnnLayer.init(3, 2, LifParams(beta=0.9), np.random.default_rng(0))
        record = bptt.forward([layer], np.ones((4, 3)))
        _, d_s, _ = bptt.eval_objective(
            ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE), record.output_membrane(), record.output_spikes(), 0
        )
        backward(record, OutputGrads(d_spikes=d_s))
    finally:
        tracer.uninstall()
    assert (bptt.eval_objective, objectives.eval_objective, surrogate.surrogate_grad, bptt.forward) == originals
    assert forward is originals[3]
    metrics = tracer.layer_metrics()
    assert metrics["bptt.SnnLayer.init.calls"] == 1
    assert metrics["bptt.forward.calls"] == 1
    assert metrics["objectives.eval_objective.calls"] == 1
    # imported inside backward at call time, once per step
    assert metrics["surrogate.surrogate_grad.calls"] == 4
    assert metrics["spikeprop.grad_success_ratio"] == 0.0
