"""The flat-vector update path against the list-of-arrays path it replaced.

``_collect_params``, ``_collect_grads``, ``_assign_params``, ``_non_finite``,
``optimizer_step``, ``train_bptt`` and ``perturbation_train`` below are
verbatim copies of the earlier update path.  It rebuilt a list of the
trained arrays on every update, stepped each array on its own, kept Adam's
moments keyed by list position in ``SlotOptimizerState.slots``, and drew
one perturbation per array.  ``spikegrad`` now trains one flat parameter
vector in place and must reproduce the reference bit for bit: equal bytes
(``.tobytes()``, so the sign of a zero counts) and ``==`` history rows.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from spikegrad import bptt, plasticity
from spikegrad.bptt import (
    EpochStats,
    Feedback,
    LayerGrads,
    OptimizerKind,
    OptimizerState,
    SnnLayer,
    TrainHistory,
    _accuracy,
    _sample_pass,
    _trained,
)
from spikegrad.neuron import LifParams
from spikegrad.objectives import ObjectiveKind, ObjectiveSpec, RegularizerSpec
from spikegrad.plasticity import PerturbationHistory, _dataset_loss
from spikegrad.surrogate import DEFAULT_SURROGATE, SurrogateKind
from spikegrad.tasks import _samples


@dataclass
class SlotOptimizerState(OptimizerState):
    """An optimizer state with the earlier Adam slots, keyed by list position."""

    slots: dict = field(default_factory=dict)


def _collect_params(model: list[SnnLayer]) -> list[np.ndarray]:
    return [np.asarray(getattr(layer.lif if n == "beta" else layer, n)) for layer in model for n in _trained(layer)]


def _collect_grads(model: list[SnnLayer], layer_grads: list[LayerGrads]) -> list[np.ndarray]:
    return [np.asarray(getattr(lg, "d_" + n)) for layer, lg in zip(model, layer_grads) for n in _trained(layer)]


def _assign_params(model: list[SnnLayer], params: list[np.ndarray]) -> None:
    it = iter(params)
    for layer in model:
        for name in _trained(layer):
            if name == "beta":
                # beta > 1 puts the temporal gradient in the exploding regime
                beta = float(np.clip(next(it), 1e-9, 1.0))
                layer.lif = dataclasses.replace(layer.lif, beta=beta)
            else:
                setattr(layer, name, next(it))


def _non_finite(model: list[SnnLayer], loss: float, layer_grads: list[LayerGrads]) -> str | None:
    """Name the first NaN or inf among the loss and the trained parameters' gradients, if any."""
    if not np.isfinite(loss):
        return f"loss {loss}"
    for l, (layer, lg) in enumerate(zip(model, layer_grads)):
        for name in _trained(layer):
            if not np.isfinite(getattr(lg, "d_" + name)).all():
                return f"gradient of layer {l} parameter {name}"
    return None


def optimizer_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: OptimizerState
) -> list[np.ndarray]:
    """One update over a flat list of parameter arrays; returns new arrays.

    ``state`` is mutated in place (step counter and Adam moments, keyed by
    position in the list, which must stay stable across calls).
    """
    if len(params) != len(grads):
        raise ValueError(f"{len(params)} params but {len(grads)} grads")
    state.step_count += 1
    out = []
    for idx, (p, g) in enumerate(zip(params, grads)):
        p = np.asarray(p, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        if p.shape != g.shape:
            raise ValueError(f"param {idx}: shape {p.shape} != grad shape {g.shape}")
        if state.kind is OptimizerKind.SGD:
            out.append(p - state.lr * g)
            continue
        m, v = state.slots.get(idx, (np.zeros_like(p), np.zeros_like(p)))
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.slots[idx] = (m, v)
        m_hat = m / (1.0 - state.beta1**state.step_count)
        v_hat = v / (1.0 - state.beta2**state.step_count)
        out.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return out


def train_bptt(
    model: list[SnnLayer],
    dataset,
    objective: ObjectiveSpec,
    reg: RegularizerSpec | None = None,
    surrogate: SurrogateKind = DEFAULT_SURROGATE,
    feedback: Feedback = Feedback.SYMMETRIC,
    optimizer: OptimizerState | None = None,
    epochs: int = 1,
    seed: int = 0,
    batch_size: int = 32,
    detach_reset: bool = True,
    threads: int = 1,
) -> TrainHistory:
    """Mini-batch surrogate-gradient training of the layer stack in place.

    Deterministic for a given seed: sample order, and therefore every
    update, is reproduced exactly, byte for byte.  Batch gradients are
    averaged, reduced in sample order.  ``threads`` is accepted for
    compatibility and ignored: training always runs in the calling thread.
    A non-finite loss or gradient raises ValueError before the optimizer
    step, naming the epoch, batch, sample, layer and parameter (0-based).
    """
    samples = _samples(dataset)
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if optimizer is None:
        optimizer = OptimizerState.adam(lr=1e-3)
    rng = np.random.default_rng(seed)

    history = TrainHistory()
    for epoch in range(epochs):
        order = rng.permutation(len(samples))
        epoch_loss = 0.0
        preds = []
        total_spikes = 0.0
        for start in range(0, len(order), batch_size):
            batch = [samples[i] for i in order[start : start + batch_size]]
            acc_grads = None
            for pos, sample in enumerate(batch, start):
                loss, grads, pred, spikes = _sample_pass(
                    model, sample, objective, reg, surrogate, feedback, detach_reset
                )
                bad = _non_finite(model, loss, grads)
                if bad is not None:
                    raise ValueError(
                        f"non-finite {bad} at epoch {epoch}, batch {start // batch_size}, "
                        f"sample {pos} of the epoch (dataset index {order[pos]})"
                    )
                epoch_loss += loss
                total_spikes += spikes
                if acc_grads is None:
                    acc_grads = _collect_grads(model, grads)
                else:
                    for a, g in zip(acc_grads, _collect_grads(model, grads)):
                        a += g
                preds.append(pred)
            scale = 1.0 / len(batch)
            acc_grads = [g * scale for g in acc_grads]
            new_params = optimizer_step(_collect_params(model), acc_grads, optimizer)
            _assign_params(model, new_params)

        history.rows.append(
            EpochStats(
                epoch=epoch,
                loss=epoch_loss / len(samples),
                accuracy=_accuracy(preds, (samples[i][1] for i in order)),
                total_spikes=total_spikes,
            )
        )
    return history


def perturbation_train(
    model: list[SnnLayer],
    dataset,
    sigma: float,
    trials: int,
    objective: ObjectiveSpec,
    seed: int = 0,
) -> PerturbationHistory:
    """Accept/reject random Gaussian parameter perturbations, in place.

    Each trial perturbs every trained parameter at once by N(0, sigma) (w,
    plus v when set and beta when learned, beta clipped to [1e-9, 1] as in
    BPTT), keeps the perturbation if the dataset loss strictly decreased,
    and reverts otherwise.  The recorded loss is therefore non-increasing
    (and constant in the degenerate sigma = 0 case).  A non-finite dataset
    loss raises ValueError naming the trial, with the parameters of the last
    accepted trial.
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    samples = _samples(dataset)
    rng = np.random.default_rng(seed)
    best = _dataset_loss(model, samples, objective)
    if not math.isfinite(best):
        raise ValueError(f"non-finite loss {best} before trial 0")
    history = PerturbationHistory()
    for trial in range(trials):
        saved = _collect_params(model)
        _assign_params(model, [p + rng.normal(0.0, sigma, size=p.shape) for p in saved])
        candidate = _dataset_loss(model, samples, objective)
        if candidate < best:
            best = candidate
            history.rows.append((trial, best, True))
        else:
            # restore the saved arrays: subtracting the noise again is not
            # bit-exact, and the kept model must be the one that scored best
            _assign_params(model, saved)
            if not math.isfinite(candidate):
                raise ValueError(f"non-finite loss {candidate} at trial {trial}")
            history.rows.append((trial, best, False))
    return history


def _problem(seed: int, beta0: float) -> tuple[list[SnnLayer], list]:
    """A recurrent first layer with a learned beta over a random-feedback output layer, and 7 samples."""
    rng = np.random.default_rng(seed)
    model = [
        SnnLayer(
            w=rng.normal(0.3, 0.6, size=(6, 4)),
            lif=LifParams(beta=beta0, theta0=0.8, learn_beta=True),
            v=rng.normal(0.0, 0.3, size=(6, 6)),
        ),
        SnnLayer(
            w=rng.normal(0.2, 0.6, size=(3, 6)),
            lif=LifParams(beta=0.85, theta0=0.8),
            feedback_b=rng.normal(0.0, 0.5, size=(6, 3)),
        ),
    ]
    data = [((rng.random((12, 4)) < 0.5).astype(np.float64), int(rng.integers(0, 3))) for _ in range(7)]
    return model, data


def _assert_same_bytes(new_model: list[SnnLayer], ref_model: list[SnnLayer]) -> None:
    for l, (a, b) in enumerate(zip(new_model, ref_model)):
        assert a.w.tobytes() == b.w.tobytes(), f"layer {l} w"
        assert (a.v is None and b.v is None) or a.v.tobytes() == b.v.tobytes(), f"layer {l} v"
        assert np.float64(a.lif.beta).tobytes() == np.float64(b.lif.beta).tobytes(), f"layer {l} beta"
        assert a.lif == b.lif, f"layer {l} lif"


@pytest.mark.parametrize("kind", list(OptimizerKind), ids=lambda k: k.value)
def test_train_bptt_matches_the_list_path(kind):
    # batch 3 over 7 samples leaves a partial last batch in every epoch
    (ref_model, data), (new_model, _) = _problem(0, 0.9), _problem(0, 0.9)
    ref_opt, new_opt = SlotOptimizerState(kind, lr=0.05), OptimizerState(kind, lr=0.05)
    objective = ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE)
    kwargs = dict(feedback=Feedback.RANDOM_FIXED, epochs=3, seed=4, batch_size=3)
    ref = train_bptt(ref_model, data, objective, optimizer=ref_opt, **kwargs)
    new = bptt.train_bptt(new_model, data, objective, optimizer=new_opt, **kwargs)
    assert new.rows == ref.rows
    assert all(row.total_spikes > 0 for row in new.rows)
    _assert_same_bytes(new_model, ref_model)
    assert new_model[0].lif.beta != 0.9, "beta was not trained"
    assert new_opt.step_count == ref_opt.step_count == 9
    if kind is OptimizerKind.ADAM:
        for moment, k in zip(new_opt.moments, (0, 1)):
            slots = np.concatenate([np.ravel(pair[k]) for _, pair in sorted(ref_opt.slots.items())])
            assert moment.tobytes() == slots.tobytes()


def test_perturbation_train_matches_the_list_path(monkeypatch):
    # beta starts near 1, so some trials push it past 1 and the clip holds it there
    (ref_model, data), (new_model, _) = _problem(1, 0.99), _problem(1, 0.99)
    objective = ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE)
    ref = perturbation_train(ref_model, data, sigma=0.05, trials=40, objective=objective, seed=2)
    betas = []

    def scored(model, samples, objective):
        betas.append(model[0].lif.beta)
        return _dataset_loss(model, samples, objective)

    monkeypatch.setattr(plasticity, "_dataset_loss", scored)
    new = plasticity.perturbation_train(new_model, data, sigma=0.05, trials=40, objective=objective, seed=2)
    assert new.rows == ref.rows
    assert {accepted for _, _, accepted in new.rows} == {True, False}
    assert 1.0 in betas, "no trial hit the beta clip"
    _assert_same_bytes(new_model, ref_model)
