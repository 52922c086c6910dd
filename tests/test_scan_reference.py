"""The layer-major BPTT engine against the step-major loops it replaced.

``_reference_forward`` and ``_reference_backward`` are verbatim copies of
the earlier per-step engine: every layer advanced inside one time loop with
its own inline LIF update, and the spatial adjoint evaluated once per
step.  The current ``forward`` scans one layer at a time through
``neuron.lif_scan`` and ``backward`` computes the spatial adjoint once
after its time loop; both must reproduce the references bit for bit, not
merely to a tolerance.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from spikegrad.bptt import (
    Feedback,
    ForwardRecord,
    LayerGrads,
    OutputGrads,
    SnnLayer,
    _LayerTrace,
    backward,
    forward,
)
from spikegrad.neuron import LifParams, ResetMode, _as_matrix
from spikegrad.surrogate import SurrogateKind, sigmoid, surrogate_grad


def _reference_forward(model, inputs, relaxed_slope=None):
    x0 = _as_matrix(inputs)
    t_steps = x0.shape[0]

    traces = [
        _LayerTrace(
            u=np.zeros((t_steps, layer.n_out)),
            s=np.zeros((t_steps, layer.n_out)),
            x=np.zeros((t_steps, layer.n_in)),
            theta=np.zeros((t_steps, layer.n_out)),
        )
        for layer in model
    ]
    u = [np.zeros(layer.n_out) for layer in model]
    b = [np.zeros(layer.n_out) for layer in model]
    s_prev = [np.zeros(layer.n_out) for layer in model]

    for t in range(t_steps):
        x = x0[t]
        for l, layer in enumerate(model):
            lif = layer.lif
            current = layer.w @ x
            if layer.v is not None:
                current += layer.v @ s_prev[l]
            theta_eff = lif.theta0 + b[l]

            if lif.reset_mode is ResetMode.SUBTRACT:
                u_new = lif.beta * u[l] + current - s_prev[l] * theta_eff
            elif lif.reset_mode is ResetMode.ZERO:
                u_new = (lif.beta * u[l] + current) * (1.0 - s_prev[l])
            else:
                u_new = lif.beta * u[l] + current

            if relaxed_slope is None:
                s_new = (u_new > theta_eff).astype(np.float64)
            else:
                s_new = sigmoid(relaxed_slope * (u_new - theta_eff))

            if lif.adapt_alpha > 0.0:
                b[l] = lif.adapt_alpha * b[l] + (1.0 - lif.adapt_alpha) * s_new

            traces[l].u[t] = u_new
            traces[l].s[t] = s_new
            traces[l].x[t] = x
            traces[l].theta[t] = theta_eff
            u[l] = u_new
            s_prev[l] = s_new
            x = s_new

    return ForwardRecord(layers=list(model), traces=traces)


def _reference_backward(record, output_grads, surrogate, feedback, detach_reset, extra_spike_grads):
    layers = record.layers
    n_layers = len(layers)
    t_steps = record.traces[0].x.shape[0]

    results = [None] * n_layers
    downstream = None

    for l in range(n_layers - 1, -1, -1):
        layer = layers[l]
        tr = record.traces[l]
        lif = layer.lif
        zero_mode = lif.reset_mode is ResetMode.ZERO

        lam_s_direct = np.zeros_like(tr.s)
        if l == n_layers - 1:
            if output_grads.d_spikes is not None:
                d = np.asarray(output_grads.d_spikes, dtype=np.float64)
                lam_s_direct += d
        else:
            lam_s_direct += downstream
        if extra_spike_grads is not None and extra_spike_grads[l] is not None:
            lam_s_direct += np.asarray(extra_spike_grads[l], dtype=np.float64)

        d_membrane = None
        if l == n_layers - 1 and output_grads.d_membrane is not None:
            d_membrane = np.asarray(output_grads.d_membrane, dtype=np.float64)

        d_w = np.zeros_like(layer.w)
        d_v = np.zeros_like(layer.v) if layer.v is not None else None
        d_beta = 0.0 if lif.learn_beta else None
        d_x = np.zeros_like(tr.x)

        back_mat = layer.w.T if feedback is Feedback.SYMMETRIC else layer.feedback_b

        lam_u_next = np.zeros(layer.n_out)
        lam_i_next = np.zeros(layer.n_out)
        for t in range(t_steps - 1, -1, -1):
            lam_s = lam_s_direct[t].copy()
            if t < t_steps - 1:
                if layer.v is not None:
                    lam_s += layer.v.T @ lam_i_next
                if not detach_reset:
                    if lif.reset_mode is ResetMode.SUBTRACT:
                        lam_s += -tr.theta[t + 1] * lam_u_next
                    elif zero_mode:
                        pre_reset = lif.beta * tr.u[t] + (
                            layer.w @ tr.x[t + 1]
                            + (layer.v @ tr.s[t] if layer.v is not None else 0.0)
                        )
                        lam_s += -pre_reset * lam_u_next

            sur = surrogate_grad(surrogate, tr.u[t], tr.theta[t], tr.s[t])
            if zero_mode:
                temporal = lif.beta * (1.0 - tr.s[t]) * lam_u_next
            else:
                temporal = lif.beta * lam_u_next
            lam_u = sur * lam_s + temporal
            if d_membrane is not None:
                lam_u = lam_u + d_membrane[t]

            s_before = tr.s[t - 1] if t > 0 else np.zeros(layer.n_out)
            lam_i = lam_u * (1.0 - s_before) if zero_mode else lam_u

            d_w += np.outer(lam_i, tr.x[t])
            if d_v is not None and t > 0:
                d_v += np.outer(lam_i, tr.s[t - 1])
            if d_beta is not None and t > 0:
                carrier = lam_i if zero_mode else lam_u
                d_beta += float(carrier @ tr.u[t - 1])
            d_x[t] = back_mat @ lam_i

            lam_u_next = lam_u
            lam_i_next = lam_i

        results[l] = LayerGrads(d_w=d_w, d_v=d_v, d_beta=d_beta)
        downstream = d_x

    return results


# "adapt" turns on threshold adaptation; "attached" keeps the reset pathway
# in the adjoint (detach_reset=False); "relaxed" uses the sigmoid forward.
# Adaptation is excluded from the last two, which reject it.
VARIANTS = ("plain", "adapt", "attached", "relaxed")
CASES = list(
    itertools.product(ResetMode, (False, True), (Feedback.SYMMETRIC, Feedback.RANDOM_FIXED), VARIANTS)
)
IDS = [f"{r.value}-{'v' if rec else 'nov'}-{fb.value}-{var}" for r, rec, fb, var in CASES]

# Every case runs on the base 5-7-3 stack at T=16.  Extra inputs: every case
# with 1-wide layers, which change numpy's loop structure in the
# weight-sharing sums (a 1 x 1 dW or dV has a single output entry), and the
# plain variant at T=200, far more steps than any other case.
BASE = ((5, 7, 3), 16)
SHAPES = [(case, BASE) for case in CASES] + [
    (case, (sizes, 16)) for sizes in ((1, 1, 1), (5, 1, 3)) for case in CASES
] + [(case, ((5, 7, 3), 200)) for case in CASES if case[3] == "plain"]
SHAPE_IDS = [
    IDS[CASES.index(case)] + ("" if shape == BASE else f"-{'x'.join(map(str, shape[0]))}-T{shape[1]}")
    for case, shape in SHAPES
]


def _case_model(rng, reset, recurrent, variant, sizes, w_low):
    adapt = 0.4 if variant == "adapt" else 0.0
    model = []
    for l, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        lif = LifParams(
            beta=float(rng.uniform(0.6, 0.95)),
            theta0=float(rng.uniform(0.5, 1.2)),
            reset_mode=reset,
            adapt_alpha=adapt,
            learn_beta=True,
        )
        model.append(
            SnnLayer(
                w=rng.uniform(w_low, 1.5, size=(n_out, n_in)),
                lif=lif,
                v=rng.uniform(-0.5, 0.5, size=(n_out, n_out)) if recurrent else None,
                feedback_b=rng.uniform(-1.0, 1.0, size=(n_in, n_out)),
            )
        )
    return model


def _assert_engine_matches_reference(
    rng, reset, recurrent, feedback, variant, t_steps, sizes=(5, 7, 3), w_low=-1.0
):
    """Forward traces and every gradient of the engine equal the references bit for bit."""
    model = _case_model(rng, reset, recurrent, variant, sizes, w_low)
    x = (rng.random((t_steps, sizes[0])) < 0.5).astype(np.float64)
    slope = 4.0 if variant == "relaxed" else None

    record = forward(model, x, relaxed_slope=slope)
    ref_record = _reference_forward(model, x, relaxed_slope=slope)
    for tr, ref in zip(record.traces, ref_record.traces):
        for name in ("u", "s", "x", "theta"):
            assert np.array_equal(getattr(tr, name), getattr(ref, name)), name

    surrogate = SurrogateKind.sigmoid_exact(slope) if slope else SurrogateKind.fast_sigmoid(5.0)
    kwargs = dict(
        surrogate=surrogate,
        feedback=feedback,
        detach_reset=variant != "attached",
        extra_spike_grads=[rng.normal(size=(t_steps, sizes[1])), None],
    )
    out = OutputGrads(
        d_spikes=rng.normal(size=(t_steps, sizes[2])), d_membrane=rng.normal(size=(t_steps, sizes[2]))
    )
    grads = backward(record, out, **kwargs)
    ref_grads = _reference_backward(ref_record, out, **kwargs)
    for g, ref in zip(grads, ref_grads):
        assert np.array_equal(g.d_w, ref.d_w)
        assert g.d_beta == ref.d_beta
        if recurrent:
            assert np.array_equal(g.d_v, ref.d_v)
        else:
            assert g.d_v is None and ref.d_v is None
    return record


@pytest.mark.parametrize(
    "reset,recurrent,feedback,variant,sizes,t_steps",
    [(*case, *shape) for case, shape in SHAPES],
    ids=SHAPE_IDS,
)
def test_layer_major_engine_matches_step_major_reference(reset, recurrent, feedback, variant, sizes, t_steps):
    index = CASES.index((reset, recurrent, feedback, variant))
    rng = np.random.default_rng(index if (sizes, t_steps) == BASE else [index, *sizes, t_steps])
    # a 1-wide layer gets positive weights, so that it is not silent just
    # because its one weight was drawn negative
    w_low = 0.5 if min(sizes) == 1 else -1.0
    record = _assert_engine_matches_reference(
        rng, reset, recurrent, feedback, variant, t_steps, sizes, w_low
    )
    assert sum(float(tr.s.sum()) for tr in record.traces) > 0.0, "case fires no spike"


@pytest.mark.parametrize("t_steps", (1, 2))
@pytest.mark.parametrize("reset,recurrent,feedback,variant", CASES, ids=IDS)
def test_engine_matches_reference_at_short_lengths(reset, recurrent, feedback, variant, t_steps):
    # one and two steps exercise the edges of the adjoint recurrence: no
    # step t+1 at all, and step 0 with no step before it
    rng = np.random.default_rng([t_steps, CASES.index((reset, recurrent, feedback, variant))])
    _assert_engine_matches_reference(rng, reset, recurrent, feedback, variant, t_steps)
