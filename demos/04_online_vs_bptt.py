"""Forward-mode (influence) gradients against backprop through time.

The influence recursion m[t] = beta*m[t-1] + x[t] carries each weight's
effect on the present membrane forward in time, so the gradient is ready
at every step without storing the past.  For one weight layer the summed
result is the BPTT gradient exactly; this script measures the agreement
and then trains the same stream both ways.
"""

import math

import numpy as np

from spikegrad import (
    LifParams,
    LifState,
    ObjectiveKind,
    ObjectiveSpec,
    OptimizerState,
    OutputGrads,
    SnnLayer,
    backward,
    forward,
    influence_step,
    lif_step,
    mse_membrane,
    online_grad,
    train_online,
)

rng = np.random.default_rng(0)
n_in, n_out, t_steps = 6, 3, 40
lif = LifParams(beta=0.85, theta0=0.8)
w0 = rng.normal(0, 0.5, size=(n_out, n_in))
x = (rng.random((t_steps, n_in)) < 0.4).astype(float)
y = rng.normal(size=(t_steps, n_out))  # per-step membrane targets

# Reverse mode: one backward sweep over the whole record.
layer = SnnLayer(w=w0.copy(), lif=lif)
record = forward([layer], x)
_, d_u = mse_membrane(record.output_membrane(), y)
bptt_grad = backward(record, OutputGrads(d_membrane=d_u))[0].d_w

# Forward mode: influence recursion, nothing stored beyond one step.
# The influence is a plain N_out x N_in array, m[i, j] = dU_i/dW_ij.
state = LifState.zeros(n_out)
infl = np.zeros((n_out, n_in))
online_total = np.zeros_like(w0)
for t in range(t_steps):
    state, _ = lif_step(state, lif, layer.w @ x[t])
    infl = influence_step(infl, lif.beta, x[t])
    cbar = -2.0 * (y[t] - state.u)        # instantaneous credit at the output
    online_total += online_grad(cbar, infl)

gap = np.max(np.abs(online_total - bptt_grad)) / np.max(np.abs(bptt_grad))
print(f"max relative gap between summed online gradient and BPTT: {gap:.2e}")
print("(same sum, two evaluation orders; agreement is machine-level)\n")

# Trained end to end, a deferred online update is one BPTT step.
for interval, label in (
    (math.inf, "deferred (update once at stream end)"),
    (1, "per-step (update every step)"),
):
    net = [SnnLayer(w=w0.copy(), lif=lif)]
    hist = train_online(
        net, zip(x, y), ObjectiveSpec(ObjectiveKind.MSE_MEMBRANE),
        interval=interval, optimizer=OptimizerState.sgd(1e-3),
    )
    print(f"{label}: {len(hist.rows)} update(s), mean step loss {hist.final_loss:.3f}")
