"""Membrane dynamics of a leaky integrate-and-fire neuron.

Walks through decay, integration, the two reset mechanisms and the
adaptive threshold, printing the traces as small tables.
"""

import numpy as np

from spikegrad import LifParams, ResetMode, beta_from_tau, lif_scan

# A time constant of 5 steps gives the decay rate per step.
beta = beta_from_tau(tau=5.0)
print(f"tau = 5 steps  ->  beta = exp(-1/5) = {beta:.6f}\n")

# Drive the neuron with a burst of input current, then silence.
t_steps = 30
drive = np.zeros((t_steps, 1))
drive[2:12, 0] = 0.35

for mode in (ResetMode.SUBTRACT, ResetMode.ZERO, ResetMode.NONE):
    params = LifParams(beta=beta, theta0=1.0, reset_mode=mode)
    membrane, spikes, _ = lif_scan(params, drive)
    marks = "".join("|" if s else "." for s in spikes[:, 0])
    print(f"reset={mode.value:<8}  spikes: {marks}   total={int(spikes.sum())}")
    peak = membrane.max()
    print(f"{'':>16}  peak membrane {peak:.3f}\n")

# The adaptive threshold climbs after every spike and relaxes back,
# stretching the inter-spike interval under sustained drive.
steady = np.full((60, 1), 0.30)
plain = LifParams(beta=beta, theta0=1.0)
adapting = LifParams(beta=beta, theta0=1.0, adapt_alpha=0.9)
for name, params in (("fixed threshold", plain), ("adaptive threshold", adapting)):
    _, spikes, _ = lif_scan(params, steady)
    times = np.nonzero(spikes[:, 0])[0]
    gaps = np.diff(times)
    print(f"{name:<20} spike times {times.tolist()}")
    if gaps.size:
        print(f"{'':>20} inter-spike gaps {gaps.tolist()}")
print("\nWith adaptation the gaps stretch out: each spike raises the bar.")
