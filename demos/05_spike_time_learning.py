"""Learning exact spike times in continuous time.

A spike-response neuron sums alpha-kernel responses to its input spikes;
the gradient is taken through the *time* of its first threshold crossing,
found in closed form.  The closed-form derivative is checked against a
finite difference, then a toy neuron is trained to fire at a target time.
"""

import numpy as np

from spikegrad import (
    SrmNet,
    alpha_kernel,
    find_spike_time,
    spike_time_weight_grad,
    train_spikeprop,
)

tau = 1.0
print(f"alpha kernel: peak value {float(alpha_kernel(tau, tau)):.1f} at t = tau,"
      f" {float(alpha_kernel(2 * tau, tau)):.4f} at t = 2 tau\n")

net = SrmNet(w=np.array([[1.2, 0.9]]), tau=tau, theta=1.0, t_end=8.0)
presyn = [[0.0], [0.4]]  # one spike per input

f0 = find_spike_time(net, presyn, 0)
print(f"first crossing at t = {f0:.6f}")

analytic = spike_time_weight_grad(net, presyn, 0)
eps = 1e-6
fd = np.empty(2)
for i in range(2):
    base = net.w[0, i]
    net.w[0, i] = base + eps
    f_plus = find_spike_time(net, presyn, 0)
    net.w[0, i] = base - eps
    f_minus = find_spike_time(net, presyn, 0)
    net.w[0, i] = base
    fd[i] = (f_plus - f_minus) / (2 * eps)
print(f"df/dW analytic      {analytic.round(6).tolist()}")
print(f"df/dW finite diff   {fd.round(6).tolist()}")
print("(raising a weight lifts the membrane, so the crossing moves earlier)\n")

target = f0 - 0.15
print(f"training the spike toward t = {target:.3f}:")
history = train_spikeprop(net, [(presyn, np.array([target]))], lr=0.5, epochs=40)
for epoch, loss in history.rows[::8]:
    print(f"  epoch {epoch:2d}  squared timing error {loss:.6f}")
print(f"final spike time {find_spike_time(net, presyn, 0):.6f} (target {target:.6f})")
