"""spikegrad: trainable spiking neural networks in plain numpy.

Discrete-time leaky integrate-and-fire dynamics, spike encoders/decoders,
rate- and time-based objectives with activity regularizers, hand-derived
surrogate-gradient BPTT, temporally local (forward-mode) learning, a
continuous-time spike-time trainer, pair-based STDP, and a perturbation
baseline, plus a small CLI harness for desk-scale runs and gradient
verification.
"""

from .neuron import (
    LifParams,
    LifState,
    ResetMode,
    SpikeRaster,
    beta_from_tau,
    lif_scan,
    lif_step,
)
from .surrogate import DEFAULT_SURROGATE, SurrogateKind, SurrogateVariant, surrogate_grad
from .codec import (
    ClampMode,
    DeltaParams,
    LatencyParams,
    Polarity,
    delta_encode,
    first_spike_steps,
    latency_decode,
    latency_encode,
    population_decode,
    rate_decode,
    rate_encode,
)
from .objectives import (
    Inversion,
    ObjectiveKind,
    ObjectiveSpec,
    RegularizerSpec,
    ce_spike_rate,
    ce_spike_time,
    eval_objective,
    max_membrane_ce,
    mse_membrane,
    mse_relative_spike_time,
    mse_spike_rate,
    mse_spike_time,
    regularize,
    sum_membrane_ce,
)
from .bptt import (
    Feedback,
    ForwardRecord,
    LayerGrads,
    OptimizerKind,
    OptimizerState,
    OutputGrads,
    SnnLayer,
    TrainHistory,
    backward,
    forward,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    train_bptt,
)
from .online import influence_step, online_grad, train_online
from .spikeprop import (
    DeadNeuronError,
    SrmNet,
    alpha_kernel,
    alpha_kernel_deriv,
    find_spike_time,
    spike_time_weight_grad,
    spikeprop_grad,
    srm_membrane,
    train_spikeprop,
)
from .plasticity import Pairing, StdpParams, perturbation_train, stdp_delta_w, stdp_update
from .events import EventFormatError, load_events, save_events
from .tasks import Dataset, gen_latency_task, gen_rate_task, load_event_dataset

__version__ = "0.1.0"
