"""spikegrad: trainable spiking neural networks in plain numpy.

Discrete-time leaky integrate-and-fire dynamics, spike encoders/decoders,
rate- and time-based objectives with activity regularizers, hand-derived
surrogate-gradient BPTT, temporally local (forward-mode) learning, a
continuous-time spike-time trainer, pair-based STDP, and a perturbation
baseline, plus a small CLI harness for desk-scale runs and gradient
verification.
"""

# each module's __all__ is its list of public names
from .neuron import *
from .surrogate import *
from .codec import *
from .objectives import *
from .bptt import *
from .online import *
from .spikeprop import *
from .plasticity import *
from .events import *
from .tasks import *

__version__ = "0.1.0"
