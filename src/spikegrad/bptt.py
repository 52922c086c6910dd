"""Multi-layer spiking networks and backpropagation through time.

The forward pass rolls stacked LIF layers over the input raster and records
everything the backward pass needs (membrane, spikes and the input raster
of every layer).  The backward pass is a hand-derived adjoint of the
unrolled graph: the hard spike derivative is replaced by a chosen
surrogate, the reset pathway is detached by default (cloning the surrogate
into the reset is known to hurt), and the spatial adjoint into earlier
layers can use either the transposed forward weights or a fixed random
feedback matrix.

A test-only "relaxed" forward replaces the hard threshold with a sigmoid
of a given slope; with the matching exact-derivative surrogate the adjoint
then agrees with finite differences to machine-level precision, which is
how the engine is verified.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field

import numpy as np

from .neuron import LifParams, ResetMode, SpikeRaster, _as_matrix, lif_scan
from .objectives import ObjectiveSpec, RegularizerSpec, eval_objective, predict_class, regularize
from .surrogate import DEFAULT_SURROGATE, SurrogateKind
from .tasks import _samples

__all__ = [
    "Feedback",
    "SnnLayer",
    "ForwardRecord",
    "OutputGrads",
    "LayerGrads",
    "forward",
    "backward",
    "OptimizerKind",
    "OptimizerState",
    "optimizer_step",
    "EpochStats",
    "TrainHistory",
    "train_bptt",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
]


class Feedback(enum.Enum):
    """How the spatial adjoint reaches earlier layers."""

    SYMMETRIC = "symmetric"
    RANDOM_FIXED = "random_fixed"


@dataclass
class SnnLayer:
    """One weight layer feeding a population of LIF neurons.

    w           N_out x N_in forward weights (every matrix here must be finite)
    v           optional N_out x N_out explicit-recurrence weights
    lif         neuron constants for this layer
    feedback_b  optional fixed random backward matrix (shape of w.T); used
                only by RANDOM_FIXED feedback and never updated by training
    """

    w: np.ndarray
    lif: LifParams
    v: np.ndarray | None = None
    feedback_b: np.ndarray | None = None

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.ndim != 2:
            raise ValueError(f"w must be 2-D, got shape {self.w.shape}")
        if self.v is not None:
            self.v = np.asarray(self.v, dtype=np.float64)
            n_out = self.w.shape[0]
            if self.v.shape != (n_out, n_out):
                raise ValueError(f"v must be {n_out} x {n_out}, got {self.v.shape}")
        if self.feedback_b is not None:
            self.feedback_b = np.asarray(self.feedback_b, dtype=np.float64)
            if self.feedback_b.shape != self.w.T.shape:
                raise ValueError(
                    f"feedback_b must have shape {self.w.T.shape}, got {self.feedback_b.shape}"
                )
        for name in ("w", "v", "feedback_b"):
            a = getattr(self, name)
            bad = np.argwhere(~np.isfinite(a)) if a is not None else []
            if len(bad):
                j, i = bad[0]
                raise ValueError(f"{name}[{j}, {i}] is {a[j, i]}; weights must be finite")

    @property
    def n_out(self) -> int:
        return self.w.shape[0]

    @property
    def n_in(self) -> int:
        return self.w.shape[1]

    @classmethod
    def init(
        cls,
        n_in: int,
        n_out: int,
        lif: LifParams,
        rng: np.random.Generator,
        recurrent: bool = False,
        random_feedback: bool = False,
    ) -> "SnnLayer":
        """Fan-in uniform init, +-1/sqrt(N_in) for w (and v when recurrent)."""
        bound = 1.0 / np.sqrt(n_in)
        w = rng.uniform(-bound, bound, size=(n_out, n_in))
        v = rng.uniform(-bound, bound, size=(n_out, n_out)) if recurrent else None
        b = rng.uniform(-bound, bound, size=(n_in, n_out)) if random_feedback else None
        return cls(w=w, lif=lif, v=v, feedback_b=b)


@dataclass
class _LayerTrace:
    u: np.ndarray        # T x N_out membrane, value used in the threshold test
    s: np.ndarray        # T x N_out spikes (continuous in relaxed mode)
    x: np.ndarray        # T x N_in input raster of this layer
    theta: np.ndarray    # T x N_out effective threshold at each step


@dataclass
class ForwardRecord:
    """Everything the backward pass needs from one rollout."""

    layers: list[SnnLayer]
    traces: list[_LayerTrace]

    def output_spikes(self) -> np.ndarray:
        return self.traces[-1].s

    def output_membrane(self) -> np.ndarray:
        return self.traces[-1].u


@dataclass(frozen=True)
class OutputGrads:
    """Loss gradients w.r.t. the output layer's traces (either may be None)."""

    d_spikes: np.ndarray | None = None
    d_membrane: np.ndarray | None = None


def forward(model: list[SnnLayer], inputs, relaxed_slope: float | None = None) -> ForwardRecord:
    """Roll the layer stack over a spike raster (or real current matrix).

    Layer l's input at step t is layer l-1's spike output of the same step,
    so each layer is scanned over all steps before the next one starts.
    With ``relaxed_slope`` set, the hard threshold is replaced by
    sigmoid(slope * (u - theta)) and the recorded spikes are continuous;
    this test-only mode requires adaptation to be off.
    """
    x0 = _as_matrix(inputs)
    n_prev = x0.shape[1]
    for l, layer in enumerate(model):
        if layer.n_in != n_prev:
            raise ValueError(
                f"layer {l} expects {layer.n_in} inputs but receives {n_prev}"
            )
        if relaxed_slope is not None and layer.lif.adapt_alpha > 0.0:
            raise ValueError("relaxed mode does not model threshold adaptation")
        n_prev = layer.n_out

    traces = []
    x = x0.copy()
    for layer in model:
        # stacked matvec: bit-identical to layer.w @ x[t] at every step
        wx = np.matmul(layer.w, x[:, :, None])[:, :, 0]
        u, s, theta = lif_scan(layer.lif, wx, layer.v, relaxed_slope)
        traces.append(_LayerTrace(u=u, s=s, x=x, theta=theta))
        x = s

    return ForwardRecord(layers=list(model), traces=traces)


@dataclass
class LayerGrads:
    d_w: np.ndarray
    d_v: np.ndarray | None = None
    d_beta: float | None = None


def _previous_step(trace: np.ndarray) -> np.ndarray:
    """Row t holds trace[t-1]; row 0 is zero (the state before the first step)."""
    return np.concatenate((np.zeros_like(trace[:1]), trace[:-1]))


def _per_step(grad, shape: tuple[int, int], name: str) -> np.ndarray | None:
    """A T x N gradient, or an N-vector applied at every step, as a read-only T x N view."""
    if grad is None:
        return None
    g = np.asarray(grad, dtype=np.float64)
    if g.shape not in (shape, shape[1:]):
        raise ValueError(f"{name} shape {g.shape} is neither {shape} nor {shape[1:]}")
    return np.broadcast_to(g, shape)


def backward(
    record: ForwardRecord,
    output_grads: OutputGrads,
    surrogate: SurrogateKind = DEFAULT_SURROGATE,
    feedback: Feedback = Feedback.SYMMETRIC,
    detach_reset: bool = True,
    extra_spike_grads: list[np.ndarray | None] | None = None,
) -> list[LayerGrads]:
    """Adjoint of the unrolled graph recorded by :func:`forward`.

    Walks layers from the output back.  Per layer, the time loop runs only
    the adjoint recurrence from T-1 back: the input-current adjoint lam_I
    and the membrane adjoint
    lam_U[t] = d_direct[t] + surrogate * lam_S[t] + (dU[t+1]/dU[t]) * lam_U[t+1],
    where lam_S collects the direct spike gradient, the next layer's spatial
    adjoint, the explicit-recurrence pathway and (unless detached) the reset
    pathway.  The spike-to-threshold adaptation path is always cut, so
    ``detach_reset=False`` refuses an adapting layer.  The weight-sharing
    sums dW = sum_t lam_I[t] x[t]^T, dV and d_beta then add the steps from
    T-1 down onto 0.0 one at a time, bit for bit as a running total would:
    dW and dV as one einsum over the reversed views, d_beta as
    np.add.accumulate.  Measured with numpy 2.4.6, the one exception is a
    1 x 1 layer at T > 8,192: numpy reduces a single output entry in
    8,192-step buffers, so that dW differs at rounding level.

    ``extra_spike_grads`` holds one more spike gradient (or None) per layer,
    for the activity regularizers.  Each, like ``d_spikes`` and ``d_membrane``,
    is T x N or an N-vector applied at every step; other shapes raise.
    """
    from .surrogate import surrogate_grad

    layers = record.layers
    n_layers = len(layers)
    t_steps = record.traces[0].x.shape[0]

    if feedback is Feedback.RANDOM_FIXED:
        for l in range(1, n_layers):
            if layers[l].feedback_b is None:
                raise ValueError(
                    f"random-fixed feedback requires feedback_b on layer {l}"
                )
    if not detach_reset:
        for l, layer in enumerate(layers):
            if layer.lif.adapt_alpha > 0.0:
                raise ValueError(
                    f"detach_reset=False does not model threshold adaptation, the s[t] -> theta[t+1] path (layer {l})"
                )

    out_shape = record.traces[-1].s.shape
    # dL/d(spikes) from above, T x N: the output's loss gradient, then each layer's adjoint
    downstream = _per_step(output_grads.d_spikes, out_shape, "d_spikes")
    d_membrane = _per_step(output_grads.d_membrane, out_shape, "d_membrane")
    extras = [None] * n_layers if extra_spike_grads is None else list(extra_spike_grads)
    if len(extras) != n_layers:
        raise ValueError(f"{len(extras)} extra spike gradients for {n_layers} layers")
    for l, tr in enumerate(record.traces):
        extras[l] = _per_step(extras[l], tr.s.shape, f"extra spike gradient of layer {l}")
    results: list[LayerGrads | None] = [None] * n_layers

    for l in range(n_layers - 1, -1, -1):
        layer = layers[l]
        tr = record.traces[l]
        lif = layer.lif
        zero_mode = lif.reset_mode is ResetMode.ZERO

        lam_s_direct = np.zeros_like(tr.s)
        if downstream is not None:
            lam_s_direct += downstream
        if extras[l] is not None:
            lam_s_direct += extras[l]
        d_direct = d_membrane if l == n_layers - 1 else None

        s_before = _previous_step(tr.s)
        # dU[t+1]/dU[t]: beta, gated by the zero reset after a spike at t
        decay = lif.beta * (1.0 - tr.s) if zero_mode else np.full_like(tr.u, lif.beta)
        # reset pathway: dU[t+1]/dS[t], one row per step t < T-1
        reset_gain = None
        if not detach_reset and lif.reset_mode is ResetMode.SUBTRACT:
            reset_gain = -tr.theta[1:]
        elif not detach_reset and zero_mode:
            # pre-reset membrane of step t+1; the stacked matvecs are
            # bit-identical to layer.w @ x[t+1] and layer.v @ s[t]
            wx = np.matmul(layer.w, tr.x[1:, :, None])[:, :, 0]
            vs = np.matmul(layer.v, tr.s[:-1, :, None])[:, :, 0] if layer.v is not None else 0.0
            reset_gain = -(lif.beta * tr.u[:-1] + (wx + vs))

        lam_i = np.empty_like(tr.s)
        lam_u_next = np.zeros(layer.n_out)
        for t in range(t_steps - 1, -1, -1):
            lam_s = lam_s_direct[t]  # a row of this layer's own buffer
            if t < t_steps - 1:
                if layer.v is not None:
                    lam_s += layer.v.T @ lam_i[t + 1]
                if reset_gain is not None:
                    lam_s += reset_gain[t] * lam_u_next

            sur = surrogate_grad(surrogate, tr.u[t], tr.theta[t], tr.s[t])
            lam_u = sur * lam_s + decay[t] * lam_u_next
            if d_direct is not None:
                lam_u = lam_u + d_direct[t]
            lam_i[t] = lam_u * (1.0 - s_before[t]) if zero_mode else lam_u
            lam_u_next = lam_u

        grads = LayerGrads(np.einsum("ti,tj->ij", lam_i[::-1], tr.x[::-1]))
        if layer.v is not None:
            grads.d_v = np.einsum("ti,tj->ij", lam_i[::-1], s_before[::-1])
        if lif.learn_beta:
            # lam_I is d_beta's carrier (lam_U without a zero reset); + 0.0 makes -0.0 sums +0.0
            dots = np.matmul(lam_i[:, None, :], _previous_step(tr.u)[:, :, None])[:, 0, 0]
            grads.d_beta = float(np.add.accumulate(dots[::-1])[-1] + 0.0)
        results[l] = grads
        if l > 0:
            back_mat = layer.w.T if feedback is Feedback.SYMMETRIC else layer.feedback_b
            # stacked matvec: bit-identical to back_mat @ lam_i[t] at every step
            downstream = np.matmul(back_mat, lam_i[:, :, None])[:, :, 0]

    return results  # type: ignore[return-value]


class OptimizerKind(enum.Enum):
    SGD = "sgd"
    ADAM = "adam"


@dataclass
class OptimizerState:
    """Optimizer choice and running state: the step count, and Adam's two moment vectors,
    None until the first Adam step and as long as the parameter vector (not in ``==`` or ``repr``)."""

    kind: OptimizerKind
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    moments: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.lr < np.inf:
            raise ValueError(f"lr must be finite and non-negative, got {self.lr}")
        if not 0.0 <= self.eps < np.inf:
            raise ValueError(f"eps must be finite and non-negative, got {self.eps}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("Adam betas must lie in [0, 1)")

    @classmethod
    def sgd(cls, lr: float) -> "OptimizerState":
        return cls(kind=OptimizerKind.SGD, lr=lr)

    @classmethod
    def adam(
        cls, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
    ) -> "OptimizerState":
        return cls(kind=OptimizerKind.ADAM, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def optimizer_step(params: np.ndarray, grads: np.ndarray, state: OptimizerState) -> None:
    """One SGD or Adam step on a float64 parameter vector, in place; ``state`` counts it.
    ``grads`` or Adam's moments of another length raise ValueError and change nothing."""
    if grads.shape != params.shape:
        raise ValueError(f"params of shape {params.shape} but grads of shape {grads.shape}")
    if state.moments is not None and state.moments[0].size != params.size:
        raise ValueError(f"Adam moments of length {state.moments[0].size} for {params.size} params")
    state.step_count += 1
    if state.kind is OptimizerKind.SGD:
        params -= state.lr * grads
        return
    if state.moments is None:
        state.moments = (np.zeros_like(params), np.zeros_like(params))
    m, v = state.moments
    m[:] = state.beta1 * m + (1.0 - state.beta1) * grads
    v[:] = state.beta2 * v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1**state.step_count)
    v_hat = v / (1.0 - state.beta2**state.step_count)
    params -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    accuracy: float
    total_spikes: float


@dataclass
class TrainHistory:
    rows: list[EpochStats] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("epoch,loss,accuracy,total_spikes\n")
            for r in self.rows:
                fh.write(f"{r.epoch},{r.loss!r},{r.accuracy!r},{r.total_spikes!r}\n")


def _trained(layer: SnnLayer) -> tuple[str, ...]:
    """The parameters training updates, in optimizer order: w, v when set, beta when learned."""
    return ("w",) + ("v",) * (layer.v is not None) + ("beta",) * layer.lif.learn_beta


def _w_only(model: list[SnnLayer], trainer: str) -> None:
    """Refuse a model with a trained parameter besides w, naming the layer and the parameter."""
    for l, layer in enumerate(model):
        extra = " and ".join(_trained(layer)[1:])
        if extra:
            raise ValueError(f"{trainer} trains w only, but layer {l} also trains {extra}")


class _FlatParams:
    """A model's trained parameters, copied once into one float64 vector ``vec`` in ``_trained`` order.

    Each layer's ``w`` and ``v`` become views into ``vec``; arrays taken from a layer before keep their values.
    """

    def __init__(self, model: list[SnnLayer]):
        self.names = [(l, name) for l, layer in enumerate(model) for name in _trained(layer)]
        values = [np.asarray(getattr(model[l].lif if n == "beta" else model[l], n)) for l, n in self.names]
        self.shapes = [value.shape for value in values]
        self.stops = np.cumsum([value.size for value in values])
        self.vec = np.concatenate([value.ravel() for value in values], dtype=np.float64)
        self.betas = [(model[l], stop - 1) for (l, name), stop in zip(self.names, self.stops) if name == "beta"]
        for (l, name), view in zip(self.names, self.views(self.vec)):
            if name != "beta":
                setattr(model[l], name, view)

    def views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Per trained parameter, its slice of ``vec`` in its shape."""
        return [part.reshape(shape) for part, shape in zip(np.split(vec, self.stops[:-1]), self.shapes)]

    def gather(self, layer_grads: list[LayerGrads]) -> np.ndarray:
        """The trained parameters' gradients as one new vector in the layout of ``vec``."""
        return np.concatenate([np.ravel(getattr(layer_grads[l], "d_" + name)) for l, name in self.names])

    def sync(self) -> None:
        """Clip each learned beta in ``vec`` to [1e-9, 1] and write it into its layer's frozen ``LifParams``."""
        for layer, k in self.betas:
            # beta > 1 puts the temporal gradient in the exploding regime
            beta = self.vec[k] = np.clip(self.vec[k], 1e-9, 1.0)
            layer.lif = dataclasses.replace(layer.lif, beta=float(beta))

    def non_finite(self, loss: float, grad: np.ndarray) -> str | None:
        """Name a non-finite loss, else the parameter of ``grad``'s first NaN or inf entry, if any."""
        if not np.isfinite(loss):
            return f"loss {loss}"
        bad = np.flatnonzero(~np.isfinite(grad))
        if bad.size == 0:
            return None
        l, name = self.names[np.searchsorted(self.stops, bad[0], side="right")]
        return f"gradient of layer {l} parameter {name}"


def _accuracy(preds, targets) -> float:
    """Share of samples with an integer class label predicted right; nan if none has one."""
    hits = [pred == int(t) for pred, t in zip(preds, targets) if isinstance(t, (int, np.integer))]
    return sum(hits) / len(hits) if hits else float("nan")


def _sample_pass(model, sample, objective, reg, surrogate, feedback, detach_reset):
    """Forward + loss + backward for one sample; returns everything the loop reduces."""
    x, target = sample
    record = forward(model, x)
    loss, d_s, d_u = eval_objective(
        objective, record.output_membrane(), record.output_spikes(), target
    )
    extra = None
    if reg is not None and reg.active:
        penalty, extra = regularize([tr.s.sum(axis=0) for tr in record.traces], reg)
        loss += penalty
    grads = backward(
        record,
        OutputGrads(d_spikes=d_s, d_membrane=d_u),
        surrogate=surrogate,
        feedback=feedback,
        detach_reset=detach_reset,
        extra_spike_grads=extra,
    )
    pred = predict_class(objective, record.output_spikes())
    spikes = sum(float(tr.s.sum()) for tr in record.traces)
    return loss, grads, pred, spikes


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
    params = _FlatParams(model)

    history = TrainHistory()
    for epoch in range(epochs):
        order = rng.permutation(len(samples))
        epoch_loss = 0.0
        preds = []
        total_spikes = 0.0
        for start in range(0, len(order), batch_size):
            batch = [samples[i] for i in order[start : start + batch_size]]
            acc = None
            for pos, sample in enumerate(batch, start):
                loss, grads, pred, spikes = _sample_pass(
                    model, sample, objective, reg, surrogate, feedback, detach_reset
                )
                grad = params.gather(grads)
                bad = params.non_finite(loss, grad)
                if bad is not None:
                    raise ValueError(
                        f"non-finite {bad} at epoch {epoch}, batch {start // batch_size}, "
                        f"sample {pos} of the epoch (dataset index {order[pos]})"
                    )
                epoch_loss += loss
                total_spikes += spikes
                # the first sample's gradient starts the sum, as 0.0 + -0.0 would be +0.0
                acc = grad if acc is None else acc + grad
                preds.append(pred)
            acc *= 1.0 / len(batch)
            optimizer_step(params.vec, acc, optimizer)
            params.sync()

        history.rows.append(
            EpochStats(
                epoch=epoch,
                loss=epoch_loss / len(samples),
                accuracy=_accuracy(preds, (samples[i][1] for i in order)),
                total_spikes=total_spikes,
            )
        )
    return history


CHECKPOINT_MAGIC = "spikegrad-v1"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def save_checkpoint(model: list[SnnLayer], path) -> None:
    """Versioned flat-text model dump; floats carry 17 significant digits.

    Per layer: a header line, the LIF constants, then w values row-major
    one per line, then v values (row-major) when explicit recurrence is
    present.  A layer with feedback_b adds a fifth header field ``1`` and
    its N_in x N_out values row-major last; without it the layer's bytes
    are those of earlier versions.  Round-trips bit-exactly at 64-bit.
    """
    lines = [CHECKPOINT_MAGIC]
    for idx, layer in enumerate(model):
        has_v = 1 if layer.v is not None else 0
        b_field = "" if layer.feedback_b is None else " 1"
        lines.append(f"layer {idx} {layer.n_out} {layer.n_in} {has_v}{b_field}")
        lif = layer.lif
        lines.append(
            "lif "
            f"{_fmt(lif.beta)} {_fmt(lif.theta0)} {lif.reset_mode.value} "
            f"{_fmt(lif.adapt_alpha)} {1 if lif.learn_beta else 0}"
        )
        lines.extend(_fmt(x) for x in layer.w.ravel())
        for extra in (layer.v, layer.feedback_b):
            if extra is not None:
                lines.extend(_fmt(x) for x in extra.ravel())
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"flags must be 0 or 1, got {text!r}")
    return text == "1"


def _fields(line: str, keyword: str, n: int, optional: int = 0) -> list[str]:
    parts = line.split()
    if not n < len(parts) <= n + 1 + optional or parts[0] != keyword:
        raise ValueError(f"expected a {keyword} line of {n} fields, got {line!r}")
    return parts[1:]


def load_checkpoint(path) -> list[SnnLayer]:
    """Read a :func:`save_checkpoint` file; a malformed line raises ValueError naming path:line."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    model: list[SnnLayer] = []
    pos = 1
    try:
        while pos < len(lines):
            if lines[pos] == "":
                pos += 1
                continue
            idx, n_out, n_in, has_v, *has_b = _fields(lines[pos], "layer", 4, optional=1)
            n_out, n_in, has_v, has_b = int(n_out), int(n_in), _flag(has_v), any(map(_flag, has_b))
            if int(idx) != len(model) or min(n_out, n_in) < 1:
                raise ValueError(f"expected layer {len(model)} with sizes of at least 1, got {lines[pos]!r}")
            pos += 1
            beta, theta0, reset, alpha, learn = _fields(lines[pos] if pos < len(lines) else "", "lif", 5)
            lif = LifParams(float(beta), float(theta0), ResetMode(reset), float(alpha), _flag(learn))
            pos += 1
            n_w, n_v = n_out * n_in, n_out * n_out * has_v
            flat = np.empty(n_w * (1 + has_b) + n_v)
            if pos + flat.size > len(lines):
                raise ValueError("truncated weight block")
            for k in range(flat.size):
                flat[k] = float(lines[pos])
                if not np.isfinite(flat[k]):
                    raise ValueError(f"weights must be finite, got {lines[pos]!r}")
                pos += 1
            v = flat[n_w : n_w + n_v].reshape(n_out, n_out) if has_v else None
            b = flat[n_w + n_v :].reshape(n_in, n_out) if has_b else None
            model.append(SnnLayer(w=flat[:n_w].reshape(n_out, n_in), lif=lif, v=v, feedback_b=b))
    except ValueError as exc:
        raise ValueError(f"{path}:{pos + 1}: {exc}") from None
    return model
