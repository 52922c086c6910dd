"""The five reference training workloads.

Each workload is a closed loop of *replicas*.  A replica sets the program up
from a config (or, for SpikeProp, from generated spike lists), trains for a
fixed number of epochs and checks the result.  A replica's inputs come from
its replica seed, which the benchmark derives from ``--seed`` and the replica
index; the model initialisation and sample order use the fixed seed 42 of
acceptance criteria 6 and 7, so replicas differ only in their data.

Why each workload exists, and which layers it stresses, is in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

INIT_SEED = 42


@dataclass
class Replica:
    """What one replica hands back to the harness."""

    losses: list[float]          # per-epoch training loss
    accuracies: list[float]      # per-epoch training accuracy (nan when not defined)
    weights: list[np.ndarray]    # final trained parameters
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    epochs: int
    loss_target: float              # fixed; the seed code first reaches it near mid-run
    samples: int                    # training sample passes per replica
    min_replicas: int               # replicas of the digest and of the traced run
    setup_repeats: int              # set-ups per replica; the last one trains
    setup: Callable[["Workload", int, Path], Any]
    train: Callable[[Any], Replica]
    check: Callable[[Any, Replica], str | None]
    layers: tuple[str, ...]         # functions the traced run must see called

    def epochs_to_target(self, losses: list[float]) -> int | None:
        """Epochs trained when the loss first reaches the target (None if never)."""
        for idx, loss in enumerate(losses):
            if loss <= self.loss_target:
                return idx + 1
        return None


# -- config-driven workloads (the `spikegrad train` path) --------------------

RATE_TASK = """\
task.kind = rate
task.seed = {seed}
task.n_inputs = {n_inputs}
task.t_steps = {t_steps}
task.rate_lo = 0.2
task.rate_hi = 0.8
task.samples_per_class = {per_class}
"""

CONFIGS = {
    # acceptance criterion 6
    "rate_bptt": RATE_TASK.format(seed="{seed}", n_inputs=10, t_steps=50, per_class=100) + """\
model.layers = 10,16,2
model.beta = 0.9
model.theta = 1.0
trainer.kind = bptt
objective.kind = ce_spike_rate
optimizer.kind = adam
optimizer.lr = 0.001
train.batch_size = 32
""",
    # acceptance criterion 7
    "latency_bptt": """\
task.kind = latency
task.seed = {seed}
task.n_inputs = 8
task.t_steps = 24
task.n_classes = 4
task.samples_per_class = 25
task.jitter = 1
model.layers = 8,24,4
model.beta = 0.9
model.theta = 0.5
trainer.kind = bptt
objective.kind = ce_spike_time
reg.lambda_lower = 0.1
reg.theta_lower = 1.0
surrogate.kind = fast_sigmoid
surrogate.slope = 5.0
optimizer.kind = adam
optimizer.lr = 0.01
train.batch_size = 16
""",
    "stdp": RATE_TASK.format(seed="{seed}", n_inputs=50, t_steps=200, per_class=5) + """\
model.layers = 50,20
model.beta = 0.9
model.theta = 1.0
trainer.kind = stdp
objective.kind = ce_spike_rate
stdp.w_min = -1.0
stdp.w_max = 1.0
""",
    "online": RATE_TASK.format(seed="{seed}", n_inputs=10, t_steps=50, per_class=20) + """\
model.layers = 10,16,2
model.beta = 0.9
model.theta = 1.0
trainer.kind = online
trainer.update_policy = per_step
trainer.interval = 10
objective.kind = mse_spike_rate
optimizer.kind = adam
optimizer.lr = 0.001
""",
}


def config_text(name: str, seed: int, epochs: int) -> str:
    return CONFIGS[name].format(seed=seed) + f"train.epochs = {epochs}\ntrain.seed = {INIT_SEED}\n"


def _config_setup(wl: Workload, seed: int, workdir: Path):
    """Config parse, dataset generation and model init, as `spikegrad train` does them."""
    from spikegrad.config import load_run_config

    path = workdir / f"{wl.name}.cfg"
    path.write_text(config_text(wl.name, seed, wl.epochs))
    cfg = load_run_config(path)
    cfg.threads = 1
    model = cfg.build_model(np.random.default_rng(cfg.seed))
    return cfg, model


def _run_trainer(state) -> Replica:
    """Dispatch to the trainer `spikegrad train` runs for this config."""
    from spikegrad import cli
    from spikegrad.bptt import train_bptt

    cfg, model = state
    if cfg.trainer_kind == "bptt":
        history = train_bptt(
            model,
            cfg.dataset,
            cfg.objective,
            reg=cfg.regularizer,
            surrogate=cfg.surrogate,
            feedback=cfg.feedback,
            optimizer=cfg.optimizer,
            epochs=cfg.epochs,
            seed=cfg.seed,
            batch_size=cfg.batch_size,
            detach_reset=cfg.detach_reset,
            threads=cfg.threads,
        )
    elif cfg.trainer_kind == "online":
        history = cli._train_online_dataset(cfg, model)
    elif cfg.trainer_kind == "stdp":
        history = cli._train_stdp_dataset(cfg, model)
    else:
        raise ValueError(f"no benchmark dispatch for trainer {cfg.trainer_kind!r}")
    weights = []
    for layer in model:
        weights.append(layer.w)
        if layer.v is not None:
            weights.append(layer.v)
    return Replica(
        losses=[r.loss for r in history.rows],
        accuracies=[r.accuracy for r in history.rows],
        weights=weights,
    )


def _finite(state, rep: Replica) -> str | None:
    if not all(math.isfinite(x) for x in rep.losses):
        return f"non-finite training loss {rep.losses}"
    for idx, w in enumerate(rep.weights):
        if not np.all(np.isfinite(w)):
            return f"non-finite values in trained parameter {idx}"
    return None


def _accuracy_at_least(bar: float):
    def check(state, rep: Replica) -> str | None:
        best = max(rep.accuracies)
        return None if best >= bar else f"best training accuracy {best:.3f} < {bar}"

    return check


def _loss_falls(state, rep: Replica) -> str | None:
    if rep.losses[-1] < rep.losses[0]:
        return None
    return f"final loss {rep.losses[-1]!r} is not below the first epoch's {rep.losses[0]!r}"


def _stdp_in_bounds(state, rep: Replica) -> str | None:
    cfg, _ = state
    w = rep.weights[0]
    if w.min() < cfg.stdp.w_min or w.max() > cfg.stdp.w_max:
        return f"weights [{w.min()}, {w.max()}] leave [{cfg.stdp.w_min}, {cfg.stdp.w_max}]"
    return None


# -- SpikeProp, called directly ----------------------------------------------

SPIKEPROP_INPUTS = 10
SPIKEPROP_SAMPLES = 20
SPIKEPROP_TAU = 1.0
# target offsets from the initial crossing of outputs 0 and 1, in units of tau:
# one output learns to fire later, the other earlier
SPIKEPROP_SHIFTS = (0.1, -0.1)
SPIKEPROP_LR = 0.01
SPIKEPROP_EPOCHS = 5


def _spikeprop_setup(wl: Workload, seed: int, workdir: Path):
    """Net init plus the training set.

    Each sample gives every input one spike in its own random slot of
    [0, 2 tau] (a jittered grid, so every sample spreads its drive over the
    whole window), and sets each output's target 0.1 tau after or before its
    crossing in the initial net.  Draws on which an output of the initial net
    stays silent are redrawn, so every target is reachable.
    """
    from spikegrad.spikeprop import SrmNet, find_spike_time

    tau = SPIKEPROP_TAU
    n_out = len(SPIKEPROP_SHIFTS)
    init = np.random.default_rng(INIT_SEED)
    w = init.uniform(0.5, 1.5, size=(n_out, SPIKEPROP_INPUTS)) * (2.0 / SPIKEPROP_INPUTS)
    net = SrmNet(w=w, tau=tau, theta=1.0, t_end=6.0 * tau)
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(100 * SPIKEPROP_SAMPLES):
        slots = rng.permutation(SPIKEPROP_INPUTS) + rng.random(SPIKEPROP_INPUTS)
        presyn = [np.array([t]) for t in slots * (2.0 * tau / SPIKEPROP_INPUTS)]
        first = [find_spike_time(net, presyn, j) for j in range(n_out)]
        if any(f is None for f in first):
            continue
        samples.append((presyn, np.array(first) + np.array(SPIKEPROP_SHIFTS) * tau))
        if len(samples) == SPIKEPROP_SAMPLES:
            return net, samples
    raise RuntimeError(f"only {len(samples)} of {SPIKEPROP_SAMPLES} input draws made every output fire")


def _spikeprop_train(state) -> Replica:
    from spikegrad.spikeprop import train_spikeprop

    net, samples = state
    history = train_spikeprop(net, samples, lr=SPIKEPROP_LR, epochs=SPIKEPROP_EPOCHS)
    return Replica(
        losses=[loss for _, loss in history.rows],
        accuracies=[math.nan] * len(history.rows),
        weights=[net.w, net.theta],
        extra={"threshold_interventions": history.threshold_interventions},
    )


def _spikeprop_check(state, rep: Replica) -> str | None:
    drops = rep.extra["threshold_interventions"]
    if drops:
        return f"{drops} silent outputs needed a threshold drop"
    return _loss_falls(state, rep)


def _all(*checks):
    def check(state, rep: Replica) -> str | None:
        for c in checks:
            reason = c(state, rep)
            if reason is not None:
                return reason
        return None

    return check


_SETUP_LAYERS = ("config.load_run_config", "bptt.SnnLayer.init")
_BPTT_LAYERS = _SETUP_LAYERS + (
    "bptt.train_bptt",
    "bptt.forward",
    "bptt.backward",
    "bptt.optimizer_step",
    "surrogate.surrogate_grad",
    "objectives.eval_objective",
    "objectives.predict_class",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rate_bptt",
            epochs=6,
            loss_target=0.40,
            samples=6 * 200,
            min_replicas=2,
            setup_repeats=5,
            setup=_config_setup,
            train=_run_trainer,
            check=_all(_finite, _accuracy_at_least(0.95)),
            layers=_BPTT_LAYERS + ("tasks.gen_rate_task",),
        ),
        Workload(
            name="latency_bptt",
            epochs=10,
            loss_target=0.50,
            samples=10 * 100,
            min_replicas=4,
            setup_repeats=3,
            setup=_config_setup,
            train=_run_trainer,
            check=_all(_finite, _accuracy_at_least(0.90)),
            layers=_BPTT_LAYERS + ("tasks.gen_latency_task", "objectives.regularize"),
        ),
        Workload(
            name="spikeprop",
            epochs=SPIKEPROP_EPOCHS,
            loss_target=0.0019,
            samples=SPIKEPROP_EPOCHS * SPIKEPROP_SAMPLES,
            min_replicas=2,
            setup_repeats=1,
            setup=_spikeprop_setup,
            train=_spikeprop_train,
            check=_all(_finite, _spikeprop_check),
            layers=(
                "spikeprop.train_spikeprop",
                "spikeprop.spikeprop_grad",
                "spikeprop.find_spike_time",
                "spikeprop.spike_time_weight_grad",
                "spikeprop.alpha_kernel",
            ),
        ),
        Workload(
            name="stdp",
            epochs=1,
            loss_target=math.inf,  # unsupervised: the target is the end of the pass
            samples=1 * 10,
            min_replicas=4,
            setup_repeats=1,
            setup=_config_setup,
            train=_run_trainer,
            check=_all(_finite, _stdp_in_bounds),
            layers=_SETUP_LAYERS + (
                "tasks.gen_rate_task",
                "bptt.forward",
                "plasticity.stdp_update",
                "plasticity.stdp_delta_w",
            ),
        ),
        Workload(
            name="online",
            epochs=4,
            loss_target=0.75,
            samples=4 * 40,
            min_replicas=4,
            setup_repeats=3,
            setup=_config_setup,
            train=_run_trainer,
            check=_all(_finite, _loss_falls),
            layers=_SETUP_LAYERS + (
                "tasks.gen_rate_task",
                "online.train_online",
                "online.influence_step",
                "online.online_grad",
                "neuron.lif_step",
                "surrogate.surrogate_grad",
                "bptt.optimizer_step",
                "bptt.forward",
                "objectives.predict_class",
            ),
        ),
    )
}
