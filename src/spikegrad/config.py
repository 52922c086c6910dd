"""Run configuration: flat `key = value` text with dotted section keys.

Example::

    task.kind = rate
    task.n_inputs = 10
    task.t_steps = 50
    task.rate_lo = 0.2
    task.rate_hi = 0.8
    task.samples_per_class = 100
    model.layers = 10,16,2
    model.beta = 0.9
    trainer.kind = bptt
    objective.kind = ce_spike_rate
    optimizer.kind = adam
    optimizer.lr = 0.001
    train.epochs = 50
    train.seed = 42
    train.out_dir = runs/rate

Unknown keys are rejected by name, as are missing required ones, so a typo
never silently falls back to a default.  Each trainer, and each kind or policy
chosen under it, reads only its own keys (README has the tables); any other key
is unknown, and the error names the setting that switched it off.  `#` starts a comment.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .bptt import Feedback, OptimizerKind, OptimizerState, SnnLayer
from .neuron import LifParams, ResetMode, _as_matrix, beta_from_tau
from .objectives import Inversion, ObjectiveKind, ObjectiveSpec, RegularizerSpec
from .plasticity import Pairing, StdpParams
from .spikeprop import SrmNet
from .surrogate import SurrogateKind, SurrogateVariant
from .tasks import Dataset, gen_latency_task, gen_rate_task, load_event_dataset

__all__ = ["ConfigError", "RunConfig", "TRAINER_KINDS", "parse_config_file", "load_run_config"]

# the values of trainer.kind, each a trainer in ``spikegrad train``
TRAINER_KINDS = ("bptt", "online", "spikeprop", "stdp", "perturbation")
# objective.kind -> the objective.<ObjectiveSpec field> keys it reads; a label needs the _REQUIRED ones set
_OBJECTIVE_KEYS = {
    ObjectiveKind.MSE_SPIKE_RATE: {"count_target_correct": float, "count_target_incorrect": float},
    ObjectiveKind.MSE_MEMBRANE: {"membrane_target_correct": float, "membrane_target_incorrect": float},
    ObjectiveKind.CE_SPIKE_TIME: {"inversion": Inversion},
    ObjectiveKind.MSE_RELATIVE_SPIKE_TIME: {"f0": float, "gamma": float},
}
_REQUIRED = ("count_target_correct", "count_target_incorrect", "membrane_target_correct")
# surrogate.kind -> the SurrogateKind fields it reads, as (key, type); sigmoid_exact is for gradient checks only
_SURROGATE_KEYS = {
    SurrogateVariant.HEAVISIDE: {}, SurrogateVariant.TRIANGULAR: {},
    SurrogateVariant.SIGMOID: {"k": ("surrogate.slope", float)},
    SurrogateVariant.FAST_SIGMOID: {"k": ("surrogate.slope", float)},
    SurrogateVariant.HYBRID_SPIKE: {"c": ("surrogate.subthreshold_scale", float)},
    SurrogateVariant.SHIFTED_RELU: {"scale": ("surrogate.scale", float)},
}
# optimizer.kind -> the OptimizerState fields it reads, as (key, type)
_OPTIMIZER_KEYS = {
    OptimizerKind.SGD: {}, OptimizerKind.ADAM: {f: (f"optimizer.{f}", float) for f in ("beta1", "beta2", "eps")}
}
# trainer.kind -> the objective kinds it accepts and the keys it reads for each; a label is no mse_spike_time target
_TRAINER_OBJECTIVES = {
    "bptt": {k: _OBJECTIVE_KEYS.get(k, {}) for k in ObjectiveKind if k is not ObjectiveKind.MSE_SPIKE_TIME},
    "online": {ObjectiveKind.MSE_MEMBRANE: _OBJECTIVE_KEYS[ObjectiveKind.MSE_MEMBRANE],
               ObjectiveKind.MSE_SPIKE_RATE: {}},  # the per-step forms; the spike target is the class one-hot
    "stdp": dict.fromkeys(ObjectiveKind, {}),  # no loss; eval decodes with the kind
}
_TRAINER_OBJECTIVES["perturbation"] = _TRAINER_OBJECTIVES["bptt"]


class ConfigError(ValueError):
    """A configuration problem, always naming the offending key or line."""


def parse_config_file(path) -> dict[str, str]:
    """Read `key = value` lines into a flat dict (later keys override earlier)."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"{path}:{line_no}: empty key")
            out[key] = value
    return out


_BOOLEANS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


def _items(v: str, convert) -> list:
    return [convert(p) for p in v.split(",") if p.strip() != ""]


class _Keys:
    """Typed accessors over the raw key/value dict, tracking consumption."""

    def __init__(self, raw: dict[str, str]):
        self.raw = dict(raw)
        self.used: set[str] = set()
        self.switch: dict[str, str] = {}  # key -> the 'setting = value' that decides whether it is read

    def _get(self, key: str, required: bool) -> str | None:
        if key in self.raw:
            self.used.add(key)
            return self.raw[key]
        if required:
            raise ConfigError(f"missing required config key '{key}'")
        return None

    def _convert(self, key: str, default, required: bool, convert, expected: str):
        v = self._get(key, required)
        if v is None:
            return default
        try:
            return convert(v)
        except (KeyError, ValueError):
            raise ConfigError(f"config key '{key}': expected {expected}, got {v!r}") from None

    def str(self, key: str, default: str | None = None, required: bool = False):
        v = self._get(key, required)
        return default if v is None else v

    def int(self, key: str, default=None, required: bool = False, minimum: int | None = None):
        v = self._convert(key, default, required, int, "an integer")
        if minimum is not None and v < minimum:
            raise ConfigError(f"config key '{key}': must be at least {minimum}, got {v}")
        return v

    def float(self, key: str, default=None, required: bool = False):
        return self._convert(key, default, required, float, "a number")

    def flag(self, key: str, default: bool = False):
        return self._convert(key, default, False, _BOOLEANS.__getitem__, "a boolean")

    def int_list(self, key: str, required: bool = False):
        return self._convert(key, None, required, lambda v: _items(v, int), "comma-separated integers")

    def float_list(self, key: str):
        return self._convert(key, None, False, lambda v: _items(v, float), "comma-separated numbers")

    def choice(self, key: str, options, default=None, required: bool = False):
        """The option named by the key's value; ``options`` is a dict or an enum class."""
        v = self._get(key, required)
        if v is None:
            return default
        if isinstance(options, type):
            options = {m.value: m for m in options}
        if v not in options:
            raise ConfigError(
                f"config key '{key}': unknown value {v!r}, expected one of {sorted(options)}"
            )
        return options[v]

    def given(self, **fields) -> dict:
        """Keyword arguments for the keys the file sets, each field given as (key, type).

        The type is int, float, bool or an enum class.  An unset key is left
        out, so the class that receives the arguments applies its own default.
        """
        readers = {int: self.int, float: self.float, bool: self.flag}
        return {
            name: readers[kind](key) if kind in readers else self.choice(key, kind)
            for name, (key, kind) in fields.items()
            if key in self.raw
        }

    def variant(self, key: str, table: dict, default):
        """The table's option at key and the arguments its entry reads; a key only another entry reads is switched off."""
        choice = self.choice(key, {c.value: c for c in table}, default)
        self.switch |= dict.fromkeys((k for entry in table.values() for k, _ in entry.values()), f"{key} = {choice.value}")
        return choice, self.given(**table[choice])

    def reject_unknown(self, where: str = "") -> None:
        unknown = sorted(set(self.raw) - self.used)
        if unknown:
            key = unknown[0]
            raise ConfigError(f"unknown config key '{key}'" + (f" for {self.switch[key]}" if key in self.switch else where))


@dataclass
class RunConfig:
    """Everything a training or evaluation run needs, resolved and validated.

    A field that the chosen trainer does not read is None.
    """

    raw: dict[str, str]
    trainer_kind: str
    dataset: Dataset
    layer_sizes: list[int]
    epochs: int
    seed: int
    out_dir: str
    lif_params: list[LifParams] | None = None
    recurrent: list[bool] | None = None
    objective: ObjectiveSpec | None = None  # only its kind for stdp, which eval decodes with
    regularizer: RegularizerSpec | None = None
    surrogate: SurrogateKind | None = None
    feedback: Feedback | None = None
    detach_reset: bool | None = None
    optimizer: OptimizerState | None = None  # plain gradient descent on optimizer.lr for spikeprop
    batch_size: int | None = None
    update_interval: float | None = None  # online steps per update; inf defers it to the stream end
    stdp: StdpParams | None = None
    perturb_sigma: float | None = None
    perturb_trials: int | None = None
    srm_net: SrmNet | None = None  # spikeprop's net, drawn from train.seed at load
    spike_targets: tuple[float, float] | None = None  # spikeprop's (correct, incorrect) output times

    def build_model(self, rng: np.random.Generator) -> list[SnnLayer] | SrmNet:
        """A fresh model: the LIF layer stack drawn from rng, or a copy of spikeprop's net."""
        if self.srm_net is not None:
            return copy.deepcopy(self.srm_net)
        return [
            SnnLayer.init(
                n_in=self.layer_sizes[l],
                n_out=self.layer_sizes[l + 1],
                lif=self.lif_params[l],
                rng=rng,
                recurrent=self.recurrent[l],
                random_feedback=self.feedback is Feedback.RANDOM_FIXED,
            )
            for l in range(len(self.layer_sizes) - 1)
        ]

    def write_resolved(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            for key in sorted(self.raw):
                fh.write(f"{key} = {self.raw[key]}\n")


def _build_dataset(keys: _Keys) -> Dataset:
    kind = keys.str("task.kind", required=True)
    if kind == "rate":
        return gen_rate_task(
            seed=keys.int("task.seed", 0),
            n_inputs=keys.int("task.n_inputs", required=True, minimum=1),
            t_steps=keys.int("task.t_steps", required=True, minimum=1),
            rate_lo=keys.float("task.rate_lo", required=True),
            rate_hi=keys.float("task.rate_hi", required=True),
            n_samples_per_class=keys.int("task.samples_per_class", required=True, minimum=1),
        )
    if kind == "latency":
        return gen_latency_task(
            seed=keys.int("task.seed", 0),
            n_inputs=keys.int("task.n_inputs", required=True, minimum=1),
            t_steps=keys.int("task.t_steps", required=True, minimum=1),
            n_classes=keys.int("task.n_classes", required=True, minimum=2),
            n_samples_per_class=keys.int("task.samples_per_class", 20, minimum=1),
            jitter=keys.int("task.jitter", 1, minimum=0),
        )
    if kind == "events":
        return load_event_dataset(keys.str("task.manifest", required=True))
    raise ConfigError(f"config key 'task.kind': unknown value {kind!r}")


def _per_layer(values, n_layers: int, key: str):
    if values is None:
        return None
    if len(values) == 1:
        return values * n_layers
    if len(values) != n_layers:
        raise ConfigError(
            f"config key '{key}': expected 1 or {n_layers} values, got {len(values)}"
        )
    return values


def _in_section(section: str, build, layer: int | None = None, **kwargs):
    """Call build(**kwargs), turning a range error it raises into a ConfigError naming the section and any layer."""
    try:
        return build(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        where = "" if layer is None else f", layer {layer}"
        raise ConfigError(f"config key '{section}.*'{where}: {exc}") from exc


def _stdp_params(keys: _Keys, demo: bool = False) -> StdpParams:
    """The pairing-rule settings.  Training reads stdp.window only for all_pairs, the
    one rule that applies it; ``stdp-demo`` reads it under both, as its range of gaps."""
    kw = keys.given(
        a_plus=("stdp.a_plus", float),
        a_minus=("stdp.a_minus", float),
        tau_plus=("stdp.tau_plus", float),
        tau_minus=("stdp.tau_minus", float),
        pairing=("stdp.pairing", Pairing),
    )
    keys.switch["stdp.window"] = "stdp.pairing = nearest_neighbor"  # the one rule that leaves it unread
    if demo or kw.get("pairing") is not Pairing.NEAREST_NEIGHBOR:
        kw |= keys.given(window=("stdp.window", float))
    return _in_section(
        "stdp", StdpParams, w_min=keys.float("stdp.w_min", -1.0), w_max=keys.float("stdp.w_max", 1.0), **kw
    )


def _lif_layers(keys: _Keys, n_layers: int) -> tuple[list[LifParams], list[bool]]:
    """The model.* settings: each layer's LifParams and recurrence flag."""
    tau = keys.float("model.tau")
    betas = _per_layer(keys.float_list("model.beta"), n_layers, "model.beta")
    if tau is not None and betas is not None:
        raise ConfigError("config key 'model.tau': set model.tau or model.beta, not both")
    if betas is None:
        betas = [_in_section("model", beta_from_tau, tau=tau) if tau is not None else 0.9] * n_layers
    thetas = _per_layer(keys.float_list("model.theta"), n_layers, "model.theta")
    lif_kw = keys.given(
        reset_mode=("model.reset", ResetMode),
        adapt_alpha=("model.adapt_alpha", float),
        learn_beta=("model.learn_beta", bool),
    )
    rec_list = keys.int_list("model.recurrent")
    recurrent = [bool(r) for r in (_per_layer(rec_list, n_layers, "model.recurrent") or [0] * n_layers)]
    lif_params = [
        _in_section(
            "model", LifParams, l, beta=betas[l], **lif_kw, **({} if thetas is None else {"theta0": thetas[l]})
        )
        for l in range(n_layers)
    ]
    return lif_params, recurrent


def load_run_config(path) -> RunConfig:
    """Read the run config; the trainer and the objective kind read only their own keys, any other is an error."""
    raw = parse_config_file(path)
    keys = _Keys(raw)

    dataset = _build_dataset(keys)

    layer_sizes = keys.int_list("model.layers", required=True)
    if len(layer_sizes) < 2:
        raise ConfigError("config key 'model.layers': need at least input and output sizes")
    n_features = _as_matrix(dataset.samples[0][0]).shape[1]
    if layer_sizes[0] != n_features:
        raise ConfigError(
            f"config key 'model.layers': first size {layer_sizes[0]} "
            f"does not match the task's {n_features} inputs"
        )
    kind = keys.choice("trainer.kind", {k: k for k in TRAINER_KINDS}, default="bptt")
    cfg = RunConfig(
        raw=raw,
        trainer_kind=kind,
        dataset=dataset,
        layer_sizes=layer_sizes,
        epochs=keys.int("train.epochs", 1, minimum=1),
        seed=keys.int("train.seed", 0),
        out_dir=keys.str("train.out_dir", "."),
    )

    if kind != "spikeprop":
        cfg.lif_params, cfg.recurrent = _lif_layers(keys, len(layer_sizes) - 1)
        accepted = _TRAINER_OBJECTIVES[kind]
        objective = keys.choice("objective.kind", ObjectiveKind, required=True)
        if objective not in accepted:
            *rest, last = sorted(k.value for k in accepted)
            raise ConfigError(f"config key 'objective.kind': {kind} training needs {', '.join(rest)} or {last}")
        kw = {f: keys.float(f"objective.{f}", required=True) for f in _REQUIRED if f in accepted[objective]}
        kw |= keys.given(**{f: (f"objective.{f}", t) for f, t in accepted[objective].items() if f not in kw})
        cfg.objective = ObjectiveSpec(objective, **kw)

    if kind in ("bptt", "online"):
        variant, kw = keys.variant("surrogate.kind", _SURROGATE_KEYS, SurrogateVariant.FAST_SIGMOID)
        cfg.surrogate = _in_section("surrogate", SurrogateKind, variant=variant, **kw)
        optimizer, kw = keys.variant("optimizer.kind", _OPTIMIZER_KEYS, OptimizerKind.ADAM)
        cfg.optimizer = _in_section(
            "optimizer", OptimizerState, kind=optimizer, lr=keys.float("optimizer.lr", 1e-3), **kw
        )

    if kind == "bptt":
        cfg.regularizer = _in_section(
            "reg", RegularizerSpec,
            **keys.given(
                lambda_l1=("reg.lambda_l1", float),
                lambda_upper=("reg.lambda_upper", float),
                theta_upper=("reg.theta_upper", float),
                upper_exponent=("reg.upper_exponent", int),
                lambda_lower=("reg.lambda_lower", float),
                theta_lower=("reg.theta_lower", float),
            ),
        )
        cfg.batch_size = keys.int("train.batch_size", 32, minimum=1)
        cfg.feedback = keys.choice("trainer.feedback", Feedback, default=Feedback.SYMMETRIC)
        cfg.detach_reset = keys.flag("trainer.detach_reset", True)
    elif kind == "online":
        policy = keys.choice("trainer.update_policy", {p: p for p in ("deferred", "per_step")}, default="deferred")
        keys.switch["trainer.interval"] = f"trainer.update_policy = {policy}"
        cfg.update_interval = keys.int("trainer.interval", 1, minimum=1) if policy == "per_step" else np.inf
    elif kind == "stdp":
        cfg.stdp = _stdp_params(keys)
    elif kind == "perturbation":
        cfg.perturb_sigma = keys.float("trainer.sigma", 0.01)
        if not (np.isfinite(cfg.perturb_sigma) and cfg.perturb_sigma >= 0.0):
            raise ConfigError(f"config key 'trainer.sigma': must be finite and >= 0, got {cfg.perturb_sigma}")
        cfg.perturb_trials = keys.int("trainer.trials", 100, minimum=1)
    else:  # spikeprop
        if len(layer_sizes) != 2:
            raise ConfigError("config key 'model.layers': spikeprop uses a single weight layer")
        n_in, n_out = layer_sizes
        tau = keys.float("spikeprop.tau", 1.0)
        cfg.srm_net = _in_section(
            "spikeprop", SrmNet,
            w=np.random.default_rng(cfg.seed).uniform(0.5, 1.5, size=(n_out, n_in)) * (2.0 / n_in),
            tau=tau,
            theta=keys.float("spikeprop.theta", 1.0),
            t_end=keys.float("spikeprop.t_end", 6.0 * tau),
            dt_fine=keys.float("spikeprop.dt_fine"),
        )
        cfg.spike_targets = (
            keys.float("spikeprop.target_correct", required=True),
            keys.float("spikeprop.target_incorrect", required=True),
        )
        cfg.optimizer = _in_section("optimizer", OptimizerState.sgd, lr=keys.float("optimizer.lr", 1e-3))

    keys.reject_unknown(f" for trainer.kind = {kind}" + (f", objective.kind = {objective.value}" if cfg.objective else ""))
    if kind != "stdp":  # every other trainer reads a label as an output index
        for index, (_, label) in enumerate(dataset.samples):
            if not 0 <= label < layer_sizes[-1]:
                raise ConfigError(
                    f"config key 'model.layers': label {label} of sample {index} "
                    f"is not an output index in [0, {layer_sizes[-1]})"
                )
    return cfg
