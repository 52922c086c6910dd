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
never silently falls back to a default.  `#` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bptt import Feedback, OptimizerKind, OptimizerState, SnnLayer
from .neuron import LifParams, ResetMode, beta_from_tau
from .objectives import Inversion, ObjectiveKind, ObjectiveSpec, RegularizerSpec
from .online import UpdatePolicy
from .plasticity import Pairing, StdpParams
from .surrogate import SurrogateKind, SurrogateVariant
from .tasks import Dataset, gen_latency_task, gen_rate_task, load_event_dataset

__all__ = ["ConfigError", "RunConfig", "parse_config_file", "load_run_config"]


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


class _Keys:
    """Typed accessors over the raw key/value dict, tracking consumption."""

    def __init__(self, raw: dict[str, str]):
        self.raw = dict(raw)
        self.used: set[str] = set()

    def _get(self, key: str, default, required: bool):
        if key in self.raw:
            self.used.add(key)
            return self.raw[key]
        if required:
            raise ConfigError(f"missing required config key '{key}'")
        return default

    def str(self, key: str, default: str | None = None, required: bool = False):
        return self._get(key, default, required)

    def int(self, key: str, default=None, required: bool = False):
        v = self._get(key, default, required)
        if v is default:
            return default
        try:
            return int(v)
        except ValueError:
            raise ConfigError(f"config key '{key}': expected an integer, got {v!r}") from None

    def float(self, key: str, default=None, required: bool = False):
        v = self._get(key, default, required)
        if v is default:
            return default
        try:
            return float(v)
        except ValueError:
            raise ConfigError(f"config key '{key}': expected a number, got {v!r}") from None

    def flag(self, key: str, default: bool = False):
        v = self._get(key, None, False)
        if v is None:
            return default
        if v in ("1", "true", "yes", "on"):
            return True
        if v in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key '{key}': expected a boolean, got {v!r}")

    def int_list(self, key: str, required: bool = False):
        v = self._get(key, None, required)
        if v is None:
            return None
        try:
            return [int(p) for p in v.split(",") if p.strip() != ""]
        except ValueError:
            raise ConfigError(f"config key '{key}': expected comma-separated integers, got {v!r}") from None

    def float_list(self, key: str):
        v = self._get(key, None, False)
        if v is None:
            return None
        try:
            return [float(p) for p in v.split(",") if p.strip() != ""]
        except ValueError:
            raise ConfigError(f"config key '{key}': expected comma-separated numbers, got {v!r}") from None

    def choice(self, key: str, options: dict, default=None, required: bool = False):
        v = self._get(key, None, required)
        if v is None:
            return default
        if v not in options:
            raise ConfigError(
                f"config key '{key}': unknown value {v!r}, expected one of {sorted(options)}"
            )
        return options[v]

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.raw) - self.used)
        if unknown:
            raise ConfigError(f"unknown config key '{unknown[0]}'")


@dataclass(frozen=True)
class SpikePropCfg:
    """Settings of the continuous-time trainer (only read when it is selected)."""

    tau: float = 1.0
    theta: float = 1.0
    t_end: float = 6.0
    dt_fine: float | None = None
    target_correct: float = 1.0
    target_incorrect: float = 3.0


@dataclass
class RunConfig:
    """Everything a training or evaluation run needs, resolved and validated."""

    raw: dict[str, str]
    trainer_kind: str
    dataset: Dataset
    layer_sizes: list[int]
    lif_params: list[LifParams]
    recurrent: list[bool]
    objective: ObjectiveSpec
    regularizer: RegularizerSpec
    surrogate: SurrogateKind
    feedback: Feedback
    detach_reset: bool
    optimizer: OptimizerState
    epochs: int
    batch_size: int
    seed: int
    out_dir: str
    update_policy: UpdatePolicy
    stdp: StdpParams
    perturb_sigma: float
    perturb_trials: int
    spikeprop: SpikePropCfg = SpikePropCfg()

    def build_model(self, rng: np.random.Generator) -> list[SnnLayer]:
        layers = []
        for l in range(len(self.layer_sizes) - 1):
            layers.append(
                SnnLayer.init(
                    n_in=self.layer_sizes[l],
                    n_out=self.layer_sizes[l + 1],
                    lif=self.lif_params[l],
                    rng=rng,
                    recurrent=self.recurrent[l],
                    random_feedback=self.feedback is Feedback.RANDOM_FIXED,
                )
            )
        return layers

    def write_resolved(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            for key in sorted(self.raw):
                fh.write(f"{key} = {self.raw[key]}\n")


def _build_dataset(keys: _Keys) -> Dataset:
    kind = keys.str("task.kind", required=True)
    if kind == "rate":
        return gen_rate_task(
            seed=keys.int("task.seed", 0),
            n_inputs=keys.int("task.n_inputs", required=True),
            t_steps=keys.int("task.t_steps", required=True),
            rate_lo=keys.float("task.rate_lo", required=True),
            rate_hi=keys.float("task.rate_hi", required=True),
            n_samples_per_class=keys.int("task.samples_per_class", required=True),
        )
    if kind == "latency":
        return gen_latency_task(
            seed=keys.int("task.seed", 0),
            n_inputs=keys.int("task.n_inputs", required=True),
            t_steps=keys.int("task.t_steps", required=True),
            n_classes=keys.int("task.n_classes", required=True),
            n_samples_per_class=keys.int("task.samples_per_class", 20),
            jitter=keys.int("task.jitter", 1),
        )
    if kind == "events":
        return load_event_dataset(
            keys.str("task.manifest", required=True),
            n_classes=keys.int("task.n_classes", required=True),
        )
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


def _stdp_params(keys: _Keys) -> StdpParams:
    """The pairing-rule settings, shared by training runs and ``stdp-demo``."""
    return StdpParams(
        a_plus=keys.float("stdp.a_plus", 0.01),
        a_minus=keys.float("stdp.a_minus", -0.012),
        tau_plus=keys.float("stdp.tau_plus", 20.0),
        tau_minus=keys.float("stdp.tau_minus", 20.0),
        w_min=keys.float("stdp.w_min", -1.0),
        w_max=keys.float("stdp.w_max", 1.0),
        pairing=keys.choice(
            "stdp.pairing",
            {p.value: p for p in Pairing},
            default=Pairing.ALL_PAIRS,
        ),
        window=keys.float("stdp.window", 100.0),
    )


def load_run_config(path) -> RunConfig:
    raw = parse_config_file(path)
    keys = _Keys(raw)

    dataset = _build_dataset(keys)

    layer_sizes = keys.int_list("model.layers", required=True)
    if len(layer_sizes) < 2:
        raise ConfigError("config key 'model.layers': need at least input and output sizes")
    sample0 = dataset.samples[0][0]
    n_features = np.asarray(getattr(sample0, "data", sample0)).shape[1]
    if layer_sizes[0] != n_features:
        raise ConfigError(
            f"config key 'model.layers': first size {layer_sizes[0]} "
            f"does not match the task's {n_features} inputs"
        )
    n_layers = len(layer_sizes) - 1

    tau = keys.float("model.tau", None)
    betas = _per_layer(keys.float_list("model.beta"), n_layers, "model.beta")
    if betas is None:
        betas = [beta_from_tau(tau) if tau is not None else 0.9] * n_layers
    thetas = _per_layer(keys.float_list("model.theta"), n_layers, "model.theta") or [1.0] * n_layers
    reset = keys.choice(
        "model.reset",
        {m.value: m for m in ResetMode},
        default=ResetMode.SUBTRACT,
    )
    adapt = keys.float("model.adapt_alpha", 0.0)
    learn_beta = keys.flag("model.learn_beta", False)
    rec_list = keys.int_list("model.recurrent")
    recurrent = [bool(r) for r in (_per_layer(rec_list, n_layers, "model.recurrent") or [0] * n_layers)]
    try:
        lif_params = [
            LifParams(
                beta=betas[l], theta0=thetas[l], reset_mode=reset,
                adapt_alpha=adapt, learn_beta=learn_beta,
            )
            for l in range(n_layers)
        ]
    except ValueError as exc:
        raise ConfigError(f"config key 'model.*': {exc}") from exc

    objective = ObjectiveSpec(
        kind=keys.choice(
            "objective.kind",
            {k.value: k for k in ObjectiveKind},
            required=True,
        ),
        inversion=keys.choice(
            "objective.inversion",
            {i.value: i for i in Inversion},
            default=Inversion.NEGATE,
        ),
        f0=keys.float("objective.f0", 0.0),
        gamma=keys.float("objective.gamma", 0.0),
        count_target_correct=keys.float("objective.count_target_correct", None),
        count_target_incorrect=keys.float("objective.count_target_incorrect", None),
        membrane_target_correct=keys.float("objective.membrane_target_correct", None),
        membrane_target_incorrect=keys.float("objective.membrane_target_incorrect", 0.0),
    )

    try:
        regularizer = RegularizerSpec(
            lambda_l1=keys.float("reg.lambda_l1", 0.0),
            lambda_upper=keys.float("reg.lambda_upper", 0.0),
            theta_upper=keys.float("reg.theta_upper", 0.0),
            upper_exponent=keys.int("reg.upper_exponent", 2),
            lambda_lower=keys.float("reg.lambda_lower", 0.0),
            theta_lower=keys.float("reg.theta_lower", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"config key 'reg.*': {exc}") from exc

    sur_variant = keys.choice(
        "surrogate.kind",
        {
            "heaviside": SurrogateVariant.HEAVISIDE,
            "sigmoid": SurrogateVariant.SIGMOID,
            "fast_sigmoid": SurrogateVariant.FAST_SIGMOID,
            "triangular": SurrogateVariant.TRIANGULAR,
            "hybrid_spike": SurrogateVariant.HYBRID_SPIKE,
            "shifted_relu": SurrogateVariant.SHIFTED_RELU,
        },
        default=SurrogateVariant.FAST_SIGMOID,
    )
    surrogate = SurrogateKind(
        variant=sur_variant,
        k=keys.float("surrogate.slope", 25.0),
        c=keys.float("surrogate.subthreshold_scale", 0.0),
        scale=keys.float("surrogate.scale", 1.0),
    )

    opt_kind = keys.choice(
        "optimizer.kind",
        {k.value: k for k in OptimizerKind},
        default=OptimizerKind.ADAM,
    )
    optimizer = OptimizerState(
        kind=opt_kind,
        lr=keys.float("optimizer.lr", 1e-3),
        beta1=keys.float("optimizer.beta1", 0.9),
        beta2=keys.float("optimizer.beta2", 0.999),
        eps=keys.float("optimizer.eps", 1e-8),
    )

    policy_name = keys.str("trainer.update_policy", "deferred")
    if policy_name == "deferred":
        policy = UpdatePolicy.deferred()
    elif policy_name == "per_step":
        policy = UpdatePolicy.per_step(keys.int("trainer.interval", 1))
    else:
        raise ConfigError(
            f"config key 'trainer.update_policy': unknown value {policy_name!r}"
        )

    sp_tau = keys.float("spikeprop.tau", 1.0)
    spikeprop = SpikePropCfg(
        tau=sp_tau,
        theta=keys.float("spikeprop.theta", 1.0),
        t_end=keys.float("spikeprop.t_end", 6.0 * sp_tau),
        dt_fine=keys.float("spikeprop.dt_fine", None),
        target_correct=keys.float("spikeprop.target_correct", 1.0 * sp_tau),
        target_incorrect=keys.float("spikeprop.target_incorrect", 3.0 * sp_tau),
    )

    cfg = RunConfig(
        raw=raw,
        trainer_kind=keys.str("trainer.kind", "bptt"),
        dataset=dataset,
        layer_sizes=layer_sizes,
        lif_params=lif_params,
        recurrent=recurrent,
        objective=objective,
        regularizer=regularizer,
        surrogate=surrogate,
        feedback=keys.choice(
            "trainer.feedback",
            {f.value: f for f in Feedback},
            default=Feedback.SYMMETRIC,
        ),
        detach_reset=keys.flag("trainer.detach_reset", True),
        optimizer=optimizer,
        epochs=keys.int("train.epochs", 1),
        batch_size=keys.int("train.batch_size", 32),
        seed=keys.int("train.seed", 0),
        out_dir=keys.str("train.out_dir", "."),
        update_policy=policy,
        stdp=_stdp_params(keys),
        perturb_sigma=keys.float("trainer.sigma", 0.01),
        perturb_trials=keys.int("trainer.trials", 100),
        spikeprop=spikeprop,
    )
    if cfg.trainer_kind not in ("bptt", "online", "spikeprop", "stdp", "perturbation"):
        raise ConfigError(f"config key 'trainer.kind': unknown value {cfg.trainer_kind!r}")
    keys.reject_unknown()
    return cfg
