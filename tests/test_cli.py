"""End-to-end tests of the command-line harness."""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spikegrad.bptt import SnnLayer
from spikegrad.cli import _scored_epoch, main
from spikegrad.events import load_events
from spikegrad.neuron import LifParams
from spikegrad.objectives import ObjectiveKind, ObjectiveSpec
from spikegrad.tasks import Dataset


RATE_CONFIG = """
task.kind = rate
task.n_inputs = 4
task.t_steps = 12
task.rate_lo = 0.1
task.rate_hi = 0.9
task.samples_per_class = 4
model.layers = 4,6,2
model.beta = 0.9
trainer.kind = bptt
objective.kind = ce_spike_rate
optimizer.kind = adam
optimizer.lr = 0.001
train.epochs = 3
train.batch_size = 4
train.seed = 7
"""




def without(text, *prefixes):
    """The config text without the lines whose key starts with one of the prefixes."""
    return "".join(line + "\n" for line in text.splitlines() if not line.startswith(prefixes))


# each trainer's config sets only keys that trainer reads
ONLINE_CONFIG = without(RATE_CONFIG, "train.batch_size").replace("trainer.kind = bptt", "trainer.kind = online").replace(
    "objective.kind = ce_spike_rate", "objective.kind = mse_spike_rate"
)
STDP_CONFIG = without(RATE_CONFIG, "train.batch_size", "optimizer.").replace(
    "trainer.kind = bptt", "trainer.kind = stdp"
).replace("model.layers = 4,6,2", "model.layers = 4,3")
PERTURBATION_CONFIG = (
    without(RATE_CONFIG, "train.batch_size", "optimizer.").replace("trainer.kind = bptt", "trainer.kind = perturbation")
    + "trainer.sigma = 0.05\ntrainer.trials = 10\n"
)
SPIKEPROP_CONFIG = """
task.kind = latency
task.n_inputs = 4
task.t_steps = 20
task.n_classes = 2
task.samples_per_class = 2
task.jitter = 0
model.layers = 4,2
trainer.kind = spikeprop
optimizer.lr = 0.002
train.epochs = 2
spikeprop.tau = 1.0
spikeprop.t_end = 8.0
spikeprop.target_correct = 1.0
spikeprop.target_incorrect = 2.5
"""
TRAINER_CONFIGS = {
    "bptt": RATE_CONFIG,
    "online": ONLINE_CONFIG,
    "stdp": STDP_CONFIG,
    "perturbation": PERTURBATION_CONFIG,
    "spikeprop": SPIKEPROP_CONFIG,
}
# the context an unknown key is reported in: the trainer and the objective kind of its config
UNKNOWN_KEY_CONTEXT = {
    "bptt": "trainer.kind = bptt, objective.kind = ce_spike_rate",
    "online": "trainer.kind = online, objective.kind = mse_spike_rate",
    "stdp": "trainer.kind = stdp, objective.kind = ce_spike_rate",
    "perturbation": "trainer.kind = perturbation, objective.kind = ce_spike_rate",
    "spikeprop": "trainer.kind = spikeprop",  # spikeprop reads no objective
}

# the objective.* keys each objective kind reads with bptt and perturbation
OBJECTIVE_KEYS = {
    "mse_spike_rate": ("count_target_correct", "count_target_incorrect"),
    "mse_membrane": ("membrane_target_correct", "membrane_target_incorrect"),
    "ce_spike_time": ("inversion",),
    "mse_relative_spike_time": ("f0", "gamma"),
}
KEY_VALUES = {"inversion": "reciprocal"}  # every other objective key takes a number
ALL_KINDS = ["ce_spike_rate", "mse_spike_rate", "max_membrane_ce", "sum_membrane_ce", "mse_membrane",
             "ce_spike_time", "mse_spike_time", "mse_relative_spike_time"]
# the objective kinds each trainer accepts: config tasks give no target time per output neuron for
# mse_spike_time, and online needs a per-step form
ACCEPTED_KINDS = {
    "bptt": [k for k in ALL_KINDS if k != "mse_spike_time"],
    "online": ["mse_membrane", "mse_spike_rate"],
    "stdp": ALL_KINDS,
    "perturbation": [k for k in ALL_KINDS if k != "mse_spike_time"],
}
# the surrogate.* and optimizer.* keys each kind reads with bptt and online
SWITCHED_KEYS = {
    "surrogate.kind": {
        "heaviside": (), "sigmoid": ("surrogate.slope",), "fast_sigmoid": ("surrogate.slope",), "triangular": (),
        "hybrid_spike": ("surrogate.subthreshold_scale",), "shifted_relu": ("surrogate.scale",),
    },
    "optimizer.kind": {"sgd": (), "adam": ("optimizer.beta1", "optimizer.beta2", "optimizer.eps")},
}


def objective_keys_read(trainer, kind):
    """The objective.* keys a trainer reads for an objective kind: online's spike target is the class
    one-hot, and stdp reads objective.kind alone."""
    if trainer == "stdp" or (trainer == "online" and kind == "mse_spike_rate"):
        return ()
    return OBJECTIVE_KEYS.get(kind, ())


def objective_config(trainer, kind, keys):
    """The trainer's test config under objective.kind = kind, with each of keys set to a valid value."""
    return without(TRAINER_CONFIGS[trainer], "objective.") + f"objective.kind = {kind}\n" + "".join(
        f"objective.{key} = {KEY_VALUES.get(key, '1')}\n" for key in keys
    )


def write_config(tmp_path, text, out_dir=None, name="run.cfg"):
    out_dir = out_dir or tmp_path / "out"
    path = tmp_path / name
    path.write_text(text + f"train.out_dir = {out_dir}\n")
    return path, out_dir


class TestTrainCommand:
    def test_writes_history_checkpoint_and_config(self, tmp_path):
        cfg, out = write_config(tmp_path, RATE_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss,accuracy,total_spikes"
        assert len(history) == 1 + 3  # header + one row per epoch
        assert (out / "checkpoint.txt").exists()
        assert (out / "config.txt").exists()

    def test_zero_lr_history_loss_constant(self, tmp_path):
        cfg, out = write_config(tmp_path, RATE_CONFIG.replace("optimizer.lr = 0.001", "optimizer.lr = 0.0"))
        assert main(["train", "--config", str(cfg)]) == 0
        rows = (out / "history.csv").read_text().splitlines()[1:]
        losses = {row.split(",")[1] for row in rows}
        assert len(losses) == 1

    @pytest.mark.parametrize("kind", sorted(TRAINER_CONFIGS))
    def test_bit_exact_reproducibility(self, tmp_path, kind):
        cfg, out = write_config(tmp_path, TRAINER_CONFIGS[kind])
        runs = []
        for _ in range(2):
            assert main(["train", "--config", str(cfg)]) == 0
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
            shutil.rmtree(out)
        checkpoint = set() if kind == "spikeprop" else {"checkpoint.txt"}
        assert set(runs[0]) == {"history.csv", "config.txt"} | checkpoint
        assert runs[0] == runs[1]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "nope.cfg" in capsys.readouterr().err

    def test_bad_config_key_named(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, RATE_CONFIG + "model.bogus = 1\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "model.bogus" in capsys.readouterr().err

    def test_online_trainer_runs(self, tmp_path):
        cfg, out = write_config(tmp_path, ONLINE_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        assert len((out / "history.csv").read_text().splitlines()) == 4

    def test_stdp_trainer_runs(self, tmp_path):
        cfg, out = write_config(tmp_path, STDP_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        assert len((out / "history.csv").read_text().splitlines()) == 4

    def test_perturbation_trainer_runs(self, tmp_path):
        cfg, out = write_config(tmp_path, PERTURBATION_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        assert len((out / "history.csv").read_text().splitlines()) == 4

    def test_spikeprop_trainer_runs(self, tmp_path):
        cfg, out = write_config(tmp_path, SPIKEPROP_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        assert len((out / "history.csv").read_text().splitlines()) == 3


    def test_dead_output_neuron_is_a_located_error(self, tmp_path, capsys, monkeypatch):
        from spikegrad import cli
        from spikegrad.spikeprop import DeadNeuronError

        def silent(*args, **kwargs):
            raise DeadNeuronError(1)

        monkeypatch.setattr(cli, "train_spikeprop", silent)
        text = """
task.kind = latency
task.n_inputs = 4
task.t_steps = 20
task.n_classes = 2
task.samples_per_class = 2
model.layers = 4,2
trainer.kind = spikeprop
spikeprop.target_correct = 1.0
spikeprop.target_incorrect = 3.0
"""
        cfg, _ = write_config(tmp_path, text)
        assert main(["train", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "output neuron 1 never fired" in err

    def test_every_trainer_kind_has_a_trainer(self):
        from spikegrad import cli
        from spikegrad.config import TRAINER_KINDS

        assert set(cli._TRAINERS) == set(TRAINER_KINDS) == set(TRAINER_CONFIGS)

    def test_infinite_stdp_amplitude_is_an_error(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, STDP_CONFIG + "stdp.a_plus = inf\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config key 'stdp.*': a_plus must be finite, got inf\n"
        assert not (out / "history.csv").exists()

    @pytest.mark.parametrize("extra, message", [
        ("surrogate.slope = -1\n", "config key 'surrogate.*': slope k must be finite and positive, got -1.0"),
        ("optimizer.beta1 = 1.5\n", "config key 'optimizer.*': Adam betas must lie in [0, 1)"),
        ("reg.lambda_l1 = abc\n", "config key 'reg.lambda_l1': expected a number, got 'abc'"),
        ("model.beta = 0.9,1.5\n", "config key 'model.*', layer 1: beta must be in (0, 1], got 1.5"),
        ("model.theta = 1,-1\n", "config key 'model.*', layer 1: theta0 must be finite and positive, got -1.0"),
        ("model.theta = inf\n", "config key 'model.*', layer 0: theta0 must be finite and positive, got inf"),
        ("surrogate.slope = nan\n", "config key 'surrogate.*': slope k must be finite and positive, got nan"),
        ("optimizer.lr = inf\n", "config key 'optimizer.*': lr must be finite and non-negative, got inf"),
        ("reg.lambda_l1 = nan\n", "config key 'reg.*': lambda_l1 must be finite and >= 0, got nan"),
    ], ids=["surrogate.slope", "optimizer.beta1", "reg.lambda_l1", "model.beta", "model.theta",
            "model.theta-inf", "surrogate.slope-nan", "optimizer.lr-inf", "reg.lambda_l1-nan"])
    def test_range_error_names_its_config_section(self, tmp_path, capsys, extra, message):
        cfg, out = write_config(tmp_path, RATE_CONFIG + extra)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "history.csv").exists()

    @pytest.mark.parametrize("text, message", [
        (RATE_CONFIG + "train.epochs = 0\n", "config key 'train.epochs': must be at least 1, got 0"),
        (RATE_CONFIG + "train.batch_size = -1\n", "config key 'train.batch_size': must be at least 1, got -1"),
        (PERTURBATION_CONFIG + "trainer.trials = 0\n", "config key 'trainer.trials': must be at least 1, got 0"),
        (ONLINE_CONFIG + "trainer.update_policy = per_step\ntrainer.interval = 0\n",
         "config key 'trainer.interval': must be at least 1, got 0"),
        (RATE_CONFIG.replace("model.beta = 0.9", "model.tau = -1"), "config key 'model.*': tau must be positive, got -1.0"),
        (PERTURBATION_CONFIG + "trainer.sigma = nan\n", "config key 'trainer.sigma': must be finite and >= 0, got nan"),
        (PERTURBATION_CONFIG + "trainer.sigma = -1\n", "config key 'trainer.sigma': must be finite and >= 0, got -1.0"),
        (SPIKEPROP_CONFIG.replace("spikeprop.tau = 1.0", "spikeprop.tau = -1"),
         "config key 'spikeprop.*': tau must be positive, got -1.0"),
        (SPIKEPROP_CONFIG + "spikeprop.dt_fine = 0.5\n",
         "config key 'spikeprop.*': dt_fine, the time of one CLI raster step, must be at most tau/100"),
        (SPIKEPROP_CONFIG + "spikeprop.dt_fine = 0\n", "config key 'spikeprop.*': dt_fine must be positive, got 0.0"),
        (SPIKEPROP_CONFIG + "spikeprop.dt_fine = -0.001\n",
         "config key 'spikeprop.*': dt_fine must be positive, got -0.001"),
        (SPIKEPROP_CONFIG + "spikeprop.dt_fine = nan\n", "config key 'spikeprop.*': dt_fine must be positive, got nan"),
        (SPIKEPROP_CONFIG + "spikeprop.theta = 0\n",
         "config key 'spikeprop.*': theta of output neuron 0 is 0.0; it must be finite and positive"),
        (SPIKEPROP_CONFIG + "spikeprop.t_end = nan\n", "config key 'spikeprop.*': t_end must be positive, got nan"),
        (RATE_CONFIG + "model.tau = 5\n", "config key 'model.tau': set model.tau or model.beta, not both"),
        (SPIKEPROP_CONFIG.replace("spikeprop.target_correct = 1.0\n", ""),
         "missing required config key 'spikeprop.target_correct'"),
        (SPIKEPROP_CONFIG.replace("spikeprop.target_incorrect = 2.5\n", ""),
         "missing required config key 'spikeprop.target_incorrect'"),
        # the objective targets without a default, set apart from the one left out
        (objective_config("bptt", "mse_spike_rate", ["count_target_incorrect"]),
         "missing required config key 'objective.count_target_correct'"),
        (objective_config("bptt", "mse_spike_rate", ["count_target_correct"]),
         "missing required config key 'objective.count_target_incorrect'"),
        (objective_config("bptt", "mse_membrane", ["membrane_target_incorrect"]),
         "missing required config key 'objective.membrane_target_correct'"),
        (objective_config("perturbation", "mse_spike_rate", ["count_target_incorrect"]),
         "missing required config key 'objective.count_target_correct'"),
        (objective_config("perturbation", "mse_spike_rate", ["count_target_correct"]),
         "missing required config key 'objective.count_target_incorrect'"),
        (objective_config("perturbation", "mse_membrane", ["membrane_target_incorrect"]),
         "missing required config key 'objective.membrane_target_correct'"),
        (RATE_CONFIG.replace("task.t_steps = 12", "task.t_steps = 0"), "config key 'task.t_steps': must be at least 1, got 0"),
        (ONLINE_CONFIG.replace("task.t_steps = 12", "task.t_steps = 0"), "config key 'task.t_steps': must be at least 1, got 0"),
    ], ids=["train.epochs", "train.batch_size", "trainer.trials", "trainer.interval", "model.tau", "trainer.sigma-nan",
            "trainer.sigma-negative", "spikeprop.tau", "spikeprop.dt_fine", "spikeprop.dt_fine-zero",
            "spikeprop.dt_fine-negative", "spikeprop.dt_fine-nan", "spikeprop.theta", "spikeprop.t_end",
            "model.tau-with-beta",
            "spikeprop.target_correct", "spikeprop.target_incorrect",
            "bptt-objective.count_target_correct", "bptt-objective.count_target_incorrect",
            "bptt-objective.membrane_target_correct", "perturbation-objective.count_target_correct",
            "perturbation-objective.count_target_incorrect", "perturbation-objective.membrane_target_correct",
            "bptt-task.t_steps", "online-task.t_steps"])
    def test_bad_value_names_its_key(self, tmp_path, capsys, text, message):
        cfg, out = write_config(tmp_path, text)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "history.csv").exists()

    @pytest.mark.parametrize("kind, line", [
        # the six keys of other trainers that bptt once accepted without effect
        ("bptt", "trainer.sigma = 0.3"),
        ("bptt", "trainer.trials = 5"),
        ("bptt", "stdp.a_plus = 0.5"),
        ("bptt", "trainer.update_policy = per_step"),
        ("bptt", "trainer.interval = 3"),
        ("bptt", "spikeprop.tau = 4"),
        ("online", "train.batch_size = 4"),
        ("online", "trainer.detach_reset = 0"),
        ("online", "trainer.feedback = random_fixed"),
        ("stdp", "optimizer.lr = 0.001"),
        ("stdp", "objective.f0 = 0.5"),
        ("perturbation", "reg.lambda_l1 = 0.01"),
        ("perturbation", "surrogate.slope = 5"),
        ("spikeprop", "model.beta = 0.9"),
        ("spikeprop", "objective.kind = mse_spike_time"),
        ("spikeprop", "optimizer.kind = sgd"),
        ("spikeprop", "optimizer.beta1 = 0.5"),
        ("spikeprop", "optimizer.beta2 = 0.5"),
        ("spikeprop", "optimizer.eps = 1e-6"),
    ], ids=lambda v: v.split(" = ")[0])
    def test_key_the_trainer_ignores_is_an_error(self, tmp_path, capsys, kind, line):
        cfg, out = write_config(tmp_path, TRAINER_CONFIGS[kind] + line + "\n")
        assert main(["train", "--config", str(cfg)]) == 2
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == f"error: unknown config key '{key}' for {UNKNOWN_KEY_CONTEXT[kind]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("pairing, code", [("all_pairs", 0), ("nearest_neighbor", 2)])
    def test_stdp_window_only_with_all_pairs(self, tmp_path, capsys, pairing, code):
        cfg, out = write_config(tmp_path, STDP_CONFIG + f"stdp.pairing = {pairing}\nstdp.window = 1\n")
        assert main(["train", "--config", str(cfg)]) == code
        if code:
            assert capsys.readouterr().err == "error: unknown config key 'stdp.window' for stdp.pairing = nearest_neighbor\n"
        assert out.exists() == (code == 0)

    def test_interval_without_per_step_names_both_keys(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, ONLINE_CONFIG + "trainer.interval = 5\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown config key 'trainer.interval' for trainer.update_policy = deferred\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("trainer, setting, kind, key", [
        (trainer, setting, kind, key)
        for trainer in ("bptt", "online")
        for setting, reads in SWITCHED_KEYS.items()
        for kind in reads
        for key in sorted(set(sum(reads.values(), ())) - set(reads[kind]))
    ])
    def test_key_only_another_kind_reads_is_an_error(self, tmp_path, capsys, trainer, setting, kind, key):
        text = without(TRAINER_CONFIGS[trainer], setting) + f"{setting} = {kind}\n{key} = 0.5\n"
        cfg, out = write_config(tmp_path, text)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: unknown config key '{key}' for {setting} = {kind}\n"
        assert not out.exists()

    @pytest.mark.parametrize("trainer", ["bptt", "online"])
    def test_every_kind_trains_with_its_own_keys(self, tmp_path, trainer):
        for setting, reads in SWITCHED_KEYS.items():
            for kind, keys in reads.items():
                text = without(TRAINER_CONFIGS[trainer], setting).replace("train.epochs = 3", "train.epochs = 1")
                text += f"{setting} = {kind}\n" + "".join(f"{key} = 0.5\n" for key in keys)
                cfg, out = write_config(tmp_path, text, out_dir=tmp_path / kind)
                assert main(["train", "--config", str(cfg)]) == 0, kind
                assert (out / "history.csv").exists()

    @pytest.mark.parametrize("text", [
        SPIKEPROP_CONFIG.replace("spikeprop.tau = 1.0", "spikeprop.tau = -1"),
        SPIKEPROP_CONFIG + "spikeprop.theta = 0\n",
        SPIKEPROP_CONFIG.replace("model.layers = 4,2", "model.layers = 4,3,2"),
    ], ids=["spikeprop.tau", "spikeprop.theta", "model.layers"])
    def test_bad_spikeprop_setting_makes_no_out_dir(self, tmp_path, text):
        cfg, out = write_config(tmp_path, text)
        assert main(["train", "--config", str(cfg)]) == 2
        assert not out.exists()

    def test_stdp_trains_every_layer(self, tmp_path):
        from spikegrad.bptt import load_checkpoint
        from spikegrad.config import load_run_config

        cfg, out = write_config(tmp_path, STDP_CONFIG.replace("model.layers = 4,3", "model.layers = 4,5,3"))
        assert main(["train", "--config", str(cfg)]) == 0
        run = load_run_config(cfg)
        initial = run.build_model(np.random.default_rng(run.seed))
        trained = load_checkpoint(out / "checkpoint.txt")
        assert [layer.w.shape for layer in trained] == [(5, 4), (3, 5)]
        for before, after in zip(initial, trained):
            assert not np.array_equal(before.w, after.w)

    def test_stdp_refuses_a_recurrent_layer(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, STDP_CONFIG + "model.recurrent = 1\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: stdp trains w only, but layer 0 also trains v\n"
        assert not out.exists()

    def test_non_finite_perturbation_loss_is_an_error(self, tmp_path, capsys):
        text = PERTURBATION_CONFIG.replace("objective.kind = ce_spike_rate", "objective.kind = mse_membrane")
        cfg, out = write_config(tmp_path, text + "objective.membrane_target_correct = inf\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: non-finite loss inf before trial 0\n"
        assert not out.exists()

    def test_online_objective_without_a_step_form_makes_no_out_dir(self, tmp_path, capsys):
        cfg, out = write_config(
            tmp_path, ONLINE_CONFIG.replace("objective.kind = mse_spike_rate", "objective.kind = ce_spike_rate")
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: config key 'objective.kind': online training needs mse_membrane or mse_spike_rate\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["bptt", "perturbation"])
    def test_spike_time_targets_are_a_config_error(self, tmp_path, capsys, kind):
        text = TRAINER_CONFIGS[kind].replace("objective.kind = ce_spike_rate", "objective.kind = mse_spike_time")
        cfg, out = write_config(tmp_path, text)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: config key 'objective.kind': {kind} training needs ce_spike_rate, ce_spike_time, max_membrane_ce, "
            "mse_membrane, mse_relative_spike_time, mse_spike_rate or sum_membrane_ce\n"
        )
        assert not out.exists()

    def test_online_membrane_target_needs_its_correct_value(self, tmp_path, capsys):
        cfg, out = write_config(
            tmp_path, ONLINE_CONFIG.replace("objective.kind = mse_spike_rate", "objective.kind = mse_membrane")
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: missing required config key 'objective.membrane_target_correct'\n"
        assert not out.exists()

    @pytest.mark.parametrize("trainer, kind, key", [
        (trainer, kind, key)
        for trainer, kinds in ACCEPTED_KINDS.items()
        for kind in kinds
        for key in sorted(sum(OBJECTIVE_KEYS.values(), ()))
        if key not in objective_keys_read(trainer, kind)
    ])
    def test_foreign_objective_key_is_an_error(self, tmp_path, capsys, trainer, kind, key):
        text = objective_config(trainer, kind, objective_keys_read(trainer, kind) + (key,))
        cfg, out = write_config(tmp_path, text)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown config key 'objective.{key}' for trainer.kind = {trainer}, objective.kind = {kind}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("trainer", sorted(ACCEPTED_KINDS))
    def test_every_accepted_objective_kind_trains(self, tmp_path, trainer):
        for kind in ACCEPTED_KINDS[trainer]:
            text = objective_config(trainer, kind, objective_keys_read(trainer, kind)).replace(
                "train.epochs = 3", "train.epochs = 1"
            )
            cfg, out = write_config(tmp_path, text, out_dir=tmp_path / kind)
            assert main(["train", "--config", str(cfg)]) == 0, kind
            assert (out / "history.csv").exists()

    @pytest.mark.parametrize("kind", ["bptt", "online", "perturbation", "spikeprop"])
    def test_label_outside_the_outputs_is_a_config_error(self, tmp_path, capsys, kind):
        # one output fewer than the task has classes: label 1 indexes no output
        text = TRAINER_CONFIGS[kind].replace("model.layers = 4,6,2", "model.layers = 4,6,1")
        cfg, out = write_config(tmp_path, text.replace("model.layers = 4,2", "model.layers = 4,1"))
        assert main(["train", "--config", str(cfg)]) == 2
        first = 2 if kind == "spikeprop" else 4  # the first sample of class 1
        assert capsys.readouterr().err == (
            f"error: config key 'model.layers': label 1 of sample {first} is not an output index in [0, 1)\n"
        )
        assert not out.exists()

    def test_stdp_reads_no_label(self, tmp_path):
        cfg, out = write_config(tmp_path, STDP_CONFIG.replace("model.layers = 4,3", "model.layers = 4,1"))
        assert main(["train", "--config", str(cfg)]) == 0
        assert (out / "checkpoint.txt").exists()

    def test_scored_spike_total_is_the_exact_sum(self):
        # 7 one-spike samples among 100: the mean scaled back, (7 / 100) * 100, is 7.000000000000001
        fires_once = np.array([[1.0], [0.0], [0.0]])  # u = 1.5 > 1, then 0.35 after the reset
        samples = [(fires_once if i < 7 else np.zeros((3, 1)), 0) for i in range(100)]
        cfg = SimpleNamespace(dataset=Dataset(samples), objective=ObjectiveSpec(ObjectiveKind.CE_SPIKE_RATE))
        model = [SnnLayer(w=np.array([[1.5]]), lif=LifParams(beta=0.9))]
        assert _scored_epoch(cfg, model, 0, 0.0).total_spikes == 7.0


class TestEvalCommand:
    def test_eval_after_train(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, RATE_CONFIG)
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["eval", "--checkpoint", str(out / "checkpoint.txt"), "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert "accuracy=" in stdout
        rows = (out / "eval.csv").read_text().splitlines()
        assert rows[0] == "sample,label,prediction,spikes"
        assert len(rows) == 1 + 8  # 4 samples per class x 2 classes

    def test_spikeprop_config_is_an_error(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, SPIKEPROP_CONFIG)
        assert main(["eval", "--checkpoint", str(tmp_path / "checkpoint.txt"), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: config key 'trainer.kind': spikeprop writes no checkpoint for eval to score\n"
        )
        assert not out.exists()


class TestCheckpointFeedback:
    def test_random_fixed_checkpoint_keeps_the_initial_draw(self, tmp_path):
        from spikegrad.bptt import load_checkpoint
        from spikegrad.config import load_run_config

        cfg_path, out = write_config(tmp_path, RATE_CONFIG + "trainer.feedback = random_fixed\n")
        assert main(["train", "--config", str(cfg_path)]) == 0
        cfg = load_run_config(cfg_path)
        drawn = cfg.build_model(np.random.default_rng(cfg.seed))
        loaded = load_checkpoint(out / "checkpoint.txt")
        assert len(loaded) == len(drawn) == 2
        for a, b in zip(drawn, loaded):
            assert np.array_equal(a.feedback_b, b.feedback_b)


class TestEncodeCommand:
    def test_rate_encode_all_zero_features_header_only(self, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("0.0,0.0,0.0\n")
        out = tmp_path / "z.ev"
        assert main(["encode", "--scheme", "rate", "--in", str(feats), "--out", str(out), "--t-steps", "6"]) == 0
        assert out.read_text() == "# T=6 N=3\n"

    def test_latency_encode(self, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("1.0,0.2\n")
        out = tmp_path / "l.ev"
        assert main([
            "encode", "--scheme", "latency", "--in", str(feats), "--out", str(out),
            "--t-steps", "10", "--tau", "1.0", "--theta", "0.5",
        ]) == 0
        raster = load_events(out)
        assert raster.data[1, 0] == 1.0  # round(ln 2)
        assert raster.data[:, 1].sum() == 0.0

    def test_delta_encode_bipolar_needs_off_file(self, tmp_path, capsys):
        feats = tmp_path / "sig.csv"
        feats.write_text("0.0,0.0\n1.0,0.0\n0.0,0.0\n")
        out = tmp_path / "d.ev"
        assert main([
            "encode", "--scheme", "delta", "--in", str(feats), "--out", str(out),
            "--threshold", "0.5", "--bipolar",
        ]) == 2
        assert "--out-off" in capsys.readouterr().err
        off = tmp_path / "d_off.ev"
        assert main([
            "encode", "--scheme", "delta", "--in", str(feats), "--out", str(out),
            "--threshold", "0.5", "--bipolar", "--out-off", str(off),
        ]) == 0
        assert load_events(out).data[1, 0] == 1.0
        assert load_events(off).data[2, 0] == 1.0

    def test_delta_encode_positive_only(self, tmp_path):
        feats = tmp_path / "sig.csv"
        feats.write_text("0,0\n0.5,0\n0.5,1\n0,1\n")
        out = tmp_path / "d.ev"
        assert main(["encode", "--scheme", "delta", "--in", str(feats), "--out", str(out), "--threshold", "0.1"]) == 0
        # rises fire; the fall of input 0 at step 3 does not
        assert out.read_text() == "# T=4 N=2\n1,0\n2,1\n"

    def test_rate_encode_rejects_nan_feature(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        features.write_text("nan,0.5\n")
        args = ["encode", "--scheme", "rate", "--in", str(features), "--out", str(tmp_path / "x.ev"), "--t-steps", "5"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: rate features must lie in [0, 1]\n"
        assert not (tmp_path / "x.ev").exists()

    @pytest.mark.parametrize(
        "scheme, rows, flags, message",
        [
            ("latency", "0.9,nan,inf,0.2\n", [], "feature 1 is nan; latency features must be finite"),
            ("latency", "0.9,0.2\n", ["--tau", "inf"], "tau must be finite and positive, got inf"),
            ("latency", "0.9,0.2\n", ["--theta", "nan"], "theta must be finite and positive, got nan"),
            ("delta", "0,0\nnan,1\n1,1\n", [], "signal[1, 0] is nan; delta signals must be finite"),
            ("delta", "0,0\n1,1\n", ["--threshold", "inf"], "threshold must be finite and positive, got inf"),
        ],
        ids=["latency-feature", "latency-tau", "latency-theta", "delta-signal", "delta-threshold"],
    )
    def test_non_finite_input_is_refused(self, tmp_path, capsys, scheme, rows, flags, message):
        features = tmp_path / "f.csv"
        features.write_text(rows)
        out = tmp_path / "x.ev"
        assert main(["encode", "--scheme", scheme, "--in", str(features), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_feature_file(self, tmp_path, capsys):
        assert main(["encode", "--scheme", "rate", "--in", str(tmp_path / "x.csv"), "--out", str(tmp_path / "y.ev")]) == 2


class TestGradcheckCommand:
    def test_rtrl_suite_exits_zero(self, capsys):
        assert main(["gradcheck", "--suite", "rtrl-vs-bptt", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "max_rel_err" in out and "PASS" in out

    def test_beta_power_suite_exits_zero(self, capsys):
        assert main(["gradcheck", "--suite", "beta-power"]) == 0

    def test_relaxed_fd_suite_exits_zero(self, capsys):
        assert main(["gradcheck", "--suite", "relaxed-fd", "--seed", "3"]) == 0

    def test_spikeprop_fd_suite_exits_zero(self, capsys):
        assert main(["gradcheck", "--suite", "spikeprop-fd", "--seed", "3"]) == 0

    def test_each_line_names_the_case_the_seed_drew(self, capsys):
        outs = []
        for seed in ("0", "1"):
            assert main(["gradcheck", "--suite", "beta-power", "--seed", seed]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]
        assert outs[0].startswith("beta-power-ratio (beta=0.8, w_probe=0.05): max_rel_err=")

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_one_without_a_traceback(self, unbuffered):
        # the read end closes before the child prints, so its first write to stdout fails
        # (reading a line first would race the child's remaining writes)
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        try:
            proc = subprocess.run([sys.executable, "-m", "spikegrad.cli", "gradcheck", "--suite", "rtrl-vs-bptt"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestStdpDemoCommand:
    def test_writes_window_curve(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        out = tmp_path / "demo_out"
        cfg.write_text(
            f"stdp.a_plus = 1.0\nstdp.a_minus = -1.0\nstdp.tau_plus = 10\nstdp.tau_minus = 10\n"
            f"stdp.window = 30\ntrain.out_dir = {out}\n"
        )
        assert main(["stdp-demo", "--config", str(cfg)]) == 0
        rows = (out / "stdp_curve.csv").read_text().splitlines()
        assert rows[0] == "delta_t,delta_w"
        assert len(rows) == 1 + 61  # dt in [-30, 30]
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        causal = data[data[:, 0] < 0, 1]
        anti = data[data[:, 0] > 0, 1]
        assert np.all(causal > 0) and np.all(anti < 0)
        at_zero = data[data[:, 0] == 0, 1]
        assert at_zero[0] == 0.0

    def test_infinite_window_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(f"stdp.window = inf\ntrain.out_dir = {tmp_path / 'demo_out'}\n")
        assert main(["stdp-demo", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config key 'stdp.window': stdp-demo needs a finite window, got inf\n"
        assert not (tmp_path / "demo_out").exists()

    def test_negative_window_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(f"stdp.window = -5\ntrain.out_dir = {tmp_path / 'demo_out'}\n")
        assert main(["stdp-demo", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config key 'stdp.*': window must be >= 0, got -5.0\n"
        assert not (tmp_path / "demo_out").exists()

    def test_bad_number_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("stdp.a_plus = abc\n")
        assert main(["stdp-demo", "--config", str(cfg)]) == 2
        assert "stdp.a_plus" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("stdp.a_plus = 1.0\nstdp.mystery = 2\n")
        assert main(["stdp-demo", "--config", str(cfg)]) == 2
        assert "stdp.mystery" in capsys.readouterr().err
