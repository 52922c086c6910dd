"""Unit tests for event files, task generators and config parsing."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spikegrad.bptt import Feedback, OptimizerKind, OptimizerState, optimizer_step
from spikegrad.config import (
    _OPTIMIZER_KEYS, _SURROGATE_KEYS, TRAINER_KINDS, ConfigError, load_run_config, parse_config_file,
)
from spikegrad.events import EventFormatError, load_events, save_events
from spikegrad.neuron import LifParams, ResetMode, SpikeRaster, beta_from_tau
from spikegrad.objectives import Inversion, ObjectiveKind, ObjectiveSpec, RegularizerSpec
from spikegrad.plasticity import Pairing, StdpParams
from spikegrad.spikeprop import SrmNet
from spikegrad.surrogate import SurrogateKind, SurrogateVariant, surrogate_grad
from spikegrad.tasks import Dataset, gen_latency_task, gen_rate_task, load_event_dataset


class TestEventFiles:
    def test_empty_raster_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.ev"
        save_events(SpikeRaster(np.zeros((6, 3))), path)
        assert path.read_text() == "# T=6 N=3\n"
        loaded = load_events(path)
        assert loaded.data.shape == (6, 3)
        assert loaded.data.sum() == 0

    def test_events_written_sorted_by_t_then_i(self, tmp_path):
        raster = np.zeros((5, 4))
        raster[0, 2] = 1.0
        raster[3, 0] = 1.0
        path = tmp_path / "two.ev"
        save_events(SpikeRaster(raster), path)
        assert path.read_text() == "# T=5 N=4\n0,2\n3,0\n"

    def test_round_trip_random_raster(self, tmp_path):
        rng = np.random.default_rng(0)
        raster = SpikeRaster((rng.random((30, 7)) < 0.2).astype(float))
        path = tmp_path / "rt.ev"
        save_events(raster, path)
        again = load_events(path)
        assert np.array_equal(raster.data, again.data)
        path2 = tmp_path / "rt2.ev"
        save_events(again, path2)
        assert path.read_bytes() == path2.read_bytes()

    _ids = itertools.count()

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        t_steps=st.integers(1, 20),
        n=st.integers(1, 8),
        seed=st.integers(0, 10_000),
        density=st.floats(0.0, 1.0),
    )
    def test_round_trip_property(self, tmp_path, t_steps, n, seed, density):
        rng = np.random.default_rng(seed)
        raster = SpikeRaster((rng.random((t_steps, n)) < density).astype(float))
        path = tmp_path / f"h{next(self._ids)}.ev"  # fresh file per example
        save_events(raster, path)
        assert np.array_equal(load_events(path).data, raster.data)

    def test_headerless_file_infers_shape(self, tmp_path):
        path = tmp_path / "nh.ev"
        path.write_text("0,1\n2,0\n")
        loaded = load_events(path)
        assert loaded.data.shape == (3, 2)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.ev"
        path.write_text("# T=4 N=2\n0,1\nnonsense\n")
        with pytest.raises(EventFormatError, match=":3:"):
            load_events(path)

    def test_unsorted_events_rejected(self, tmp_path):
        path = tmp_path / "uns.ev"
        path.write_text("# T=9 N=2\n3,0\n1,1\n")
        with pytest.raises(EventFormatError, match="sorted"):
            load_events(path)

    def test_out_of_range_event_rejected(self, tmp_path):
        path = tmp_path / "oor.ev"
        path.write_text("# T=4 N=2\n5,0\n")
        with pytest.raises(EventFormatError, match="outside declared"):
            load_events(path)

    def test_negative_coordinates_rejected(self, tmp_path):
        path = tmp_path / "neg.ev"
        path.write_text("1,-2\n")
        with pytest.raises(EventFormatError, match="negative"):
            load_events(path)


class TestRateTask:
    def test_zero_low_rate_gives_silent_class(self):
        ds = gen_rate_task(seed=1, n_inputs=5, t_steps=20, rate_lo=0.0, rate_hi=0.5, n_samples_per_class=4)
        for raster, label in ds.samples:
            if label == 0:
                assert raster.data.sum() == 0

    def test_high_rate_mean_count_within_three_sigma(self):
        # mean spike count per input ~ 80 +- 12 (3 sigma of a single count)
        t_steps, rate = 100, 0.8
        ds = gen_rate_task(seed=2, n_inputs=20, t_steps=t_steps, rate_lo=0.1, rate_hi=rate, n_samples_per_class=10)
        counts = np.concatenate(
            [r.counts() for r, label in ds.samples if label == 1]
        )
        sigma = np.sqrt(t_steps * rate * (1 - rate))
        assert abs(counts.mean() - t_steps * rate) <= 3 * sigma

    def test_same_seed_identical_datasets(self):
        a = gen_rate_task(seed=9, n_inputs=4, t_steps=15, rate_lo=0.2, rate_hi=0.7, n_samples_per_class=3)
        b = gen_rate_task(seed=9, n_inputs=4, t_steps=15, rate_lo=0.2, rate_hi=0.7, n_samples_per_class=3)
        for (ra, la), (rb, lb) in zip(a.samples, b.samples):
            assert la == lb
            assert np.array_equal(ra.data, rb.data)

    @pytest.mark.parametrize("name, value", [("n_inputs", 0), ("t_steps", 0), ("n_samples_per_class", 0)])
    def test_empty_sizes_rejected(self, name, value):
        sizes = dict(n_inputs=2, t_steps=5, n_samples_per_class=1) | {name: value}
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
            gen_rate_task(seed=0, rate_lo=0.2, rate_hi=0.8, **sizes)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            gen_rate_task(seed=0, n_inputs=2, t_steps=5, rate_lo=0.5, rate_hi=0.5, n_samples_per_class=1)
        with pytest.raises(ValueError):
            gen_rate_task(seed=0, n_inputs=2, t_steps=5, rate_lo=-0.1, rate_hi=0.5, n_samples_per_class=1)


class TestLatencyTask:
    def test_zero_jitter_makes_class_samples_identical(self):
        ds = gen_latency_task(seed=3, n_inputs=6, t_steps=20, n_classes=3, n_samples_per_class=5, jitter=0)
        by_class = {}
        for raster, label in ds.samples:
            by_class.setdefault(label, []).append(raster.data)
        for rasters in by_class.values():
            for r in rasters[1:]:
                assert np.array_equal(r, rasters[0])

    def test_single_spike_per_input(self):
        ds = gen_latency_task(seed=4, n_inputs=6, t_steps=20, n_classes=3, n_samples_per_class=4, jitter=1)
        for raster, _ in ds.samples:
            assert np.all(raster.counts() == 1.0)

    def test_first_spike_orderings_separate_classes(self):
        # with zero jitter, a readout wired to each class's earliest input
        # classifies perfectly by first output spike
        from spikegrad.bptt import SnnLayer, forward
        from spikegrad.codec import latency_decode
        from spikegrad.neuron import LifParams

        n_classes = 3
        ds = gen_latency_task(seed=5, n_inputs=6, t_steps=24, n_classes=n_classes, n_samples_per_class=2, jitter=0)
        w = np.zeros((n_classes, 6))
        for raster, label in ds.samples:
            first_input = int(np.argmin(raster.data.argmax(axis=0)))  # every input spikes once
            assert first_input == label  # at zero jitter input c fires first in every class-c sample
            w[label, first_input] = 2.0
        model = [SnnLayer(w=w, lif=LifParams(beta=0.9, theta0=1.0))]
        for raster, label in ds.samples:
            pred = latency_decode(forward(model, raster.data).output_spikes())
            assert pred == label

    def test_distinct_templates(self):
        # at zero jitter a sample's raster is its class template: one spike step per input
        ds = gen_latency_task(seed=6, n_inputs=5, t_steps=24, n_classes=4, n_samples_per_class=1, jitter=0)
        templates = {tuple(raster.data.argmax(axis=0)) for raster, _ in ds.samples}
        assert len(templates) == 4

    def test_same_seed_reproducible(self):
        a = gen_latency_task(seed=8, n_inputs=5, t_steps=22, n_classes=3, n_samples_per_class=3)
        b = gen_latency_task(seed=8, n_inputs=5, t_steps=22, n_classes=3, n_samples_per_class=3)
        for (ra, la), (rb, lb) in zip(a.samples, b.samples):
            assert la == lb and np.array_equal(ra.data, rb.data)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_latency_task(seed=0, n_inputs=4, t_steps=20, n_classes=1)
        with pytest.raises(ValueError):
            gen_latency_task(seed=0, n_inputs=2, t_steps=20, n_classes=3)

    @pytest.mark.parametrize("name, value, message", [
        ("n_inputs", 0, "n_inputs must be >= 1, got 0"),
        ("t_steps", 0, "t_steps must be >= 1, got 0"),
        ("n_samples_per_class", 0, "n_samples_per_class must be >= 1, got 0"),
        ("jitter", -1, "jitter must be >= 0, got -1"),
    ])
    def test_sizes_out_of_range_rejected(self, name, value, message):
        sizes = dict(n_inputs=4, t_steps=20, n_classes=2, n_samples_per_class=2, jitter=1) | {name: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            gen_latency_task(seed=0, **sizes)


class TestEventDataset:
    def test_manifest_loading(self, tmp_path):
        r1 = SpikeRaster(np.eye(3))
        r2 = SpikeRaster(np.zeros((3, 3)))
        save_events(r1, tmp_path / "a.ev")
        save_events(r2, tmp_path / "b.ev")
        manifest = tmp_path / "labels.txt"
        manifest.write_text("a.ev,0\nb.ev,1\n")
        ds = load_event_dataset(manifest)
        assert len(ds.samples) == 2
        assert np.array_equal(ds.samples[0][0].data, np.eye(3))
        assert ds.samples[1][1] == 1

    def test_bad_manifest_line_named(self, tmp_path):
        manifest = tmp_path / "labels.txt"
        manifest.write_text("only-a-path\n")
        with pytest.raises(ValueError, match="labels.txt:1"):
            load_event_dataset(manifest)

    def test_non_integer_label_named(self, tmp_path):
        save_events(SpikeRaster(np.eye(3)), tmp_path / "e.txt")
        manifest = tmp_path / "labels.txt"
        manifest.write_text("e.txt,0\ne.txt,abc\n")
        with pytest.raises(ValueError, match="labels.txt:2: label must be an integer, got 'abc'"):
            load_event_dataset(manifest)

    def test_non_uniform_shapes_rejected(self, tmp_path):
        save_events(SpikeRaster(np.zeros((3, 2))), tmp_path / "a.ev")
        save_events(SpikeRaster(np.zeros((4, 2))), tmp_path / "b.ev")
        manifest = tmp_path / "labels.txt"
        manifest.write_text("a.ev,0\nb.ev,1\n")
        with pytest.raises(ValueError, match="uniform"):
            load_event_dataset(manifest)

    def test_sample_that_is_not_a_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"expected a T x N matrix, got shape \(5,\)"):
            Dataset(samples=[(np.zeros((4, 5)), 0), (np.zeros(5), 1)])


BASE_CONFIG = """
task.kind = rate
task.n_inputs = 4
task.t_steps = 12
task.rate_lo = 0.1
task.rate_hi = 0.9
task.samples_per_class = 3
model.layers = 4,6,2
model.beta = 0.9
objective.kind = ce_spike_rate
optimizer.kind = adam
optimizer.lr = 0.001
train.epochs = 2
train.seed = 7
"""


class TestConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_parse_and_build(self, tmp_path):
        cfg = load_run_config(self.write(tmp_path, BASE_CONFIG))
        assert cfg.layer_sizes == [4, 6, 2]
        assert cfg.epochs == 2
        assert len(cfg.dataset.samples) == 6
        model = cfg.build_model(np.random.default_rng(0))
        assert [l.w.shape for l in model] == [(6, 4), (2, 6)]

    def test_unknown_key_named(self, tmp_path):
        path = self.write(tmp_path, BASE_CONFIG + "model.typo = 3\n")
        with pytest.raises(ConfigError, match="model.typo"):
            load_run_config(path)

    def test_missing_required_key_named(self, tmp_path):
        path = self.write(tmp_path, BASE_CONFIG.replace("objective.kind = ce_spike_rate\n", ""))
        with pytest.raises(ConfigError, match="objective.kind"):
            load_run_config(path)

    def test_bad_value_names_key(self, tmp_path):
        path = self.write(tmp_path, BASE_CONFIG.replace("train.epochs = 2", "train.epochs = two"))
        with pytest.raises(ConfigError, match="train.epochs"):
            load_run_config(path)

    def test_layer_size_must_match_task(self, tmp_path):
        path = self.write(tmp_path, BASE_CONFIG.replace("model.layers = 4,6,2", "model.layers = 5,6,2"))
        with pytest.raises(ConfigError, match="model.layers"):
            load_run_config(path)

    def test_negative_manifest_label_is_rejected(self, tmp_path):
        for name in ("a.ev", "b.ev"):
            save_events(SpikeRaster(np.zeros((12, 4))), tmp_path / name)
        (tmp_path / "labels.txt").write_text("a.ev,0\nb.ev,-1\n")
        path = self.write(tmp_path, (
            f"task.kind = events\ntask.manifest = {tmp_path / 'labels.txt'}\n"
            "model.layers = 4,2\nobjective.kind = ce_spike_rate\n"
        ))
        with pytest.raises(ConfigError, match=r"'model.layers': label -1 of sample 1 is not an output index in \[0, 2\)"):
            load_run_config(path)

    def test_events_task_has_no_class_count_key(self, tmp_path):
        for name in ("a.ev", "b.ev"):
            save_events(SpikeRaster(np.zeros((12, 4))), tmp_path / name)
        (tmp_path / "labels.txt").write_text("a.ev,0\nb.ev,1\n")
        path = self.write(tmp_path, (
            f"task.kind = events\ntask.manifest = {tmp_path / 'labels.txt'}\ntask.n_classes = 2\n"
            "model.layers = 4,2\nobjective.kind = ce_spike_rate\n"
        ))
        with pytest.raises(
            ConfigError, match=r"^unknown config key 'task.n_classes' for trainer.kind = bptt, objective.kind = ce_spike_rate$"
        ):
            load_run_config(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = self.write(tmp_path, "this is not a key value pair\n")
        with pytest.raises(ConfigError, match=":1:"):
            parse_config_file(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        raw = parse_config_file(self.write(tmp_path, "# comment\n\na.b = 1  # trailing\n"))
        assert raw == {"a.b": "1"}

    @pytest.mark.parametrize("task, key, value, minimum", [
        ("rate", "task.n_inputs", 0, 1),
        ("rate", "task.t_steps", 0, 1),
        ("rate", "task.samples_per_class", 0, 1),
        ("latency", "task.n_inputs", 0, 1),
        ("latency", "task.t_steps", 0, 1),
        ("latency", "task.samples_per_class", 0, 1),
        ("latency", "task.jitter", -1, 0),
        ("latency", "task.n_classes", 1, 2),
    ])
    def test_task_sizes_are_range_checked(self, tmp_path, task, key, value, minimum):
        text = BASE_CONFIG if task == "rate" else BASE_CONFIG.replace("task.kind = rate", "task.kind = latency").replace(
            "task.rate_lo = 0.1\ntask.rate_hi = 0.9\n", "task.n_classes = 2\ntask.jitter = 1\n"
        )
        lines = [line for line in text.splitlines() if not line.startswith(key + " ")]
        path = self.write(tmp_path, "\n".join(lines) + f"\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"^config key '{key}': must be at least {minimum}, got {value}$"):
            load_run_config(path)

    def test_unknown_enum_value_rejected(self, tmp_path):
        path = self.write(tmp_path, BASE_CONFIG + "trainer.kind = quantum\n")
        with pytest.raises(ConfigError, match="trainer.kind"):
            load_run_config(path)

    MINIMAL_CONFIG = """
task.kind = rate
task.n_inputs = 4
task.t_steps = 12
task.rate_lo = 0.1
task.rate_hi = 0.9
task.samples_per_class = 3
model.layers = 4,6,2
objective.kind = ce_spike_rate
"""
    # spikeprop: one weight layer, no objective.kind, and its two required target keys
    SPIKEPROP_MINIMAL = MINIMAL_CONFIG.replace("model.layers = 4,6,2", "model.layers = 4,2").replace(
        "objective.kind = ce_spike_rate\n", "spikeprop.target_correct = 1.5\nspikeprop.target_incorrect = 3\n"
    )

    # online has no per-step form of ce_spike_rate; under mse_spike_rate its target is the class one-hot
    MINIMAL_OBJECTIVE = {"online": ObjectiveKind.MSE_SPIKE_RATE}

    def minimal(self, kind, objective=None):
        if kind == "spikeprop":
            return self.SPIKEPROP_MINIMAL + "trainer.kind = spikeprop\n"
        objective = objective or self.MINIMAL_OBJECTIVE.get(kind, ObjectiveKind.CE_SPIKE_RATE).value
        return self.MINIMAL_CONFIG.replace("ce_spike_rate", objective) + f"trainer.kind = {kind}\n"

    def assert_resolves_to(self, cfg, expected):
        """Every field but dataset and raw: the expected value, or None for a field the trainer does not read."""
        names = {f.name for f in dataclasses.fields(cfg)} - {"dataset", "raw"}
        assert set(expected) <= names
        for name in sorted(names):
            assert repr(getattr(cfg, name)) == repr(expected.get(name)), name

    @staticmethod
    def srm_net(seed, n_in, n_out, **kw):
        w = np.random.default_rng(seed).uniform(0.5, 1.5, size=(n_out, n_in)) * (2.0 / n_in)
        return SrmNet(w=w, **kw)

    @pytest.mark.parametrize("kind", TRAINER_KINDS)
    def test_minimal_config_resolves_every_default(self, tmp_path, kind):
        cfg = load_run_config(self.write(tmp_path, self.minimal(kind)))
        lif = LifParams(beta=0.9, theta0=1.0, reset_mode=ResetMode.SUBTRACT, adapt_alpha=0.0, learn_beta=False)
        layers = {
            "lif_params": [lif, lif],
            "recurrent": [False, False],
            "objective": ObjectiveSpec(
                kind=self.MINIMAL_OBJECTIVE.get(kind, ObjectiveKind.CE_SPIKE_RATE), inversion=Inversion.NEGATE,
                f0=0.0, gamma=0.0, count_target_correct=None, count_target_incorrect=None,
                membrane_target_correct=None, membrane_target_incorrect=0.0,
            ),
        }
        gradient = {
            "surrogate": SurrogateKind(SurrogateVariant.FAST_SIGMOID, k=25.0, c=0.0, scale=1.0),
            "optimizer": OptimizerState(OptimizerKind.ADAM, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8),
        }
        own = {
            "bptt": layers | gradient | {
                "regularizer": RegularizerSpec(
                    lambda_l1=0.0, lambda_upper=0.0, theta_upper=0.0, upper_exponent=2,
                    lambda_lower=0.0, theta_lower=0.0,
                ),
                "feedback": Feedback.SYMMETRIC,
                "detach_reset": True,
                "batch_size": 32,
            },
            "online": layers | gradient | {"update_interval": math.inf},
            "stdp": layers | {
                "stdp": StdpParams(
                    a_plus=0.01, a_minus=-0.012, tau_plus=20.0, tau_minus=20.0, w_min=-1.0, w_max=1.0,
                    pairing=Pairing.ALL_PAIRS, window=100.0,
                ),
            },
            "perturbation": layers | {"perturb_sigma": 0.01, "perturb_trials": 100},
            "spikeprop": {
                "layer_sizes": [4, 2],
                "optimizer": OptimizerState(OptimizerKind.SGD, lr=0.001),
                "srm_net": self.srm_net(0, 4, 2, tau=1.0, theta=1.0, t_end=6.0, dt_fine=0.001),
                "spike_targets": (1.5, 3.0),
            },
        }[kind]
        self.assert_resolves_to(cfg, {
            "trainer_kind": kind, "layer_sizes": [4, 6, 2], "epochs": 1, "seed": 0, "out_dir": ".", **own
        })

    # the optional keys of each section, and the trainers that read them
    MODEL_KEYS = """
model.tau = 7.5
model.theta = 1.25,0.75
model.reset = zero
model.adapt_alpha = 0.3
model.learn_beta = yes
model.recurrent = 1,0
"""
    # each objective kind with the objective.* keys it reads, set to values that are not the defaults
    OBJECTIVE_KEYS = {
        ObjectiveKind.MSE_SPIKE_RATE: "objective.count_target_correct = 5\nobjective.count_target_incorrect = 1\n",
        ObjectiveKind.MSE_MEMBRANE: (
            "objective.membrane_target_correct = 1.5\nobjective.membrane_target_incorrect = 0.125\n"
        ),
        ObjectiveKind.CE_SPIKE_TIME: "objective.inversion = reciprocal\n",
        ObjectiveKind.MSE_RELATIVE_SPIKE_TIME: "objective.f0 = 0.5\nobjective.gamma = 0.25\n",
    }
    RESOLVED_OBJECTIVES = {
        ObjectiveKind.MSE_SPIKE_RATE: {"count_target_correct": 5.0, "count_target_incorrect": 1.0},
        ObjectiveKind.MSE_MEMBRANE: {"membrane_target_correct": 1.5, "membrane_target_incorrect": 0.125},
        ObjectiveKind.CE_SPIKE_TIME: {"inversion": Inversion.RECIPROCAL},
        ObjectiveKind.MSE_RELATIVE_SPIKE_TIME: {"f0": 0.5, "gamma": 0.25},
    }
    # the objective kinds whose keys each trainer reads: online reads only the membrane targets, as its
    # mse_spike_rate target is the class one-hot, and stdp reads objective.kind alone
    READS_OBJECTIVE_KEYS = {
        "bptt": list(OBJECTIVE_KEYS),
        "online": [ObjectiveKind.MSE_MEMBRANE],
        "stdp": [],
        "perturbation": list(OBJECTIVE_KEYS),
        "spikeprop": [],
    }
    # each surrogate variant and optimizer kind (bptt and online) with the keys it reads, set to values
    # that are not the defaults, and the fields those resolve to
    SURROGATE_KEYS = {
        SurrogateVariant.HEAVISIDE: ("", {}),
        SurrogateVariant.SIGMOID: ("surrogate.slope = 10\n", {"k": 10.0}),
        SurrogateVariant.FAST_SIGMOID: ("surrogate.slope = 10\n", {"k": 10.0}),
        SurrogateVariant.TRIANGULAR: ("", {}),
        SurrogateVariant.HYBRID_SPIKE: ("surrogate.subthreshold_scale = 0.2\n", {"c": 0.2}),
        SurrogateVariant.SHIFTED_RELU: ("surrogate.scale = 2\n", {"scale": 2.0}),
    }
    OPTIMIZER_KEYS = {
        OptimizerKind.SGD: ("", {}),
        OptimizerKind.ADAM: (
            "optimizer.beta1 = 0.8\noptimizer.beta2 = 0.99\noptimizer.eps = 1e-6\n",
            {"beta1": 0.8, "beta2": 0.99, "eps": 1e-6},
        ),
    }

    def gradient_cases(self, kind):
        """(config text, resolved fields) for every surrogate variant with every optimizer kind; one empty
        case for a trainer that reads neither."""
        if kind not in ("bptt", "online"):
            return [("", {})]
        return [
            (
                f"surrogate.kind = {variant.value}\n{surrogate_text}"
                f"optimizer.kind = {optimizer.value}\noptimizer.lr = 0.05\n{optimizer_text}",
                {
                    "surrogate": SurrogateKind(variant, **surrogate_fields),
                    "optimizer": OptimizerState(optimizer, lr=0.05, **optimizer_fields),
                },
            )
            for (variant, (surrogate_text, surrogate_fields)), (optimizer, (optimizer_text, optimizer_fields))
            in itertools.product(self.SURROGATE_KEYS.items(), self.OPTIMIZER_KEYS.items())
        ]

    OWN_KEYS = {
        "bptt": MODEL_KEYS + """
reg.lambda_l1 = 0.01
reg.lambda_upper = 0.02
reg.theta_upper = 3
reg.upper_exponent = 1
reg.lambda_lower = 0.03
reg.theta_lower = 0.5
trainer.feedback = random_fixed
trainer.detach_reset = off
train.batch_size = 5
""",
        "online": MODEL_KEYS + """
trainer.update_policy = per_step
trainer.interval = 5
""",
        "stdp": MODEL_KEYS + """
stdp.a_plus = 0.5
stdp.a_minus = -0.25
stdp.tau_plus = 4
stdp.tau_minus = 6
stdp.w_min = -3
stdp.w_max = 2
stdp.pairing = nearest_neighbor
""",
        "perturbation": MODEL_KEYS + """
trainer.sigma = 0.2
trainer.trials = 7
""",
        "spikeprop": """
optimizer.lr = 0.05
spikeprop.tau = 2
spikeprop.theta = 1.5
spikeprop.t_end = 9
spikeprop.dt_fine = 0.001
""",
    }

    @pytest.mark.parametrize("kind", TRAINER_KINDS)
    def test_every_optional_key_resolves_to_its_value(self, tmp_path, kind):
        # every objective kind whose keys the trainer reads, each with those keys; one run without them
        # and, for bptt and online, every surrogate variant and optimizer kind with their keys
        for objective, (gradient_text, gradient) in itertools.product(
            self.READS_OBJECTIVE_KEYS[kind] or [None], self.gradient_cases(kind)
        ):
            text = (
                self.minimal(kind, objective and objective.value) + (self.OBJECTIVE_KEYS.get(objective) or "")
                + gradient_text + self.OWN_KEYS[kind] + "train.epochs = 3\ntrain.seed = 11\ntrain.out_dir = runs/all\n"
            )
            self.assert_resolves_every_key(load_run_config(self.write(tmp_path, text)), kind, objective, gradient)

    def assert_resolves_every_key(self, cfg, kind, objective_kind, gradient):
        def lif(theta0):
            return LifParams(
                beta=beta_from_tau(7.5), theta0=theta0, reset_mode=ResetMode.ZERO,
                adapt_alpha=0.3, learn_beta=True,
            )

        layers = {"lif_params": [lif(1.25), lif(0.75)], "recurrent": [True, False]}
        objective = {
            "objective": ObjectiveSpec(
                kind=objective_kind or self.MINIMAL_OBJECTIVE.get(kind, ObjectiveKind.CE_SPIKE_RATE),
                **self.RESOLVED_OBJECTIVES.get(objective_kind, {}),
            ),
        }
        own = {
            "bptt": layers | objective | gradient | {
                "regularizer": RegularizerSpec(
                    lambda_l1=0.01, lambda_upper=0.02, theta_upper=3.0, upper_exponent=1,
                    lambda_lower=0.03, theta_lower=0.5,
                ),
                "feedback": Feedback.RANDOM_FIXED,
                "detach_reset": False,
                "batch_size": 5,
            },
            "online": layers | objective | gradient | {"update_interval": 5},
            "stdp": layers | {
                "objective": ObjectiveSpec(kind=ObjectiveKind.CE_SPIKE_RATE),
                "stdp": StdpParams(
                    a_plus=0.5, a_minus=-0.25, tau_plus=4.0, tau_minus=6.0, w_min=-3.0, w_max=2.0,
                    pairing=Pairing.NEAREST_NEIGHBOR,
                ),
            },
            "perturbation": layers | objective | {"perturb_sigma": 0.2, "perturb_trials": 7},
            "spikeprop": {
                "layer_sizes": [4, 2],
                "optimizer": OptimizerState(OptimizerKind.SGD, lr=0.05),
                "srm_net": self.srm_net(11, 4, 2, tau=2.0, theta=1.5, t_end=9.0, dt_fine=0.001),
                "spike_targets": (1.5, 3.0),
            },
        }[kind]
        self.assert_resolves_to(cfg, {
            "trainer_kind": kind, "layer_sizes": [4, 6, 2], "epochs": 3, "seed": 11, "out_dir": "runs/all", **own
        })

    def test_stdp_window_is_read_for_all_pairs_only(self, tmp_path):
        text = self.minimal("stdp") + "stdp.window = 12\n"
        assert load_run_config(self.write(tmp_path, text)).stdp.window == 12.0
        path = self.write(tmp_path, text + "stdp.pairing = nearest_neighbor\n")
        with pytest.raises(
            ConfigError, match=r"^unknown config key 'stdp.window' for stdp.pairing = nearest_neighbor$"
        ):
            load_run_config(path)

    def test_spikeprop_net_is_a_fresh_copy_per_build(self, tmp_path):
        cfg = load_run_config(self.write(tmp_path, self.minimal("spikeprop")))
        net = cfg.build_model(np.random.default_rng(0))
        net.w += 1.0
        assert np.array_equal(cfg.build_model(np.random.default_rng(0)).w, cfg.srm_net.w)
        assert not np.array_equal(net.w, cfg.srm_net.w)


class TestKindKeyTables:
    """The config's tables of the keys each surrogate variant and optimizer kind reads, checked against
    the engine: a field outside a kind's entry changes nothing it computes, and a field inside changes it."""

    SURROGATE_FIELDS = {"k": 3.0, "c": 0.4, "scale": 2.5}  # each a value other than the default
    OPTIMIZER_FIELDS = {"beta1": 0.5, "beta2": 0.5, "eps": 0.5}

    @pytest.mark.parametrize("variant", list(_SURROGATE_KEYS), ids=lambda v: v.value)
    def test_surrogate_reads_exactly_its_entry(self, variant):
        theta = 1.0
        u = np.linspace(-1.0, 3.0, 41)
        s = (u > theta).astype(np.float64)
        base = surrogate_grad(SurrogateKind(variant), u, theta, s)
        own = set(_SURROGATE_KEYS[variant])
        assert own <= set(self.SURROGATE_FIELDS)
        for field, value in self.SURROGATE_FIELDS.items():
            moved = surrogate_grad(SurrogateKind(variant, **{field: value}), u, theta, s)
            assert np.array_equal(moved, base) == (field not in own), field

    @pytest.mark.parametrize("kind", list(_OPTIMIZER_KEYS), ids=lambda k: k.value)
    def test_optimizer_reads_exactly_its_entry(self, kind):
        # two steps: at step 1 Adam's bias correction cancels the betas
        grads = [np.array([0.3, -0.1, 2.0]), np.array([-1.5, 0.4, 0.2])]

        def two_steps(**fields):
            state = OptimizerState(kind, lr=0.1, **fields)
            out = np.array([1.0, -2.0, 0.5])
            for g in grads:
                optimizer_step(out, g, state)
            return out

        base = two_steps()
        own = set(_OPTIMIZER_KEYS[kind])
        assert own <= set(self.OPTIMIZER_FIELDS)
        for field, value in self.OPTIMIZER_FIELDS.items():
            assert np.array_equal(two_steps(**{field: value}), base) == (field not in own), field
