"""Synthetic desk-scale datasets and event-file dataset loading.

Two generators cover the two main codes: a rate discrimination task
(classes differ only in Bernoulli firing probability) and a latency task
(classes are fixed orderings of single-spike times, jittered per sample).
Both are deterministic functions of their seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import load_events
from .neuron import SpikeRaster, _as_matrix

__all__ = ["Dataset", "gen_rate_task", "gen_latency_task", "load_event_dataset"]


@dataclass
class Dataset:
    """Uniformly shaped samples: list of (input raster/matrix, label or payload)."""

    samples: list

    def __post_init__(self):
        shapes = {_as_matrix(x).shape for x, _ in self.samples}
        if len(shapes) > 1:
            raise ValueError(f"samples are not uniformly shaped: {sorted(shapes)}")


def _samples(dataset) -> list:
    """The samples of a Dataset, or of any other iterable of samples; raises when there are none."""
    samples = dataset.samples if hasattr(dataset, "samples") else list(dataset)
    if len(samples) == 0:
        raise ValueError("dataset is empty")
    return samples


def _at_least_one(**sizes) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def gen_rate_task(
    seed: int,
    n_inputs: int,
    t_steps: int,
    rate_lo: float,
    rate_hi: float,
    n_samples_per_class: int,
) -> Dataset:
    """Two-class Bernoulli rate discrimination.

    Every input of a class-0 sample fires with probability rate_lo, of a
    class-1 sample with rate_hi.
    """
    _at_least_one(n_inputs=n_inputs, t_steps=t_steps, n_samples_per_class=n_samples_per_class)
    if not (0.0 <= rate_lo < rate_hi <= 1.0):
        raise ValueError(f"need 0 <= rate_lo < rate_hi <= 1, got {rate_lo}, {rate_hi}")
    rng = np.random.default_rng(seed)
    samples = []
    for label, rate in enumerate((rate_lo, rate_hi)):
        for _ in range(n_samples_per_class):
            raster = SpikeRaster(
                (rng.random((t_steps, n_inputs)) < rate).astype(np.float64)
            )
            samples.append((raster, label))
    return Dataset(samples=samples)


def gen_latency_task(
    seed: int,
    n_inputs: int,
    t_steps: int,
    n_classes: int,
    n_samples_per_class: int = 20,
    jitter: int = 1,
) -> Dataset:
    """Classes are distinct permutations of single-spike times over the inputs.

    Class c's template assigns each input one slot of an evenly spaced time
    grid; the earliest slot always belongs to input c, so with zero jitter
    the classes are separable by first-spike order alone.  Each sample
    jitters every spike by up to +-jitter steps (clipped to the horizon).
    """
    _at_least_one(n_inputs=n_inputs, t_steps=t_steps, n_samples_per_class=n_samples_per_class)
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    if n_inputs < n_classes:
        raise ValueError(f"need n_inputs >= n_classes, got {n_inputs} < {n_classes}")
    rng = np.random.default_rng(seed)
    lo = jitter + 1
    hi = t_steps - jitter - 1
    if hi - lo < n_inputs:
        raise ValueError(f"t_steps={t_steps} too short for {n_inputs} distinct slots")
    slots = np.round(np.linspace(lo, hi, n_inputs)).astype(int)

    templates = []
    seen = set()
    for c in range(n_classes):
        while True:
            rest = rng.permutation([i for i in range(n_inputs) if i != c])
            order = np.concatenate(([c], rest))  # input c gets the earliest slot
            key = tuple(order)
            if key not in seen:
                seen.add(key)
                break
        times = np.empty(n_inputs, dtype=int)
        times[order] = slots
        templates.append(times)

    samples = []
    for c in range(n_classes):
        for _ in range(n_samples_per_class):
            times = templates[c]
            if jitter > 0:
                times = np.clip(
                    times + rng.integers(-jitter, jitter + 1, size=n_inputs),
                    0,
                    t_steps - 1,
                )
            raster = np.zeros((t_steps, n_inputs))
            raster[times, np.arange(n_inputs)] = 1.0
            samples.append((SpikeRaster(raster), c))
    return Dataset(samples=samples)


def load_event_dataset(manifest_path) -> Dataset:
    """Build a dataset from a manifest of `<event-file-path>,<label>` lines.

    Relative paths are resolved against the manifest's directory.
    """
    import os

    base = os.path.dirname(os.path.abspath(manifest_path))
    samples = []
    with open(manifest_path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.rsplit(",", 1)
            if len(parts) != 2:
                raise ValueError(
                    f"{manifest_path}:{line_no}: expected '<path>,<label>', got {line!r}"
                )
            path, label = parts[0].strip(), parts[1].strip()
            try:
                label = int(label)
            except ValueError:
                raise ValueError(
                    f"{manifest_path}:{line_no}: label must be an integer, got {label!r}"
                ) from None
            if not os.path.isabs(path):
                path = os.path.join(base, path)
            samples.append((load_events(path), label))
    if not samples:
        raise ValueError(f"{manifest_path}: no samples listed")
    return Dataset(samples=samples)
