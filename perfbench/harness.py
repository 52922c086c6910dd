"""Closed-loop measurement of one workload: one caller, one process, one thread.

A run repeats replicas of the workload (see workloads.py) back to back until
``--seconds`` have passed, and never fewer than the workload's
``min_replicas``.  End-to-end metrics come from the untraced replicas:

  setup_s           median over every set-up of the run (each replica sets up
                    `setup_repeats` times and trains the last one)
  samples_per_s     sample passes of all replicas / their training wall time
  time_to_target_s  mean over replicas of the training time until the first
                    epoch at or below the loss target; every epoch makes the
                    same sample passes, so it is the training time times the
                    share of epochs run by then.  The mean, not the median,
                    because each replica's value moves in whole epochs.
  peak_rss_mb       peak resident memory of the process

A traced run (``--trace 1``) runs each of the first ``min_replicas``
replicas untraced and then with the tracer installed, and reports the
per-layer metrics of the traced passes together with their overhead.  Its
counts repeat exactly from run to run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "time_to_target_s": "s",
    "peak_rss_mb": "MB",
}


def replica_seed(seed: int, index: int) -> int:
    """Input seed of replica ``index`` of a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Outcome:
    setup_s: list[float]
    train_s: float
    epochs_to_target: int | None
    failure: str | None
    digest_part: bytes


def run_replica(wl: Workload, seed: int, index: int, workdir: Path, tracer: Tracer | None = None) -> Outcome:
    """Set up, train and check one replica; any exception is a failed replica."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    setup_s = []
    train_s = math.nan
    try:
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            with span("bench.setup"):
                state = wl.setup(wl, replica_seed(seed, index), workdir)
            setup_s.append(time.perf_counter() - t0)
        t1 = time.perf_counter()
        with span("bench.train"):
            rep = wl.train(state)
        train_s = time.perf_counter() - t1
        failure = wl.check(state, rep)
    except Exception as exc:  # a crashing replica is counted, reported and the run goes on
        traceback.print_exc(file=sys.stderr)
        return Outcome(setup_s, train_s, None, f"{type(exc).__name__}: {exc}", b"")
    reached = wl.epochs_to_target(rep.losses)
    if failure is None and reached is None:
        failure = f"loss target {wl.loss_target} not reached in {wl.epochs} epochs: {rep.losses}"
    h = hashlib.sha256(repr([rep.losses, rep.accuracies]).encode())
    for w in rep.weights:
        h.update(np.ascontiguousarray(w, dtype=np.float64).tobytes())
    return Outcome(setup_s, train_s, reached, failure, h.digest())


def measure(wl: Workload, seed: int, workdir: Path, seconds: float) -> list[Outcome]:
    """Replicas back to back until ``seconds`` pass, and at least min_replicas of them."""
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < wl.min_replicas or time.perf_counter() - start < seconds:
        outcomes.append(run_replica(wl, seed, len(outcomes), workdir))
    return outcomes


def digest(wl: Workload, outcomes: list[Outcome]) -> str:
    """sha256 over the history rows and final weights of the first min_replicas replicas."""
    h = hashlib.sha256()
    for o in outcomes[: wl.min_replicas]:
        h.update(o.digest_part)
    return h.hexdigest()


def summarize(wl: Workload, outcomes: list[Outcome]) -> dict:
    good = [o for o in outcomes if o.failure is None]
    failed = (len(outcomes) - len(good)) * wl.samples
    summary = {
        "replicas": len(outcomes),
        "attempted": len(outcomes) * wl.samples,
        "failed": failed,
        "failures": [o.failure for o in outcomes if o.failure is not None],
        "replica_rows": [[o.setup_s, o.train_s, o.epochs_to_target] for o in outcomes],
        "metrics": {},
    }
    if good:
        train_s = sum(o.train_s for o in good)
        summary["metrics"] = {
            "setup_s": statistics.median(t for o in good for t in o.setup_s),
            "samples_per_s": len(good) * wl.samples / train_s,
            "time_to_target_s": statistics.fmean(
                o.train_s * o.epochs_to_target / wl.epochs for o in good
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return summary


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy releases
        return "unknown"


def environment(root: Path, seed: int, workload: str, samples: int) -> dict:
    src = root / "src" / "spikegrad"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": 1,
        "seed": seed,
        "workload": workload,
        "samples": samples,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def _reference_digest(name: str, seed: int) -> str | None:
    if not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text())
    return ref["digests"].get(name) if ref.get("seed") == seed else None


def run_untraced(wl: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    outcomes = measure(wl, seed, workdir, seconds)
    summary = summarize(wl, outcomes)
    summary["digest"] = digest(wl, outcomes)
    return summary


def run_traced(wl: Workload, seed: int, workdir: Path, out_dir: Path) -> dict:
    """Each of the first min_replicas replicas untraced, then again traced.

    Alternating keeps each untraced/traced pair close in time, so a slow spell
    of the host shifts both sides of the overhead ratio alike.
    """
    tracer = Tracer()
    untraced, traced = [], []
    for index in range(wl.min_replicas):
        untraced.append(run_replica(wl, seed, index, workdir))
        tracer.install()
        try:
            traced.append(run_replica(wl, seed, index, workdir, tracer))
        finally:
            tracer.uninstall()

    summary = summarize(wl, untraced + traced)
    summary["digest"] = digest(wl, traced)
    run_failures = []
    if digest(wl, untraced) != summary["digest"]:
        run_failures.append("traced and untraced replicas trained differently")
    missing = [name for name in wl.layers if tracer.calls.get(name, 0) == 0]
    if missing:
        run_failures.append(f"traced run saw no calls of {missing}")
    if run_failures:  # the self-check rejects the whole run
        summary["failures"] += run_failures
        summary["failed"] = summary["attempted"]

    metrics = tracer.layer_metrics()
    sps_plain = summarize(wl, untraced)["metrics"].get("samples_per_s", math.nan)
    sps_traced = summarize(wl, traced)["metrics"].get("samples_per_s", math.nan)
    metrics["trace.untraced_samples_per_s"] = sps_plain
    metrics["trace.samples_per_s"] = sps_traced
    metrics["trace.overhead_ratio"] = sps_plain / sps_traced
    summary["metrics"] = metrics

    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"trace-{wl.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"workload": wl.name, "seed": seed, "spans": tracer.spans_as_rows()}))
    summary["spans_file"] = str(spans_path)
    return summary


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("samples_per_s"):
        return "samples/s"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def report(wl: Workload, seed: int, trace: bool, summary: dict, root: Path) -> dict:
    """Print the human-readable record; return the final JSON object."""
    env = environment(root, seed, wl.name, summary["attempted"])
    print("env " + json.dumps(env, sort_keys=True))
    failed_frac = summary["failed"] / summary["attempted"]
    print(
        f"workload {wl.name} seed {seed} trace {int(trace)}: {summary['replicas']} replicas, "
        f"{summary['attempted']} samples attempted, {summary['failed']} failed, "
        f"failed_frac {failed_frac:.4g} ratio"
    )
    for reason in summary["failures"]:
        print(f"  FAILED: {reason}")
    print("  replicas [setup_s, train_s, epochs_to_target] " + json.dumps(summary["replica_rows"]))
    metrics = {
        name: {"value": float(value), "unit": _unit(name)} for name, value in summary["metrics"].items()
    }
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    ref = _reference_digest(wl.name, seed)
    if ref is None:
        match = "no seed-code reference for this seed"
    else:
        match = "matches the seed-code reference" if ref == summary["digest"] else "differs from the seed-code reference"
    print(f"  digest {summary['digest']} ({match})")
    if "spans_file" in summary:
        print(f"  spans written to {summary['spans_file']}")
    return {
        "correct": not summary["failures"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    wl = WORKLOADS[name]
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            summary = run_traced(wl, seed, workdir, out_dir)
        else:
            summary = run_untraced(wl, seed, seconds, workdir)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    result = report(wl, seed, trace, summary, root)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
