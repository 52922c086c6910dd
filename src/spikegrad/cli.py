"""Command-line harness.

Subcommands:

  train      --config <path>   run the configured trainer; writes
             history.csv, checkpoint.txt and config.txt (the keys as given)
  eval       --checkpoint <path> --config <path>   accuracy + spike stats
  encode     --scheme rate|latency|delta --in <csv> --out <events> [...]
  gradcheck  --suite relaxed-fd|rtrl-vs-bptt|spikeprop-fd|beta-power [--seed N]
  stdp-demo  --config <path>   write the pairing-rule weight-change curve

All CSV output uses '.' decimals and LF line endings.  Identical config and
seed reproduce identical output files byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from .bptt import (
    EpochStats,
    _accuracy,
    _w_only,
    Feedback,
    TrainHistory,
    forward,
    load_checkpoint,
    save_checkpoint,
    train_bptt,
)
from .codec import ClampMode, DeltaParams, LatencyParams, Polarity, delta_encode, latency_encode, rate_encode
from .config import ConfigError, RunConfig, _Keys, _stdp_params, load_run_config, parse_config_file
from .events import save_events
from .gradcheck import SUITES
from .neuron import _as_matrix
from .objectives import ObjectiveKind, ObjectiveSpec, _target_trace, predict_class
from .online import train_online
from .plasticity import perturbation_train, stdp_delta_w, stdp_update
from .spikeprop import DeadNeuronError, SrmNet, _first_spikes, _spike_arrays, train_spikeprop
from .tasks import Dataset


def _eval_model(model, dataset: Dataset, objective: ObjectiveSpec):
    """Forward every sample; returns (accuracy, per-sample rows, summed spikes)."""
    rows = []
    total_spikes = 0.0
    for x, target in dataset.samples:
        record = forward(model, x)
        pred = predict_class(objective, record.output_spikes())
        spikes = sum(float(tr.s.sum()) for tr in record.traces)
        total_spikes += spikes
        rows.append((int(target), pred, spikes))  # config tasks give class labels
    accuracy = _accuracy((pred for _, pred, _ in rows), (t for _, t in dataset.samples))
    return accuracy, rows, total_spikes


def _scored_epoch(cfg: RunConfig, model, epoch: int, loss: float) -> EpochStats:
    """An epoch's history row, with the accuracy and spike total of the model as it now is."""
    accuracy, _, total_spikes = _eval_model(model, cfg.dataset, cfg.objective)
    return EpochStats(epoch, loss, accuracy, total_spikes)


def _raster_to_times(raster, dt: float) -> list[np.ndarray]:
    data = _as_matrix(raster)
    return [np.nonzero(data[:, i])[0].astype(np.float64) * dt for i in range(data.shape[1])]


def _train_spikeprop(cfg: RunConfig, net: SrmNet) -> TrainHistory:
    """Train the SrmNet on the spike times; only the last row has an accuracy, of the final weights."""
    correct, incorrect = cfg.spike_targets
    n_out = net.w.shape[0]
    dt = net.dt_fine
    samples = []
    for x, label in cfg.dataset.samples:
        presyn = _raster_to_times(x, dt)
        targets = np.full(n_out, incorrect)
        targets[int(label)] = correct
        samples.append((presyn, targets))

    sp_rows = train_spikeprop(net, samples, lr=cfg.optimizer.lr, epochs=cfg.epochs).rows

    # the predicted class is the output that fires first
    preds = []
    for presyn, _ in samples:
        times = _first_spikes(net, _spike_arrays(presyn, net.n_in), range(n_out))
        preds.append(int(np.argmin([t if t is not None else float("inf") for t in times])))
    acc = _accuracy(preds, (label for _, label in cfg.dataset.samples))
    nan = float("nan")
    last = sp_rows[-1][0]
    rows = [EpochStats(epoch, loss, acc if epoch == last else nan, nan) for epoch, loss in sp_rows]
    return TrainHistory(rows)


def _train_online_dataset(cfg: RunConfig, model):
    """Epoch loop over per-sample streams; row c of step_targets is class c's per-step target."""
    n_out = cfg.layer_sizes[-1]
    if cfg.objective.kind is ObjectiveKind.MSE_SPIKE_RATE:
        step_targets = np.eye(n_out)  # the class one-hot spikes
    else:
        step_targets = np.vstack([_target_trace(cfg.objective, c, (1, n_out)) for c in range(n_out)])
    history = TrainHistory()
    for epoch in range(cfg.epochs):
        losses = []
        for x, target in cfg.dataset.samples:
            stream = ((row, step_targets[int(target)]) for row in _as_matrix(x))
            h = train_online(
                model,
                stream,
                cfg.objective,
                surrogate=cfg.surrogate,
                interval=cfg.update_interval,
                optimizer=cfg.optimizer,
            )
            losses.append(h.final_loss)
        history.rows.append(_scored_epoch(cfg, model, epoch, float(np.mean(losses))))
    return history


def _train_stdp_dataset(cfg: RunConfig, model):
    """Unsupervised pairing-rule pass on every layer; the loss column sums the layers' mean |dW|."""
    _w_only(model, "stdp")
    history = TrainHistory()
    for epoch in range(cfg.epochs):
        delta = 0.0
        total_spikes = 0.0
        for x, _ in cfg.dataset.samples:
            record = forward(model, x)
            total_spikes += sum(float(tr.s.sum()) for tr in record.traces)
            for layer, tr in zip(model, record.traces):
                w_new = stdp_update(tr.x, tr.s, layer.w, cfg.stdp)
                delta += float(np.abs(w_new - layer.w).mean())
                layer.w = w_new
        history.rows.append(EpochStats(epoch, delta / len(cfg.dataset.samples), float("nan"), total_spikes))
    return history


def _train_perturbation(cfg: RunConfig, model):
    history = TrainHistory()
    for epoch in range(cfg.epochs):
        h = perturbation_train(
            model,
            cfg.dataset,
            sigma=cfg.perturb_sigma,
            trials=cfg.perturb_trials,
            objective=cfg.objective,
            seed=cfg.seed + epoch,
        )
        history.rows.append(_scored_epoch(cfg, model, epoch, h.final_loss))
    return history


def _train_bptt(cfg: RunConfig, model):
    return train_bptt(
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
    )


# trainer.kind -> trainer(cfg, model), for every kind in config.TRAINER_KINDS
_TRAINERS = {
    "bptt": _train_bptt,
    "online": _train_online_dataset,
    "spikeprop": _train_spikeprop,
    "stdp": _train_stdp_dataset,
    "perturbation": _train_perturbation,
}


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    model = cfg.build_model(np.random.default_rng(cfg.seed))
    history = _TRAINERS[cfg.trainer_kind](cfg, model)

    # made only now, so a run that fails to train leaves no out_dir behind
    os.makedirs(cfg.out_dir, exist_ok=True)
    history.write_csv(os.path.join(cfg.out_dir, "history.csv"))
    if cfg.trainer_kind != "spikeprop":  # an SrmNet has no checkpoint format
        save_checkpoint(model, os.path.join(cfg.out_dir, "checkpoint.txt"))
    cfg.write_resolved(os.path.join(cfg.out_dir, "config.txt"))
    last = history.rows[-1]
    print(
        f"trained {cfg.trainer_kind} for {len(history.rows)} epochs: "
        f"loss={last.loss:.6g} accuracy={last.accuracy:.4g}"
    )
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    if cfg.trainer_kind == "spikeprop":
        raise ConfigError("config key 'trainer.kind': spikeprop writes no checkpoint for eval to score")
    model = load_checkpoint(args.checkpoint)
    accuracy, rows, total_spikes = _eval_model(model, cfg.dataset, cfg.objective)
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, "eval.csv")
    with open(out_path, "w", newline="\n") as fh:
        fh.write("sample,label,prediction,spikes\n")
        for idx, (label, pred, spikes) in enumerate(rows):
            fh.write(f"{idx},{label},{pred},{spikes!r}\n")
    print(f"accuracy={accuracy:.6g} mean_spikes_per_sample={total_spikes / len(rows):.6g}")
    print(f"wrote {out_path}")
    return 0


def cmd_encode(args) -> int:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty file handled below
            features = np.loadtxt(args.infile, delimiter=",", dtype=np.float64, ndmin=2)
    except OSError:
        raise ValueError(f"cannot read feature file {args.infile!r}") from None
    except ValueError as exc:
        raise ValueError(f"feature file {args.infile!r}: {exc}") from None
    if features.size == 0:
        raise ValueError(f"feature file {args.infile!r} is empty")

    if args.scheme == "rate":
        if features.shape[0] != 1:
            raise ValueError("rate encoding expects a single CSV row of features")
        raster = rate_encode(
            features[0], t_steps=args.t_steps, rng=np.random.default_rng(args.seed)
        )
    elif args.scheme == "latency":
        if features.shape[0] != 1:
            raise ValueError("latency encoding expects a single CSV row of features")
        clamp = ClampMode.FORCE_LAST if args.force_last else ClampMode.NO_SPIKE
        raster = latency_encode(
            features[0],
            LatencyParams(tau=args.tau, theta=args.theta, t_max=args.t_steps, clamp_mode=clamp),
        )
    else:  # delta
        polarity = Polarity.BIPOLAR if args.bipolar else Polarity.POSITIVE_ONLY
        encoded = delta_encode(features, DeltaParams(threshold=args.threshold, polarity=polarity))
        if args.bipolar:
            on, off = encoded
            if not args.out_off:
                raise ValueError("bipolar delta encoding needs --out-off for the offset raster")
            save_events(off, args.out_off)
            raster = on
        else:
            raster = encoded

    save_events(raster, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    suite = SUITES[args.suite]
    results = suite(seed=args.seed)
    worst = 0.0
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name} ({res.case}): max_rel_err={res.max_rel_err:.3e} tol={res.tol:.0e} {status}")
        worst = max(worst, res.max_rel_err)
        ok = ok and res.passed
    print(f"suite {args.suite}: worst max_rel_err={worst:.3e} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_stdp_demo(args) -> int:
    keys = _Keys(parse_config_file(args.config))
    params = _stdp_params(keys, demo=True)
    out_dir = keys.str("train.out_dir", ".")
    keys.reject_unknown()
    if not np.isfinite(params.window):
        raise ConfigError(f"config key 'stdp.window': stdp-demo needs a finite window, got {params.window}")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "stdp_curve.csv")

    span = int(params.window)
    with open(out_path, "w", newline="\n") as fh:
        fh.write("delta_t,delta_w\n")
        for dt in range(-span, span + 1):
            # one pair from a zero weight: 0.0 + turns a -0.0 change into 0.0, as w + delta does
            w_new = float(np.clip(0.0 + stdp_delta_w(float(dt), params), params.w_min, params.w_max))
            fh.write(f"{dt},{w_new!r}\n")
    print(f"wrote {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spikegrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the configured trainer")
    p_train.add_argument("--config", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the configured task")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_enc = sub.add_parser("encode", help="feature CSV -> event file")
    p_enc.add_argument("--scheme", choices=["rate", "latency", "delta"], required=True)
    p_enc.add_argument("--in", dest="infile", required=True)
    p_enc.add_argument("--out", required=True)
    p_enc.add_argument("--t-steps", type=int, default=100)
    p_enc.add_argument("--seed", type=int, default=0)
    p_enc.add_argument("--tau", type=float, default=5.0)
    p_enc.add_argument("--theta", type=float, default=0.5)
    p_enc.add_argument("--force-last", action="store_true")
    p_enc.add_argument("--threshold", type=float, default=0.1)
    p_enc.add_argument("--bipolar", action="store_true")
    p_enc.add_argument("--out-off", default=None)
    p_enc.set_defaults(func=cmd_encode)

    p_gc = sub.add_parser("gradcheck", help="run a gradient verification suite")
    p_gc.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.set_defaults(func=cmd_gradcheck)

    p_demo = sub.add_parser("stdp-demo", help="write the pairing-rule weight-change curve")
    p_demo.add_argument("--config", required=True)
    p_demo.set_defaults(func=cmd_stdp_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early shows here, not in the flush at exit
        return code
    except BrokenPipeError:  # stdout closed early, as by `| head`
        # point stdout at devnull so the flush at exit cannot raise again (Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except FileNotFoundError as exc:
        message, code = f"missing file: {exc.filename}", 2
    except ValueError as exc:  # bad input, ConfigError included
        message, code = str(exc), 2
    except DeadNeuronError as exc:  # a training outcome, not bad input
        message, code = str(exc), 1
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
