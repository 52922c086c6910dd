"""The raster-contraction `stdp_update` against the per-spike-pair loops it replaced.

`_ref_pair_sum_all`, `_ref_pair_sum_nearest` and `_ref_stdp_update` are
verbatim copies of the earlier implementation, which looped over every
(post, pre) neuron pair and called `stdp_delta_w` once per spike pair.
Multi-pair sums are now added in a different order, so the comparison is
relative to the largest reference change; single pairs must match exactly.
`_ref_stdp_curve` is a verbatim copy of the earlier ``stdp-demo`` loop, which
ran `stdp_update` on a one-pre, one-post raster pair for every gap.
"""

import math

import numpy as np
import pytest

from spikegrad.cli import main
from spikegrad.neuron import SpikeRaster, _as_matrix
from spikegrad.plasticity import Pairing, StdpParams, stdp_delta_w, stdp_update


def _ref_pair_sum_all(pre_times: np.ndarray, post_times: np.ndarray, p: StdpParams) -> float:
    if pre_times.size == 0 or post_times.size == 0:
        return 0.0
    dt = pre_times[:, None] - post_times[None, :]
    dt = dt[np.abs(dt) <= p.window]
    total = 0.0
    for d in dt.ravel():
        total += stdp_delta_w(float(d), p)
    return total


def _ref_pair_sum_nearest(pre_times: np.ndarray, post_times: np.ndarray, p: StdpParams) -> float:
    """Each post pairs with its nearest strictly preceding pre, and vice versa."""
    total = 0.0
    for t_post in post_times:
        idx = np.searchsorted(pre_times, t_post)
        if idx > 0:
            total += stdp_delta_w(float(pre_times[idx - 1] - t_post), p)
    for t_pre in pre_times:
        idx = np.searchsorted(post_times, t_pre)
        if idx > 0:
            total += stdp_delta_w(float(t_pre - post_times[idx - 1]), p)
    return total


def _ref_stdp_update(pre, post, w: np.ndarray, p: StdpParams) -> np.ndarray:
    pre_m = _as_matrix(pre)
    post_m = _as_matrix(post)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (post_m.shape[1], pre_m.shape[1]):
        raise ValueError(
            f"w shape {w.shape} does not match {post_m.shape[1]} post x {pre_m.shape[1]} pre neurons"
        )
    pair_sum = _ref_pair_sum_all if p.pairing is Pairing.ALL_PAIRS else _ref_pair_sum_nearest

    out = w.copy()
    pre_times = [np.nonzero(pre_m[:, i])[0].astype(np.float64) for i in range(pre_m.shape[1])]
    post_times = [np.nonzero(post_m[:, j])[0].astype(np.float64) for j in range(post_m.shape[1])]
    for j in range(post_m.shape[1]):
        for i in range(pre_m.shape[1]):
            out[j, i] += pair_sum(pre_times[i], post_times[j], p)
    return np.clip(out, p.w_min, p.w_max)


WINDOWS = (0.0, 3.0, 10.5, 100.0, math.inf)
CASES = [
    (seed, window, pairing)
    for seed in range(20)
    for window in WINDOWS
    for pairing in Pairing
]  # 200 seeded raster pairs


def _random_case(seed: int, window: float, pairing: Pairing):
    rng = np.random.default_rng(seed)
    t_steps = int(rng.integers(1, 121))
    n_pre = int(rng.integers(1, 8))
    n_post = int(rng.integers(1, 6))
    pre = (rng.random((t_steps, n_pre)) < rng.uniform(0.0, 0.6)).astype(np.float64)
    post = (rng.random((t_steps, n_post)) < rng.uniform(0.0, 0.6)).astype(np.float64)
    params = StdpParams(
        a_plus=float(rng.uniform(0.001, 0.05)),
        a_minus=-float(rng.uniform(0.001, 0.05)),
        tau_plus=float(rng.uniform(1.0, 40.0)),
        tau_minus=float(rng.uniform(1.0, 40.0)),
        pairing=pairing,
        window=window,
    )
    return pre, post, params


@pytest.mark.parametrize("seed,window,pairing", CASES)
def test_random_rasters_match_pair_loops(seed, window, pairing):
    pre, post, p = _random_case(seed, window, pairing)
    w = np.zeros((post.shape[1], pre.shape[1]))
    got = stdp_update(pre, post, w, p)
    ref = _ref_stdp_update(pre, post, w, p)
    scale = float(np.max(np.abs(ref)))
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale
    if scale == 0.0:
        assert np.all(got == 0.0)


def test_spike_amplitude_is_ignored():
    # any nonzero entry counts as one spike, as np.nonzero did
    pre, post, p = _random_case(3, 100.0, Pairing.ALL_PAIRS)
    w = np.zeros((post.shape[1], pre.shape[1]))
    scaled = stdp_update(pre * 2.5, post * -0.5, w, p)
    assert np.array_equal(scaled, stdp_update(pre, post, w, p))


def test_single_pair_demo_curve_is_exact():
    # the stdp-demo layout with default params: one pre and one post spike
    p = StdpParams()
    span = int(p.window)
    t_steps = 2 * span + 4
    t_post = span + 2
    for dt in range(-span, span + 1):
        pre = np.zeros((t_steps, 1))
        post = np.zeros((t_steps, 1))
        pre[t_post + dt, 0] = 1.0
        post[t_post, 0] = 1.0
        args = (SpikeRaster(pre), SpikeRaster(post), np.zeros((1, 1)), p)
        assert stdp_update(*args)[0, 0] == _ref_stdp_update(*args)[0, 0]


def test_mismatched_step_counts_rejected():
    with pytest.raises(ValueError, match="30 steps.*31"):
        stdp_update(np.zeros((30, 2)), np.zeros((31, 1)), np.zeros((1, 2)), StdpParams())


def _ref_stdp_curve(params: StdpParams, out_path) -> None:
    span = int(params.window)
    t_steps = 2 * span + 4
    t_post = span + 2
    with open(out_path, "w", newline="\n") as fh:
        fh.write("delta_t,delta_w\n")
        for dt in range(-span, span + 1):
            pre = np.zeros((t_steps, 1))
            post = np.zeros((t_steps, 1))
            pre[t_post + dt, 0] = 1.0
            post[t_post, 0] = 1.0
            w_new = stdp_update(SpikeRaster(pre), SpikeRaster(post), np.zeros((1, 1)), params)
            fh.write(f"{dt},{float(w_new[0, 0])!r}\n")


@pytest.mark.parametrize("pairing", list(Pairing))
@pytest.mark.parametrize("fields", [
    {},
    {"window": 0.0},
    {"window": 1.0, "a_plus": 1.0, "a_minus": -1.0, "tau_plus": 10.0, "tau_minus": 10.0},
    {"window": 5.0, "w_min": -0.005, "w_max": 0.004},
    {"window": 20.7, "a_plus": 0.0, "a_minus": -0.0, "w_min": -math.inf, "w_max": math.inf},
    {"window": 30.0, "a_plus": -0.0, "a_minus": 0.0, "tau_plus": 3.0, "tau_minus": 0.7},
    {"window": 12.0, "a_plus": -0.02, "a_minus": 0.03, "w_min": 0.0, "w_max": 0.0},
], ids=["defaults", "window-0", "window-1", "tight-bounds", "zero-amplitudes", "signed-zeros", "inverted"])
def test_demo_curve_file_matches_raster_pairs(tmp_path, pairing, fields):
    params = StdpParams(pairing=pairing, **{"w_min": -1.0, "w_max": 1.0, **fields})
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("".join(
        f"stdp.{name} = {value.value if isinstance(value, Pairing) else repr(value)}\n"
        for name, value in vars(params).items()
    ) + f"train.out_dir = {tmp_path}\n")
    assert main(["stdp-demo", "--config", str(cfg)]) == 0
    _ref_stdp_curve(params, tmp_path / "ref.csv")
    assert (tmp_path / "stdp_curve.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
