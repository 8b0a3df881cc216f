import math

import numpy as np
import pytest

from fadefilt.design import LdeCoefficients, NonCausalPair
from fadefilt.flow import (
    FlowConfig,
    background_disparity,
    process_sequence,
    solve_flow,
    temporal_gradient,
)
from fadefilt.response import group_delay
from fadefilt.runtime import (
    Axis, FrameFilter, Priming, _stacked_column_pass, filter_image_separable,
)
from fadefilt.synthetic import add_gaussian_blob, translating_plaid


def test_config_defaults():
    cfg = FlowConfig()
    assert cfg.spatial_sigma == -1.0
    assert cfg.temporal_sigma == -1.0
    assert cfg.temporal_q == 4.0
    assert cfg.temporal_kappa == 1
    assert cfg.smoothing_pole == pytest.approx(math.exp(-1 / 16))
    assert cfg.det_threshold == 1e-6
    assert cfg.t_space == 1.0 and cfg.t_time == 1.0
    assert cfg.frame_delay == 4
    assert cfg.warmup_frames == 14


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(spatial_sigma=0.5)
    with pytest.raises(ValueError):
        FlowConfig(temporal_sigma=0.0)
    with pytest.raises(ValueError):
        FlowConfig(smoothing_pole=1.0)
    with pytest.raises(ValueError):
        FlowConfig(smoothing_pole=0.0)


NON_FINITE_SETTINGS = [
    (field, bad) for field in ("det_threshold", "t_space", "t_time") for bad in (math.nan, math.inf)
] + [
    (field, bad) for field in ("spatial_sigma", "temporal_sigma") for bad in (-math.inf, math.nan)
]


@pytest.mark.parametrize("field, bad", NON_FINITE_SETTINGS,
                         ids=[f"{bad}-{field}" for field, bad in NON_FINITE_SETTINGS])
def test_config_rejects_non_finite_settings(field, bad):
    with pytest.raises(ValueError, match="finite"):
        FlowConfig(**{field: bad})


@pytest.mark.parametrize("q", [-2, -1.0, 4.5, 5.5, 0.25, math.nan, math.inf])
def test_config_rejects_temporal_q_that_is_not_a_whole_frame_delay(q):
    # a negative delay mislabels frames; round() would put I_z half a
    # frame off the spatial gradients
    with pytest.raises(ValueError, match="temporal_q must be a whole number of frames"):
        FlowConfig(temporal_q=q)


def test_config_accepts_whole_frame_delays():
    assert FlowConfig(temporal_q=0).frame_delay == 0
    assert FlowConfig(temporal_q=3).frame_delay == 3
    assert FlowConfig(temporal_q=6.0).frame_delay == 6


def test_config_as_dict_round_trips():
    cfg = FlowConfig(temporal_q=3.0, det_threshold=1e-5)
    again = FlowConfig(**cfg.as_dict())
    assert again == cfg


def test_filter_constructors():
    cfg = FlowConfig()
    sd = cfg.spatial_differentiator()
    assert isinstance(sd, NonCausalPair)
    assert np.allclose(sd.forward.b, -sd.backward.b)
    td = cfg.temporal_differentiator()
    assert isinstance(td, LdeCoefficients)
    assert float(group_delay(td, 0.01)[0]) == pytest.approx(cfg.temporal_q, abs=0.05)
    sm_s = cfg.spatial_smoother()
    assert sm_s.forward.dc_gain() + sm_s.backward.dc_gain() == pytest.approx(1.0, abs=1e-12)
    sm_t = cfg.temporal_smoother()
    assert sm_t.dc_gain() == pytest.approx(1.0, abs=1e-12)


def test_spatial_gradients_of_linear_ramp():
    cfg = FlowConfig()
    y, x = np.mgrid[0:48, 0:64].astype(float)
    image = 0.2 + 0.004 * x - 0.003 * y
    pair = cfg.spatial_differentiator()
    ix = filter_image_separable(pair, image, Axis.ROWS)
    iy = filter_image_separable(pair, image, Axis.COLS)
    # the boundary transient decays like m * p**m into the interior
    interior = (slice(16, -16), slice(16, -16))
    assert np.allclose(ix[interior], 0.004, atol=1e-8)
    assert np.allclose(iy[interior], -0.003, atol=1e-8)


def test_temporal_gradient_alignment_and_slope():
    cfg = FlowConfig()
    rng = np.random.default_rng(9)
    pattern = rng.random((8, 8))
    frames = [0.1 * t * pattern + 0.2 for t in range(30)]
    outputs = list(temporal_gradient(iter(frames), cfg))
    # one output per frame past the delay, tagged with the source index
    assert len(outputs) == 30 - cfg.frame_delay
    idx0, delayed0, _ = outputs[0]
    assert idx0 == 0
    assert np.array_equal(delayed0, frames[0])
    # a per-pixel linear-in-time signal has constant slope; the hold
    # priming transient keeps decaying past the warm-up boundary
    for idx, _, iz in outputs:
        if idx >= cfg.warmup_frames - cfg.frame_delay:
            assert np.allclose(iz, 0.1 * pattern, atol=2e-4)
        if idx >= 22:
            assert np.allclose(iz, 0.1 * pattern, atol=1e-8)


def test_solve_flow_recovers_hand_built_motion():
    shape = (5, 5)
    vx, vy = 0.7, -0.4
    jxx = np.full(shape, 2.0)
    jyy = np.full(shape, 1.5)
    jxy = np.full(shape, 0.3)
    jxz = -(jxx * vx + jxy * vy)
    jyz = -(jxy * vx + jyy * vy)
    products = np.stack([jxx, jxy, jxz, jyy, jyz])
    field = solve_flow(products, FlowConfig())
    assert field.valid.all()
    assert np.allclose(field.vx, vx, atol=1e-12)
    assert np.allclose(field.vy, vy, atol=1e-12)
    # consistent products leave no disparity
    assert np.allclose(background_disparity(products, field), 0.0, atol=1e-12)


def test_solve_flow_gates_aperture_pixels():
    shape = (4, 4)
    # rank-one structure: gradients all along x
    products = np.stack([
        np.ones(shape), np.zeros(shape), np.full(shape, -0.5),
        np.zeros(shape), np.zeros(shape),
    ])
    field = solve_flow(products, FlowConfig())
    assert not field.valid.any()
    assert np.all(field.vx == 0.0) and np.all(field.vy == 0.0)


def reference_flow(frames, cfg):
    """The pipeline written plane by plane from the public stage
    functions, one FrameFilter per product, and the seed formulas."""
    differentiator = cfg.spatial_differentiator()
    smoother = cfg.spatial_smoother()
    gradient = FrameFilter(cfg.temporal_differentiator(), frames[0].shape, hold=frames[0])
    temporal = [FrameFilter(cfg.temporal_smoother(), frames[0].shape) for _ in range(5)]
    settle = cfg.warmup_frames - cfg.frame_delay
    results = []
    for n, current in enumerate(frames):
        iz = gradient.step(current)
        index = n - cfg.frame_delay
        if index < 0:
            continue
        frame = frames[index]
        ix = filter_image_separable(differentiator, frame, Axis.ROWS)
        iy = filter_image_separable(differentiator, frame, Axis.COLS)
        raw = [ix * ix, ix * iy, ix * iz, iy * iy, iy * iz]
        jxx, jxy, jxz, jyy, jyz = (
            f.step(filter_image_separable(
                smoother, filter_image_separable(smoother, p, Axis.ROWS), Axis.COLS))
            for f, p in zip(temporal, raw)
        )
        det = jxx * jyy - jxy**2
        trace = jxx + jyy
        valid = (det > cfg.det_threshold * trace**2) & (trace > 0.0)
        safe = np.where(valid, det, 1.0)
        vx = np.where(valid, -(jyy * jxz - jxy * jyz) / safe, 0.0)
        vy = np.where(valid, -(jxx * jyz - jxy * jxz) / safe, 0.0)
        rxx, rxy, rxz, ryy, ryz = raw
        pred_xz = -(rxx * vx + rxy * vy)
        pred_yz = -(rxy * vx + ryy * vy)
        dj = np.where(valid, np.hypot(rxz - pred_xz, ryz - pred_yz), 0.0)
        results.append((index, index >= settle, vx, vy, valid, dj))
    return results


@pytest.mark.parametrize("cfg", [
    FlowConfig(),
    FlowConfig(temporal_q=3, temporal_kappa=0, smoothing_pole=0.9),
], ids=["default", "q3-kappa0-pole0.9"])
def test_process_sequence_matches_plane_by_plane_reference_bitwise(cfg):
    plaid = translating_plaid(30, 37, 53, (0.4, -0.3))
    frames = add_gaussian_blob(plaid, (-0.3, 0.2), (30.0, 16.0), radius=5.0)
    want = reference_flow(frames, cfg)
    got = list(process_sequence(frames, cfg))
    assert len(got) == len(want) == 30 - cfg.frame_delay
    for r, (index, warmed, vx, vy, valid, dj) in zip(got, want):
        assert (r.frame_index, r.warmed_up) == (index, warmed)
        assert np.array_equal(r.flow.vx, vx)
        assert np.array_equal(r.flow.vy, vy)
        assert np.array_equal(r.flow.valid, valid)
        assert np.array_equal(r.disparity, dj)
    assert want[-1][4].any() and np.any(want[-1][2] != 0.0)


@pytest.mark.parametrize("pole", [math.exp(-1.0 / 16.0), 0.9])
@pytest.mark.parametrize("height, width", [(h, w) for h in (1, 2, 37) for w in (1, 53)])
def test_stacked_column_pass_matches_per_plane_separable_bitwise(pole, height, width):
    smoother = FlowConfig(smoothing_pole=pole).spatial_smoother()
    planes = np.random.default_rng([height, width]).standard_normal((5, height, width))
    work = np.full((height, 10, width), np.nan)
    work[:, :5] = planes.transpose(1, 0, 2)
    got = _stacked_column_pass(smoother.forward, work)
    assert np.shares_memory(got, work)
    for k, plane in enumerate(planes):
        want = filter_image_separable(smoother, plane, Axis.COLS, Priming.HOLD_FIRST)
        assert np.array_equal(got[:, k], want)


def test_kept_results_are_not_overwritten_by_later_frames():
    frames = translating_plaid(24, 20, 28, (0.3, 0.1))
    kept, copies = [], []
    for r in process_sequence(frames):
        kept.append(r)
        copies.append([a.copy() for a in (r.flow.vx, r.flow.vy, r.flow.valid, r.disparity)])
    assert not np.array_equal(copies[0][3], copies[-1][3])
    for r, copy in zip(kept, copies):
        for array, snapshot in zip((r.flow.vx, r.flow.vy, r.flow.valid, r.disparity), copy):
            assert np.array_equal(array, snapshot)


def test_mis_shaped_frame_is_rejected_not_broadcast():
    frames = list(translating_plaid(20, 32, 32, (0.25, 0.0)))
    frames[7] = frames[7][:1]
    with pytest.raises(ValueError, match=r"frame 7 has shape \(1, 32\).*\(32, 32\)"):
        list(process_sequence(frames))


def test_process_sequence_on_plaid():
    cfg = FlowConfig()
    velocity = (0.5, -0.25)
    frames = translating_plaid(26, 96, 96, velocity)
    results = list(process_sequence(frames, cfg))
    assert len(results) == 26 - cfg.frame_delay
    assert [r.frame_index for r in results] == list(range(len(results)))
    settle = cfg.warmup_frames - cfg.frame_delay
    assert all(not r.warmed_up for r in results[:settle])
    assert all(r.warmed_up for r in results[settle:])
    last = results[-1]
    sl = (slice(16, -16), slice(16, -16))
    err = np.hypot(last.flow.vx[sl] - velocity[0], last.flow.vy[sl] - velocity[1])
    assert np.median(err[last.flow.valid[sl]]) < 0.1 * math.hypot(*velocity)
    assert last.disparity.shape == frames[0].shape


def test_process_sequence_is_deterministic():
    frames = translating_plaid(18, 32, 32, (0.25, 0.0))
    first = list(process_sequence(frames))
    second = list(process_sequence(frames))
    for r1, r2 in zip(first, second):
        assert np.array_equal(r1.flow.vx, r2.flow.vx)
        assert np.array_equal(r1.disparity, r2.disparity)


def test_short_stream_yields_nothing():
    cfg = FlowConfig()
    frames = translating_plaid(cfg.frame_delay, 16, 16, (0.1, 0.0))
    assert list(process_sequence(frames, cfg)) == []
