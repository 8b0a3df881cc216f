import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from fadefilt.design import LdeCoefficients, NonCausalPair
from fadefilt.flow import (
    FlowConfig,
    FlowField,
    _FlowEngine,
    _stacked_column_pass,
    background_disparity,
    process_sequence,
    solve_flow,
)
from fadefilt.response import group_delay
from fadefilt.runtime import (
    Axis, FrameFilter, Priming, filter_image_separable, filter_time_stack,
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
    again = FlowConfig(**dataclasses.asdict(cfg))
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


def test_temporal_differentiator_slope_under_hold_priming():
    cfg = FlowConfig()
    rng = np.random.default_rng(9)
    pattern = rng.random((8, 8))
    frames = [0.1 * t * pattern + 0.2 for t in range(30)]
    gradients = filter_time_stack(cfg.temporal_differentiator(), iter(frames))
    # a per-pixel linear-in-time signal has constant slope; the hold
    # priming transient keeps decaying past the warm-up boundary; iz of
    # input frame n belongs to the result of frame n - q
    for n, iz in enumerate(gradients):
        index = n - cfg.frame_delay
        if index >= cfg.warmup_frames - cfg.frame_delay:
            assert np.allclose(iz, 0.1 * pattern, atol=2e-4)
        if index >= 22:
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


def single_strip_stream():
    plaid = translating_plaid(30, 37, 53, (0.4, -0.3))
    return add_gaussian_blob(plaid, (-0.3, 0.2), (30.0, 16.0), radius=5.0)


def multi_strip_stream():
    """21x1600 frames, which the engine's per-pixel tail runs in three
    row strips, the last of one row; a noisy plaid and blob with a band
    of static vertical stripes, whose rank-one structure the
    determinant gate rejects."""
    plaid = translating_plaid(24, 21, 1600, (0.4, -0.3))
    frames = add_gaussian_blob(plaid, (-0.3, 0.2), (800.0, 10.0), radius=5.0)
    frames += 0.01 * np.random.default_rng(12).standard_normal(frames.shape)
    frames[:, :, 1300:] = 0.5 + 0.2 * np.sin(0.1 * np.arange(300))
    return frames


# SHA-256 over every result's vx, vy and dj bytes of multi_strip_stream()
# under the default config, computed with whole-frame per-pixel passes;
# the strips must reproduce them
MULTI_STRIP_SHA256 = {
    "vx": "5781f443de63999810d24b6105c2314c1789989537babb2e9aed3dacf9f5b45c",
    "vy": "5a866af59d6242cde00a332740f5bc8cb9f50dedcc18d5e8573b299771d608a5",
    "dj": "0f75e155b60cd17c31602f840b5030a341231ab254cd8b70df670c0564227443",
}


@pytest.mark.parametrize("cfg, stream", [
    (FlowConfig(), single_strip_stream),
    (FlowConfig(temporal_q=3, temporal_kappa=0, smoothing_pole=0.9), single_strip_stream),
    (FlowConfig(), multi_strip_stream),
], ids=["default", "q3-kappa0-pole0.9", "default-21x1600"])
def test_process_sequence_matches_plane_by_plane_reference_bitwise(cfg, stream):
    frames = stream()
    want = reference_flow(frames, cfg)
    got = list(process_sequence(frames, cfg))
    assert len(got) == len(want) == len(frames) - cfg.frame_delay
    for r, (index, warmed, vx, vy, valid, dj) in zip(got, want):
        assert (r.frame_index, r.warmed_up) == (index, warmed)
        assert np.array_equal(r.flow.vx, vx)
        assert np.array_equal(r.flow.vy, vy)
        assert np.array_equal(r.flow.valid, valid)
        assert np.array_equal(r.disparity, dj)
    assert want[-1][4].any() and np.any(want[-1][2] != 0.0)


def test_multi_strip_outputs_are_pinned():
    results = list(process_sequence(multi_strip_stream()))
    planes = {"vx": [r.flow.vx for r in results], "vy": [r.flow.vy for r in results],
              "dj": [r.disparity for r in results]}
    got = {k: hashlib.sha256(b"".join(p.tobytes() for p in v)).hexdigest()
           for k, v in planes.items()}
    assert got == MULTI_STRIP_SHA256
    assert 0.5 < results[-1].flow.valid.mean() < 1.0


def test_solve_and_disparity_write_into_out_with_the_same_bytes():
    rng = np.random.default_rng(21)
    j, raw = rng.standard_normal((2, 5, 6, 7))
    cfg = FlowConfig(det_threshold=0.1)
    want = solve_flow(j, cfg)
    assert want.valid.any() and not want.valid.all()
    out = FlowField(vx=np.full((6, 7), np.nan), vy=np.full((6, 7), np.nan),
                    valid=np.zeros((6, 7), bool))
    got = solve_flow(j, cfg, scratch=np.empty((3, 6, 7)), out=out)
    assert got is out
    for name in ("vx", "vy", "valid"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    dj = np.full((6, 7), np.nan)
    assert background_disparity(raw, want, scratch=np.empty((3, 6, 7)), out=dj) is dj
    assert dj.tobytes() == background_disparity(raw, want).tobytes()


@pytest.mark.parametrize("pole", [math.exp(-1.0 / 16.0), 0.9])
@pytest.mark.parametrize("height, width", [(h, w) for h in (1, 2, 37) for w in (1, 53)])
def test_stacked_column_pass_matches_per_plane_separable_bitwise(pole, height, width):
    smoother = FlowConfig(smoothing_pole=pole).spatial_smoother()
    planes = np.random.default_rng([height, width]).standard_normal((5, height, width))
    work = np.full((height, 10, width), np.nan)
    work[:, :5] = planes.transpose(1, 0, 2)
    _stacked_column_pass(smoother.forward, work)
    # row i is the forward half on row i plus the backward half on row H-1-i
    got = work[:, :5] + work[::-1, 5:]
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


@pytest.mark.parametrize("shape", [(4, 2, 2), (6, 2, 2), (5,), ()])
def test_a_product_stack_of_other_than_five_planes_is_rejected_naming_the_argument(shape):
    rule = re.escape(f"has shape {shape}, but must stack the five products as (5, ...), "
                     "at least 2-D")
    with pytest.raises(ValueError, match=f"^j {rule}$"):
        solve_flow(np.ones(shape), FlowConfig())
    plane = shape[1:]
    flow = FlowField(vx=np.zeros(plane), vy=np.zeros(plane), valid=np.ones(plane, bool))
    with pytest.raises(ValueError, match=f"^raw {rule}$"):
        background_disparity(np.ones(shape), flow)


@pytest.mark.parametrize("shape", [(10, 0, 5), (10, 5, 0), (10, 5), (10, 2, 3, 4)],
                         ids=["no-rows", "no-columns", "1-D", "3-D"])
def test_frame_zero_that_is_not_a_non_empty_plane_is_rejected(shape):
    with pytest.raises(ValueError, match=re.escape(f"frame 0 has shape {shape[1:]}") + ".*2-D"):
        list(process_sequence(np.ones(shape)))


@pytest.mark.parametrize("q", [0, 4])
def test_producer_that_refills_one_buffer_matches_the_frame_stack(q):
    cfg = FlowConfig(temporal_q=q)
    frames = add_gaussian_blob(translating_plaid(24, 48, 64, (0.4, -0.3)),
                               (-0.3, 0.2), (30.0, 16.0), radius=5.0)

    def refilled():
        buffer = np.empty(frames.shape[1:])
        for frame in frames:
            buffer[...] = frame
            yield buffer

    want = list(process_sequence(frames, cfg))
    got = list(process_sequence(refilled(), cfg))
    assert len(got) == len(want) == len(frames) - q
    for r, w in zip(got, want):
        assert r.frame_index == w.frame_index
        for name in ("vx", "vy"):
            assert getattr(r.flow, name).tobytes() == getattr(w.flow, name).tobytes()
        assert r.disparity.tobytes() == w.disparity.tobytes()


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


@pytest.mark.parametrize("name", ["spatial_sigma", "temporal_sigma"])
@pytest.mark.parametrize("sigma", [-1e-17, -1e-300])
def test_config_rejects_a_sigma_whose_pole_rounds_to_one(name, sigma):
    message = f"{name} is too close to 0: its pole exp({name}) rounds to 1, got {sigma}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FlowConfig(**{name: sigma})


@pytest.mark.parametrize("name", ["spatial_sigma", "temporal_sigma"])
def test_config_rejects_a_sigma_whose_pole_underflows_to_zero(name):
    message = f"{name} is too far below 0: its pole exp({name}) underflows to 0, got -1e+300"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FlowConfig(**{name: -1e300})


def test_delay_line_holds_only_the_frames_seen():
    # the delay line grows with the stream: a q beyond any memory still
    # runs, and a stream shorter than q yields nothing
    frames = translating_plaid(10, 16, 16, (0.5, 0.0))
    assert list(process_sequence(frames, FlowConfig(temporal_q=1e12))) == []


def test_the_ring_holds_the_frames_seen_in_few_mappings():
    # frame n fills its plane with n + 1, so a written plane is nonzero
    # and names its frame; unwritten planes stay zero and cost no memory
    q = 100
    engine = _FlowEngine(FlowConfig(temporal_q=q), np.ones((4, 5)))
    try:
        for seen in range(1, q + 12):
            engine.step(np.full((4, 5), float(seen)))
            ring = engine._ring
            written = sorted(plane[0, 0] for plane in ring if plane.any())
            held = min(seen, q + 1)
            assert written == list(range(seen - held + 1, seen + 1))
            assert len(ring) <= min(2 * seen, q + 1)
            assert len({id(plane.base) for plane in ring}) <= math.ceil(math.log2(q + 1)) + 1
        assert len(ring) == q + 1
    finally:
        engine.close()
