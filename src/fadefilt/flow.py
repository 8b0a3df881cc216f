"""Gradient-based optical flow and moving-target indication.

The pipeline estimates dense background motion from spatiotemporal
intensity gradients and then flags pixels whose raw gradient products
are not explained by that motion:

1. temporal derivative I_z per pixel with the causal B=2, kappa=1, q=4
   differentiator; input frames are delayed by q, a whole number of
   frames, so the other gradients can be computed on the frame the
   estimate refers to;
2. spatial derivatives I_x, I_y of the delayed frame with the
   non-causal B=2 differentiator along rows and columns;
3. the five products IxIx, IxIy, IxIz, IyIy, IyIz, in that order,
   smoothed separably in x and y (two-sided single-pole smoother) and
   in time (causal single-pole smoother), one shared pole for all
   three axes; the y pass steps both halves of all five planes down
   the rows together;
4. per-pixel 2x2 solve for (vx, vy); pixels with a near-singular
   structure tensor are marked invalid and carry zero flow;
5. disparity dJ: norm of the raw spatiotemporal products minus the
   products predicted from the raw structure tensor and the estimated
   flow.  Large dJ marks independently moving foreground.

process_sequence checks each frame and feeds it to one engine, built
on the first frame, that owns the stream: the filters and their state,
a delay line of the last q frames seen, into which it copies each frame
(so a producer may refill one buffer for every frame), and one workspace
reused for every frame, which must have the first frame's shape.  The
per-pixel stages run in cache-sized row strips with the bits of
whole-frame calls; see _FlowEngine.

The temporal differentiator is primed by holding the first frame and
the product smoother starts from zero state, which shortens but does
not remove warm-up; outputs inside the warm-up span are flagged rather
than suppressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .closed_form import ClosedForm, closed_form_coefficients
from .design import FilterDesign, LdeCoefficients, NonCausalPair, derive_causal_lde
from .runtime import (
    Axis, FrameFilter, _row_strips, _stacked_column_pass, _tdf2_step, filter_image_separable,
)
from .weights import Causality, WeightSpec, _check_sigma


def _setting(default, help: str):
    """A FlowConfig field: its default, and the phrase that the CLI's
    flag for it shows as help."""
    return field(default=default, metadata={"help": help})


@dataclass(frozen=True)
class FlowConfig:
    """The flow pipeline's settings.  The CLI's flow flags are built
    from these fields: one flag per field, in this order, with the
    field's type and default."""

    spatial_sigma: float = _setting(-1.0, "spatial differentiator sigma")
    temporal_sigma: float = _setting(-1.0, "temporal differentiator sigma")
    temporal_q: float = _setting(4.0, "temporal differentiator delay in frames")
    temporal_kappa: int = _setting(1, "temporal weight shape exponent")
    smoothing_pole: float = _setting(math.exp(-1.0 / 16.0), "product-smoother pole")
    det_threshold: float = _setting(1e-6, "normalized determinant gate")
    t_space: float = _setting(1.0, "pixel pitch")
    t_time: float = _setting(1.0, "frame period")

    def __post_init__(self):
        _check_sigma("spatial_sigma", self.spatial_sigma)
        _check_sigma("temporal_sigma", self.temporal_sigma)
        if not (0.0 < self.smoothing_pole < 1.0):
            raise ValueError("smoothing_pole must lie in (0, 1)")
        if not (math.isfinite(self.det_threshold) and self.det_threshold >= 0.0):
            raise ValueError(f"det_threshold must be finite and >= 0, got {self.det_threshold}")
        if not (self.temporal_q >= 0.0 and float(self.temporal_q).is_integer()):
            raise ValueError(
                f"temporal_q must be a whole number of frames >= 0, got {self.temporal_q}"
            )
        if self.temporal_kappa < 0:
            raise ValueError("temporal_kappa must be >= 0")
        if not all(math.isfinite(t) and t > 0.0 for t in (self.t_space, self.t_time)):
            raise ValueError("sample periods must be finite and > 0")

    @property
    def frame_delay(self) -> int:
        """Frames the spatial path is delayed to align with I_z."""
        return int(self.temporal_q)

    @property
    def warmup_frames(self) -> int:
        """Input frames consumed before outputs are trustworthy."""
        return self.frame_delay + math.ceil(6.0 / (1.0 - math.exp(self.temporal_sigma)))

    # filter construction

    def spatial_differentiator(self) -> NonCausalPair:
        return closed_form_coefficients(
            ClosedForm.DIFFERENTIATOR_NONCAUSAL, math.exp(self.spatial_sigma),
            sample_period=self.t_space,
        )

    def temporal_differentiator(self) -> LdeCoefficients:
        design = FilterDesign(
            degree=2,
            derivative=1,
            weight=WeightSpec(sigma=self.temporal_sigma, kappa=self.temporal_kappa),
            delay=self.temporal_q,
            sample_period=self.t_time,
        )
        return derive_causal_lde(design)

    def spatial_smoother(self) -> NonCausalPair:
        p = self.smoothing_pole
        scale = (1.0 - p) / (2.0 * (1.0 + p))
        half = LdeCoefficients(b=np.array([scale, p * scale]), a=np.array([1.0, -p]))
        return NonCausalPair(forward=half, backward=half)

    def temporal_smoother(self) -> LdeCoefficients:
        p = self.smoothing_pole
        return LdeCoefficients(b=np.array([1.0 - p]), a=np.array([1.0, -p]))


@dataclass(frozen=True)
class FlowField:
    vx: np.ndarray
    vy: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True)
class FlowResult:
    frame_index: int
    warmed_up: bool
    flow: FlowField
    disparity: np.ndarray


# The five gradient products xx, xy, xz, yy, yz, in their stacked
# order, as index pairs into the engine's (ix, iy, iz) planes.
_PRODUCTS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2))


class _FlowEngine:
    """Filters, delay line and workspace of one frame stream.

    The engine is built on frame 0: the order-4 temporal differentiator
    is a FrameFilter hold-primed on it, and every plane is allocated
    from its shape and reused for each later frame.  Each stage writes
    into its buffer with out= ufuncs, in the floating-point order of the
    standalone stage functions, so results match them bit for bit.

    The spatial path runs on the frame the temporal derivative refers
    to, q = frame_delay frames back.  The engine copies each input
    frame into its own ring of planes: the first q frames each append a
    copy, so the ring holds no more planes than frames seen, and each
    later frame is copied into the slot of frame n - q once the spatial
    differentiator has read it, so a producer may refill one buffer for
    every frame.  With q = 0 the ring is empty and the spatial path
    reads the input frame.

    Each product is formed in one reused plane and its row pass written
    to slot k of the (H, 10, W) workspace; the stacked column pass
    leaves the forward halves in slots 0-4 and the backward halves,
    rows reversed, in slots 5-9.  The per-pixel tail then runs in row
    strips (runtime._row_strips): for each strip it sums the two halves
    into a contiguous (5, rows, W) buffer, steps the temporal smoother
    there in place, solves for the flow, refills the buffer with the
    strip's raw products and takes the disparity of those rows, writing
    into the frame's fresh output arrays.  A strip's planes stay in
    cache between these stages, where whole-frame planes would stream
    through memory once per ufunc.

    The temporal product smoother starts from zero state.  A shared
    start-up attenuation on all five products cancels in the flow solve
    (both the normal equations and the determinant gate are homogeneous
    in the products), so zero priming converges much faster than
    holding the first frame's products, which would lock in values
    computed while the temporal differentiator was still settling."""

    def __init__(self, cfg: FlowConfig, first_frame: np.ndarray):
        self.cfg = cfg
        self.shape = shape = first_frame.shape
        height, width = shape
        self._iz_filter = FrameFilter(cfg.temporal_differentiator(), shape, hold=first_frame)
        self._differentiator = cfg.spatial_differentiator()
        self._smoother = cfg.spatial_smoother()
        self._frames = 0
        self._ring: list[np.ndarray] = []
        self._gradients = np.empty((3,) + shape)
        self._product = np.empty(shape)
        self._work = np.empty((height, 10, width))
        self._temporal_smoother = cfg.temporal_smoother()
        self._temporal = np.zeros((self._temporal_smoother.order, 5) + shape)
        rows, self._strips = _row_strips(height, width)
        # the summed, then smoothed, then raw products of one strip, and
        # scratch for the temporal step and (its first three planes) the
        # solve and the disparity
        self._strip, self._scratch = np.empty((2, 5, rows, width))

    def step(self, frame: np.ndarray) -> FlowResult | None:
        """Feed the next input frame, a float array of frame 0's shape
        that the engine only reads; the result for frame n - q, or None
        while the delay line fills."""
        n, q = self._frames, self.cfg.frame_delay
        self._frames += 1
        ix, iy, iz = g = self._gradients
        self._iz_filter.step(frame, out=iz)
        if n < q:
            self._ring.append(frame.copy())
            return None
        delayed = self._ring[n % q] if q else frame
        filter_image_separable(self._differentiator, delayed, Axis.ROWS, out=ix)
        filter_image_separable(self._differentiator, delayed, Axis.COLS, out=iy)
        if q:
            delayed[...] = frame
        work = self._work
        for k, (a, b) in enumerate(_PRODUCTS):
            np.multiply(g[a], g[b], out=self._product)
            filter_image_separable(self._smoother, self._product, Axis.ROWS, out=work[:, k])
        # the smoother's halves are equal, so one recursion serves both
        _stacked_column_pass(self._smoother.forward, work)
        field = FlowField(
            vx=np.empty(self.shape), vy=np.empty(self.shape), valid=np.empty(self.shape, bool)
        )
        dj = np.empty(self.shape)
        forward, backward = work[:, :5].transpose(1, 0, 2), work[::-1, 5:].transpose(1, 0, 2)
        for s in self._strips:
            rows = s.stop - s.start
            j, scratch = self._strip[:, :rows], self._scratch[:, :rows]
            np.add(forward[:, s], backward[:, s], out=j)
            _tdf2_step(self._temporal_smoother, self._temporal[:, :, s], j, j, scratch)
            strip = FlowField(vx=field.vx[s], vy=field.vy[s], valid=field.valid[s])
            solve_flow(j, self.cfg, scratch=scratch[:3], out=strip)
            for k, (a, b) in enumerate(_PRODUCTS):
                np.multiply(g[a, s], g[b, s], out=j[k])
            background_disparity(j, strip, scratch=scratch[:3], out=dj[s])
        index = n - q
        return FlowResult(frame_index=index, warmed_up=index >= self.cfg.warmup_frames - q,
                          flow=field, disparity=dj)


def solve_flow(
    j: np.ndarray,
    cfg: FlowConfig,
    scratch: np.ndarray | None = None,
    out: FlowField | None = None,
) -> FlowField:
    """Per-pixel normal-equation solve [vx; vy] = -inv(J) [Jxz; Jyz];
    pixels with det <= threshold * trace^2 or non-positive trace are
    invalid and get zero flow (aperture problem, flat texture).

    ``j`` stacks the smoothed products as (5, ...) in the order xx, xy,
    xz, yy, yz.  ``scratch``, a (3, ...) float array, is overwritten
    when given.  The result is written into ``out``, a FlowField of
    float, float and bool arrays shaped like one plane of ``j``, and
    ``out`` is returned when given; else the returned arrays are new."""
    j = np.asarray(j, dtype=float)
    jxx, jxy, jxz, jyy, jyz = j
    det, trace, t = np.empty((3,) + j.shape[1:]) if scratch is None else scratch
    vx, vy, valid = (None, None, None) if out is None else (out.vx, out.vy, out.valid)
    np.multiply(jxx, jyy, out=det)
    det -= np.square(jxy, out=t)
    np.add(jxx, jyy, out=trace)
    np.square(trace, out=t)
    t *= cfg.det_threshold
    valid = np.greater(det, t, out=valid)
    valid &= trace > 0.0
    invalid = ~valid
    np.copyto(det, 1.0, where=invalid)
    vx = np.multiply(jyy, jxz, out=vx)
    vx -= np.multiply(jxy, jyz, out=t)
    vy = np.multiply(jxx, jyz, out=vy)
    vy -= np.multiply(jxy, jxz, out=t)
    for v in (vx, vy):
        np.negative(v, out=v)
        v /= det
        np.copyto(v, 0.0, where=invalid)
    return FlowField(vx=vx, vy=vy, valid=valid) if out is None else out


def background_disparity(
    raw: np.ndarray,
    flow: FlowField,
    scratch: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Norm of the raw spatiotemporal products unexplained by the
    estimated flow; zero where the flow is invalid.  ``raw`` stacks the
    unsmoothed products like solve_flow's ``j``; ``scratch``, a (3, ...)
    float array, is overwritten when given.  The result is written into
    ``out`` when given."""
    raw = np.asarray(raw, dtype=float)
    rxx, rxy, rxz, ryy, ryz = raw
    ex, ey, t = np.empty((3,) + raw.shape[1:]) if scratch is None else scratch
    # e = raw_z - pred_z, pred_xz = -(rxx vx + rxy vy), pred_yz = -(rxy vx + ryy vy)
    np.multiply(rxx, flow.vx, out=ex)
    ex += np.multiply(rxy, flow.vy, out=t)
    np.subtract(rxz, np.negative(ex, out=ex), out=ex)
    np.multiply(rxy, flow.vx, out=ey)
    ey += np.multiply(ryy, flow.vy, out=t)
    np.subtract(ryz, np.negative(ey, out=ey), out=ey)
    dj = np.hypot(ex, ey, out=out)
    np.copyto(dj, 0.0, where=~flow.valid)
    return dj


def process_sequence(
    stream: Iterable[np.ndarray], cfg: FlowConfig | None = None
) -> Iterator[FlowResult]:
    """Run the full pipeline over a frame stream, yielding one result
    per aligned frame.  Results with frame_index inside the warm-up
    span carry warmed_up=False.  Frame 0 must be 2-D with at least one
    row and one column, and every later frame must have its shape.
    Frames are only read, so the stream may reuse one buffer.  Each
    result owns its arrays.

    Non-finite input is not repaired: one NaN or inf sample spreads
    along its row and column through the spatial filters and stays in
    the temporal state, so every later result is invalid.  Callers that
    read untrusted frames should reject them first, as FloatStackReader
    does."""
    if cfg is None:
        cfg = FlowConfig()
    engine: _FlowEngine | None = None
    for n, frame in enumerate(stream):
        frame = np.asarray(frame, dtype=float)
        if engine is None:
            if frame.ndim != 2 or 0 in frame.shape:
                raise ValueError(f"frame 0 has shape {frame.shape}, but frames must be "
                                 "2-D with at least one row and one column")
            engine = _FlowEngine(cfg, frame)
        elif frame.shape != engine.shape:
            raise ValueError(f"frame {n} has shape {frame.shape}, but frame 0 had {engine.shape}")
        result = engine.step(frame)
        if result is not None:
            yield result
