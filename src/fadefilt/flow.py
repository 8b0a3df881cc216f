"""Gradient-based optical flow and moving-target indication.

The pipeline estimates dense background motion from spatiotemporal
intensity gradients and then flags pixels whose raw gradient products
are not explained by that motion:

1. temporal derivative I_z per pixel with the causal B=2, kappa=1, q=4
   differentiator; input frames are buffered by q, a whole number of
   frames, so the other gradients can be computed on the frame the
   estimate refers to;
2. spatial derivatives I_x, I_y of the delayed frame with the
   non-causal B=2 differentiator along rows and columns;
3. the five products IxIx, IxIy, IxIz, IyIy, IyIz, held as one
   (5, H, W) stack in that order, smoothed separably in x and y
   (two-sided single-pole smoother) and in time (causal single-pole
   smoother), one shared pole for all three axes; the y pass steps
   both halves of all five planes down the rows together;
4. per-pixel 2x2 solve for (vx, vy); pixels with a near-singular
   structure tensor are marked invalid and carry zero flow;
5. disparity dJ: norm of the raw spatiotemporal products minus the
   products predicted from the raw structure tensor and the estimated
   flow.  Large dJ marks independently moving foreground.

process_sequence runs a stream through one engine that builds the
filters once and reuses one workspace, sized from the first frame, for
every later frame; every frame must have the first frame's shape.

The temporal differentiator is primed by holding the first frame and
the product smoother starts from zero state, which shortens but does
not remove warm-up; outputs inside the warm-up span are flagged rather
than suppressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from .closed_form import ClosedForm, closed_form_coefficients
from .design import FilterDesign, LdeCoefficients, NonCausalPair, derive_causal_lde
from .runtime import (
    Axis, FrameFilter, _stacked_column_pass, filter_image_separable, filter_time_stack,
)
from .weights import Causality, WeightSpec


@dataclass(frozen=True)
class FlowConfig:
    spatial_sigma: float = -1.0
    temporal_sigma: float = -1.0
    temporal_q: float = 4.0
    temporal_kappa: int = 1
    smoothing_pole: float = math.exp(-1.0 / 16.0)
    det_threshold: float = 1e-6
    t_space: float = 1.0
    t_time: float = 1.0

    def __post_init__(self):
        for name in ("spatial_sigma", "temporal_sigma"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma < 0.0):
                raise ValueError(f"{name} must be finite and < 0, got {sigma}")
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
    def spatial_pole(self) -> float:
        return math.exp(self.spatial_sigma)

    @property
    def temporal_pole(self) -> float:
        return math.exp(self.temporal_sigma)

    @property
    def frame_delay(self) -> int:
        """Frames the spatial path is delayed to align with I_z."""
        return int(self.temporal_q)

    @property
    def warmup_frames(self) -> int:
        """Input frames consumed before outputs are trustworthy."""
        return self.frame_delay + math.ceil(6.0 / (1.0 - self.temporal_pole))

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # filter construction

    def spatial_differentiator(self) -> NonCausalPair:
        return closed_form_coefficients(
            ClosedForm.DIFFERENTIATOR_NONCAUSAL, self.spatial_pole,
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


def temporal_gradient(
    stream: Iterable[np.ndarray], cfg: FlowConfig
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (frame_index, delayed_frame, iz) once the delay buffer has
    filled; frame_index is the input index of the delayed frame, which
    both outputs are aligned to."""
    delay = cfg.frame_delay
    buffer: list[np.ndarray] = []

    def buffered() -> Iterator[np.ndarray]:
        for frame in stream:
            buffer.append(np.asarray(frame, dtype=float))
            yield buffer[-1]

    gradients = filter_time_stack(cfg.temporal_differentiator(), buffered())
    for n, iz in enumerate(gradients):
        if len(buffer) > delay:
            yield n - delay, buffer.pop(0), iz


class _FlowEngine:
    """Filters and workspace of one frame stream after the temporal
    gradient.

    The spatial differentiator and the two product smoothers are built
    once, and every intermediate plane is allocated from the first
    frame's shape and reused for each later frame.  Each stage writes
    into its buffer with out= ufuncs, in the floating-point order of the
    standalone stage functions, so results match them bit for bit.

    The (H, 10, W) workspace takes product k's row pass in slot k; the
    stacked column pass smooths slots 0-4 by way of slots 5-9, and the
    temporal smoother writes into the dead slots 5-9, which the solve
    reads as a (5, H, W) view.

    The temporal product smoother starts from zero state.  A shared
    start-up attenuation on all five products cancels in the flow solve
    (both the normal equations and the determinant gate are homogeneous
    in the products), so zero priming converges much faster than
    holding the first frame's products, which would lock in values
    computed while the temporal differentiator was still settling."""

    def __init__(self, cfg: FlowConfig, shape: tuple[int, ...]):
        self.cfg = cfg
        self._differentiator = cfg.spatial_differentiator()
        self._smoother = cfg.spatial_smoother()
        height, width = shape
        self._raw = np.empty((5,) + shape)
        self._work = np.empty((height, 10, width))
        self._temporal = FrameFilter(cfg.temporal_smoother(), (height, 5, width))
        self._scratch = np.empty((3,) + shape)

    def step(self, frame: np.ndarray, iz: np.ndarray) -> tuple[FlowField, np.ndarray]:
        """Flow and disparity of ``frame``, whose temporal derivative is ``iz``."""
        # ix and iy are dead once the products are formed, so all three
        # scratch planes then serve the solve and the disparity
        ix, iy, _ = self._scratch
        filter_image_separable(self._differentiator, frame, Axis.ROWS, out=ix)
        filter_image_separable(self._differentiator, frame, Axis.COLS, out=iy)
        raw, work = self._raw, self._work
        np.multiply(ix, ix, out=raw[0])
        np.multiply(ix, iy, out=raw[1])
        np.multiply(ix, iz, out=raw[2])
        np.multiply(iy, iy, out=raw[3])
        np.multiply(iy, iz, out=raw[4])
        for k, product in enumerate(raw):
            filter_image_separable(self._smoother, product, Axis.ROWS, out=work[:, k])
        # the smoother's halves are equal, so one recursion serves both
        _stacked_column_pass(self._smoother.forward, work)
        self._temporal.step(work[:, :5], out=work[:, 5:])
        smoothed = work[:, 5:].transpose(1, 0, 2)
        field = solve_flow(smoothed, self.cfg, scratch=self._scratch)
        return field, background_disparity(raw, field, scratch=self._scratch)


def solve_flow(
    j: np.ndarray, cfg: FlowConfig, scratch: np.ndarray | None = None
) -> FlowField:
    """Per-pixel normal-equation solve [vx; vy] = -inv(J) [Jxz; Jyz];
    pixels with det <= threshold * trace^2 or non-positive trace are
    invalid and get zero flow (aperture problem, flat texture).

    ``j`` stacks the smoothed products as (5, ...) in the order xx, xy,
    xz, yy, yz.  ``scratch``, a (3, ...) float array, is overwritten
    when given; the returned arrays are always new."""
    j = np.asarray(j, dtype=float)
    jxx, jxy, jxz, jyy, jyz = j
    det, trace, t = np.empty((3,) + j.shape[1:]) if scratch is None else scratch
    np.multiply(jxx, jyy, out=det)
    det -= np.square(jxy, out=t)
    np.add(jxx, jyy, out=trace)
    np.square(trace, out=t)
    t *= cfg.det_threshold
    valid = np.greater(det, t)
    valid &= trace > 0.0
    invalid = ~valid
    np.copyto(det, 1.0, where=invalid)
    vx = np.multiply(jyy, jxz)
    vx -= np.multiply(jxy, jyz, out=t)
    vy = np.multiply(jxx, jyz)
    vy -= np.multiply(jxy, jxz, out=t)
    for v in (vx, vy):
        np.negative(v, out=v)
        v /= det
        np.copyto(v, 0.0, where=invalid)
    return FlowField(vx=vx, vy=vy, valid=valid)


def background_disparity(
    raw: np.ndarray, flow: FlowField, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Norm of the raw spatiotemporal products unexplained by the
    estimated flow; zero where the flow is invalid.  ``raw`` stacks the
    unsmoothed products like solve_flow's ``j``; ``scratch``, a (3, ...)
    float array, is overwritten when given."""
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
    dj = np.hypot(ex, ey)
    np.copyto(dj, 0.0, where=~flow.valid)
    return dj


def process_sequence(
    stream: Iterable[np.ndarray], cfg: FlowConfig | None = None
) -> Iterator[FlowResult]:
    """Run the full pipeline over a frame stream, yielding one result
    per aligned frame.  Results with frame_index inside the warm-up
    span carry warmed_up=False.  Every frame must have the first
    frame's shape.  Each result owns its arrays.

    Non-finite input is not repaired: one NaN or inf sample spreads
    along its row and column through the spatial filters and stays in
    the temporal state, so every later result is invalid.  Callers that
    read untrusted frames should reject them first, as the CLI does."""
    if cfg is None:
        cfg = FlowConfig()
    engine: _FlowEngine | None = None
    settle = cfg.warmup_frames - cfg.frame_delay
    for index, frame, iz in temporal_gradient(stream, cfg):
        if engine is None:
            engine = _FlowEngine(cfg, frame.shape)
        field, dj = engine.step(frame, iz)
        yield FlowResult(
            frame_index=index, warmed_up=index >= settle, flow=field, disparity=dj
        )
