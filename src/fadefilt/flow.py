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
per-pixel stages run in cache-sized row strips, and a large frame runs
as two bands, one in a forked helper process, all with the bits of
whole-frame calls; see _FlowEngine.

The temporal differentiator is primed by holding the first frame and
the product smoother starts from zero state, which shortens but does
not remove warm-up; outputs inside the warm-up span are flagged rather
than suppressed.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
import traceback
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .closed_form import ClosedForm, closed_form_coefficients
from .design import FilterDesign, LdeCoefficients, NonCausalPair, derive_causal_lde
from .runtime import (
    Axis, FrameFilter, Priming, _frames, _half_passes, _row_strips, filter_image_separable,
)
from .weights import _FLOAT_MAX, WeightSpec, _check_sigma, _period, _pole, _real, _whole


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
        _pole(self.smoothing_pole, "smoothing_pole")
        if not 0.0 <= self.det_threshold <= _FLOAT_MAX:
            raise ValueError(f"det_threshold must be finite and >= 0, got {self.det_threshold}")
        if not (0.0 <= self.temporal_q <= _FLOAT_MAX and float(self.temporal_q).is_integer()):
            raise ValueError(f"temporal_q must be a whole number of frames >= 0, "
                             f"got {self.temporal_q}")
        _whole(self.temporal_kappa, "temporal_kappa")
        _period(self.t_space, "t_space")
        _period(self.t_time, "t_time")

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


def _can_fork() -> bool:
    """Whether this process may run a band in a forked helper: fork
    exists, a second CPU is there to run the helper, and no other
    thread runs, whose locks the helper would inherit held."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


# Values in a frame from which the flow engine runs it as two bands,
# band 1 in a forked helper process (_FlowEngine).  process_sequence
# over 40 frames cycled to 400, two bands against one in interleaved
# pairs on 2 vCPUs, fork included, in two rounds of 8 and 12 pairs:
#
#   frame    pairs two bands won   median time, two bands : one
#   64x64    15 of 20              1.05, 0.89
#   72x72    12 of 20              0.92, 0.91
#   80x80    14 of 20              0.98, 0.86
#   88x88    16 of 20              0.87, 0.85
#   96x96    18 of 20              0.92, 0.78
#   128x128  19 of 20              0.94, 0.77
#
# Two bands win from 64x64 more often than not, but 9 times in 10 only
# from 96x96, and the helper costs a second process (about 5 MB more
# summed PSS at 128x128) and 5-8 ms more for the first result, which
# pays the fork.  So two bands start at 8192 values, about 90x90.  From
# 256x256 up they take about 0.6 of the time.
_BAND_VALUES = 8192


def _bands(height: int, width: int, split: bool) -> list[tuple[slice, slice]]:
    """The (rows, columns) bands of a ``height`` x ``width`` frame: two,
    the top rows with the left columns and the bottom rows with the
    right columns, when ``split`` and the frame holds at least
    ``_BAND_VALUES`` values in two or more rows and columns; else one
    band, the whole frame."""
    if not split or height * width < _BAND_VALUES or min(height, width) < 2:
        return [(slice(0, height), slice(0, width))]
    r, c = height // 2, width // 2
    return [(slice(0, r), slice(0, c)), (slice(r, height), slice(c, width))]


def _shared(shape, dtype=float) -> np.ndarray:
    """A zeroed array of ``shape`` in its own anonymous shared mmap,
    which a forked process sees and writes.  A page costs memory only
    once it is written."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)


def _stacked_column_pass(half: LdeCoefficients, work: np.ndarray) -> None:
    """Run both halves of the two-sided pair whose halves are both
    ``half`` down axis 0 of the k planes work[:, :k] of an (H, 2k, W)
    ``work``, in place and left unsummed.  work[:, k:] takes the rows
    reversed, so step i advances the forward half on row i and the
    backward half on row H-1-i of every plane at once.  Afterwards row
    i of plane j's pass, the bytes of filter_image_separable(...,
    Axis.COLS), is work[i, j] + work[::-1][i, k + j]."""
    k = work.shape[1] // 2
    # a ufunc copy: np.copyto cannot tell that the reversed slots are
    # disjoint and would buffer all k planes first
    np.positive(work[::-1, :k], out=work[:, k:])
    z = half._held(work[0])
    t = np.empty(work.shape[1:])
    for row in work:
        half._step(z, row, row, t)


def _stop_helper(pid: int, commands: int, done: int, owner: int) -> None:
    """Tell the helper to exit, close its pipes and, in the process that
    forked it, reap it.  The stop byte reaches the helper even when a
    later fork holds a copy of the command pipe, which would keep EOF
    from it."""
    try:
        os.write(commands, b"\xff")
    except BrokenPipeError:  # the helper is gone already
        pass
    os.close(commands)
    os.close(done)
    if os.getpid() == owner:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # reaped already
            pass


@dataclass(frozen=True)
class _Band:
    rows: slice
    cols: slice
    strips: list  # the row strips of ``rows``
    work: np.ndarray  # the (H, 10, W_band) workspace of ``cols``
    iz: FrameFilter  # the temporal differentiator of ``rows``


class _FlowEngine:
    """Filters, delay line and workspace of one frame stream.

    The engine is built on frame 0: it splits the frame into bands
    (below), hold-primes each band's order-4 temporal differentiator, a
    FrameFilter, on that band's rows of frame 0, and allocates every
    plane but the delay line from frame 0's shape, to be reused for
    each later frame.  Each stage writes into its buffer with out=
    ufuncs, in the floating-point order of the standalone stage
    functions, so results match them bit for bit.

    The spatial path runs on the frame the temporal derivative refers
    to, q = frame_delay frames back.  The delay line is a ring of shared
    planes from frame 0 on: frame n is copied once, into slot n mod
    (q + 1), and the spatial path reads the next slot, frame n - q.  A
    frame that finds the ring full while it holds fewer than q + 1
    planes grows it in one new mapping by as many planes as it holds
    (at least one, never past q + 1), so a full ring takes
    ceil(log2(q + 1)) + 1 mappings and, as unwritten pages cost no
    memory, the delay line holds no more frames than were seen.  A
    producer may refill one buffer for every frame.  On the first q
    frames I_z steps into private scratch, as no result reads it.

    A frame runs in four stages, each over a band: the gradients (the
    band's rows of I_z and I_x, its columns of I_y), the products and
    their row passes (its rows), the stacked column pass (its columns)
    and the strip tail (its rows).  The row pass of product k goes to
    slot k of each column band's own (H, 10, W_band) workspace; the
    column pass leaves the forward halves in slots 0-4 and the backward
    halves, rows reversed, in slots 5-9.  The tail then runs in row
    strips (runtime._row_strips): for each strip it sums the two halves
    into a contiguous (5, rows, W) buffer, steps the temporal smoother
    there in place, solves for the flow, refills the buffer with the
    strip's raw products and takes the disparity of those rows.  A
    strip's planes stay in cache between these stages, where
    whole-frame planes would stream through memory once per ufunc.

    Frame 0 is split into two bands when it is large enough (_bands)
    and the process can fork (_can_fork); else one band, the whole
    frame, runs in this process.  With two bands, a helper process
    forked when the first result is due runs band 1 while this process
    runs band 0, with a 1-byte pipe round trip between stages.  The
    planes both bands touch (the delay line and its position, the
    gradients, the workspaces and band 1's outputs) live in anonymous
    shared mmaps; the differentiator and temporal smoother states of a
    band's rows stay private to the process that steps them.  Every
    value gets the operations of one whole-frame call, so two bands
    give the bits of one.  If a thread has started since frame 0, or
    the system refuses the fork, this process runs both bands.

    The temporal product smoother starts from zero state.  A shared
    start-up attenuation on all five products cancels in the flow solve
    (both the normal equations and the determinant gate are homogeneous
    in the products), so zero priming converges much faster than
    holding the first frame's products, which would lock in values
    computed while the temporal differentiator was still settling."""

    def __init__(self, cfg: FlowConfig, first_frame: np.ndarray):
        self.cfg = cfg
        self.shape = height, width = first_frame.shape
        self._differentiator = cfg.spatial_differentiator()
        self._smoother = cfg.spatial_smoother()
        self._temporal_smoother = cfg.temporal_smoother()
        self._frames = 0
        self._ring: list[np.ndarray] = []
        self._now = _shared((), np.int64)
        self._pipes: tuple[int, int] | None = None
        split = _bands(height, width, _can_fork())
        self._g = _shared((3, height, width))
        works = [_shared((height, 10, c.stop - c.start)) for _, c in split]
        vx, vy, dj = _shared((3, height, width))
        self._shared_out = vx, vy, _shared((height, width), bool), dj
        iz = cfg.temporal_differentiator()
        self._bands = []
        for (rows, cols), work in zip(split, works):
            band_height = rows.stop - rows.start
            strip_rows, strips = _row_strips(band_height, width)
            strips = [slice(rows.start + s.start, rows.start + s.stop) for s in strips]
            self._bands.append(_Band(rows, cols, strips, work,
                                     FrameFilter(iz, (band_height, width), hold=first_frame[rows])))
        # sized by the last band, which has the most rows: a band's products,
        # the summed, then smoothed, then raw products of one strip, and scratch
        # for the temporal step and (its first three planes) the solve and disparity
        self._product = np.empty((band_height, width))
        self._strip, self._scratch = np.empty((2, 5, strip_rows, width))
        self._temporal = np.zeros((self._temporal_smoother.order, 5, height, width))

    def step(self, frame: np.ndarray) -> FlowResult | None:
        """Feed the next input frame, a float array of frame 0's shape
        that the engine only reads; the result for frame n - q, or None
        while the delay line fills."""
        n, q, ring = self._frames, self.cfg.frame_delay, self._ring
        self._frames += 1
        if len(ring) == n <= q:  # full, and short of q + 1 planes
            ring.extend(_shared((min(max(n, 1), q + 1 - n), *self.shape)))
        now = n % (q + 1)
        np.copyto(ring[now], frame)
        if n < q:
            # into private scratch: band 1's rows of the shared I_z plane are
            # the helper's to write, and pages this process wrote there
            # would stay in its memory too
            for band in self._bands:
                rows = band.rows.stop - band.rows.start
                band.iz.step(frame[band.rows], out=self._product[:rows])
            return None
        if n == q and len(self._bands) > 1:
            self._fork()
        self._now[...] = now
        field = FlowField(
            vx=np.empty(self.shape), vy=np.empty(self.shape), valid=np.empty(self.shape, bool)
        )
        dj = np.empty(self.shape)
        self._out = field, dj
        for stage in range(len(self._STAGES)):
            self._run(stage)
        if self._pipes:
            rows = self._bands[1].rows
            for mine, theirs in zip((field.vx, field.vy, field.valid, dj), self._shared_out):
                mine[rows] = theirs[rows]
        index = n - q
        return FlowResult(frame_index=index, warmed_up=index >= self.cfg.warmup_frames - q,
                          flow=field, disparity=dj)

    def close(self) -> None:
        """Stop and reap the helper process, if one was forked."""
        if self._pipes:
            self._reap()

    def _fork(self) -> None:
        """Fork the helper, which serves band 1 until it is stopped.  If a
        thread has started since frame 0, or the system refuses the
        fork, this process runs both bands."""
        if not _can_fork():
            return
        commands, done = os.pipe(), os.pipe()
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory
            for fd in (*commands, *done):
                os.close(fd)
            return
        if pid == 0:
            status = 1
            try:
                os.close(commands[1])
                os.close(done[0])
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                # a pipe write wakes its reader on the writer's CPU, as if
                # the writer were about to sleep; the caller runs band 0
                # instead, and an unpinned helper often waited for it to
                # finish (each stage of a 128x384 frame then took twice
                # its time)
                os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
                vx, vy, valid, dj = self._shared_out
                self._out = FlowField(vx=vx, vy=vy, valid=valid), dj
                self._serve(commands[0], done[1])
                status = 0
            except BaseException:
                # say why to fd 2 itself: sys.stderr would flush the
                # stdio buffers inherited from the caller
                os.write(2, traceback.format_exc().encode())
            finally:
                # never return into the caller's code, nor flush the
                # stdio buffers it holds
                os._exit(status)
        os.close(commands[0])
        os.close(done[1])
        self._pipes = commands[1], done[0]
        self._pid = pid
        self._reap = weakref.finalize(self, _stop_helper, pid, commands[1], done[0], os.getpid())

    def _serve(self, commands: int, done: int) -> None:
        """The helper's loop: run each stage the command pipe names on
        band 1 and answer with one byte, until EOF or a stop byte."""
        band = self._bands[1]
        while (stage := os.read(commands, 1)) and stage[0] < len(self._STAGES):
            self._STAGES[stage[0]](self, band)
            os.write(done, b"\0")

    def _run(self, stage: int) -> None:
        """Run ``stage`` on band 0, and on band 1 in the helper, and
        return when both are done; without a helper, run every band."""
        run = self._STAGES[stage]
        if not self._pipes:
            for band in self._bands:
                run(self, band)
            return
        commands, done = self._pipes
        try:
            os.write(commands, bytes((stage,)))
        except BrokenPipeError:
            raise RuntimeError(f"flow helper process {self._pid} has exited") from None
        run(self, self._bands[0])
        if os.read(done, 1) != b"\0":
            raise RuntimeError(f"flow helper process {self._pid} has exited")

    def _gradients(self, band: _Band) -> None:
        """I_z and I_x on the band's rows, I_y on its columns."""
        ring, (ix, iy, iz), now = self._ring, self._g, int(self._now)
        delayed = ring[(now + 1) % len(ring)]
        band.iz.step(ring[now][band.rows], out=iz[band.rows])
        filter_image_separable(self._differentiator, delayed[band.rows], Axis.ROWS,
                               out=ix[band.rows])
        filter_image_separable(self._differentiator, delayed[:, band.cols], Axis.COLS,
                               out=iy[:, band.cols])

    def _row_pass(self, band: _Band) -> None:
        """The five products on the band's rows and their row passes,
        each summed into every column band's workspace."""
        g = self._g[:, band.rows]
        product = self._product[: len(g[0])]
        for k, (a, b) in enumerate(_PRODUCTS):
            np.multiply(g[a], g[b], out=product)
            forward, backward = _half_passes(self._smoother, product, 1, Priming.HOLD_FIRST)
            for other in self._bands:
                np.add(forward[:, other.cols], backward[:, other.cols],
                       out=other.work[band.rows, k])

    def _column_pass(self, band: _Band) -> None:
        # the smoother's halves are equal, so one recursion serves both
        _stacked_column_pass(self._smoother.forward, band.work)

    def _tail(self, band: _Band) -> None:
        """Sum, temporal step, solve and disparity of the band's rows,
        strip by strip, into the process's outputs."""
        g, (field, dj) = self._g, self._out
        halves = [(o.cols, o.work[:, :5].transpose(1, 0, 2), o.work[::-1, 5:].transpose(1, 0, 2))
                  for o in self._bands]
        for s in band.strips:
            rows = s.stop - s.start
            j, scratch = self._strip[:, :rows], self._scratch[:, :rows]
            for cols, forward, backward in halves:
                np.add(forward[:, s], backward[:, s], out=j[:, :, cols])
            self._temporal_smoother._step(self._temporal[:, :, s], j, j, scratch)
            strip = FlowField(vx=field.vx[s], vy=field.vy[s], valid=field.valid[s])
            solve_flow(j, self.cfg, scratch=scratch[:3], out=strip)
            for k, (a, b) in enumerate(_PRODUCTS):
                np.multiply(g[a, s], g[b, s], out=j[k])
            background_disparity(j, strip, scratch=scratch[:3], out=dj[s])

    # the stages of a frame, in order, each run on one band at a time
    _STAGES = (_gradients, _row_pass, _column_pass, _tail)


def _products(x, what: str) -> np.ndarray:
    """``x`` as a float stack of the five products, (5, ...) and at least
    2-D; anything else raises ValueError naming ``what`` and its shape."""
    x = _real(x, what)
    if x.ndim < 2 or len(x) != 5:
        raise ValueError(f"{what} has shape {x.shape}, but must stack the five products "
                         "as (5, ...), at least 2-D")
    return x


def solve_flow(
    j: np.ndarray,
    cfg: FlowConfig,
    scratch: np.ndarray | None = None,
    out: FlowField | None = None,
) -> FlowField:
    """Per-pixel normal-equation solve [vx; vy] = -inv(J) [Jxz; Jyz];
    pixels with det <= threshold * trace^2 or non-positive trace are
    invalid and get zero flow (aperture problem, flat texture).

    ``j`` stacks the smoothed products as a real (5, ...) array, at least
    2-D, in the order xx, xy, xz, yy, yz; any other ``j`` raises
    ValueError.  ``scratch``, a (3, ...) float array, is overwritten when
    given.  The result is written into ``out``, a FlowField of float,
    float and bool arrays shaped like one plane of ``j``, and ``out`` is
    returned when given; else the returned arrays are new."""
    jxx, jxy, jxz, jyy, jyz = j = _products(j, "j")
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
    rxx, rxy, rxz, ryy, ryz = raw = _products(raw, "raw")
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
    span carry warmed_up=False.  Frames must be real, frame 0 2-D with
    at least one row and one column, and every later frame of its shape;
    a frame that is not raises ValueError naming its index.
    Frames are only read, so the stream may reuse one buffer.  Each
    result owns its arrays.

    Frames of at least flow._BAND_VALUES values run as two bands on
    two CPUs, when the process may fork (see _FlowEngine): the split is
    made on frame 0, and a helper process forked when the first result
    is due runs one band.  The generator stops and reaps the helper
    when it ends, is closed or raises; if the helper dies, the next
    frame raises RuntimeError.

    Non-finite input is not repaired: one NaN or inf sample spreads
    along its row and column through the spatial filters and stays in
    the temporal state, so every later result is invalid.  Callers that
    read untrusted frames should reject them first, as FloatStackReader
    does."""
    if cfg is None:
        cfg = FlowConfig()
    engine: _FlowEngine | None = None
    try:
        for frame in _frames(stream, ndim=2):
            engine = engine or _FlowEngine(cfg, frame)
            result = engine.step(frame)
            if result is not None:
                yield result
    finally:
        if engine is not None:
            engine.close()
