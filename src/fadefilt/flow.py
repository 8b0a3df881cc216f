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
per-pixel stages run in cache-sized row strips, and a large enough
frame runs on two CPUs, pipelined with a forked helper process, all
with the bits of whole-frame calls; see _FlowEngine.

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
    """Whether this process may run a helper in a forked process: fork
    exists, a second CPU is there to run the helper, and no other
    thread runs, whose locks the helper would inherit held."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


# Values in a frame from which the flow engine forks a helper process
# that pipelines whole frames with this one (_FlowEngine).  The value
# was set for an earlier schedule, which split every stage into two
# bands: it won 9 times in 10 only from 96x96, and the helper costs a
# second process and 5-8 ms more for the first result, which pays the
# fork.  The pipeline, measured by process_sequence over 40 frames
# cycled to 400 against one process, in 6 interleaved pairs on 2 vCPUs:
#
#   frame    pairs the pipeline won   median time, pipeline : one
#   64x64    6 of 6                   0.74
#   80x80    6 of 6                   0.70
#   96x96    6 of 6                   0.64
#   128x128  6 of 6                   0.62
#
# So the threshold could fall; below 64x64 is not measured.  There is
# no upper bound: at 640x480 the pipeline ran the flow-vga benchmark
# (seed 1, 10 interleaved 25 s pairs) at 38.7 frames/s against 30.1 for
# two bands, winning 10 of 10, and peaked at 298.8 MB RSS against 294.8.
_HELPER_VALUES = 8192


def _schedule(height: int, width: int, fork: bool) -> bool:
    """Whether the flow engine pipelines ``height`` x ``width`` frames
    with a forked helper when the process may ``fork``: from
    ``_HELPER_VALUES`` values up."""
    return fork and height * width >= _HELPER_VALUES


def _shared(shape, dtype=float) -> np.ndarray:
    """A zeroed array of ``shape`` in its own anonymous shared mmap,
    which a forked process sees and writes.  A page costs memory only
    once it is written."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)


def _sides(work: np.ndarray, upper: bool) -> tuple[np.ndarray, np.ndarray]:
    """The data half of an (H, 2k, W) ``work``, its upper k planes when
    ``upper`` and else its lower, and the other half, the mirror."""
    k = work.shape[1] // 2
    lower, top = work[:, :k], work[:, k:]
    return (top, lower) if upper else (lower, top)


def _stacked_column_pass(half: LdeCoefficients, work: np.ndarray, upper: bool = False) -> None:
    """Run both halves of the two-sided pair whose halves are both the
    order-1 ``half`` down axis 0 of the k data planes of an (H, 2k, W)
    ``work``, in place and left unsummed: the lower k planes, or the
    upper k when ``upper`` (_sides).  The other k, the mirror, take the
    data rows reversed, so that ``half._step``, run on blocks of 16 rows
    of all 2k planes from the state held at row 0, advances the forward
    half on row i and the backward half on row H-1-i of every plane at
    once.  Afterwards row i of data plane j's pass, the bytes of
    filter_image_separable(..., Axis.COLS), is data[i, j] +
    mirror[::-1][i, j]."""
    data, mirror = _sides(work, upper)
    # a ufunc copy: np.copyto cannot tell that the reversed slots are
    # disjoint and would buffer all k planes first
    np.positive(data[::-1], out=mirror)
    z, t = half._held(work[0]), np.empty((16,) + work.shape[1:])
    for block in range(0, len(work), len(t)):
        rows = work[block: block + len(t)]
        half._step(z, rows, rows, t[: len(rows)])


def _stop_helper(pid: int, commands: int, done: int, owner: int) -> None:
    """In the process that forked the helper, tell it to exit and reap
    it; in any process, close the copies of its pipes, so a process
    forked from the owner never stops its helper.  The stop byte reaches
    the helper even when a later fork holds a copy of the command pipe,
    which would keep EOF from it."""
    if os.getpid() == owner:
        try:
            os.write(commands, b"\xff")
        except BrokenPipeError:  # the helper is gone already
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # reaped already
            pass
    os.close(commands)
    os.close(done)


class _FlowEngine:
    """Filters, delay line and workspace of one frame stream.

    The spatial path runs on the frame the temporal derivative refers
    to, q = frame_delay frames back, so the first result is due at
    frame q, and until then a frame only fills the delay line, a ring of
    shared planes from frame 0 on.  Frame n is copied into slot n mod
    the ring's length (once, or in the pipeline by way of an inbox, see
    below), and the spatial path reads frame n - q from it.  A frame
    that finds the ring full while it holds fewer than q + 1 planes
    grows it in one new mapping by as many planes as it holds (at least
    one, never past q + 1), so a full ring takes ceil(log2(q + 1)) + 1
    mappings and, as unwritten pages cost no memory, the delay line
    holds no more frames than were seen.  A producer may refill one
    buffer for every frame.

    At frame q the engine starts (_start): it picks its schedule
    (below), allocates every other plane for reuse on each later frame,
    and primes the order-4 temporal differentiator (_prime), a
    FrameFilter hold-primed on frame 0 and stepped over frames 0 to
    q - 1, in the process that will step it.  Each stage writes into its
    buffer with out= ufuncs, in the floating-point order of the
    standalone stage functions, so results match them bit for bit.

    A frame runs in four stages: the gradients (I_z, I_x and I_y), the
    products and their row passes, the stacked column pass and the
    strip tail.  The row pass of product k goes to data plane k of the
    frame slot's workspace; the column pass leaves the forward halves
    there and the backward halves, rows reversed, in the mirror planes
    (_stacked_column_pass).  The tail then runs in row strips
    (runtime._row_strips): for each strip it sums the two halves into a
    contiguous (5, rows, W) buffer, steps the temporal smoother there in
    place, solves for the flow, refills the buffer with the strip's raw
    products and takes the disparity of those rows.  A strip's planes
    stay in cache between these stages, where whole-frame planes would
    stream through memory once per ufunc.

    The schedule (_schedule) follows from the frame size and whether
    the process may fork (_can_fork), and is one of two:

    - one process, frames below _HELPER_VALUES values, or no fork: all
      four stages of a frame run here, on one (H, 10, W) workspace;
    - the pipeline: a helper process forked by _start runs the gradients
      and row passes of frame n while this process runs the column pass
      and tail of frame n - 1, so each result comes one input frame
      late, and flush() gives the last.  Each frame costs one command
      byte and one done byte.  The two frame slots each hold their own
      gradients and share one (H, 15, W) workspace: slot 0 takes planes
      0-9 and slot 1 planes 5-14, its data in the upper half, so the
      mirror planes 5-9, which only this process's column pass and tail
      touch, one frame at a time, serve both.  After the fork this
      process drops its views of the delay line and never builds I_z:
      the helper owns both.  Frame n reaches the helper through a
      2-plane shared inbox, slot n mod 2, and the helper copies it into
      its ring before its gradients.

    The planes both processes touch (the delay line, the inbox, the
    frame index, the gradients and the workspace) live in anonymous
    shared mmaps; the differentiator state stays private to the process
    that steps it (the helper's in the pipeline) and the temporal
    smoother's to the one that runs the tail.  Every value gets the
    operations of one whole-frame call, so both schedules give the bits
    of one process.  If the system refuses a pipe or the fork, this
    process runs every stage, with no lag.

    The temporal product smoother starts from zero state.  A shared
    start-up attenuation on all five products cancels in the flow solve
    (both the normal equations and the determinant gate are homogeneous
    in the products), so zero priming converges much faster than
    holding the first frame's products, which would lock in values
    computed while the temporal differentiator was still settling."""

    def __init__(self, cfg: FlowConfig, first_frame: np.ndarray):
        self.cfg = cfg
        self.shape = first_frame.shape
        self._differentiator = cfg.spatial_differentiator()
        self._iz = cfg.temporal_differentiator()
        self._smoother = cfg.spatial_smoother()
        self._temporal_smoother = cfg.temporal_smoother()
        self._frames = 0
        self._ring: list[np.ndarray] = []
        self._pipes: tuple[int, int] | None = None
        self._pending: int | None = None  # the frame the helper has, in the pipeline

    def _start(self) -> None:
        """Pick the schedule and build its planes and helper once the ring
        holds frames 0 to q; prime I_z in the process that steps it."""
        height, width = self.shape
        pipelined = _schedule(height, width, _can_fork())
        self._now = _shared((), np.int64)
        # a frame's product, then the summed, then smoothed, then raw products
        # of one strip, and scratch for the temporal step and (its first three
        # planes) the solve and disparity
        self._product = np.empty(self.shape)
        strip_rows, self._strips = _row_strips(height, width)
        self._strip, self._scratch = np.empty((2, 5, strip_rows, width))
        self._temporal = np.zeros((self._temporal_smoother.order, 5, height, width))
        # slot s: its gradients and planes 5s to 5s + 9 of the workspace,
        # whose data is in the upper half for slot 1
        work = _shared((height, 15 if pipelined else 10, width))
        self._slots = [(_shared((3, height, width)), work[:, 5 * s: 5 * s + 10], s == 1)
                       for s in range(1 + pipelined)]
        if pipelined:
            self._inbox = _shared((2, height, width))
            self._fork()
        if not self._pipes:
            self._prime()

    def _prime(self) -> None:
        """Build I_z's FrameFilter, hold-primed on frame 0, and step it over
        frames 0 to q - 1, whose I_z no result reads."""
        self._iz_state = FrameFilter(self._iz, self.shape, hold=self._ring[0])
        for frame in self._ring[: self.cfg.frame_delay]:
            self._iz_state.step(frame, out=self._product)

    def step(self, frame: np.ndarray) -> FlowResult | None:
        """Feed the next input frame, a float array of frame 0's shape
        that the engine only reads; the result for frame n - q, or, in
        the pipeline, for frame n - q - 1; or None while none is due."""
        n, q = self._frames, self.cfg.frame_delay
        self._frames += 1
        if self._pipes:  # the helper takes frame n from the inbox
            np.copyto(self._inbox[n % 2], frame)
            if self._pending is not None:
                self._wait()
            return self._send(n)
        ring = self._ring
        if len(ring) == n <= q:  # full, and short of q + 1 planes
            ring.extend(_shared((min(max(n, 1), q + 1 - n), *self.shape)))
        np.copyto(ring[n % len(ring)], frame)
        if n < q:
            return None
        if n == q:
            self._start()
            if self._pipes:  # frame q is in the helper's ring already
                return self._send(n)
        self._now[...] = n
        return self._result(n, range(len(self._STAGES)))

    def _send(self, n: int) -> FlowResult | None:
        """The pipeline: have the helper run stages 0-1 of frame n while
        this process runs stages 2-3 of the pending frame, n - 1, and
        return its result, if there is one."""
        self._now[...] = n
        self._command(0b0011)
        pending, self._pending = self._pending, n
        return None if pending is None else self._result(pending, (2, 3))

    def flush(self) -> FlowResult | None:
        """The result the pipeline still owes once the stream has ended, or None."""
        n, self._pending = self._pending, None
        if n is None:
            return None
        self._wait()
        return self._result(n, (2, 3))

    def close(self) -> None:
        """Stop and reap the helper process, if one was forked."""
        if self._pipes:
            self._reap()

    def _select(self, n: int) -> None:
        """Point the stages at frame n's slot: its gradients, its 10
        workspace planes and which half of them holds its data."""
        self._g, self._work, self._upper = self._slots[n % len(self._slots)]

    def _result(self, n: int, stages) -> FlowResult:
        """Run ``stages`` of frame n into fresh arrays, and its result."""
        self._select(n)
        field = FlowField(
            vx=np.empty(self.shape), vy=np.empty(self.shape), valid=np.empty(self.shape, bool)
        )
        dj = np.empty(self.shape)
        self._out = field, dj
        for stage in stages:
            self._STAGES[stage](self)
        return FlowResult(frame_index=n - self.cfg.frame_delay,
                          warmed_up=n >= self.cfg.warmup_frames,
                          flow=field, disparity=dj)

    def _fork(self) -> None:
        """Fork the helper, which primes I_z and serves the stages it is
        sent until it is stopped; this process then drops its views of
        the delay line, which the helper keeps.  If the system refuses a
        pipe or the fork, this process runs every stage."""
        commands = done = ()
        try:
            commands = os.pipe()
            done = os.pipe()
            pid = os.fork()
        except OSError:  # out of fds, processes or memory
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
                # the writer were about to sleep; the caller runs on
                # instead, and an unpinned helper often waited for it to
                # finish (each stage of a 128x384 frame then took twice
                # its time)
                os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
                self._prime()
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
        self._ring = []

    def _serve(self, commands: int, done: int) -> None:
        """The helper's loop: for each command byte, copy the frame at
        _now from the inbox into the ring (frame q is there from before
        the fork), run the stages whose bits are set on the frame's slot,
        and answer with one byte, until EOF or a stop byte."""
        while (command := os.read(commands, 1)) and command[0] < 1 << len(self._STAGES):
            n = int(self._now)
            if n > self.cfg.frame_delay:
                np.copyto(self._ring[n % len(self._ring)], self._inbox[n % 2])
            self._select(n)
            for stage, run in enumerate(self._STAGES):
                if command[0] >> stage & 1:
                    run(self)
            os.write(done, b"\0")

    def _command(self, stages: int) -> None:
        """Send the helper the bit mask of ``stages`` to run."""
        try:
            os.write(self._pipes[0], bytes((stages,)))
        except BrokenPipeError:
            raise RuntimeError(f"flow helper process {self._pid} has exited") from None

    def _wait(self) -> None:
        """Return when the helper has run the stages it was last sent."""
        if os.read(self._pipes[1], 1) != b"\0":
            raise RuntimeError(f"flow helper process {self._pid} has exited")

    def _gradients(self) -> None:
        """I_z, I_x and I_y of the frame at _now."""
        ring, (ix, iy, iz), n = self._ring, self._g, int(self._now)
        delayed = ring[(n - self.cfg.frame_delay) % len(ring)]
        self._iz_state.step(ring[n % len(ring)], out=iz)
        filter_image_separable(self._differentiator, delayed, Axis.ROWS, out=ix)
        filter_image_separable(self._differentiator, delayed, Axis.COLS, out=iy)

    def _row_pass(self) -> None:
        """The five products and their row passes, summed into the
        slot's data planes."""
        data, _ = _sides(self._work, self._upper)
        for k, (a, b) in enumerate(_PRODUCTS):
            np.multiply(self._g[a], self._g[b], out=self._product)
            forward, backward = _half_passes(self._smoother, self._product, 1, Priming.HOLD_FIRST)
            np.add(forward, backward, out=data[:, k])

    def _column_pass(self) -> None:
        # the smoother's halves are equal, so one recursion serves both
        _stacked_column_pass(self._smoother.forward, self._work, self._upper)

    def _tail(self) -> None:
        """Sum, temporal step, solve and disparity, strip by strip, into
        the result's arrays."""
        g, (field, dj) = self._g, self._out
        data, mirror = _sides(self._work, self._upper)
        forward, backward = data.transpose(1, 0, 2), mirror[::-1].transpose(1, 0, 2)
        for s in self._strips:
            rows = s.stop - s.start
            j, scratch = self._strip[:, :rows], self._scratch[:, :rows]
            np.add(forward[:, s], backward[:, s], out=j)
            self._temporal_smoother._step(self._temporal[:, :, s], j[None], j[None], scratch[None])
            strip = FlowField(vx=field.vx[s], vy=field.vy[s], valid=field.valid[s])
            solve_flow(j, self.cfg, scratch=scratch[:3], out=strip)
            for k, (a, b) in enumerate(_PRODUCTS):
                np.multiply(g[a, s], g[b, s], out=j[k])
            background_disparity(j, strip, scratch=scratch[:3], out=dj[s])

    # the stages of a frame, in order
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

    Frames of at least flow._HELPER_VALUES values run on two CPUs when
    the process may fork (see _FlowEngine): when the first result is
    due, a helper process is forked; before that, a frame only fills the
    delay line.  The helper computes the gradients and row passes of
    each frame while this process finishes the frame before, so each
    result comes one input frame later than it would in one process:
    the result for frame n - q is yielded after frame n + 1 is read, and
    the last one when the stream ends.  If the stream raises, the result
    it still owes is yielded first.  The pipeline maps 8 (24 + q) bytes
    a pixel of shared planes, against 8 (14 + q) in one process, and
    splits them: this process touches the workspace, both slots'
    gradients and the frame inbox, 184 bytes a pixel, and the helper
    the delay line, the inbox, the gradients and the workspace's data
    planes, 8 (19 + q), and keeps I_z's state.  The generator stops and
    reaps the helper when it ends, is closed or raises; a process forked
    from the caller never stops it.  If the helper dies, the next frame
    raises RuntimeError, and a helper that fails writes its traceback to
    fd 2.

    Non-finite input is not repaired: one NaN or inf sample spreads
    along its row and column through the spatial filters and stays in
    the temporal state, so every later result is invalid.  Callers that
    read untrusted frames should reject them first, as FloatStackReader
    does."""
    if cfg is None:
        cfg = FlowConfig()
    engine: _FlowEngine | None = None
    frames, failure = _frames(stream, ndim=2), None
    try:
        while True:
            try:
                frame = next(frames)
            except StopIteration:
                break
            except Exception as error:  # the stream's: the results due before it come first
                failure = error
                break
            engine = engine or _FlowEngine(cfg, frame)
            result = engine.step(frame)
            if result is not None:
                yield result
        if engine is not None and (result := engine.flush()) is not None:
            yield result
        if failure is not None:
            raise failure
    finally:
        if engine is not None:
            engine.close()
