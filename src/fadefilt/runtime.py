"""Filter execution: streaming scalar state, whole-signal passes,
separable image filtering, and lazy per-pixel filtering of frame
streams.

Every filter is a tuple of causal halves, ``filt.halves``: a two-sided
pair adds a second half run over reversed time to the one half of a
causal filter.  Streaming paths take causal filters only.

Each half runs itself through its private methods (see
design.LdeCoefficients): the whole-array pass, the stepped array update
of FrameFilter and the stacked column pass, and FilterState's compiled
scalar step agree bit for bit; tests rely on that.

The per-pixel paths, FrameFilter and the flow engine's tail, run in
row strips of about 16 K values (``_row_strips``), so that the planes a
strip touches stay in L2 cache between ufunc calls.  Every operation
there is elementwise, so a strip's bits are those of the whole-frame
call.

Priming controls the initial delay-line contents.  Zero starts from
rest.  HoldFirst loads the analytic steady state the filter would have
reached if the input had been equal to its first sample forever, which
suppresses start-up transients on signals and at image borders (it
cannot remove them entirely).
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Iterator

import numpy as np

from .design import LdeCoefficients, NonCausalPair, _require_halves
from .weights import _real


class Priming(enum.Enum):
    ZERO = "zero"
    HOLD_FIRST = "hold"


class Axis(enum.Enum):
    ROWS = "rows"
    COLS = "cols"


class FilterState:
    """Single-channel streaming filter.  Mutable and single-owner; make
    one per concurrent stream.  ``step(x)`` advances one real sample and
    returns the output as a Python float; it is the compiled kernel for
    the filter's order, with the coefficients and the delay-line list
    bound once."""

    def __init__(self, coefficients: LdeCoefficients):
        _require_halves(coefficients, 1, "FilterState")
        self.coefficients = coefficients
        self._z = [0.0] * coefficients.order
        self.step = coefficients._scalar_step(self._z)

    @property
    def delay_line(self) -> np.ndarray:
        """A float64 copy of the delay-line contents."""
        return np.array(self._z)

    def reset(self) -> None:
        self._z[:] = [0.0] * len(self._z)

    def prime_constant(self, x0: float) -> None:
        """Jump to the steady state for constant input x0, a real number."""
        self._z[:] = self.coefficients._held(_real(x0, "x0", ndim=0)).tolist()


# Values in one strip of a per-pixel pass: 16 K float64 values, 128 KB
# a plane, so a strip's operands stay in a 2 MB L2 cache where whole
# planes would stream through L3 once per ufunc.
_STRIP_VALUES = 16384


def _row_strips(height: int, width: int) -> tuple[int, list[slice]]:
    """Rows per strip and the row strips of a per-pixel pass over
    ``height`` rows of ``width`` values each: ``_STRIP_VALUES // width``
    rows, at least one and at most all, the last strip partial."""
    rows = max(1, min(_STRIP_VALUES // max(width, 1), height))
    return rows, [slice(r, min(r + rows, height)) for r in range(0, height, rows)]


# Values in a frame from which the flow engine runs it as two bands,
# band 1 in a forked helper process (flow._FlowEngine).  On 2 vCPUs a
# 40-frame pass took 466 against 736 ms at 256x256, 532 against 826 ms
# at 320x240 and 1189 against 1959 ms at 480x360, fork included.
# 128x128 stays on one band: its pass gained less (170 against 206 ms),
# and its first result, which pays the fork, took twice as long.
_BAND_VALUES = 65536


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


class FrameFilter:
    """Vectorized causal filter over a stream of equally shaped frames:
    one independent state of the half per pixel.  A step
    runs in row strips of axis 0 (see ``_row_strips``), which keeps each
    strip's operands in cache and needs one strip of scratch; per pixel
    the operations are those of one whole-frame step.  ``hold`` and each
    frame must be real and of the filter's shape."""

    def __init__(self, coefficients: LdeCoefficients, shape, hold: np.ndarray | None = None):
        _require_halves(coefficients, 1, "FrameFilter")
        self.coefficients = coefficients
        self._shape = shape = tuple(shape)
        self.state = (np.zeros((coefficients.order,) + shape) if hold is None
                      else coefficients._held(_real(hold, "hold", shape=shape)))
        if shape:
            rows, self._strips = _row_strips(shape[0], math.prod(shape[1:]))
            self._scratch = np.empty((rows,) + shape[1:])
        else:
            self._scratch = np.empty(())

    def step(self, frame: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Advance every pixel by one frame and return the output frame,
        written into ``out`` when given; ``out`` may be ``frame`` itself."""
        x, t, half = _real(frame, "frame", shape=self._shape), self._scratch, self.coefficients
        if not x.ndim:
            return half._step(self.state, x, out, t)
        y = np.empty(x.shape) if out is None else out
        for s in self._strips:
            half._step(self.state[:, s], x[s], y[s], t[: s.stop - s.start])
        return y


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


def _half_passes(filt, x: np.ndarray, axis: int, priming: Priming) -> list[np.ndarray]:
    """The causal pass of each of ``filt``'s halves along ``axis``, the
    second half run over the flipped axis and returned flipped back."""
    (forward, *backward), hold = filt.halves, priming is Priming.HOLD_FIRST
    passes = [forward._pass(x, axis, hold)]
    if backward:
        bwd = backward[0]._pass(np.flip(x, axis=axis), axis, hold)
        passes.append(np.flip(bwd, axis=axis))
    return passes


def _halves_pass(filt, x: np.ndarray, axis: int, priming: Priming, out=None) -> np.ndarray:
    """The sum of ``filt``'s half passes along ``axis`` (_half_passes),
    written into ``out`` when given and else into the first pass's
    output."""
    y, *backward = _half_passes(filt, x, axis, priming)
    out = y if out is None else out
    if backward:
        return np.add(y, backward[0], out=out)
    if out is not y:
        np.copyto(out, y)
    return out


def filter_causal(
    lde: LdeCoefficients, signal, priming: Priming = Priming.ZERO
) -> np.ndarray:
    """Run the LDE left to right over a real, non-empty 1-D signal."""
    _require_halves(lde, 1, "filter_causal")
    return _halves_pass(lde, _real(signal, "signal", ndim=1), 0, priming)


def filter_noncausal(
    pair: NonCausalPair, signal, priming: Priming = Priming.HOLD_FIRST
) -> np.ndarray:
    """Forward plus reversed backward pass over a real, non-empty 1-D signal."""
    _require_halves(pair, 2, "filter_noncausal")
    return _halves_pass(pair, _real(signal, "signal", ndim=1), 0, priming)


def filter_image_separable(
    filt, image, axis: Axis, priming: Priming = Priming.HOLD_FIRST, out=None
) -> np.ndarray:
    """Apply a 1-D filter independently to every row (Axis.ROWS, i.e.
    along x) or every column (Axis.COLS, along y) of a real 2-D image,
    no axis empty.  The result is written into ``out`` when given."""
    img = _real(image, "image", ndim=2)
    return _halves_pass(filt, img, 1 if axis is Axis.ROWS else 0, priming, out)


def filter_time_stack(
    lde: LdeCoefficients,
    frames: Iterable[np.ndarray],
    priming: Priming = Priming.HOLD_FIRST,
) -> Iterator[np.ndarray]:
    """Lazily filter a frame stream along time, one state per pixel.
    Frame streams are causal only; use the image path for two-sided
    spatial work.  A frame that is complex or shaped unlike frame 0
    raises ValueError naming its index."""
    _require_halves(lde, 1, "a frame stream")
    ff = None
    for frame in _frames(frames):
        hold = frame if priming is Priming.HOLD_FIRST else None
        ff = ff or FrameFilter(lde, frame.shape, hold=hold)
        yield ff.step(frame)


def _frames(stream: Iterable, ndim: int | None = None) -> Iterator[np.ndarray]:
    """The frames of ``stream`` as _real checks them: frame 0 with ``ndim``
    axes, none empty, when ``ndim`` is given, and every later frame of its shape."""
    shape = None
    for n, frame in enumerate(stream):
        frame = _real(frame, f"frame {n}", ndim=ndim if shape is None else None, shape=shape)
        shape = frame.shape
        yield frame
