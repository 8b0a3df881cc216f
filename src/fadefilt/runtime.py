"""Filter execution: streaming scalar state, whole-signal passes,
separable image filtering, and lazy per-pixel filtering of frame
streams.

Every filter is a tuple of causal halves, ``filt.halves``: a two-sided
pair adds a second half run over reversed time to the one half of a
causal filter.  Streaming paths take causal filters only.

All realizations are transposed direct-form II.  The scalar
FilterState, the scipy.signal.lfilter array path, and the vectorized
step that FrameFilter and the stacked column pass share perform the
same floating-point operations in the same order, so their outputs
agree bit for bit; tests rely on that.
FilterState steps on Python floats, which are IEEE doubles like
numpy's float64, so it stays bitwise equal to filter_causal at a
fraction of the cost of stepping on numpy scalars.  Its step is
straight-line code generated and compiled once per filter order
(order 0 included), with the loop's operations in the loop's order.

Priming controls the initial delay-line contents.  Zero starts from
rest.  HoldFirst loads the analytic steady state the filter would have
reached if the input had been equal to its first sample forever, which
suppresses start-up transients on signals and at image borders (it
cannot remove them entirely).
"""

from __future__ import annotations

import enum
import functools
from typing import Iterable, Iterator

import numpy as np
import scipy.signal

from .design import LdeCoefficients, NonCausalPair


class Priming(enum.Enum):
    ZERO = "zero"
    HOLD_FIRST = "hold"


class Axis(enum.Enum):
    ROWS = "rows"
    COLS = "cols"


def _padded(lde: LdeCoefficients) -> tuple[np.ndarray, np.ndarray]:
    n = max(len(lde.b), len(lde.a))
    b = np.zeros(n)
    a = np.zeros(n)
    b[: len(lde.b)] = lde.b
    a[: len(lde.a)] = lde.a
    return b, a


@functools.lru_cache(maxsize=64)
def _step_kernel(order: int):
    """Compile, once per order, a factory for a straight-line transposed
    direct-form II step.  The factory binds a delay-line list and the
    coefficients as default arguments, so the step loads them as locals;
    each z[i] keeps the loop's order, z[i+1] + b[i+1]*x - a[i+1]*y."""
    coef = [f"b{i}" for i in range(order + 1)] + [f"a{i}" for i in range(1, order + 1)]
    body = ["x = float(x)", "y = b0 * x" + (" + z[0]" if order else "")]
    body += [f"z[{i}] = {f'z[{i + 1}] + ' if i + 1 < order else ''}b{i + 1} * x - a{i + 1} * y"
             for i in range(order)]
    source = (f"def make(z, {', '.join(coef)}):\n"
              f"    def step(x, z=z, {', '.join(f'{c}={c}' for c in coef)}, float=float):\n"
              + "".join(f"        {line}\n" for line in body + ["return y"])
              + "    return step\n")
    namespace: dict = {}
    exec(source, namespace)
    return namespace["make"]


class FilterState:
    """Single-channel streaming filter.  Mutable and single-owner; make
    one per concurrent stream.  ``step(x)`` advances one sample and
    returns the output as a Python float; it is the compiled kernel for
    the filter's order, with the coefficients and the delay-line list
    bound once."""

    def __init__(self, coefficients: LdeCoefficients):
        _require_halves(coefficients, 1, "FilterState")
        self.coefficients = coefficients
        b, a = _padded(coefficients)
        self._z = [0.0] * (len(b) - 1)
        self.step = _step_kernel(len(self._z))(self._z, *b.tolist(), *a[1:].tolist())

    @property
    def delay_line(self) -> np.ndarray:
        """A float64 copy of the delay-line contents."""
        return np.array(self._z)

    def reset(self) -> None:
        self._z[:] = [0.0] * len(self._z)

    def prime_constant(self, x0: float) -> None:
        """Jump to the steady state for constant input x0."""
        self._z[:] = (self.coefficients.steady_state * x0).tolist()


class FrameFilter:
    """Vectorized causal filter over a stream of equally shaped frames:
    one independent transposed direct-form II state per pixel."""

    def __init__(self, coefficients: LdeCoefficients, shape, hold: np.ndarray | None = None):
        _require_halves(coefficients, 1, "FrameFilter")
        self._b, self._a = _padded(coefficients)
        n = len(self._b) - 1
        shape = tuple(shape)
        if hold is not None:
            zi = coefficients.steady_state
            self.state = zi.reshape((n,) + (1,) * len(shape)) * np.asarray(hold, float)
        else:
            self.state = np.zeros((n,) + shape)
        self._scratch = np.empty(shape)

    def step(self, frame: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Advance every pixel by one frame and return the output frame,
        written into ``out`` when given; ``out`` may be ``frame`` itself."""
        x, t = np.asarray(frame, dtype=float), self._scratch
        if x.shape != t.shape:
            raise ValueError(f"frame shape {x.shape} does not match the filter's {t.shape}")
        return _tdf2_step(self._b, self._a, self.state, x, out, t)


def _tdf2_step(b, a, z, x: np.ndarray, out, t: np.ndarray) -> np.ndarray:
    """One transposed direct-form II step over every element of ``x``,
    in lfilter's order: y = b0*x + z[0], z[i] = (z[i+1] + b[i+1]*x) -
    a[i+1]*y.  ``t`` is scratch shaped like ``x``; ``out`` may be ``x``.
    Every product with x is taken before y is written (z[i] gains
    b[i]*x for z[i-1], ``t`` takes b[n]*x), so order 1 costs five
    ufunc calls."""
    n = z.shape[0]
    if n == 0:
        return np.multiply(x, b[0], out=out)
    # z[i, ...] stays an array view even for 0-d frames, where z[i]
    # would be a numpy scalar that cannot take out=
    for i in range(1, n):
        z[i, ...] += np.multiply(x, b[i], out=t)
    np.multiply(x, b[n], out=t)
    y = np.multiply(x, b[0], out=out)
    y += z[0]
    for i in range(n - 1):
        np.subtract(z[i + 1], np.multiply(y, a[i + 1], out=z[i, ...]), out=z[i, ...])
    np.subtract(t, np.multiply(y, a[n], out=z[n - 1, ...]), out=z[n - 1, ...])
    return y


def _causal_pass(lde: LdeCoefficients, x: np.ndarray, axis: int, priming: Priming) -> np.ndarray:
    if priming is Priming.HOLD_FIRST:
        zi = lde.steady_state
        if axis == 0:
            hold = x[:1] * zi.reshape((-1,) + (1,) * (x.ndim - 1))
        else:
            hold = x[:, :1] * zi
        y, _ = scipy.signal.lfilter(lde.b, lde.a, x, axis=axis, zi=hold)
        return y
    return scipy.signal.lfilter(lde.b, lde.a, x, axis=axis)


def _stacked_column_pass(half: LdeCoefficients, work: np.ndarray) -> np.ndarray:
    """Filter the k planes work[:, :k] of an (H, 2k, W) ``work`` in
    place along axis 0 with the two-sided pair whose halves are both
    ``half``: per plane, the bytes of filter_image_separable(...,
    Axis.COLS).  work[:, k:] takes the rows reversed, so step i
    advances the forward half on row i and the backward half on row
    H-1-i of every plane at once; work[:, k:] is dead afterwards."""
    k = work.shape[1] // 2
    # a ufunc copy: np.copyto cannot tell that the reversed slots are
    # disjoint and would buffer all k planes first
    np.positive(work[::-1, :k], out=work[:, k:])
    b, a = _padded(half)
    z = work[:1] * half.steady_state.reshape((-1,) + (1,) * (work.ndim - 1))
    t = np.empty(work.shape[1:])
    for row in work:
        _tdf2_step(b, a, z, row, row, t)
    work[:, :k] += work[::-1, k:]
    return work[:, :k]


def _halves_pass(filt, x: np.ndarray, axis: int, priming: Priming, out=None) -> np.ndarray:
    """The sum of the causal passes of ``filt``'s halves along ``axis``,
    the second half run over the flipped axis, written into ``out`` when
    given and else into the first pass's output."""
    forward, *backward = filt.halves
    y = _causal_pass(forward, x, axis, priming)
    out = y if out is None else out
    if backward:
        bwd = _causal_pass(backward[0], np.flip(x, axis=axis), axis, priming)
        return np.add(y, np.flip(bwd, axis=axis), out=out)
    if out is not y:
        np.copyto(out, y)
    return out


def _require_halves(filt, count: int, user: str) -> None:
    """Raise ValueError unless ``filt`` has ``count`` halves."""
    kinds = ("a causal filter", "a two-sided pair")
    if len(filt.halves) != count:
        raise ValueError(f"{user} needs {kinds[count - 1]}, got {kinds[2 - count]}")


def _signal(signal) -> np.ndarray:
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("signal must be a non-empty 1-D array")
    return x


def filter_causal(
    lde: LdeCoefficients, signal, priming: Priming = Priming.ZERO
) -> np.ndarray:
    """Run the LDE left to right over a 1-D signal."""
    _require_halves(lde, 1, "filter_causal")
    return _halves_pass(lde, _signal(signal), 0, priming)


def filter_noncausal(
    pair: NonCausalPair, signal, priming: Priming = Priming.HOLD_FIRST
) -> np.ndarray:
    """Forward pass plus reversed backward pass, summed."""
    _require_halves(pair, 2, "filter_noncausal")
    return _halves_pass(pair, _signal(signal), 0, priming)


def filter_image_separable(
    filt, image, axis: Axis, priming: Priming = Priming.HOLD_FIRST, out=None
) -> np.ndarray:
    """Apply a 1-D filter independently to every row (Axis.ROWS, i.e.
    along x) or every column (Axis.COLS, along y) of a 2-D image.  The
    result is written into ``out`` when given."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    return _halves_pass(filt, img, 1 if axis is Axis.ROWS else 0, priming, out)


def filter_time_stack(
    lde: LdeCoefficients,
    frames: Iterable[np.ndarray],
    priming: Priming = Priming.HOLD_FIRST,
) -> Iterator[np.ndarray]:
    """Lazily filter a frame stream along time, one state per pixel.
    Frame streams are causal only; use the image path for two-sided
    spatial work.  A frame shaped unlike frame 0 raises ValueError
    naming its index and both shapes."""
    _require_halves(lde, 1, "a frame stream")
    ff = None
    for n, frame in enumerate(frames):
        frame = np.asarray(frame, dtype=float)
        if ff is None:
            shape = frame.shape
            ff = FrameFilter(lde, shape, hold=frame if priming is Priming.HOLD_FIRST else None)
        elif frame.shape != shape:
            raise ValueError(f"frame {n} has shape {frame.shape}, but frame 0 had {shape}")
        yield ff.step(frame)
