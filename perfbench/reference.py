"""Host-speed reference: fixed kernels timed next to the operations, so
that timings can be stated at a nominal host speed.

The benchmark runs on a few cores of a shared host whose speed wanders
by 15-50% over seconds to minutes.  Every timed operation is therefore
bracketed by runs of a reference kernel: fixed code of this benchmark's
own that does the same kind of work as the operation (pure-Python scalar
recursions and small numpy calls for a design job, long separable
``lfilter`` passes and whole-image arithmetic for a VGA frame, short
``lfilter`` calls on a 128x128 image for a frame of the CLI, a fresh
interpreter importing numpy and scipy.signal for a set-up probe).  The
kernels never call fadefilt, so a change to the package moves the
operation and not its reference.  An operation's normalized time is

    measured time * NOMINAL[kernel] / (reference time near it)

that is, what it would have taken had the host run the reference at its
nominal speed.  NOMINAL holds each kernel's time on a quiet 2-vCPU Linux
VM (Python 3.11, numpy 2.4, scipy 1.17); it only sets the scale.

Run as a script it is the process-start kernel:

    python3 perfbench/reference.py FRAMES

imports numpy and scipy.signal and runs the small-image kernel FRAMES
times; its parent times it from outside.
"""

from __future__ import annotations

import bisect
import functools
import math
import statistics
import subprocess
import sys
import time

# kernel -> seconds at nominal host speed
NOMINAL = {
    "scalar": 0.005,
    "image": 0.010,
    "small_image": 0.0025,
    "startup": 1.5,
}
STARTUP_FRAMES = 100  # small-image frames in the process-start kernel


@functools.cache
def _input(name: str):
    """The kernels' fixed inputs, made on first use and never written."""
    import numpy as np

    if name == "grid":
        return np.linspace(0.0, math.pi, 512)
    shape = {"signal": 4096, "image": (480, 640), "small": (128, 128)}[name]
    return np.random.default_rng(12345).standard_normal(shape)


def scalar_kernel() -> None:
    """Design-job mix: a scalar transposed direct-form II recursion in
    pure Python, small complex numpy products and one short lfilter."""
    import numpy as np
    import scipy.signal

    signal, grid = _input("signal"), _input("grid")
    b, a = (0.1, 0.2, 0.05), (1.0, -0.9, 0.2)
    z1 = z2 = 0.0
    out = []
    for v in signal[:1500].tolist():
        y = b[0] * v + z1
        z1 = b[1] * v - a[1] * y + z2
        z2 = b[2] * v - a[2] * y
        out.append(y)
    for _ in range(60):
        np.exp(-1j * np.outer(grid, np.arange(4))).sum(axis=1)
    scipy.signal.lfilter(b, a, signal)


def image_kernel() -> None:
    """VGA-frame mix: separable lfilter passes over a 640x480 image and
    whole-image elementwise arithmetic."""
    import scipy.signal

    img = _input("image")
    y = img
    for axis in (0, 1, 1, 0):
        y = scipy.signal.lfilter((0.2, 0.1), (1.0, -0.7), img, axis=axis)
    z = img * y
    z += img
    (z * z).sum()


def small_image_kernel() -> None:
    """128x128-frame mix: many short lfilter calls with initial
    conditions on a small image (per-call overhead, not arithmetic)."""
    import scipy.signal

    img = _input("small")
    b, a = (0.2, 0.1), (1.0, -0.7)
    zi = scipy.signal.lfilter_zi(b, a)
    for axis in (0, 1) * 6:
        scipy.signal.lfilter(b, a, img, axis=axis, zi=zi[0] * img.take([0], axis=axis))
        scipy.signal.lfilter_zi(b, a)
    (img * img + img).sum()


def startup_kernel() -> None:
    """Process start: a fresh interpreter imports numpy and scipy.signal
    and runs the small-image kernel STARTUP_FRAMES times."""
    import common

    subprocess.run([sys.executable, __file__, str(STARTUP_FRAMES)], env=common.child_env(),
                   cwd=common.ROOT, timeout=60.0, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)


KERNELS = {"scalar": scalar_kernel, "image": image_kernel, "small_image": small_image_kernel,
           "startup": startup_kernel}


class HostClock:
    """Reference samples taken between operations, and the normalization
    of operation times by the ``nearest`` samples around them in time."""

    def __init__(self, kernel: str, nearest: int = 5):
        self.kernel = kernel
        self.nearest = nearest
        self._run = KERNELS[kernel]
        self.stamps: list[float] = []  # when each reference sample ended
        self.times: list[float] = []  # how long it took

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._run()
        t1 = time.perf_counter()
        self.record(t1, t1 - t0)

    def record(self, stamp: float, seconds: float) -> None:
        self.stamps.append(stamp)
        self.times.append(seconds)

    def speed_near(self, stamp: float) -> float:
        """Median time of the ``nearest`` reference samples around ``stamp``."""
        if not self.times:
            raise ValueError("no reference samples")
        i = bisect.bisect_left(self.stamps, stamp)
        lo = max(0, min(i - self.nearest // 2, len(self.times) - self.nearest))
        return statistics.median(self.times[lo:lo + self.nearest])

    def normalize(self, stamp: float, seconds: float) -> float:
        return seconds * NOMINAL[self.kernel] / self.speed_near(stamp)

    def summary(self) -> dict:
        return {"kernel": self.kernel, "samples": len(self.times),
                "median_s": statistics.median(self.times) if self.times else None,
                "nominal_s": NOMINAL[self.kernel]}


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        small_image_kernel()
