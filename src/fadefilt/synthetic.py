"""Synthetic test sequences with known ground truth: translating
sinusoidal plaids and injected Gaussian blobs."""

from __future__ import annotations

import numpy as np

from .weights import _real, _whole


def translating_plaid(
    n_frames: int,
    height: int,
    width: int,
    velocity: tuple[float, float],
    fx: float = 0.02,
    fy: float = 0.02,
    amplitude: float = 0.2,
    offset: float = 0.5,
) -> np.ndarray:
    """Sum of an x and a y sinusoid rigidly translating at ``velocity``
    (vx, vy) pixels per frame.  Frequencies are in cycles per pixel.
    Returns a (frames, height, width) stack; each size is an integer >= 1."""
    for size, name in ((n_frames, "n_frames"), (height, "height"), (width, "width")):
        _whole(size, name, 1)
    y, x = np.mgrid[0:height, 0:width].astype(float)
    vx, vy = velocity
    frames = np.empty((n_frames, height, width))
    for n in range(n_frames):
        frames[n] = (
            offset
            + amplitude * np.sin(2 * np.pi * fx * (x - vx * n))
            + amplitude * np.sin(2 * np.pi * fy * (y - vy * n))
        )
    return frames


def add_gaussian_blob(
    frames: np.ndarray,
    velocity: tuple[float, float],
    center: tuple[float, float],
    radius: float = 8.0,
    amplitude: float = 0.35,
) -> np.ndarray:
    """Superimpose a moving Gaussian spot (sigma = radius/2, center in
    (x, y) pixels at frame 0) and clip to [0, 1]."""
    frames = _real(frames, "frames", ndim=3)
    n_frames, height, width = frames.shape
    y, x = np.mgrid[0:height, 0:width].astype(float)
    out = np.empty_like(frames)
    sig2 = 2.0 * (radius / 2.0) ** 2
    for n in range(n_frames):
        cx = center[0] + velocity[0] * n
        cy = center[1] + velocity[1] * n
        r2 = (x - cx) ** 2 + (y - cy) ** 2
        out[n] = np.clip(frames[n] + amplitude * np.exp(-r2 / sig2), 0.0, 1.0)
    return out
