"""Frequency-domain analysis: magnitude, phase, group delay, passband
flatness, Nyquist attenuation, and white-noise gain.

Group delay is computed analytically.  With P'(w) = sum_m (-jm) p_m
e^{-jwm} for a coefficient polynomial P, the delay of H = N/D is
-Im[H'/H] = Im[D'/D - N'/N]; two-sided pairs get the chain-rule sign
flip on the backward branch.  At frequencies where the response itself
vanishes (a differentiator at w = 0, or an optimally placed Nyquist
zero) the formula degenerates, and the sample is re-evaluated a
one-sided 1e-6 off the zero, where the limit is finite because the
singular part of H'/H at a simple zero is purely real.

`evaluate_response` returns a `ResponseTable`: one read-only array per
column (omega, complex value, magnitude in dB, unwrapped phase, group
delay), computed from one phase matrix per coefficient length; the
matrices are cached per grid.  `flatness_report` probes |H|^2 with
central-difference stencils around w = 0 and evaluates each distinct
|w| of the stencils once.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.signal

from .design import LdeCoefficients, NonCausalPair

DB_FLOOR = -300.0
_RESPONSE_EPS = 1e-12
_PHASE_CACHE_ELEMENTS = 8192


@dataclass(frozen=True, eq=False)
class ResponseTable:
    """The response on a frequency grid, one read-only array per column."""

    omega: np.ndarray
    value: np.ndarray
    magnitude_db: np.ndarray
    phase: np.ndarray
    group_delay: np.ndarray


def _phase_matrix(n: int, omega: np.ndarray) -> np.ndarray:
    """e^{-jwm} for m = 0..n-1, one row per frequency.  Matrices of up
    to _PHASE_CACHE_ELEMENTS entries come read-only from a bounded cache
    keyed on a copy of the grid's bytes; larger ones are built fresh."""
    if n * omega.size <= _PHASE_CACHE_ELEMENTS:
        return _cached_phase_matrix(n, omega.tobytes())
    return np.exp(-1j * np.outer(omega, np.arange(n)))


@functools.lru_cache(maxsize=256)
def _cached_phase_matrix(n: int, omega_bytes: bytes) -> np.ndarray:
    phase = np.exp(-1j * np.outer(np.frombuffer(omega_bytes), np.arange(n)))
    phase.flags.writeable = False
    return phase


def _lde_phases(lde: LdeCoefficients, omega: np.ndarray):
    """Phase matrices for (b, a); one matrix serves both when their
    lengths agree."""
    pa = _phase_matrix(len(lde.a), omega)
    pb = pa if len(lde.b) == len(lde.a) else _phase_matrix(len(lde.b), omega)
    return pb, pa


def _poly_on_circle(coef: np.ndarray, phase: np.ndarray):
    """Return (P(e^{jw}), P'(w)) from the coefficient's phase matrix."""
    return phase @ coef, phase @ (-1j * np.arange(len(coef)) * coef)


def _response(filt, omega: np.ndarray) -> np.ndarray:
    """H on the grid for an LDE or a pair."""
    if isinstance(filt, NonCausalPair):
        return _response(filt.forward, omega) + _response(filt.backward, -omega)
    pb, pa = _lde_phases(filt, omega)
    return (pb @ filt.b) / (pa @ filt.a)


def _response_parts(filt, omega: np.ndarray):
    """Return (H, dH/domega) on the grid for an LDE or a pair."""
    if isinstance(filt, NonCausalPair):
        hf, df = _response_parts(filt.forward, omega)
        hb, db = _response_parts(filt.backward, -omega)
        return hf + hb, df - db
    pb, pa = _lde_phases(filt, omega)
    num, dnum = _poly_on_circle(filt.b, pb)
    den, dden = _poly_on_circle(filt.a, pa)
    h = num / den
    dh = (dnum * den - num * dden) / (den * den)
    return h, dh


def frequency_response(filt, omega) -> np.ndarray:
    """Complex H(e^{jw}); for pairs, forward(w) + backward(-w)."""
    return _response(filt, np.atleast_1d(np.asarray(omega, dtype=float)))


def _group_delay(filt, omega: np.ndarray, h: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Group delay from (H, dH/domega) already evaluated on the grid."""
    gd = -np.imag(dh / np.where(np.abs(h) < _RESPONSE_EPS, 1.0, h))
    bad = np.abs(h) < _RESPONSE_EPS
    if np.any(bad):
        shifted = omega[bad] + np.where(omega[bad] < math.pi / 2, 1e-6, -1e-6)
        h2, dh2 = _response_parts(filt, shifted)
        gd[bad] = -np.imag(dh2 / h2)
    return gd


def group_delay(filt, omega) -> np.ndarray:
    """Analytic -d(arg H)/dw in samples, with one-sided evaluation
    wherever |H| < 1e-12."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    return _group_delay(filt, omega, *_response_parts(filt, omega))


def evaluate_response(filt, omega_grid) -> ResponseTable:
    """Sample the response on a finite grid in [0, pi].  Phase is
    unwrapped by nearest-branch continuation along the grid; magnitudes
    below the -300 dB floor are clamped there."""
    omega = np.array(omega_grid, dtype=float, ndmin=1)
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega grid must be finite")
    if omega.size and (omega.min() < 0.0 or omega.max() > math.pi + 1e-12):
        raise ValueError("omega grid must lie within [0, pi]")
    h, dh = _response_parts(filt, omega)
    mag = np.abs(h)
    with np.errstate(divide="ignore"):
        mdb = np.maximum(20.0 * np.log10(np.where(mag > 0, mag, np.nan)), DB_FLOOR)
    mdb = np.where(np.isnan(mdb), DB_FLOOR, mdb)
    columns = (omega, h, mdb, np.unwrap(np.angle(h)), _group_delay(filt, omega, h, dh))
    for col in columns:
        col.flags.writeable = False
    return ResponseTable(*columns)


def write_response_csv(table: ResponseTable, out, flatness=None) -> None:
    """CSV rows omega,magnitude_db,phase_rad,group_delay at 9 significant
    digits; an optional flatness report is appended as '#' comments."""

    def emit(f):
        f.write("omega,magnitude_db,phase_rad,group_delay\n")
        rows = zip(table.omega.tolist(), table.magnitude_db.tolist(),
                   table.phase.tolist(), table.group_delay.tolist())
        for w, db, ph, gd in rows:
            f.write(f"{w:.9g},{db:.9g},{ph:.9g},{gd:.9g}\n")
        if flatness is not None:
            for k, m in enumerate(flatness, start=1):
                f.write(f"# flatness order {k}: {m:.6e}\n")

    if hasattr(out, "write"):
        emit(out)
    else:
        with open(out, "w") as f:
            emit(f)


def _central_derivative(f, order: int, h: float) -> float:
    # symmetric binomial stencil, O(h^2) accurate
    acc = 0.0
    for k in range(order + 1):
        offset = (order / 2.0 - k) * h
        acc += (-1.0) ** k * math.comb(order, k) * f(offset)
    return acc / h**order


def flatness_report(filt, max_order: int = 3, step: float = 1e-3) -> np.ndarray:
    """Richardson-extrapolated central-difference magnitudes of the
    first max_order derivatives of |H(w)|^2 at w = 0.  |H|^2 is even, so
    each distinct |w| of the stencils is evaluated once, as a
    single-point response."""
    if (isinstance(max_order, bool) or not isinstance(max_order, numbers.Integral)
            or not 1 <= max_order <= 6):
        raise ValueError(f"max_order must be an integer in 1..6, got {max_order!r}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    seen: dict[float, float] = {}

    def g(w):
        w = abs(w)
        if w not in seen:
            seen[w] = float(np.abs(frequency_response(filt, w))[0] ** 2)
        return seen[w]

    out = np.empty(max_order)
    for order in range(1, max_order + 1):
        d_h = _central_derivative(g, order, step)
        d_h2 = _central_derivative(g, order, step / 2.0)
        out[order - 1] = abs((4.0 * d_h2 - d_h) / 3.0)
    return out


def is_flat(filt, max_order: int = 3, rel_tol: float = 1e-4) -> bool:
    """True when the first max_order derivatives of |H|^2 at 0 all fall
    below rel_tol relative to |H(0)|^2."""
    g0 = float(np.abs(frequency_response(filt, 0.0))[0] ** 2)
    mags = flatness_report(filt, max_order)
    return bool(np.all(mags <= rel_tol * g0)) if g0 > 0 else False


def nyquist_gain(filt) -> float:
    """|H| at the Nyquist frequency w = pi."""
    return float(np.abs(frequency_response(filt, math.pi))[0])


def zero_at_minus_one(lde: LdeCoefficients) -> bool:
    """True when the numerator has a zero at z = -1 (alternating sum
    below 1e-10 of the coefficient l1 mass)."""
    alt = float(np.sum(lde.b * (-1.0) ** np.arange(len(lde.b))))
    return abs(alt) < 1e-10 * float(np.sum(np.abs(lde.b)))


def white_noise_gain(lde: LdeCoefficients, tolerance: float = 1e-12) -> float:
    """Variance reduction factor sum_m h[m]^2 for unit-variance white
    input.  The impulse response is run in blocks and the sum truncated
    once a geometric envelope bound on the remaining tail drops below
    tolerance times the partial sum."""
    b, a = lde.b, lde.a
    if len(a) > 1:
        roots = np.roots(a)
        rho = float(np.max(np.abs(roots))) if roots.size else 0.0
    else:
        rho = 0.0
    n = len(a) - 1
    block = 512
    x = np.zeros(block)
    x[0] = 1.0
    zi = np.zeros(max(len(a), len(b)) - 1)
    total = 0.0
    start = 0
    while True:
        h, zi = scipy.signal.lfilter(b, a, x, zi=zi)
        x[0] = 0.0
        e_blk = float(h @ h)
        total += e_blk
        start += block
        # block-to-block envelope ratio for |h[m]| <= C m^(n-1) rho^m
        if rho > 0.0:
            r = (rho**block * ((start + block) / start) ** max(n - 1, 0)) ** 2
        else:
            r = 0.0
        if r < 1.0 and (e_blk * r / (1.0 - r) if r > 0 else 0.0) <= tolerance * total:
            break
        if start > 5_000_000:
            raise RuntimeError("white_noise_gain failed to converge")
    return total
