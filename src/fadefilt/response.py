"""Frequency-domain analysis: magnitude, phase, group delay, passband
flatness, Nyquist attenuation, and white-noise gain.

Every response quantity reads one exact derivative series H, dH/dw,
d^2H/dw^2, ... on a grid, which each half yields itself
(design.LdeCoefficients); a two-sided pair adds its backward half at
-w with the chain-rule sign (-1)^r.  The group delay is -Im[H'/H].  At
a zero of order k (a differentiator at w = 0, an optimally placed
Nyquist zero) it is the exact limit -Im[H^(k+1) / ((k+1) H^(k))]: each
H^(r), r < k, is within rounding of 0 or has a zero within 1e-9 rad of
the sample.  The orders at the zeros of a grid are drawn on a grid of
their own, so a zero's delay does not depend on the grid it sits on.
`flatness_report` gives the exact derivatives of |H|^2 = H conj(H) at
w = 0.  `evaluate_response` returns a `ResponseTable`: one read-only
array per column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .design import LdeCoefficients, _require_halves
from .weights import _real, _whole

DB_FLOOR = -300.0
_ZERO_RADIUS = 1e-9  # rad: a sample this close to a zero of H^(r) is at it


@dataclass(frozen=True, eq=False)
class ResponseTable:
    """The response on a frequency grid, one read-only array per column."""

    omega: np.ndarray
    value: np.ndarray
    magnitude_db: np.ndarray
    phase: np.ndarray
    group_delay: np.ndarray


def _derivative_series(filt, omega: np.ndarray):
    """An iterator over (d^r H/dw^r, denominator derivatives per half)
    for r = 0, 1, 2, ...; a pair's second half runs over reversed time,
    so it adds its series at -w with the sign (-1)^r."""
    forward, *backward = filt.halves
    if not backward:
        return ((h, (den,)) for h, den in forward._series(omega))
    halves = zip(forward._series(omega), backward[0]._series(-omega))
    return ((hf - hb if r % 2 else hf + hb, (den_f, den_b))
            for r, ((hf, den_f), (hb, den_b)) in enumerate(halves))


def frequency_response(filt, omega) -> np.ndarray:
    """Complex H(e^{jw}) on a real grid, flattened; for pairs,
    forward(w) + backward(-w)."""
    return next(_derivative_series(filt, _real(omega, "omega").ravel()))[0]


def _value_and_delay(filt, omega: np.ndarray):
    """H and the group delay -Im[H'/H] on the grid.  At a zero of order
    k >= 1, H'/H = k/dw + H^(k+1) / ((k+1) H^(k)) + O(dw) and k/dw is
    real, so the delay is -Im[H^(k+1) / ((k+1) H^(k))].  The orders at
    the zeros are drawn on a grid of the zeros alone until each k is
    known; a zero where every order up to the numerator's degree counts
    as one keeps -Im[H'/H]."""
    halves, series = filt.halves, _derivative_series(filt, omega)
    (h, dens), (d, _) = next(series), next(series)
    with np.errstate(divide="ignore", invalid="ignore"):
        gd = -np.imag(d / h)
    zero = ~_nonzero(halves, dens, [h, d])
    if zero.any():
        series = _derivative_series(filt, omega[zero])
        (hz, dens), (dz, _) = next(series), next(series)
        hs, at_zero, pending = [hz, dz], gd[zero], np.ones(hz.size, dtype=bool)
        for r in range(2, 2 + sum(f.order + 1 for f in halves)):
            hs.append(next(series)[0])
            found = pending & _nonzero(halves, dens, hs)
            at_zero[found] = -np.imag(hs[r][found] / hs[r - 1][found]) / r
            pending &= ~found
            if not pending.any():
                break
        gd[zero] = at_zero
    return h, gd


def _nonzero(halves, dens, hs) -> np.ndarray:
    """Whether H^(r), the order before the last in hs, is no zero where
    every lower order is one: it is above the halves' rounding floors
    and has no zero within _ZERO_RADIUS, |H^(r)| > _ZERO_RADIUS |H^(r+1)|."""
    floor = sum(f._rounding_floor(den, hs) for f, den in zip(halves, dens))
    return np.abs(hs[-2]) > np.maximum(floor, _ZERO_RADIUS * np.abs(hs[-1]))


def group_delay(filt, omega) -> np.ndarray:
    """Analytic -d(arg H)/dw in samples on a real grid, flattened, with
    the exact limit at zeros of the response."""
    return _value_and_delay(filt, _real(omega, "omega").ravel())[1]


def evaluate_response(filt, omega_grid) -> ResponseTable:
    """Sample the response on a real, finite grid in [0, pi], flattened.
    Phase is unwrapped by nearest-branch continuation along the grid;
    magnitudes below the -300 dB floor are clamped there."""
    omega = _real(omega_grid, "omega grid").flatten()
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega grid must be finite")
    if omega.size and (omega.min() < 0.0 or omega.max() > math.pi + 1e-12):
        raise ValueError("omega grid must lie within [0, pi]")
    h, gd = _value_and_delay(filt, omega)
    mag = np.abs(h)
    with np.errstate(divide="ignore"):
        mdb = np.maximum(20.0 * np.log10(np.where(mag > 0, mag, np.nan)), DB_FLOOR)
    mdb = np.where(np.isnan(mdb), DB_FLOOR, mdb)
    columns = (omega, h, mdb, np.unwrap(np.angle(h)), gd)
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


def flatness_report(filt, max_order: int = 3) -> np.ndarray:
    """Magnitudes of the first max_order (an integer in 1..6) derivatives
    of |H(w)|^2 at w = 0, exact from the derivative series by Leibniz's
    rule on H conj(H).  At w = 0 each H^(i) lies on the axis j^i R, so
    every product of an odd order is imaginary and odd orders come out 0."""
    _whole(max_order, "max_order", 1, 6)
    series = itertools.islice(_derivative_series(filt, np.zeros(1)), max_order + 1)
    h = [complex(value[0]) for value, _ in series]
    return np.array([
        abs(sum(math.comb(r, i) * h[i] * h[r - i].conjugate() for i in range(r + 1)).real)
        for r in range(1, max_order + 1)
    ])


def nyquist_gain(filt) -> float:
    """|H| at the Nyquist frequency w = pi."""
    return float(np.abs(frequency_response(filt, math.pi))[0])


def white_noise_gain(lde: LdeCoefficients) -> float:
    """Variance reduction factor sum_m h[m]^2 for unit-variance white
    input.  The impulse response is run in blocks and the sum truncated
    once a geometric envelope bound on the remaining tail drops below
    1e-12 (design._WNG_TOLERANCE) times the partial sum; causal filters only."""
    _require_halves(lde, 1, "white_noise_gain")
    return lde._noise_gain()
