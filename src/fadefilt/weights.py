"""Discount weight sequences and their exact power moments.

A fading-memory regression discounts past samples with a weight
sequence.  Two families are supported:

* causal:     w(m) = m**kappa * exp(sigma*m),  m = 0, 1, 2, ...
* two-sided:  w(m) = p**|m| = exp(sigma*|m|),  m = ..., -1, 0, 1, ...

with sigma < 0, so the discount factor p = exp(sigma) lies in (0, 1).
The integer kappa >= 0 shapes the causal window; kappa >= 1 forces
w(0) = 0, which removes the newest sample from the fit and buys extra
smoothness at the cost of delay.  The two-sided window is symmetric
and only defined for kappa = 0.

All design math downstream reduces to the power moments
sum_m m**j w(m), which have closed forms via Stirling numbers of the
second kind; no truncated summation is involved.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Causality(enum.Enum):
    CAUSAL = "causal"
    TWO_SIDED = "two-sided"


def _check_sigma(name: str, sigma: float) -> None:
    """Raise ValueError, naming the field, unless ``sigma`` is finite
    and < 0 and its pole exp(sigma) lies in (0, 1): a sigma within about
    2**-54 of 0 has a pole of exactly 1.0, and one below about -745 a
    pole of exactly 0.0."""
    if not (math.isfinite(sigma) and sigma < 0.0):
        raise ValueError(f"{name} must be finite and < 0, got {sigma}")
    if math.exp(sigma) == 1.0:
        raise ValueError(f"{name} is too close to 0: its pole exp({name}) rounds to 1, "
                         f"got {sigma}")
    if math.exp(sigma) == 0.0:
        raise ValueError(f"{name} is too far below 0: its pole exp({name}) underflows to 0, "
                         f"got {sigma}")


@dataclass(frozen=True)
class WeightSpec:
    """Parameters of a discount weight sequence.

    sigma : float, log of the discount factor, must be < 0 with
        exp(sigma) in (0, 1).
    kappa : int >= 0, polynomial shaping exponent (causal only).
    causality : which support the window has.
    """

    sigma: float
    kappa: int = 0
    causality: Causality = Causality.CAUSAL

    def __post_init__(self):
        _check_sigma("sigma", self.sigma)
        if self.kappa < 0 or int(self.kappa) != self.kappa:
            raise ValueError(f"kappa must be a nonnegative integer, got {self.kappa}")
        if self.causality is Causality.TWO_SIDED and self.kappa != 0:
            raise ValueError("two-sided windows require kappa == 0")

    @property
    def pole(self) -> float:
        """Discount factor p = exp(sigma), in (0, 1)."""
        return math.exp(self.sigma)

    def values(self, m) -> np.ndarray:
        """Evaluate w(m) elementwise (m may be negative for two-sided)."""
        m = np.asarray(m, dtype=float)
        if self.causality is Causality.CAUSAL:
            return np.where(m >= 0, np.abs(m) ** self.kappa * np.exp(self.sigma * m), 0.0)
        return self.pole ** np.abs(m)


def stirling2_table(n: int) -> np.ndarray:
    """Stirling numbers of the second kind S(j, r) for 0 <= j, r <= n."""
    s = np.zeros((n + 1, n + 1))
    s[0, 0] = 1.0
    for j in range(1, n + 1):
        for r in range(1, j + 1):
            s[j, r] = r * s[j - 1, r] + s[j - 1, r - 1]
    return s


def _causal_power_sums(p: float, max_order: int) -> np.ndarray:
    # F(j) = sum_{m>=0} m^j p^m = sum_r S(j,r) r! p^r / (1-p)^(r+1); 171!
    # overflows, so every F(j) past j = 170 is inf or NaN
    if max_order > 170:
        raise ValueError(f"moment order {max_order} exceeds 170: its r! terms overflow a float")
    s2 = stirling2_table(max_order)
    out = np.empty(max_order + 1)
    out[0] = 1.0 / (1.0 - p)
    # a sum beyond the float range stays inf or NaN, which the basis rejects
    with np.errstate(all="ignore"):
        for j in range(1, max_order + 1):
            acc = 0.0
            rfact = 1.0
            for r in range(1, j + 1):
                rfact *= r
                acc += s2[j, r] * rfact * p**r / (1.0 - p) ** (r + 1)
            out[j] = acc
    return out


def weight_moments(spec: WeightSpec, max_order: int) -> np.ndarray:
    """Exact moments mu_j = sum_m m**j w(m) for j = 0 .. max_order.

    For the causal window the kappa factor is folded in, so the result
    is the moment of the *full* weight including m**kappa.  Two-sided
    moments vanish for odd j by symmetry.
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    p = spec.pole
    if spec.causality is Causality.CAUSAL:
        f = _causal_power_sums(p, max_order + spec.kappa)
        return f[spec.kappa : spec.kappa + max_order + 1].copy()
    f = _causal_power_sums(p, max_order)
    out = np.zeros(max_order + 1)
    out[0] = (1.0 + p) / (1.0 - p)
    for j in range(2, max_order + 1, 2):
        out[j] = 2.0 * f[j]
    return out
