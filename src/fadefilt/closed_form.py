"""Tabulated closed-form coefficient formulas for the B = 2 designs.

The six workhorse configurations (smoother and first-derivative filter
for the causal kappa = 0 window, the causal kappa = 1 window, and the
symmetric two-sided window) have hand-derived coefficient polynomials
in the pole p and the delay q.  They serve as an independent oracle for
the general Gram-Schmidt derivation and as the fast path for the
standard filters.

The four causal forms also carry a closed-form "optimal" delay that
places a numerator zero at z = -1 (maximum high-frequency rejection);
the same delay minimizes the white-noise gain of the smoothers.
"""

from __future__ import annotations

import enum
import math

from .design import LdeCoefficients, NonCausalPair, binomial_denominator
from .weights import _FLOAT_MAX, Causality, _period, _pole

import numpy as np


class ClosedForm(enum.Enum):
    SMOOTHER_K0 = "smoother-k0"
    DIFFERENTIATOR_K0 = "differentiator-k0"
    SMOOTHER_K1 = "smoother-k1"
    DIFFERENTIATOR_K1 = "differentiator-k1"
    SMOOTHER_NONCAUSAL = "smoother-noncausal"
    DIFFERENTIATOR_NONCAUSAL = "differentiator-noncausal"


_FORM_KEYS = {
    (Causality.CAUSAL, 0, 0): ClosedForm.SMOOTHER_K0,
    (Causality.CAUSAL, 0, 1): ClosedForm.DIFFERENTIATOR_K0,
    (Causality.CAUSAL, 1, 0): ClosedForm.SMOOTHER_K1,
    (Causality.CAUSAL, 1, 1): ClosedForm.DIFFERENTIATOR_K1,
    (Causality.TWO_SIDED, 0, 0): ClosedForm.SMOOTHER_NONCAUSAL,
    (Causality.TWO_SIDED, 0, 1): ClosedForm.DIFFERENTIATOR_NONCAUSAL,
}


def closed_form_for(causality: Causality, kappa: int, derivative: int) -> ClosedForm:
    """Map (causality, kappa, derivative) to the tabulated B = 2 form."""
    try:
        return _FORM_KEYS[(causality, kappa, derivative)]
    except KeyError:
        raise ValueError(
            f"no tabulated closed form for causality={causality.value}, "
            f"kappa={kappa}, derivative={derivative}"
        ) from None


def closed_form_coefficients(
    form: ClosedForm, pole: float, q: float = 0.0, sample_period: float = 1.0
):
    """Evaluate the printed coefficient polynomials.

    Returns LdeCoefficients for the causal forms and a NonCausalPair
    for the two-sided ones (q is ignored there; the symmetric designs
    have no delay freedom), for a pole in (0, 1), a finite T > 0 and a
    finite q whose square is a float.
    """
    p, T = _pole(pole, "pole"), _period(sample_period, "sample_period")
    if not abs(q) < math.sqrt(_FLOAT_MAX):
        raise ValueError(f"q must be finite with a finite square, got {q}")

    if form is ClosedForm.SMOOTHER_K0:
        a = binomial_denominator(p, 3)
        c = 0.5 * (1 - p)
        b = c * np.array([
            q**2 * p**2 + 3 * q * p**2 + 2 * p**2 - 2 * q**2 * p + 2 * p + q**2 - 3 * q + 2,
            -(2 * q**2 * p**2 + 8 * q * p**2 + 6 * p**2 - 4 * q**2 * p - 4 * q * p + 6 * p
              + 2 * q**2 - 4 * q),
            q**2 * p**2 + 5 * q * p**2 + 6 * p**2 - 2 * q**2 * p - 4 * q * p + q**2 - q,
        ])
        return LdeCoefficients(b=b, a=a, sample_period=T)

    if form is ClosedForm.DIFFERENTIATOR_K0:
        a = binomial_denominator(p, 3)
        c = (1 - p) ** 2 / (2 * T)
        b = c * np.array([
            2 * q * p + 3 * p - 2 * q + 3,
            -4 * (q * p + 2 * p - q + 1),
            2 * q * p + 5 * p - 2 * q + 1,
        ])
        return LdeCoefficients(b=b, a=a, sample_period=T)

    if form is ClosedForm.SMOOTHER_K1:
        a = binomial_denominator(p, 4)
        c = (1 - p) ** 2 / 6
        b = c * np.array([
            0.0,
            3 * q**2 * p**2 + 9 * q * p**2 + 6 * p**2 - 6 * q**2 * p + 6 * q * p + 12 * p
            + 3 * q**2 - 15 * q + 18,
            -2 * (q * p + 3 * p - q + 3) * (3 * q * p + 3 * p - 3 * q + 3),
            3 * q**2 * p**2 + 15 * q * p**2 + 18 * p**2 - 6 * q**2 * p - 6 * q * p + 12 * p
            + 3 * q**2 - 9 * q + 6,
        ])
        return LdeCoefficients(b=b, a=a, sample_period=T)

    if form is ClosedForm.DIFFERENTIATOR_K1:
        a = binomial_denominator(p, 4)
        c = (1 - p) ** 3 / (2 * T)
        b = c * np.array([
            0.0,
            2 * q * p + 3 * p - 2 * q + 5,
            -4 * (q * p + 2 * p - q + 2),
            2 * q * p + 5 * p - 2 * q + 3,
        ])
        return LdeCoefficients(b=b, a=a, sample_period=T)

    if form is ClosedForm.SMOOTHER_NONCAUSAL:
        a = binomial_denominator(p, 3)
        s = 1.0 / (2 * (p**2 + 8 * p + 1))
        edge = s * (p**2 + 10 * p + 1) * (1 - p) / (1 + p)
        b = np.array([edge, 3 * s * p * (p**2 - 1), 3 * s * p**2 * (p**2 - 1), p**3 * edge])
        half = LdeCoefficients(b=b, a=a, sample_period=T)
        return NonCausalPair(forward=half, backward=half)

    if form is ClosedForm.DIFFERENTIATOR_NONCAUSAL:
        a = binomial_denominator(p, 2)
        b1 = (p - 1) ** 3 / (2 * T * (p + 1))
        fwd = LdeCoefficients(b=np.array([0.0, b1, 0.0, 0.0]), a=a, sample_period=T)
        bwd = LdeCoefficients(b=np.array([0.0, -b1, 0.0, 0.0]), a=a, sample_period=T)
        return NonCausalPair(forward=fwd, backward=bwd)

    raise ValueError(f"unknown form {form!r}")


def optimal_q(form: ClosedForm, pole: float) -> float:
    """Delay that places a numerator zero at z = -1 for the causal forms,
    pole in (0, 1).  The two-sided forms have no such knob (q is fixed at 0)."""
    p = _pole(pole, "pole")
    if form is ClosedForm.SMOOTHER_K0:
        return (4 * p + 2 - math.sqrt(2 * (p**2 + 4 * p + 1))) / (2 * (1 - p))
    if form is ClosedForm.DIFFERENTIATOR_K0:
        return (1 + 2 * p) / (1 - p)
    if form is ClosedForm.SMOOTHER_K1:
        return (4 * p + 4 - math.sqrt(2 * (p**2 + 6 * p + 1))) / (2 * (1 - p))
    if form is ClosedForm.DIFFERENTIATOR_K1:
        return 2 * (1 + p) / (1 - p)
    raise ValueError(f"no closed-form optimal delay for {form.value}")
