"""Derivation of recursive filter realizations from regression designs.

A design bundles the polynomial model degree B, the requested output
derivative order D, the discount weight, the evaluation delay q, and
the sample period T.  The causal estimator has the exact impulse
response

    h(m) = sum_k c_k psi_k(m) w(m),   m >= 0

which is a degree-(B+kappa) polynomial times p**m, hence rational with
denominator (1 - p z^-1)**(B+kappa+1).  One path realizes every derived
filter: the numerator follows by convolving that known denominator with
the impulse response prefix and truncating; the convolution must then
vanish for the next five samples, which is checked and makes the
construction self-validating.  The causal estimator, each half of a
two-sided design and each filter k of a spectrum bank (psi_k(m) w(m)
alone) differ only in the impulse response they hand to that path.

Two-sided (zero-phase or odd-phase) designs are realized as a causal
forward filter plus the mirrored filter run over the reversed signal,
with the center sample m = 0 shared half-and-half between the two
passes; the backward half is the same combination taken over -m.  The
half split makes each one-sided response rational of the same order
and reproduces the tabulated non-causal forms exactly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.signal

from .basis import BasisSet, _check_degree, orthonormal_basis, synthesis_weights
from .weights import Causality, WeightSpec

TAIL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class FilterDesign:
    """Complete parameter set for one smoother/differentiator."""

    degree: int
    derivative: int
    weight: WeightSpec
    delay: float = 0.0
    sample_period: float = 1.0

    def __post_init__(self):
        if self.derivative < 0 or self.derivative > self.degree:
            raise ValueError(
                f"derivative order {self.derivative} outside [0, degree={self.degree}]"
            )
        _check_degree(self.degree)
        if not (math.isfinite(self.sample_period) and self.sample_period > 0.0):
            raise ValueError(f"sample_period must be finite and > 0, got {self.sample_period}")
        if not math.isfinite(self.delay):
            raise ValueError(f"delay must be finite, got {self.delay}")
        if self.weight.causality is Causality.TWO_SIDED and self.delay != 0.0:
            raise ValueError("two-sided designs require delay == 0")

    @property
    def pole(self) -> float:
        return self.weight.pole

    @property
    def kappa(self) -> int:
        return self.weight.kappa

    @property
    def causality(self) -> Causality:
        return self.weight.causality


@dataclass(frozen=True, eq=False)
class LdeCoefficients:
    """Numerator b and monic denominator a of a rational filter H(z),
    both in ascending powers of z^-1.  They are kept as read-only fresh
    copies of one length, order + 1, the shorter zero-padded, so the
    caller's arrays stay its own.  ``pole_radius`` is the largest pole
    modulus, found once by the stability check (0.0 without poles)."""

    b: np.ndarray
    a: np.ndarray
    sample_period: float = 1.0
    pole_radius: float = field(init=False, repr=False)

    def __post_init__(self):
        b, a = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (self.b, self.a))
        for name, values in (("b", b), ("a", a)):
            if not values.size:
                raise ValueError(f"{name} must not be empty")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got {values.tolist()}")
        if a[0] != 1.0:
            raise ValueError("denominator must be monic (a[0] == 1)")
        if not (math.isfinite(self.sample_period) and self.sample_period > 0.0):
            raise ValueError(f"sample_period must be finite and > 0, got {self.sample_period}")
        ba = np.zeros((2, max(b.size, a.size)))
        ba[0, : b.size], ba[1, : a.size] = b, a
        radius = float(np.max(np.abs(np.roots(ba[1])), initial=0.0))
        if radius >= 1.0:
            raise ValueError("unstable denominator: pole on or outside unit circle")
        ba.flags.writeable = False
        object.__setattr__(self, "b", ba[0])
        object.__setattr__(self, "a", ba[1])
        object.__setattr__(self, "pole_radius", radius)

    @property
    def halves(self) -> tuple:
        """(self,): a causal filter is its own single half."""
        return (self,)

    @property
    def order(self) -> int:
        return len(self.a) - 1

    def dc_gain(self) -> float:
        return float(np.sum(self.b) / np.sum(self.a))

    @cached_property
    def steady_state(self) -> np.ndarray:
        """Delay-line contents at the fixed point under unit constant
        input (transposed direct-form II convention); computed on first
        use and kept, read-only."""
        zi = scipy.signal.lfilter_zi(self.b, self.a) if self.order else np.zeros(0)
        zi.flags.writeable = False
        return zi


@dataclass(frozen=True)
class NonCausalPair:
    """Forward and backward halves of a two-sided filter.  The output
    is (forward pass, increasing n) + (backward filter run over the
    reversed signal, result reversed)."""

    forward: LdeCoefficients
    backward: LdeCoefficients

    @property
    def halves(self) -> tuple:
        """(forward, backward); the second half runs over reversed time."""
        return (self.forward, self.backward)


@dataclass(frozen=True)
class SpectrumFilterBank:
    """One causal filter per basis index; filter k outputs the running
    projection coefficient beta_k(n), and the synthesis weights combine
    them into the final estimate."""

    filters: tuple
    synthesis: np.ndarray


def binomial_denominator(pole: float, multiplicity: int) -> np.ndarray:
    """Coefficients of (1 - pole*z^-1)**multiplicity, ascending; a
    binomial coefficient beyond the float range raises ValueError."""
    try:
        return np.array(
            [math.comb(multiplicity, i) * (-pole) ** i for i in range(multiplicity + 1)]
        )
    except OverflowError:
        raise ValueError(f"(1 - p z^-1)**{multiplicity} has binomial coefficients "
                         "beyond the float range") from None


def pole_multiplicity(lde: LdeCoefficients) -> tuple[float, int]:
    """Recover (pole, multiplicity) of a denominator that is a pure
    binomial power.  Raises if the structure does not hold to 1e-9."""
    a = np.trim_zeros(lde.a, "b")
    n = len(a) - 1
    if n == 0:
        return 0.0, 0
    pole = -a[1] / n
    ref = binomial_denominator(pole, n)
    if np.max(np.abs(a - ref)) > 1e-9 * max(1.0, np.max(np.abs(a))):
        raise ValueError("denominator is not a repeated-real-pole binomial power")
    return float(pole), n


def impulse_response_prefix(design: FilterDesign, length: int) -> np.ndarray:
    """First ``length`` samples of the exact causal impulse response
    h(m) = sum_k c_k psi_k(m) w(m).  For two-sided designs this is the
    m >= 0 half of the symmetric response (no center split applied)."""
    if length < design.degree + design.kappa + 2:
        raise ValueError("length must cover the full numerator support")
    basis = orthonormal_basis(design.degree, design.weight)
    c = synthesis_weights(basis, design.derivative, design.delay, design.sample_period)
    return _weighted_combination(basis, c, design.weight, np.arange(length, dtype=float))


def _weighted_combination(
    basis: BasisSet, c: np.ndarray, weight: WeightSpec, m: np.ndarray
) -> np.ndarray:
    vals = np.zeros(len(m))
    for k in range(basis.degree + 1):
        vals += c[k] * basis.evaluate(k, m)
    return vals * weight.values(m)


def _realize(
    design: FilterDesign, impulse: Callable[[np.ndarray], np.ndarray]
) -> LdeCoefficients:
    """Realize the impulse response ``impulse(m)``, evaluated on
    m = 0, 1, 2, ..., over the denominator (1 - p z^-1)**(B+kappa+1).
    b = a (*) h truncated to len(a); the same convolution must vanish
    for the following five samples or the response is not rational with
    this denominator."""
    n = design.degree + design.kappa + 1
    a = binomial_denominator(design.pole, n)
    full = np.convolve(a, impulse(np.arange(n + 6, dtype=float)))
    b = full[: n + 1].copy()
    tail = np.max(np.abs(full[n + 1 : n + 6]))
    scale = max(1.0, float(np.max(np.abs(b))))
    if tail > TAIL_TOLERANCE * scale:
        raise RuntimeError(
            f"trailing convolution terms do not vanish (residual {tail:.3e}); "
            "impulse response is not rational with the assumed denominator"
        )
    return LdeCoefficients(b=b, a=a, sample_period=design.sample_period)


def derive_causal_lde(design: FilterDesign) -> LdeCoefficients:
    """General causal derivation: the realization of the combined
    impulse response h(m) = sum_k c_k psi_k(m) w(m)."""
    if design.causality is not Causality.CAUSAL:
        raise ValueError("derive_causal_lde requires a causal design")
    return _realize(design, lambda m: impulse_response_prefix(design, len(m)))


def derive_noncausal_pair(design: FilterDesign) -> NonCausalPair:
    """Two-sided derivation.  The symmetric impulse response is split
    into causal halves with h(0) shared equally, and each half is
    realized against the denominator (1 - p z^-1)**(B+1)."""
    if design.causality is not Causality.TWO_SIDED:
        raise ValueError("derive_noncausal_pair requires a two-sided design")
    basis = orthonormal_basis(design.degree, design.weight)
    c = synthesis_weights(basis, design.derivative, design.delay, design.sample_period)

    def halved(m: np.ndarray) -> np.ndarray:
        h = _weighted_combination(basis, c, design.weight, m)
        h[0] *= 0.5
        return h

    forward = _realize(design, halved)
    return NonCausalPair(forward=forward, backward=_realize(design, lambda m: halved(-m)))


def spectrum_filter_bank(design: FilterDesign) -> SpectrumFilterBank:
    """Per-coefficient analysis filters: filter k realizes the causal
    convolution with kernel psi_k(m) w(m), so its output is the running
    projection beta_k(n).  Weighting the bank outputs by the synthesis
    vector reproduces the combined filter exactly."""
    if design.causality is not Causality.CAUSAL:
        raise ValueError("spectrum_filter_bank requires a causal design")
    basis = orthonormal_basis(design.degree, design.weight)
    filters = tuple(
        _realize(design, lambda m: basis.evaluate(k, m) * design.weight.values(m))
        for k in range(design.degree + 1)
    )
    c = synthesis_weights(basis, design.derivative, design.delay, design.sample_period)
    return SpectrumFilterBank(filters=filters, synthesis=c)
