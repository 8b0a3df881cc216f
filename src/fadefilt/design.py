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

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy

from .basis import MAX_DEGREE, BasisSet, orthonormal_basis, synthesis_weights
from .weights import _FLOAT_MAX, Causality, WeightSpec, _period, _real, _whole

TAIL_TOLERANCE = 1e-9
_ROUNDING = 32 * float(np.finfo(float).eps)  # times n and the l1 mass: an n-term sum's rounding
_PHASE_CACHE_ELEMENTS = 8192
_WNG_TOLERANCE = 1e-12  # white-noise gain stops when the tail bound is this share of the sum
_SIGTOOLS = "scipy.signal._sigtools"


def _load_sigtools(directory: str):
    """scipy's compiled signal extension, loaded from ``directory`` without
    running the ``scipy.signal`` package, which imports far more than it."""
    spec = importlib.machinery.PathFinder.find_spec(_SIGTOOLS, [directory])
    if spec is None:
        raise ImportError(f"{_SIGTOOLS} not found in {directory}", name=_SIGTOOLS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the transposed direct-form II recursion that scipy.signal.lfilter calls:
# _linear_filter(b, a, x, axis[, zi]) -> y, or (y, zf) with zi
_linear_filter = (sys.modules.get(_SIGTOOLS)
                  or _load_sigtools(os.path.join(scipy.__path__[0], "signal")))._linear_filter


def _check_linear_filter(linear_filter) -> None:
    """Raise ImportError naming scipy's version unless ``linear_filter``
    takes the arguments above and gives the recursion and final state
    above on an order-2 case whose every intermediate value is a short
    dyadic fraction, exact in float64, so that no rounding order or
    fused multiply-add moves a bit."""
    def mismatch(what: str) -> ImportError:
        return ImportError(f"{_SIGTOOLS}._linear_filter of scipy {scipy.__version__} does not "
                           f"{what} as fadefilt expects (checked on scipy 1.17.1)", name=_SIGTOOLS)

    try:
        y, zf = linear_filter(np.array([0.5, -0.25, 0.125]), np.array([1.0, -0.75, 0.5]),
                              np.array([1.0, -2.0, 3.0, 0.5, -1.5]), 0, np.array([0.25, -0.5]))
    except (TypeError, ValueError) as error:  # another signature, or not (y, zf) back
        raise mismatch(f"take lfilter's arguments ({error})") from error
    want = [0.75, -1.1875, 0.859375, 0.48828125, -0.5634765625, -0.229248046875, 0.09423828125]
    if np.asarray(y).tobytes() + np.asarray(zf).tobytes() != np.array(want).tobytes():
        raise mismatch("compute lfilter's recursion")


_check_linear_filter(_linear_filter)


@dataclass(frozen=True)
class FilterDesign:
    """Complete parameter set for one smoother/differentiator: integers
    0 <= derivative <= degree <= MAX_DEGREE, a finite delay (0 if two-sided)
    and a finite sample period > 0."""

    degree: int
    derivative: int
    weight: WeightSpec
    delay: float = 0.0
    sample_period: float = 1.0

    def __post_init__(self):
        degree = _whole(self.degree, "degree", 0, MAX_DEGREE)
        _whole(self.derivative, "derivative order", 0, degree)
        _period(self.sample_period, "sample_period")
        if not abs(self.delay) <= _FLOAT_MAX:
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
    """Numerator b and monic denominator a of a rational filter H(z), both
    real, in ascending powers of z^-1.  They are kept as read-only fresh
    copies of one length, order + 1, the shorter zero-padded, so the
    caller's arrays stay its own.  ``pole_radius`` is the largest pole
    modulus, found once by the stability check (0.0 without poles).
    The half is also its transposed direct-form II realization: runtime,
    response and flow run and analyze it only through the private methods
    below, each in lfilter's operation order, so all paths agree bitwise."""

    b: np.ndarray
    a: np.ndarray
    sample_period: float = 1.0
    pole_radius: float = field(init=False, repr=False)

    def __post_init__(self):
        b, a = (np.atleast_1d(_real(getattr(self, name), name)) for name in "ba")
        for name, values in (("b", b), ("a", a)):
            if not values.size:
                raise ValueError(f"{name} must not be empty")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got {values.tolist()}")
        if a[0] != 1.0:
            raise ValueError("denominator must be monic (a[0] == 1)")
        _period(self.sample_period, "sample_period")
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

    @functools.cached_property
    def steady_state(self) -> np.ndarray:
        """Delay-line contents at the fixed point under unit constant
        input (transposed direct-form II convention), lfilter_zi's solve of
        zi = A zi + B with A the companion matrix of a; computed on first
        use and kept, read-only."""
        n, b, a = self.order, self.b, self.a
        zi = np.zeros(0)
        if n:
            companion = np.eye(n, k=-1)
            companion[0] = -a[1:]
            zi = np.linalg.solve(np.eye(n) - companion.T, b[1:] - a[1:] * b[0])
        zi.flags.writeable = False
        return zi

    def _held(self, x0) -> np.ndarray:
        """The delay line, (order,) + x0's shape, that has held the
        samples x0 forever."""
        return self.steady_state.reshape((-1,) + (1,) * np.ndim(x0)) * x0

    def _pass(self, x: np.ndarray, axis: int, hold: bool) -> np.ndarray:
        """The causal pass along ``axis`` of a 1-D or 2-D x, from rest or,
        with ``hold``, held at the first sample."""
        if not hold:
            return _linear_filter(self.b, self.a, x, axis)
        # views throughout: np.take would copy a flipped x whole first
        zi = self._held(x.swapaxes(0, axis)[0]).swapaxes(0, axis)
        return _linear_filter(self.b, self.a, x, axis, zi)[0]

    @functools.cached_property
    def _taps(self) -> tuple[list, list]:
        """b and a as lists of 0-d views, made on first use and kept.  A
        ufunc takes a 0-d array as it is but converts a Python or numpy
        float scalar on every call, which costs a multiply over a (10, 64)
        row about a third of its time."""
        return tuple([c[i, ...] for i in range(len(c))] for c in (self.b, self.a))

    def _step(self, z: np.ndarray, x: np.ndarray, out, t: np.ndarray) -> np.ndarray:
        """One step of the delay lines z over every element of x, in
        lfilter's order: y = b0*x + z[0], z[i] = (z[i+1] + b[i+1]*x) -
        a[i+1]*y.  ``t`` is scratch shaped like x; ``out`` may be x.  Every
        product with x is taken before y is written (z[i] gains b[i]*x for
        z[i-1], ``t`` takes b[n]*x), so order 1 costs five ufunc calls.
        The taps are bound once (``_taps``) and each delay line's view is
        taken once a call, so a step over a short row costs little more
        than its ufunc calls."""
        b, a = self._taps
        n = len(a) - 1
        if n == 0:
            return np.multiply(x, b[0], out=out)
        # z[i, ...] stays an array view even for 0-d frames, where z[i]
        # would be a numpy scalar that cannot take out=
        z = [z[i, ...] for i in range(n)]
        for i in range(1, n):
            z[i] += np.multiply(x, b[i], out=t)
        np.multiply(x, b[n], out=t)
        y = np.multiply(x, b[0], out=out)
        y += z[0]
        for i in range(n - 1):
            np.subtract(z[i + 1], np.multiply(y, a[i + 1], out=z[i]), out=z[i])
        np.subtract(t, np.multiply(y, a[n], out=z[n - 1]), out=z[n - 1])
        return y

    def _scalar_step(self, z: list):
        """The step of ``_step`` on Python floats, compiled for this
        order, with the delay-line list z and the coefficients bound."""
        return _step_kernel(self.order)(z, *self.b.tolist(), *self.a[1:].tolist())

    def _series(self, omega: np.ndarray):
        """Yield (d^r H/dw^r, [A, A', ..., A^(r)]) on the grid for r = 0,
        1, 2, ...; the list of denominator derivatives grows in place.
        P^(r)(w) = sum_m (-jm)^r p_m e^{-jwm} comes from the grid's cached
        phase matrix, and H^(r) by Leibniz's rule on A H = B."""
        phase = _phase_matrix(len(self.a), omega)
        den = [phase @ self.a]
        series = [(phase @ self.b) / den[0]]
        yield series[0], den
        wb, wa = self.b, self.a
        jm = -1j * np.arange(len(wa))
        for r in itertools.count(1):
            wb, wa = wb * jm, wa * jm  # (-jm)^r p_m
            den.append(phase @ wa)
            # A H^(r) = B^(r) - sum_{i>=1} C(r, i) A^(i) H^(r-i)
            acc = phase @ wb
            for i in range(1, r + 1):
                acc = acc - math.comb(r, i) * den[i] * series[r - i]
            series.append(acc / den[0])
            yield series[r], den

    def _rounding_floor(self, den: list, hs: list) -> np.ndarray:
        """This half's rounding floor of H^(r), r = len(hs) - 2, from the
        ``den`` that ``_series`` yielded: up to _ROUNDING n sum_m m^r |b_m|
        in B^(r), plus what the lower orders hs of H carry."""
        r, b = len(hs) - 2, self.b
        acc = _ROUNDING * len(b) * float(np.abs(b) @ np.arange(len(b)) ** r)
        for i in range(1, r + 1):
            acc = acc + math.comb(r, i) * np.abs(den[i] * hs[r - i])
        return acc / np.abs(den[0])

    def _noise_gain(self) -> float:
        """sum_m h[m]^2, summed as response.white_noise_gain describes."""
        b, a, rho, n = self.b, self.a, self.pole_radius, self.order
        block = 512
        x = np.zeros(block)
        x[0] = 1.0
        zi = np.zeros(n)
        total = 0.0
        start = 0
        while True:
            h, zi = _linear_filter(b, a, x, 0, zi)
            x[0] = 0.0
            e_blk = float(h @ h)
            total += e_blk
            start += block
            # block-to-block envelope ratio for |h[m]| <= C m^(n-1) rho^m
            r = (rho**block * ((start + block) / start) ** max(n - 1, 0)) ** 2
            if r < 1.0 and e_blk * r / (1.0 - r) <= _WNG_TOLERANCE * total:
                return total
            if start > 5_000_000:
                raise RuntimeError("white_noise_gain failed to converge")


@functools.lru_cache(maxsize=64)
def _step_kernel(order: int):
    """Compile, once per order, a factory for a straight-line transposed
    direct-form II step on Python floats, IEEE doubles like float64, so it
    keeps lfilter's bits at a fraction of the cost of numpy scalars.  The
    factory binds a delay-line list and the coefficients as default
    arguments, so the step loads them as locals; each z[i] keeps the
    loop's order, z[i+1] + b[i+1]*x - a[i+1]*y."""
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


def _require_halves(filt, count: int, user: str) -> None:
    """Raise ValueError unless ``filt`` has ``count`` halves (2: a pair)."""
    kinds = ("a causal filter", "a two-sided pair")
    if len(filt.halves) != count:
        raise ValueError(f"{user} needs {kinds[count - 1]}, got {kinds[2 - count]}")


@dataclass(frozen=True)
class SpectrumFilterBank:
    """One causal filter per basis index; filter k outputs the running
    projection coefficient beta_k(n), and the synthesis weights combine
    them into the final estimate."""

    filters: tuple
    synthesis: np.ndarray


def binomial_denominator(pole: float, multiplicity: int) -> np.ndarray:
    """Coefficients of (1 - pole*z^-1)**multiplicity, an integer >= 0,
    ascending, in float64 for any real pole; a pole or a coefficient beyond the
    float range raises ValueError."""
    pole = float(_real(pole, "pole", ndim=0))
    multiplicity = _whole(multiplicity, "multiplicity")
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
    m >= 0 half of the symmetric response (no center split applied);
    ``length`` is an integer >= degree + kappa + 2, the numerator support."""
    length = _whole(length, "length", design.degree + design.kappa + 2)
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
    unit = np.eye(design.degree + 1)
    filters = tuple(
        _realize(design, lambda m: _weighted_combination(basis, unit[k], design.weight, m))
        for k in range(design.degree + 1)
    )
    c = synthesis_weights(basis, design.derivative, design.delay, design.sample_period)
    return SpectrumFilterBank(filters=filters, synthesis=c)
