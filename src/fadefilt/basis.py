"""Orthonormal polynomial bases for discounted least-squares fits.

For a weight w(m) the polynomials psi_0 .. psi_B (degree k each) are
orthonormal under the discrete inner product

    <f, g> = sum_m f(m) g(m) w(m)

taken over the support of w.  For the causal exponential window with
kappa = 0 these are discrete Laguerre polynomials; kappa >= 1 gives the
associated family, and the symmetric window gives an even/odd ladder.
Everything is represented in ordinary monomial coefficients, which is
plenty stable for the supported degrees (B <= 6): the inner product
reduces to the moment matrix mu[i + j], so Gram-Schmidt never needs the
weight values themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .weights import WeightSpec, _period, _real, _whole, weight_moments

MAX_DEGREE = 6


@dataclass(frozen=True)
class BasisSet:
    """Orthonormal basis: row k of ``alpha`` holds the monomial
    coefficients of psi_k, ascending in powers of m."""

    degree: int
    weight: WeightSpec
    alpha: np.ndarray

    def evaluate(self, k: int, m) -> np.ndarray:
        """psi_k(m), elementwise in m."""
        return npoly.polyval(_real(m, "m"), self.alpha[k])

    def evaluate_derivative(self, k: int, order: int, m) -> np.ndarray:
        """The order-th derivative of psi_k at m, elementwise in m."""
        return npoly.polyval(_real(m, "m"), npoly.polyder(self.alpha[k], order))


def _moment_inner(a: np.ndarray, b: np.ndarray, mu: list) -> float:
    # <a, b> with polynomials in monomial coefficients: sum_ij a_i b_j mu[i+j],
    # on Python floats (IEEE doubles, so the same bits as numpy scalars)
    a, b = a.tolist(), b.tolist()
    n = len(a)
    acc = 0.0
    for i in range(n):
        if a[i] == 0.0:
            continue
        for j in range(n):
            acc += a[i] * b[j] * mu[i + j]
    return acc


def orthonormal_basis(degree: int, weight: WeightSpec) -> BasisSet:
    """Build psi_0 .. psi_degree by modified Gram-Schmidt on 1, m, m^2, ...

    One re-orthogonalization pass keeps the projections clean at the
    higher degrees.  The degree is an integer in 0..MAX_DEGREE: the
    monomial moment matrix is too ill-conditioned past that point to
    certify the result, and no supported design needs it.
    """
    degree = _whole(degree, "degree", 0, MAX_DEGREE)
    mu = weight_moments(weight, 2 * degree).tolist()
    n = degree + 1
    rows = np.eye(n)
    for k in range(n):
        for _ in range(2):
            for j in range(k):
                r = _moment_inner(rows[k], rows[j], mu)
                rows[k] -= r * rows[j]
        norm2 = _moment_inner(rows[k], rows[k], mu)
        if not np.isfinite(norm2) or norm2 <= 0.0:
            raise RuntimeError(
                f"moment matrix numerically singular at degree {k} "
                f"(sigma={weight.sigma}, kappa={weight.kappa})"
            )
        rows[k] /= np.sqrt(norm2)
    return BasisSet(degree=degree, weight=weight, alpha=rows)


def synthesis_weights(
    basis: BasisSet, derivative: int, delay: float, sample_period: float = 1.0
) -> np.ndarray:
    """Combining weights c_k that turn fitted coefficients into the
    estimate of the derivative-th signal derivative at lag ``delay``:

        c_k = (-1 / T)**derivative * psi_k^(derivative)(delay)

    for an integer derivative >= 0 and a finite T > 0.  A pure smoother
    is derivative = 0; then c_k = psi_k(delay).
    """
    _whole(derivative, "derivative order")
    _period(sample_period, "sample_period")
    try:
        scale = (-1.0 / sample_period) ** derivative
    except OverflowError:
        raise ValueError(f"(-1/T)**D overflows at T={sample_period}, D={derivative}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.array([scale * basis.evaluate_derivative(k, derivative, delay)
                      for k in range(basis.degree + 1)])
    if not np.isfinite(c).all():
        raise ValueError(f"synthesis weights are not finite at delay {delay}, "
                         f"T={sample_period}, D={derivative}")
    return c
