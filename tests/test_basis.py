import math
import re
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from fadefilt import basis as basis_module
from fadefilt.basis import MAX_DEGREE, orthonormal_basis, synthesis_weights
from fadefilt.weights import Causality, WeightSpec


def numeric_inner(spec, ci, cj, n_terms=4000):
    if spec.causality is Causality.CAUSAL:
        m = np.arange(n_terms, dtype=float)
    else:
        m = np.arange(-n_terms, n_terms + 1, dtype=float)
    w = spec.values(m)
    return float(np.sum(w * npoly.polyval(m, ci) * npoly.polyval(m, cj)))


@pytest.mark.parametrize(
    "spec",
    [
        WeightSpec(-0.5, 0),
        WeightSpec(-1.0, 1),
        WeightSpec(math.log(0.9), 2),
        WeightSpec(-1.0, causality=Causality.TWO_SIDED),
    ],
    ids=["k0", "k1", "k2-slow", "two-sided"],
)
def test_orthonormality_under_the_weight(spec):
    basis = orthonormal_basis(4, spec)
    for i in range(5):
        for j in range(5):
            ip = numeric_inner(spec, basis.alpha[i], basis.alpha[j])
            assert ip == pytest.approx(1.0 if i == j else 0.0, abs=5e-9)


def test_triangular_structure():
    # psi_k has exact degree k: alpha is lower triangular with nonzero
    # diagonal in the monomial coordinates
    basis = orthonormal_basis(3, WeightSpec(-0.5))
    assert basis.alpha.shape == (4, 4)
    for k in range(4):
        assert basis.alpha[k, k] != 0.0
        assert np.all(basis.alpha[k, k + 1:] == 0.0)


def test_degree_cap():
    with pytest.raises(ValueError):
        orthonormal_basis(MAX_DEGREE + 1, WeightSpec(-1.0))
    with pytest.raises(ValueError):
        orthonormal_basis(-1, WeightSpec(-1.0))


def test_evaluate_matches_coefficients():
    basis = orthonormal_basis(3, WeightSpec(-0.7, 1))
    x = np.linspace(-2.0, 5.0, 11)
    for k in range(4):
        direct = npoly.polyval(x, basis.alpha[k])
        assert np.allclose(basis.evaluate(k, x), direct, rtol=1e-12, atol=1e-12)


def test_derivative_evaluation():
    basis = orthonormal_basis(4, WeightSpec(-0.5))
    x = np.linspace(-1.0, 3.0, 7)
    h = 1e-6
    for k in range(1, 5):
        numeric = (basis.evaluate(k, x + h) - basis.evaluate(k, x - h)) / (2 * h)
        assert np.allclose(basis.evaluate_derivative(k, 1, x), numeric, atol=1e-4)


def test_synthesis_weights_reproduce_polynomials():
    # the defining property of the projection: for a signal that is a
    # polynomial of degree <= B, the weighted combination evaluated at
    # the synthesis point returns the polynomial's (derivative) value
    spec = WeightSpec(-0.5, 1)
    basis = orthonormal_basis(2, spec)
    poly = np.array([0.3, -0.2, 0.05])  # x(t), ascending in t

    m = np.arange(300, dtype=float)
    w = spec.values(m)
    signal = npoly.polyval(-m, poly)  # the recent past x(n-m) seen from n=0
    beta = np.array([np.sum(w * basis.evaluate(k, m) * signal) for k in range(3)])

    dpoly = npoly.polyder(poly)
    for q in (-1.0, 0.0, 2.5):
        c0 = synthesis_weights(basis, 0, q)
        c1 = synthesis_weights(basis, 1, q)
        assert float(beta @ c0) == pytest.approx(float(npoly.polyval(-q, poly)), abs=1e-9)
        assert float(beta @ c1) == pytest.approx(float(npoly.polyval(-q, dpoly)), abs=1e-9)


def test_sample_period_scaling():
    basis = orthonormal_basis(2, WeightSpec(-0.5))
    c_unit = synthesis_weights(basis, 1, 1.0, sample_period=1.0)
    c_half = synthesis_weights(basis, 1, 1.0, sample_period=0.5)
    assert np.allclose(c_half, 2.0 * c_unit)
    with pytest.raises(ValueError):
        synthesis_weights(basis, -1, 0.0)


@pytest.mark.parametrize("delay, period, derivative", [(1e300, 1.0, 0), (4.0, 5e-324, 1)])
def test_synthesis_weights_that_are_not_finite_raise_without_warnings(delay, period, derivative):
    basis = orthonormal_basis(2, WeightSpec(-0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"synthesis weights are not finite at delay {delay}, T={period}, D={derivative}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synthesis_weights(basis, derivative, delay, period)


def _numpy_scalar_moment_inner(a, b, mu):
    # the Gram-Schmidt inner product stepped on numpy float64 scalars
    mu = np.asarray(mu, dtype=float)
    n = len(a)
    acc = 0.0
    for i in range(n):
        if a[i] == 0.0:
            continue
        for j in range(n):
            acc += a[i] * b[j] * mu[i + j]
    return acc


@pytest.mark.parametrize(
    "causality, kappa",
    [(Causality.CAUSAL, 0), (Causality.CAUSAL, 1), (Causality.CAUSAL, 2),
     (Causality.TWO_SIDED, 0)],
    ids=["causal-k0", "causal-k1", "causal-k2", "two-sided"],
)
def test_python_float_inner_product_is_bitwise_identical(monkeypatch, causality, kappa):
    # two-sided windows take kappa = 0 only
    specs = [WeightSpec(math.log(p), kappa, causality) for p in (0.3, 0.6, 0.85, 0.9, 0.98)]
    got = [orthonormal_basis(degree, spec).alpha for spec in specs for degree in range(7)]
    monkeypatch.setattr(basis_module, "_moment_inner", _numpy_scalar_moment_inner)
    want = [orthonormal_basis(degree, spec).alpha for spec in specs for degree in range(7)]
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()
