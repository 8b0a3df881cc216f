import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadefilt import weights
from fadefilt.design import FilterDesign, derive_causal_lde
from fadefilt.weights import Causality, WeightSpec, stirling2_table, weight_moments


def brute_moments(spec: WeightSpec, max_order: int, n_terms: int = 4000) -> np.ndarray:
    """Reference moments by direct summation of the weight sequence."""
    if spec.causality is Causality.CAUSAL:
        m = np.arange(n_terms, dtype=float)
    else:
        m = np.arange(-n_terms, n_terms, dtype=float)
    w = spec.values(m)
    return np.array([np.sum(m**j * w) for j in range(max_order + 1)])


def test_stirling_numbers_small_table():
    s = stirling2_table(4)
    # classic values: S(3,2)=3, S(4,2)=7, S(4,3)=6
    assert s[0, 0] == 1
    assert s[3, 2] == 3
    assert s[4, 2] == 7
    assert s[4, 3] == 6
    assert s[4, 4] == 1


@pytest.mark.parametrize("sigma", [-2.0, -1.0, -0.5, math.log(0.9)])
@pytest.mark.parametrize("kappa", [0, 1, 2])
def test_causal_moments_match_brute_force(sigma, kappa):
    spec = WeightSpec(sigma=sigma, kappa=kappa)
    got = weight_moments(spec, 8)
    ref = brute_moments(spec, 8)
    assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("sigma", [-1.5, -1.0, math.log(0.8)])
def test_two_sided_moments_match_brute_force(sigma):
    spec = WeightSpec(sigma=sigma, causality=Causality.TWO_SIDED)
    got = weight_moments(spec, 6)
    ref = brute_moments(spec, 6)
    assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)
    # odd moments vanish by symmetry
    assert got[1] == 0.0 and got[3] == 0.0 and got[5] == 0.0


def test_moment_matrix_is_positive_definite():
    # Gram matrices mu[i+j] of a positive weight must be PD; this is
    # what the basis construction relies on
    for spec in (WeightSpec(-0.5, 1), WeightSpec(-1.0, causality=Causality.TWO_SIDED)):
        mu = weight_moments(spec, 12)
        gram = np.array([[mu[i + j] for j in range(7)] for i in range(7)])
        assert np.all(np.linalg.eigvalsh(gram) > 0)


def test_kappa_zero_weight_at_origin():
    assert WeightSpec(-1.0, 0).values(0) == 1.0
    assert WeightSpec(-1.0, 1).values(0) == 0.0
    assert WeightSpec(-1.0, 2).values([0, 1, 2])[0] == 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        WeightSpec(sigma=0.0)
    with pytest.raises(ValueError):
        WeightSpec(sigma=-math.inf)
    with pytest.raises(ValueError):
        WeightSpec(sigma=-1.0, kappa=-1)
    with pytest.raises(ValueError):
        WeightSpec(sigma=-1.0, kappa=1, causality=Causality.TWO_SIDED)


@settings(deadline=None, max_examples=40)
@given(
    pole=st.floats(min_value=0.05, max_value=0.9),
    kappa=st.integers(min_value=0, max_value=3),
    order=st.integers(min_value=0, max_value=6),
)
def test_causal_moment_property(pole, kappa, order):
    spec = WeightSpec(sigma=math.log(pole), kappa=kappa)
    got = weight_moments(spec, order)
    ref = brute_moments(spec, order, n_terms=3000)
    assert np.allclose(got, ref, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("sigma", [-1e-17, -2.0**-54, -1e-300, -5e-324])
def test_sigma_whose_pole_rounds_to_one_is_rejected_naming_the_field(sigma):
    assert math.exp(sigma) == 1.0
    message = f"sigma is too close to 0: its pole exp(sigma) rounds to 1, got {sigma}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WeightSpec(sigma)
    assert WeightSpec(-(2.0**-53)).pole < 1.0  # the closest sigma to 0 that is kept


@pytest.mark.parametrize("sigma", [-746.0, -1e300, -1.7976931348623157e308])
def test_sigma_whose_pole_underflows_to_zero_is_rejected_naming_the_field(sigma):
    assert math.exp(sigma) == 0.0
    message = f"sigma is too far below 0: its pole exp(sigma) underflows to 0, got {sigma}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WeightSpec(sigma)
    assert WeightSpec(-745.0).pole > 0.0  # a subnormal pole is kept


def test_moment_order_past_the_float_range_is_refused_before_the_table(monkeypatch):
    real = weights.stirling2_table

    def table(n):
        assert n <= 170, f"built a Stirling table of order {n}"
        return real(n)

    monkeypatch.setattr(weights, "stirling2_table", table)
    with pytest.raises(ValueError, match=r"^moment order 171 exceeds 170: its r! terms overflow"):
        weight_moments(WeightSpec(-0.5, kappa=171), 0)
    with pytest.raises(ValueError, match=r"^moment order 1004 exceeds 170"):
        derive_causal_lde(FilterDesign(2, 0, WeightSpec(-0.5, kappa=1000)))
    assert weight_moments(WeightSpec(-0.5, kappa=170), 0).shape == (1,)
