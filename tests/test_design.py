import math

import numpy as np
import pytest
import scipy.signal

from fadefilt.basis import orthonormal_basis, synthesis_weights
from fadefilt.design import (
    FilterDesign,
    LdeCoefficients,
    NonCausalPair,
    binomial_denominator,
    derive_causal_lde,
    derive_noncausal_pair,
    impulse_response_prefix,
    pole_multiplicity,
    spectrum_filter_bank,
)
from fadefilt.weights import Causality, WeightSpec


def causal_design(degree=2, derivative=0, pole=0.5, kappa=0, q=0.0, T=1.0):
    return FilterDesign(degree, derivative, WeightSpec(math.log(pole), kappa), q, T)


def test_known_differentiator_coefficients():
    # frozen reference point: degree 2, first derivative, p = 1/2, q = 4
    lde = derive_causal_lde(causal_design(derivative=1, q=4.0))
    assert np.allclose(lde.b, [0.0625, 0.0, -0.0625, 0.0], atol=1e-12)
    assert np.allclose(lde.a, [1.0, -1.5, 0.75, -0.125], atol=1e-14)


def test_exponential_smoother_special_case():
    lde = derive_causal_lde(causal_design(degree=0, pole=0.3679))
    assert np.allclose(lde.b, [1 - 0.3679, 0.0], atol=1e-12)
    assert np.allclose(lde.a, [1.0, -0.3679], atol=1e-14)
    assert lde.dc_gain() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("pole", [0.2, 0.5, 0.85])
@pytest.mark.parametrize("degree,kappa", [(0, 0), (1, 0), (2, 1), (3, 2), (6, 0)])
def test_denominator_is_binomial_power(pole, degree, kappa):
    lde = derive_causal_lde(causal_design(degree=degree, pole=pole, kappa=kappa, q=1.0))
    n = degree + kappa + 1
    assert np.array_equal(lde.a, binomial_denominator(pole, n))
    p_hat, mult = pole_multiplicity(lde)
    assert mult == n
    assert p_hat == pytest.approx(pole, abs=1e-13)


def test_pole_multiplicity_rejects_non_binomial():
    lde = LdeCoefficients(b=np.array([1.0]), a=np.array([1.0, -0.9, 0.1]))
    with pytest.raises(ValueError):
        pole_multiplicity(lde)


def test_numerator_length_matches_denominator():
    for degree, kappa in ((0, 0), (2, 0), (2, 1), (4, 2)):
        lde = derive_causal_lde(causal_design(degree=degree, kappa=kappa, q=0.7))
        assert len(lde.b) == len(lde.a) == degree + kappa + 2


def test_smoother_dc_gain_is_unity():
    for q in (-1.5, 0.0, 3.0):
        for kappa in (0, 1, 2):
            lde = derive_causal_lde(causal_design(kappa=kappa, q=q))
            assert lde.dc_gain() == pytest.approx(1.0, abs=1e-10)


def test_differentiator_dc_gain_is_zero():
    lde = derive_causal_lde(causal_design(derivative=1, q=2.0))
    assert lde.dc_gain() == pytest.approx(0.0, abs=1e-12)


def test_polynomial_reproduction_end_to_end():
    # a degree-2 design run over a quadratic signal must return the
    # delayed signal (smoother) / its slope (differentiator) exactly
    # once the start-up transient has decayed
    t = np.arange(400, dtype=float)
    x = 3.0 - 0.5 * t + 0.02 * t**2
    for q in (0.0, 2.5):
        sm = derive_causal_lde(causal_design(q=q, kappa=1))
        df = derive_causal_lde(causal_design(derivative=1, q=q, kappa=1))
        y_sm = scipy.signal.lfilter(sm.b, sm.a, x)
        y_df = scipy.signal.lfilter(df.b, df.a, x)
        want_sm = 3.0 - 0.5 * (t - q) + 0.02 * (t - q) ** 2
        want_df = -0.5 + 0.04 * (t - q)
        assert np.allclose(y_sm[200:], want_sm[200:], atol=1e-8)
        assert np.allclose(y_df[200:], want_df[200:], atol=1e-8)


def test_impulse_response_prefix_matches_filtering():
    design = causal_design(derivative=1, kappa=1, q=2.5)
    lde = derive_causal_lde(design)
    href = impulse_response_prefix(design, length=40)
    imp = np.zeros(40)
    imp[0] = 1.0
    assert np.allclose(scipy.signal.lfilter(lde.b, lde.a, imp), href, atol=1e-13)


def test_impulse_response_prefix_validation():
    design = causal_design()
    with pytest.raises(ValueError):
        impulse_response_prefix(design, length=2)  # shorter than the support


def test_derive_causal_rejects_two_sided():
    two_sided = FilterDesign(2, 0, WeightSpec(-1.0, causality=Causality.TWO_SIDED))
    with pytest.raises(ValueError):
        derive_causal_lde(two_sided)
    with pytest.raises(ValueError):
        derive_noncausal_pair(causal_design())


def test_noncausal_pair_structure():
    design = FilterDesign(2, 0, WeightSpec(-1.0, causality=Causality.TWO_SIDED))
    pair = derive_noncausal_pair(design)
    assert isinstance(pair, NonCausalPair)
    # symmetric weight, even estimate: the two directions coincide
    assert np.allclose(pair.forward.b, pair.backward.b, atol=1e-14)
    # combined DC gain is one: forward and backward each carry half the
    # center sample
    dc = pair.forward.dc_gain() + pair.backward.dc_gain()
    assert dc == pytest.approx(1.0, abs=1e-10)


def test_noncausal_differentiator_antisymmetry():
    design = FilterDesign(2, 1, WeightSpec(-1.0, causality=Causality.TWO_SIDED))
    pair = derive_noncausal_pair(design)
    assert np.allclose(pair.forward.b, -pair.backward.b, atol=1e-14)
    assert pair.forward.dc_gain() + pair.backward.dc_gain() == pytest.approx(0.0, abs=1e-12)


def test_spectrum_bank_shares_denominator():
    design = causal_design(kappa=1, q=1.3)
    bank = spectrum_filter_bank(design)
    assert len(bank.filters) == design.degree + 1
    for filt in bank.filters:
        assert np.array_equal(filt.a, bank.filters[0].a)
    # per-filter impulse responses recombine into the design's response
    lde = derive_causal_lde(design)
    imp = np.zeros(30)
    imp[0] = 1.0
    total = sum(
        c * scipy.signal.lfilter(f.b, f.a, imp)
        for c, f in zip(bank.synthesis, bank.filters)
    )
    assert np.allclose(total, scipy.signal.lfilter(lde.b, lde.a, imp), atol=1e-12)


def test_lde_validation():
    with pytest.raises(ValueError):
        LdeCoefficients(b=np.array([1.0]), a=np.array([2.0, 0.5]))  # not monic
    with pytest.raises(ValueError):
        LdeCoefficients(b=np.array([1.0]), a=np.array([1.0, -1.5]))  # unstable
    lde = LdeCoefficients(b=np.array([0.5, 0.5]), a=np.array([1.0, -0.25]))
    with pytest.raises(ValueError):
        lde.b[0] = 9.0  # frozen storage


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lde_rejects_non_finite_coefficients_naming_the_field(bad):
    with pytest.raises(ValueError, match="^b must be finite"):
        LdeCoefficients(b=[bad, 0.5], a=[1.0, -0.5])
    with pytest.raises(ValueError, match="^a must be finite"):
        LdeCoefficients(b=[0.5, 0.5], a=[1.0, bad])
    with pytest.raises(ValueError, match="^a must be finite"):
        LdeCoefficients(b=[0.5], a=[bad])
    with pytest.raises(ValueError, match="^sample_period must be finite"):
        LdeCoefficients(b=[0.5], a=[1.0, -0.5], sample_period=bad)


def test_lde_keeps_fresh_copies_and_leaves_the_callers_arrays_writeable():
    x, y = np.array([0.5, 0.5]), np.array([1.0, -0.25])
    lde = LdeCoefficients(b=x, a=y)
    x[0], y[1] = 1.0, 0.0  # the caller's arrays stay its own
    assert lde.b.tolist() == [0.5, 0.5] and lde.a.tolist() == [1.0, -0.25]
    assert not np.shares_memory(x, lde.b) and not np.shares_memory(y, lde.a)
    assert not lde.b.flags.writeable and not lde.a.flags.writeable


@pytest.mark.parametrize("b, a, want_b, want_a, radius", [
    ([0.25], [1.0, -0.75], [0.25, 0.0], [1.0, -0.75], 0.75),
    ([0.5, 0.25, 0.25], [1.0], [0.5, 0.25, 0.25], [1.0, 0.0, 0.0], 0.0),
    (0.5, 1.0, [0.5], [1.0], 0.0),
])
def test_lde_zero_pads_b_and_a_to_one_length(b, a, want_b, want_a, radius):
    lde = LdeCoefficients(b=b, a=a)
    assert lde.b.tolist() == want_b and lde.a.tolist() == want_a
    assert lde.order == len(want_a) - 1 and lde.pole_radius == radius


@pytest.mark.parametrize("field", ["b", "a"])
def test_lde_rejects_an_empty_b_or_a_naming_the_field(field):
    with pytest.raises(ValueError, match=f"^{field} must not be empty$"):
        LdeCoefficients(**dict({"b": [1.0], "a": [1.0]}, **{field: []}))


def test_design_validation():
    with pytest.raises(ValueError):
        FilterDesign(2, 3, WeightSpec(-1.0))  # derivative above degree
    with pytest.raises(ValueError):
        FilterDesign(2, 0, WeightSpec(-1.0), sample_period=0.0)
    with pytest.raises(ValueError):
        FilterDesign(2, 0, WeightSpec(-1.0, causality=Causality.TWO_SIDED), delay=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_design_rejects_non_finite_delay_and_sample_period(bad):
    with pytest.raises(ValueError, match="delay must be finite"):
        FilterDesign(2, 0, WeightSpec(-1.0), delay=bad)
    with pytest.raises(ValueError, match="sample_period must be finite"):
        FilterDesign(2, 0, WeightSpec(-1.0), sample_period=bad)


def test_sample_period_scales_differentiator():
    base = derive_causal_lde(causal_design(derivative=1, q=1.0, T=1.0))
    fast = derive_causal_lde(causal_design(derivative=1, q=1.0, T=0.25))
    assert np.allclose(fast.b, 4.0 * base.b, rtol=1e-12)
    assert np.allclose(fast.a, base.a)


# ------------------------------------------- bitwise guard on realization
# Reference copies of the causal derivation, of the two-sided derivation
# with its own fwd/bwd/decay loops and of the bank built from unit-vector
# combinations.  The shared realization path must reproduce their
# coefficients bit for bit, and raise where they raise.

GUARD_POLES = (0.3, 0.5, 0.7, 0.85, 0.9, 0.95, 0.98)


def _reference_lde(a, h):
    n = len(a) - 1
    full = np.convolve(a, h)
    b = full[: n + 1].copy()
    tail = np.max(np.abs(full[n + 1 : n + 6]))
    if tail > 1e-9 * max(1.0, float(np.max(np.abs(b)))):
        raise RuntimeError("trailing convolution terms do not vanish")
    lde = LdeCoefficients(b=b, a=a)
    return [lde.b, lde.a]


def _reference_pair(design):
    basis = orthonormal_basis(design.degree, design.weight)
    c = synthesis_weights(basis, design.derivative, design.delay, design.sample_period)
    n = design.degree + 1
    a = binomial_denominator(design.pole, n)
    m = np.arange(n + 6, dtype=float)
    decay = design.pole ** m
    fwd = np.zeros(n + 6)
    bwd = np.zeros(n + 6)
    for k in range(design.degree + 1):
        fwd += c[k] * basis.evaluate(k, m)
        bwd += c[k] * basis.evaluate(k, -m)
    fwd *= decay
    bwd *= decay
    fwd[0] *= 0.5
    bwd[0] *= 0.5
    return _reference_lde(a, fwd) + _reference_lde(a, bwd)


def _reference_causal(design):
    basis = orthonormal_basis(design.degree, design.weight)
    c = synthesis_weights(basis, design.derivative, design.delay, design.sample_period)
    n = design.degree + design.kappa + 1
    a = binomial_denominator(design.pole, n)
    m = np.arange(n + 6, dtype=float)
    w = m ** design.kappa * np.exp(design.weight.sigma * m)
    if design.kappa > 0:
        w[0] = 0.0
    vals = np.zeros(n + 6)
    for k in range(design.degree + 1):
        vals += c[k] * basis.evaluate(k, m)
    arrays = _reference_lde(a, vals * w)
    for k in range(design.degree + 1):
        unit = np.zeros(design.degree + 1)
        unit[k] = 1.0
        vals = np.zeros(n + 6)
        for j in range(design.degree + 1):
            vals += unit[j] * basis.evaluate(j, m)
        arrays += _reference_lde(a, vals * w)
    return arrays + [c]


def _outcome(build, design):
    """The coefficient bytes of a derivation, or the name of what it raised."""
    try:
        return [np.asarray(x, float).tobytes() for x in build(design)]
    except (ValueError, RuntimeError) as e:
        return type(e).__name__


def _pair_arrays(design):
    pair = derive_noncausal_pair(design)
    return [pair.forward.b, pair.forward.a, pair.backward.b, pair.backward.a]


def _causal_arrays(design):
    lde = derive_causal_lde(design)
    bank = spectrum_filter_bank(design)
    return [lde.b, lde.a] + [x for f in bank.filters for x in (f.b, f.a)] + [bank.synthesis]


@pytest.mark.parametrize("degree", range(7))
def test_two_sided_pair_bitwise_matches_reference(degree):
    for derivative in range(min(degree, 2) + 1):
        for pole in GUARD_POLES:
            weight = WeightSpec(math.log(pole), causality=Causality.TWO_SIDED)
            design = FilterDesign(degree, derivative, weight)
            want = _outcome(_reference_pair, design)
            assert _outcome(_pair_arrays, design) == want, (derivative, pole)


@pytest.mark.parametrize("degree", range(7))
def test_causal_lde_and_bank_bitwise_match_reference(degree):
    for derivative in range(min(degree, 2) + 1):
        for kappa in range(3):
            for pole in GUARD_POLES:
                design = causal_design(degree, derivative, pole, kappa, q=1.5)
                want = _outcome(_reference_causal, design)
                assert _outcome(_causal_arrays, design) == want, (derivative, kappa, pole)


@pytest.mark.parametrize("b, a, radius", [
    ([0.5], [1.0], 0.0),
    ([0.5], [1.0, 0.0], 0.0),
    ([0.75], [1.0, -0.25], 0.25),
    ([1.0], [1.0, 0.0, 0.81], 0.9),
])
def test_pole_radius_is_the_largest_pole_modulus(b, a, radius):
    assert LdeCoefficients(b=b, a=a).pole_radius == pytest.approx(radius, abs=1e-15)


@pytest.mark.parametrize("degree, kappa", [(0, 0), (2, 1), (6, 2)])
def test_pole_radius_is_the_root_finding_of_the_stability_check(degree, kappa):
    lde = derive_causal_lde(FilterDesign(degree, 0, WeightSpec(math.log(0.6), kappa)))
    assert lde.pole_radius == float(np.max(np.abs(np.roots(lde.a))))


def test_design_rejects_degree_above_the_maximum_before_building_a_denominator():
    # (1 - p z^-1)**(2**31 + 1) would overflow float while it was built
    with pytest.raises(ValueError, match=r"^degree 2147483648 exceeds supported maximum 6$"):
        FilterDesign(2**31, 0, WeightSpec(-1.0))


def test_binomial_denominator_beyond_float_range_is_a_value_error():
    with pytest.raises(ValueError, match=r"\(1 - p z\^-1\)\*\*2000 has binomial coefficients"):
        binomial_denominator(0.5, 2000)
    with pytest.raises(ValueError, match="beyond the float range"):
        derive_causal_lde(FilterDesign(2, 0, WeightSpec(-0.5, kappa=2**31)))


def test_sample_period_whose_derivative_scale_overflows_is_a_value_error():
    basis = orthonormal_basis(2, WeightSpec(-0.5))
    with pytest.raises(ValueError, match=r"^\(-1/T\)\*\*D overflows at T=1e-300, D=2$"):
        synthesis_weights(basis, 2, 0.0, 1e-300)
