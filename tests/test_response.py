import functools
import io
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.signal

from fadefilt import design as design_module
from fadefilt.closed_form import ClosedForm, closed_form_coefficients, optimal_q
from fadefilt.design import (
    FilterDesign,
    NonCausalPair,
    derive_causal_lde,
    derive_noncausal_pair,
)
from fadefilt.response import (
    DB_FLOOR,
    ResponseTable,
    evaluate_response,
    flatness_report,
    frequency_response,
    group_delay,
    nyquist_gain,
    white_noise_gain,
    write_response_csv,
)
from fadefilt.weights import Causality, WeightSpec

P_REF = math.exp(-0.5)
SWEEP_POLES = (0.3, 0.5, 0.7, 0.85, 0.95, 0.98)


def smoother(q=0.0):
    return closed_form_coefficients(ClosedForm.SMOOTHER_K0, P_REF, q)


@functools.cache
def timed_sweep_filters():
    """(design, filter) for the timed jobs of the design-sweep benchmark
    at seed 1: every degree at poles up to 0.7 and degrees up to 2 at
    every pole, with the causal delays drawn as the benchmark draws
    them."""
    rng = np.random.default_rng([1, 3])
    out = []
    for causal in (True, False):
        causality = Causality.CAUSAL if causal else Causality.TWO_SIDED
        for degree in range(7):
            for derivative in range(min(degree, 2) + 1):
                for kappa in (0, 1, 2) if causal else (0,):
                    for pole in SWEEP_POLES:
                        q = float(rng.uniform(0.0, 6.0)) if causal else 0.0
                        if pole > 0.7 and degree > 2:
                            continue
                        weight = WeightSpec(math.log(pole), kappa, causality=causality)
                        design = FilterDesign(degree, derivative, weight, q)
                        derive = derive_causal_lde if causal else derive_noncausal_pair
                        out.append((design, derive(design)))
    return tuple(out)


def _exact_taylor(lde, count, at_pi, sign):
    """Taylor coefficients eta_0..eta_count of one half's B/A in jw
    about w = 0 (or pi), exact in fractions from the float coefficients
    as realized; sign = -1 for a backward half, which runs over
    reversed time."""

    turn = -1 if at_pi else 1  # e^{-j pi m} = (-1)^m

    def series(coeffs):
        cs = [Fraction(float(c)) * turn**m for m, c in enumerate(coeffs)]
        return [sum(c * Fraction(-sign * m) ** j for m, c in enumerate(cs)) / math.factorial(j)
                for j in range(count + 1)]

    beta, alpha = series(lde.b), series(lde.a)
    eta = []
    for j in range(count + 1):
        eta.append((beta[j] - sum(alpha[i] * eta[j - i] for i in range(1, j + 1))) / alpha[0])
    return eta


def exact_taylor(filt, count, at_pi=False):
    """eta_0..eta_count of H in jw about w = 0 (or pi) for an LDE or a pair."""
    if isinstance(filt, NonCausalPair):
        fwd = _exact_taylor(filt.forward, count, at_pi, 1)
        bwd = _exact_taylor(filt.backward, count, at_pi, -1)
        return [f + b for f, b in zip(fwd, bwd)]
    return _exact_taylor(filt, count, at_pi, 1)


def exact_zero_delay(filt, k, at_pi=False):
    """The group delay limit at a zero of order k: -eta_{k+1} / eta_k."""
    eta = exact_taylor(filt, k + 1, at_pi)
    return float(-eta[k + 1] / eta[k])


def exact_flatness(filt, max_order):
    """d^r |H|^2 / dw^r at w = 0 for r = 1..max_order, exact: with
    H = sum eta_i (jw)^i, the w^r coefficient of H conj(H) is
    j^r sum_i (-1)^(r-i) eta_i eta_(r-i)."""
    eta = exact_taylor(filt, max_order)
    out = []
    for r in range(1, max_order + 1):
        acc = sum((-1) ** (r - i) * eta[i] * eta[r - i] for i in range(r + 1))
        out.append(0 if r % 2 else (-1) ** (r // 2) * math.factorial(r) * acc)
    return eta[0] ** 2, out


def test_frequency_response_matches_scipy():
    lde = smoother(1.3)
    omega = np.linspace(0.0, math.pi, 33)
    _, href = scipy.signal.freqz(lde.b, lde.a, worN=omega)
    assert np.allclose(frequency_response(lde, omega), href, atol=1e-12)


def test_pair_response_is_sum_of_directions():
    design = FilterDesign(2, 0, WeightSpec(-1.0, causality=Causality.TWO_SIDED))
    pair = derive_noncausal_pair(design)
    omega = np.linspace(0.0, math.pi, 17)
    fwd = frequency_response(pair.forward, omega)
    bwd = np.conj(frequency_response(pair.backward, omega))
    assert np.allclose(frequency_response(pair, omega), fwd + bwd, atol=1e-13)


def test_group_delay_matches_numeric_phase_slope():
    lde = closed_form_coefficients(ClosedForm.DIFFERENTIATOR_K1, P_REF, 2.0)
    omega = np.linspace(0.3, 2.8, 9)
    h = 1e-6
    hp = frequency_response(lde, omega + h)
    hm = frequency_response(lde, omega - h)
    numeric = -(np.angle(hp) - np.angle(hm)) / (2 * h)
    assert np.allclose(group_delay(lde, omega), numeric, atol=1e-4)


def test_group_delay_finite_at_spectral_zeros():
    # H(0) = 0 for a differentiator and H(pi) = 0 at the optimal q;
    # the group delay limit must still come out finite
    q = optimal_q(ClosedForm.SMOOTHER_K0, P_REF)
    gd_pi = group_delay(closed_form_coefficients(ClosedForm.SMOOTHER_K0, P_REF, q), math.pi)
    assert np.isfinite(gd_pi).all()
    diff = closed_form_coefficients(ClosedForm.DIFFERENTIATOR_K0, P_REF, 3.0)
    gd_0 = group_delay(diff, 0.0)
    assert np.isfinite(gd_0).all()
    assert gd_0[0] == pytest.approx(exact_zero_delay(diff, 1), abs=1e-9)
    assert gd_0[0] == pytest.approx(3.0, abs=1e-4)


def test_group_delay_at_dc_matches_the_exact_limit_on_the_timed_sweep():
    # a differentiator of order D has a zero of order D at w = 0
    checked = 0
    for design, filt in timed_sweep_filters():
        if design.causality is not Causality.CAUSAL:
            continue
        gd = float(group_delay(filt, 0.0)[0])
        assert gd == pytest.approx(exact_zero_delay(filt, design.derivative), abs=1e-6)
        if design.degree >= design.derivative + 1:
            assert gd == pytest.approx(design.delay, abs=1e-4)
        checked += 1
    assert checked == 216


@pytest.mark.parametrize("form", [ClosedForm.SMOOTHER_K0, ClosedForm.DIFFERENTIATOR_K0,
                                  ClosedForm.SMOOTHER_K1, ClosedForm.DIFFERENTIATOR_K1],
                         ids=lambda form: form.value)
def test_group_delay_at_the_optimal_nyquist_zero_matches_the_exact_limit(form):
    for pole in (0.3, 0.6065, 0.9):
        lde = closed_form_coefficients(form, pole, optimal_q(form, pole))
        gd = float(group_delay(lde, math.pi)[0])
        assert gd == pytest.approx(exact_zero_delay(lde, 1, at_pi=True), abs=1e-6)


def test_two_sided_group_delay_is_zero_at_dc_and_nyquist():
    for design, filt in timed_sweep_filters():
        if design.causality is Causality.TWO_SIDED:
            assert np.allclose(group_delay(filt, [0.0, math.pi]), 0.0, atol=1e-9)


@pytest.mark.parametrize("design, tol", [
    # once read -6.06e11 at w = 0
    (FilterDesign(4, 1, WeightSpec(math.log(0.7), 2), 3.91556), 1e-6),
    # |A(0)| ~ 8e-10 amplifies rounding: once inf on a 5-point grid
    (FilterDesign(6, 2, WeightSpec(math.log(0.95), 0), 3.382), 0.05),
    # H'(0) carries the rounding of H(0), times |A'/A| ~ 130
    (FilterDesign(4, 2, WeightSpec(math.log(0.95), 2), 2.0), 0.01),
], ids=["B4-D1-p0.7", "B6-D2-p0.95", "B4-D2-p0.95"])
def test_group_delay_at_a_zero_does_not_depend_on_the_grid(design, tol):
    lde = derive_causal_lde(design)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coarse = evaluate_response(lde, np.linspace(0.0, math.pi, 5)).group_delay[0]
        fine = evaluate_response(lde, np.linspace(0.0, math.pi, 512)).group_delay[0]
    assert np.isfinite(coarse)
    assert coarse == fine
    assert coarse == pytest.approx(exact_zero_delay(lde, design.derivative), abs=tol)
    assert coarse == pytest.approx(design.delay, abs=max(tol, 1e-4))


def test_group_delay_near_a_rounded_double_zero_is_the_direct_formula():
    # the samples next to w = 0 are small, not zeros: their delay is
    # -Im[H'/H], not the limit at the double zero
    lde = derive_causal_lde(FilterDesign(6, 2, WeightSpec(math.log(0.95), 0), 3.0))
    grid = np.linspace(0.0, math.pi, 512)
    near = slice(1, 8)  # 0 < w <= 0.0431

    def delay(coeffs):
        # -d arg P / dw = Re[sum_m m p_m e^{-jwm} / P]
        m = np.arange(len(coeffs))
        phase = np.exp(-1j * np.outer(grid[near], m))
        return np.real((phase @ (m * coeffs)) / (phase @ coeffs))

    gd = evaluate_response(lde, grid).group_delay[near]
    np.testing.assert_allclose(gd, delay(lde.b) - delay(lde.a), rtol=1e-9)


def test_smoother_group_delay_at_dc_equals_q():
    for q in (-1.0, 0.0, 2.5):
        gd = group_delay(smoother(q), 1e-4)
        assert gd[0] == pytest.approx(q, abs=1e-3)


def test_zero_phase_pair_has_zero_group_delay():
    design = FilterDesign(2, 0, WeightSpec(-1.0, causality=Causality.TWO_SIDED))
    pair = derive_noncausal_pair(design)
    gd = group_delay(pair, np.linspace(0.1, 3.0, 7))
    assert np.allclose(gd, 0.0, atol=1e-9)


def test_evaluate_response_fields():
    table = evaluate_response(smoother(1.0), np.linspace(0.0, math.pi, 9))
    assert isinstance(table, ResponseTable)
    for column in (table.omega, table.value, table.magnitude_db, table.phase,
                   table.group_delay):
        assert column.shape == (9,)
    assert table.omega[0] == 0.0
    assert table.magnitude_db[0] == pytest.approx(0.0, abs=1e-9)
    assert table.phase[0] == pytest.approx(0.0, abs=1e-9)
    # dB floor at a true null
    q = optimal_q(ClosedForm.SMOOTHER_K0, P_REF)
    floored = evaluate_response(smoother(q), np.array([math.pi]))
    assert floored.magnitude_db[0] == DB_FLOOR


def test_evaluate_response_columns_are_read_only():
    grid = np.linspace(0.0, math.pi, 5)
    table = evaluate_response(smoother(1.0), grid)
    for column in (table.omega, table.value, table.magnitude_db, table.phase,
                   table.group_delay):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0.0
    # the caller's grid is copied, not frozen or aliased
    assert grid.flags.writeable
    assert not np.shares_memory(table.omega, grid)
    with pytest.raises(AttributeError):
        table.omega = grid


@pytest.mark.parametrize("filt", [
    smoother(1.0),
    derive_noncausal_pair(FilterDesign(2, 1, WeightSpec(-1.0, causality=Causality.TWO_SIDED))),
    closed_form_coefficients(ClosedForm.DIFFERENTIATOR_K0, P_REF, 3.0),
], ids=["causal", "two-sided", "differentiator"])
def test_evaluate_response_matches_the_public_functions_bitwise(filt):
    # omega = 0 is on the grid: a zero of both differentiators' response
    omega = np.linspace(0.0, math.pi, 65)
    table = evaluate_response(filt, omega)
    assert np.array_equal(table.value, frequency_response(filt, omega))
    assert np.array_equal(table.group_delay, group_delay(filt, omega))


def test_evaluate_response_rejects_out_of_range_grid():
    with pytest.raises(ValueError):
        evaluate_response(smoother(), np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        evaluate_response(smoother(), np.array([0.5, 3.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluate_response_rejects_non_finite_grid(bad):
    with pytest.raises(ValueError, match="finite"):
        evaluate_response(smoother(), np.array([0.0, bad, 1.0]))


def test_csv_output_format():
    table = evaluate_response(smoother(1.0), np.linspace(0.0, math.pi, 3))
    buf = io.StringIO()
    write_response_csv(table, buf, flatness=np.array([1e-12, 2e-9]))
    lines = buf.getvalue().splitlines()
    assert lines[0] == "omega,magnitude_db,phase_rad,group_delay"
    assert len(lines) == 1 + 3 + 2
    assert lines[-2] == "# flatness order 1: 1.000000e-12"
    for row in lines[1:4]:
        assert len(row.split(",")) == 4
    # each row is its table entries at 9 significant digits
    for row, i in zip(lines[1:4], range(3)):
        assert row == ",".join(f"{float(col[i]):.9g}" for col in (
            table.omega, table.magnitude_db, table.phase, table.group_delay))


def test_flatness_to_third_order():
    # |H|^2 has vanishing derivatives through order 3 for any q: odd
    # orders by evenness, order 2 by the first three moment conditions
    # of a degree-2 fit.  Order 4 is genuinely nonzero, which shows the
    # report has teeth.
    for q in (0.0, optimal_q(ClosedForm.SMOOTHER_K1, P_REF)):
        lde = closed_form_coefficients(ClosedForm.SMOOTHER_K1, P_REF, q)
        report = flatness_report(lde, 4)
        assert report.shape == (4,)
        assert np.all(report[:3] < 1e-4)
        assert report[3] > 1.0


@pytest.mark.parametrize("degree", range(7))
@pytest.mark.parametrize("causality", [Causality.CAUSAL, Causality.TWO_SIDED],
                         ids=["causal", "two-sided"])
def test_flatness_report_matches_the_exact_derivatives(causality, degree):
    checked = 0
    for design, filt in timed_sweep_filters():
        if design.causality is not causality or design.degree != degree:
            continue
        g0, exact = exact_flatness(filt, 4)
        report = flatness_report(filt, 6)
        for got, want in zip(report[:4], exact):
            scale = max(abs(want), g0, 1)
            assert abs(got - abs(float(want))) <= 1e-4 * scale
        # |H|^2 is even: odd orders vanish exactly, not to rounding
        assert report[0::2].tolist() == [0.0, 0.0, 0.0]
        for max_order in range(1, 6):
            assert flatness_report(filt, max_order).tobytes() == report[:max_order].tobytes()
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("max_order", [0, -1, 7, 2.5, True])
def test_flatness_report_rejects_bad_max_order(max_order):
    with pytest.raises(ValueError, match="max_order"):
        flatness_report(smoother(), max_order)


def test_nyquist_gain_and_zero_detection():
    q = optimal_q(ClosedForm.SMOOTHER_K0, P_REF)
    tuned = smoother(q)
    assert nyquist_gain(tuned) < 1e-12
    assert nyquist_gain(smoother(0.0)) > 1e-3


def test_white_noise_gain_matches_impulse_energy():
    for pole in (0.3, 0.75, 0.9):
        lde = derive_causal_lde(
            FilterDesign(2, 1, WeightSpec(math.log(pole), 1), 2.0)
        )
        imp = np.zeros(20000)
        imp[0] = 1.0
        energy = float(np.sum(scipy.signal.lfilter(lde.b, lde.a, imp) ** 2))
        assert white_noise_gain(lde) == pytest.approx(energy, rel=1e-10)


def test_white_noise_gain_of_one_pole():
    # closed form for b = [1-p], a = [1, -p]: (1-p)^2 / (1-p^2)
    p = 0.6
    from fadefilt.design import LdeCoefficients

    lde = LdeCoefficients(b=np.array([1 - p]), a=np.array([1.0, -p]))
    assert white_noise_gain(lde) == pytest.approx((1 - p) ** 2 / (1 - p**2), rel=1e-12)


def test_white_noise_gain_of_a_pair_is_a_value_error():
    pair = closed_form_coefficients(ClosedForm.SMOOTHER_NONCAUSAL, P_REF)
    with pytest.raises(ValueError,
                       match="^white_noise_gain needs a causal filter, got a two-sided pair$"):
        white_noise_gain(pair)


def test_white_noise_gain_of_a_pure_gain():
    from fadefilt.design import LdeCoefficients

    assert white_noise_gain(LdeCoefficients(b=np.array([0.5]), a=np.array([1.0]))) == 0.25


def _white_noise_gain_finding_its_own_roots(lde) -> float:
    """white_noise_gain as it was before it read lde.pole_radius."""
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
        if rho > 0.0:
            r = (rho**block * ((start + block) / start) ** max(n - 1, 0)) ** 2
        else:
            r = 0.0
        if r < 1.0 and (e_blk * r / (1.0 - r) if r > 0 else 0.0) <= 1e-12 * total:
            return total


@pytest.mark.parametrize("degree, kappa, pole", [
    (0, 0, 0.3), (1, 0, 0.9), (2, 1, 0.6), (3, 2, 0.95), (6, 0, 0.98),
])
def test_white_noise_gain_bits_match_finding_the_roots_again(degree, kappa, pole):
    lde = derive_causal_lde(FilterDesign(degree, degree // 2, WeightSpec(math.log(pole), kappa)))
    assert white_noise_gain(lde) == _white_noise_gain_finding_its_own_roots(lde)


PHASE_CACHE = design_module._cached_phase_matrix


@pytest.mark.parametrize("filt", [
    smoother(1.0),
    derive_noncausal_pair(FilterDesign(2, 1, WeightSpec(-1.0, causality=Causality.TWO_SIDED))),
    closed_form_coefficients(ClosedForm.DIFFERENTIATOR_K0, P_REF, 3.0),
    derive_causal_lde(FilterDesign(6, 2, WeightSpec(math.log(0.9), 2), 2.5)),
], ids=["causal", "two-sided", "differentiator", "B6-D2-kappa2"])
def test_cold_and_warm_phase_cache_give_the_same_bits(filt):
    omega = np.linspace(0.0, math.pi, 512)

    def results():
        table = evaluate_response(filt, omega)
        return [table.value, table.magnitude_db, table.phase, table.group_delay,
                group_delay(filt, omega), frequency_response(filt, omega),
                flatness_report(filt, 6)]

    PHASE_CACHE.cache_clear()
    cold = results()
    assert PHASE_CACHE.cache_info().currsize > 0
    warm = results()
    assert PHASE_CACHE.cache_info().hits > 0
    for c, w in zip(cold, warm, strict=True):
        assert c.tobytes() == w.tobytes()


def test_phase_cache_is_bounded_and_read_only():
    lde = smoother(1.0)
    PHASE_CACHE.cache_clear()
    for k in range(1000):
        frequency_response(lde, np.linspace(0.0, math.pi, 8) * (1.0 - k * 1e-4))
    info = PHASE_CACHE.cache_info()
    assert info.misses >= 1000
    assert 0 < info.currsize <= info.maxsize
    phase = design_module._phase_matrix(3, np.linspace(0.0, 1.0, 4))
    assert not phase.flags.writeable


def test_phase_cache_does_not_alias_the_callers_grid():
    lde = derive_causal_lde(FilterDesign(3, 1, WeightSpec(math.log(0.6), 1), 1.5))
    omega = np.linspace(0.0, math.pi, 33)
    want_h = frequency_response(lde, omega.copy())
    want_gd = group_delay(lde, omega.copy())
    PHASE_CACHE.cache_clear()
    frequency_response(lde, omega)
    group_delay(lde, omega)
    omega *= 0.5
    omega[3] = 1.0
    fresh = np.linspace(0.0, math.pi, 33)
    assert frequency_response(lde, fresh).tobytes() == want_h.tobytes()
    assert group_delay(lde, fresh).tobytes() == want_gd.tobytes()


def test_grids_beyond_the_cache_element_limit_are_built_fresh():
    lde = smoother(1.0)
    n = min(len(lde.b), len(lde.a))
    points = design_module._PHASE_CACHE_ELEMENTS // n + 1
    omega = np.linspace(0.0, math.pi, points)
    PHASE_CACHE.cache_clear()
    first = frequency_response(lde, omega)
    assert PHASE_CACHE.cache_info().currsize == 0
    assert frequency_response(lde, omega).tobytes() == first.tobytes()
