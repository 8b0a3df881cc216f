"""Self-verification suite.

Each check exercises one headline guarantee of the package with fixed,
deterministic inputs and returns a pass/fail plus a short numeric
detail string.  The CLI selftest command prints one line per check;
the pytest suite runs the same functions.  Details never include wall
times, so reports are byte-identical across runs (time budgets are
still enforced, they just only affect the verdict).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .closed_form import ClosedForm, closed_form_coefficients, closed_form_for, optimal_q
from .design import (
    FilterDesign,
    binomial_denominator,
    derive_causal_lde,
    derive_noncausal_pair,
    impulse_response_prefix,
    pole_multiplicity,
    spectrum_filter_bank,
)
from .flow import FlowConfig, process_sequence
from .response import (
    flatness_report,
    frequency_response,
    group_delay,
    nyquist_gain,
    white_noise_gain,
)
from .runtime import Priming, filter_causal, filter_noncausal
from .synthetic import add_gaussian_blob, translating_plaid
from .weights import Causality, WeightSpec


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _causal_design(kappa: int, derivative: int, pole: float, q: float) -> FilterDesign:
    return FilterDesign(
        degree=2,
        derivative=derivative,
        weight=WeightSpec(sigma=math.log(pole), kappa=kappa),
        delay=q,
    )


def check_closed_form_equivalence() -> tuple[bool, str]:
    """General derivation vs the tabulated closed forms on a parameter
    grid; max abs coefficient error must stay within 1e-10."""
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for pole in (0.1, 0.25, 0.5, 0.75, 0.9):
        for q in (-2.0, 0.0, 1.0, 2.5, 6.0):
            for derivative in (0, 1):
                for kappa in (0, 1):
                    lde = derive_causal_lde(_causal_design(kappa, derivative, pole, q))
                    form = closed_form_for(Causality.CAUSAL, kappa, derivative)
                    ref = closed_form_coefficients(form, pole, q)
                    err = max(
                        float(np.max(np.abs(lde.b - ref.b))),
                        float(np.max(np.abs(lde.a - ref.a))),
                    )
                    worst = max(worst, err)
                    count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    detail = f"max abs coefficient error {worst:.3e} over {count} designs (tol 1e-10)"
    if elapsed >= 1.0:
        detail += "; runtime budget of 1 s exceeded"
    return ok, detail


def check_optimal_delay() -> tuple[bool, str]:
    """Closed-form optimal delays at sigma = -1/2 and the Nyquist nulls
    they are defined to produce."""
    pole = math.exp(-0.5)
    q0 = optimal_q(ClosedForm.SMOOTHER_K0, pole)
    q1 = optimal_q(ClosedForm.SMOOTHER_K1, pole)
    g0 = nyquist_gain(closed_form_coefficients(ClosedForm.SMOOTHER_K0, pole, q0))
    g1 = nyquist_gain(closed_form_coefficients(ClosedForm.SMOOTHER_K1, pole, q1))
    ok = abs(q0 - 2.12) <= 0.01 and abs(q1 - 4.14) <= 0.01 and g0 < 1e-10 and g1 < 1e-10
    detail = (
        f"optimal q {q0:.4f} (expect 2.12 +/- 0.01) and {q1:.4f} (expect 4.14 +/- 0.01); "
        f"Nyquist gains {g0:.2e}, {g1:.2e} (tol 1e-10)"
    )
    return ok, detail


def check_passband_flatness() -> tuple[bool, str]:
    """First three derivatives of |H|^2 at omega = 0 vanish for the
    optimally delayed smoothers."""
    pole = math.exp(-0.5)
    worst = 0.0
    for form in (ClosedForm.SMOOTHER_K0, ClosedForm.SMOOTHER_K1):
        lde = closed_form_coefficients(form, pole, optimal_q(form, pole))
        g0 = float(np.abs(frequency_response(lde, 0.0))[0] ** 2)
        rel = flatness_report(lde, 3) / g0
        worst = max(worst, float(np.max(rel)))
    ok = worst < 1e-4
    return ok, f"max relative |H|^2 derivative magnitude {worst:.3e} orders 1-3 (tol 1e-4)"


def check_pole_multiplicity() -> tuple[bool, str]:
    """Every derived causal denominator is exactly the binomial power
    with the designed pole and multiplicity."""
    count = 0
    exact = True
    for pole in (0.25, 0.5, 0.9):
        for degree in (0, 1, 2, 3):
            for kappa in (0, 1, 2):
                design = FilterDesign(
                    degree=degree,
                    derivative=0,
                    weight=WeightSpec(sigma=math.log(pole), kappa=kappa),
                    delay=0.5,
                )
                lde = derive_causal_lde(design)
                ref = binomial_denominator(pole, degree + kappa + 1)
                exact = exact and np.array_equal(lde.a, ref)
                p_hat, mult = pole_multiplicity(lde)
                exact = exact and mult == degree + kappa + 1 and abs(p_hat - pole) < 1e-12
                count += 1
    return exact, f"binomial denominator exact for {count} designs"


def check_group_delay_tuning() -> tuple[bool, str]:
    """Smoother group delay at omega = 0.01 tracks the configured q."""
    pole = math.exp(-0.5)
    worst = 0.0
    for form in (ClosedForm.SMOOTHER_K0, ClosedForm.SMOOTHER_K1):
        for q in (0.0, 1.0, 2.0, 4.0):
            lde = closed_form_coefficients(form, pole, q)
            gd = float(group_delay(lde, 0.01)[0])
            worst = max(worst, abs(gd - q))
    ok = worst < 0.05
    return ok, f"max |group delay - q| = {worst:.4f} samples at omega 0.01 (tol 0.05)"


def check_differentiator_gain_law() -> tuple[bool, str]:
    """|H(omega)| * T / omega stays within 1e-3 of unity at omega=1e-3
    for the four tabulated causal differentiator configurations."""
    pole = math.exp(-0.5)
    omega = 1e-3
    worst = 0.0
    count = 0
    for form in (ClosedForm.DIFFERENTIATOR_K0, ClosedForm.DIFFERENTIATOR_K1):
        for q in (0.0, optimal_q(form, pole)):
            lde = closed_form_coefficients(form, pole, q)
            ratio = float(np.abs(frequency_response(lde, omega))[0]) / omega
            worst = max(worst, abs(ratio - 1.0))
            count += 1
    ok = worst <= 1e-3
    return ok, f"max |gain*T/omega - 1| = {worst:.2e} over {count} configurations (tol 1e-3)"


def check_noncausal_equivalence() -> tuple[bool, str]:
    """Two-sided derivation vs the tabulated non-causal forms on a
    64-point grid, plus the phase-purity guarantees."""
    grid = np.linspace(0.0, math.pi, 64)
    worst = 0.0
    worst_purity = 0.0
    for pole in (0.25, 0.5, 0.75):
        for derivative, form in (
            (0, ClosedForm.SMOOTHER_NONCAUSAL),
            (1, ClosedForm.DIFFERENTIATOR_NONCAUSAL),
        ):
            design = FilterDesign(
                degree=2,
                derivative=derivative,
                weight=WeightSpec(sigma=math.log(pole), causality=Causality.TWO_SIDED),
            )
            derived = frequency_response(derive_noncausal_pair(design), grid)
            ref = frequency_response(closed_form_coefficients(form, pole), grid)
            worst = max(worst, float(np.max(np.abs(derived - ref))))
            stray = derived.imag if derivative == 0 else derived.real
            worst_purity = max(worst_purity, float(np.max(np.abs(stray))))
    ok = worst <= 1e-8 and worst_purity <= 1e-10
    detail = (
        f"max combined-response deviation {worst:.2e} (tol 1e-8); "
        f"max phase impurity {worst_purity:.2e} (tol 1e-10)"
    )
    return ok, detail


def check_noise_gain_minimum() -> tuple[bool, str]:
    """Sweeping q shows the white-noise gain minimum lands on the
    closed-form optimal delay for both smoothers."""
    pole = math.exp(-0.5)
    worst = 0.0
    for form, q_hi in ((ClosedForm.SMOOTHER_K0, 5.0), (ClosedForm.SMOOTHER_K1, 8.0)):
        qs = np.arange(0.0, q_hi + 1e-9, 0.01)
        gains = [
            white_noise_gain(closed_form_coefficients(form, pole, float(q))) for q in qs
        ]
        q_min = float(qs[int(np.argmin(gains))])
        worst = max(worst, abs(q_min - optimal_q(form, pole)))
    ok = worst <= 0.05
    return ok, f"max |argmin - optimal q| = {worst:.3f} over both smoothers (tol 0.05)"


def check_spectrum_bank() -> tuple[bool, str]:
    """Projection-bank path vs combined-filter path on fixed noise."""
    rng = np.random.default_rng(42)
    x = rng.standard_normal(100)
    worst = 0.0
    for kappa in (0, 1):
        for q in (0.0, 1.7):
            design = _causal_design(kappa, 0, 0.5, q)
            bank = spectrum_filter_bank(design)
            combined = filter_causal(derive_causal_lde(design), x)
            summed = np.zeros_like(x)
            for c_k, filt in zip(bank.synthesis, bank.filters):
                summed += c_k * filter_causal(filt, x)
            worst = max(worst, float(np.max(np.abs(summed - combined))))
    ok = worst < 1e-9
    return ok, f"max |bank sum - combined| = {worst:.2e} on 100-sample noise (tol 1e-9)"


def check_optical_flow() -> tuple[bool, str]:
    """Dense flow on a translating plaid, then disparity contrast for a
    counter-moving blob on the same background."""
    start = time.perf_counter()
    cfg = FlowConfig()
    velocity = (0.5, -0.25)
    frames = translating_plaid(40, 128, 128, velocity)
    margin = 16
    speed = math.hypot(*velocity)
    errors = []
    for result in process_sequence(frames, cfg):
        if not result.warmed_up:
            continue
        sl = (slice(margin, -margin), slice(margin, -margin))
        err = np.hypot(
            result.flow.vx[sl] - velocity[0], result.flow.vy[sl] - velocity[1]
        ) / speed
        inside = result.flow.valid[sl]
        errors.append(float(np.median(err[inside])) if np.any(inside) else 1.0)
    flow_err = max(errors) if errors else 1.0

    blob_v = (-0.5, 0.25)
    blob_frames = add_gaussian_blob(frames, blob_v, (74.0, 64.0), radius=8.0)
    last = None
    for last in process_sequence(blob_frames, cfg):
        pass
    cx = 74.0 + blob_v[0] * last.frame_index
    cy = 64.0 + blob_v[1] * last.frame_index
    yy, xx = np.mgrid[0:128, 0:128].astype(float)
    r2 = (xx - cx) ** 2 + (yy - cy) ** 2
    blob_mask = r2 <= 8.0**2
    interior = np.zeros_like(blob_mask)
    interior[12:-12, 12:-12] = True
    bg_mask = interior & (r2 > 16.0**2)
    ratio = float(np.median(last.disparity[blob_mask]) / np.median(last.disparity[bg_mask]))
    elapsed = time.perf_counter() - start
    ok = flow_err < 0.10 and ratio > 5.0 and elapsed < 30.0
    detail = (
        f"max interior median flow error {flow_err:.4f} over {len(errors)} warmed "
        f"frames (tol 0.10); blob/background disparity ratio {ratio:.1f} (tol 5)"
    )
    if elapsed >= 30.0:
        detail += "; runtime budget of 30 s exceeded"
    return ok, detail


def check_runtime_correctness() -> tuple[bool, str]:
    """Realized impulse responses match the analytic prefix; linearity
    and exact shift invariance hold on fixed random signals."""
    worst_imp = 0.0
    impulse = np.zeros(50)
    impulse[0] = 1.0
    designs = []
    for pole in (0.25, 0.5, 0.75, 0.9):
        for derivative in (0, 1):
            for kappa in (0, 1):
                designs.append(_causal_design(kappa, derivative, pole, 2.5))
        designs.append(
            FilterDesign(degree=0, derivative=0,
                         weight=WeightSpec(sigma=math.log(pole)), delay=0.0)
        )
    for design in designs:
        lde = derive_causal_lde(design)
        ref = impulse_response_prefix(design, 50)
        run = filter_causal(lde, impulse, Priming.ZERO)
        worst_imp = max(worst_imp, float(np.max(np.abs(run - ref))))

    rng = np.random.default_rng(7)
    x = rng.standard_normal(100)
    y = rng.standard_normal(100)
    lde = closed_form_coefficients(ClosedForm.SMOOTHER_K0, 0.5, 1.0)
    pair = closed_form_coefficients(ClosedForm.DIFFERENTIATOR_NONCAUSAL, 0.5)
    lin1 = np.max(np.abs(
        filter_causal(lde, 0.7 * x - 1.3 * y)
        - (0.7 * filter_causal(lde, x) - 1.3 * filter_causal(lde, y))
    ))
    lin2 = np.max(np.abs(
        filter_noncausal(pair, 0.7 * x - 1.3 * y, Priming.ZERO)
        - (0.7 * filter_noncausal(pair, x, Priming.ZERO)
           - 1.3 * filter_noncausal(pair, y, Priming.ZERO))
    ))
    linearity = max(float(lin1), float(lin2))
    shifted = np.concatenate([np.zeros(7), x])
    shift_exact = bool(
        np.array_equal(filter_causal(lde, shifted)[7:], filter_causal(lde, x))
    )
    ok = worst_imp <= 1e-12 and linearity <= 1e-9 and shift_exact
    detail = (
        f"max impulse deviation {worst_imp:.2e} over {len(designs)} filters (tol 1e-12); "
        f"linearity error {linearity:.2e} (tol 1e-9); shift invariance "
        f"{'exact' if shift_exact else 'VIOLATED'}"
    )
    return ok, detail


CRITERIA = (
    ("closed-form-equivalence", check_closed_form_equivalence),
    ("optimal-delay", check_optimal_delay),
    ("passband-flatness", check_passband_flatness),
    ("pole-multiplicity", check_pole_multiplicity),
    ("group-delay-tuning", check_group_delay_tuning),
    ("differentiator-gain-law", check_differentiator_gain_law),
    ("noncausal-equivalence", check_noncausal_equivalence),
    ("noise-gain-minimum", check_noise_gain_minimum),
    ("spectrum-bank", check_spectrum_bank),
    ("optical-flow-mti", check_optical_flow),
    ("runtime-correctness", check_runtime_correctness),
)


def run_criterion(index: int) -> CriterionResult:
    """Run one criterion by its 1-based index."""
    name, func = CRITERIA[index - 1]
    passed, detail = func()
    return CriterionResult(index=index, name=name, passed=passed, detail=detail)


def run_all() -> list[CriterionResult]:
    return [run_criterion(i) for i in range(1, len(CRITERIA) + 1)]


def format_result(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"criterion {result.index:2d} {status} {result.name:<26s} {result.detail}"
