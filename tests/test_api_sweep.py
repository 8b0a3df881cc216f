"""Input sweep of the library's public entry points.

Arrays.  Hypothesis draws arrays of 0 to 3 axes with 0 to 3 entries each (and,
for the product stacks, a leading axis of 4 or 5), of dtype bool,
int64, float32, float64, complex128 or object (Python floats), as they
are or as reversed or strided views, with values of magnitude at most
1e6.  It hands them, with a filter of each kind, to every public
function that takes a signal, image, frame, frame stream, grid or
product stack.  Every warning is raised as an error.  A call must
return a finite result of the documented shape or raise ValueError or
TypeError, and a real input of the documented shape must be accepted.

Values are capped at 1e6: far larger samples overflow the flow's
products of four samples and its solve, a matter of scale rather than
of input checks (see "Scale-free flow numerics" in ROADMAP.md).
``FilterState.step`` takes numbers and is fed Python numbers
(``tolist()``): its compiled kernel converts with float(), which gives a
numpy complex scalar numpy's ComplexWarning, and a type check in every
step would cost about a fifth of the step.

Scalars.  Every scalar parameter of the design, analysis, flow and
synthesis entry points gets, one at a time with the others valid, each
number of a fixed list (ints from -10**400 to 10**400, bools, integral
and non-integral floats, signed zeros, subnormals, NaN, infinities,
numpy int64 and float64) and a derandomized Hypothesis draw of ints and
floats.  Under warnings-as-errors a call must return or raise
ValueError, and a number its parameter's rule refuses must raise; where
the rule is all the call checks, a number it accepts must be accepted.
Sizes that allocate (a prefix length, plaid sizes, a binomial
multiplicity) get only the listed numbers of magnitude at most 9 (and
NaN), and draws of magnitude at most 10**4.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadefilt import (
    Axis,
    Causality,
    ClosedForm,
    FilterDesign,
    FilterState,
    FlowConfig,
    FlowField,
    FrameFilter,
    LdeCoefficients,
    Priming,
    WeightSpec,
    background_disparity,
    binomial_denominator,
    closed_form_coefficients,
    derive_causal_lde,
    derive_noncausal_pair,
    evaluate_response,
    filter_causal,
    filter_image_separable,
    filter_noncausal,
    filter_time_stack,
    flatness_report,
    frequency_response,
    group_delay,
    impulse_response_prefix,
    optimal_q,
    orthonormal_basis,
    process_sequence,
    solve_flow,
    synthesis_weights,
    translating_plaid,
    weight_moments,
    white_noise_gain,
)
from fadefilt.fileio import write_float_stack, write_pgm

SMOOTHER = closed_form_coefficients(ClosedForm.SMOOTHER_K0, math.exp(-0.5), 1.0)
DIFFERENTIATOR = closed_form_coefficients(ClosedForm.DIFFERENTIATOR_K1, math.exp(-0.5), 2.0)
GAIN = LdeCoefficients(b=[2.0], a=[1.0])
PAIR = closed_form_coefficients(ClosedForm.SMOOTHER_NONCAUSAL, math.exp(-1.0))
FILTERS = st.sampled_from([SMOOTHER, DIFFERENTIATOR, GAIN, PAIR])

SWEEP = settings(max_examples=150, deadline=None, derandomize=True)
REFUSED = object()


@st.composite
def arrays(draw, lead=st.just(None)):
    """An array of one of the swept dtypes, shapes and views."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    first = draw(lead)
    shape = shape if first is None else (first,) + shape
    size = math.prod(shape)
    values = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size)),
                      dtype=float).reshape(shape)
    dtype = draw(st.sampled_from(["bool", "int64", "float32", "float64", "complex128", "object"]))
    x = values * (1 + 1j) if dtype == "complex128" else values.astype(dtype)
    view = draw(st.sampled_from(["as is", "reversed", "strided"])) if x.ndim else "as is"
    if view == "reversed":
        return x[::-1]
    if view == "strided":
        return np.repeat(x, 2, axis=0)[::2]
    return x


def _call(run):
    """run() with every warning an error; REFUSED if it raised ValueError
    or TypeError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return run()
        except (ValueError, TypeError):
            return REFUSED


def _finite(result, shape) -> None:
    assert np.shape(result) == shape
    assert np.isfinite(result).all()


def _real(x) -> bool:
    return x.dtype.kind != "c"


def _causal(filt) -> bool:
    return len(filt.halves) == 1


@SWEEP
@given(filt=FILTERS, x=arrays(), priming=st.sampled_from(Priming), axis=st.sampled_from(Axis))
def test_signal_and_image_filters(filt, x, priming, axis):
    signal = _real(x) and x.ndim == 1 and x.size > 0
    for run, accepts in [
        (lambda: filter_causal(filt, x, priming), signal and _causal(filt)),
        (lambda: filter_noncausal(filt, x, priming), signal and not _causal(filt)),
        (lambda: filter_image_separable(filt, x, axis, priming),
         _real(x) and x.ndim == 2 and x.size > 0),
    ]:
        y = _call(run)
        assert (y is not REFUSED) == accepts
        if accepts:
            _finite(y, x.shape)


@SWEEP
@given(filt=FILTERS, x=arrays(), priming=st.sampled_from(Priming), hold=st.booleans())
def test_frame_filters_and_streams(filt, x, priming, hold):
    planes = _call(lambda: list(filter_time_stack(filt, x, priming)))
    stream = x.ndim > 0 and _causal(filt) and (_real(x) or len(x) == 0)
    assert (planes is not REFUSED) == stream
    if stream:
        assert len(planes) == len(x)
        for plane in planes:
            _finite(plane, x.shape[1:])

    def frame_step():
        return FrameFilter(filt, x.shape, hold=x if hold else None).step(x)

    y = _call(frame_step)
    assert (y is not REFUSED) == (_causal(filt) and _real(x))
    if y is not REFUSED:
        _finite(y, x.shape)

    state = _call(lambda: FilterState(filt))
    assert (state is not REFUSED) == _causal(filt)
    if state is not REFUSED:
        primed = _call(lambda: state.prime_constant(x))
        assert (primed is not REFUSED) == (_real(x) and x.ndim == 0)
        _finite(state.delay_line, (filt.order,))
        ys = _call(lambda: [state.step(v) for v in x.ravel().tolist()])
        assert (ys is not REFUSED) == (_real(x) or x.size == 0)
        if ys is not REFUSED:
            _finite(ys, (x.size,))


@SWEEP
@given(filt=FILTERS, omega=arrays())
def test_response_analysis(filt, omega):
    size = (omega.size,)
    for run in (frequency_response, group_delay):
        y = _call(lambda: run(filt, omega))
        assert (y is not REFUSED) == _real(omega)
        if y is not REFUSED:
            _finite(y, size)
    table = _call(lambda: evaluate_response(filt, omega))
    in_range = _real(omega) and bool(np.all((omega >= 0) & (omega <= math.pi)))
    assert (table is not REFUSED) == in_range
    if in_range:
        for column in (table.omega, table.value, table.magnitude_db, table.phase,
                       table.group_delay):
            _finite(column, size)
    gain = _call(lambda: white_noise_gain(filt))
    assert (gain is not REFUSED) == _causal(filt)
    if gain is not REFUSED:
        assert math.isfinite(gain) and gain > 0.0


@SWEEP
@given(x=arrays(), q=st.sampled_from([0.0, 1.0]))
def test_flow_streams(x, q):
    cfg = FlowConfig(temporal_q=q)
    results = _call(lambda: list(process_sequence(x, cfg)))
    frames = x.ndim == 3 and x.shape[1] > 0 and x.shape[2] > 0 and _real(x)
    assert (results is not REFUSED) == (frames or (x.ndim > 0 and len(x) == 0))
    if results is not REFUSED:
        assert len(results) == max(0, len(x) - int(q))
        for r in results:
            for plane in (r.flow.vx, r.flow.vy, r.flow.valid, r.disparity):
                _finite(plane, x.shape[1:])


@SWEEP
@given(x=arrays(lead=st.sampled_from([None, 4, 5])))
def test_flow_product_stacks(x):
    stack = _real(x) and x.ndim >= 2 and len(x) == 5
    field = _call(lambda: solve_flow(x, FlowConfig()))
    assert (field is not REFUSED) == stack
    plane = x.shape[1:]
    if stack:
        for array in (field.vx, field.vy, field.valid):
            _finite(array, plane)
    ones = FlowField(vx=np.ones(plane), vy=np.ones(plane), valid=np.ones(plane, bool))
    dj = _call(lambda: background_disparity(x, ones))
    assert (dj is not REFUSED) == stack
    if stack:
        _finite(dj, plane)


@pytest.mark.parametrize("run, what", [
    (lambda z, tmp: filter_causal(SMOOTHER, z[0, 0]), "signal"),
    (lambda z, tmp: filter_noncausal(PAIR, z[0, 0]), "signal"),
    (lambda z, tmp: filter_image_separable(PAIR, z[0], Axis.ROWS), "image"),
    (lambda z, tmp: FrameFilter(SMOOTHER, (2, 3)).step(z[0]), "frame"),
    (lambda z, tmp: list(process_sequence(z[:4])), "frame 0"),
    (lambda z, tmp: solve_flow(z, FlowConfig()), "j"),
    (lambda z, tmp: evaluate_response(SMOOTHER, z[0, 0] / 8.0), "omega grid"),
    (lambda z, tmp: group_delay(SMOOTHER, z[0, 0]), "omega"),
    (lambda z, tmp: LdeCoefficients(b=z[0, 0], a=[1.0]), "b"),
    (lambda z, tmp: write_pgm(tmp / "x.pgm", z[0]), "image"),
    (lambda z, tmp: write_float_stack(tmp / "x.f32", z), "frames"),
], ids=["filter_causal", "filter_noncausal", "filter_image_separable", "FrameFilter.step",
        "process_sequence", "solve_flow", "evaluate_response", "group_delay",
        "LdeCoefficients", "write_pgm", "write_float_stack"])
def test_complex_input_is_a_value_error_naming_the_argument(tmp_path, run, what):
    z = np.arange(30.0).reshape(5, 2, 3) * (1 + 1j)
    with pytest.raises(ValueError, match=f"^{what} must be real, got complex128 values$"):
        run(z, tmp_path)
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------- scalars

FLOAT_MAX = sys.float_info.max
NUMBERS = [-(10**400), -(2**63), -1, 0, 1, 2, 3, 6, 7, 2**63, 10**400, True, False,
           -math.inf, -1e300, -1.0, -0.5, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0,
           1.5, 2.0, 2.5, 1e300, math.inf, math.nan,
           np.int64(2), np.int64(-1), np.float64(2.0), np.float64(0.5), np.float64(math.nan)]
SIZES = [n for n in NUMBERS if not abs(n) > 9]  # NaN included
DRAWN = st.one_of(st.integers(), st.floats(), st.integers(-9, 9).map(np.int64),
                  st.floats().map(np.float64))
DRAWN_SIZES = st.one_of(st.integers(-10, 10**4), st.floats(-1e4, 1e4))


def _integer(least, most=math.inf):
    return lambda x: (isinstance(x, numbers.Integral) and not isinstance(x, bool)
                      and least <= x <= most)


def _period(x) -> bool:
    return 0.0 < x <= FLOAT_MAX


def _pole(x) -> bool:
    return 0.0 < x < 1.0


def _finite_number(x) -> bool:
    return abs(x) <= FLOAT_MAX


def _sigma(x) -> bool:
    return -FLOAT_MAX <= x < 0.0 and 0.0 < math.exp(x) < 1.0


WEIGHT = WeightSpec(-0.5)
BASIS = orthonormal_basis(2, WEIGHT)
CAUSAL_FORMS = [form for form in ClosedForm if "noncausal" not in form.value]


def _flow(**field):
    cfg = FlowConfig(**field)
    return (cfg.warmup_frames, cfg.spatial_differentiator(), cfg.temporal_differentiator(),
            cfg.spatial_smoother(), cfg.temporal_smoother())


# (id, call with the number, the rule for it, whether the rule is all the call
# checks, whether the number is a size that allocates)
SCALARS = [
    ("WeightSpec.sigma", lambda x: WeightSpec(x), _sigma, True, False),
    ("WeightSpec.kappa", lambda x: WeightSpec(-0.5, x), _integer(0), True, False),
    ("WeightSpec.kappa, derived",
     lambda x: derive_causal_lde(FilterDesign(1, 0, WeightSpec(-0.5, x))), _integer(0), False,
     False),
    ("FilterDesign.degree", lambda x: derive_causal_lde(FilterDesign(x, 0, WEIGHT)),
     _integer(0, 6), True, False),
    ("FilterDesign.derivative", lambda x: derive_causal_lde(FilterDesign(2, x, WEIGHT)),
     _integer(0, 2), True, False),
    ("FilterDesign.delay", lambda x: derive_causal_lde(FilterDesign(2, 1, WEIGHT, delay=x)),
     _finite_number, False, False),
    ("FilterDesign.delay, two-sided", lambda x: derive_noncausal_pair(
        FilterDesign(2, 1, WeightSpec(-0.5, causality=Causality.TWO_SIDED), delay=x)),
     lambda x: x == 0, True, False),
    ("FilterDesign.sample_period",
     lambda x: derive_causal_lde(FilterDesign(2, 1, WEIGHT, sample_period=x)), _period, False,
     False),
    ("orthonormal_basis.degree", lambda x: orthonormal_basis(x, WEIGHT), _integer(0, 6), True,
     False),
    ("synthesis_weights.derivative", lambda x: synthesis_weights(BASIS, x, 0.5), _integer(0),
     False, False),
    ("synthesis_weights.delay", lambda x: synthesis_weights(BASIS, 1, x), _finite_number, False, False),
    ("synthesis_weights.sample_period", lambda x: synthesis_weights(BASIS, 1, 0.5, x), _period,
     False, False),
    ("weight_moments.max_order", lambda x: weight_moments(WEIGHT, x), _integer(0), False, False),
    ("binomial_denominator.multiplicity",
     lambda x: (binomial_denominator(0.5, x), binomial_denominator(5e-324, x)), _integer(0),
     False, True),
    ("impulse_response_prefix.length",
     lambda x: impulse_response_prefix(FilterDesign(2, 1, WeightSpec(-0.5, 1)), x),
     _integer(5), True, True),
    ("closed_form_coefficients.pole",
     lambda x: [closed_form_coefficients(form, x) for form in ClosedForm], _pole, True, False),
    ("closed_form_coefficients.q",
     lambda x: [closed_form_coefficients(form, 0.5, x) for form in ClosedForm], _finite_number, False,
     False),
    ("closed_form_coefficients.sample_period",
     lambda x: [closed_form_coefficients(form, 0.5, 1.0, x) for form in ClosedForm], _period,
     False, False),
    ("optimal_q.pole", lambda x: [optimal_q(form, x) for form in CAUSAL_FORMS], _pole, True,
     False),
    ("flatness_report.max_order",
     lambda x: flatness_report(closed_form_coefficients(ClosedForm.SMOOTHER_K0, 0.5), x),
     _integer(1, 6), True, False),
    ("FlowConfig.spatial_sigma", lambda x: _flow(spatial_sigma=x), _sigma, False, False),
    ("FlowConfig.temporal_sigma", lambda x: _flow(temporal_sigma=x), _sigma, False, False),
    ("FlowConfig.temporal_q", lambda x: _flow(temporal_q=x),
     lambda x: 0.0 <= x <= FLOAT_MAX and float(x).is_integer(), False, False),
    ("FlowConfig.temporal_kappa", lambda x: _flow(temporal_kappa=x), _integer(0), False, False),
    ("FlowConfig.smoothing_pole", lambda x: _flow(smoothing_pole=x), _pole, False, False),
    ("FlowConfig.det_threshold", lambda x: _flow(det_threshold=x),
     lambda x: 0.0 <= x <= FLOAT_MAX, True, False),
    ("FlowConfig.t_space", lambda x: _flow(t_space=x), _period, False, False),
    ("FlowConfig.t_time", lambda x: _flow(t_time=x), _period, False, False),
    ("LdeCoefficients.sample_period",
     lambda x: LdeCoefficients(b=[0.5], a=[1.0, -0.5], sample_period=x), _period, True, False),
    ("translating_plaid.n_frames", lambda x: translating_plaid(x, 3, 4, (0.5, 0.25)),
     _integer(1), True, True),
    ("translating_plaid.height", lambda x: translating_plaid(2, x, 4, (0.5, 0.25)),
     _integer(1), True, True),
    ("translating_plaid.width", lambda x: translating_plaid(2, 3, x, (0.5, 0.25)),
     _integer(1), True, True),
]


def _check_scalar(run, rule, exact, x) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run(x)
            accepted = True
        except ValueError:
            accepted = False
    assert accepted <= rule(x), x
    if exact:
        assert accepted == rule(x), x


@pytest.mark.parametrize("run, rule, exact, size", [s[1:] for s in SCALARS],
                         ids=[s[0] for s in SCALARS])
def test_scalar_parameters_follow_their_rule(run, rule, exact, size):
    for x in SIZES if size else NUMBERS:
        _check_scalar(run, rule, exact, x)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
@pytest.mark.parametrize("run, rule, exact, size", [s[1:] for s in SCALARS],
                         ids=[s[0] for s in SCALARS])
def test_drawn_scalar_parameters_follow_their_rule(run, rule, exact, size, data):
    _check_scalar(run, rule, exact, data.draw(DRAWN_SIZES if size else DRAWN))


@pytest.mark.parametrize("run, message", [
    (lambda: closed_form_coefficients(ClosedForm.DIFFERENTIATOR_K0, 0.5, 0.0, 0.0),
     "sample_period must be finite and > 0, got 0.0"),
    (lambda: closed_form_coefficients(ClosedForm.DIFFERENTIATOR_NONCAUSAL, 0.5, 0.0, 0.0),
     "sample_period must be finite and > 0, got 0.0"),
    (lambda: closed_form_coefficients(ClosedForm.SMOOTHER_K0, 0.5, 1e200),
     "q must be finite with a finite square, got 1e+200"),
    (lambda: WeightSpec(-1.0, kappa=1.0), "kappa must be an integer >= 0, got 1.0"),
    (lambda: WeightSpec(-1.0, kappa=True), "kappa must be an integer >= 0, got True"),
    (lambda: WeightSpec(-1.0, kappa=math.inf), "kappa must be an integer >= 0, got inf"),
    (lambda: WeightSpec(-1.0, kappa=math.nan), "kappa must be an integer >= 0, got nan"),
    (lambda: WeightSpec(-(10**400)), f"sigma must be finite and < 0, got {-(10**400)}"),
    (lambda: FilterDesign(math.nan, 0, WEIGHT), "degree must be an integer in 0..6, got nan"),
    (lambda: FilterDesign(2.0, 0, WEIGHT), "degree must be an integer in 0..6, got 2.0"),
    (lambda: FilterDesign(2, 0.5, WEIGHT), "derivative order must be an integer in 0..2, got 0.5"),
    (lambda: FilterDesign(2, 0, WEIGHT, delay=10**400), f"delay must be finite, got {10**400}"),
    (lambda: synthesis_weights(BASIS, 1, 0.0, sample_period=math.inf),
     "sample_period must be finite and > 0, got inf"),
    (lambda: binomial_denominator(0.5, -1), "multiplicity must be an integer >= 0, got -1"),
    (lambda: impulse_response_prefix(FilterDesign(2, 0, WEIGHT), 2.5),
     "length must be an integer >= 4, got 2.5"),
    (lambda: FlowConfig(temporal_kappa=1.5), "temporal_kappa must be an integer >= 0, got 1.5"),
    (lambda: FlowConfig(temporal_kappa=True), "temporal_kappa must be an integer >= 0, got True"),
    (lambda: FlowConfig(t_time=0.0), "t_time must be finite and > 0, got 0.0"),
    (lambda: FlowConfig(smoothing_pole=1.0), "smoothing_pole must lie in (0, 1), got 1.0"),
    (lambda: FlowConfig(det_threshold=10**400),
     f"det_threshold must be finite and >= 0, got {10**400}"),
    (lambda: translating_plaid(2, 4, 0, (0.5, 0.25)), "width must be an integer >= 1, got 0"),
    (lambda: filter_causal(SMOOTHER, [1, 10**400]), "signal has a value beyond the float range"),
], ids=["closed-form-zero-period", "pair-zero-period", "closed-form-q-squared", "float-kappa",
        "bool-kappa", "inf-kappa", "nan-kappa", "int-sigma-beyond-float", "nan-degree",
        "float-degree", "float-derivative", "int-delay-beyond-float", "inf-period",
        "negative-multiplicity", "float-length", "float-temporal-kappa", "bool-temporal-kappa", "zero-frame-period",
        "smoothing-pole-one", "int-threshold-beyond-float", "empty-plaid",
        "int-sample-beyond-float"])
def test_scalar_rules_raise_value_error_naming_the_parameter(run, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()
