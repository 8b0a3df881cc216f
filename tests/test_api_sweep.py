"""Input sweep of the library's public entry points.

Hypothesis draws arrays of 0 to 3 axes with 0 to 3 entries each (and,
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
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadefilt import (
    Axis,
    ClosedForm,
    FilterState,
    FlowConfig,
    FlowField,
    FrameFilter,
    LdeCoefficients,
    Priming,
    background_disparity,
    closed_form_coefficients,
    evaluate_response,
    filter_causal,
    filter_image_separable,
    filter_noncausal,
    filter_time_stack,
    frequency_response,
    group_delay,
    process_sequence,
    solve_flow,
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
