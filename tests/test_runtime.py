import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadefilt.closed_form import ClosedForm, closed_form_coefficients
from fadefilt.design import (
    FilterDesign,
    LdeCoefficients,
    derive_causal_lde,
    derive_noncausal_pair,
)
from fadefilt.runtime import (
    Axis,
    FilterState,
    FrameFilter,
    Priming,
    _row_strips,
    filter_causal,
    filter_image_separable,
    filter_noncausal,
    filter_time_stack,
)
from fadefilt.weights import Causality, WeightSpec

SMOOTHER = closed_form_coefficients(ClosedForm.SMOOTHER_K0, math.exp(-0.5), 1.0)
DIFF = closed_form_coefficients(ClosedForm.DIFFERENTIATOR_K1, math.exp(-0.5), 2.0)
PAIR = closed_form_coefficients(ClosedForm.SMOOTHER_NONCAUSAL, math.exp(-1.0))


def _derived(degree, kappa):
    # order degree + kappa + 1, so B 0-6 and kappa 0-2 span orders 1-9
    weight = WeightSpec(math.log(0.6), kappa)
    return derive_causal_lde(FilterDesign(degree, degree % 3, weight, 1.5))


DERIVED = pytest.mark.parametrize(
    "degree, kappa",
    [(b, k) for b in range(7) for k in range(3)],
    ids=[f"B{b}-kappa{k}" for b in range(7) for k in range(3)],
)

# the same samples as Python floats, numpy float64 scalars and ints
INPUTS = {
    "float": lambda x: [float(v) for v in x],
    "float64": lambda x: list(x),
    "int": lambda x: [int(v) for v in np.round(10.0 * x)],
}


@DERIVED
@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_scalar_path_is_bitwise_identical_to_array_path(degree, kappa, kind):
    lde = _derived(degree, kappa)
    assert len(lde.a) - 1 == degree + kappa + 1
    x = INPUTS[kind](np.random.default_rng(3).standard_normal(128))
    state = FilterState(lde)
    scalar = np.array([state.step(v) for v in x])
    assert np.array_equal(scalar, filter_causal(lde, x, Priming.ZERO))


@DERIVED
def test_primed_scalar_path_is_bitwise_identical_to_hold_first(degree, kappa):
    lde = _derived(degree, kappa)
    x = np.random.default_rng(5).standard_normal(96) + 2.0
    state = FilterState(lde)
    state.prime_constant(x[0])
    scalar = np.array([state.step(v) for v in x])
    assert np.array_equal(scalar, filter_causal(lde, x, Priming.HOLD_FIRST))


# order 0 (a pure gain), then derived designs of orders 1-9
BY_ORDER = [LdeCoefficients(b=[2.0], a=[1.0])] + [
    _derived(min(n - 1, 6), max(n - 7, 0)) for n in range(1, 10)
]


def test_order_zero_state_is_a_gain():
    state = FilterState(LdeCoefficients(b=[2.0], a=[1.0]))
    assert state.step(1.5) == 3.0
    state.prime_constant(4.0)
    state.reset()
    assert state.delay_line.shape == (0,)
    assert state.step(-0.25) == -0.5


@pytest.mark.parametrize("lde", BY_ORDER, ids=[f"order{lde.order}" for lde in BY_ORDER])
@pytest.mark.parametrize("priming", list(Priming))
def test_mid_stream_reprime_is_bitwise_identical(lde, priming):
    x = (np.random.default_rng(7).standard_normal(160) + 1.0).tolist()
    head, tail = x[:70], x[70:]
    state = FilterState(lde)
    for v in head:
        state.step(v)
    if priming is Priming.HOLD_FIRST:
        state.prime_constant(tail[0])
    else:
        state.reset()
    got = np.array([state.step(v) for v in tail])
    assert np.array_equal(got, filter_causal(lde, tail, priming))


def test_delay_line_reads_as_float_array():
    state = FilterState(DIFF)
    assert state.delay_line.dtype == np.float64
    assert np.array_equal(state.delay_line, np.zeros(len(DIFF.a) - 1))
    state.prime_constant(0.25)
    assert np.array_equal(state.delay_line, DIFF.steady_state * 0.25)
    state.reset()
    assert not state.delay_line.any()


@pytest.mark.parametrize("priming", list(Priming))
def test_scalar_stream_through_time_stack_is_bitwise_identical(priming):
    x = np.random.default_rng(6).standard_normal(64)
    got = np.array(list(filter_time_stack(DIFF, x.tolist(), priming)))
    assert np.array_equal(got, filter_causal(DIFF, x, priming))


def test_frame_path_is_bitwise_identical_to_scalar_path():
    rng = np.random.default_rng(4)
    frames = rng.standard_normal((20, 3, 5))
    ff = FrameFilter(DIFF, (3, 5))
    frame_out = np.stack([ff.step(f) for f in frames])
    for i in range(3):
        for j in range(5):
            state = FilterState(DIFF)
            pixel = np.array([state.step(v) for v in frames[:, i, j]])
            assert np.array_equal(frame_out[:, i, j], pixel)


def _of_order(order):
    # the derived order-1 filter has b1 == 0 and never reads x after y
    if order == 0:
        lde = LdeCoefficients(b=[2.0], a=[1.0])
    elif order == 1:
        lde = LdeCoefficients(b=[0.3, 0.2], a=[1.0, -0.5])
    else:
        degree = min(order - 1, 6)
        lde = _derived(degree, order - 1 - degree)
    assert len(lde.a) - 1 == order
    return lde


@pytest.mark.parametrize("priming", list(Priming))
@pytest.mark.parametrize("order", range(10))
def test_frame_step_in_place_matches_separate_out(order, priming):
    lde = _of_order(order)
    frames = np.random.default_rng(order).standard_normal((12, 3, 5))
    hold = frames[0] if priming is Priming.HOLD_FIRST else None
    separate, in_place = FrameFilter(lde, (3, 5), hold=hold), FrameFilter(lde, (3, 5), hold=hold)
    out = np.empty((3, 5))
    for frame in frames:
        want = separate.step(frame, out=out)
        buffer = frame.copy()
        got = in_place.step(buffer, out=buffer)
        assert got is buffer
        assert want.tobytes() == got.tobytes()


@pytest.mark.parametrize("priming", list(Priming))
@pytest.mark.parametrize("order", [0, 1, 4, 11])
def test_step_down_the_rows_is_the_whole_pass_bitwise(order, priming):
    lde, hold = _of_order(order), priming is Priming.HOLD_FIRST
    image = np.random.default_rng(order).standard_normal((30, 7))
    # rows of 7 samples, and 0-d rows, which the step must still write in place
    for x in (image, image[:, 0]):
        want = lde._pass(x, 0, hold)
        # one-row blocks, as FrameFilter steps, and where the order allows,
        # blocks of 16 rows with a partial last one, as the flow's column pass
        for size in (1, 16) if order < 2 else (1,):
            # out apart, and in place as the column pass steps
            for in_place in (False, True):
                z = lde._held(x[0]) if hold else np.zeros((order,) + x.shape[1:])
                rows, t = x.copy(), np.empty((size,) + x.shape[1:])
                blocks = [rows[i: i + size] for i in range(0, len(rows), size)]
                got = np.concatenate([lde._step(z, block, block if in_place else None,
                                                t[: len(block)]) for block in blocks])
                assert got.tobytes() == want.tobytes()
    if order >= 2:
        with pytest.raises(ValueError, match="one-row block"):
            lde._step(np.zeros((order, 7)), image[:2], None, np.empty((2, 7)))


# several row strips each, the last one partial
STRIPPED_SHAPES = [(19, 2048), (40000,), (11, 5, 700)]


@pytest.mark.parametrize("shape", STRIPPED_SHAPES, ids=["19x2048", "40000", "11x5x700"])
@pytest.mark.parametrize("priming", list(Priming))
@pytest.mark.parametrize("order", [0, 1, 4, 9])
def test_frame_step_in_strips_matches_one_whole_array_step(order, priming, shape):
    rows, strips = _row_strips(shape[0], math.prod(shape[1:]))
    assert len(strips) >= 3 and shape[0] % rows
    lde = _of_order(order)
    frames = np.random.default_rng([order, len(shape)]).standard_normal((4,) + shape)
    if priming is Priming.HOLD_FIRST:
        hold = frames[0]
        z = lde._held(hold)
    else:
        hold, z = None, np.zeros((order,) + shape)
    stepped, in_place = FrameFilter(lde, shape, hold=hold), FrameFilter(lde, shape, hold=hold)
    for frame in frames:
        want = lde._step(z, frame[None], None, np.empty((1,) + shape))[0]
        assert stepped.step(frame).tobytes() == want.tobytes()
        buffer = frame.copy()
        assert in_place.step(buffer, out=buffer) is buffer
        assert buffer.tobytes() == want.tobytes()
    assert stepped.state.tobytes() == in_place.state.tobytes() == z.tobytes()


def test_priming_invariant_constant_input():
    # after priming with x0, the next output of a smoother is x0
    state = FilterState(SMOOTHER)
    state.prime_constant(0.37)
    assert state.step(0.37) == pytest.approx(0.37, abs=1e-9)
    # and a differentiator reports zero slope
    dstate = FilterState(DIFF)
    dstate.prime_constant(0.37)
    assert dstate.step(0.37) == pytest.approx(0.0, abs=1e-9)


def test_hold_priming_array_path():
    x = np.full(30, -2.5)
    y = filter_causal(SMOOTHER, x, Priming.HOLD_FIRST)
    assert np.allclose(y, -2.5, atol=1e-9)
    # zero priming instead shows the start-up transient
    y0 = filter_causal(SMOOTHER, x, Priming.ZERO)
    assert abs(y0[0] + 2.5) > 0.1


def test_steady_state_gain_shape():
    zi = SMOOTHER.steady_state
    assert zi.shape == (len(SMOOTHER.a) - 1,)


def test_reset():
    state = FilterState(SMOOTHER)
    state.step(1.0)
    state.reset()
    fresh = FilterState(SMOOTHER)
    assert state.step(0.5) == fresh.step(0.5)


def test_noncausal_smoother_is_zero_phase_on_symmetric_signal():
    n = 81
    t = np.arange(n, dtype=float)
    x = np.exp(-0.5 * ((t - 40.0) / 6.0) ** 2)
    y = filter_noncausal(PAIR, x)
    assert np.allclose(y[10:-10], y[::-1][10:-10], atol=1e-9)
    # peak stays centered
    assert np.argmax(y) == 40


def test_noncausal_preserves_constants():
    x = np.full(60, 0.8)
    y = filter_noncausal(PAIR, x, Priming.HOLD_FIRST)
    assert np.allclose(y, 0.8, atol=1e-9)


def test_image_axis_orientation():
    # an image constant along each row must be unchanged by filtering
    # along rows, and vice versa
    image = np.tile(np.linspace(0.0, 1.0, 24)[:, None], (1, 17))
    along_rows = filter_image_separable(PAIR, image, Axis.ROWS)
    assert np.allclose(along_rows, image, atol=1e-9)
    transposed = filter_image_separable(PAIR, image.T, Axis.COLS)
    assert np.allclose(transposed, image.T, atol=1e-9)
    changed = filter_image_separable(PAIR, image, Axis.COLS)
    assert not np.allclose(changed[1:-1], image[1:-1], atol=1e-3)


def test_image_rows_equals_per_row_signal_filtering():
    rng = np.random.default_rng(11)
    image = rng.standard_normal((6, 40))
    got = filter_image_separable(SMOOTHER, image, Axis.ROWS, Priming.ZERO)
    for i in range(6):
        row = filter_causal(SMOOTHER, image[i], Priming.ZERO)
        assert np.array_equal(got[i], row)


def test_time_stack_matches_frame_filter_and_is_lazy():
    rng = np.random.default_rng(12)
    frames = rng.standard_normal((15, 4, 4))
    gen = filter_time_stack(SMOOTHER, iter(frames), Priming.ZERO)
    assert hasattr(gen, "__next__")
    got = np.stack(list(gen))
    ff = FrameFilter(SMOOTHER, (4, 4))
    want = np.stack([ff.step(f) for f in frames])
    assert np.array_equal(got, want)


def test_time_stack_rejects_pairs():
    frames = np.zeros((5, 2, 2))
    with pytest.raises(ValueError):
        list(filter_time_stack(PAIR, frames))
    mis_shaped = list(frames)
    mis_shaped[3] = np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"frame 3 has shape \(2, 3\).*\(2, 2\)"):
        list(filter_time_stack(SMOOTHER, mis_shaped))


@pytest.mark.parametrize("run, filt, expected", [
    (lambda f: filter_causal(f, np.zeros(8)), PAIR, "a causal filter"),
    (lambda f: filter_noncausal(f, np.zeros(8)), SMOOTHER, "a two-sided pair"),
    (FilterState, PAIR, "a causal filter"),
    (lambda f: FrameFilter(f, (2, 2)), PAIR, "a causal filter"),
    (lambda f: next(filter_time_stack(f, np.zeros((3, 2, 2)))), PAIR, "a causal filter"),
], ids=["filter_causal", "filter_noncausal", "FilterState", "FrameFilter", "filter_time_stack"])
def test_a_filter_of_the_wrong_kind_is_a_value_error(run, filt, expected):
    with pytest.raises(ValueError, match=f"needs {expected}, got"):
        run(filt)


@pytest.mark.parametrize("priming", list(Priming))
def test_time_stack_runs_a_pure_gain(priming):
    gain = LdeCoefficients(b=[2.0], a=[1.0])
    frames = np.random.default_rng(13).standard_normal((3, 2, 2))
    got = np.stack(list(filter_time_stack(gain, frames, priming)))
    assert np.array_equal(got, 2.0 * frames)


def test_time_stack_hold_priming_uses_first_frame():
    frames = np.full((12, 3, 3), 1.7)
    got = np.stack(list(filter_time_stack(SMOOTHER, frames, Priming.HOLD_FIRST)))
    assert np.allclose(got, 1.7, atol=1e-9)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    a1=st.floats(min_value=-3.0, max_value=-0.1),
    a2=st.floats(min_value=0.1, max_value=3.0),
)
def test_linearity_property(seed, a1, a2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    lhs = filter_causal(DIFF, a1 * x + a2 * y, Priming.ZERO)
    rhs = a1 * filter_causal(DIFF, x, Priming.ZERO) + a2 * filter_causal(DIFF, y, Priming.ZERO)
    assert np.allclose(lhs, rhs, atol=1e-9 * max(1.0, abs(a1) + abs(a2)))


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    shift=st.integers(min_value=1, max_value=20),
)
def test_shift_invariance_property(seed, shift):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(80)
    padded = np.concatenate([np.zeros(shift), x])
    assert np.array_equal(
        filter_causal(SMOOTHER, padded, Priming.ZERO)[shift:],
        filter_causal(SMOOTHER, x, Priming.ZERO),
    )


def test_two_sided_design_runtime_round_trip():
    # derived pair through the runtime reproduces a delayed quadratic
    design = FilterDesign(2, 1, WeightSpec(-1.0, causality=Causality.TWO_SIDED))
    pair = derive_noncausal_pair(design)
    t = np.arange(120, dtype=float)
    x = 0.1 * t**2 - 2.0 * t + 5.0
    y = filter_noncausal(pair, x, Priming.ZERO)
    want = 0.2 * t - 2.0
    assert np.allclose(y[30:-30], want[30:-30], atol=1e-7)


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (3,), (1, 2, 2)])
@pytest.mark.parametrize("axis", list(Axis))
def test_image_that_is_not_a_non_empty_plane_is_rejected_naming_its_shape(shape, axis):
    message = re.escape(f"image has shape {shape}, but must be 2-D with no empty axis")
    with pytest.raises(ValueError, match=f"^{message}$"):
        filter_image_separable(PAIR, np.ones(shape), axis)


def test_frame_filter_rejects_a_hold_of_another_shape():
    with pytest.raises(ValueError, match=r"^hold has shape \(4, 3\), but must have shape \(3, 4\)$"):
        FrameFilter(SMOOTHER, (3, 4), hold=np.ones((4, 3)))


def test_frame_filter_step_rejects_a_frame_of_another_shape():
    ff = FrameFilter(SMOOTHER, (3, 4))
    with pytest.raises(ValueError, match=r"^frame has shape \(4, 3\), but must have shape \(3, 4\)$"):
        ff.step(np.ones((4, 3)))


@pytest.mark.parametrize("axis", list(Axis))
def test_image_separable_causal_filter_writes_into_out(axis):
    img = np.random.default_rng(8).standard_normal((6, 7))
    out = np.full_like(img, np.nan)
    assert filter_image_separable(DIFF, img, axis, out=out) is out
    assert np.array_equal(out, filter_image_separable(DIFF, img, axis))


@st.composite
def _foreign_halves(draw):
    """A stable monic half of order 0-6 whose b and a differ in length,
    as a coefficient file may give them: a from real poles and complex
    pairs of modulus <= 0.95, b of another length."""
    a = np.ones(1)
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.floats(0.0, 0.95))
        theta = draw(st.floats(0.0, math.pi))
        pair = draw(st.booleans()) and len(a) < 6
        factor = [1.0, -2.0 * r * math.cos(theta), r * r] if pair else [1.0, -r * math.cos(theta)]
        a = np.convolve(a, factor)
    size = draw(st.sampled_from([n for n in range(1, 8) if n != len(a)]))
    b = draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size))
    return LdeCoefficients(b=b, a=a)


@settings(deadline=None, max_examples=60)
@given(lde=_foreign_halves(), seed=st.integers(0, 2**31 - 1), priming=st.sampled_from(Priming))
def test_every_path_of_a_foreign_half_is_bitwise_identical(lde, seed, priming):
    x = np.random.default_rng(seed).standard_normal(40) + 1.0
    want = filter_causal(lde, x, priming)
    hold = priming is Priming.HOLD_FIRST
    state = FilterState(lde)
    if hold:
        state.prime_constant(x[0])
    stepped = np.array([state.step(v) for v in x.tolist()])
    ff = FrameFilter(lde, (1,), hold=x[:1] if hold else None)
    frames = np.stack([ff.step(frame) for frame in x[:, None]])[:, 0]
    rows = filter_image_separable(lde, np.stack([x, x[::-1]]), Axis.ROWS, priming)
    assert np.array_equal(stepped, want)
    assert np.array_equal(frames, want)
    assert np.array_equal(rows[0], want)
    assert np.array_equal(rows[1], filter_causal(lde, x[::-1], priming))
