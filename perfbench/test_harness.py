"""Tests for the benchmark harness itself (not for fadefilt).

    python3 -m pytest -q perfbench
"""

import json
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

import common
import layers
import reference
import run
import spans
import workload_design
import workload_flow


# ------------------------------------------------------ tail percentile

def test_tail_with_few_samples_is_the_maximum():
    assert common.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    pct, value, n = common.tail_percentile(range(10))
    assert (pct, value, n) == (100.0, 9, 10)


def test_tail_leaves_exactly_ten_samples_above():
    xs = list(range(100))
    pct, value, n = common.tail_percentile(reversed(xs))
    assert n == 100
    assert pct == pytest.approx(90.0)
    assert value == 89
    assert sum(x > value for x in xs) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    pct, value, _ = common.tail_percentile([5.0] + [9.0] * 10)
    assert value == 5.0
    assert pct == pytest.approx(100.0 / 11)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        common.tail_percentile([])


# -------------------------------------------------------- failed_frac

@pytest.mark.parametrize("attempted, failed, expected",
                         [(1, 0, 0.0), (4, 1, 0.25), (432, 60, 60 / 432), (7, 7, 1.0)])
def test_failed_frac(attempted, failed, expected):
    assert common.failed_frac(attempted, failed) == expected


@pytest.mark.parametrize("attempted, failed", [(0, 0), (3, 4), (3, -1)])
def test_failed_frac_rejects_bad_counts(attempted, failed):
    with pytest.raises(ValueError):
        common.failed_frac(attempted, failed)


def test_tally_counts_failures_against_attempts():
    tally = common.Tally()
    for reason in (None, "flow_error", None, "flow_error", "non_finite"):
        tally.add(reason)
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.failures == {"flow_error": 2, "non_finite": 1}
    assert common.failed_frac(tally.attempted, tally.failed) == 0.6


# ----------------------------------------------------------- self time

def _span(name, start, end, parent=-1, **counters):
    return spans.Span(name, start, end, parent, counters)


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("op", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("op", 0.0, 10.0),
        _span("x", 1.0, 5.0, 0),
        _span("y", 3.0, 7.0, 0),
        _span("z", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_per_op_count_is_median_inside_plus_outside_share():
    tree = [
        _span("op", 0, 1), _span("zi", 0, 1, 0), _span("zi", 0, 1, 0),
        _span("op", 1, 2), _span("zi", 1, 2, 3),
        _span("op", 2, 3), _span("zi", 2, 3, 5),
        _span("zi", 3, 4),  # outside every op
    ]
    owner = spans.op_of(tree, lambda s: s.name == "op")
    ops = [0, 3, 5]
    assert spans.per_op_count(tree, "zi", owner, ops) == pytest.approx(1 + 1 / 3)


def test_layer_metrics_nest_stages_under_their_parent():
    tree = [
        _span("flow.process_sequence", 0.0, 10.0),
        _span("flow.products", 1.0, 6.0, 0),
        _span("runtime.separable", 2.0, 4.0, 1, bytes=64),
        _span("runtime.lfilter", 2.5, 3.5, 2),
        _span("runtime.frame_step", 4.0, 5.0, 1),
        _span("runtime.separable", 7.0, 8.0, 0, bytes=64),
        _span("flow.process_sequence", 10.0, 10.5, -1, stop=1),
    ]
    metrics, ops = layers.layer_metrics(tree, "flow.process_sequence")
    assert ops == 1
    assert metrics["runtime.separable.calls"] == 2
    assert metrics["runtime.separable.busy_s"] == pytest.approx(3.0)
    assert metrics["runtime.separable.bytes_computed"] == 128
    assert metrics["flow.spatial_smoothing.busy_s"] == pytest.approx(2.0)
    assert metrics["flow.temporal_smoothing.busy_s"] == pytest.approx(1.0)
    assert metrics["flow.products.self_s"] == pytest.approx(2.0)
    assert metrics["runtime.lfilter.calls"] == 1


# -------------------------------------------------------------- tracer

@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")

    def work(x):
        return helper(x) + 1

    def helper(x):
        return 2 * x

    def frames(n):
        for i in range(n):
            yield helper(i)

    core.work, core.helper, core.frames = work, helper, frames
    pkg.core = core
    pkg.work = work  # alias re-exported by the package
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.core", core)
    return pkg, core


def test_absent_name_is_recorded_not_raised(fake_package):
    tracer = spans.Tracer(alias_scope="fakepkg")
    assert tracer.wrap("fakepkg.core.removed", "layer.gone") is False
    assert tracer.wrap("fakepkg.nomodule.f", "layer.gone") is False
    assert tracer.wrap("nosuchpackage.f", "layer.gone") is False
    assert set(tracer.absent) == {"fakepkg.core.removed", "fakepkg.nomodule.f",
                                  "nosuchpackage.f"}
    assert tracer.spans == []


def test_absent_layers_need_every_target_missing():
    absent = {"fadefilt.design.derive_causal_lde": "gone"}
    assert "design.derive" not in layers.absent_layers(absent)
    absent["fadefilt.design.derive_noncausal_pair"] = "gone"
    assert "design.derive" in layers.absent_layers(absent)


def test_wrap_records_spans_rebinds_aliases_and_unwraps(fake_package):
    pkg, core = fake_package
    original = core.work
    tracer = spans.Tracer(alias_scope="fakepkg")
    assert tracer.wrap("fakepkg.core.work", "layer.work", lambda a, k, r: {"out": r})
    assert pkg.work is core.work is not original
    assert pkg.work(3) == 7
    assert [s.name for s in tracer.spans] == ["layer.work"]
    assert tracer.spans[0].counters == {"out": 7}
    with tracer.paused():
        core.work(1)
    assert len(tracer.spans) == 1
    tracer.unwrap_all()
    assert pkg.work is core.work is original


def test_generator_resumptions_are_spans_with_a_stop_marker(fake_package):
    _, core = fake_package
    tracer = spans.Tracer(alias_scope="fakepkg")
    tracer.wrap("fakepkg.core.frames", "layer.frames")
    with tracer.span("op"):
        assert list(core.frames(2)) == [0, 2]
    names = [s.name for s in tracer.spans]
    assert names == ["op", "layer.frames", "layer.frames", "layer.frames"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 0]
    assert tracer.spans[-1].counters == {"stop": 1}
    tracer.unwrap_all()


def test_dump_and_load_round_trip(tmp_path, fake_package):
    tracer = spans.Tracer(alias_scope="fakepkg")
    tracer.wrap("fakepkg.core.gone", "x")
    with tracer.span("op"):
        pass
    tracer.dump(tmp_path / "spans.jsonl")
    loaded, absent = spans.load(tmp_path / "spans.jsonl")
    assert [(s.name, s.parent) for s in loaded] == [("op", -1)]
    assert "fakepkg.core.gone" in absent


# --------------------------------------------------- host-speed reference

def _clock(nearest, samples):
    clock = reference.HostClock("scalar", nearest=nearest)
    for stamp, seconds in samples:
        clock.record(stamp, seconds)
    return clock


def test_speed_near_takes_the_median_of_the_nearest_samples():
    clock = _clock(3, [(1.0, 0.01), (2.0, 0.05), (3.0, 0.02), (4.0, 0.03), (5.0, 0.04)])
    assert clock.speed_near(3.5) == 0.03  # samples at 3, 4, 5
    assert clock.speed_near(0.0) == 0.02  # the first three
    assert clock.speed_near(9.0) == 0.03  # the last three


def test_bracketing_samples_normalize_one_operation():
    nominal = reference.NOMINAL["scalar"]
    clock = _clock(2, [(0.0, 2 * nominal), (10.0, 4 * nominal), (20.0, 2 * nominal)])
    # an operation between the samples at 10 and 20 ran on a host 3x slower than nominal
    assert clock.normalize(12.0, 6.0) == pytest.approx(2.0)
    assert clock.normalize(2.0, 6.0) == pytest.approx(2.0)


def test_speed_near_needs_samples():
    with pytest.raises(ValueError):
        reference.HostClock("scalar").speed_near(0.0)


def test_cli_invocation_time_excludes_and_is_scaled_by_its_reference(tmp_path):
    half_speed = 2 * reference.NOMINAL["small_image"]
    refs = [(float(t), half_speed) for t in range(0, 8, 2)]
    path = tmp_path / "times.json"
    path.write_text(json.dumps({"frames": [[1.0, 0.1], [3.0, 0.2]], "reference": refs}))
    raw, scaled, times = workload_flow.normalized_wall(1.0 + 4 * half_speed, path)
    assert raw == pytest.approx(1.0)
    assert scaled == pytest.approx(0.5)
    assert times == [half_speed] * 4


def test_timings_per_frame_and_steady_samples_only():
    record = {"stamps": [0.0, 1.0, 2.0], "durations": [4.0, 2.0, 3.0],
              "frames": [4, 2, 2], "steady": [False, True, True]}
    values, pct, n = run._timings(record, [d / 2 for d in record["durations"]])
    assert values["ops_per_s"] == pytest.approx(8 / 4.5)
    assert values["op_ms_p50"] == pytest.approx(1e3 * (0.5 + 0.75) / 2)
    assert (pct, n) == (100.0, 2)


# --------------------------------------------------------------- gates

def test_census_is_the_ill_conditioned_corner_of_the_grid():
    jobs, _, order = workload_design.make_grid(1)
    census = [j for j in jobs if not workload_design.timed(j)]
    assert len(jobs) == 432 and len(census) == 144
    assert all(j.degree >= 3 and j.pole >= 0.85 for j in census)
    assert {j.pole for j in jobs if workload_design.timed(j)} == set(workload_design.POLES)


class _Lde:
    def __init__(self, b, a):
        self.b, self.a = np.asarray(b, float), np.asarray(a, float)


def test_realized_gain_of_exact_filters():
    assert workload_design.realized_gain(_Lde([0.25, 0.5, 0.25], [1.0]), 0) == 1
    # first difference y[n] = x[n] - x[n-1] has unit slope
    assert workload_design.realized_gain(_Lde([1.0, -1.0], [1.0]), 1) == 1
    # run backwards in time the same difference has slope -1
    assert workload_design.realized_gain(_Lde([1.0, -1.0], [1.0]), 1, sign=-1) == -1
    gain = workload_design.realized_gain(_Lde([0.5], [1.0, -0.5]), 0)
    assert isinstance(gain, Fraction) and gain == 1


def test_frame_gate_accepts_truth_and_rejects_bad_flow():
    scene = workload_flow.Scene.from_seed(1, 96, 96, 40)
    gate = workload_flow.FrameGate(scene)
    vx = np.full((96, 96), scene.velocity[0])
    vy = np.full((96, 96), scene.velocity[1])
    cx, cy = scene.blob_center
    yy, xx = np.mgrid[0:96, 0:96]
    dj = np.where((xx - cx) ** 2 + (yy - cy) ** 2 <= 64, 10.0, 1.0)
    assert gate.check(0, True, vx, vy, dj) is None
    assert gate.check(0, False, vx * np.nan, vy, dj) is None  # not warmed up
    assert gate.check(0, True, vx * np.nan, vy, dj) == "non_finite"
    assert gate.check(0, True, 2 * vx, 2 * vy, dj) == "flow_error"
    assert gate.check(0, True, vx, vy, np.ones_like(dj)) == "disparity_ratio"
