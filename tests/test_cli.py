"""End-to-end exercises of the command-line entry point.

Each test drives fadefilt.cli.main(argv) in-process and checks exit
codes, emitted files, and stream output.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import re
import warnings
import weakref

import numpy as np
import pytest

import fadefilt.cli
from fadefilt.cli import main
from fadefilt.design import LdeCoefficients
from fadefilt.fileio import (
    PgmDirReader,
    read_coefficients_json,
    read_float_stack,
    read_pgm,
    read_signal_csv,
    write_float_stack,
    write_pgm,
    write_signal_csv,
)
from fadefilt.flow import FlowConfig, process_sequence
from fadefilt.response import evaluate_response, flatness_report, write_response_csv
from fadefilt.runtime import Axis, Priming, filter_image_separable, filter_time_stack
from fadefilt.synthetic import translating_plaid

BINOMIAL_HALF = [1.0, -1.5, 0.75, -0.125]


def design_file(tmp_path, name="coeff.json", *extra):
    path = tmp_path / name
    argv = ["design", "--B", "2", "--pole", "0.5", "--out", str(path)]
    argv.extend(extra)
    assert main(argv) == 0
    return path


# ---------------------------------------------------------------- design

def test_design_json_document(tmp_path):
    path = design_file(tmp_path, "s.json", "--q", "2.5")
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["T", "a", "b", "design"]
    assert doc["a"] == BINOMIAL_HALF
    assert doc["design"] == {
        "B": 2, "D": 0, "kappa": 0, "sigma": np.log(0.5),
        "q": 2.5, "causality": "causal",
    }
    filt, info = read_coefficients_json(path)
    assert isinstance(filt, LdeCoefficients)
    assert list(filt.a) == BINOMIAL_HALF
    assert info["q"] == 2.5
    # unit DC gain for a smoother
    assert np.isclose(sum(doc["b"]) / sum(doc["a"]), 1.0, atol=1e-12)


def test_design_csv_rows(capsys):
    assert main(["design", "--B", "2", "--pole", "0.5", "--format", "csv"]) == 0
    rows = [line.split(",") for line in
            capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 2
    assert all(len(r) == 4 for r in rows)
    assert [float(v) for v in rows[1]] == BINOMIAL_HALF


def test_design_auto_q(capsys):
    assert main(["design", "--B", "2", "--sigma", "-0.5", "--q", "auto"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["design"]["q"] - 2.124040237) < 1e-6


def test_design_auto_q_unsupported(capsys):
    code = main(["design", "--B", "3", "--sigma", "-0.5", "--q", "auto"])
    assert code == 3
    assert "explicit --q" in capsys.readouterr().err


def test_design_flag_validation(capsys):
    # exactly one of --sigma / --pole
    assert main(["design", "--B", "2", "--sigma", "-1", "--pole", "0.5"]) == 2
    assert main(["design", "--B", "2"]) == 2
    assert main(["design", "--B", "2", "--pole", "1.5"]) == 2
    assert main(["design", "--pole", "0.5"]) == 2
    assert main(["design", "--B", "2", "--pole", "0.5", "--q", "fast"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--q", "inf"], ["--q", "nan"], ["--T", "nan"], ["--T", "inf"]])
def test_design_rejects_non_finite_values(capsys, flag):
    argv = ["design", "--B", "2", "--pole", "0.5", "--format", "csv"] + flag
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_design_table_without_a_closed_form_exits_2(capsys):
    assert main(["design", "--B", "2", "--pole", "0.5", "--kappa", "2", "--source", "table"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no tabulated closed form for causality=causal, "
                            "kappa=2, derivative=0\n")


def test_design_noncausal_pair(capsys):
    code = main(["design", "--B", "2", "--D", "1", "--pole", "0.5",
                 "--causality", "noncausal"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "forward" in doc and "backward" in doc
    assert main(["design", "--B", "2", "--pole", "0.5",
                 "--causality", "noncausal", "--q", "1"]) == 2
    assert capsys.readouterr().err == "error: two-sided designs require delay == 0\n"


def test_design_both_compare(capsys):
    assert main(["design", "--B", "2", "--D", "1", "--pole", "0.5",
                 "--source", "both-compare"]) == 0
    assert "coefficient discrepancy" in capsys.readouterr().err
    assert main(["design", "--B", "2", "--D", "1", "--pole", "0.5",
                 "--causality", "noncausal", "--source", "both-compare"]) == 0
    assert "response discrepancy" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["design", "--B", "2", "--pole", "0.5", "--frobnicate"])
    assert exc.value.code == 2


# -------------------------------------------------------------- response

def test_response_csv_file(tmp_path):
    coeff = design_file(tmp_path)
    out = tmp_path / "resp.csv"
    assert main(["response", "--coeff", str(coeff), "--points", "8",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "omega,magnitude_db,phase_rad,group_delay"
    data = [line for line in lines[1:] if not line.startswith("#")]
    assert len(data) == 8
    first = [float(v) for v in data[0].split(",")]
    assert first[0] == 0.0 and abs(first[1]) < 1e-9


def test_response_flatness_comments(tmp_path, capsys):
    coeff = design_file(tmp_path)
    assert main(["response", "--coeff", str(coeff), "--points", "4",
                 "--report-flatness"]) == 0
    out = capsys.readouterr().out
    assert "# flatness order 1:" in out


def test_response_flag_validation(tmp_path, capsys):
    coeff = design_file(tmp_path)
    assert main(["response", "--coeff", str(coeff), "--B", "2",
                 "--pole", "0.5"]) == 2
    assert main(["response"]) == 2
    assert main(["response", "--coeff", str(coeff), "--points", "1"]) == 2
    assert main(["response", "--coeff", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_response_group_delay_at_a_differentiator_zero_is_the_design_delay(capsys):
    # omega = 0 is a zero of this differentiator's response; its delay
    # there once read -6.06e11
    q = 3.91556
    assert main(["response", "--B", "4", "--D", "1", "--kappa", "2", "--pole", "0.7",
                 "--q", str(q), "--points", "5"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    omega, _, _, delay = (float(v) for v in rows[0].split(","))
    assert omega == 0.0
    assert abs(delay - q) <= 1e-4


@pytest.mark.parametrize("flatness", [False, True], ids=["plain", "flatness"])
@pytest.mark.parametrize("design_args", [
    ["--q", "2.5"],
    ["--D", "1", "--causality", "noncausal"],
], ids=["causal-smoother", "two-sided-differentiator"])
def test_response_bytes_match_the_library(tmp_path, design_args, flatness):
    coeff = design_file(tmp_path, "coeff.json", *design_args)
    out = tmp_path / "resp.csv"
    argv = ["response", "--coeff", str(coeff), "--points", "33", "--out", str(out)]
    assert main(argv + (["--report-flatness"] if flatness else [])) == 0
    filt, _ = read_coefficients_json(coeff)
    expected = tmp_path / "expected.csv"
    write_response_csv(evaluate_response(filt, np.linspace(0.0, np.pi, 33)),
                       expected, flatness_report(filt) if flatness else None)
    assert out.read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------- filter

def test_filter_csv_constant(tmp_path):
    coeff = design_file(tmp_path)
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    write_signal_csv(src, np.full(40, 3.25))
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(dst)]) == 0
    assert np.allclose(read_signal_csv(dst), 3.25, atol=1e-9)
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(dst), "--axis", "rows"]) == 2
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(tmp_path / "out.pgm")]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_filter_csv_rejects_non_finite_samples(tmp_path, capsys, bad):
    coeff = design_file(tmp_path)
    src = tmp_path / "in.csv"
    src.write_text(f"1.0\n2.0\n{bad}\n3.0\n")
    dst = tmp_path / "out.csv"
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(dst)]) == 2
    assert "line 3 has a non-finite sample" in capsys.readouterr().err
    assert not dst.exists()


def test_filter_csv_sample_that_is_not_a_number_names_its_file_and_line(tmp_path, capsys):
    coeff = design_file(tmp_path)
    src = tmp_path / "in.csv"
    src.write_text("1.0\n2,5\n")
    dst = tmp_path / "out.csv"
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(dst)]) == 2
    assert capsys.readouterr().err == f"error: {src}: line 2 is not a number: '2,5'\n"
    assert not dst.exists()


def test_filter_pgm_rows(tmp_path):
    coeff = design_file(tmp_path)
    src = tmp_path / "in.pgm"
    dst = tmp_path / "out.pgm"
    write_pgm(src, np.full((12, 16), 0.5))
    level = read_pgm(src)[0, 0]
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(dst), "--axis", "rows"]) == 0
    assert np.allclose(read_pgm(dst), level, atol=1.0 / 255.0)
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(dst), "--axis", "time"]) == 2


def test_filter_pgm_to_f32_and_bad_output_extension(tmp_path, capsys):
    coeff = design_file(tmp_path)
    src = tmp_path / "in.pgm"
    write_pgm(src, np.random.default_rng(4).random((5, 6)))
    dst = tmp_path / "out.f32"
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(dst), "--axis", "cols"]) == 0
    filt, _ = read_coefficients_json(coeff)
    expected = filter_image_separable(filt, read_pgm(src), Axis.COLS, Priming.HOLD_FIRST)
    assert dst.read_bytes() == expected[None].astype("<f4").tobytes()
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(tmp_path / "out.csv"), "--axis", "rows"]) == 2
    assert capsys.readouterr().err == "error: image outputs must be .pgm or .f32, got 'out.csv'\n"
    assert not (tmp_path / "out.csv").exists()


def test_filter_f32_time_stack(tmp_path):
    coeff = design_file(tmp_path)
    src = tmp_path / "in.f32"
    dst = tmp_path / "out.f32"
    write_float_stack(src, np.full((8, 6, 5), 3.0))
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(dst)]) == 0
    out = read_float_stack(dst)
    assert out.shape == (8, 6, 5)
    assert np.allclose(out, 3.0, atol=1e-5)
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(tmp_path / "out.csv")]) == 2


def test_filter_f32_time_stack_pure_gain(tmp_path):
    coeff = tmp_path / "gain.json"
    coeff.write_text(json.dumps({"b": [2.0], "a": [1.0]}))
    src = tmp_path / "in.f32"
    dst = tmp_path / "out.f32"
    frames = np.random.default_rng(5).standard_normal((4, 3, 2)).astype("<f4")
    write_float_stack(src, frames)
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(dst), "--axis", "time"]) == 0
    assert np.array_equal(read_float_stack(dst), 2.0 * read_float_stack(src))


@pytest.mark.parametrize("axis", ["time", "rows"])
def test_filter_f32_stack_bytes(tmp_path, axis):
    coeff = design_file(tmp_path)
    src = tmp_path / "in.f32"
    dst = tmp_path / "out.f32"
    write_float_stack(src, np.random.default_rng(3).standard_normal((7, 5, 6)))
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(dst), "--axis", axis]) == 0
    filt, _ = read_coefficients_json(coeff)
    frames = read_float_stack(src)
    if axis == "time":
        planes = list(filter_time_stack(filt, frames, Priming.HOLD_FIRST))
    else:
        planes = [filter_image_separable(filt, f, Axis.ROWS, Priming.HOLD_FIRST)
                  for f in frames]
    assert dst.read_bytes() == np.stack(planes).astype("<f4").tobytes()
    assert json.loads((tmp_path / "out.f32.json").read_text()) == {
        "frames": 7, "height": 5, "width": 6}


def test_filter_mode_checks(tmp_path, capsys):
    causal = design_file(tmp_path, "c.json")
    pair = tmp_path / "p.json"
    assert main(["design", "--B", "2", "--D", "1", "--pole", "0.5",
                 "--causality", "noncausal", "--out", str(pair)]) == 0
    src = tmp_path / "in.csv"
    write_signal_csv(src, np.arange(30.0))
    common = ["--input", str(src), "--out", str(tmp_path / "out.csv")]
    assert main(["filter", "--coeff", str(causal), "--mode", "noncausal",
                 *common]) == 2
    assert main(["filter", "--coeff", str(pair), "--mode", "causal",
                 *common]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --mode noncausal needs a two-sided pair, got a causal filter",
        "error: --mode causal needs a causal filter, got a two-sided pair"]
    # pairs run backward passes, so a frame stream cannot host one
    stack = tmp_path / "in.f32"
    write_float_stack(stack, np.zeros((6, 4, 4)))
    assert main(["filter", "--coeff", str(pair), "--input", str(stack),
                 "--out", str(tmp_path / "out.f32")]) == 2


def test_filter_rejects_a_pair_along_time_without_leaving_files(tmp_path, capsys):
    pair = tmp_path / "pair.json"
    assert main(["design", "--B", "2", "--pole", "0.5", "--causality", "noncausal",
                 "--out", str(pair)]) == 0
    stack = tmp_path / "x.f32"
    write_float_stack(stack, np.zeros((6, 4, 4)))
    out = tmp_path / "y.f32"
    capsys.readouterr()
    assert main(["filter", "--coeff", str(pair), "--input", str(stack), "--out", str(out),
                 "--axis", "time"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "causal" in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.json", "x.f32", "x.f32.json"]


NON_FINITE_COEFFICIENTS = {
    "b": '{"b": [NaN, 0.5], "a": [1.0, -0.5]}',
    "a": '{"b": [0.5, 0.5], "a": [1.0, NaN]}',
    "sample_period": '{"b": [0.5], "a": [1.0, -0.5], "T": Infinity}',
}


@pytest.mark.parametrize("field", sorted(NON_FINITE_COEFFICIENTS))
@pytest.mark.parametrize("command", ["filter", "response"])
def test_non_finite_coefficients_exit_2_naming_file_and_field(tmp_path, capsys, command, field):
    coeff = tmp_path / "c.json"
    coeff.write_text(NON_FINITE_COEFFICIENTS[field])
    signal = tmp_path / "x.csv"
    write_signal_csv(signal, np.arange(8.0))
    out = tmp_path / "y.csv"
    argv = ["filter", "--coeff", str(coeff), "--input", str(signal), "--out", str(out)]
    if command == "response":
        argv = ["response", "--coeff", str(coeff), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: invalid coefficient file {coeff}: ")
    assert f"{field} must be finite" in err[0]
    assert not out.exists()


# ------------------------------------------------------------------ flow

def test_flow_run_and_manifest(tmp_path):
    frames = translating_plaid(20, 48, 48, velocity=(0.5, -0.25))
    src = tmp_path / "frames.f32"
    write_float_stack(src, frames)
    out = tmp_path / "run"
    assert main(["flow", "--frames", str(src), "--out", str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["frames_in"] == 20
    assert manifest["frames_out"] == 16
    assert manifest["warmup_frames"] == 14
    assert manifest["height"] == 48 and manifest["width"] == 48
    assert manifest["config"] == dataclasses.asdict(FlowConfig())

    vx = read_float_stack(out / "vx.f32")
    vy = read_float_stack(out / "vy.f32")
    dj = read_float_stack(out / "dj.f32")
    assert vx.shape == vy.shape == dj.shape == (16, 48, 48)
    previews = sorted(out.glob("dj_*.pgm"))
    assert len(previews) == 16
    assert previews[0].name == "dj_0000.pgm"
    # orientation check only: a swapped plane would be off by ~0.75
    interior = (slice(16, -16), slice(16, -16))
    assert abs(np.median(vx[-1][interior]) - 0.5) < 0.1
    assert abs(np.median(vy[-1][interior]) + 0.25) < 0.1


def test_flow_short_stream_and_strict(tmp_path, capsys):
    frames = np.zeros((4, 8, 8)) + 0.5
    src = tmp_path / "frames.f32"
    write_float_stack(src, frames)
    out = tmp_path / "run"
    assert main(["flow", "--frames", str(src), "--out", str(out),
                 "--strict"]) == 4
    assert main(["flow", "--frames", str(src), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["frames_out"] == 0
    assert read_float_stack(out / "dj.f32").shape == (0, 8, 8)
    capsys.readouterr()


def test_flow_that_writes_no_frames_says_so_on_stderr(tmp_path, capsys):
    src = tmp_path / "frames.f32"
    write_float_stack(src, translating_plaid(3, 16, 16, velocity=(0.5, -0.25)))
    out = tmp_path / "run"
    assert main(["flow", "--frames", str(src), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["frames_out"] == 0
    assert capsys.readouterr().err == (
        "warning: no frames written: the stream has 3 frames, and a delay of 4 frames "
        "needs 5 for the first result\n")
    assert main(["flow", "--frames", str(src), "--out", str(out), "--strict"]) == 4
    assert capsys.readouterr().err.startswith("error: stream of 3 frames")
    # one frame out: nothing to say
    assert main(["flow", "--frames", str(src), "--out", str(out), "--temporal-q", "2"]) == 0
    assert capsys.readouterr().err == ""


def test_flow_pgm_directory_input(tmp_path):
    fdir = tmp_path / "frames"
    fdir.mkdir()
    for n in range(4):
        write_pgm(fdir / f"frame_{n:02d}.pgm", np.full((8, 8), 0.5))
    out = tmp_path / "run"
    assert main(["flow", "--frames", str(fdir), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["frames_in"] == 4
    assert main(["flow", "--frames", str(tmp_path / "nope.csv"),
                 "--out", str(out)]) == 2


@pytest.mark.parametrize("flag", [["--det-threshold", "nan"], ["--t-space", "inf"],
                                  ["--t-time", "nan"]])
def test_flow_rejects_non_finite_settings(tmp_path, capsys, flag):
    src = tmp_path / "frames.f32"
    write_float_stack(src, np.full((6, 8, 8), 0.5))
    out = tmp_path / "run"
    assert main(["flow", "--frames", str(src), "--out", str(out)] + flag) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["spatial_sigma", "temporal_sigma"])
@pytest.mark.parametrize("bad", ["-inf", "nan"])
def test_flow_rejects_non_finite_sigmas(tmp_path, capsys, name, bad):
    src = tmp_path / "frames.f32"
    write_float_stack(src, np.full((6, 8, 8), 0.5))
    out = tmp_path / "run"
    flag = f"--{name.replace('_', '-')}={bad}"
    assert main(["flow", "--frames", str(src), "--out", str(out), flag]) == 2
    assert f"{name} must be finite and < 0, got {bad}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["--spatial-sigma", "--temporal-sigma"])
def test_flow_spaced_minus_inf_sigma_exits_2(tmp_path, capsys, name):
    # a bare "-inf" after the flag is its value and reaches FlowConfig
    src = tmp_path / "frames.f32"
    write_float_stack(src, np.full((6, 8, 8), 0.5))
    out = tmp_path / "run"
    assert main(["flow", "--frames", str(src), "--out", str(out), name, "-inf"]) == 2
    field = name[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {field} must be finite and < 0, got -inf\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["design", "--B", "2", "--sigma=-1e-17"],
     "sigma is too close to 0: its pole exp(sigma) rounds to 1, got -1e-17"),
    (["response", "--B", "2", "--sigma=-1e-300"],
     "sigma is too close to 0: its pole exp(sigma) rounds to 1, got -1e-300"),
    (["flow", "--temporal-sigma=-1e-300"],
     "temporal_sigma is too close to 0: its pole exp(temporal_sigma) rounds to 1, got -1e-300"),
    (["flow", "--spatial-sigma=-1e-300"],
     "spatial_sigma is too close to 0: its pole exp(spatial_sigma) rounds to 1, got -1e-300"),
    (["design", "--B", "0", "--sigma=-1e300"],
     "sigma is too far below 0: its pole exp(sigma) underflows to 0, got -1e+300"),
    (["flow", "--temporal-sigma=-1e300"], "temporal_sigma is too far below 0: "
     "its pole exp(temporal_sigma) underflows to 0, got -1e+300"),
    (["flow", "--spatial-sigma=-1e300"], "spatial_sigma is too far below 0: "
     "its pole exp(spatial_sigma) underflows to 0, got -1e+300"),
], ids=["design", "response", "flow-temporal", "flow-spatial",
        "design-underflow", "flow-temporal-underflow", "flow-spatial-underflow"])
def test_sigma_whose_pole_rounds_to_one_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    if argv[0] == "flow":
        src = tmp_path / "frames.f32"
        write_float_stack(src, np.full((6, 8, 8), 0.5))
        argv = argv + ["--frames", str(src), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("q", ["1e12", "1e300"])
def test_flow_with_a_delay_longer_than_the_stream_writes_empty_stacks(tmp_path, q):
    src = tmp_path / "frames.f32"
    write_float_stack(src, translating_plaid(10, 16, 16, velocity=(0.5, 0.0)))
    out = tmp_path / "run"
    assert main(["flow", "--frames", str(src), "--out", str(out), "--temporal-q", q]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["frames_in"] == 10 and manifest["frames_out"] == 0
    assert manifest["config"]["temporal_q"] == float(q)
    for name in ("vx", "vy", "dj"):
        assert read_float_stack(out / f"{name}.f32").shape == (0, 16, 16)


@pytest.mark.parametrize("points", [10**15, 2**63 - 1, 2**64])
def test_response_grid_too_large_to_allocate_exits_2(capsys, points):
    # every size here is refused before any memory is touched
    argv = ["response", "--B", "2", "--pole", "0.5", "--points", str(points)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["--B", str(2**31)], "degree must be an integer in 0..6, got 2147483648"),
    (["--B", "2", "--kappa", str(2**31)],
     "(1 - p z^-1)**2147483651 has binomial coefficients beyond the float range"),
    (["--B", "2", "--D", "2", "--T", "1e-300"], "(-1/T)**D overflows at T=1e-300, D=2"),
    (["--B", "2", "--kappa", "1000"],
     "moment order 1004 exceeds 170: its r! terms overflow a float"),
], ids=["degree", "kappa", "sample-period", "moment-order"])
def test_design_overflowing_a_float_exits_2(capsys, argv, message):
    assert main(["design", "--sigma", "-0.5", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_flow_flags_are_the_flow_config_fields(capsys):
    with pytest.raises(SystemExit):
        main(["flow", "--help"])
    listed = re.findall(r"^  (--[a-z-]+) ([A-Z_]+)", capsys.readouterr().out, re.MULTILINE)
    assert listed[2:] == [
        ("--spatial-sigma", "SPATIAL_SIGMA"), ("--temporal-sigma", "TEMPORAL_SIGMA"),
        ("--temporal-q", "TEMPORAL_Q"), ("--temporal-kappa", "TEMPORAL_KAPPA"),
        ("--smoothing-pole", "SMOOTHING_POLE"), ("--det-threshold", "DET_THRESHOLD"),
        ("--t-space", "T_SPACE"), ("--t-time", "T_TIME"),
    ]
    parser = fadefilt.cli._build_parser()
    args = vars(parser.parse_args(["flow", "--frames", "f", "--out", "o"]))
    assert {f.name: args[f.name] for f in dataclasses.fields(FlowConfig)} == {
        "spatial_sigma": -1.0, "temporal_sigma": -1.0, "temporal_q": 4.0, "temporal_kappa": 1,
        "smoothing_pole": math.exp(-1.0 / 16.0), "det_threshold": 1e-6, "t_space": 1.0,
        "t_time": 1.0,
    }
    kappa = parser.parse_args(["flow", "--frames", "f", "--out", "o", "--temporal-kappa", "2"])
    assert type(kappa.temporal_kappa) is int and type(args["temporal_q"]) is float


@pytest.mark.parametrize("value", ["-1e-1", "-1E-1", "-.1", "-0.1"])
def test_design_reads_negative_values_after_a_space(capsys, value):
    assert main(["design", "--B", "2", "--sigma", value, "--format", "csv"]) == 0
    spaced = capsys.readouterr().out
    assert main(["design", "--B", "2", "--sigma=-0.1", "--format", "csv"]) == 0
    assert spaced == capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["design", "--B", "2", "--sigma", "-inf"], "error: sigma must be finite and < 0, got -inf"),
    (["design", "--B", "2", "--sigma", "-nan"], "error: sigma must be finite and < 0, got nan"),
    (["design", "--B", "2", "--pole", "-1e-3"], "error: --pole must lie in (0, 1), got -0.001"),
    (["design", "--B", "2", "--pole", "0.5", "--T", "-1e-3"],
     "error: sample_period must be finite and > 0, got -0.001"),
])
def test_negative_values_after_a_space_reach_their_validation(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize("argv", [
    ["design", "--B", "2", "--sigma", "-1x"],
    ["response", "--B", "2", "--sigma", "-0.5", "--points", "-1e2"],
    ["response", "--B", "2", "--sigma", "-0.5", "--report-flatness", "-1"],
])
def test_bad_negative_values_stay_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("q", ["-2", "4.5"])
def test_flow_rejects_temporal_q_off_the_frame_grid(tmp_path, capsys, q):
    src = tmp_path / "frames.f32"
    write_float_stack(src, np.full((6, 8, 8), 0.5))
    out = tmp_path / "run"
    assert main(["flow", "--frames", str(src), "--out", str(out),
                 "--temporal-q", q]) == 2
    assert "temporal_q must be a whole number of frames" in capsys.readouterr().err
    assert not out.exists()


def test_flow_rejects_bad_sidecar(tmp_path, capsys):
    src = tmp_path / "frames.f32"
    src.write_bytes(np.zeros(16, dtype="<f4").tobytes())
    (tmp_path / "frames.f32.json").write_text(
        json.dumps({"width": -4, "height": -4, "frames": 1}))
    assert main(["flow", "--frames", str(src), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        f"error: bad sidecar for {src}: 'width' must be an integer >= 1, got -4\n")


def test_flow_sidecar_that_is_not_json_names_the_stack(tmp_path, capsys):
    src = tmp_path / "frames.f32"
    src.write_bytes(np.zeros(16, dtype="<f4").tobytes())
    (tmp_path / "frames.f32.json").write_text("{width: 4}")
    assert main(["flow", "--frames", str(src), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: bad sidecar for {src}: Expecting property name enclosed in double quotes")


@pytest.mark.parametrize("kind", ["f32", "pgm"])
def test_flow_outputs_match_library_bytes(tmp_path, kind):
    frames = translating_plaid(16, 20, 24, velocity=(0.5, -0.25))
    if kind == "f32":
        src = tmp_path / "frames.f32"
        write_float_stack(src, frames)
        library_input = read_float_stack(src)
    else:
        src = tmp_path / "frames"
        src.mkdir()
        for n, frame in enumerate(frames):
            write_pgm(src / f"frame_{n:03d}.pgm", frame)
        library_input = list(PgmDirReader(src))
    out = tmp_path / "run"
    assert main(["flow", "--frames", str(src), "--out", str(out)]) == 0
    results = list(process_sequence(library_input))
    assert len(results) == 12
    for name, planes in (("vx", [r.flow.vx for r in results]),
                         ("vy", [r.flow.vy for r in results]),
                         ("dj", [r.disparity for r in results])):
        assert (out / f"{name}.f32").read_bytes() == np.stack(planes).astype("<f4").tobytes()
    assert not [p.name for p in out.iterdir() if p.name.endswith(".partial")]


def test_flow_holds_at_most_one_result(tmp_path, monkeypatch):
    src = tmp_path / "frames.f32"
    write_float_stack(src, translating_plaid(24, 16, 16, velocity=(0.5, 0.0)))
    original = fadefilt.cli.process_sequence
    alive = []

    def tracking(*args, **kwargs):
        refs = []
        for result in original(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(result))
            yield result

    monkeypatch.setattr(fadefilt.cli, "process_sequence", tracking)
    assert main(["flow", "--frames", str(src), "--out", str(tmp_path / "run")]) == 0
    assert len(alive) == 20
    assert max(alive) <= 1


def _plaid_with(tmp_path, frame, row, col, value):
    frames = translating_plaid(30, 32, 32, velocity=(0.5, 0.0))
    frames[frame, row, col] = value
    src = tmp_path / "frames.f32"
    write_float_stack(src, frames)
    return src


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_input_is_rejected(tmp_path, capsys, value):
    src = _plaid_with(tmp_path, 3, 5, 7, value)
    assert main(["flow", "--frames", str(src), "--out", str(tmp_path / "run")]) == 2
    assert "frame 3 has a non-finite sample at (row 5, col 7)" in capsys.readouterr().err
    coeff = design_file(tmp_path)
    dst = tmp_path / "out.f32"
    assert main(["filter", "--coeff", str(coeff), "--input", str(src),
                 "--out", str(dst), "--axis", "rows"]) == 2
    assert "frame 3 has a non-finite sample at (row 5, col 7)" in capsys.readouterr().err
    assert not dst.exists() and not (tmp_path / "out.f32.partial").exists()


def _pgm_dir_with_odd_frame_2(tmp_path):
    src = tmp_path / "frames"
    src.mkdir()
    for n in range(6):
        write_pgm(src / f"frame_{n:02d}.pgm", np.full((10 if n == 2 else 8, 8), 0.5))
    return src


@pytest.mark.parametrize("bad_input, message", [
    (lambda tmp: _plaid_with(tmp, 12, 1, 2, np.nan), "frame 12 has a non-finite sample"),
    (_pgm_dir_with_odd_frame_2, "frame 2 has shape"),
], ids=["non-finite-frame", "pgm-frame-size"])
def test_failed_flow_leaves_no_stacks(tmp_path, capsys, bad_input, message):
    out = tmp_path / "run"
    out.mkdir()
    (out / "dj_9999.pgm").write_text("from an earlier run")
    assert main(["flow", "--frames", str(bad_input(tmp_path)), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    # no preview, stack, sidecar, temporary file or manifest of the
    # failed run stays, and files it did not write are left alone
    assert [p.name for p in out.iterdir()] == ["dj_9999.pgm"]


@pytest.mark.parametrize("flags, message", [
    (["--t-space=5e-324"], "b must be finite"),
    (["--temporal-kappa=200"], "moment order 204 exceeds 170"),
    (["--t-time=1e-300"],
     "vx.f32: frame 0 has a sample beyond the float32 range at (row 0, col 0)"),
    ([], "frame 12 has a non-finite sample at (row 1, col 2)"),
], ids=["t-space", "temporal-kappa", "float32-overflow", "non-finite-frame"])
def test_failed_flow_removes_the_out_directory_it_made(tmp_path, capsys, flags, message):
    src = _plaid_with(tmp_path, 12, 1, 2, np.nan if not flags else 0.5)
    out = tmp_path / "run"
    assert main(["flow", "--frames", str(src), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and len(err.splitlines()) == 1
    assert not out.exists()
    # a directory the run did not make stays, even when empty
    out.mkdir()
    assert main(["flow", "--frames", str(src), "--out", str(out), *flags]) == 2
    assert out.is_dir() and not any(out.iterdir())
    # every directory a nested --out made goes, deepest first; one that existed stays
    nested = tmp_path / "a" / "b" / "run"
    assert main(["flow", "--frames", str(src), "--out", str(nested), *flags]) == 2
    assert not (tmp_path / "a").exists()
    (tmp_path / "a").mkdir()
    assert main(["flow", "--frames", str(src), "--out", str(nested), *flags]) == 2
    assert (tmp_path / "a").is_dir() and not any((tmp_path / "a").iterdir())


@pytest.mark.parametrize("argv, message", [
    (["design", "--B", "2", "--sigma", "-0.5", "--q", "1e300"],
     "synthesis weights are not finite at delay 1e+300, T=1.0, D=0"),
    (["flow", "--t-time=5e-324"], "synthesis weights are not finite at delay 4.0, T=5e-324, D=1"),
], ids=["design-delay", "flow-frame-period"])
def test_synthesis_weights_beyond_the_float_range_exit_2_without_warnings(
        tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    if argv[0] == "flow":
        src = tmp_path / "frames.f32"
        write_float_stack(src, np.full((6, 8, 8), 0.5))
        argv = argv + ["--frames", str(src), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["filter", "response"])
@pytest.mark.parametrize("field", ["b", "a"])
def test_empty_coefficients_exit_2_naming_file_and_field(tmp_path, capsys, command, field):
    coeff = tmp_path / "c.json"
    coeff.write_text(json.dumps(dict({"b": [1.0], "a": [1.0]}, **{field: []})))
    signal = tmp_path / "x.csv"
    write_signal_csv(signal, np.arange(8.0))
    out = tmp_path / "y.csv"
    argv = ["filter", "--coeff", str(coeff), "--input", str(signal), "--out", str(out)]
    if command == "response":
        argv = ["response", "--coeff", str(coeff), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: invalid coefficient file {coeff}: {field} must not be empty\n")
    assert not out.exists()


# -------------------------------------------------------------- selftest

def test_selftest_reports_all_criteria(capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12
    assert all(line.startswith("criterion") for line in lines[:11])
    assert all(" PASS " in line for line in lines[:11])
    assert lines[11] == "all 11 criteria passed"
