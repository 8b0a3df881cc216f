import json
import math
import re

import numpy as np
import pytest

from fadefilt.closed_form import ClosedForm, closed_form_coefficients
from fadefilt.design import LdeCoefficients, NonCausalPair
from fadefilt.fileio import (
    FloatStackReader,
    FloatStackWriter,
    PgmDirReader,
    coefficients_csv,
    coefficients_doc,
    coefficients_from_doc,
    coefficients_json,
    read_coefficients_json,
    read_float_stack,
    read_pgm,
    read_signal_csv,
    write_float_stack,
    write_pgm,
    write_signal_csv,
)

SMOOTHER = closed_form_coefficients(ClosedForm.SMOOTHER_K0, math.exp(-0.5), 1.0)
PAIR = closed_form_coefficients(ClosedForm.DIFFERENTIATOR_NONCAUSAL, 0.5)


def test_pgm_round_trip_8bit(tmp_path):
    img = np.linspace(0.0, 1.0, 48).reshape(6, 8)
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (6, 8)
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_pgm_round_trip_16bit(tmp_path):
    img = np.linspace(0.0, 1.0, 15).reshape(3, 5)
    path = tmp_path / "b.pgm"
    write_pgm(path, img, maxval=65535)
    back = read_pgm(path)
    assert np.max(np.abs(back - img)) <= 0.5 / 65535 + 1e-12


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert img[0, 0] == 0.0
    assert img[1, 2] == pytest.approx(5 / 255)


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2")
    with pytest.raises(ValueError, match="d.pgm: truncated PGM header"):
        read_pgm(path)


@pytest.mark.parametrize("header, field", [
    (b"P5\n0 5\n255\n", "width"),
    (b"P5\n-4 -4\n255\n", "width"),
    (b"P5\n5 0\n255\n", "height"),
    (b"P5\n5 5\n0\n", "maxval"),
    (b"P5\n5 five\n255\n", "height"),
])
def test_pgm_header_fields_are_validated(tmp_path, header, field):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(25))
    with pytest.raises(ValueError, match=f"bad.pgm: '{field}' must be a positive integer"):
        read_pgm(path)


def test_float_stack_round_trip(tmp_path):
    frames = np.random.default_rng(0).standard_normal((4, 5, 6))
    path = tmp_path / "stack.f32"
    write_float_stack(path, frames)
    sidecar = json.loads((tmp_path / "stack.f32.json").read_text())
    assert sidecar == {"frames": 4, "height": 5, "width": 6}
    assert path.read_bytes() == frames.astype("<f4").tobytes()
    back = read_float_stack(path)
    assert back.shape == (4, 5, 6)
    assert np.allclose(back, frames, atol=1e-6)


def test_float_stack_single_plane(tmp_path):
    plane = np.arange(12, dtype=float).reshape(3, 4)
    path = tmp_path / "one.f32"
    write_float_stack(path, plane)
    back = read_float_stack(path)
    assert back.shape == (1, 3, 4)
    assert np.allclose(back[0], plane)


def test_float_stack_size_mismatch(tmp_path):
    frames = np.zeros((2, 3, 3))
    path = tmp_path / "bad.f32"
    write_float_stack(path, frames)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError):
        read_float_stack(path)
    with pytest.raises(ValueError):
        FloatStackReader(path)


def test_float_stack_reader_streams_frames(tmp_path):
    frames = np.random.default_rng(1).standard_normal((5, 3, 4))
    path = tmp_path / "stack.f32"
    write_float_stack(path, frames)
    reader = FloatStackReader(path)
    assert len(reader) == 5 and reader.shape == (3, 4)
    streamed = list(reader)
    assert all(f.dtype == np.float64 and f.shape == (3, 4) for f in streamed)
    assert np.array_equal(np.stack(streamed), read_float_stack(path))


def test_float_stack_writer_appears_only_when_closed(tmp_path):
    path = tmp_path / "out.f32"
    frames = np.random.default_rng(2).standard_normal((3, 2, 5))
    with FloatStackWriter(path, (2, 5)) as out:
        for frame in frames:
            out.write(frame)
        assert not path.exists() and not (tmp_path / "out.f32.json").exists()
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: frame 3 has shape "
                           r"\(5, 2\), but must have shape \(2, 5\)$"):
            out.write(np.zeros((5, 2)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.f32", "out.f32.json"]
    assert path.read_bytes() == frames.astype("<f4").tobytes()
    assert read_float_stack(path).shape == (3, 2, 5)


def test_float_stack_writer_aborts_on_error(tmp_path):
    with pytest.raises(RuntimeError):
        with FloatStackWriter(tmp_path / "out.f32", (2, 2)) as out:
            out.write(np.zeros((2, 2)))
            raise RuntimeError("stream failed")
    assert list(tmp_path.iterdir()) == []


def test_float_stack_writer_refuses_finite_samples_beyond_float32(tmp_path):
    path = tmp_path / "out.f32"
    frames = np.zeros((2, 3, 4))
    frames[1, 2, 1] = -1e300
    frames[1, 0, 3] = np.inf  # NaN and inf pass through as given
    frames[0, 1, 1] = np.nan
    message = f"^{re.escape(str(path))}: frame 1 has a sample beyond the float32 range " \
              "at \\(row 2, col 1\\)$"
    with pytest.raises(ValueError, match=message):
        with FloatStackWriter(path, (3, 4)) as out:
            out.write(frames[0])
            out.write(frames[1])
    assert list(tmp_path.iterdir()) == []
    frames[1, 2, 1] = np.finfo(np.float32).max  # the largest float32 is kept
    write_float_stack(path, frames)
    got = np.fromfile(path, dtype="<f4").reshape(frames.shape)
    assert np.isnan(got[0, 1, 1]) and got[1, 0, 3] == np.inf and np.isfinite(got[1, 2, 1])


def test_float_stack_writer_empty_stack(tmp_path):
    path = tmp_path / "empty.f32"
    with FloatStackWriter(path, (4, 3)):
        pass
    assert path.read_bytes() == b""
    assert read_float_stack(path).shape == (0, 4, 3)


def _write_a_frame(path, shape) -> None:
    with FloatStackWriter(path, shape) as out:
        out.write(np.zeros((2, 3)))


@pytest.mark.parametrize("write, message", [
    (lambda path: write_float_stack(path, np.zeros((2, 0, 3))),
     "height must be an integer >= 1, got 0"),
    (lambda path: _write_a_frame(path, (2.5, 3)), "height must be an integer >= 1, got 2.5"),
    (lambda path: _write_a_frame(path, (2, 3.0)), "width must be an integer >= 1, got 3.0"),
], ids=["empty-axis", "non-integral-height", "float-width"])
def test_float_stack_writer_refuses_a_bad_shape_before_opening_a_file(tmp_path, write, message):
    path = tmp_path / "out.f32"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        write(path)
    with pytest.raises(ValueError, match="values to unpack"):
        _write_a_frame(path, (2, 3, 4))
    assert list(tmp_path.iterdir()) == []  # no stack, sidecar or .partial file


@pytest.mark.parametrize("meta, field", [
    ({"width": -4, "height": -4, "frames": 1}, "width"),
    ({"width": 4, "height": 0, "frames": 1}, "height"),
    ({"width": 4, "height": 4, "frames": -1}, "frames"),
    ({"width": 4.5, "height": 4, "frames": 1}, "width"),
    ({"width": "4", "height": 4, "frames": 1}, "width"),
    ({"width": 4, "frames": 1}, "height"),
])
def test_float_stack_sidecar_fields_are_validated(tmp_path, meta, field):
    path = tmp_path / "bad.f32"
    path.write_bytes(np.zeros(16, dtype="<f4").tobytes())
    (tmp_path / "bad.f32.json").write_text(json.dumps(meta))
    for reader in (read_float_stack, FloatStackReader):
        with pytest.raises(ValueError, match=f"'{field}' must be a"):
            reader(path)


def test_float_stack_sidecar_that_is_not_json_names_the_stack(tmp_path):
    path = tmp_path / "bad.f32"
    path.write_bytes(np.zeros(16, dtype="<f4").tobytes())
    (tmp_path / "bad.f32.json").write_text("{width: 4}")
    for reader in (read_float_stack, FloatStackReader):
        with pytest.raises(ValueError, match=f"^bad sidecar for {re.escape(str(path))}: "
                                             "Expecting property name"):
            reader(path)


def test_signal_csv_round_trip(tmp_path):
    x = np.array([1.0, -0.25, 3.3e-17, 12345.678])
    path = tmp_path / "sig.csv"
    write_signal_csv(path, x)
    assert np.array_equal(read_signal_csv(path), x)  # repr round trip is exact


def test_signal_csv_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("# header\n1.5\n\n2.5\n# tail\n")
    assert np.array_equal(read_signal_csv(path), [1.5, 2.5])


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_signal_csv_rejects_non_finite_samples_by_line(tmp_path, bad):
    path = tmp_path / "sig.csv"
    path.write_text(f"# header\n1.5\n\n{bad}\n2.5\n")
    with pytest.raises(ValueError, match="line 4 has a non-finite sample"):
        read_signal_csv(path)


@pytest.mark.parametrize("bad", ["2,5", "x", "1.5.2"])
def test_signal_csv_names_the_file_and_line_of_a_sample_that_is_not_a_number(tmp_path, bad):
    path = tmp_path / "sig.csv"
    path.write_text(f"# header\n1.5\n{bad}\n")
    message = f"{path}: line 3 is not a number: {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_signal_csv(path)


def test_coefficients_json_round_trip_single(tmp_path):
    info = {"B": 2, "D": 0, "kappa": 0, "sigma": -0.5, "q": 1.0, "causality": "causal"}
    path = tmp_path / "c.json"
    path.write_text(coefficients_json(SMOOTHER, info))
    filt, design = read_coefficients_json(path)
    assert isinstance(filt, LdeCoefficients)
    assert np.allclose(filt.b, SMOOTHER.b)
    assert np.allclose(filt.a, SMOOTHER.a)
    assert design == info


def test_coefficients_json_round_trip_pair(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(coefficients_json(PAIR))
    filt, design = read_coefficients_json(path)
    assert isinstance(filt, NonCausalPair)
    assert np.allclose(filt.backward.b, PAIR.backward.b)
    assert design is None


def test_coefficients_doc_is_plain_json():
    doc = coefficients_doc(PAIR)
    json.dumps(doc)  # raises on numpy scalars
    again = coefficients_from_doc(doc)
    assert np.allclose(again.forward.b, PAIR.forward.b)


def test_read_coefficients_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        read_coefficients_json(path)
    path.write_text('{"b": [1.0]}')  # missing denominator
    with pytest.raises(ValueError):
        read_coefficients_json(path)
    with pytest.raises(ValueError):
        read_coefficients_json(tmp_path / "absent.json")


def test_coefficients_csv_shapes():
    text = coefficients_csv(SMOOTHER)
    rows = [r.split(",") for r in text.strip().splitlines()]
    assert len(rows) == 2
    assert len(rows[0]) == len(rows[1])
    pair_rows = coefficients_csv(PAIR).strip().splitlines()
    assert len(pair_rows) == 4


def test_pgm_dir_reader_sorted_and_uniform(tmp_path):
    a = np.zeros((4, 4))
    b = np.ones((4, 4))
    write_pgm(tmp_path / "f_0001.pgm", b)
    write_pgm(tmp_path / "f_0000.pgm", a)
    frames = list(PgmDirReader(tmp_path))
    assert len(frames) == 2
    assert frames[0].max() == 0.0 and frames[1].min() == 1.0
    write_pgm(tmp_path / "f_0002.pgm", np.zeros((3, 3)))
    with pytest.raises(ValueError, match="frame 2 has shape"):
        list(PgmDirReader(tmp_path))


def test_pgm_dir_reader_counts_without_loading(tmp_path):
    for n in range(3):
        write_pgm(tmp_path / f"f_{n}.pgm", np.full((4, 6), n / 2.0))
    reader = PgmDirReader(tmp_path)
    assert len(reader) == 3 and reader.shape == (4, 6)
    assert [f[0, 0] for f in reader] == [0.0, 128 / 255, 1.0]
    with pytest.raises(ValueError, match="no PGM frames"):
        PgmDirReader(tmp_path / "absent")


def test_float_stack_reader_rejects_non_finite_samples(tmp_path):
    frames = np.zeros((3, 4, 5))
    frames[1, 2, 0] = np.nan
    frames[2, 0, 0] = np.inf
    path = tmp_path / "bad.f32"
    write_float_stack(path, frames)
    message = f"^{re.escape(str(path))}: frame 1 has a non-finite sample at \\(row 2, col 0\\)$"
    stream = iter(FloatStackReader(path))
    assert np.array_equal(next(stream), frames[0])
    with pytest.raises(ValueError, match=message):
        next(stream)
    with pytest.raises(ValueError, match=message):
        read_float_stack(path)
