"""File formats: binary PGM images, raw float32 frame stacks with JSON
sidecars, one-value-per-line signal CSV, and coefficient documents.

Images are normalized to [0, 1] on load (divide by maxval) and
denormalized on write.  Derivative outputs can be negative, so frame
data that must survive a round trip is stored as little-endian float32
raw with a sidecar {width, height, frames}; the sidecar lives next to
the data file as <name>.json.  Stacks and PGM directories can be read
one frame at a time (FloatStackReader, PgmDirReader), and a stack can
be written one frame at a time (FloatStackWriter); a written stack and
its sidecar appear under their names only once the stack is complete.

Coefficient documents are JSON
    {"b": [...], "a": [...], "T": ..., "design": {...}}
for causal filters, and {"forward": {...}, "backward": {...}, "T": ...,
"design": {...}} for non-causal pairs.  The CSV form is two rows (b
then a) zero-padded to equal length, four rows for a pair.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Iterator

import numpy as np

from .design import LdeCoefficients, NonCausalPair
from .weights import _real, _whole


# ---------------------------------------------------------------- PGM

def _next_token(f, path) -> bytes:
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise ValueError(f"{path}: truncated PGM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def _pgm_header(f, path) -> tuple[int, int, int]:
    """Parse a P5 header up to the single whitespace byte before the
    pixels; returns (width, height, maxval)."""
    if f.read(2) != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    fields = []
    for field in ("width", "height", "maxval"):
        token = _next_token(f, path)
        if not token.isdigit() or int(token) < 1:
            raise ValueError(
                f"bad PGM header in {path}: {field!r} must be a positive integer, "
                f"got {token.decode(errors='replace')!r}"
            )
        fields.append(int(token))
    if fields[2] > 65535:
        raise ValueError(f"{path}: bad maxval {fields[2]}")
    return fields[0], fields[1], fields[2]


def read_pgm(path) -> np.ndarray:
    """Load a binary (P5) PGM as float64 in [0, 1]."""
    with open(path, "rb") as f:
        width, height, maxval = _pgm_header(f, path)
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        raw = f.read(width * height * dtype.itemsize)
    if len(raw) != width * height * dtype.itemsize:
        raise ValueError(f"{path}: truncated pixel data")
    img = np.frombuffer(raw, dtype=dtype).reshape(height, width)
    return img.astype(float) / maxval


def write_pgm(path, image, maxval: int = 255) -> None:
    """Write a real 2-D [0, 1] image, no axis empty, as binary PGM; values
    are clipped."""
    img = _real(image, "image", ndim=2)
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    scaled = np.rint(np.clip(img, 0.0, 1.0) * maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode())
        f.write(scaled.astype(dtype).tobytes())


class PgmDirReader:
    """The *.pgm files of a directory as a frame stream in lexicographic
    order.  len() and shape come from the file list and frame 0's
    header; iterating loads one frame at a time, and a frame whose shape
    differs from frame 0's raises ValueError naming its index."""

    def __init__(self, path):
        self.files = sorted(Path(path).glob("*.pgm"))
        if not self.files:
            raise ValueError(f"no PGM frames found in {path}")
        with open(self.files[0], "rb") as f:
            width, height, _ = _pgm_header(f, self.files[0])
        self.shape = (height, width)

    def __len__(self) -> int:
        return len(self.files)

    def __iter__(self) -> Iterator[np.ndarray]:
        for n, path in enumerate(self.files):
            yield _real(read_pgm(path), f"{path}: frame {n}", shape=self.shape)


# ------------------------------------------------- raw float32 stacks

def _sidecar(path) -> Path:
    return Path(str(path) + ".json")


class FloatStackReader:
    """A float32 stack read one frame at a time.  len() and shape come
    from the sidecar, which must give positive integer width and height
    and a non-negative integer frame count (flow writes empty stacks for
    streams shorter than its delay); the data file must hold exactly
    that many samples.  Iterating yields (H, W) float64 frames without
    holding more than one; the first NaN or inf sample, which no filter
    repairs, raises ValueError naming its frame, row and column."""

    def __init__(self, path):
        self.path = Path(path)
        try:
            meta = json.loads(_sidecar(path).read_text())
        except json.JSONDecodeError as e:
            raise ValueError(f"bad sidecar for {path}: {e}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"bad sidecar for {path}: expected a JSON object")
        w, h, nf = (_whole(meta.get(field), f"bad sidecar for {path}: {field!r}", least)
                    for field, least in (("width", 1), ("height", 1), ("frames", 0)))
        size = self.path.stat().st_size
        if size != 4 * nf * h * w:
            raise ValueError(
                f"{path}: size does not match sidecar ({size} bytes for "
                f"{nf}x{h}x{w} float32 samples)"
            )
        self.frames = nf
        self.shape = (h, w)

    def __len__(self) -> int:
        return self.frames

    def __iter__(self) -> Iterator[np.ndarray]:
        count = self.shape[0] * self.shape[1]
        with open(self.path, "rb") as f:
            for n in range(self.frames):
                frame = np.fromfile(f, dtype="<f4", count=count).reshape(self.shape)
                finite = np.isfinite(frame)
                if not finite.all():
                    row, col = np.argwhere(~finite)[0]
                    raise ValueError(f"{self.path}: frame {n} has a non-finite sample "
                                     f"at (row {row}, col {col})")
                yield frame.astype(float)


class FloatStackWriter:
    """Context manager that appends real (H, W) frames to a float32 stack;
    the shape is two integers >= 1, checked before any file is opened.
    A finite sample beyond the float32 range raises ValueError naming
    its frame, row and column; NaN and inf are written as given.  Data
    and sidecar are written under temporary names and renamed into
    place when the block completes, so the stack appears only once it is
    whole; if the block raises, the temporary files are removed."""

    def __init__(self, path, shape):
        self.path = Path(path)
        height, width = shape  # exactly two sizes, or ValueError
        self.shape = (_whole(height, f"{path}: height", 1), _whole(width, f"{path}: width", 1))
        self.frames = 0
        self._partial = self.path.with_name(self.path.name + ".partial")

    def __enter__(self) -> "FloatStackWriter":
        self._file = open(self._partial, "wb")
        return self

    def write(self, frame) -> None:
        data = _real(frame, f"{self.path}: frame {self.frames}", shape=self.shape)
        try:
            with np.errstate(over="raise"):
                samples = data.astype("<f4")
        except FloatingPointError:
            with np.errstate(over="ignore"):
                row, col = np.argwhere(np.isfinite(data) & np.isinf(data.astype("<f4")))[0]
            raise ValueError(f"{self.path}: frame {self.frames} has a sample beyond the "
                             f"float32 range at (row {row}, col {col})") from None
        self._file.write(samples.tobytes())
        self.frames += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        self._file.close()
        if exc_type is not None:
            self._partial.unlink(missing_ok=True)
            return
        h, w = self.shape
        meta = {"width": w, "height": h, "frames": self.frames}
        sidecar = _sidecar(self._partial)
        sidecar.write_text(json.dumps(meta, sort_keys=True) + "\n")
        os.replace(self._partial, self.path)
        os.replace(sidecar, _sidecar(self.path))


def write_float_stack(path, frames) -> None:
    """Store real frames as little-endian float32 with a JSON sidecar."""
    data = _real(frames, "frames")
    if data.ndim == 2:
        data = data[None]
    if data.ndim != 3:
        raise ValueError("expected (frames, height, width) or a single 2-D frame")
    with FloatStackWriter(path, data.shape[1:]) as out:
        for frame in data:
            out.write(frame)


def read_float_stack(path) -> np.ndarray:
    """Load a whole float32 raw stack through FloatStackReader, which
    validates it; returns (F, H, W) float64."""
    stack = FloatStackReader(path)
    return np.fromiter(stack, np.dtype((float, stack.shape)), len(stack))


# --------------------------------------------------------- signal CSV

def read_signal_csv(path) -> np.ndarray:
    """One sample a line, skipping blanks and '#' comments; NaN or inf is an error."""
    vals = []
    with open(path) as f:
        for number, line in enumerate(f, start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    vals.append(float(line))
                except ValueError:
                    raise ValueError(f"{path}: line {number} is not a number: {line!r}") from None
                if not math.isfinite(vals[-1]):
                    raise ValueError(f"{path}: line {number} has a non-finite sample {line!r}")
    if not vals:
        raise ValueError(f"{path}: no samples")
    return np.array(vals)


def write_signal_csv(path, signal) -> None:
    with open(path, "w") as f:
        for v in _real(signal, "signal", ndim=1):
            f.write(repr(float(v)) + "\n")


# ------------------------------------------------ coefficient documents

def _lde_doc(lde: LdeCoefficients) -> dict:
    return {"b": [float(v) for v in lde.b], "a": [float(v) for v in lde.a]}


def coefficients_doc(filt, design_info: dict | None = None) -> dict:
    """JSON-ready document for a filter or pair."""
    forward, *backward = map(_lde_doc, filt.halves)
    doc = {"forward": forward, "backward": backward[0]} if backward else forward
    doc["T"] = float(filt.halves[0].sample_period)
    if design_info is not None:
        doc["design"] = design_info
    return doc


def coefficients_json(filt, design_info: dict | None = None) -> str:
    return json.dumps(coefficients_doc(filt, design_info), sort_keys=True, indent=2) + "\n"


def _lde_from_doc(doc: dict, t: float) -> LdeCoefficients:
    return LdeCoefficients(b=doc["b"], a=doc["a"], sample_period=t)


def coefficients_from_doc(doc: dict):
    """Inverse of coefficients_doc; returns LdeCoefficients or NonCausalPair."""
    t = float(doc.get("T", 1.0))
    if "forward" in doc:
        return NonCausalPair(_lde_from_doc(doc["forward"], t), _lde_from_doc(doc["backward"], t))
    return _lde_from_doc(doc, t)


def read_coefficients_json(path):
    """Load a coefficient document; returns (filter, design dict or None).
    A file that cannot be read, or whose coefficients do not make a
    filter (non-finite, not monic, unstable), raises ValueError naming
    the file."""
    try:
        doc = json.loads(Path(path).read_text())
        return coefficients_from_doc(doc), doc.get("design")
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise ValueError(f"unreadable coefficient file {path}: {e}") from None
    except ValueError as e:
        raise ValueError(f"invalid coefficient file {path}: {e}") from None


def coefficients_csv(filt) -> str:
    """b row then a row, zero-padded to equal length; four rows for a pair."""
    rows = [row.tolist() for half in filt.halves for row in (half.b, half.a)]
    width = max(map(len, rows))
    return "".join(",".join(map(repr, r + [0.0] * (width - len(r)))) + "\n" for r in rows)
