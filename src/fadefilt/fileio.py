"""File formats: binary PGM images, raw float32 frame stacks with JSON
sidecars, one-value-per-line signal CSV, and coefficient documents.

Images are normalized to [0, 1] on load (divide by maxval) and
denormalized on write.  Derivative outputs can be negative, so frame
data that must survive a round trip is stored as little-endian float32
raw with a sidecar {width, height, frames}; the sidecar lives next to
the data file as <name>.json.

Coefficient documents are JSON
    {"b": [...], "a": [...], "T": ..., "design": {...}}
for causal filters, and {"forward": {...}, "backward": {...}, "T": ...,
"design": {...}} for non-causal pairs.  The CSV form is two rows (b
then a) zero-padded to equal length, four rows for a pair.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .design import LdeCoefficients, NonCausalPair


# ---------------------------------------------------------------- PGM

def _next_token(f) -> bytes:
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise ValueError("truncated PGM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def read_pgm(path) -> np.ndarray:
    """Load a binary (P5) PGM as float64 in [0, 1]."""
    with open(path, "rb") as f:
        if f.read(2) != b"P5":
            raise ValueError(f"{path}: not a binary PGM (P5) file")
        width = int(_next_token(f))
        height = int(_next_token(f))
        maxval = int(_next_token(f))
        if not (0 < maxval < 65536):
            raise ValueError(f"{path}: bad maxval {maxval}")
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        raw = f.read(width * height * dtype.itemsize)
    if len(raw) != width * height * dtype.itemsize:
        raise ValueError(f"{path}: truncated pixel data")
    img = np.frombuffer(raw, dtype=dtype).reshape(height, width)
    return img.astype(float) / maxval


def write_pgm(path, image, maxval: int = 255) -> None:
    """Write a [0, 1] image as binary PGM; values are clipped."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    if maxval not in (255, 65535):
        raise ValueError("maxval must be 255 or 65535")
    scaled = np.rint(np.clip(img, 0.0, 1.0) * maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode())
        f.write(scaled.astype(dtype).tobytes())


def read_pgm_dir(path) -> list[np.ndarray]:
    """Load all *.pgm files in a directory in lexicographic order."""
    files = sorted(Path(path).glob("*.pgm"))
    if not files:
        raise ValueError(f"no PGM frames found in {path}")
    frames = [read_pgm(p) for p in files]
    shapes = {f.shape for f in frames}
    if len(shapes) != 1:
        raise ValueError("frame dimensions are not uniform")
    return frames


# ------------------------------------------------- raw float32 stacks

def _sidecar(path) -> Path:
    return Path(str(path) + ".json")


def write_float_stack(path, frames) -> None:
    """Store frames as little-endian float32 with a JSON sidecar."""
    data = np.asarray(frames, dtype=float)
    if data.ndim == 2:
        data = data[None]
    if data.ndim != 3:
        raise ValueError("expected (frames, height, width) or a single 2-D frame")
    nf, h, w = data.shape
    with open(path, "wb") as f:
        f.write(data.astype("<f4").tobytes())
    meta = {"width": w, "height": h, "frames": nf}
    _sidecar(path).write_text(json.dumps(meta, sort_keys=True) + "\n")


def read_float_stack(path) -> np.ndarray:
    """Load a float32 raw stack via its sidecar; returns (F, H, W) float64.
    The sidecar must give positive integer width and height and a
    non-negative integer frame count (flow writes empty stacks for
    streams shorter than its delay), and the data file must hold
    exactly that many samples."""
    meta = json.loads(_sidecar(path).read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"bad sidecar for {path}: expected a JSON object")
    dims = []
    for field, least in (("width", 1), ("height", 1), ("frames", 0)):
        value = meta.get(field)
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            kind = "positive" if least else "non-negative"
            raise ValueError(
                f"bad sidecar for {path}: {field!r} must be a {kind} integer, got {value!r}"
            )
        dims.append(value)
    w, h, nf = dims
    size = Path(path).stat().st_size
    if size != 4 * nf * h * w:
        raise ValueError(
            f"{path}: size does not match sidecar ({size} bytes for "
            f"{nf}x{h}x{w} float32 samples)"
        )
    return np.fromfile(path, dtype="<f4").reshape(nf, h, w).astype(float)


# --------------------------------------------------------- signal CSV

def read_signal_csv(path) -> np.ndarray:
    vals = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                vals.append(float(line))
    if not vals:
        raise ValueError(f"{path}: no samples")
    return np.array(vals)


def write_signal_csv(path, signal) -> None:
    with open(path, "w") as f:
        for v in np.asarray(signal, dtype=float):
            f.write(repr(float(v)) + "\n")


# ------------------------------------------------ coefficient documents

def _lde_doc(lde: LdeCoefficients) -> dict:
    return {"b": [float(v) for v in lde.b], "a": [float(v) for v in lde.a]}


def coefficients_doc(filt, design_info: dict | None = None) -> dict:
    """JSON-ready document for a filter or pair."""
    if isinstance(filt, NonCausalPair):
        doc = {
            "forward": _lde_doc(filt.forward),
            "backward": _lde_doc(filt.backward),
            "T": float(filt.sample_period),
        }
    else:
        doc = dict(_lde_doc(filt), T=float(filt.sample_period))
    if design_info is not None:
        doc["design"] = design_info
    return doc


def coefficients_json(filt, design_info: dict | None = None) -> str:
    return json.dumps(coefficients_doc(filt, design_info), sort_keys=True, indent=2) + "\n"


def coefficients_from_doc(doc: dict):
    """Inverse of coefficients_doc; returns LdeCoefficients or NonCausalPair."""
    t = float(doc.get("T", 1.0))
    if "forward" in doc:
        fwd = doc["forward"]
        bwd = doc["backward"]
        return NonCausalPair(
            forward=LdeCoefficients(b=np.array(fwd["b"], float),
                                    a=np.array(fwd["a"], float), sample_period=t),
            backward=LdeCoefficients(b=np.array(bwd["b"], float),
                                     a=np.array(bwd["a"], float), sample_period=t),
        )
    return LdeCoefficients(b=np.array(doc["b"], float), a=np.array(doc["a"], float),
                           sample_period=t)


def read_coefficients_json(path):
    """Load a coefficient document; returns (filter, design dict or None)."""
    try:
        doc = json.loads(Path(path).read_text())
        return coefficients_from_doc(doc), doc.get("design")
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise ValueError(f"unreadable coefficient file {path}: {e}") from None


def coefficients_csv(filt) -> str:
    """b row then a row, zero-padded to equal length; four rows for a pair."""
    if isinstance(filt, NonCausalPair):
        rows = [filt.forward.b, filt.forward.a, filt.backward.b, filt.backward.a]
    else:
        rows = [filt.b, filt.a]
    width = max(len(r) for r in rows)
    lines = []
    for r in rows:
        padded = np.zeros(width)
        padded[: len(r)] = r
        lines.append(",".join(repr(float(v)) for v in padded))
    return "\n".join(lines) + "\n"
