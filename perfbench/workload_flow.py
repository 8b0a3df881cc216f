"""flow-vga and flow-cli-128: the dense-flow pipeline on a translating
plaid with a counter-moving Gaussian blob.

flow-vga calls process_sequence in this process on a 640x480 stack,
pass after pass.  flow-cli-128 runs ``fadefilt flow`` in a child
process on a long 128x128 .f32 stream and checks the files it writes.

A warmed-up output frame fails when it has a non-finite value, when its
interior median flow error exceeds acceptance criterion 10's 0.10, or
when its blob-to-background disparity ratio is 5 or less.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import common

VGA = (480, 640, 40)  # height, width, frames per pass
CLI = (128, 128, 400)  # height, width, frames in the stream
FLOW_ERROR_TOL = 0.10  # acceptance criterion 10
DISPARITY_RATIO_MIN = 5.0  # acceptance criterion 10
MARGIN = 16
BLOB_RADIUS = 8.0
OP_SPAN = "flow.process_sequence"


@dataclass(frozen=True)
class Scene:
    height: int
    width: int
    frames: int
    velocity: tuple[float, float]
    blob_velocity: tuple[float, float]
    blob_center: tuple[float, float]

    @classmethod
    def from_seed(cls, seed: int, height: int, width: int, frames: int) -> "Scene":
        rng = np.random.default_rng([seed, height, width, frames])
        speed = rng.uniform(0.35, 0.6)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        # the blob drifts against the background and stays inside the interior
        blob_speed = min(0.5, min(height, width) / 4.0 / frames)
        blob_angle = angle + math.pi + rng.uniform(-0.5, 0.5)
        bvx, bvy = blob_speed * math.cos(blob_angle), blob_speed * math.sin(blob_angle)
        cx = width / 2.0 - bvx * frames / 2.0 + rng.uniform(-1, 1) * width / 8.0
        cy = height / 2.0 - bvy * frames / 2.0 + rng.uniform(-1, 1) * height / 8.0
        return cls(height, width, frames, (speed * math.cos(angle), speed * math.sin(angle)),
                   (bvx, bvy), (cx, cy))

    def render(self, ff) -> np.ndarray:
        plaid = ff.translating_plaid(self.frames, self.height, self.width, self.velocity)
        return ff.add_gaussian_blob(plaid, self.blob_velocity, self.blob_center,
                                    radius=BLOB_RADIUS)


class FrameGate:
    """Per-frame output checks against the scene's ground truth."""

    def __init__(self, scene: Scene):
        self.scene = scene
        self.yy, self.xx = np.mgrid[0:scene.height, 0:scene.width].astype(float)
        self.interior = np.zeros((scene.height, scene.width), bool)
        self.interior[MARGIN:-MARGIN, MARGIN:-MARGIN] = True

    def check(self, index: int, warmed: bool, vx, vy, dj) -> str | None:
        if not warmed:
            return None
        if not (np.all(np.isfinite(vx)) and np.all(np.isfinite(vy)) and np.all(np.isfinite(dj))):
            return "non_finite"
        s = self.scene
        cx = s.blob_center[0] + s.blob_velocity[0] * index
        cy = s.blob_center[1] + s.blob_velocity[1] * index
        r2 = (self.xx - cx) ** 2 + (self.yy - cy) ** 2
        background = self.interior & (r2 > (2.0 * BLOB_RADIUS) ** 2)
        moving = (vx != 0.0) | (vy != 0.0)  # invalid pixels carry zero flow
        err = np.hypot(vx - s.velocity[0], vy - s.velocity[1]) / math.hypot(*s.velocity)
        sel = background & moving
        flow_err = float(np.median(err[sel])) if np.any(sel) else 1.0
        if not flow_err <= FLOW_ERROR_TOL:
            return "flow_error"
        ratio = float(np.median(dj[r2 <= BLOB_RADIUS**2]) / np.median(dj[background]))
        if not ratio > DISPARITY_RATIO_MIN:
            return "disparity_ratio"
        return None


def plane_digests(vx, vy, dj) -> tuple[bytes, bytes, bytes]:
    return tuple(hashlib.sha256(np.asarray(p, dtype=np.float64).tobytes()).digest()
                 for p in (vx, vy, dj))


def checksums(per_frame: list[tuple[bytes, bytes, bytes]]) -> dict[str, str]:
    """SHA-256 over the per-frame SHA-256 of each float64 plane."""
    return {name: hashlib.sha256(b"".join(d[k] for d in per_frame)).hexdigest()
            for k, name in enumerate(("vx", "vy", "dj"))}


# ------------------------------------------------------------ flow-vga

def run_vga(ff, frames: np.ndarray, scene: Scene, seconds: float, clock=None) -> dict:
    """process_sequence over ``frames`` pass after pass.  The first pass
    always completes; later passes stop when ``seconds`` are used.
    Only the time inside the generator is timed; the first result of
    each pass, which also fills the temporal delay line, is not a
    steady-state sample.  With a ``clock`` a host-speed reference
    sample is taken before every frame, outside the frame's time."""
    gate = FrameGate(scene)
    tally = common.Tally()
    stamps: list[float] = []
    durations: list[float] = []
    steady: list[bool] = []
    first_pass: list[tuple[bytes, bytes, bytes]] = []
    deterministic = True
    start = time.perf_counter()
    pass_no = 0
    while True:
        stream = ff.process_sequence(frames)
        position = 0
        while True:
            if pass_no > 0 and time.perf_counter() - start >= seconds:
                if clock is not None:
                    clock.sample()
                return {
                    "stamps": stamps,
                    "durations": durations,
                    "steady": steady,
                    "attempted": tally.attempted,
                    "failed": tally.failed,
                    "failures": tally.failures,
                    "deterministic": deterministic,
                    "checksums": checksums(first_pass),
                    "busy_s": sum(durations),
                    "ops": tally.attempted,
                }
            if clock is not None:
                clock.sample()
            t0 = time.perf_counter()
            try:
                result = next(stream)
            except StopIteration:
                break
            stamps.append(t0)
            durations.append(time.perf_counter() - t0)
            steady.append(position > 0)
            vx, vy, dj = result.flow.vx, result.flow.vy, result.disparity
            tally.add(gate.check(result.frame_index, result.warmed_up, vx, vy, dj))
            digests = plane_digests(vx, vy, dj)
            if pass_no == 0:
                first_pass.append(digests)
            elif first_pass[position] != digests:
                deterministic = False
            position += 1
        pass_no += 1


# -------------------------------------------------------- flow-cli-128

def read_stack(path: Path) -> np.ndarray:
    """Read a .f32 stack and its sidecar without going through the
    package, so the check does not share code with what it checks."""
    meta = json.loads(Path(str(path) + ".json").read_text())
    raw = np.fromfile(path, dtype="<f4")
    return raw.reshape(int(meta["frames"]), int(meta["height"]), int(meta["width"]))


def cli_argv(stack: Path, out: Path, spans: Path | None = None,
             clock: Path | None = None) -> list[str]:
    """The CLI itself, or cli_child.py running it traced (``spans``) or
    with reference samples between frames (``clock``)."""
    args = ["flow", "--frames", str(stack), "--out", str(out)]
    if spans is None and clock is None:
        return [sys.executable, "-m", "fadefilt.cli", *args]
    here = Path(__file__).resolve().parent
    mode = ["--spans", str(spans)] if spans is not None else ["--clock", str(clock)]
    return [sys.executable, str(here / "cli_child.py"), *mode, *args]


def normalized_wall(wall: float, times_path: Path) -> tuple[float, float, list[float]]:
    """An invocation's wall time without its reference samples, the
    same at nominal host speed, and its reference times.  Each frame is
    scaled by the reference samples nearest to it; the rest of the run
    (interpreter start, imports, reading and writing files) by the
    median of all of them."""
    import reference

    timings = json.loads(times_path.read_text())
    clock = reference.HostClock("small_image")
    for stamp, seconds in timings["reference"]:
        clock.record(stamp, seconds)
    raw = wall - sum(clock.times)
    in_frames = sum(d for _, d in timings["frames"])
    scaled = sum(clock.normalize(t, d) for t, d in timings["frames"])
    rest = (raw - in_frames) * reference.NOMINAL["small_image"] / statistics.median(clock.times)
    return raw, scaled + rest, clock.times


def check_cli_outputs(out: Path, scene: Scene, settle: int, delay: int, tally: common.Tally):
    """Gate every expected output frame; return per-frame digests."""
    expected = scene.frames - delay
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        planes = [read_stack(out / f"{name}.f32") for name in ("vx", "vy", "dj")]
    except (OSError, ValueError, KeyError) as exc:
        for _ in range(expected):
            tally.add(f"unreadable_output ({type(exc).__name__})")
        return []
    vx, vy, dj = (p.astype(np.float64) for p in planes)
    produced = min(len(vx), len(vy), len(dj), int(manifest.get("frames_out", -1)))
    gate = FrameGate(scene)
    digests = []
    for index in range(expected):
        if index >= produced:
            tally.add("missing_frame")
            continue
        tally.add(gate.check(index, index >= settle, vx[index], vy[index], dj[index]))
        digests.append(plane_digests(vx[index], vy[index], dj[index]))
    return digests


def run_cli(scene: Scene, stack: Path, workdir: Path, seconds: float, settle: int,
            delay: int, deadline: float, spans: Path | None = None, once: bool = False,
            clocked: bool = False) -> dict:
    """Invoke the CLI child until ``seconds`` are used (at least once).
    ``clocked`` runs it under cli_child.py with reference samples
    between frames, and adds each invocation's normalized time."""
    tally = common.Tally()
    walls: list[float] = []
    normalized: list[float] = []
    ref_times: list[float] = []
    frames: list[int] = []
    rss: list[float] = []
    frames_out = 0
    reference = None
    deterministic = True
    start = time.perf_counter()
    out = workdir / "out"
    times_path = workdir / "cli_times.json" if clocked else None
    while True:
        _clear(out)
        code, wall, peak, _ = common.run_measured_child(
            cli_argv(stack, out, spans, times_path), deadline - time.perf_counter(),
            workdir / "child.log")
        if code != 0:
            for _ in range(scene.frames - delay):
                tally.add(f"exit_code_{code}")
            digests = []
        else:
            digests = check_cli_outputs(out, scene, settle, delay, tally)
            frames_out += len(digests)
            if clocked:
                wall, scaled, refs = normalized_wall(wall, times_path)
                normalized.append(scaled)
                ref_times.extend(refs)
            walls.append(wall)
            frames.append(len(digests))
            rss.append(peak)
        if reference is None:
            reference = digests
        elif digests != reference:
            deterministic = False
        if once or code != 0 or time.perf_counter() - start >= seconds:
            break
    _clear(out)
    return {
        "durations": walls,
        "normalized": normalized,
        "reference_times": ref_times,
        "frames": frames,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "deterministic": deterministic,
        "checksums": checksums(reference or []),
        "busy_s": sum(walls),
        "ops": frames_out,
        "peak_rss_mb": max(rss) if rss else 0.0,
        "invocations": len(walls),
    }


def _clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
