"""The flow engine's two bands: a forked helper runs band 1 of every
stage over shared memory.  Two bands must give the bits of one, and the
helper must never outlive its stream, hang its caller or run where a
fork is unsafe."""

import contextlib
import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadefilt import flow
from fadefilt.flow import FlowConfig, process_sequence
from fadefilt.synthetic import add_gaussian_blob, translating_plaid

from test_flow import MULTI_STRIP_SHA256, multi_strip_stream

pytestmark = pytest.mark.skipif(not flow._can_fork(),
                                reason="two bands need fork, two CPUs and no other thread")


@contextlib.contextmanager
def spied_forks():
    """Yields the list of pids that os.fork returns to its caller."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", fork)
        yield forks


@contextlib.contextmanager
def bands(two: bool):
    """Frames of any size run on two bands (when they have two rows and
    two columns), or every frame on one; yields the list of forked pids."""
    with spied_forks() as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_BAND_VALUES", 1 if two else 2**62)
        yield forks


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def same_bits(got, want):
    assert len(got) == len(want)
    for r, w in zip(got, want):
        assert (r.frame_index, r.warmed_up) == (w.frame_index, w.warmed_up)
        for a, b in ((r.flow.vx, w.flow.vx), (r.flow.vy, w.flow.vy),
                     (r.flow.valid, w.flow.valid), (r.disparity, w.disparity)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def scene(frames: int, height: int, width: int, seed: int) -> np.ndarray:
    """A plaid and blob with noise, so every pixel's bits matter."""
    plaid = translating_plaid(frames, height, width, (0.4, -0.3))
    stack = add_gaussian_blob(plaid, (-0.3, 0.2), (width / 2, height / 2), radius=2.5)
    return stack + 0.01 * np.random.default_rng(seed).standard_normal(stack.shape)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(height=st.integers(1, 23), width=st.integers(1, 29), q=st.sampled_from([0, 1, 2, 4, 9]),
       extra=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_two_bands_give_the_bits_of_one(height, width, q, extra, seed):
    cfg = FlowConfig(temporal_q=q)
    frames = scene(q + extra, height, width, seed)
    with bands(False) as forks:
        want = list(process_sequence(frames, cfg))
    assert forks == []
    with bands(True) as forks:
        got = list(process_sequence(frames, cfg))
    # a frame of one row or one column has no second band
    assert len(forks) == (min(height, width) >= 2)
    same_bits(got, want)
    assert_no_child()


@pytest.mark.parametrize("q", [0, 4])
def test_two_bands_read_a_refilled_buffer_and_keep_each_result(q):
    cfg = FlowConfig(temporal_q=q)
    frames = scene(q + 12, 24, 33, q)

    def refilled():
        buffer = np.empty(frames.shape[1:])
        for frame in frames:
            buffer[...] = frame
            yield buffer

    with bands(False):
        want = list(process_sequence(frames, cfg))
    with bands(True) as forks:
        kept, copies = [], []
        for r in process_sequence(refilled(), cfg):
            kept.append(r)
            copies.append([a.copy() for a in (r.flow.vx, r.flow.vy, r.flow.valid, r.disparity)])
    assert len(forks) == 1
    same_bits(kept, want)
    for r, copy in zip(kept, copies):
        for array, snapshot in zip((r.flow.vx, r.flow.vy, r.flow.valid, r.disparity), copy):
            assert array.tobytes() == snapshot.tobytes()
    assert_no_child()


def multi_strip_digests() -> dict:
    results = list(process_sequence(multi_strip_stream()))
    planes = {"vx": [r.flow.vx for r in results], "vy": [r.flow.vy for r in results],
              "dj": [r.disparity for r in results]}
    return {k: hashlib.sha256(b"".join(p.tobytes() for p in v)).hexdigest()
            for k, v in planes.items()}


def test_multi_strip_outputs_are_pinned_under_two_bands():
    with bands(True) as forks:
        got = multi_strip_digests()
    assert len(forks) == 1
    assert got == MULTI_STRIP_SHA256


def test_multi_strip_outputs_are_pinned_under_one_band():
    # 21x1600 frames run on two bands when nothing is patched
    with bands(False) as forks:
        got = multi_strip_digests()
    assert forks == []
    assert got == MULTI_STRIP_SHA256


def test_128x128_frames_run_on_two_bands_and_small_ones_on_one():
    assert len(flow._bands(128, 128, True)) == 2
    assert len(flow._bands(128, 128, False)) == 1
    # 64x64, where two bands did not win 9 pairs in 10, the square just
    # under the threshold, and a single row
    below = math.isqrt(flow._BAND_VALUES - 1)
    for height, width in ((64, 64), (below, below), (1, 4 * flow._BAND_VALUES)):
        assert len(flow._bands(height, width, True)) == 1


def test_an_unpatched_128x128_stream_forks_one_helper_and_keeps_the_bits():
    frames = scene(7, 128, 128, 5)
    with bands(False):
        want = list(process_sequence(frames))
    with spied_forks() as forks:
        got = list(process_sequence(frames))
    assert len(forks) == 1
    same_bits(got, want)
    assert_no_child()


FRAMES = scene(12, 16, 20, 3)


def test_frames_before_the_first_result_write_no_shared_plane():
    # band 1's rows of a shared plane that the caller wrote would stay in
    # its memory as well as in the helper's
    with bands(True) as forks:
        engine = flow._FlowEngine(FlowConfig(), FRAMES[0])
        try:
            for frame in FRAMES[: engine.cfg.frame_delay]:
                assert engine.step(frame) is None
            assert len(engine._bands) == 2
            assert not engine._g.any()
        finally:
            engine.close()
    assert forks == []


@pytest.mark.parametrize("how", ["break", "close"])
def test_a_stream_left_part_way_leaves_no_helper(how):
    with bands(True) as forks:
        if how == "break":
            for r in process_sequence(FRAMES):
                break
        else:
            stream = process_sequence(FRAMES)
            next(stream)
            stream.close()
    assert len(forks) == 1
    assert_no_child()


def test_an_exception_in_the_consumer_leaves_no_helper():
    with bands(True) as forks, pytest.raises(ZeroDivisionError):
        for r in process_sequence(FRAMES):
            1 / 0
    assert len(forks) == 1
    assert_no_child()


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in this thread if the block takes longer."""
    def timed_out(signum, frame):
        raise TimeoutError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_killed_helper_raises_runtime_error_and_never_hangs():
    with deadline(60), bands(True) as forks:
        stream = process_sequence(FRAMES)
        next(stream)
        os.kill(forks[0], signal.SIGKILL)
        with pytest.raises(RuntimeError, match=f"flow helper process {forks[0]} "):
            list(stream)
    assert_no_child()


def test_a_helper_that_fails_says_why_on_stderr(capfd):
    caller, tail = os.getpid(), flow._FlowEngine._STAGES[3]

    def tail_failing_in_the_helper(engine, band):
        if os.getpid() != caller:
            raise MemoryError("no room for the strip tail")
        tail(engine, band)

    stages = (*flow._FlowEngine._STAGES[:3], tail_failing_in_the_helper)
    with deadline(60), bands(True) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow._FlowEngine, "_STAGES", stages)
        with pytest.raises(RuntimeError) as raised:
            list(process_sequence(FRAMES))
    assert str(raised.value) == f"flow helper process {forks[0]} has exited"
    err = capfd.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert err.endswith("MemoryError: no room for the strip tail\n")
    assert_no_child()


def test_two_streams_at_once_each_reap_their_helper():
    # the second helper inherits the first's command pipe, so closing
    # that pipe alone would not end the first helper
    other = FRAMES[:, ::-1].copy()
    with bands(False):
        want = list(zip(process_sequence(FRAMES), process_sequence(other)))
    with deadline(60), bands(True) as forks:
        got = list(zip(process_sequence(FRAMES), process_sequence(other)))
    assert len(forks) == 2
    for side in (0, 1):
        same_bits([pair[side] for pair in got], [pair[side] for pair in want])
    assert_no_child()


def test_a_refused_fork_runs_both_bands_here_and_leaks_no_pipe():
    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    fds = len(os.listdir("/proc/self/fd"))
    with bands(False):
        want = list(process_sequence(FRAMES))
    with bands(True), pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", refuse)
        got = list(process_sequence(FRAMES))
    same_bits(got, want)
    assert len(os.listdir("/proc/self/fd")) == fds
    assert_no_child()


def test_the_helper_never_flushes_what_its_caller_printed():
    script = (
        "import sys\n"
        "from fadefilt import flow\n"
        "from fadefilt.flow import process_sequence\n"
        "from fadefilt.synthetic import translating_plaid\n"
        "flow._BAND_VALUES = 1\n"
        "print('printed once')\n"
        "results = list(process_sequence(translating_plaid(8, 16, 16, (0.3, 0.1))))\n"
        "print(len(results))\n"
    )
    src = str(Path(flow.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    # stdout is a buffered pipe, so the first line is still in the
    # caller's buffer at the fork
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "printed once\n4\n"


def test_nothing_forks_while_a_second_thread_runs():
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        with bands(True) as forks:
            got = list(process_sequence(FRAMES))
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forks == []
    with bands(False):
        same_bits(got, list(process_sequence(FRAMES)))


def test_a_thread_started_after_frame_0_keeps_both_bands_here():
    # the split is made on frame 0, before the thread starts; the fork,
    # due at the first result, must see the thread and not happen
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    splits = []
    real_bands = flow._bands

    def spy(*args):
        splits.append(real_bands(*args))
        return splits[-1]

    def producer():
        yield FRAMES[0]
        waiter.start()
        yield from FRAMES[1:]

    try:
        with bands(True) as forks, pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "_bands", spy)
            got = list(process_sequence(producer()))
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert [len(split) for split in splits] == [2]
    assert forks == []
    with bands(False):
        same_bits(got, list(process_sequence(FRAMES)))


def test_nothing_forks_when_q_exceeds_the_stream():
    with bands(True) as forks:
        assert list(process_sequence(FRAMES, FlowConfig(temporal_q=len(FRAMES)))) == []
    assert forks == []
