"""The flow engine's two bands: a forked helper runs band 1 of every
stage over shared memory.  Two bands must give the bits of one, and the
helper must never outlive its stream, hang its caller or run where a
fork is unsafe."""

import contextlib
import hashlib
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

from fadefilt import flow, runtime
from fadefilt.flow import FlowConfig, process_sequence
from fadefilt.synthetic import add_gaussian_blob, translating_plaid

from test_flow import MULTI_STRIP_SHA256, multi_strip_stream

pytestmark = pytest.mark.skipif(not flow._can_fork(),
                                reason="two bands need fork, two CPUs and no other thread")


@contextlib.contextmanager
def bands(two: bool):
    """Frames of any size run on two bands (when they have two rows and
    two columns), or every frame on one; yields the list of forked pids."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "_BAND_VALUES", 1 if two else 2**62)
        mp.setattr(os, "fork", fork)
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
@given(height=st.integers(1, 23), width=st.integers(1, 29), q=st.sampled_from([0, 4]),
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


def test_multi_strip_outputs_are_pinned_under_two_bands():
    with bands(True) as forks:
        results = list(process_sequence(multi_strip_stream()))
    assert len(forks) == 1
    planes = {"vx": [r.flow.vx for r in results], "vy": [r.flow.vy for r in results],
              "dj": [r.disparity for r in results]}
    got = {k: hashlib.sha256(b"".join(p.tobytes() for p in v)).hexdigest()
           for k, v in planes.items()}
    assert got == MULTI_STRIP_SHA256


FRAMES = scene(12, 16, 20, 3)


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
        "from fadefilt import runtime\n"
        "from fadefilt.flow import process_sequence\n"
        "from fadefilt.synthetic import translating_plaid\n"
        "runtime._BAND_VALUES = 1\n"
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


def test_nothing_forks_when_q_exceeds_the_stream():
    with bands(True) as forks:
        assert list(process_sequence(FRAMES, FlowConfig(temporal_q=len(FRAMES)))) == []
    assert forks == []
