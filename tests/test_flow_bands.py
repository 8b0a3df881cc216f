"""The flow engine's helper schedules: a forked helper runs band 1 of
every stage over shared memory (two bands), or the gradients and row
passes of frame n while the caller finishes frame n - 1 (the pipeline).
Both must give the bits of one band, and the helper must never outlive
its stream, hang its caller or run where a fork is unsafe."""

import contextlib
import errno
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


# the schedules that fork a helper
HELPERS = ("bands", "pipeline")


@contextlib.contextmanager
def schedule(how: str):
    """Frames of any size run on one band, in the pipeline, or on two
    bands (when they have two rows and two columns, else in the
    pipeline), by both thresholds; yields the list of forked pids."""
    values = {"one": (2**62, 2**62), "pipeline": (1, 2**62), "bands": (1, 1)}[how]
    with spied_forks() as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_BAND_VALUES", values[0])
        mp.setattr(flow, "_SPLIT_VALUES", values[1])
        yield forks


@contextlib.contextmanager
def spied_schedules():
    """Yields the list of the (slots, bands) that flow._schedule returns."""
    schedules = []
    real_schedule = flow._schedule

    def spy(*args):
        schedules.append(real_schedule(*args))
        return schedules[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_schedule", spy)
        yield schedules


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
    with schedule("one") as forks:
        want = list(process_sequence(frames, cfg))
    assert forks == []
    with schedule("bands") as forks, spied_schedules() as schedules:
        got = list(process_sequence(frames, cfg))
    # a frame of one row or one column has no second band, so it takes
    # the pipeline
    assert [len(split) for _, split in schedules] == [2 if min(height, width) >= 2 else 1]
    assert len(forks) == 1
    same_bits(got, want)
    assert_no_child()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(height=st.integers(1, 23), width=st.integers(1, 29), q=st.sampled_from([0, 1, 2, 4, 9]),
       extra=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_the_pipeline_gives_the_bits_of_one_band(height, width, q, extra, seed):
    cfg = FlowConfig(temporal_q=q)
    frames = scene(q + extra, height, width, seed)
    with schedule("one"):
        want = list(process_sequence(frames, cfg))
    with schedule("pipeline") as forks, spied_schedules() as schedules:
        got = list(process_sequence(frames, cfg))
    assert [slots for slots, _ in schedules] == [2]
    assert len(forks) == 1
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

    with schedule("one"):
        want = list(process_sequence(frames, cfg))
    for how in HELPERS:
        with schedule(how) as forks:
            kept, copies = [], []
            for r in process_sequence(refilled(), cfg):
                kept.append(r)
                copies.append([a.copy() for a in (r.flow.vx, r.flow.vy, r.flow.valid,
                                                  r.disparity)])
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
    with schedule("bands") as forks:
        got = multi_strip_digests()
    assert len(forks) == 1
    assert got == MULTI_STRIP_SHA256


def test_multi_strip_outputs_are_pinned_under_the_pipeline():
    # 21x1600 frames take the pipeline when nothing is patched
    with spied_forks() as forks, spied_schedules() as schedules:
        got = multi_strip_digests()
    assert [slots for slots, _ in schedules] == [2]
    assert len(forks) == 1
    assert got == MULTI_STRIP_SHA256


def test_multi_strip_outputs_are_pinned_under_one_band():
    with schedule("one") as forks:
        got = multi_strip_digests()
    assert forks == []
    assert got == MULTI_STRIP_SHA256


def test_the_schedule_follows_the_frame_size():
    one, pipeline = (1, [(slice(0, 128), slice(0, 128))]), (2, [(slice(0, 128), slice(0, 128))])
    assert flow._schedule(128, 128, True) == pipeline
    assert flow._schedule(128, 128, False) == one
    assert flow._schedule(480, 640, True) == (1, [(slice(0, 240), slice(0, 320)),
                                                   (slice(240, 480), slice(320, 640))])
    assert len(flow._schedule(480, 640, False)[1]) == 1
    # 64x64, where two bands did not win 9 pairs in 10, and the square
    # just under the threshold run in one process
    below = math.isqrt(flow._BAND_VALUES - 1)
    for height, width in ((64, 64), (below, below)):
        assert flow._schedule(height, width, True)[0] == 1
    # the pipeline runs up to the split, and a row too long for it, which
    # has no second band, stays in the pipeline
    side = math.isqrt(flow._SPLIT_VALUES - 1)
    for height, width in ((96, 96), (side, side), (1, 4 * flow._SPLIT_VALUES)):
        assert flow._schedule(height, width, True) == (2, [(slice(0, height), slice(0, width))])
    assert len(flow._schedule(side + 1, side + 1, True)[1]) == 2


def test_an_unpatched_128x128_stream_forks_one_helper_and_keeps_the_bits():
    frames = scene(7, 128, 128, 5)
    with schedule("one"):
        want = list(process_sequence(frames))
    with spied_forks() as forks, spied_schedules() as schedules:
        got = list(process_sequence(frames))
    assert [slots for slots, _ in schedules] == [2]
    assert len(forks) == 1
    same_bits(got, want)
    assert_no_child()


FRAMES = scene(12, 16, 20, 3)


def test_frames_before_the_first_result_write_no_shared_plane():
    # until the first result is due a frame only fills the delay line: no
    # band, no plane but the ring, no I_z state, no fork and no fork check
    for how in HELPERS:
        checks, real_can_fork = [], flow._can_fork

        def can_fork():
            checks.append(real_can_fork())
            return checks[-1]

        with schedule(how) as forks, pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "_can_fork", can_fork)
            engine = flow._FlowEngine(FlowConfig(), FRAMES[0])
            try:
                q = engine.cfg.frame_delay
                for frame in FRAMES[:q]:
                    assert engine.step(frame) is None
                    assert not hasattr(engine, "_bands") and not hasattr(engine, "_g")
                    assert not any(isinstance(v, (np.ndarray, flow._Band, flow.FrameFilter))
                                   for v in vars(engine).values())
                assert (checks, forks) == ([], [])
                results = [engine.step(frame) for frame in FRAMES[q:]] + [engine.flush()]
                assert checks == [True] and len(forks) == 1
                if how == "bands":
                    assert len(engine._slots) == 1 and len(engine._bands) == 2
                    assert len(engine._ring) == q + 1 and results[-1] is None
                    results.pop()
                else:  # each result comes one frame late, and flush gives the last
                    assert len(engine._slots) == 2 and len(engine._bands) == 1
                    assert len(engine._ring) == q + 2 and results[0] is None
                    results.pop(0)
                assert [r.frame_index for r in results] == list(range(len(FRAMES) - q))
            finally:
                engine.close()
        assert_no_child()


@pytest.mark.parametrize("how", ["break", "close"])
def test_a_stream_left_part_way_leaves_no_helper(how):
    for helper in HELPERS:
        with schedule(helper) as forks:
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
    for how in HELPERS:
        with schedule(how) as forks, pytest.raises(ZeroDivisionError):
            for r in process_sequence(FRAMES):
                1 / 0
        assert len(forks) == 1
        assert_no_child()


@pytest.mark.parametrize("how", ("one",) + HELPERS)
def test_a_failing_stream_still_yields_every_result_due_before_it(how):
    # frame 7 is mis-shaped: the results for frames 0 to 6 - q come out,
    # the pipeline's pending one too, and then the stream's error
    frames = list(FRAMES)
    frames[7] = frames[7][:, :5]
    with schedule("one"):
        want = list(process_sequence(FRAMES[:7]))
    got = []
    with schedule(how) as forks, pytest.raises(ValueError, match=r"^frame 7 has shape"):
        for r in process_sequence(frames):
            got.append(r)
    assert len(forks) == (how != "one")
    same_bits(got, want)
    assert [r.frame_index for r in got] == list(range(7 - FlowConfig().frame_delay))

    def producer():
        yield from FRAMES[:7]
        raise OSError("the camera went away")

    with schedule(how), pytest.raises(OSError, match="the camera went away"):
        got = []
        for r in process_sequence(producer()):
            got.append(r)
    same_bits(got, want)
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
    for how in HELPERS:
        with deadline(60), schedule(how) as forks:
            stream = process_sequence(FRAMES)
            next(stream)
            os.kill(forks[0], signal.SIGKILL)
            with pytest.raises(RuntimeError, match=f"flow helper process {forks[0]} "):
                list(stream)
        assert_no_child()


def test_a_helper_that_fails_says_why_on_stderr(capfd):
    # the helper runs the row passes under either schedule
    caller, row_pass = os.getpid(), flow._FlowEngine._STAGES[1]

    def row_pass_failing_in_the_helper(engine, band):
        if os.getpid() != caller:
            raise MemoryError("no room for the row passes")
        row_pass(engine, band)

    stages = (flow._FlowEngine._STAGES[0], row_pass_failing_in_the_helper,
              *flow._FlowEngine._STAGES[2:])
    for how in HELPERS:
        with deadline(60), schedule(how) as forks, pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow._FlowEngine, "_STAGES", stages)
            with pytest.raises(RuntimeError) as raised:
                list(process_sequence(FRAMES))
        assert str(raised.value) == f"flow helper process {forks[0]} has exited"
        err = capfd.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert err.endswith("MemoryError: no room for the row passes\n")
        assert_no_child()


def test_two_streams_at_once_each_reap_their_helper():
    # the second helper inherits the first's command pipe, so closing
    # that pipe alone would not end the first helper
    other = FRAMES[:, ::-1].copy()
    with schedule("one"):
        want = list(zip(process_sequence(FRAMES), process_sequence(other)))
    for how in HELPERS:
        with deadline(60), schedule(how) as forks:
            got = list(zip(process_sequence(FRAMES), process_sequence(other)))
        assert len(forks) == 2
        for side in (0, 1):
            same_bits([pair[side] for pair in got], [pair[side] for pair in want])
        assert_no_child()


def test_a_refused_fork_runs_both_bands_here_and_leaks_no_pipe():
    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    pipes, real_pipe = [], os.pipe

    def refuse_the_second_pipe():
        pipes.append(len(pipes))
        if len(pipes) % 2 == 0:
            raise OSError(errno.EMFILE, "Too many open files")
        return real_pipe()

    fds = len(os.listdir("/proc/self/fd"))
    with schedule("one"):
        want = list(process_sequence(FRAMES))
    for how in HELPERS:
        for name, refused in (("fork", refuse), ("pipe", refuse_the_second_pipe)):
            with schedule(how) as forks, pytest.MonkeyPatch.context() as mp:
                mp.setattr(os, name, refused)
                got = list(process_sequence(FRAMES))
            assert forks == []
            same_bits(got, want)
            assert len(os.listdir("/proc/self/fd")) == fds
    assert pipes == [0, 1, 2, 3]
    assert_no_child()


def test_the_helper_never_flushes_what_its_caller_printed():
    script = (
        "import sys\n"
        "from fadefilt import flow\n"
        "from fadefilt.flow import process_sequence\n"
        "from fadefilt.synthetic import translating_plaid\n"
        "flow._BAND_VALUES = 1\n"
        "print('printed once')\n"
        "for split in (1, 2**62):  # two bands, then the pipeline\n"
        "    flow._SPLIT_VALUES = split\n"
        "    results = list(process_sequence(translating_plaid(8, 16, 16, (0.3, 0.1))))\n"
        "    print(len(results))\n"
    )
    src = str(Path(flow.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    # stdout is a buffered pipe, so the first line is still in the
    # caller's buffer at the fork
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "printed once\n4\n4\n"


def test_a_forked_child_leaves_its_parents_helper_running():
    # the child leaves through sys.exit, so its atexit hooks run the
    # stream's finalizer; only the process that forked the helper may
    # stop it
    script = (
        "import os, sys\n"
        "from fadefilt import flow\n"
        "from fadefilt.flow import process_sequence\n"
        "from fadefilt.synthetic import translating_plaid\n"
        "frames = translating_plaid(12, 16, 16, (0.3, 0.1))\n"
        "flow._BAND_VALUES = 2**62\n"
        "want = list(process_sequence(frames))\n"
        "flow._BAND_VALUES = 1\n"
        "def bits(results):\n"
        "    return [b''.join(a.tobytes() for a in (r.flow.vx, r.flow.vy, r.flow.valid,\n"
        "                                           r.disparity)) for r in results]\n"
        "for split in (1, 2**62):  # two bands, then the pipeline\n"
        "    flow._SPLIT_VALUES = split\n"
        "    stream = process_sequence(frames)\n"
        "    got = [next(stream), next(stream)]\n"
        "    sys.stdout.flush()\n"
        "    pid = os.fork()\n"
        "    if pid == 0:\n"
        "        sys.exit(0)\n"
        "    assert os.waitpid(pid, 0)[1] == 0\n"
        "    got += stream\n"
        "    print(len(got), bits(got) == bits(want))\n"
    )
    src = str(Path(flow.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "8 True\n8 True\n"


def test_nothing_forks_while_a_second_thread_runs():
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        for how in HELPERS:
            with schedule(how) as forks:
                got = list(process_sequence(FRAMES))
            assert forks == []
            with schedule("one"):
                same_bits(got, list(process_sequence(FRAMES)))
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()


def test_a_thread_started_after_frame_0_keeps_both_bands_here():
    # the split waits for the first result, so a thread alive then keeps
    # the whole frame in this process as one band
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)

    def producer():
        yield FRAMES[0]
        waiter.start()
        yield from FRAMES[1:]

    try:
        with schedule("bands") as forks, spied_schedules() as schedules:
            got = list(process_sequence(producer()))
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert [(slots, len(split)) for slots, split in schedules] == [(1, 1)]
    assert forks == []
    with schedule("one"):
        same_bits(got, list(process_sequence(FRAMES)))


def test_a_thread_joined_before_the_first_result_leaves_two_bands():
    # a thread alive at frame 0 but gone when the first result is due
    # does not keep the stream from forking
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()

    def producer():
        yield FRAMES[0]
        stop.set()
        waiter.join(timeout=10)
        yield from FRAMES[1:]

    try:
        with schedule("bands") as forks, spied_schedules() as schedules:
            got = list(process_sequence(producer()))
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert [(slots, len(split)) for slots, split in schedules] == [(1, 2)]
    assert len(forks) == 1
    with schedule("one"):
        same_bits(got, list(process_sequence(FRAMES)))
    assert_no_child()


def test_nothing_forks_when_q_exceeds_the_stream():
    for how in HELPERS:
        with schedule(how) as forks:
            assert list(process_sequence(FRAMES, FlowConfig(temporal_q=len(FRAMES)))) == []
        assert forks == []
