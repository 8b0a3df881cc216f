"""The flow engine's helper schedule, the pipeline: a forked helper runs
the gradients and row passes of frame n over shared memory while the
caller finishes frame n - 1.  It must give the bits of one process, map
no more than it needs, and never outlive its stream, hang its caller or
run where a fork is unsafe."""

import contextlib
import errno
import gc
import hashlib
import math
import os
import signal
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fadefilt import flow
from fadefilt.flow import FlowConfig, process_sequence
from fadefilt.synthetic import add_gaussian_blob, translating_plaid

from test_flow import MULTI_STRIP_SHA256, multi_strip_stream

pytestmark = pytest.mark.skipif(not flow._can_fork(),
                                reason="the pipeline needs fork, two CPUs and no other thread")


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
HELPERS = ("pipeline",)


@contextlib.contextmanager
def schedule(how: str):
    """Frames of any size run in one process or in the pipeline, by the
    helper threshold; yields the list of forked pids."""
    values = {"one": 2**62, "pipeline": 1}[how]
    with spied_forks() as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_HELPER_VALUES", values)
        yield forks


@contextlib.contextmanager
def spied_schedules():
    """Yields the list of what flow._schedule returns: whether to pipeline."""
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(height=st.integers(1, 23), width=st.integers(1, 29), q=st.sampled_from([0, 1, 2, 4, 9]),
       extra=st.integers(1, 4), seed=st.integers(0, 2**16))
# frames of two and more rows and columns, once the only ones that two
# bands took, at the shortest and the longest delay lines
@example(height=2, width=2, q=0, extra=3, seed=1)
@example(height=17, width=23, q=1, extra=4, seed=2)
@example(height=9, width=2, q=9, extra=2, seed=3)
def test_the_pipeline_gives_the_bits_of_one_band(height, width, q, extra, seed):
    cfg = FlowConfig(temporal_q=q)
    frames = scene(q + extra, height, width, seed)
    with schedule("one"):
        want = list(process_sequence(frames, cfg))
    with schedule("pipeline") as forks, spied_schedules() as schedules:
        got = list(process_sequence(frames, cfg))
    assert schedules == [True]
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


def test_multi_strip_outputs_are_pinned_under_the_pipeline():
    # 21x1600 frames take the pipeline when nothing is patched
    with spied_forks() as forks, spied_schedules() as schedules:
        got = multi_strip_digests()
    assert schedules == [True]
    assert len(forks) == 1
    assert got == MULTI_STRIP_SHA256


def test_multi_strip_outputs_are_pinned_under_one_band():
    with schedule("one") as forks:
        got = multi_strip_digests()
    assert forks == []
    assert got == MULTI_STRIP_SHA256


def test_the_schedule_follows_the_frame_size():
    # 128x128 and 640x480 take the pipeline, and nothing does without a fork
    for height, width in ((128, 128), (480, 640), (96, 96), (1, flow._HELPER_VALUES)):
        assert flow._schedule(height, width, True)
        assert not flow._schedule(height, width, False)
    # 64x64, where the first helper schedule did not win 9 pairs in 10,
    # and the square just under the threshold run in one process
    below = math.isqrt(flow._HELPER_VALUES - 1)
    for height, width in ((64, 64), (below, below), (1, flow._HELPER_VALUES - 1)):
        assert not flow._schedule(height, width, True)


def test_an_unpatched_128x128_stream_forks_one_helper_and_keeps_the_bits():
    frames = scene(7, 128, 128, 5)
    with schedule("one"):
        want = list(process_sequence(frames))
    with spied_forks() as forks, spied_schedules() as schedules:
        got = list(process_sequence(frames))
    assert schedules == [True]
    assert len(forks) == 1
    same_bits(got, want)
    assert_no_child()


FRAMES = scene(12, 16, 20, 3)


def test_frames_before_the_first_result_write_no_shared_plane():
    # until the first result is due a frame only fills the delay line: no
    # slot, no plane but the ring, no I_z state, no fork and no fork check;
    # from then on each later frame n goes to the helper through inbox[n % 2]
    checks, real_can_fork = [], flow._can_fork

    def can_fork():
        checks.append(real_can_fork())
        return checks[-1]

    with schedule("pipeline") as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_can_fork", can_fork)
        engine = flow._FlowEngine(FlowConfig(), FRAMES[0])
        try:
            q = engine.cfg.frame_delay
            for frame in FRAMES[:q]:
                assert engine.step(frame) is None
                assert not hasattr(engine, "_slots") and not hasattr(engine, "_inbox")
                assert not any(isinstance(v, (np.ndarray, flow.FrameFilter))
                               for v in vars(engine).values())
            assert (checks, forks) == ([], [])
            # frame q is in the ring at the fork, so it leaves the inbox unwritten
            results = [engine.step(FRAMES[q])]
            assert checks == [True] and len(forks) == 1 and len(engine._slots) == 2
            assert engine._inbox.shape == (2,) + FRAMES[0].shape and not engine._inbox.any()
            for n in range(q + 1, len(FRAMES)):
                results.append(engine.step(FRAMES[n]))
                assert engine._inbox[n % 2].tobytes() == FRAMES[n].tobytes()
            # each result comes one frame late, and flush gives the last
            assert results[0] is None
            results = results[1:] + [engine.flush()]
            assert [r.frame_index for r in results] == list(range(len(FRAMES) - q))
        finally:
            engine.close()
    assert_no_child()


@pytest.mark.parametrize("q", [4, 9])
def test_a_pipelined_stream_maps_what_it_needs_and_no_more(q):
    # 15 workspace planes for both slots, 3 gradient planes a slot, a
    # 2-plane inbox and a ring of q + 1 frames, and the 8-byte frame index
    made, real_shared = [], flow._shared

    def shared(shape, dtype=float):
        made.append(real_shared(shape, dtype))
        return made[-1]

    frames = scene(q + 3, 16, 20, q)
    with schedule("pipeline") as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_shared", shared)
        got = list(process_sequence(frames, FlowConfig(temporal_q=q)))
    assert len(forks) == 1 and len(got) == 3
    assert sum(a.nbytes for a in made) == 8 * (15 + 2 * 3 + 2 + q + 1) * 16 * 20 + 8
    assert_no_child()


@pytest.mark.parametrize("refused", [False, True])
def test_after_the_first_result_only_the_helper_holds_the_ring_and_i_z(refused):
    # once forked, the caller drops its ring views, so their mappings close
    # here, and never builds I_z; a refused fork keeps both here and runs
    # every stage with no lag, with the bits of one process
    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    with schedule("one"):
        want = list(process_sequence(FRAMES))
    with schedule("pipeline") as forks, pytest.MonkeyPatch.context() as mp:
        if refused:
            mp.setattr(os, "fork", refuse)
        engine = flow._FlowEngine(FlowConfig(), FRAMES[0])
        try:
            q = engine.cfg.frame_delay
            for frame in FRAMES[:q]:
                engine.step(frame)
            # the arrays over each of the ring's mappings, which they keep open
            ring = [weakref.ref(a) for a in {id(p.base): p.base for p in engine._ring}.values()]
            results = [engine.step(frame) for frame in FRAMES[q:]] + [engine.flush()]
            gc.collect()
            if refused:
                assert forks == [] and results[-1] is None
                assert isinstance(engine._iz_state, flow.FrameFilter)
                assert all(plane() is not None for plane in ring)
                results.pop()
            else:
                assert len(forks) == 1 and results[0] is None
                assert not hasattr(engine, "_iz_state") and engine._ring == []
                assert not any(isinstance(v, flow.FrameFilter) for v in vars(engine).values())
                assert all(plane() is None for plane in ring)
                results.pop(0)
            same_bits(results, want)
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
    # the helper runs the row passes
    caller, row_pass = os.getpid(), flow._FlowEngine._STAGES[1]

    def row_pass_failing_in_the_helper(engine):
        if os.getpid() != caller:
            raise MemoryError("no room for the row passes")
        row_pass(engine)

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
    assert pipes == [0, 1]
    assert_no_child()


def test_the_helper_never_flushes_what_its_caller_printed():
    script = (
        "import sys\n"
        "from fadefilt import flow\n"
        "from fadefilt.flow import process_sequence\n"
        "from fadefilt.synthetic import translating_plaid\n"
        "flow._HELPER_VALUES = 1\n"
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
        "flow._HELPER_VALUES = 2**62\n"
        "want = list(process_sequence(frames))\n"
        "flow._HELPER_VALUES = 1\n"
        "def bits(results):\n"
        "    return [b''.join(a.tobytes() for a in (r.flow.vx, r.flow.vy, r.flow.valid,\n"
        "                                           r.disparity)) for r in results]\n"
        "stream = process_sequence(frames)\n"
        "got = [next(stream), next(stream)]\n"
        "sys.stdout.flush()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    sys.exit(0)\n"
        "assert os.waitpid(pid, 0)[1] == 0\n"
        "got += stream\n"
        "print(len(got), bits(got) == bits(want))\n"
    )
    src = str(Path(flow.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "8 True\n"


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


def test_nothing_forks_when_q_exceeds_the_stream():
    for how in HELPERS:
        with schedule(how) as forks:
            assert list(process_sequence(FRAMES, FlowConfig(temporal_q=len(FRAMES)))) == []
        assert forks == []
