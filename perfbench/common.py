"""Statistics, child processes and environment facts shared by the
workloads."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

TAIL_BEYOND = 10  # samples that must lie above the reported tail


def tail_percentile(samples) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (percentile, value, sample count).  With N sorted samples the
    value is the one with exactly TAIL_BEYOND samples above it, at
    percentile 100 * (N - TAIL_BEYOND) / N.  With fewer than
    TAIL_BEYOND + 1 samples no such percentile exists and the maximum is
    reported at percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1], n
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1], n


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


class Tally:
    """Attempted operations and failures by reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}

    def add(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures[reason] = self.failures.get(reason, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # one process, no extra threads: keep BLAS single-threaded everywhere
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, timeout: float, log_path, echo: bool = True) -> tuple[int, float, float, str]:
    """Run a child to completion; return (exit code, wall seconds, peak
    RSS in MB, combined output).  The RSS is the largest of every child
    this process has waited for, so it is the child's own only in a
    process that starts one child (the launcher below).  Output goes to
    ``log_path`` rather than a pipe, so a chatty child cannot block.
    With ``echo`` the output of a failed child goes to stderr."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    output = Path(log_path).read_text(errors="replace")
    Path(log_path).unlink()
    if echo and proc.returncode:
        sys.stderr.write(output[-4000:])
    return proc.returncode, wall, peak, output


def run_measured_child(argv, timeout: float, log_path) -> tuple[int, float, float, str]:
    """run_child for a child whose peak RSS is reported.  Linux carries
    the high-water RSS of the spawning process into the child across
    exec, so the child is started from a small launcher process (this
    file run as a script) rather than from the benchmark, whose own peak
    would otherwise be counted; the launcher waits for that one child
    only."""
    launcher = [sys.executable, str(Path(__file__).resolve()), str(log_path) + ".inner",
                repr(timeout), *argv]
    code, _, _, output = run_child(launcher, timeout + 5.0, log_path)
    lines = output.strip().splitlines()
    if code != 0 or not lines:
        return code or 1, 0.0, 0.0, output
    code, wall, rss = json.loads(lines[-1])
    output = "\n".join(lines[:-1])
    if code:
        sys.stderr.write(output[-4000:])
    return code, wall, rss, output


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    # launcher: LOG TIMEOUT ARGV...; prints the child's output, then
    # [exit code, wall seconds, peak RSS MB] as the last line
    _code, _wall, _rss, _out = run_child(sys.argv[3:], float(sys.argv[2]), sys.argv[1], echo=False)
    sys.stdout.write(_out)
    print("\n" + json.dumps([_code, _wall, _rss]))
