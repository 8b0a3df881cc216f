"""design-sweep: design jobs over the documented design domain.

The grid covers B 0..6, D <= min(B, 2), kappa 0..2 (causal) and both
causalities, at a fixed pole ladder from 0.3 to 0.98, with the delay q
drawn from the seed in [0, 6] for causal designs.  Each job:

1. derives the filter, plus the tabulated closed form where one exists;
2. evaluates the response at 512 points, the white-noise gain and the
   flatness report;
3. runs filter_causal / filter_noncausal over a 65,536-sample signal;
4. streams FilterState.step over a prefix of that signal.

A job fails when it raises, when the realized filter's DC gain
(smoothers) or derivative gain (differentiators) is off 1, when table
and derivation disagree beyond the acceptance-suite tolerances, or when
the streamed prefix is not bitwise equal to filter_causal.

The timed loop runs the jobs of the well-conditioned part of the grid:
every degree at poles up to 0.7, and B <= 2 (the closed-form degrees)
at every pole, up to 0.98.  The rest of the grid, B >= 3 at poles 0.85
and above, is where the package's design path loses accuracy (DC or
derivative gains off 1, and `unstable denominator` at B = 6, kappa = 2,
p = 0.98); it runs once per run, untimed, as the census, whose failures
are reported on their own.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import common

POLES = (0.3, 0.5, 0.7, 0.85, 0.95, 0.98)
TIMED_MAX_POLE = 0.7  # every degree is timed up to this pole
TIMED_MAX_DEGREE = 2  # degrees timed at every pole
REF_EVERY = 2  # jobs between two host-speed reference samples
SIGNAL_LEN = 65536
STREAM_LEN = 2048
RESPONSE_POINTS = 512
GAIN_TOL = 1e-6
TABLE_COEFF_TOL = 1e-10  # acceptance criterion 1
TABLE_RESPONSE_TOL = 1e-8  # acceptance criterion 7
OP_SPAN = "bench.job"


@dataclass(frozen=True)
class Job:
    causal: bool
    degree: int
    derivative: int
    kappa: int
    pole: float
    q: float

    @property
    def label(self) -> str:
        kind = "causal" if self.causal else "two-sided"
        return (f"{kind} B={self.degree} D={self.derivative} kappa={self.kappa} "
                f"p={self.pole} q={self.q:.3f}")


def make_grid(seed: int) -> tuple[list[Job], np.ndarray, list[int]]:
    """Jobs in canonical order, the input signal, and the run order."""
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for causal in (True, False):
        for degree in range(7):
            for derivative in range(min(degree, 2) + 1):
                for kappa in (0, 1, 2) if causal else (0,):
                    for pole in POLES:
                        q = float(rng.uniform(0.0, 6.0)) if causal else 0.0
                        jobs.append(Job(causal, degree, derivative, kappa, pole, q))
    signal = rng.standard_normal(SIGNAL_LEN)
    order = [int(i) for i in rng.permutation(len(jobs))]
    return jobs, signal, order


def timed(job: Job) -> bool:
    """Whether a job belongs to the timed loop rather than the census."""
    return job.pole <= TIMED_MAX_POLE or job.degree <= TIMED_MAX_DEGREE


def build_design(ff, job: Job):
    causality = ff.Causality.CAUSAL if job.causal else ff.Causality.TWO_SIDED
    weight = ff.WeightSpec(sigma=math.log(job.pole), kappa=job.kappa, causality=causality)
    return ff.FilterDesign(degree=job.degree, derivative=job.derivative, weight=weight,
                           delay=job.q)


def _table(ff, job: Job):
    if job.degree != 2:
        return None
    causality = ff.Causality.CAUSAL if job.causal else ff.Causality.TWO_SIDED
    try:
        form = ff.closed_form_for(causality, job.kappa, job.derivative)
    except ValueError:
        return None
    return ff.closed_form_coefficients(form, job.pole, job.q)


def run_job(ff, job: Job, design, x: np.ndarray, span) -> dict:
    """The timed body of one job.  Returns the outputs the gates check."""
    if job.causal:
        filt = ff.derive_causal_lde(design)
    else:
        filt = ff.derive_noncausal_pair(design)
    table = _table(ff, job)
    grid = np.linspace(0.0, math.pi, RESPONSE_POINTS)
    ff.evaluate_response(filt, grid)
    halves = (filt,) if job.causal else (filt.forward, filt.backward)
    for half in halves:
        ff.white_noise_gain(half)
    ff.flatness_report(filt)
    y = ff.filter_causal(filt, x) if job.causal else ff.filter_noncausal(filt, x)
    streamed = None
    state_cls = getattr(ff, "FilterState", None)
    if state_cls is not None:
        with span("runtime.scalar_step"):
            state = state_cls(halves[0])
            streamed = np.array([state.step(v) for v in x[:STREAM_LEN]])
    return {"filt": filt, "table": table, "y": y, "streamed": streamed}


# ------------------------------------------------------------- gates

def _taylor(coeffs, order: int, sign: int) -> list[Fraction]:
    """Exact Taylor coefficients in s of sum_k c_k exp(-sign*k*s)."""
    cs = [Fraction(float(c)) for c in coeffs]
    return [
        sum(c * Fraction(-sign * k) ** j for k, c in enumerate(cs)) / math.factorial(j)
        for j in range(order + 1)
    ]


def realized_gain(lde, order: int, sign: int = 1) -> Fraction:
    """Coefficient of s**order in B(e^-s)/A(e^-s), computed exactly from
    the float coefficients as realized.  It is the DC gain for order 0
    and the derivative gain for order D >= 1 (1 for an exact D-th
    derivative estimator at unit sample period).  ``sign=-1`` gives the
    backward half of a two-sided pair, which runs over reversed time."""
    beta = _taylor(lde.b, order, sign)
    alpha = _taylor(lde.a, order, sign)
    eta: list[Fraction] = []
    for j in range(order + 1):
        acc = beta[j] - sum(alpha[i] * eta[j - i] for i in range(1, j + 1))
        eta.append(acc / alpha[0])
    return eta[order]


def check_job(ff, job: Job, out: dict, x: np.ndarray) -> tuple[str, str] | None:
    """Return (category, detail) when a finished job fails, else None."""
    filt = out["filt"]
    if job.causal:
        gain = realized_gain(filt, job.derivative)
    else:
        gain = (realized_gain(filt.forward, job.derivative)
                + realized_gain(filt.backward, job.derivative, sign=-1))
    if abs(float(gain) - 1.0) > GAIN_TOL:
        what = "dc_gain" if job.derivative == 0 else "derivative_gain"
        return what, f"{what} {float(gain):.9g} off 1 by more than {GAIN_TOL:g}"
    table = out["table"]
    if table is not None:
        if job.causal:
            gap = max(float(np.max(np.abs(filt.b - table.b))),
                      float(np.max(np.abs(filt.a - table.a))))
            tol = TABLE_COEFF_TOL
        else:
            grid = np.linspace(0.0, math.pi, 129)
            gap = float(np.max(np.abs(ff.frequency_response(filt, grid)
                                      - ff.frequency_response(table, grid))))
            tol = TABLE_RESPONSE_TOL
        if not gap <= tol:
            return "table_mismatch", f"table and derivation differ by {gap:.3e} (tol {tol:g})"
    if out["streamed"] is not None:
        if job.causal:
            ref = out["y"][:STREAM_LEN]
        else:
            ref = ff.filter_causal(filt.forward, x[:STREAM_LEN])
        if not np.array_equal(out["streamed"], ref):
            return "stream_mismatch", "FilterState.step not bitwise equal to filter_causal"
    return None


def digest(out: dict | None) -> bytes:
    h = hashlib.sha256()
    if out is None:
        h.update(b"raised")
        return h.digest()
    filt = out["filt"]
    for lde in (filt,) if hasattr(filt, "b") else (filt.forward, filt.backward):
        h.update(np.asarray(lde.b, dtype=np.float64).tobytes())
        h.update(np.asarray(lde.a, dtype=np.float64).tobytes())
    return h.digest()


# ---------------------------------------------------------------- run

def _no_span(name):
    return contextlib.nullcontext()


def setup(ff, seed: int):
    """Set-up work: the grid and its validated design objects."""
    jobs, signal, order = make_grid(seed)
    return jobs, signal, order, [build_design(ff, job) for job in jobs]


def _attempt(ff, job: Job, design, signal: np.ndarray, span):
    """Run one job; return (outputs, None) or (None, (category, detail))."""
    try:
        return run_job(ff, job, design, signal, span), None
    except Exception as exc:  # job boundary: record and keep sweeping
        return None, (f"raised_{type(exc).__name__}", f"{type(exc).__name__}: {exc}")


def run(ff, prepared, seconds: float, tracer=None, clock=None) -> dict:
    """Closed loop over the timed jobs of the grid made by ``setup``, in
    shuffled order.  The first pass always completes; later passes stop
    when ``seconds`` are used.  With a ``clock`` a host-speed reference
    sample is taken every REF_EVERY jobs, outside the job's time."""
    jobs, signal, order, designs = prepared
    span = tracer.span if tracer else _no_span
    paused = tracer.paused if tracer else contextlib.nullcontext
    timed_order = [i for i in order if timed(jobs[i])]
    stamps: list[float] = []
    durations: list[float] = []
    tally = common.Tally()
    failed_jobs: dict[int, str] = {}
    first_digests: dict[int, bytes] = {}
    deterministic = True
    start = time.perf_counter()
    for n, index in enumerate(itertools.cycle(timed_order)):
        first_pass = n < len(timed_order)
        if not first_pass and time.perf_counter() - start >= seconds:
            break
        if clock is not None and n % REF_EVERY == 0:
            clock.sample()
        job = jobs[index]
        t0 = time.perf_counter()
        with span(OP_SPAN):
            out, error = _attempt(ff, job, designs[index], signal, span)
        stamps.append(t0)
        durations.append(time.perf_counter() - t0)
        if out is not None:
            with paused():
                error = check_job(ff, job, out, signal)
        tally.add(error[0] if error else None)
        if error is not None:
            failed_jobs.setdefault(index, error[1])
        d = digest(out)
        if first_pass:
            first_digests[index] = d
        elif first_digests[index] != d:
            deterministic = False
    if clock is not None:
        clock.sample()
    return {
        "stamps": stamps,
        "durations": durations,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "failed_jobs": {jobs[i].label: why for i, why in sorted(failed_jobs.items())},
        "deterministic": deterministic,
        "checksums": {"b_a": grid_checksum(first_digests)},
        "digests": first_digests,
        "busy_s": sum(durations),
        "ops": tally.attempted,
    }


def census(ff, prepared) -> dict:
    """Run every job outside the timed loop once, untimed, and check it."""
    jobs, signal, order, designs = prepared
    tally = common.Tally()
    failed_jobs: dict[str, str] = {}
    digests: dict[int, bytes] = {}
    for index, job in enumerate(jobs):
        if timed(job):
            continue
        out, error = _attempt(ff, job, designs[index], signal, _no_span)
        if out is not None:
            error = check_job(ff, job, out, signal)
        tally.add(error[0] if error else None)
        if error is not None:
            failed_jobs[job.label] = error[1]
        digests[index] = digest(out)
    return {"attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
            "failed_jobs": failed_jobs, "digests": digests}


def grid_checksum(*digest_maps: dict[int, bytes]) -> str:
    """SHA-256 of every job's b/a digest in canonical grid order."""
    merged: dict[int, bytes] = {}
    for m in digest_maps:
        merged.update(m)
    return hashlib.sha256(b"".join(merged[i] for i in sorted(merged))).hexdigest()
