"""Input sweep of the command-line entry point.

Hypothesis drives fadefilt.cli.main(argv) in process for design,
response and flow with numeric flags drawn from finite values, signed
zeros, subnormal and huge magnitudes, infinities, NaN, exponent forms
and integers outside every range.  Whatever it draws, a run ends in a
documented exit code (0, 2, 3 or 4) with at most one ``error:`` line
and no traceback; design and response runs also print no numpy
RuntimeWarning, which is raised there as an error.

Sizes that allocate (``--points``, ``--temporal-q``) are drawn only at
or below 10**4 or at or above 10**15 elements: the small ones are
cheap, and no host can allocate the large ones, so no draw asks for
real memory.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadefilt.cli import main
from fadefilt.fileio import write_float_stack
from fadefilt.synthetic import translating_plaid

DOCUMENTED_EXITS = {0, 2, 3, 4}

SPECIAL = ["0", "-0", "0.0", "-0.0", "1e-300", "-1e-300", "5e-324", "-5e-324",
           "1e300", "-1e300", "inf", "-inf", "+inf", "nan", "-nan", "NaN", "Infinity"]
OUT_OF_RANGE = [2**31, -(2**31) - 1, 2**53 + 1, 2**63 - 1, 2**63, -(2**63) - 1,
                2**64, 10**20, -(10**20), 10**400]

finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
exponent = st.builds("{}e{}".format, st.sampled_from(["1", "-1", "2.5", "-.5", "7", "-3"]),
                     st.integers(-330, 330))
out_of_range = st.sampled_from(OUT_OF_RANGE).map(str)
small_int = st.integers(-3, 9).map(str)
number = st.one_of(finite, st.sampled_from(SPECIAL), exponent, out_of_range, small_int)
# an allocating size: at most 10**4, at least 10**15, or text that
# reads as neither an integer nor a float in between
size = st.one_of(
    st.integers(-5, 10**4).map(str),
    st.integers(10**15, 10**30).map(str),
    st.sampled_from(OUT_OF_RANGE).filter(lambda n: n <= 10**4 or n >= 10**15).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e300", "1e15", "1e20", "-1e-300", "0.5", "4.0"]),
)


def _flags(options: dict) -> st.SearchStrategy[list[str]]:
    """Up to three of ``options`` (flag -> value strategy), each as
    --flag=value; a later flag overrides the same one in a base design."""
    chosen = st.lists(st.sampled_from(sorted(options)), unique=True, max_size=3)
    return chosen.flatmap(lambda names: st.tuples(*(
        options[name].map(lambda value, name=name: f"{name}={value}") for name in names
    )).map(list))


DESIGN = {"--B": st.one_of(small_int, number), "--D": st.one_of(small_int, number),
          "--kappa": st.one_of(small_int, number), "--sigma": number, "--pole": number,
          "--q": st.one_of(number, st.just("auto")), "--T": number}
RESPONSE = dict(DESIGN, **{"--points": size})
FLOW = {"--spatial-sigma": number, "--temporal-sigma": number,
        "--temporal-q": size, "--temporal-kappa": st.one_of(small_int, number),
        "--smoothing-pole": number, "--det-threshold": number, "--t-space": number,
        "--t-time": number}


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def _check(argv: list[str]) -> None:
    code, err = _run(argv)
    assert code in DOCUMENTED_EXITS, (argv, code, err)
    assert sum(line.startswith("error:") or ": error:" in line
               for line in err.splitlines()) <= 1, (argv, err)
    assert "Traceback" not in err, (argv, err)


# a valid design for the drawn flags to perturb, or none
base_design = st.one_of(st.just([]), st.builds(
    lambda degree, derivative, kappa, rate, source: [
        "--B", str(degree), "--D", str(min(derivative, degree)), "--kappa", str(kappa),
        "--sigma", rate, "--source", source],
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 2),
    st.sampled_from(["-0.5", "-0.1", "-1.2"]), st.sampled_from(["derive", "table", "both-compare"]),
))

SWEEP = settings(max_examples=300, deadline=None, derandomize=True)


@SWEEP
@given(flags=_flags(DESIGN), base=base_design, fmt=st.sampled_from(["json", "csv"]))
def test_design_sweep_ends_in_a_documented_exit(flags, base, fmt):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check(["design", *base, *flags, "--format", fmt])


@SWEEP
@given(flags=_flags(RESPONSE), base=base_design, flatness=st.booleans())
def test_response_sweep_ends_in_a_documented_exit(flags, base, flatness):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _check(["response", *base, *flags] + (["--report-flatness"] if flatness else []))


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    path = tmp_path_factory.mktemp("sweep") / "frames.f32"
    write_float_stack(path, translating_plaid(8, 8, 8, velocity=(0.5, -0.25)))
    return str(path)


@SWEEP
@given(flags=_flags(FLOW), strict=st.booleans())
def test_flow_sweep_ends_in_a_documented_exit(stack, flags, strict):
    with tempfile.TemporaryDirectory() as out:
        _check(["flow", "--frames", stack, "--out", f"{out}/run", *flags]
               + (["--strict"] if strict else []))
