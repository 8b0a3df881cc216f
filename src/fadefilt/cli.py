"""Command-line interface.

Subcommands:

* ``design``   derive or look up coefficients, emit JSON or CSV
* ``response`` tabulate magnitude / phase / group delay over [0, pi]
* ``filter``   run a filter over a CSV signal, PGM image, or frame stack
* ``flow``     dense flow + moving-target disparity over a frame sequence
* ``selftest`` run the acceptance suite, one report line per criterion

Exit codes: 0 success; 1 selftest failure; 2 invalid input; 3 optimal
delay (--q auto) requested for a configuration without a closed form;
4 frame stream shorter than the warm-up horizon under --strict.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .closed_form import closed_form_coefficients, closed_form_for, optimal_q
from .design import FilterDesign, derive_causal_lde, derive_noncausal_pair
from .fileio import (
    FloatStackReader,
    FloatStackWriter,
    PgmDirReader,
    coefficients_csv,
    coefficients_json,
    read_coefficients_json,
    read_pgm,
    read_signal_csv,
    write_float_stack,
    write_pgm,
    write_signal_csv,
)
from .flow import FlowConfig, process_sequence
from .response import (
    evaluate_response,
    flatness_report,
    frequency_response,
    write_response_csv,
)
from .runtime import (
    Axis,
    Priming,
    filter_causal,
    filter_image_separable,
    filter_noncausal,
    filter_time_stack,
)
from .weights import Causality, WeightSpec

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED_AUTO_Q = 3
EXIT_STREAM_TOO_SHORT = 4


class CliError(Exception):
    """User-facing error carrying its exit code."""

    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


# --------------------------------------------------------- design plumbing

def _add_design_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--B", type=int, default=None, help="polynomial degree, 0-6")
    sub.add_argument("--D", type=int, default=0, help="derivative order (default 0)")
    sub.add_argument("--kappa", type=int, default=0,
                     help="weight shape exponent (default 0)")
    sub.add_argument("--sigma", type=float, default=None,
                     help="log discount factor, must be < 0")
    sub.add_argument("--pole", type=float, default=None,
                     help="discount factor p in (0,1); alternative to --sigma")
    sub.add_argument("--q", default="0",
                     help="synthesis delay in samples, or 'auto' for the "
                          "closed-form optimum (default 0)")
    sub.add_argument("--causality", choices=("causal", "noncausal"),
                     default="causal", help="window support (default causal)")
    sub.add_argument("--T", type=float, default=1.0,
                     help="sample period (default 1.0)")
    sub.add_argument("--source", choices=("derive", "table", "both-compare"),
                     default="derive",
                     help="coefficient route: general derivation, tabulated "
                          "closed form, or both with a cross-check "
                          "(default derive)")


def _resolve_sigma(args) -> float:
    if (args.sigma is None) == (args.pole is None):
        raise CliError("give exactly one of --sigma or --pole")
    if args.sigma is not None:
        return args.sigma
    if not (0.0 < args.pole < 1.0):
        raise CliError(f"--pole must lie in (0, 1), got {args.pole}")
    return math.log(args.pole)


def _design_from_args(args) -> FilterDesign:
    if args.B is None:
        raise CliError("--B is required")
    sigma = _resolve_sigma(args)
    causality = (Causality.TWO_SIDED if args.causality == "noncausal"
                 else Causality.CAUSAL)

    if str(args.q).strip().lower() == "auto":
        if (causality is not Causality.CAUSAL or args.B != 2
                or args.kappa not in (0, 1) or args.D not in (0, 1)):
            raise CliError(
                "--q auto needs a causal degree-2 design with kappa and "
                "derivative order in {0, 1}; give an explicit --q",
                EXIT_UNSUPPORTED_AUTO_Q,
            )
        form = closed_form_for(Causality.CAUSAL, args.kappa, args.D)
        q = optimal_q(form, math.exp(sigma))
    else:
        try:
            q = float(args.q)
        except ValueError:
            raise CliError(f"--q must be a number or 'auto', got {args.q!r}") from None

    if causality is Causality.TWO_SIDED and q != 0.0:
        raise CliError("noncausal designs are zero-phase; --q must be 0")
    weight = WeightSpec(sigma=sigma, kappa=args.kappa, causality=causality)
    return FilterDesign(degree=args.B, derivative=args.D, weight=weight,
                        delay=q, sample_period=args.T)


def _design_info(design: FilterDesign) -> dict:
    return {
        "B": int(design.degree),
        "D": int(design.derivative),
        "kappa": int(design.kappa),
        "sigma": float(design.weight.sigma),
        "q": float(design.delay),
        "causality": ("noncausal" if design.causality is Causality.TWO_SIDED
                      else "causal"),
    }


def _table_coefficients(design: FilterDesign):
    if design.degree != 2:
        raise CliError("tabulated closed forms cover degree-2 designs only")
    form = closed_form_for(design.causality, design.kappa, design.derivative)
    return closed_form_coefficients(form, design.pole, design.delay,
                                    design.sample_period)


def _coefficients_for(design: FilterDesign, source: str):
    if source == "table":
        return _table_coefficients(design)
    two_sided = design.causality is Causality.TWO_SIDED
    derived = (derive_noncausal_pair if two_sided else derive_causal_lde)(design)
    if source == "both-compare":
        table = _table_coefficients(design)
        if len(derived.halves) > 1:
            # the two routes may realize the same response with different
            # rational forms, so pairs are compared on a frequency grid
            grid = np.linspace(0.0, math.pi, 129)
            gap = float(np.max(np.abs(
                frequency_response(derived, grid) - frequency_response(table, grid)
            )))
            what = "response"
        else:
            gap = max(float(np.max(np.abs(derived.b - table.b))),
                      float(np.max(np.abs(derived.a - table.a))))
            what = "coefficient"
        print(f"both-compare max abs {what} discrepancy: {gap:.3e}",
              file=sys.stderr)
    return derived


def _emit_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_design(args) -> int:
    design = _design_from_args(args)
    filt = _coefficients_for(design, args.source)
    if args.format == "json":
        text = coefficients_json(filt, _design_info(design))
    else:
        text = coefficients_csv(filt)
    _emit_text(text, args.out)
    return EXIT_OK


# ------------------------------------------------------------- response

def _cmd_response(args) -> int:
    inline = (args.B is not None or args.sigma is not None
              or args.pole is not None)
    if args.coeff and inline:
        raise CliError("give either --coeff or inline design flags, not both")
    if args.coeff:
        filt, _ = read_coefficients_json(args.coeff)
    elif inline:
        filt = _coefficients_for(_design_from_args(args), args.source)
    else:
        raise CliError("give --coeff or inline design flags")
    if args.points < 2:
        raise CliError("--points must be at least 2")
    if args.points > sys.maxsize // 16:  # a complex column past numpy's largest array
        raise CliError(f"--points {args.points} is more than an array can hold")
    grid = np.linspace(0.0, math.pi, args.points)
    table = evaluate_response(filt, grid)
    flat = flatness_report(filt) if args.report_flatness else None
    write_response_csv(table, sys.stdout if args.out in (None, "-") else args.out, flat)
    return EXIT_OK


# --------------------------------------------------------------- filter

def _check_mode(filt, mode: str | None) -> None:
    if mode == "causal" and len(filt.halves) != 1:
        raise CliError("--mode causal needs single-filter coefficients, "
                       "got a forward/backward pair")
    if mode == "noncausal" and len(filt.halves) != 2:
        raise CliError("--mode noncausal needs a forward/backward pair "
                       "coefficient file")


def _write_plane(out: Path, plane: np.ndarray) -> None:
    ext = out.suffix.lower()
    if ext == ".pgm":
        write_pgm(out, plane)
    elif ext == ".f32":
        write_float_stack(out, plane)
    else:
        raise CliError(f"image outputs must be .pgm or .f32, got {out.name!r}")


def _cmd_filter(args) -> int:
    filt, _ = read_coefficients_json(args.coeff)
    _check_mode(filt, args.mode)
    priming = Priming(args.priming)
    in_path = Path(args.input)
    out_path = Path(args.out)
    ext = in_path.suffix.lower()

    if ext == ".csv":
        if args.axis != "time":
            raise CliError("CSV signals are one-dimensional; use --axis time")
        x = read_signal_csv(in_path)
        run = filter_noncausal if len(filt.halves) == 2 else filter_causal
        y = run(filt, x, priming)
        if out_path.suffix.lower() != ".csv":
            raise CliError("CSV input writes a CSV output")
        write_signal_csv(out_path, y)
    elif ext == ".pgm":
        if args.axis == "time":
            raise CliError("a single image has no time axis")
        image = read_pgm(in_path)
        _write_plane(out_path, filter_image_separable(filt, image, Axis(args.axis), priming))
    elif ext == ".f32":
        if out_path.suffix.lower() != ".f32":
            raise CliError("frame-stack input writes a .f32 output")
        frames = FloatStackReader(in_path)
        if args.axis == "time":
            planes = filter_time_stack(filt, frames, priming)
        else:
            planes = (filter_image_separable(filt, f, Axis(args.axis), priming) for f in frames)
        with FloatStackWriter(out_path, frames.shape) as out:
            for plane in planes:
                out.write(plane)
    else:
        raise CliError(f"unsupported input extension {in_path.suffix!r}; "
                       "expected .csv, .pgm, or .f32")
    return EXIT_OK


# ----------------------------------------------------------------- flow

def _open_frames(source: str):
    """The input frames, read one at a time; len() and shape are known
    before any pixel is read."""
    path = Path(source)
    if path.is_dir():
        return PgmDirReader(path)
    if path.suffix.lower() == ".f32":
        return FloatStackReader(path)
    raise CliError(f"--frames must name a directory of PGMs or a .f32 stack, "
                   f"got {source!r}")


def _cmd_flow(args) -> int:
    cfg = FlowConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(FlowConfig)})
    frames = _open_frames(args.frames)

    n_frames = len(frames)
    height, width = frames.shape
    if args.strict and n_frames < cfg.warmup_frames:
        raise CliError(
            f"stream of {n_frames} frames is shorter than the warm-up "
            f"horizon of {cfg.warmup_frames}",
            EXIT_STREAM_TOO_SHORT,
        )

    out_dir = Path(args.out)
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    # each result goes to the writers and its preview and is then
    # dropped, so memory does not grow with the stream's length
    previews = []
    try:
        with contextlib.ExitStack() as outputs:
            vx, vy, dj = (
                outputs.enter_context(FloatStackWriter(out_dir / f"{name}.f32", frames.shape))
                for name in ("vx", "vy", "dj")
            )
            for r in process_sequence(frames, cfg):
                vx.write(r.flow.vx)
                vy.write(r.flow.vy)
                dj.write(r.disparity)
                lo = float(np.min(r.disparity))
                hi = float(np.max(r.disparity))
                norm = ((r.disparity - lo) / (hi - lo) if hi > lo
                        else np.zeros_like(r.disparity))
                previews.append(out_dir / f"dj_{r.frame_index:04d}.pgm")
                write_pgm(previews[-1], norm)
    except BaseException:
        # like the stacks, a failed run's previews do not outlive it,
        # nor does the output directory it made
        for path in previews:
            path.unlink(missing_ok=True)
        if created and not any(out_dir.iterdir()):
            out_dir.rmdir()
        raise

    manifest = {
        "config": dataclasses.asdict(cfg),
        "frames_in": int(n_frames),
        "frames_out": dj.frames,
        "warmup_frames": int(cfg.warmup_frames),
        "height": int(height),
        "width": int(width),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return EXIT_OK


# ------------------------------------------------------------- selftest

def _cmd_selftest(args) -> int:
    results = acceptance.run_all()
    for result in results:
        print(acceptance.format_result(result))
    failed = sum(1 for r in results if not r.passed)
    if failed:
        print(f"{failed} of {len(results)} criteria FAILED")
        return EXIT_SELFTEST_FAILED
    print(f"all {len(results)} criteria passed")
    return EXIT_OK


# ----------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fadefilt",
        description="Fading-memory smoothers and differentiators: design, "
                    "response analysis, filtering, and gradient flow.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_design = sub.add_parser("design", help="emit filter coefficients")
    _add_design_flags(p_design)
    p_design.add_argument("--format", choices=("json", "csv"), default="json",
                          help="output format (default json)")
    p_design.add_argument("--out", default=None,
                          help="output file (default stdout)")
    p_design.set_defaults(func=_cmd_design)

    p_resp = sub.add_parser("response", help="tabulate the frequency response")
    p_resp.add_argument("--coeff", default=None,
                        help="coefficient JSON produced by the design command")
    _add_design_flags(p_resp)
    p_resp.add_argument("--points", type=int, default=512,
                        help="grid points over [0, pi] (default 512)")
    p_resp.add_argument("--report-flatness", action="store_true",
                        help="append |H|^2 derivative magnitudes as comments")
    p_resp.add_argument("--out", default=None,
                        help="output CSV file (default stdout)")
    p_resp.set_defaults(func=_cmd_response)

    p_filt = sub.add_parser("filter", help="run a filter over stored data")
    p_filt.add_argument("--coeff", required=True,
                        help="coefficient JSON produced by the design command")
    p_filt.add_argument("--input", required=True,
                        help="input .csv signal, .pgm image, or .f32 stack")
    p_filt.add_argument("--out", required=True,
                        help="output file; extension selects the format")
    p_filt.add_argument("--mode", choices=("causal", "noncausal"), default=None,
                        help="cross-check against the coefficient type "
                             "(default: inferred)")
    p_filt.add_argument("--axis", choices=("rows", "cols", "time"),
                        default="time", help="filtering axis (default time)")
    p_filt.add_argument("--priming", choices=("zero", "hold"), default="hold",
                        help="initial-state policy (default hold)")
    p_filt.set_defaults(func=_cmd_filter)

    p_flow = sub.add_parser("flow", help="dense flow over a frame sequence")
    p_flow.add_argument("--frames", required=True,
                        help="directory of PGM frames or a .f32 stack")
    p_flow.add_argument("--out", required=True, help="output directory")
    # one flag per FlowConfig field, with the field's type and default
    for setting in dataclasses.fields(FlowConfig):
        p_flow.add_argument(f"--{setting.name.replace('_', '-')}", type=type(setting.default),
                            default=setting.default,
                            help=f"{setting.metadata['help']} (default %(default)s)")
    p_flow.add_argument("--strict", action="store_true",
                        help="fail (exit 4) if the stream is shorter than "
                             "the warm-up horizon")
    p_flow.set_defaults(func=_cmd_flow)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _attach_negative_values(argv) -> list[str]:
    """argv with values such as -1e-3 or -inf attached to their flag as
    --sigma=-1e-3: argparse reads only plain decimals like -0.5 as values."""
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
