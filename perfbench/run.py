"""fadefilt benchmark: closed-loop, single-process runs of the package's
public functions (or its CLI in a child process), checked for correct
outputs.

    python3 perfbench/run.py --workload flow-vga --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, tracing off
    python3 perfbench/run.py --trace 1       # every workload, traced

Run from any directory; the package is imported from ``src/`` next to
this directory, never from an installed copy.  With ``--trace 0`` the
last line of output is one JSON object holding the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics.  Lines before it
name every metric with its unit, the checksums and the environment.  A
full record of each run (and, when traced, its spans) is written to
``.perfbench/results/``.

Each run is three kinds of process: this orchestrator, which stays
small and imports nothing numerical; fresh set-up probes that time the
import and filter construction; and one measuring process per workload,
started through a launcher so its peak RSS is its own.

Timings are stated at a nominal host speed: every timed operation is
bracketed by a reference kernel of the benchmark's own, and its time is
scaled by how fast the host ran that kernel around it (reference.py).
The raw wall-clock figures are printed and recorded next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

# one process, no extra threads: pin BLAS before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import common  # noqa: E402  (stdlib only)
import reference  # noqa: E402  (stdlib only until a kernel runs)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("flow-vga", "flow-cli-128", "design-sweep")
SETUP_PROBES = 3
# reference kernel of each in-process workload; the CLI child samples
# the small-image kernel itself (cli_child.py)
CLOCKS = {"flow-vga": "image", "design-sweep": "scalar"}
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# end-to-end metric -> (unit, what it is called on each workload)
END_TO_END = {
    "ops_per_s": ("1/s", {"flow-vga": "frames_per_s", "flow-cli-128": "frames_per_s",
                          "design-sweep": "designs_per_s"}),
    "op_ms_p50": ("ms", {"flow-vga": "frame_ms_p50", "flow-cli-128": "frame_ms_p50",
                         "design-sweep": "design_ms_p50"}),
    "op_ms_tail": ("ms", {"flow-vga": "frame_ms_tail", "flow-cli-128": "frame_ms_tail",
                          "design-sweep": "design_ms_tail"}),
    "setup_s": ("s", {}),
    "peak_rss_mb": ("MB", {}),
}


# ---------------------------------------------------- child entry points

def setup_probe(workload: str, seed: int) -> None:
    """Fresh-interpreter set-up: import the package and build the
    workload's filters.  Prints {"import_s", "setup_s"}."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(common.SRC))
    import fadefilt as ff

    t1 = time.perf_counter()
    if workload == "design-sweep":
        import workload_design

        workload_design.setup(ff, seed)
    else:
        cfg = ff.FlowConfig()
        cfg.spatial_differentiator()
        cfg.temporal_differentiator()
        cfg.spatial_smoother()
        cfg.temporal_smoother()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


def generate(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's frame inputs to ``workdir`` (never timed)."""
    sys.path.insert(0, str(common.SRC))
    import numpy as np

    import fadefilt as ff
    import fadefilt.fileio
    import workload_flow as wf

    if workload == "flow-vga":
        np.save(workdir / "frames.npy", wf.Scene.from_seed(seed, *wf.VGA).render(ff))
    else:
        frames = wf.Scene.from_seed(seed, *wf.CLI).render(ff)
        fadefilt.fileio.write_float_stack(workdir / "stack.f32", frames)
        fadefilt.fileio.write_float_stack(workdir / "tenth.f32", frames[: len(frames) // 10])


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            deadline_s: float) -> None:
    """Run one workload in this process; print its record as JSON."""
    sys.path.insert(0, str(common.SRC))
    import fadefilt as ff

    if Path(ff.__file__).resolve().parent != (common.SRC / "fadefilt").resolve():
        raise RuntimeError(f"imported fadefilt from {ff.__file__}, not {common.SRC}")
    import layers
    import spans

    deadline = time.perf_counter() + deadline_s
    # the CLI workload traces inside its child (cli_child.py)
    tracer = spans.Tracer() if trace and workload != "flow-cli-128" else None
    clock = None if trace or workload not in CLOCKS else reference.HostClock(CLOCKS[workload])
    if workload == "design-sweep":
        record = _design(ff, seed, seconds, tracer, clock)
    elif workload == "flow-vga":
        record = _vga(ff, seed, seconds, tracer, clock, workdir)
    else:
        record = _cli(ff, seed, seconds, trace, workdir, deadline)
    record["env"] = common.environment()
    if not trace:
        if clock is None:  # the CLI child normalized each invocation
            times = record["normalized"]
            refs = record["reference_times"]
            record["host_reference"] = {
                "kernel": "small_image", "samples": len(refs), "median_s": statistics.median(refs),
                "nominal_s": reference.NOMINAL["small_image"]}
        else:
            times = [clock.normalize(t, d) for t, d in zip(record["stamps"], record["durations"])]
            record["host_reference"] = clock.summary()
        record["timings"], record["tail_percentile"], record["samples_n"] = _timings(record, times)
        record["raw_timings"] = _timings(record, record["durations"])[0]
    for key in ("stamps", "durations", "normalized", "reference_times", "steady", "frames"):
        record.pop(key, None)
    if trace:
        span_list, absent, op_name = record.pop("trace_data")
        metrics, record["traced_ops"] = layers.layer_metrics(span_list, op_name)
        metrics["cli.rss_growth_mb_per_100_frames"] = record.get("rss_growth", 0.0)
        metrics["trace.overhead_frac"] = record["overhead_frac"]
        metrics["design.census_failed"] = record.get("census", {}).get("failed", 0)
        record["layer_metrics"] = metrics
        record["absent"] = absent
        record["absent_layers"] = sorted(layers.absent_layers(absent))
        if tracer is not None:
            tracer.dump(workdir / "spans.jsonl")
    print(json.dumps(record))


def _timings(record: dict, times: list[float]) -> tuple[dict, float, int]:
    """ops_per_s, op_ms_p50 and op_ms_tail from the operations' times
    (raw or normalized).  A flow-cli-128 operation is one invocation
    that made ``frames`` frames, and its samples are per frame; only
    ``steady`` operations are samples."""
    n = len(times)
    units = record.get("frames", [1] * n)
    steady = record.get("steady", [True] * n)
    per_op = [d / u for d, u, ok in zip(times, units, steady) if ok and u]
    pct, tail, count = common.tail_percentile(per_op)
    values = {"ops_per_s": sum(units) / sum(times),
              "op_ms_p50": 1e3 * statistics.median(per_op),
              "op_ms_tail": 1e3 * tail}
    return values, pct, count


def _design(ff, seed, seconds, tracer, clock):
    import workload_design as wd

    prepared = wd.setup(ff, seed)
    if tracer is None:
        record = wd.run(ff, prepared, seconds, clock=clock)
        digests = record.pop("digests")
    else:
        passes = []

        def one_pass(t):
            passes.append(wd.run(ff, prepared, 0, tracer=t))
            return passes[-1]

        record = _alternate(tracer, one_pass, seconds, wd.OP_SPAN)
        record.pop("digests")
        digests = passes[0]["digests"]
    census = wd.census(ff, prepared)
    record["checksums"] = {"b_a": wd.grid_checksum(digests, census.pop("digests"))}
    record["census"] = census
    return record


def _vga(ff, seed, seconds, tracer, clock, workdir):
    import numpy as np

    import workload_flow as wf

    frames = np.load(workdir / "frames.npy")
    scene = wf.Scene.from_seed(seed, *wf.VGA)
    if tracer is None:
        return wf.run_vga(ff, frames, scene, seconds, clock=clock)
    return _alternate(tracer, lambda t: wf.run_vga(ff, frames, scene, 0), seconds, wf.OP_SPAN)


def _alternate(tracer, one_pass, seconds: float, op_name: str) -> dict:
    """Untraced and traced passes over the same inputs alternate until
    ``seconds`` are used, so slow drifts in the host's speed cancel out
    of trace.overhead_frac."""
    import layers

    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(one_pass(None))
        layers.install(tracer)
        try:
            traced.append(one_pass(tracer))
        finally:
            tracer.unwrap_all()
    return _merge_traced(plain, traced, (tracer.spans, tracer.absent, op_name))


def _cli(ff, seed, seconds, trace, workdir, deadline):
    import dataclasses

    import spans
    import workload_flow as wf

    scene = wf.Scene.from_seed(seed, *wf.CLI)
    cfg = ff.FlowConfig()
    settle, delay = cfg.warmup_frames - cfg.frame_delay, cfg.frame_delay
    stack = workdir / "stack.f32"
    if not trace:
        return wf.run_cli(scene, stack, workdir, seconds, settle, delay, deadline, clocked=True)
    plain = wf.run_cli(scene, stack, workdir, 0, settle, delay, deadline, once=True)
    span_file = workdir / "spans.jsonl"
    traced = wf.run_cli(scene, stack, workdir, 0, settle, delay, deadline, spans=span_file,
                        once=True)
    tenth_scene = dataclasses.replace(scene, frames=scene.frames // 10)
    tenth = wf.run_cli(tenth_scene, workdir / "tenth.f32", workdir, 0, settle, delay, deadline,
                       once=True)
    out = _merge_traced([plain], [traced], (*spans.load(span_file), wf.OP_SPAN))
    out["rss_growth"] = ((plain["peak_rss_mb"] - tenth["peak_rss_mb"])
                         / (scene.frames - tenth_scene.frames) * 100.0)
    out["rss_mb_full_tenth"] = [plain["peak_rss_mb"], tenth["peak_rss_mb"]]
    return out


def _merge_traced(plain: list[dict], traced: list[dict], trace_data) -> dict:
    runs = plain + traced
    failures: dict[str, int] = {}
    for r in runs:
        for reason, count in r["failures"].items():
            failures[reason] = failures.get(reason, 0) + count
    out = dict(plain[0])
    out.update(
        attempted=sum(r["attempted"] for r in runs),
        failed=sum(r["failed"] for r in runs),
        failures=failures,
        deterministic=all(r["deterministic"] for r in runs)
        and all(r["checksums"] == plain[0]["checksums"] for r in plain),
        trace_matches=all(r["checksums"] == plain[0]["checksums"] for r in traced),
        overhead_frac=sum(r["busy_s"] for r in traced) / sum(r["busy_s"] for r in plain) - 1.0,
        trace_data=trace_data,
    )
    return out


# ---------------------------------------------------------- orchestrator

def _child(argv, deadline: float, log: Path, measured: bool = False):
    run = common.run_measured_child if measured else common.run_child
    code, _, rss, output = run(argv, max(deadline - time.perf_counter(), 1.0), log)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[2:4])} exited with code {code}")
    lines = output.strip().splitlines()
    return (lines[-1] if lines else ""), rss


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    me = [sys.executable, str(HERE / "run.py")]
    workdir = common.SCRATCH / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probes = _setup_probes([*me, "--setup-probe", workload, "--seed", str(seed)], deadline,
                               workdir / "probe.log")
        if workload != "design-sweep":
            _child([*me, "--generate", workload, "--seed", str(seed), "--workdir", str(workdir)],
                   deadline, workdir / "generate.log")
        line, rss = _child(
            [*me, "--measure", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace)), "--workdir", str(workdir),
             "--deadline", repr(deadline - time.perf_counter() - 5.0)],
            deadline, workdir / "measure.log", measured=True)
        record = json.loads(line)
        record.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                      setup_s=statistics.median(p["setup_norm_s"] for p in probes),
                      raw_setup_s=statistics.median(p["setup_s"] for p in probes),
                      import_s=statistics.median(p["import_s"] for p in probes))
        if workload != "flow-cli-128":
            record["peak_rss_mb"] = rss
        record["correct"] = bool(record["deterministic"] and record.get("trace_matches", True)
                                 and record["attempted"] >= 1)
        if trace:
            import layers

            values = dict(record.pop("layer_metrics"), **{"process.import_s": record["import_s"]})
            record["metrics"] = {name: {"value": values[name], "unit": unit}
                                 for name, (unit, _, _) in layers.PER_LAYER.items()}
        else:
            record["metrics"] = _end_to_end(record)
        save(record, workdir)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_probes(argv, deadline: float, log: Path) -> list[dict]:
    """SETUP_PROBES fresh set-up probes, each bracketed by process-start
    reference samples; adds each probe's normalized ``setup_norm_s``."""
    clock = reference.HostClock("startup", nearest=2)
    clock.sample()
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probes.append(dict(json.loads(_child(argv, deadline, log)[0]), start=start))
        clock.sample()
    for p in probes:
        p["setup_norm_s"] = clock.normalize(p.pop("start"), p["setup_s"])
    return probes


def _end_to_end(record: dict) -> dict:
    values = dict(record["timings"], setup_s=record["setup_s"], peak_rss_mb=record["peak_rss_mb"])
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}


def save(record: dict, workdir: Path) -> None:
    results = common.SCRATCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    slim = {k: v for k, v in record.items() if k != "samples"}
    (results / f"{stem}.json").write_text(json.dumps(slim, indent=2, sort_keys=True) + "\n")
    if (workdir / "spans.jsonl").exists():
        shutil.move(workdir / "spans.jsonl", results / f"{stem}-spans.jsonl")


def report(record: dict) -> None:
    w = record["workload"]
    print(f"workload {w}  seed {record['seed']}  seconds {record['seconds']}  "
          f"trace {record['trace']}")
    print("env " + " ".join(f"{k}={v}" for k, v in record["env"].items()))
    print("checksums " + " ".join(f"{k}={v}" for k, v in record["checksums"].items()))
    if record["trace"]:
        import layers

        absent = set(record["absent_layers"])
        for name, (unit, _, deps) in layers.PER_LAYER.items():
            note = "  absent" if absent.intersection(deps) else ""
            print(f"{name} = {record['metrics'][name]['value']:.6g} {unit}{note}")
        for dotted, why in sorted(record["absent"].items()):
            print(f"absent {dotted}: {why}")
        print(f"traced ops {record['traced_ops']}; traced checksums "
              f"{'match' if record['trace_matches'] else 'DIFFER FROM'} untraced")
    else:
        for name, (unit, aliases) in END_TO_END.items():
            alias = f"  ({aliases[w]})" if w in aliases else ""
            extra = ""
            if name == "op_ms_tail":
                extra = f"  p{record['tail_percentile']:.1f} of {record['samples_n']} samples"
            raw = dict(record["raw_timings"], setup_s=record["raw_setup_s"]).get(name)
            if raw is not None:
                extra += f"  [raw wall clock {raw:.6g}]"
            print(f"{name} = {record['metrics'][name]['value']:.6g} {unit}{alias}{extra}")
        ref = record["host_reference"]
        print(f"host reference: kernel {ref['kernel']}, {ref['samples']} samples, median "
              f"{ref['median_s']:.6g} s against nominal {ref['nominal_s']:g} s")
    frac = common.failed_frac(record["attempted"], record["failed"])
    print(f"failed_frac = {frac:.6g}  ({record['failed']} of {record['attempted']}"
          + "".join(f"; {k} {v}" for k, v in sorted(record["failures"].items())) + ")")
    census = record.get("census")
    if census:
        frac = common.failed_frac(census["attempted"], census["failed"])
        print(f"census failed_frac = {frac:.6g}  ({census['failed']} of {census['attempted']} "
              "untimed jobs at B >= 3, p >= 0.85"
              + "".join(f"; {k} {v}" for k, v in sorted(census["failures"].items())) + ")")
    print(f"verdict: {'PASS' if record['correct'] else 'FAIL'}")


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in its own fresh processes."""
    summary = {}
    for w in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        code, _, _, output = common.run_child(argv, 900.0, common.SCRATCH / f"all-{w}.log")
        lines = output.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        summary[w] = json.loads(lines[-1]) if code == 0 and lines else {"correct": False}
    ok = all(r["correct"] for r in summary.values())
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--generate", choices=WORKLOADS[:2], help=argparse.SUPPRESS)
    parser.add_argument("--measure", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--deadline", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe, args.seed)
        return 0
    if args.generate:
        generate(args.generate, args.seed, args.workdir)
        return 0
    if args.measure:
        measure(args.measure, args.seed, args.seconds, bool(args.trace), args.workdir,
                args.deadline)
        return 0
    if not (common.SRC / "fadefilt" / "__init__.py").is_file():
        print(f"error: fadefilt sources not found under {common.SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
