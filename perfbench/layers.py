"""Which library callables belong to which layer, and how the traced
spans turn into the per-layer metrics named in BENCHMARK.json.

Every metric is per operation: per output frame on the flow workloads,
per design job on design-sweep.  Counts are the median over operations
of the work inside each operation (plus work outside any operation
spread over the operations), so exact per-frame counts read exactly.
Times and bytes are totals divided by the number of operations.
"""

from __future__ import annotations

import os

import spans as sp

# Span name -> dotted names wrapped under it.  Span names double as
# layer names in the metrics below.
TARGETS = {
    "runtime.separable": ["fadefilt.runtime.filter_image_separable"],
    "runtime.lfilter": ["scipy.signal.lfilter"],
    "runtime.zi": ["scipy.signal.lfilter_zi"],
    "runtime.frame_step": ["fadefilt.runtime.FrameFilter.step"],
    "runtime.signal": ["fadefilt.runtime.filter_causal", "fadefilt.runtime.filter_noncausal"],
    "flow.process_sequence": ["fadefilt.flow.process_sequence"],
    "flow.temporal_gradient": ["fadefilt.flow.temporal_gradient"],
    "flow.spatial_gradients": ["fadefilt.flow.spatial_gradients"],
    "flow.products": ["fadefilt.flow.ProductSmoother.step"],
    "flow.solve": ["fadefilt.flow.solve_flow"],
    "flow.disparity": ["fadefilt.flow.background_disparity"],
    "design.derive": [
        "fadefilt.design.derive_causal_lde",
        "fadefilt.design.derive_noncausal_pair",
    ],
    "basis.orthonormal_basis": ["fadefilt.basis.orthonormal_basis"],
    "closed_form": ["fadefilt.closed_form.closed_form_coefficients"],
    "response.evaluate": ["fadefilt.response.evaluate_response"],
    "response.white_noise_gain": ["fadefilt.response.white_noise_gain"],
    "response.flatness": ["fadefilt.response.flatness_report"],
    "fileio.read": ["fadefilt.fileio.read_float_stack"],
    "fileio.write": ["fadefilt.fileio.write_float_stack", "fadefilt.fileio.write_pgm"],
    "cli.flow": ["fadefilt.cli._cmd_flow"],
}

def _separable_bytes(args, kwargs, result):
    # each lfilter pass reads and writes one image; a two-sided pair runs two passes
    passes = 2 if hasattr(args[0], "forward") else 1
    return {"bytes": passes * 2 * int(result.nbytes)}


def _solve_valid(args, kwargs, result):
    return {"valid": int(result.valid.sum()), "pixels": int(result.valid.size)}


def _file_bytes(args, kwargs, result):
    path = args[0]
    return {"bytes": os.path.getsize(path) if os.path.isfile(path) else 0}


MEASURES = {
    "runtime.separable": _separable_bytes,
    "flow.solve": _solve_valid,
    "fileio.read": _file_bytes,
    "fileio.write": _file_bytes,
}


def install(tracer: sp.Tracer) -> None:
    for name, targets in TARGETS.items():
        for dotted in targets:
            tracer.wrap(dotted, name, MEASURES.get(name))


def absent_layers(absent: dict[str, str]) -> set[str]:
    """Layers none of whose callables resolved."""
    return {name for name, targets in TARGETS.items() if all(t in absent for t in targets)}


# metric -> (unit, better, layers it depends on)
PER_LAYER = {
    "runtime.separable.calls": ("count/op", "lower", ("runtime.separable",)),
    "runtime.separable.busy_s": ("s/op", "lower", ("runtime.separable",)),
    "runtime.separable.bytes_computed": ("B/op", "lower", ("runtime.separable",)),
    "runtime.lfilter.calls": ("count/op", "lower", ("runtime.lfilter",)),
    "runtime.zi.calls": ("count/op", "lower", ("runtime.zi",)),
    "runtime.frame_step.calls": ("count/op", "lower", ("runtime.frame_step",)),
    "runtime.frame_step.busy_s": ("s/op", "lower", ("runtime.frame_step",)),
    "runtime.signal.busy_s": ("s/op", "lower", ("runtime.signal",)),
    "runtime.scalar_step.busy_s": ("s/op", "lower", ()),
    "flow.temporal_gradient.self_s": ("s/op", "lower", ("flow.temporal_gradient",)),
    "flow.spatial_gradients.busy_s": ("s/op", "lower", ("flow.spatial_gradients",)),
    "flow.products.self_s": ("s/op", "lower", ("flow.products",)),
    "flow.spatial_smoothing.busy_s": ("s/op", "lower", ("flow.products", "runtime.separable")),
    "flow.temporal_smoothing.busy_s": ("s/op", "lower", ("flow.products", "runtime.frame_step")),
    "flow.solve.busy_s": ("s/op", "lower", ("flow.solve",)),
    "flow.disparity.busy_s": ("s/op", "lower", ("flow.disparity",)),
    "flow.valid_frac": ("ratio", "higher", ("flow.solve",)),
    "design.census_failed": ("count", "lower", ()),
    "design.derive.calls": ("count/op", "lower", ("design.derive",)),
    "design.derive.busy_s": ("s/op", "lower", ("design.derive",)),
    "basis.orthonormal_basis.busy_s": ("s/op", "lower", ("basis.orthonormal_basis",)),
    "closed_form.busy_s": ("s/op", "lower", ("closed_form",)),
    "response.evaluate.busy_s": ("s/op", "lower", ("response.evaluate",)),
    "response.white_noise_gain.busy_s": ("s/op", "lower", ("response.white_noise_gain",)),
    "response.flatness.busy_s": ("s/op", "lower", ("response.flatness",)),
    "fileio.read.busy_s": ("s/op", "lower", ("fileio.read",)),
    "fileio.read.bytes": ("B/op", "lower", ("fileio.read",)),
    "fileio.write.busy_s": ("s/op", "lower", ("fileio.write",)),
    "fileio.write.bytes": ("B/op", "lower", ("fileio.write",)),
    "fileio.write.files": ("count/op", "lower", ("fileio.write",)),
    "cli.flow.self_s": ("s/op", "lower", ("cli.flow",)),
    "cli.rss_growth_mb_per_100_frames": ("MB/100frames", "lower", ()),
    "process.import_s": ("s", "lower", ()),
    "trace.overhead_frac": ("ratio", "lower", ()),
}


def layer_metrics(spans: list[sp.Span], op_name: str) -> tuple[dict[str, float], int]:
    """Per-op metrics computable from the spans alone, and the op count.
    Op spans are the spans named ``op_name`` that produced a result."""
    ops = [i for i, s in enumerate(spans) if s.name == op_name and not s.counters.get("stop")]
    n = max(len(ops), 1)
    owner = sp.op_of(spans, lambda s: s.name == op_name and not s.counters.get("stop"))
    own = sp.self_times(spans)

    by_name: dict[str, list[int]] = {}
    nested = []  # True when an enclosing span has the same name
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        nested.append(p >= 0)

    def outermost(name, parent=None):
        return [
            i for i in by_name.get(name, ())
            if not nested[i]
            and (parent is None or (spans[i].parent >= 0 and spans[spans[i].parent].name == parent))
        ]

    def busy(name, parent=None):
        return sum(spans[i].duration for i in outermost(name, parent)) / n

    def self_s(name):
        return sum(own[i] for i in by_name.get(name, ())) / n

    def counter(name, key):
        return sum(spans[i].counters.get(key, 0) for i in outermost(name)) / n

    def count(name):
        return sp.per_op_count(spans, name, owner, ops)

    solves = [spans[i].counters for i in by_name.get("flow.solve", ())]
    valid = sum(c.get("valid", 0) for c in solves)
    pixels = sum(c.get("pixels", 0) for c in solves)
    metrics = {
        "runtime.separable.calls": count("runtime.separable"),
        "runtime.separable.busy_s": busy("runtime.separable"),
        "runtime.separable.bytes_computed": counter("runtime.separable", "bytes"),
        "runtime.lfilter.calls": count("runtime.lfilter"),
        "runtime.zi.calls": count("runtime.zi"),
        "runtime.frame_step.calls": count("runtime.frame_step"),
        "runtime.frame_step.busy_s": busy("runtime.frame_step"),
        "runtime.signal.busy_s": busy("runtime.signal"),
        "runtime.scalar_step.busy_s": busy("runtime.scalar_step"),
        "flow.temporal_gradient.self_s": self_s("flow.temporal_gradient"),
        "flow.spatial_gradients.busy_s": busy("flow.spatial_gradients"),
        "flow.products.self_s": self_s("flow.products"),
        "flow.spatial_smoothing.busy_s": busy("runtime.separable", parent="flow.products"),
        "flow.temporal_smoothing.busy_s": busy("runtime.frame_step", parent="flow.products"),
        "flow.solve.busy_s": busy("flow.solve"),
        "flow.disparity.busy_s": busy("flow.disparity"),
        "flow.valid_frac": valid / pixels if pixels else 0.0,
        "design.derive.calls": count("design.derive"),
        "design.derive.busy_s": busy("design.derive"),
        "basis.orthonormal_basis.busy_s": busy("basis.orthonormal_basis"),
        "closed_form.busy_s": busy("closed_form"),
        "response.evaluate.busy_s": busy("response.evaluate"),
        "response.white_noise_gain.busy_s": busy("response.white_noise_gain"),
        "response.flatness.busy_s": busy("response.flatness"),
        "fileio.read.busy_s": busy("fileio.read"),
        "fileio.read.bytes": counter("fileio.read", "bytes"),
        "fileio.write.busy_s": busy("fileio.write"),
        "fileio.write.bytes": counter("fileio.write", "bytes"),
        "fileio.write.files": count("fileio.write"),
        "cli.flow.self_s": self_s("cli.flow"),
    }
    return metrics, len(ops)
