"""In-memory span tracer that wraps library functions by dotted name.

A span is (name, start, end, parent, counters).  Spans are kept in a
list while the benchmark runs and written out once at the end.  Wrapping
happens from the benchmark's side only: the package under test is never
edited.  A dotted name that no longer resolves (a later refactor removed
or renamed it) is recorded as absent instead of raising, so the same
harness keeps running across refactors.

A layer's self time is its span's duration minus the part of that
interval covered by its direct child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(dotted: str):
    """Return (owner, attribute, value) for a dotted name such as
    ``fadefilt.runtime.FrameFilter.step``.  Raises LookupError naming
    the first part that does not resolve."""
    parts = dotted.split(".")
    obj = None
    consumed = 0
    for i in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        consumed = i
        break
    if obj is None:
        raise LookupError(f"no importable module in {dotted!r}")
    owner = obj
    for part in parts[consumed:]:
        owner, obj = obj, getattr(obj, part, _MISSING)
        if obj is _MISSING:
            raise LookupError(f"{dotted!r}: {part!r} not found")
    return owner, parts[-1], obj


class Tracer:
    """Records spans for wrapped callables.  One tracer per process;
    single-threaded use only."""

    def __init__(self, alias_scope: str = "fadefilt"):
        self.spans: list[Span] = []
        self.absent: dict[str, str] = {}  # dotted name -> reason
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._alias_scope = alias_scope
        self._paused = 0

    # ---------------------------------------------------------- recording

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, counters: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if counters:
            span.counters.update(counters)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: closed {index}, top was {popped}")

    @contextlib.contextmanager
    def span(self, name: str):
        if self._paused:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block (correctness checks) record no spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # ----------------------------------------------------------- wrapping

    def wrap(self, dotted: str, name: str, measure=None) -> bool:
        """Replace the callable at ``dotted`` (and every alias of it in
        the modules of ``alias_scope``) with a recording wrapper.
        ``measure(args, kwargs, result)`` may return extra counters.
        Returns False and records the reason if the name is absent."""
        try:
            owner, attr, original = resolve(dotted)
        except LookupError as exc:
            self.absent[dotted] = str(exc)
            return False
        if not callable(original):
            self.absent[dotted] = f"{dotted!r} is not callable"
            return False
        if inspect.isgeneratorfunction(original):
            wrapper = self._generator_wrapper(original, name)
        else:
            wrapper = self._call_wrapper(original, name, measure)
        self._patch(owner, attr, wrapper)
        if inspect.isfunction(original):
            for module_name, module in list(sys.modules.items()):
                if module is owner or module is None:
                    continue
                if module_name != self._alias_scope and not module_name.startswith(
                    self._alias_scope + "."
                ):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)
        return True

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        raw = vars(owner).get(attr, _MISSING) if hasattr(owner, "__dict__") else _MISSING
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def _call_wrapper(self, original, name, measure):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return original(*args, **kwargs)
            index = tracer.open(name)
            counters = None
            try:
                result = original(*args, **kwargs)
                if measure is not None:
                    try:
                        counters = measure(args, kwargs, result)
                    except (AttributeError, TypeError, ValueError, OSError):
                        counters = {"measure_failed": 1}
                return result
            finally:
                tracer.close(index, counters)

        traced.__wrapped__ = original
        return traced

    def _generator_wrapper(self, original, name):
        """Each resumption of the generator is one span; the resumption
        that ends the generator carries counter ``stop``."""
        tracer = self

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            try:
                while True:
                    if tracer._paused:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    else:
                        index = tracer.open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            tracer.close(index, {"stop": 1})
                            return
                        except BaseException:
                            tracer.close(index)
                            raise
                        tracer.close(index)
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = original
        return traced

    # ------------------------------------------------------------- output

    def dump(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"absent": self.absent}) + "\n")
            for i, s in enumerate(self.spans):
                f.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.counters]) + "\n")


def load(path) -> tuple[list[Span], dict[str, str]]:
    with open(path) as f:
        absent = json.loads(f.readline())["absent"]
        spans = [Span(r[1], r[2], r[3], r[4], r[5]) for r in map(json.loads, f)]
    return spans, absent


# ------------------------------------------------------------ analysis

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its direct children's
    intervals, clipped to the span."""
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids[i]):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def op_of(spans: list[Span], is_op) -> list[int]:
    """For each span, the index of its nearest enclosing op span
    (itself included), or -1."""
    owner = [-1] * len(spans)
    for i, s in enumerate(spans):  # parents precede children
        if is_op(s):
            owner[i] = i
        elif s.parent >= 0:
            owner[i] = owner[s.parent]
    return owner


def per_op_count(spans: list[Span], name: str, owner: list[int], ops: list[int]) -> float:
    """Median over ops of the number of ``name`` spans inside each op,
    plus the ``name`` spans outside any op spread over the ops."""
    inside = {op: 0 for op in ops}
    outside = 0
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        if owner[i] in inside:
            inside[owner[i]] += 1
        else:
            outside += 1
    if not ops:
        return 0.0
    return statistics.median(inside.values()) + outside / len(ops)
