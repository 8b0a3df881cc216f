"""Run ``fadefilt`` CLI arguments in this process, either under the span
tracer or with host-speed reference samples between frames.

    python3 perfbench/cli_child.py --spans SPANS_PATH flow --frames ... --out ...
    python3 perfbench/cli_child.py --clock TIMES_PATH flow --frames ... --out ...

``--spans`` wraps the layers, calls the CLI's main() and writes the spans
to SPANS_PATH.  ``--clock`` runs the small-image reference kernel before
each frame the CLI's process_sequence yields, outside the frame's time,
and writes the frame and reference timings to TIMES_PATH as JSON.  Both
exit with the CLI's exit code.
"""

import json
import sys
import time

import common

sys.path.insert(0, str(common.SRC))

import fadefilt.cli  # noqa: E402  (wrapping needs the CLI's aliases loaded)

import layers  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402


def traced(path: str, argv: list[str]) -> int:
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        return fadefilt.cli.main(argv)
    finally:
        tracer.unwrap_all()
        tracer.dump(path)


def clocked(path: str, argv: list[str]) -> int:
    clock = reference.HostClock("small_image")
    frames: list[tuple[float, float]] = []
    original = fadefilt.cli.process_sequence

    def process_sequence(*args, **kwargs):
        stream = original(*args, **kwargs)
        while True:
            clock.sample()
            t0 = time.perf_counter()
            try:
                item = next(stream)
            except StopIteration:
                return
            frames.append((t0, time.perf_counter() - t0))
            yield item

    fadefilt.cli.process_sequence = process_sequence
    try:
        return fadefilt.cli.main(argv)
    finally:
        fadefilt.cli.process_sequence = original
        with open(path, "w") as f:
            json.dump({"frames": frames, "reference": list(zip(clock.stamps, clock.times))}, f)


if __name__ == "__main__":
    mode = {"--spans": traced, "--clock": clocked}[sys.argv[1]]
    sys.exit(mode(sys.argv[2], sys.argv[3:]))
