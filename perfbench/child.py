"""One pass of one workload, in a fresh single-threaded process.

    python3 perfbench/child.py WORKLOAD SEED MODE SPANS_FILE STARTED

MODE is ``setup`` (import and make the inputs, then stop), ``run`` (one timed
pass) or ``trace`` (one timed pass with spans on, written to SPANS_FILE).
Set-up and passes take the reference samples of ``speed.py``.  The process
prints one JSON line: the monotonic clock reading when the inputs were ready,
the set-up time at the reference speed and, for a pass, its wall time (also
at the reference speed), peak resident memory, checks and, when traced, the
per-layer metrics.  ``run.py`` starts these processes and passes STARTED, its
``time.monotonic()`` reading when it started this one.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import SETUP_INTERVAL_S, SpeedSampler, reference_seconds, setup_reference_seconds

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    workload, seed, mode, spans_file = argv[1], int(argv[2]), argv[3], argv[4]
    started = float(argv[5])
    sampler = SpeedSampler(clock=time.monotonic, interval=SETUP_INTERVAL_S)
    sampler.start()
    sys.path.insert(0, str(SRC))
    import bicayley

    if Path(bicayley.__file__).resolve().parent != SRC / "bicayley":
        print(f"bicayley was imported from {bicayley.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Checks

    setup, run = WORKLOADS[workload]
    inputs = setup(seed)
    ready = time.monotonic()
    sampler.stop()
    timing = {"ready": ready, "setup_s": setup_reference_seconds(started, ready, sampler.stamps)}
    if mode == "setup":
        print(json.dumps(timing))
        return 0

    checks = Checks()
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    sampler = SpeedSampler()
    sampler.start()
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.call("workload", run, inputs, checks)
        else:
            run(inputs, checks)
    except Exception as exc:  # the program under test failed: report it as a failed check
        traceback.print_exc()
        checks.expect(False, f"raised {exc!r}")
    end = time.perf_counter()
    sampler.stop()
    wall, wall_ref = reference_seconds(start, end, sampler.stamps)
    result = {
        **timing,
        "wall_s": wall,
        "wall_ref_s": wall_ref,
        "samples": len(sampler.stamps),
        "sample_median_us": statistics.median(e - t for _, t, e in sampler.stamps) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checks.attempted,
        "failures": checks.failures,
    }
    if tracer is not None:
        tracer.remove()
        spans = tracer.spans
        root = spans[0][2] - spans[0][1]
        layers = layer_metrics(spans)
        layers["trace.spans"] = len(spans)
        # spans hold the reference samples taken inside them
        layers["trace.root_share"] = root / (end - start)
        layers["trace.package_share"] = (
            sum(e - s for _, s, e, parent, _ in spans if parent == 0) / root
        )
        result["layers"] = layers
        tracer.write(spans_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
