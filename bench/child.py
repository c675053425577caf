"""One benchmark instance in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED TINY MODE [TRACE_PATH]

MODE is `setup` (import and build the inputs, then exit), `timed` or
`traced`.  The child prints `ready` once set-up is done, so the parent can
time set-up from its own clock including interpreter start.  Timed and
traced children then make the workload's call, run its correctness gate
outside the timed region, and print one JSON report line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def cpu_seconds() -> float:
    """User plus system time of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    name, seed, tiny, mode = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    import workloads

    spec = workloads.inputs(name, seed, tiny)
    t0 = time.perf_counter()
    built = workloads.build(spec)
    build_s = time.perf_counter() - t0
    print("ready", flush=True)
    if mode == "setup":
        return 0

    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    result = workloads.run(name, spec, built)
    wall_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    pins = (workloads.TINY_PINS if tiny else workloads.PINS)[name]
    report = {
        "inputs": spec,
        "versions": workloads.versions(),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "build_s": build_s,
        "problems": workloads.gate(pins, workloads.observed(name, spec, built, result)),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        tracer.write(argv[4])
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
