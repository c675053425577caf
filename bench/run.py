"""dpdefect benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`, so nothing needs installing.  Every instance runs in a fresh
interpreter with one worker, one at a time, so it pays what a command-line
user pays.  The run first starts a few set-up-only interpreters, then runs
timed instances back to back until another one would overrun `--seconds`
(always at least one).  With `--trace 1` one traced instance follows, and
the per-layer metrics come from its spans.

Every instance's result is checked against pinned values outside its timed
region.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
run's context (commit, versions, CPU, seed, inputs).  The full record and
the trace's spans are written under `bench/out/`.  The exit code is 0 when
every instance passed its gate, 1 when one failed, and 2 when the source
tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_RUNS = 8
CHILD_TIMEOUT_S = 170


def spawn(name: str, seed: int, tiny: bool, mode: str, trace_path: Path | None = None):
    """Run one child; return (set-up seconds, report or None, error or None)."""
    cmd = [sys.executable, str(BENCH / "child.py"), name, str(seed), str(int(tiny)), mode]
    if trace_path is not None:
        cmd.append(str(trace_path))
    t0 = time.perf_counter()
    # Unbuffered, so reading the `ready` line leaves the rest in the pipe.
    with subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0
    ) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return setup_s, None, f"{mode} child timed out after {CHILD_TIMEOUT_S} s"
    if ready.strip() != b"ready" or proc.returncode != 0:
        detail = err.decode(errors="replace").strip()[-2000:]
        return setup_s, None, f"{mode} child exited {proc.returncode}: {detail}"
    if mode == "setup":
        return setup_s, None, None
    return setup_s, json.loads(out.decode().strip().splitlines()[-1]), None


def context(seed: int, inputs: dict | None, versions: dict | None) -> dict:
    """What produced the numbers: source, interpreter, machine and inputs."""
    src = ROOT / "src" / "dpdefect"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None  # a plain source checkout; the source digest still identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "versions": versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "seed": seed,
        "inputs": inputs,
    }


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one set-up run, for the fast test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dpdefect" / "__init__.py").is_file():
        print(f"bench: no dpdefect source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    name, seed, tiny = args.workload, args.seed, args.tiny
    setups: list[float] = []
    reports: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0

    def attempt(mode: str, trace_path: Path | None = None) -> dict | None:
        nonlocal attempted, failed
        attempted += 1
        setup_s, report, error = spawn(name, seed, tiny, mode, trace_path)
        if error is None:
            setups.append(setup_s)
            error = "; ".join(report["problems"]) if report and report["problems"] else None
        if error is not None:
            failed += 1
            errors.append(error)
            print(f"bench: {name}: {error}", file=sys.stderr)
        return report

    for _ in range(1 if tiny else SETUP_RUNS):
        attempt("setup")
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        report = attempt("timed")
        durations.append(time.perf_counter() - t0)
        if report is not None:
            reports.append(report)
        if time.perf_counter() - start + statistics.median(durations) > args.seconds:
            break
    traced = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        traced = attempt("traced", OUT / f"{name}-seed{seed}-spans.json.gz")

    if not reports or not setups or (args.trace and traced is None):
        return 1
    wall = statistics.median(r["wall_s"] for r in reports)
    measured = {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in reports),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    section = "end_to_end"
    if traced is not None:
        section = "per_layer"
        measured = dict(traced["layers"])
        measured["constructions.build_s"] = traced["build_s"]
        measured["trace.wall_s"] = traced["wall_s"]
        measured["trace.overhead_s"] = traced["wall_s"] - wall
    # A layer the workload never reaches (say, phase 2 on a survey) reads 0.
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in config[section]
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    ctx = context(seed, reports[0]["inputs"], reports[0]["versions"])
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "trace": args.trace, "seconds": args.seconds,
              "context": ctx, "result": result, "errors": errors,
              "setup_s": setups, "instances": reports, "traced": traced}
    suffix = "-tiny" if tiny else ""
    (OUT / f"{name}-seed{seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
