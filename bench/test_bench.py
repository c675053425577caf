"""Fast test of the benchmark itself, on tiny inputs.

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from dpdefect import CoverSigning, edge_orbits  # noqa: E402
from dpdefect.harness import CRITICAL, CriticalityVerdict  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, seed: int, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(workload, trace):
    code, out = bench(ROOT, workload, 3, trace)
    assert code == 0, out
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = CONFIG["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:  # CPU time of a sub-millisecond tiny run may read 0
        assert all(result["metrics"][k]["value"] > 0 for k in ("wall_s", "setup_s", "peak_rss_mb"))


def test_sweep_is_clean_on_a_second_seed():
    code, out = bench(ROOT, "sampled-sweep-121", 11, 0)
    assert code == 0 and last_json(out)["correct"]


def test_tracer_computes_every_layer_metric_name():
    added_by_run = {"constructions.build_s", "trace.wall_s", "trace.overhead_s"}
    names = {m["name"] for m in CONFIG["per_layer"]} - added_by_run
    missing = names - set(Tracer().layer_metrics())
    assert all(name.startswith("harness.phase2.edge.") for name in missing)


def test_certify_gate_alone():
    tiny = workloads.inputs("certify-121", 0, True)
    full = workloads.inputs("certify-121", 0, False)
    built = workloads.build(tiny)
    instance, spec = built
    phase1 = workloads.run("certify-121", tiny, built)
    verdict = CriticalityVerdict(
        CRITICAL, True, phase1.witness, None, None, None,
        phase1.signings_examined, 3, phase1.nodes_expanded, edge_orbits(spec), True,
    )
    pins = workloads.PINS["certify-121"]
    assert workloads.gate(pins, workloads.observed("certify-121", full, built, verdict)) == []
    assert workloads.gate(
        dict(pins, edges_checked=4), workloads.observed("certify-121", full, built, verdict)
    )
    colorable = CoverSigning.uniform(instance.graph, 1)
    bad = workloads.observed("certify-121", full, built, replace(verdict, witness=colorable))
    assert workloads.gate(pins, bad) == ["witness_uncolorable: expected True, got False"]


def copy_bench(dst: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(BENCH, dst / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        (dst / "src").symlink_to(ROOT / "src")
    return dst


def test_wrong_pin_fails_the_run(tmp_path):
    root = copy_bench(tmp_path, with_src=True)
    source = root / "bench" / "workloads.py"
    text = source.read_text()
    assert '"pairs": 6912,' in text
    source.write_text(text.replace('"pairs": 6912,', '"pairs": 6913,'))
    code, out = bench(root, "weighted-survey-n4", 3, 0)
    assert code == 1
    result = last_json(out)
    assert not result["correct"] and result["failed"] >= 1


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    root = copy_bench(tmp_path, with_src=False)
    code, out = bench(root, "certify-121", 3, 0)
    assert code != 0 and out == ""
