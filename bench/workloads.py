"""The benchmark workloads: their inputs, the timed call, and the correctness gate.

Importing this module imports dpdefect, so a child process that imports it
pays the same start-up a command-line user pays.  Every call into the
library goes through the `dpdefect.harness` module attributes, so a tracer
that rebinds those names sees the work.
"""

from __future__ import annotations

import hashlib
import json
import platform

import numpy

import dpdefect
import dpdefect.harness as harness
from dpdefect import DefectParams, brute_force_oracle, find_coloring, flag_path_instance

NAMES = ("certify-121", "sampled-sweep-121", "weighted-survey-n4", "uniform-survey-n6")

# Signings per deleted edge in the sampled sweep: 25 edges x 4000 is about 3 s.
SWEEP_COUNT = 4000
TINY_SWEEP_COUNT = 2

# Values pinned on the code the benchmark was defined against.  Search-node
# and signing counts are left out on purpose: an exact reduction may change
# them without changing a verdict, so the trace reports them as layer counts.
PINS = {
    "certify-121": {
        "verdict": "critical",
        "certifying": True,
        "edges_checked": 3,
        "potential_ok": True,
        "witness_uncolorable": True,
    },
    "sampled-sweep-121": {"entries": 25, "witnesses": 0},
    "weighted-survey-n4": {
        "graphs": 11,
        "pairs": 228096,
        "criticals": 6372,
        "min_edges": 3,
        "bound_min_edges": 7,
        "potential_violations": 0,
        "sparsity_violations": 0,
        "digest": "57cf46cfca2e58c2",
    },
    "uniform-survey-n6": {
        "graphs": 156,
        "pairs": 156,
        "criticals": 3,
        "min_edges": 12,
        "bound_min_edges": 10,
        "potential_violations": 0,
        "sparsity_violations": 0,
        "digest": "59e769bdb3d37deb",
    },
}

# The fast test's inputs: surveys at n=3, a 2-per-edge sweep, and phase 1 of
# the certification alone (its full run takes about 16 s).
TINY_PINS = {
    "certify-121": {"witness_uncolorable": True},
    "sampled-sweep-121": PINS["sampled-sweep-121"],
    "weighted-survey-n4": {
        "graphs": 4,
        "pairs": 6912,
        "criticals": 493,
        "min_edges": 2,
        "bound_min_edges": 6,
        "potential_violations": 0,
        "sparsity_violations": 0,
        "digest": "9d6086c7ff4fe9b2",
    },
    "uniform-survey-n6": {
        "graphs": 4,
        "pairs": 4,
        "criticals": 0,
        "min_edges": None,
        "bound_min_edges": 6,
        "potential_violations": 0,
        "sparsity_violations": 0,
        "digest": "4f53cda18c2baa0c",
    },
}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "dpdefect": dpdefect.__version__}


def inputs(name: str, seed: int, tiny: bool) -> dict:
    """JSON description of a workload's inputs; the same seed gives the same inputs."""
    if name == "certify-121":
        return {"i": 1, "j": 2, "m": 1, "strategy": "reduced", "workers": 1,
                "scope": "phase 1 only" if tiny else "both phases"}
    if name == "sampled-sweep-121":
        return {"i": 1, "j": 2, "m": 1, "strategy": "sampled", "workers": 1,
                "count_per_edge": TINY_SWEEP_COUNT if tiny else SWEEP_COUNT,
                "seed": seed}
    if name == "weighted-survey-n4":
        return {"i": 1, "j": 2, "n": 3 if tiny else 4, "mode": "weighted"}
    if name == "uniform-survey-n6":
        return {"i": 1, "j": 2, "n": 3 if tiny else 6, "mode": "uniform"}
    raise ValueError(f"unknown workload {name!r}")


def build(spec: dict):
    """Construct the objects the timed call needs (part of set-up)."""
    params = DefectParams(spec["i"], spec["j"])
    if "m" in spec:
        return flag_path_instance(params, spec["m"])
    return params


def run(name: str, spec: dict, built):
    """The timed call."""
    if name == "certify-121":
        instance, construction = built
        if spec["scope"] == "phase 1 only":
            covers = harness.reduced_cover_iterator(instance.graph, construction, None)
            return harness.colorable_all_covers(instance, signings=covers)
        return harness.is_critical(
            instance, harness.Reduced(construction), workers=spec["workers"]
        )
    if name == "sampled-sweep-121":
        instance, _ = built
        return harness.sampled_edge_deletion_sweep(
            instance, spec["count_per_edge"], spec["seed"], workers=spec["workers"]
        )
    return harness.enumerate_critical(built, spec["n"], mode=spec["mode"])


def critical_digest(criticals) -> str:
    """Order-independent digest of a survey's critical set."""
    rows = sorted(
        ([list(e) for e in c.edges], [list(cap) for cap in c.caps], c.rho)
        for c in criticals
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def observed(name: str, spec: dict, built, result) -> dict:
    """The gated values of a result, in the shape of its pins."""
    if name == "certify-121":
        instance, _ = built
        witness = result.witness
        got = {
            "witness_uncolorable": witness is not None
            and find_coloring(instance, witness) is None
            and brute_force_oracle(instance, witness) is None
        }
        if spec["scope"] == "both phases":
            got.update(
                verdict=result.verdict,
                certifying=result.certifying,
                edges_checked=result.edges_checked,
                potential_ok=result.potential_ok,
            )
        return got
    if name == "sampled-sweep-121":
        instance, _ = built
        in_order = tuple(edge for edge, _ in result) == instance.graph.sorted_edges
        return {
            "entries": len(result) if in_order else -1,
            "witnesses": sum(witness is not None for _, witness in result),
        }
    return {
        "graphs": result.graphs_examined,
        "pairs": result.pairs_examined,
        "criticals": len(result.criticals),
        "min_edges": result.min_edges,
        "bound_min_edges": result.bound_min_edges,
        "potential_violations": len(result.potential_violations),
        "sparsity_violations": len(result.sparsity_violations),
        "digest": critical_digest(result.criticals),
    }


def gate(expected: dict, got: dict) -> list[str]:
    """Mismatches between pinned and observed values; empty when correct."""
    return [
        f"{key}: expected {want!r}, got {got.get(key)!r}"
        for key, want in expected.items()
        if got.get(key) != want
    ]
