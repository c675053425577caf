"""Acceptance suite: nine criteria, one printed verdict line per test.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each prints its own time.
"""

import hashlib
import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from dpdefect import (
    CRITICAL,
    CoverSigning,
    DefectParams,
    Reduced,
    WeightedInstance,
    brute_force_oracle,
    charges,
    colorable_all_covers,
    enumerate_critical,
    find_coloring,
    flag_path_instance,
    graphs_up_to_iso,
    hard_cover_signing,
    is_critical,
    parse_instance,
    sample_covers,
    sampled_edge_deletion_sweep,
    serialize_instance,
    sparsity_test,
    verify_counts,
    verify_total_charge,
)
from dpdefect.cli import main as cli_main
from conftest import (
    check_submodularity,
    drawn_signings,
    first_uncolorable,
    random_caps,
    random_graph,
)

PAIR_GRID = [(1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (2, 6)]
M_GRID = [1, 2, 3]
HARD_COVER_CASES = [(1, 2, 1), (1, 2, 2), (1, 3, 1), (2, 4, 1)]
CORPUS_SEED = 20250808
WORKERS = 2


@contextmanager
def criterion(num: int, desc: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc} ({time.monotonic() - started:.1f}s)")


@pytest.fixture(scope="session")
def corpus():
    rng = random.Random(CORPUS_SEED)
    instances = []
    for _ in range(500):
        n = rng.randint(1, 6)
        graph = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        i = rng.randint(0, 2)
        params = DefectParams(i, rng.randint(i, i + 3))
        instances.append(
            WeightedInstance(graph, params, random_caps(rng, n, params))
        )
    return instances


def test_criterion_1_construction_counts():
    with criterion(1, "construction size identities exact on the whole grid"):
        started = time.monotonic()
        for (i, j), m in itertools.product(PAIR_GRID, M_GRID):
            rep = verify_counts(DefectParams(i, j), m)
            assert rep.all_ok, (i, j, m)
        g12, _ = flag_path_instance(DefectParams(1, 2), 1)
        assert (g12.graph.n, g12.graph.edge_count()) == (16, 25)
        g24, _ = flag_path_instance(DefectParams(2, 4), 1)
        assert (g24.graph.n, g24.graph.edge_count()) == (33, 56)
        assert time.monotonic() - started < 1.0


def test_criterion_2_hard_cover_uncolorable():
    with criterion(2, "hard covers defeat the solver on all four cases"):
        for i, j, m in HARD_COVER_CASES:
            inst, spec = flag_path_instance(DefectParams(i, j), m)
            started = time.monotonic()
            assert find_coloring(inst, hard_cover_signing(spec)) is None, (i, j, m)
            assert time.monotonic() - started < 60.0, (i, j, m)


def test_criterion_2_whole_grid():
    with criterion(2, "every grid hard cover uncolorable, every grid host critical"):
        started = time.monotonic()
        for (i, j), m in itertools.product(PAIR_GRID, M_GRID):
            inst, spec = flag_path_instance(DefectParams(i, j), m)
            hard = colorable_all_covers(inst, signings=(hard_cover_signing(spec),))
            assert not hard.colorable, (i, j, m)
            verdict = is_critical(inst, Reduced(spec))
            assert (verdict.verdict, verdict.potential_ok) == (CRITICAL, True), (i, j, m)
        assert time.monotonic() - started < 30.0


def test_criterion_3_criticality_of_single_base_construction():
    with criterion(3, "single-base construction certified critical, fallback clean"):
        started = time.monotonic()
        inst, spec = flag_path_instance(DefectParams(1, 2), 1)

        verdict = is_critical(inst, Reduced(spec), workers=WORKERS)
        assert verdict.verdict == CRITICAL and verdict.certifying
        assert verdict.witness is not None
        assert find_coloring(inst, verdict.witness) is None
        assert verdict.edges_checked == 3  # one per edge orbit
        covered = sorted(e for orbit in verdict.edge_orbit_map for e in orbit)
        assert covered == sorted(inst.graph.sorted_edges)

        sweep = sampled_edge_deletion_sweep(
            inst, count=100_000, seed=CORPUS_SEED, workers=WORKERS
        )
        assert len(sweep) == 25
        assert all(witness is None for _, witness in sweep)
        assert time.monotonic() - started < 1800.0


def test_criterion_4_no_high_potential_critical_pairs():
    with criterion(4, "no critical pair with potential above i-j-1 for n <= 5"):
        started = time.monotonic()
        params = DefectParams(1, 2)
        for n in (1, 2, 3, 4, 5):
            rep = enumerate_critical(params, n, mode="weighted")
            assert rep.potential_violations == (), n
            assert all(e.rho <= -2 for e in rep.criticals)
        # n = 5 runs only here: its counts and its report-order digest
        assert rep.graphs_examined == 34 and rep.pairs_examined == 8_460_288
        assert len(rep.criticals) == 82_241 and rep.min_edges == 4
        rows = [
            [[list(e) for e in c.edges], [list(cap) for cap in c.caps], c.rho]
            for c in rep.criticals
        ]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == "8810acb02ded7c23"
        assert time.monotonic() - started < 600.0


def test_criterion_5_submodularity_residual_zero():
    with criterion(5, "submodularity residual exactly 0, random and exhaustive"):
        rng = random.Random(CORPUS_SEED + 5)
        for _ in range(10_000):
            n = rng.randint(1, 12)
            graph = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            i = rng.randint(0, 2)
            params = DefectParams(i, rng.randint(i, i + 4))
            inst = WeightedInstance(graph, params, random_caps(rng, n, params))
            a = [v for v in range(n) if rng.random() < 0.5]
            b = [v for v in range(n) if rng.random() < 0.5]
            assert check_submodularity(inst, a, b) == 0
        for n in range(1, 6):
            for graph in graphs_up_to_iso(n):
                params = DefectParams(1, 2)
                for caps in (
                    ((params.i, params.j),) * n,
                    random_caps(rng, n, params),
                ):
                    inst = WeightedInstance(graph, params, caps)
                    for ma in range(1 << n):
                        sa = [v for v in range(n) if (ma >> v) & 1]
                        for mb in range(1 << n):
                            sb = [v for v in range(n) if (mb >> v) & 1]
                            assert check_submodularity(inst, sa, sb) == 0


def test_criterion_6_charge_identity():
    with criterion(6, "total charge equals potential on clean pairs and the grid"):
        rng = random.Random(CORPUS_SEED + 6)
        checked = 0
        while checked < 10_000:
            n = rng.randint(1, 9)
            graph = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
            i = rng.randint(1, 2)
            params = DefectParams(i, rng.randint(2 * i, 2 * i + 3))
            inst = WeightedInstance(graph, params, random_caps(rng, n, params))
            if charges(inst).adjacent_surplus_edges:
                continue
            checked += 1
            assert verify_total_charge(inst) == 0
        for (i, j), m in itertools.product(PAIR_GRID, M_GRID):
            inst, _ = flag_path_instance(DefectParams(i, j), m)
            assert verify_total_charge(inst) == 0, (i, j, m)


def test_criterion_7_solver_oracle_agreement(corpus):
    with criterion(7, "solver and oracle agree on the 500-instance corpus"):
        for k, inst in enumerate(corpus):
            graph = inst.graph
            m = graph.edge_count()
            if m <= 10:
                signings = (
                    CoverSigning.from_bits(graph, bits) for bits in range(1 << m)
                )
            else:
                signings = drawn_signings(graph, 64, seed=CORPUS_SEED + k)
            for signing in signings:
                got = find_coloring(inst, signing)
                want = brute_force_oracle(inst, signing)
                assert (got is None) == (want is None)


def test_criterion_8_sparse_graphs_colorable():
    with criterion(8, "sparse graphs colorable; construction dense by margin 1"):
        for i, j in [(1, 2), (2, 4)]:
            params = DefectParams(i, j)
            rng = random.Random(CORPUS_SEED + 8 + i)
            kept = 0
            while kept < 200:
                graph = random_graph(rng, rng.randint(3, 10), 0.25)
                if not sparsity_test(graph, params).sparse:
                    continue
                kept += 1
                inst = WeightedInstance.uniform(graph, params)
                if graph.edge_count() <= 16:
                    scan = colorable_all_covers(inst, max_edges=16)
                    assert scan.colorable
                    if graph.edge_count() <= 8:  # 339 of the 400; the rest cost seconds
                        assert first_uncolorable(inst) == (None, scan.signings_examined)
                else:
                    rep = sample_covers(inst, 1000, seed=CORPUS_SEED + kept)
                    assert rep.witness is None
            graph, _ = __import__("dpdefect").flag_path_graph(params, 1)
            res = sparsity_test(graph, params)
            assert not res.sparse
            margin = (i + 1) * graph.edge_count() - ((2 * i + 1) * graph.n + j - i)
            assert res.margin == margin == 1


def test_criterion_9_roundtrip_and_deterministic_json(corpus, capsys):
    with criterion(9, "round-trip identity and byte-identical JSON reruns"):
        for inst in corpus:
            assert parse_instance(serialize_instance(inst)) == (inst, None)
        for (i, j), m in itertools.product(PAIR_GRID, M_GRID):
            inst, spec = flag_path_instance(DefectParams(i, j), m)
            signing = hard_cover_signing(spec)
            assert parse_instance(serialize_instance(inst, signing)) == (
                inst,
                signing,
            )

        def run(argv):
            code = cli_main(argv)
            return code, capsys.readouterr().out

        for argv in (
            ["verify", "--pairs", "1,2;1,3", "--ms", "1,2", "--json"],
            [
                "critical", "--construct", "1,2,1", "--strategy", "sampled",
                "--count", "300", "--seed", "17", "--json",
            ],
            ["enumerate", "--i", "1", "--j", "2", "--n", "3", "--json"],
        ):
            code1, out1 = run(argv)
            code2, out2 = run(argv)
            assert code1 == code2
            assert out1 == out2
            json.loads(out1)  # well-formed
