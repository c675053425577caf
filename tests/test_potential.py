import itertools
import random

import pytest

from dpdefect import (
    CapacityFunction,
    DefectParams,
    SimpleGraph,
    WeightedInstance,
    check_submodularity,
    flag_path_instance,
    min_potential_subset,
    sparsity_test,
    subset_potential,
    vertex_potential,
)
from dpdefect.harness import graphs_up_to_iso
from conftest import k2, random_caps, random_graph

P12 = DefectParams(1, 2)


def test_vertex_potential_values():
    for i, j in [(1, 2), (2, 4), (0, 3)]:
        params = DefectParams(i, j)
        assert vertex_potential((i, j), params) == 2 * i + 1
        assert vertex_potential((-1, -1), params) == i - j - 1
    assert vertex_potential((1, 2), P12) == 3


def test_subset_potential_empty_is_zero():
    inst = WeightedInstance.uniform(k2(), P12)
    assert subset_potential(inst, []) == 0


def test_subset_potential_k2():
    inst = WeightedInstance.uniform(k2(), P12)
    assert subset_potential(inst, [0, 1]) == 2 * 3 - 2  # 4


def test_subset_potential_flag_path_full_set():
    inst, _ = flag_path_instance(P12, 1)
    assert subset_potential(inst, range(16)) == 16 * 3 - 2 * 25 == -2


def test_subset_potential_matches_direct_formula():
    rng = random.Random(31)
    for _ in range(50):
        graph = random_graph(rng, rng.randint(1, 8), 0.5)
        params = DefectParams(rng.randint(0, 2), rng.randint(2, 5))
        inst = WeightedInstance(graph, params, random_caps(rng, graph.n, params))
        total = sum(vertex_potential(inst.caps[v], params) for v in range(graph.n))
        # independent edge count straight off the edge set
        assert subset_potential(inst, range(graph.n)) == total - (
            params.i + 1
        ) * len(graph.edges)


def test_min_potential_single_forbidden_vertex():
    inst = WeightedInstance(
        SimpleGraph(1, frozenset()), P12, CapacityFunction(((-1, -1),))
    )
    rep = min_potential_subset(inst)
    assert rep.subset == (0,) and rep.value == -2


def test_min_potential_k2_prefers_singleton():
    inst = WeightedInstance.uniform(k2(), P12)
    rep = min_potential_subset(inst)
    assert rep.value == 3
    assert rep.subset == (0,)  # tie against {1} broken lexicographically


def test_min_potential_flag_path():
    inst, _ = flag_path_instance(P12, 1)
    rep = min_potential_subset(inst)
    assert rep.value == -2 and rep.subset == tuple(range(16))
    proper = min_potential_subset(inst, mode="nonempty-proper")
    assert proper.value == -1


def test_min_potential_exhaustive_against_naive():
    rng = random.Random(5150)
    for _ in range(25):
        graph = random_graph(rng, rng.randint(1, 7), 0.5)
        params = DefectParams(rng.randint(0, 2), rng.randint(2, 4))
        inst = WeightedInstance(graph, params, random_caps(rng, graph.n, params))
        naive = min(
            subset_potential(inst, s)
            for r in range(1, graph.n + 1)
            for s in itertools.combinations(range(graph.n), r)
        )
        assert min_potential_subset(inst).value == naive


def test_min_potential_guards():
    inst = WeightedInstance.uniform(SimpleGraph(0, frozenset()), P12)
    with pytest.raises(ValueError):
        min_potential_subset(inst)
    big = WeightedInstance.uniform(SimpleGraph(25, frozenset()), P12)
    with pytest.raises(ValueError, match="ceiling"):
        min_potential_subset(big)


def test_submodularity_identity_cases():
    inst, _ = flag_path_instance(P12, 1)
    assert check_submodularity(inst, [0, 1, 2], [0, 1, 2]) == 0
    assert check_submodularity(inst, [1, 2, 3], [4, 5, 6]) == 0
    assert check_submodularity(inst, [], [0, 5]) == 0


def test_submodularity_random_quadruples():
    rng = random.Random(88)
    for _ in range(2000):
        graph = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.5, 0.8]))
        params = DefectParams(rng.randint(0, 2), rng.randint(2, 5))
        inst = WeightedInstance(graph, params, random_caps(rng, graph.n, params))
        a = [v for v in range(graph.n) if rng.random() < 0.5]
        b = [v for v in range(graph.n) if rng.random() < 0.5]
        assert check_submodularity(inst, a, b) == 0


def test_submodularity_exhaustive_small():
    rng = random.Random(89)
    for graph in graphs_up_to_iso(4):
        params = DefectParams(1, 2)
        for caps in (
            CapacityFunction.uniform(graph.n, params),
            random_caps(rng, graph.n, params),
        ):
            inst = WeightedInstance(graph, params, caps)
            n = graph.n
            for ma in range(1 << n):
                sa = [v for v in range(n) if (ma >> v) & 1]
                for mb in range(1 << n):
                    sb = [v for v in range(n) if (mb >> v) & 1]
                    assert check_submodularity(inst, sa, sb) == 0


def test_sparsity_k2_and_empty():
    assert sparsity_test(k2(), P12).sparse
    assert sparsity_test(SimpleGraph(0, frozenset()), P12).sparse


def test_sparsity_flag_path_dense_margin_one():
    for i, j in [(1, 2), (2, 4)]:
        params = DefectParams(i, j)
        graph, _ = __import__("dpdefect").flag_path_graph(params, 1)
        res = sparsity_test(graph, params)
        assert not res.sparse
        assert res.witness == tuple(range(graph.n))
        assert res.margin == 1


def test_sparsity_ceiling_paths():
    # 33 vertices: above the default ceiling, but the whole graph witnesses density
    params = DefectParams(2, 4)
    graph, _ = __import__("dpdefect").flag_path_graph(params, 1)
    res = sparsity_test(graph, params)
    assert not res.sparse
    assert res.witness == tuple(range(graph.n)) and res.margin == 1
    sparse_big = SimpleGraph(30, frozenset())
    with pytest.raises(ValueError, match="ceiling"):
        sparsity_test(sparse_big, params)


def _direct_density(graph, params):
    """(sparse, witness, margin) from counting the edges of every nonempty
    subset: the maximum margin, ties to the smaller, then lex-smaller subset."""
    i, j = params.i, params.j
    best = (0, None)
    for size in range(1, graph.n + 1):
        for subset in itertools.combinations(range(graph.n), size):
            inside = set(subset)
            edges = sum(1 for u, v in graph.edges if u in inside and v in inside)
            margin = (i + 1) * edges - ((2 * i + 1) * size + j - i)
            if margin > best[0]:
                best = (margin, subset)
    if best[1] is None:
        return True, None, None
    return False, best[1], best[0]


def test_sparsity_matches_a_direct_density_count():
    rng = random.Random(90)
    dense = 0
    for _ in range(60):
        graph = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6]))
        drawn = DefectParams(rng.randint(1, 2), rng.randint(2, 5))
        for params in (
            drawn,
            DefectParams(0, drawn.j),
            DefectParams(drawn.i, drawn.i),
            DefectParams(0, 0),
        ):
            res = sparsity_test(graph, params)
            assert (res.sparse, res.witness, res.margin) == _direct_density(graph, params)
            dense += not res.sparse
    assert dense > 0
