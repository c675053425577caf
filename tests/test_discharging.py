import random
from fractions import Fraction

from dpdefect import (
    ORDINARY,
    SURPLUS,
    DefectParams,
    SimpleGraph,
    WeightedInstance,
    charges,
    classify_vertices,
    flag_path_instance,
    ordinary_charge_doubled,
    subset_potential,
    verify_total_charge,
    vertex_potential,
)
from conftest import k2, path_graph, random_caps, random_graph

P12 = DefectParams(1, 2)


def simulate_two_step(instance):
    """Literal token-passing oracle for the closed-form charges.

    Starts with the vertex potential on vertices and -(i+1) on edges, lets
    every edge pay half its charge to each end, then lets every surplus
    vertex pass i/2 to each of its two neighbors.  Exact rationals.
    """
    graph = instance.graph
    params = instance.params
    classes = classify_vertices(instance)
    charge = [
        Fraction(vertex_potential(instance.caps[v], params)) for v in range(graph.n)
    ]
    half_edge = Fraction(-(params.i + 1), 2)
    for (u, v) in graph.sorted_edges:
        charge[u] += half_edge
        charge[v] += half_edge
    gift = Fraction(params.i, 2)
    for v in range(graph.n):
        if classes[v] == SURPLUS:
            for u in graph.adjacency[v]:
                charge[u] += gift
            charge[v] -= 2 * gift
    return charge


def test_classify_flag_middles_surplus():
    inst, spec = flag_path_instance(P12, 1)
    classes = classify_vertices(inst)
    for flag in spec.all_flags:
        for u in flag.middles:
            assert classes[u] == SURPLUS
        assert classes[flag.top] == ORDINARY
    assert classes[0] == ORDINARY  # base


def test_classify_capacity_mismatch_is_ordinary():
    graph = path_graph(3)
    caps = ((1, 2), (1, 1), (1, 2))  # middle: degree 2, c=(i, j-1)
    inst = WeightedInstance(graph, P12, caps)
    assert classify_vertices(inst)[1] == ORDINARY


def test_classify_isolated_is_ordinary():
    inst = WeightedInstance.uniform(SimpleGraph(1, frozenset()), P12)
    assert classify_vertices(inst) == (ORDINARY,)


def test_ordinary_charge_formula():
    # direct evaluation: c=(1,2), d1=2, d2=0 at (i,j)=(1,2) gives ch = 1
    assert ordinary_charge_doubled((1, 2), 2, 0, P12) == 2
    assert ordinary_charge_doubled((1, 2), 0, 0, P12) == 6  # isolated full-cap


def test_surplus_charge_zero():
    inst, spec = flag_path_instance(P12, 1)
    ledger = charges(inst)
    for flag in spec.all_flags:
        for u in flag.middles:
            assert ledger.charges_doubled[u] == 0


def test_k2_ledger():
    inst = WeightedInstance.uniform(k2(), P12)
    ledger = charges(inst)
    assert ledger.charges_doubled == (4, 4)  # ch = 3 - 1 = 2 per vertex
    assert ledger.total_doubled == 2 * subset_potential(inst, [0, 1])
    assert verify_total_charge(inst) == 0


def test_p3_conserves():
    inst = WeightedInstance.uniform(path_graph(3), P12)
    assert classify_vertices(inst) == (ORDINARY, SURPLUS, ORDINARY)
    assert verify_total_charge(inst) == 0


def test_adjacent_surplus_flagged_with_residual():
    for i, j in [(1, 2), (2, 4)]:
        params = DefectParams(i, j)
        inst = WeightedInstance.uniform(path_graph(4), params)
        ledger = charges(inst)
        assert ledger.adjacent_surplus_edges == ((1, 2),)
        assert verify_total_charge(inst) == -2 * i
        rho = subset_potential(inst, range(4))
        assert ledger.residual_doubled == ledger.total_doubled - 2 * rho == -2 * i


def test_flag_path_conserves():
    for i, j, m in [(1, 2, 1), (1, 3, 2), (2, 4, 1)]:
        inst, _ = flag_path_instance(DefectParams(i, j), m)
        assert not charges(inst).adjacent_surplus_edges
        assert verify_total_charge(inst) == 0


def test_ledger_matches_literal_simulation():
    rng = random.Random(311)
    checked = 0
    while checked < 300:
        graph = random_graph(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.7]))
        params = DefectParams(rng.randint(1, 2), rng.randint(2, 5))
        caps = random_caps(rng, graph.n, params)
        inst = WeightedInstance(graph, params, caps)
        ledger = charges(inst)
        sim = simulate_two_step(inst)
        assert sum(sim) == subset_potential(inst, range(graph.n))  # always conserved
        if ledger.adjacent_surplus_edges:
            continue  # closed form only matches without adjacent surplus pairs
        checked += 1
        for v in range(graph.n):
            assert Fraction(ledger.charges_doubled[v], 2) == sim[v]


def test_conservation_random_pairs():
    rng = random.Random(312)
    checked = 0
    while checked < 2000:
        graph = random_graph(rng, rng.randint(1, 8), rng.choice([0.25, 0.5]))
        params = DefectParams(rng.randint(1, 2), rng.randint(2, 5))
        inst = WeightedInstance(graph, params, random_caps(rng, graph.n, params))
        if charges(inst).adjacent_surplus_edges:
            continue
        checked += 1
        assert verify_total_charge(inst) == 0


def test_conservation_exhaustive_n4():
    from dpdefect.harness import graphs_up_to_iso

    rng = random.Random(313)
    for graph in graphs_up_to_iso(4):
        for _ in range(4):
            inst = WeightedInstance(graph, P12, random_caps(rng, graph.n, P12))
            if charges(inst).adjacent_surplus_edges:
                continue
            assert verify_total_charge(inst) == 0


def test_degree_split():
    rng = random.Random(314)
    for _ in range(100):
        graph = random_graph(rng, rng.randint(1, 8), 0.5)
        params = DefectParams(rng.randint(1, 2), rng.randint(2, 4))
        inst = WeightedInstance(graph, params, random_caps(rng, graph.n, params))
        ledger = charges(inst)
        for v in range(graph.n):
            assert ledger.d1[v] + ledger.d2[v] == graph.degree(v)
