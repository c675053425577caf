import itertools
import math
import random

import pytest

from dpdefect import (
    PARALLEL,
    RICH,
    TWISTED,
    ConstructionSpec,
    CoverSigning,
    DefectParams,
    FlagSigning,
    GraphBuilder,
    WeightedInstance,
    classify_vertices,
    colorable_all_covers,
    edge_orbits,
    find_coloring,
    flag_path_graph,
    flag_path_instance,
    flag_sign_classes,
    hard_cover_signing,
    make_flag,
    maximal_profiles,
    parallel_flag_signing,
    reduced_cover_iterator,
    serialize_instance,
    twisted_flag_signing,
    verify_counts,
)
from dpdefect.discharging import SURPLUS
from dpdefect.solver import _uncolorable_by_loads

P12 = DefectParams(1, 2)


def one_flag_host(params):
    builder = GraphBuilder(1)
    flag = make_flag(builder, 0, params)
    spec = ConstructionSpec(params, (0,), ((flag,),))
    return builder.graph(), spec, flag


def test_make_flag_sizes():
    for i, extra_v, extra_e in [(1, 3, 5), (2, 4, 7)]:
        params = DefectParams(i, 2 * i)
        builder = GraphBuilder(1)
        flag = make_flag(builder, 0, params)
        assert builder.n == 1 + extra_v
        assert len(builder.edges) == extra_e
        graph = builder.graph()
        assert graph.degree(flag.top) == i + 2
        assert all(graph.degree(u) == 2 for u in flag.middles)


def test_two_flags_base_degree():
    params = DefectParams(1, 2)
    builder = GraphBuilder(1)
    make_flag(builder, 0, params)
    make_flag(builder, 0, params)
    assert builder.graph().degree(0) == 2 * (params.i + 2)


def test_flag_path_spot_sizes():
    cases = {
        (1, 2, 1): (16, 25),
        (1, 2, 2): (20, 31),
        (2, 4, 1): (33, 56),
    }
    for (i, j, m), (nv, ne) in cases.items():
        graph, _ = flag_path_graph(DefectParams(i, j), m)
        assert (graph.n, graph.edge_count()) == (nv, ne)


def test_verify_counts_grid():
    for (i, j) in [(1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (2, 6)]:
        for m in (1, 2, 3):
            rep = verify_counts(DefectParams(i, j), m)
            assert rep.all_ok, (i, j, m)


def test_flag_path_rejects_bad_arguments():
    with pytest.raises(ValueError):
        flag_path_graph(P12, 0)
    with pytest.raises(ValueError):
        flag_path_graph(DefectParams(1, 1), 1)
    # 3 (24998 + 4) + 24998 = 100,004 vertices, one path base past the ceiling
    with pytest.raises(ValueError, match="100004 vertices, above the ceiling 100000"):
        flag_path_graph(P12, 24998)


def test_vertex_numbering_stable():
    inst, spec = flag_path_instance(P12, 1)
    first = spec.flags_by_base[0][0]
    assert (first.base, first.top, first.middles) == (0, 1, (2, 3))
    again, _ = flag_path_instance(P12, 1)
    assert serialize_instance(inst) == serialize_instance(again)


def test_hard_cover_flag_patterns():
    inst, spec = flag_path_instance(P12, 2)
    signing = hard_cover_signing(spec)
    table = signing.as_dict()
    # every flag at the first base is twisted: base-top T, base-middle T, top-middle P
    for flag in spec.flags_by_base[0]:
        assert table[flag.base_top_edge] == TWISTED
        for k in range(len(flag.middles)):
            assert table[flag.base_middle_edge(k)] == TWISTED
            assert table[flag.top_middle_edge(k)] == PARALLEL
    # final base: first i+1 flags twisted, the remaining j parallel
    last = spec.flags_by_base[-1]
    assert len(last) == P12.i + P12.j + 1
    for idx, flag in enumerate(last):
        expected = TWISTED if idx < P12.i + 1 else PARALLEL
        assert table[flag.base_top_edge] == expected
        for k in range(len(flag.middles)):
            assert table[flag.base_middle_edge(k)] == expected
            assert table[flag.top_middle_edge(k)] == (
                PARALLEL if expected == TWISTED else PARALLEL
            )
    # a parallel flag restricted to its edges is all-parallel
    parallel_flags = last[P12.i + 1 :]
    for flag in parallel_flags:
        assert all(table[e] == PARALLEL for e in flag.edges)


def test_hard_cover_m1_split():
    inst, spec = flag_path_instance(P12, 1)
    signing = hard_cover_signing(spec)
    table = signing.as_dict()
    kinds = []
    for flag in spec.flags_by_base[0]:
        signs = {table[e] for e in flag.edges}
        kinds.append("parallel" if signs == {PARALLEL} else "twisted")
    assert kinds == ["twisted"] * 2 + ["parallel"] * 3  # i+1 twisted, j+1 parallel


def test_hard_cover_path_edges():
    _, spec3 = flag_path_instance(P12, 3)
    table = hard_cover_signing(spec3).as_dict()
    assert table[(0, 1)] == TWISTED
    assert table[(1, 2)] == PARALLEL  # final path edge


def test_hard_cover_defeats_solver_small():
    for i, j, m in [(1, 2, 1), (1, 2, 2), (1, 3, 1), (1, 2, 3)]:
        inst, spec = flag_path_instance(DefectParams(i, j), m)
        assert find_coloring(inst, hard_cover_signing(spec)) is None, (i, j, m)


def test_flag_middles_are_surplus():
    for i, j, m in [(1, 2, 1), (2, 4, 1), (1, 3, 2)]:
        inst, spec = flag_path_instance(DefectParams(i, j), m)
        classes = classify_vertices(inst)
        for flag in spec.all_flags:
            assert all(classes[u] == SURPLUS for u in flag.middles)


def _min_base_conflicts(params, flag_signing, base_choice):
    """Brute force over the flag's 2^(i+2) completions: minimum defect at the
    base among completions that respect the top/middle capacities."""
    graph, spec, flag = one_flag_host(params)
    inst = WeightedInstance.uniform(graph, params)
    signing = CoverSigning.from_dict(graph, flag_signing.edge_signs(flag))
    others = [flag.top, *flag.middles]
    best = None
    for bits in range(1 << len(others)):
        cmap = [0] * graph.n
        cmap[0] = base_choice
        for k, v in enumerate(others):
            cmap[v] = (bits >> k) & 1
        # count conflicts per vertex directly off the cover adjacency rule
        defect = [0] * graph.n
        table = signing.as_dict()
        for (u, v) in graph.sorted_edges:
            if (cmap[u] ^ cmap[v]) == table[(u, v)]:
                defect[u] += 1
                defect[v] += 1
        if any(defect[v] > inst.caps[v][cmap[v]] for v in others):
            continue
        if best is None or defect[0] < best:
            best = defect[0]
    return best


def test_parallel_flag_forces_one_conflict_at_rich_base():
    for i in (1, 2):
        params = DefectParams(i, 2 * i)
        assert _min_base_conflicts(params, parallel_flag_signing(params), RICH) == 1
        assert _min_base_conflicts(params, parallel_flag_signing(params), 0) == 0


def test_twisted_flag_forces_one_conflict_at_poor_base():
    for i in (1, 2):
        params = DefectParams(i, 2 * i)
        assert _min_base_conflicts(params, twisted_flag_signing(params), 0) == 1
        assert _min_base_conflicts(params, twisted_flag_signing(params), RICH) == 0


def _flag_signing(graph, flag, bits):
    """The FlagSigning that signing `bits` of a one-flag host puts on the flag."""
    signs = CoverSigning.from_bits(graph, bits).as_dict()
    return FlagSigning(
        signs[flag.base_top_edge],
        tuple(
            (signs[flag.base_middle_edge(k)], signs[flag.top_middle_edge(k)])
            for k in range(len(flag.middles))
        ),
    )


def test_pendant_loads_match_the_brute_force_base_conflicts():
    # the options the load DP records for the flag, the one block of the host
    for params in (P12, DefectParams(2, 4)):
        graph, _, flag = one_flag_host(params)
        inst = WeightedInstance.uniform(graph, params)
        memo = {}
        assert _uncolorable_by_loads(inst, memo) == (None, 1 << len(flag.edges))
        (options,) = memo.values()

        def load(signing):
            # no valid completion reads as the base's cap + 1
            conflicts = (_min_base_conflicts(params, signing, x) for x in (0, RICH))
            return tuple(
                cap + 1 if c is None else c for cap, c in zip(inst.caps[flag.base], conflicts)
            )

        want = {load(signing) for signing in flag_sign_classes(params)}
        assert want == {(0, 0), (0, 1), (1, 0)}
        assert [got for got, _, _ in options] == [(0, 1), (1, 0)]
        assert set(maximal_profiles(want)) == {(0, 1), (1, 0)}
        for got, twisted, choice in options:
            assert choice == ((0, 0),) * (len(flag.middles) + 1)  # nothing hangs below them
            # the flag is the whole host, so its local edges are the host's
            bits = sum(1 << t for t in twisted)
            assert load(_flag_signing(graph, flag, bits)) == got


def test_pendant_loads_of_damaged_and_starved_flags():
    graph, _, flag = one_flag_host(P12)
    inst = WeightedInstance.uniform(graph, P12)
    rest = inst.caps[1:]
    # with one side of the base forbidden and the other at cap 0, a signing
    # is uncolorable iff the flag can force one conflict on the other side
    for base_caps, side in (((-1, 0), RICH), ((0, -1), 0)):
        one_side = inst.with_caps((base_caps, *rest))
        bits, _ = _uncolorable_by_loads(one_side, {})
        assert _min_base_conflicts(P12, _flag_signing(graph, flag, bits), side) == 1
        for edge in flag.edges:
            # a flag missing an edge forces no conflict on either side
            assert _uncolorable_by_loads(one_side.without_edge(edge), {})[0] is None
    starved = inst.with_caps(((1, 2), (-1, -1), (1, 2), (1, 2)))
    memo = {}
    assert _uncolorable_by_loads(starved, memo)[0] == 0  # the all-parallel signing
    (options,) = memo.values()
    assert [load for load, _, _ in options] == [(2, 3)]  # the base's caps + 1
    assert maximal_profiles([(0, 1), (1, 0), (1, 1), (0, 0)]) == [(1, 1)]
    assert maximal_profiles([(2, 0), (0, 1), (1, 0)]) == [(2, 0), (0, 1)]


def _orbit_count_by_exhaustion(i: int) -> int:
    """Independent oracle: canonicalize all 2^(2i+3) raw signings by sorting
    the per-middle sign pairs."""
    seen = set()
    for bt in (0, 1):
        for raw in itertools.product((0, 1), repeat=2 * (i + 1)):
            pairs = tuple(
                sorted((raw[2 * k], raw[2 * k + 1]) for k in range(i + 1))
            )
            seen.add((bt, pairs))
    return len(seen)


def test_flag_sign_classes_counts():
    assert len(flag_sign_classes(P12)) == 20 == _orbit_count_by_exhaustion(1)
    # Burnside for i=1: (2^5 + 2^3) / 2
    assert (32 + 8) // 2 == 20
    p24 = DefectParams(2, 4)
    assert len(flag_sign_classes(p24)) == 40 == _orbit_count_by_exhaustion(2)
    # Burnside for i=2 under S_3 on three sign pairs
    assert (128 + 3 * 32 + 2 * 8) // 6 == 40


def test_all_parallel_class_is_own_representative():
    classes = flag_sign_classes(P12)
    assert classes[0] == parallel_flag_signing(P12)
    assert all(c.middle_pairs == tuple(sorted(c.middle_pairs)) for c in classes)


def test_reduced_iterator_zero_flags_full_enumeration():
    graph = GraphBuilder(3)
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    g = graph.graph()
    spec = ConstructionSpec(P12, (0, 1, 2), ((), (), ()))
    got = {s.signs for s in reduced_cover_iterator(g, spec)}
    assert got == {(a, b) for a in (0, 1) for b in (0, 1)}


def test_reduced_iterator_class_counts():
    graph, spec = flag_path_graph(P12, 1)
    n_classes = 20
    assert sum(1 for _ in reduced_cover_iterator(graph, spec)) == math.comb(
        n_classes + 5 - 1, 5
    )
    flag = spec.flags_by_base[0][0]
    intact = math.comb(n_classes + 4 - 1, 4)
    for edge, damaged in [
        (flag.base_top_edge, math.comb(5, 2)),
        (flag.base_middle_edge(0), 2 * 2 * 4),
        (flag.top_middle_edge(1), 2 * 2 * 4),
    ]:
        got = sum(1 for _ in reduced_cover_iterator(graph, spec, deleted_edge=edge))
        assert got == damaged * intact


def test_reduced_iterator_sound_on_small_hosts():
    params = P12
    for trial in range(25):
        rng = random.Random(4000 + trial)
        graph, spec, flag = one_flag_host(params)
        base_cap = (rng.randint(-1, 1), rng.randint(-1, 2))
        top_cap = (rng.randint(-1, 1), rng.randint(-1, 2))
        mid_cap = (rng.randint(-1, 1), rng.randint(-1, 2))
        caps = (base_cap, top_cap, mid_cap, mid_cap)
        inst = WeightedInstance(graph, params, caps)
        full = colorable_all_covers(inst)
        red = colorable_all_covers(
            inst, signings=reduced_cover_iterator(graph, spec)
        )
        assert full.colorable == red.colorable
        e = graph.sorted_edges[rng.randrange(graph.edge_count())]
        inst_e = inst.without_edge(e)
        full_e = colorable_all_covers(inst_e)
        red_e = colorable_all_covers(
            inst_e, signings=reduced_cover_iterator(graph, spec, deleted_edge=e)
        )
        assert full_e.colorable == red_e.colorable


def test_reduced_iterator_sound_two_flags_and_path():
    # two bases joined by a path edge, one flag each: 9 vertices, 11 edges
    params = P12
    builder = GraphBuilder(2)
    builder.add_edge(0, 1)
    f0 = make_flag(builder, 0, params)
    f1 = make_flag(builder, 1, params)
    graph = builder.graph()
    spec = ConstructionSpec(params, (0, 1), ((f0,), (f1,)))
    rng = random.Random(4321)
    for _ in range(6):
        caps_list = [(rng.randint(-1, 1), rng.randint(-1, 2)) for _ in range(2)]
        tops = (rng.randint(-1, 1), rng.randint(-1, 2))
        mids = (rng.randint(-1, 1), rng.randint(-1, 2))
        pairs = [None] * graph.n
        pairs[0], pairs[1] = caps_list
        for f in (f0, f1):
            pairs[f.top] = tops
            for u in f.middles:
                pairs[u] = mids
        inst = WeightedInstance(graph, params, tuple(pairs))
        full = colorable_all_covers(inst)
        red = colorable_all_covers(inst, signings=reduced_cover_iterator(graph, spec))
        assert full.colorable == red.colorable


def test_damaged_variant_counts_i2():
    from dpdefect.constructions import _damaged_flag_variants

    params = DefectParams(2, 4)
    builder = GraphBuilder(1)
    flag = make_flag(builder, 0, params)
    assert len(_damaged_flag_variants(params, flag, flag.base_top_edge)) == math.comb(6, 3)
    assert len(_damaged_flag_variants(params, flag, flag.base_middle_edge(1))) == 2 * 2 * math.comb(5, 2)
    assert len(_damaged_flag_variants(params, flag, flag.top_middle_edge(2))) == 2 * 2 * math.comb(5, 2)


def _apply_perm_to_edges(graph, perm):
    return frozenset(
        tuple(sorted((perm[u], perm[v]))) for (u, v) in graph.sorted_edges
    )


def test_edge_orbits_follow_real_automorphisms():
    graph, spec = flag_path_graph(P12, 1)
    orbits = edge_orbits(spec)
    assert sorted(len(o) for o in orbits) == [5, 10, 10]
    assert sorted(e for o in orbits for e in o) == sorted(graph.sorted_edges)

    # swapping two whole flags at the same base is an automorphism
    f0, f1 = spec.flags_by_base[0][0], spec.flags_by_base[0][1]
    perm = list(range(graph.n))
    perm[f0.top], perm[f1.top] = f1.top, f0.top
    for a, b in zip(f0.middles, f1.middles):
        perm[a], perm[b] = b, a
    assert _apply_perm_to_edges(graph, perm) == graph.edges

    # swapping the two middles inside one flag is an automorphism
    perm = list(range(graph.n))
    a, b = f0.middles
    perm[a], perm[b] = b, a
    assert _apply_perm_to_edges(graph, perm) == graph.edges


def test_edge_orbits_m2_counts():
    graph, spec = flag_path_graph(P12, 2)
    orbits = edge_orbits(spec)
    # 1 path edge + 3 orbits for each of the 2 bases
    assert len(orbits) == 7
    assert sorted(e for o in orbits for e in o) == sorted(graph.sorted_edges)
