import itertools
import random
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpdefect.harness as harness

from dpdefect import (
    COLORABLE,
    CRITICAL,
    NOT_CRITICAL,
    PARALLEL,
    TWISTED,
    UNREFUTED,
    CapacityFunction,
    CoverSigning,
    DefectParams,
    Exhaustive,
    Reduced,
    Sampled,
    ConstructionSpec,
    CoverScan,
    GraphBuilder,
    SimpleGraph,
    WeightedInstance,
    brute_force_oracle,
    colorable_all_covers,
    enumerate_critical,
    find_coloring,
    flag_path_instance,
    graphs_up_to_iso,
    is_critical,
    make_flag,
    reduced_cover_iterator,
    sample_covers,
    sampled_edge_deletion_sweep,
    sparsity_test,
    subset_potential,
    verify_sharpness_suite,
)
from dpdefect.harness import (
    CriticalEntry,
    _FlagProfiles,
    _WeightedTables,
    in_guaranteed_range,
)
from dpdefect.solver import sample_signings
from conftest import cycle_graph, graphs_by_mask_scan, k2, random_caps, random_graph

P12 = DefectParams(1, 2)
P00 = DefectParams(0, 0)


def test_single_forbidden_vertex_is_critical():
    inst = WeightedInstance(
        SimpleGraph(1, frozenset()), P12, CapacityFunction(((-1, -1),))
    )
    verdict = is_critical(inst, Exhaustive())
    assert verdict.verdict == CRITICAL
    assert verdict.certifying
    assert verdict.potential_ok is True  # rho = i - j - 1 exactly


def test_k2_zero_defect_colorable():
    inst = WeightedInstance.uniform(k2(), P00)
    verdict = is_critical(inst, Exhaustive())
    assert verdict.verdict == COLORABLE


def test_k2_forbidden_poor_pair_critical():
    inst = WeightedInstance(
        k2(), P12, CapacityFunction(((-1, 0), (-1, 0)))
    )
    verdict = is_critical(inst, Exhaustive())
    assert verdict.verdict == CRITICAL
    assert verdict.potential_ok is True


def test_c3_zero_defect_critical_and_deletions_colorable():
    inst = WeightedInstance.uniform(cycle_graph(3), P00)
    verdict = is_critical(inst, Exhaustive())
    assert verdict.verdict == CRITICAL
    for e in inst.graph.sorted_edges:
        sub = is_critical(inst.without_edge(e), Exhaustive())
        assert sub.verdict == COLORABLE


def test_triangle_with_pendant_not_critical():
    graph = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    inst = WeightedInstance.uniform(graph, P00)
    verdict = is_critical(inst, Exhaustive())
    assert verdict.verdict == NOT_CRITICAL
    assert verdict.failing_edge == (2, 3)  # the triangle survives this deletion
    assert verdict.failing_witness is not None
    assert find_coloring(inst.without_edge((2, 3)), verdict.failing_witness) is None


def test_isolated_vertex_blocks_criticality():
    graph = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    inst = WeightedInstance.uniform(graph, P00)
    verdict = is_critical(inst, Exhaustive())
    assert verdict.verdict == NOT_CRITICAL
    assert verdict.failing_vertex == 3


def test_sampled_never_certifies():
    inst = WeightedInstance(
        SimpleGraph(1, frozenset()), P12, CapacityFunction(((-1, -1),))
    )
    verdict = is_critical(inst, Sampled(count=20, seed=3))
    assert verdict.verdict == UNREFUTED
    assert not verdict.certifying

    colorable = is_critical(WeightedInstance.uniform(k2(), P00), Sampled(5, 1))
    assert colorable.verdict == COLORABLE
    assert not colorable.certifying


def test_is_critical_deterministic_and_worker_independent():
    inst = WeightedInstance.uniform(cycle_graph(5), P00)
    a = is_critical(inst, Exhaustive())
    b = is_critical(inst, Exhaustive())
    c = is_critical(inst, Exhaustive(), workers=2)
    assert a == b == c
    assert a.verdict == CRITICAL


def test_reduced_strategy_matches_exhaustive_on_small_host():
    from dpdefect import ConstructionSpec, GraphBuilder, make_flag

    builder = GraphBuilder(2)
    builder.add_edge(0, 1)
    f0 = make_flag(builder, 0, P12)
    f1 = make_flag(builder, 1, P12)
    graph = builder.graph()
    spec = ConstructionSpec(P12, (0, 1), ((f0,), (f1,)))
    inst = WeightedInstance.uniform(graph, P12)
    reduced = is_critical(inst, Reduced(spec))
    exhaustive = is_critical(inst, Exhaustive())
    assert reduced.verdict == exhaustive.verdict
    assert reduced.certifying
    assert len(reduced.edge_orbit_map) == 7  # 1 path edge + 3 orbits per base
    covered = sorted(e for orbit in reduced.edge_orbit_map for e in orbit)
    assert covered == sorted(inst.graph.sorted_edges)


def test_graphs_up_to_iso_counts():
    # OEIS A000088
    assert [len(graphs_up_to_iso(n)) for n in range(7)] == [1, 1, 2, 4, 11, 34, 156]


def test_graphs_up_to_iso_matches_the_mask_scan():
    for n in range(6):
        grown, scanned = graphs_up_to_iso(n), graphs_by_mask_scan(n)
        assert sorted(g.sorted_edges for g in grown) == sorted(g.sorted_edges for g in scanned)
        if n <= 4:
            assert grown == scanned, n


def test_graphs_up_to_iso_ceiling():
    with pytest.raises(ValueError):
        graphs_up_to_iso(7)


def test_enumerate_uniform_12_n3_empty():
    rep = enumerate_critical(P12, 3, mode="uniform")
    assert rep.graphs_examined == 4
    assert rep.criticals == ()
    assert rep.bound_min_edges == 6  # unreachable with 3 vertices
    assert not rep.potential_violations and not rep.sparsity_violations


def test_enumerate_uniform_00_n3_triangle():
    rep = enumerate_critical(P00, 3, mode="uniform")
    assert len(rep.criticals) == 1
    assert rep.min_edges == 3


def test_enumerate_uniform_01_n3():
    rep = enumerate_critical(DefectParams(0, 1), 3, mode="uniform")
    assert rep.graphs_examined == 4
    assert rep.criticals == ()  # fixed by exhaustion


UNIFORM_PAIRS = [(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 4)]


def _uniform_survey_by_is_critical(params, n):
    """Uniform survey decided graph by graph with is_critical(Exhaustive):
    (criticals, sparsity violations) in graphs_up_to_iso order."""
    criticals, sparse = [], []
    for graph in graphs_up_to_iso(n):
        inst = WeightedInstance.uniform(graph, params)
        verdict = is_critical(inst, Exhaustive(max_edges=15))
        entry = CriticalEntry(
            graph.sorted_edges, inst.caps.pairs, subset_potential(inst, range(n))
        )
        if (
            in_guaranteed_range(params)
            and verdict.witness is not None
            and sparsity_test(graph, params).sparse
        ):
            sparse.append(entry)
        if verdict.verdict == CRITICAL:
            criticals.append(entry)
    return tuple(criticals), tuple(sparse)


@pytest.mark.parametrize("i,j", UNIFORM_PAIRS)
def test_uniform_survey_matches_per_graph_is_critical(i, j):
    params = DefectParams(i, j)
    for n in range(6):
        rep = enumerate_critical(params, n, mode="uniform")
        criticals, sparse = _uniform_survey_by_is_critical(params, n)
        assert rep.graphs_examined == rep.pairs_examined == len(graphs_up_to_iso(n))
        assert rep.criticals == criticals, (i, j, n)
        assert rep.sparsity_violations == sparse
        assert rep.potential_violations == tuple(
            e for e in criticals if in_guaranteed_range(params) and e.rho > i - j - 1
        )
        assert rep.min_edges == min((len(e.edges) for e in criticals), default=None)


def test_uniform_survey_n6():
    rep = enumerate_critical(P12, 6, mode="uniform")
    assert rep.graphs_examined == 156
    assert rep.min_edges == 12 and rep.bound_min_edges == 10 and rep.bound_satisfied
    assert not rep.potential_violations and not rep.sparsity_violations
    k6 = set(itertools.combinations(range(6), 2))
    assert [k6 - set(e.edges) for e in rep.criticals] == [
        {(3, 4), (3, 5), (4, 5)},
        {(2, 5), (3, 5), (4, 5)},
        {(2, 3), (4, 5)},
    ]
    assert [e.rho for e in rep.criticals] == [-6, -6, -8]


@st.composite
def signed_edge_deletions(draw):
    """A random instance on at most 5 vertices, one of its edges, and a
    signing of the instance without that edge."""
    n = draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k] or [pairs[0]]
    i = draw(st.integers(0, 2))
    params = DefectParams(i, draw(st.integers(i, i + 2)))
    cap = st.tuples(st.integers(-1, params.i), st.integers(-1, params.j))
    caps = CapacityFunction(tuple(draw(st.lists(cap, min_size=n, max_size=n))))
    inst = WeightedInstance(SimpleGraph.from_edges(n, edges), params, caps)
    edge = draw(st.sampled_from(sorted(edges)))
    minus = inst.without_edge(edge)
    bits = draw(st.integers(0, (1 << minus.graph.edge_count()) - 1))
    return inst, edge, CoverSigning.from_bits(minus.graph, bits)


@settings(max_examples=200, deadline=None)
@given(signed_edge_deletions())
def test_uncolorable_signing_of_a_subgraph_extends_to_the_graph(case):
    """The lemma behind the uniform survey's lookup: a valid map for G is
    valid for G - e under the same signs, so an uncolorable signing of
    G - e stays uncolorable for G with either sign on e."""
    inst, edge, signing = case
    minus = inst.without_edge(edge)
    for solve in (find_coloring, brute_force_oracle):
        if solve(minus, signing) is not None:
            continue
        for sign in (PARALLEL, TWISTED):
            extended = CoverSigning.from_dict(inst.graph, {**signing.as_dict(), edge: sign})
            assert solve(inst, extended) is None, (solve.__name__, sign)


def test_enumerate_weighted_small_counts():
    rep1 = enumerate_critical(P12, 1, mode="weighted")
    assert rep1.pairs_examined == 12
    assert len(rep1.criticals) == 1
    assert rep1.criticals[0].caps == ((-1, -1),)

    rep2 = enumerate_critical(P12, 2, mode="weighted")
    assert rep2.pairs_examined == 288
    assert len(rep2.criticals) == 16
    assert not rep2.potential_violations

    rep3 = enumerate_critical(P12, 3, mode="weighted")
    assert rep3.pairs_examined == 6912
    assert len(rep3.criticals) == 493
    assert not rep3.potential_violations
    # the uniform edge bound (6 at n=3) does not apply to lowered capacities
    assert rep3.min_edges == 2 and rep3.bound_satisfied is None


def test_enumerate_weighted_guard():
    with pytest.raises(ValueError):
        enumerate_critical(P12, 5, mode="weighted")


@pytest.mark.parametrize("params", [P12, DefectParams(2, 4)], ids=str)
def test_weighted_table_bits_match_a_direct_defect_count(params):
    """Every bit of every vertex and edge table against v's conflicts counted
    under that (map, signing), with and without edge k, within the cap."""
    for n in range(4):
        for graph in graphs_up_to_iso(n):
            tables = _WeightedTables(graph, params)
            edges = graph.sorted_edges
            m = len(edges)
            assert [(u, w) for (u, _), (w, _), _ in tables.edges] == list(edges)
            for cmap, signs in itertools.product(range(1 << n), range(1 << m)):
                bit = (cmap << m) + signs
                conflicts = [
                    ((cmap >> u) ^ (cmap >> w)) & 1 == (signs >> k) & 1
                    for k, (u, w) in enumerate(edges)
                ]

                def within(v, table, skip=None):
                    defect = sum(
                        c for k, c in enumerate(conflicts) if v in edges[k] and k != skip
                    )
                    for cap in tables.caps:
                        assert 0 <= table[cap] <= tables.everything
                        bound = cap[(cmap >> v) & 1]
                        assert (table[cap] >> bit) & 1 == (defect <= bound), (
                            graph, v, skip, cmap, signs, cap)

                for v in range(n):
                    within(v, tables.vertex[v])
                for k, ((u, table_u), (w, table_w), others) in enumerate(tables.edges):
                    within(u, table_u, k)
                    within(w, table_w, k)
                    assert others == tuple(x for x in range(n) if x not in edges[k])
            assert tables.everything == (1 << (1 << (n + m))) - 1


def _assert_bitsets_match_solver(graph, params, caps, tables=None):
    """The bitset decision against is_critical(Exhaustive); returns the verdict."""
    tables = tables or _WeightedTables(graph, params)
    verdict, witness = tables.decide(caps)
    slow = is_critical(WeightedInstance(graph, params, CapacityFunction(caps)), Exhaustive())
    assert verdict == slow.verdict, (graph, params, caps)
    want = None if slow.witness is None else CoverSigning.from_bits(graph, witness)
    assert slow.witness == want
    return slow


def test_bitset_decision_matches_solver_on_every_n3_weighted_pair():
    seen = {COLORABLE: 0, NOT_CRITICAL: 0, CRITICAL: 0}
    for graph in graphs_up_to_iso(3):
        tables = _WeightedTables(graph, P12)
        for caps in itertools.product(tables.caps, repeat=3):
            seen[_assert_bitsets_match_solver(graph, P12, caps, tables).verdict] += 1
    assert sum(seen.values()) == 6912
    assert seen[CRITICAL] == 493


def test_bitset_decision_matches_solver_on_random_instances():
    rng = random.Random(2718)
    phase2_failures = isolated = 0
    for _ in range(400):
        graph = random_graph(rng, rng.randint(1, 4), rng.choice([0.4, 0.6, 0.9]))
        params = DefectParams(rng.randint(0, 2), rng.randint(2, 4))
        slow = _assert_bitsets_match_solver(
            graph, params, random_caps(rng, graph.n, params).pairs
        )
        phase2_failures += slow.failing_edge is not None
        isolated += slow.failing_vertex is not None
    assert phase2_failures and isolated


@st.composite
def small_weighted_pairs(draw):
    n = draw(st.integers(1, 4))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    i = draw(st.integers(0, 2))
    params = DefectParams(i, draw(st.integers(i, i + 3)))
    cap = st.tuples(st.integers(-1, params.i), st.integers(-1, params.j))
    caps = draw(st.lists(cap, min_size=n, max_size=n))
    return SimpleGraph.from_edges(n, edges), params, tuple(caps)


@settings(max_examples=200, deadline=None)
@given(small_weighted_pairs())
def test_bitset_decision_property(pair):
    _assert_bitsets_match_solver(*pair)


def test_weighted_cross_check_rejects_a_colorable_witness(monkeypatch):
    monkeypatch.setattr(harness, "find_coloring", lambda inst, signing: (0,) * inst.n)
    with pytest.raises(RuntimeError):
        enumerate_critical(P12, 2, mode="weighted")


def _naive_colorable_all(inst):
    m = inst.graph.edge_count()
    from dpdefect import CoverSigning, brute_force_oracle

    for bits in range(1 << m):
        signing = CoverSigning.from_bits(inst.graph, bits)
        if brute_force_oracle(inst, signing) is None:
            return False
    return True


def _naive_is_critical(inst):
    """Definitional oracle: check every proper subgraph, not just edge
    deletions, each by brute force over all signings and maps."""
    import itertools as it

    if _naive_colorable_all(inst):
        return COLORABLE
    graph = inst.graph
    n = graph.n
    for keep in it.chain.from_iterable(
        it.combinations(range(n), r) for r in range(n + 1)
    ):
        relabel = {v: k for k, v in enumerate(keep)}
        inside = [e for e in graph.sorted_edges if e[0] in relabel and e[1] in relabel]
        for r in range(len(inside) + 1):
            for chosen in it.combinations(inside, r):
                if len(keep) == n and len(chosen) == graph.edge_count():
                    continue  # not a proper subgraph
                sub_graph = SimpleGraph.from_edges(
                    len(keep), [(relabel[u], relabel[v]) for u, v in chosen]
                )
                sub = WeightedInstance(
                    sub_graph,
                    inst.params,
                    CapacityFunction(tuple(inst.caps[v] for v in keep)),
                )
                if not _naive_colorable_all(sub):
                    return NOT_CRITICAL
    return CRITICAL


def test_is_critical_matches_definitional_oracle():
    rng = random.Random(9009)
    seen = {COLORABLE: 0, NOT_CRITICAL: 0, CRITICAL: 0}
    for _ in range(150):
        graph = random_graph(rng, rng.randint(1, 3), rng.choice([0.4, 0.8]))
        i = rng.randint(0, 2)
        params = DefectParams(i, rng.randint(i, i + 2))
        inst = WeightedInstance(graph, params, random_caps(rng, graph.n, params))
        want = _naive_is_critical(inst)
        got = is_critical(inst, Exhaustive()).verdict
        assert got == want, (inst, got, want)
        seen[want] += 1
    assert all(seen.values()), seen  # all three verdicts exercised


def test_sharpness_suite_small():
    report = verify_sharpness_suite([(1, 2), (1, 3)], [1, 2])
    assert report.all_ok
    assert len(report.entries) == 4
    assert all(e.criticality is None for e in report.entries)


def test_reduced_deletion_phase_with_path_edge():
    # a host whose witness phase must succeed, so the orbit-reduced deletion
    # phase (including the path-edge orbit) really runs
    from dpdefect import ConstructionSpec, GraphBuilder, make_flag

    builder = GraphBuilder(2)
    builder.add_edge(0, 1)
    f0 = make_flag(builder, 1, P12)
    f1 = make_flag(builder, 1, P12)
    graph = builder.graph()
    spec = ConstructionSpec(P12, (0, 1), ((), (f0, f1)))
    caps = [(1, 2)] * graph.n
    caps[0] = (0, 0)
    caps[1] = (0, 0)  # one twisted + one parallel flag then kills both nodes
    inst = WeightedInstance(graph, P12, CapacityFunction(tuple(caps)))
    reduced = is_critical(inst, Reduced(spec))
    exhaustive = is_critical(inst, Exhaustive())
    assert reduced.witness is not None and exhaustive.witness is not None
    assert reduced.verdict == exhaustive.verdict
    assert len(reduced.edge_orbit_map) == 4  # path edge + three orbits at base 1
    assert reduced.edges_checked >= 1


def test_two_base_host_minus_edge_survives_sampling():
    inst, _ = flag_path_instance(P12, 2)
    inst_e = inst.without_edge(inst.graph.sorted_edges[0])
    rep = sample_covers(inst_e, 1000, seed=42)
    assert rep.witness is None
    assert rep.signings_examined == 1000


def test_sampled_edge_streams_differ_across_neighbouring_seeds(monkeypatch):
    inst, _ = flag_path_instance(P12, 1)
    streams = []

    def recording(sub, count, seed):
        streams.append(list(sample_signings(sub.graph, count, seed)))
        return sample_covers(sub, count, seed)

    monkeypatch.setattr(harness, "sample_covers", recording)
    sampled_edge_deletion_sweep(inst, count=5, seed=3)
    under_3 = streams[:]
    streams.clear()
    sampled_edge_deletion_sweep(inst, count=5, seed=4)
    assert len(under_3) == len(streams) == 25
    # edge k + 1 under seed 3 and edge k under seed 4 draw different streams
    assert all(under_3[k + 1] != streams[k] for k in range(24))


def test_sampled_phase_one_uses_the_seed_itself():
    inst, _ = flag_path_instance(P12, 1)
    verdict = is_critical(inst, Sampled(300, 17))
    scan = sample_covers(inst, 300, 17)
    assert (verdict.witness, verdict.covers_checked, verdict.nodes_expanded) == (
        scan.witness, scan.signings_examined, scan.nodes_expanded
    )


def test_sampled_edge_deletion_sweep_deterministic():
    inst, _ = flag_path_instance(P12, 1)
    a = sampled_edge_deletion_sweep(inst, count=50, seed=11)
    b = sampled_edge_deletion_sweep(inst, count=50, seed=11, workers=2)
    assert a == b
    assert len(a) == 25
    assert all(w is None for _, w in a)


# ---------------------------------------------------------------------------
# Reduced certification from flag profiles
# ---------------------------------------------------------------------------

def _flag_host(params, counts):
    """A path of len(counts) bases with counts[b] flags on base b."""
    builder = GraphBuilder(len(counts))
    for b in range(len(counts) - 1):
        builder.add_edge(b, b + 1)
    flags = tuple(
        tuple(make_flag(builder, b, params) for _ in range(c)) for b, c in enumerate(counts)
    )
    return builder.graph(), ConstructionSpec(params, tuple(range(len(counts))), flags)


@pytest.mark.parametrize("counts,colorable", [((5,), False), ((4,), True)])
def test_profile_phase1_agrees_with_class_iterator(counts, colorable):
    graph, spec = _flag_host(P12, counts)
    inst = WeightedInstance.uniform(graph, P12)
    classes = colorable_all_covers(inst, signings=reduced_cover_iterator(graph, spec))
    witness, _ = _FlagProfiles(inst, spec).uncolorable(None)
    assert classes.colorable == (witness is None) == colorable
    verdict = is_critical(inst, Reduced(spec))
    assert (verdict.verdict == COLORABLE) == colorable
    if not colorable:
        assert find_coloring(inst, witness) is None
        assert verdict.witness == witness


@st.composite
def small_flag_hosts(draw):
    """1-2 bases, 1-2 flags per base and at most 13 edges in all (so that
    Exhaustive stays fast); random base capacities, and random nonnegative
    top and middle capacities shared by the flags on a base (a -1 there
    makes the flag uncolorable by itself)."""
    i = draw(st.integers(0, 1))
    params = DefectParams(i, draw(st.integers(i, i + 2)))
    m = draw(st.integers(1, 2))
    counts = draw(
        st.lists(st.integers(1, 2), min_size=m, max_size=m).filter(
            lambda c: (2 * i + 3) * sum(c) + m - 1 <= 13
        )
    )
    graph, spec = _flag_host(params, counts)
    cap = st.tuples(st.integers(-1, params.i), st.integers(-1, params.j))
    inner = st.tuples(st.integers(0, params.i), st.integers(0, params.j))
    caps = [None] * graph.n
    for b, flags in enumerate(spec.flags_by_base):
        caps[b], top, middle = draw(cap), draw(inner), draw(inner)
        for f in flags:
            caps[f.top] = top
            for u in f.middles:
                caps[u] = middle
    return WeightedInstance(graph, params, CapacityFunction(tuple(caps))), spec


@settings(max_examples=200, deadline=None)
@given(small_flag_hosts())
def test_reduced_matches_exhaustive_on_small_flag_hosts(host):
    inst, spec = host
    reduced = is_critical(inst, Reduced(spec))
    exhaustive = is_critical(inst, Exhaustive())
    assert reduced.verdict == exhaustive.verdict
    assert reduced.certifying
    assert reduced.potential_ok == exhaustive.potential_ok
    if reduced.witness is not None:
        assert find_coloring(inst, reduced.witness) is None
    if reduced.failing_edge is not None:
        sub = inst.without_edge(reduced.failing_edge)
        assert find_coloring(sub, reduced.failing_witness) is None


@pytest.mark.parametrize("i,j,m", [(1, 2, 1), (1, 3, 1), (1, 2, 2), (2, 4, 1)])
def test_reduced_certifies_flag_path_hosts(i, j, m):
    inst, spec = flag_path_instance(DefectParams(i, j), m)
    verdict = is_critical(inst, Reduced(spec))
    assert verdict.verdict == CRITICAL and verdict.certifying
    assert verdict.potential_ok is True
    assert verdict.edges_checked == len(verdict.edge_orbit_map)
    assert verdict.solver_signings == 1  # the witness cross-check
    assert verdict.nodes_expanded > 0  # the cross-check's search nodes
    assert find_coloring(inst, verdict.witness) is None


def test_reduced_verdict_ignores_workers():
    inst, spec = flag_path_instance(P12, 2)
    assert is_critical(inst, Reduced(spec)) == is_critical(inst, Reduced(spec), workers=2)


def test_reduced_rejects_a_colorable_witness(monkeypatch):
    inst, spec = flag_path_instance(P12, 1)
    monkeypatch.setattr(
        harness, "colorable_all_covers", lambda inst, signings: CoverScan(None, 1, 0)
    )
    with pytest.raises(RuntimeError):
        is_critical(inst, Reduced(spec))


def test_reduced_rejects_flags_with_unequal_capacities():
    inst, spec = flag_path_instance(P12, 1)
    caps = list(inst.caps.pairs)
    caps[spec.all_flags[0].top] = (0, 2)
    with pytest.raises(ValueError, match="top or middle capacities"):
        is_critical(inst.with_caps(caps), Reduced(spec))


def test_reduced_rejects_a_spec_of_another_graph():
    inst, spec = flag_path_instance(P12, 1)
    _, other = flag_path_instance(P12, 2)
    with pytest.raises(ValueError, match="not the instance's graph"):
        is_critical(inst, Reduced(other))
    with pytest.raises(ValueError, match="not the instance's graph"):
        is_critical(inst.without_edge(spec.all_flags[0].base_top_edge), Reduced(spec))
    graph, two = _flag_host(P12, (1, 1))
    swapped = ConstructionSpec(P12, two.path, tuple(reversed(two.flags_by_base)))
    with pytest.raises(ValueError, match="path vertex of its base"):
        is_critical(WeightedInstance.uniform(graph, P12), Reduced(swapped))


# ---------------------------------------------------------------------------
# Phase 2 with workers
# ---------------------------------------------------------------------------

class _LazyPool:
    """In-process stand-in for ProcessPoolExecutor: a task runs only when
    its result is read, so a test sees which edges were ever checked, and
    `sizes` records the pool size each construction asked for."""

    ran: list = []
    futures: list = []
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, item):
        ran = self.ran

        class Lazy(Future):
            def result(self, timeout=None):
                if not self.done():
                    ran.append(item[2])
                    self.set_result(fn(item))
                return super().result(timeout)

        future = Lazy()
        self.futures.append(future)
        return future


def _use_lazy_pool(monkeypatch, cpus):
    monkeypatch.setattr(_LazyPool, "ran", [])
    monkeypatch.setattr(_LazyPool, "futures", [])
    monkeypatch.setattr(_LazyPool, "sizes", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _LazyPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)


def test_phase2_with_workers_stops_at_the_first_failing_edge(monkeypatch):
    # a triangle behind a pendant path: deleting (0, 1) leaves the triangle
    graph = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)])
    inst = WeightedInstance.uniform(graph, P00)
    serial = is_critical(inst, Exhaustive())
    assert serial.verdict == NOT_CRITICAL and serial.failing_edge == (0, 1)
    assert is_critical(inst, Exhaustive(), workers=2) == serial

    _use_lazy_pool(monkeypatch, cpus=8)
    assert is_critical(inst, Exhaustive(), workers=2) == serial
    assert _LazyPool.sizes == [2]
    assert _LazyPool.ran == [(0, 1)]
    assert [f.cancelled() for f in _LazyPool.futures] == [False] + [True] * 4


@pytest.mark.parametrize(
    "workers,cpus,pool_sizes",
    [
        (5000, 64, [3]),  # never more processes than edges
        (5000, 2, [2]),  # nor more than CPUs
        (2, 64, [2]),
        (5000, 1, []),  # one CPU: serial, no pool
        (5000, None, []),  # CPU count unknown: serial
        (1, 64, []),
        (0, 64, []),
    ],
)
def test_phase2_pool_is_bounded_by_edges_and_cpus(monkeypatch, workers, cpus, pool_sizes):
    inst = WeightedInstance.uniform(cycle_graph(3), P00)
    serial = is_critical(inst, Exhaustive())
    _use_lazy_pool(monkeypatch, cpus)
    assert is_critical(inst, Exhaustive(), workers=workers) == serial
    assert _LazyPool.sizes == pool_sizes
    assert _LazyPool.ran == ([(0, 1), (0, 2), (1, 2)] if pool_sizes else [])
