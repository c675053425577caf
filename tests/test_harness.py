import collections
import hashlib
import itertools
import json
import math
import random
from concurrent.futures import Future

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dpdefect.harness as harness

from dpdefect import (
    COLORABLE,
    CRITICAL,
    NOT_CRITICAL,
    PARALLEL,
    TWISTED,
    UNREFUTED,
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
    _WeightedTables,
    _adjacency,
    _canonical_form,
    _iso_levels,
    _isomorphic,
    _vertex_labels,
    _vertex_pairs,
    in_guaranteed_range,
)
from dpdefect.solver import _uncolorable_by_loads
from conftest import (
    cycle_graph,
    drawn_signings,
    first_uncolorable,
    graph_counts_by_edges,
    graphs_by_mask_scan,
    k2,
    random_caps,
    random_graph,
    uncolorable_by_oracle,
    uncolorable_by_windows,
)

P12 = DefectParams(1, 2)
P00 = DefectParams(0, 0)


def test_single_forbidden_vertex_is_critical():
    inst = WeightedInstance(SimpleGraph(1, frozenset()), P12, ((-1, -1),))
    verdict = is_critical(inst, Exhaustive())
    assert verdict.verdict == CRITICAL
    assert verdict.certifying
    assert verdict.potential_ok is True  # rho = i - j - 1 exactly


def test_k2_zero_defect_colorable():
    inst = WeightedInstance.uniform(k2(), P00)
    verdict = is_critical(inst, Exhaustive())
    assert verdict.verdict == COLORABLE


def test_k2_forbidden_poor_pair_critical():
    inst = WeightedInstance(k2(), P12, ((-1, 0), (-1, 0)))
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
    inst = WeightedInstance(SimpleGraph(1, frozenset()), P12, ((-1, -1),))
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
    assert [len(graphs_up_to_iso(n)) for n in range(8)] == [1, 1, 2, 4, 11, 34, 156, 1044]


def test_graphs_up_to_iso_matches_the_mask_scan():
    for n in range(6):
        grown, scanned = graphs_up_to_iso(n), graphs_by_mask_scan(n)
        assert sorted(g.sorted_edges for g in grown) == sorted(g.sorted_edges for g in scanned)
        if n <= 4:
            assert grown == scanned, n


def test_graphs_up_to_iso_ceiling():
    with pytest.raises(ValueError):
        graphs_up_to_iso(8)


def test_iso_levels_reject_a_negative_vertex_count():
    for call in (
        lambda: list(_iso_levels(-1)),
        lambda: graphs_up_to_iso(-1),
        lambda: enumerate_critical(P12, -1),
    ):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            call()


def test_level_sizes_are_polyas_counts():
    for n in range(8):
        assert [len(level) for level in _iso_levels(n)] == graph_counts_by_edges(n), n


def test_iso_levels_canonicalise_each_class_once(monkeypatch):
    calls = []
    canonical_form = harness._canonical_form

    def counted(n, mask, pairs, pair_idx):
        calls.append(mask)
        return canonical_form(n, mask, pairs, pair_idx)

    monkeypatch.setattr(harness, "_canonical_form", counted)
    classes = [mask for level in _iso_levels(6) for mask in level]
    assert len(calls) == len(classes) == 156


def _relabel(mask, perm, pairs, pair_idx):
    """The mask of the graph of `mask` with vertex v relabelled perm[v]."""
    out = 0
    for k, (u, v) in enumerate(pairs):
        if (mask >> k) & 1:
            out |= 1 << pair_idx[tuple(sorted((perm[u], perm[v])))]
    return out


def test_recorded_parents_are_the_classes_of_every_g_minus_e():
    for n in range(8):
        pairs = _vertex_pairs(n)
        pair_idx = {e: k for k, e in enumerate(pairs)}
        for edges, level in enumerate(_iso_levels(n)):
            for mask, (parents, _) in level.items():
                assert bin(mask).count("1") == edges
                assert parents == {
                    _canonical_form(n, mask ^ (1 << k), pairs, pair_idx)[0]
                    for k in range(len(pairs))
                    if (mask >> k) & 1
                }, (n, mask)


@st.composite
def _relabelled_graphs(draw):
    """(n, the mask of a graph, a relabelling v -> perm[v]), n <= 8."""
    n = draw(st.integers(1, 8))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return n, mask, draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(_relabelled_graphs())
def test_a_relabelling_keeps_the_vertex_labels_and_is_isomorphic(case):
    n, mask, perm = case
    pairs = _vertex_pairs(n)
    pair_idx = {e: k for k, e in enumerate(pairs)}
    adjacent = _adjacency(n, mask, pairs)
    moved = _adjacency(n, _relabel(mask, perm, pairs, pair_idx), pairs)
    labels, moved_labels = _vertex_labels(adjacent), _vertex_labels(moved)
    assert [moved_labels[perm[v]] for v in range(n)] == labels
    assert sorted(moved_labels) == sorted(labels)
    assert _isomorphic(adjacent, labels, moved, moved_labels)


def _cube_and_wagner():
    """Two cubic triangle-free graphs on 8 vertices: every vertex has label
    (3, 9, 0), but the cube is bipartite and the Wagner graph is not."""
    pairs = _vertex_pairs(8)
    cube = [(u, v) for u, v in pairs if (u ^ v).bit_count() == 1]
    wagner = [(k, (k + 1) % 8) for k in range(8)] + [(k, k + 4) for k in range(4)]
    return [sum(1 << pairs.index(tuple(sorted(e))) for e in edges) for edges in (cube, wagner)]


@st.composite
def _graph_pairs(draw):
    """(n, two graph masks): a graph, or the cube, and a relabelling of what
    up to three degree-keeping switches (ab, cd -> ac, bd) make of it, or
    of the Wagner graph."""
    if draw(st.booleans()):
        n, (mask, other) = 8, _cube_and_wagner()
    else:
        n = draw(st.integers(4, 8))
        mask = other = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    pairs = _vertex_pairs(n)
    pair_idx = {e: k for k, e in enumerate(pairs)}
    for _ in range(draw(st.integers(0, 3))):
        a, b, c, d = draw(st.permutations(range(n)))[:4]
        ab, cd, ac, bd = (pair_idx[tuple(sorted(e))] for e in ((a, b), (c, d), (a, c), (b, d)))
        if (other >> ab) & (other >> cd) & 1 and not ((other >> ac) | (other >> bd)) & 1:
            other ^= (1 << ab) | (1 << cd) | (1 << ac) | (1 << bd)
    return n, mask, _relabel(other, draw(st.permutations(range(n))), pairs, pair_idx)


@settings(max_examples=200, deadline=None)
@given(_graph_pairs())
def test_isomorphic_agrees_with_canonical_forms_on_pairs_that_share_a_key(case):
    n, mask, other = case
    pairs = _vertex_pairs(n)
    pair_idx = {e: k for k, e in enumerate(pairs)}
    adjacent, other_adjacent = _adjacency(n, mask, pairs), _adjacency(n, other, pairs)
    labels, other_labels = _vertex_labels(adjacent), _vertex_labels(other_adjacent)
    assume(sorted(labels) == sorted(other_labels))
    forms = {_canonical_form(n, m, pairs, pair_idx)[0] for m in (mask, other)}
    assert _isomorphic(adjacent, labels, other_adjacent, other_labels) == (len(forms) == 1)


def test_recorded_automorphisms_are_the_whole_group():
    """Every recorded relabelling fixes the canonical mask, and by
    orbit-stabiliser the group times the class size is n! (counted over all
    masks for n <= 5); n = 6 and 7 check the fixing only."""
    for n in range(8):
        pairs = _vertex_pairs(n)
        pair_idx = {e: k for k, e in enumerate(pairs)}
        class_size = collections.Counter(
            _canonical_form(n, mask, pairs, pair_idx)[0] for mask in range(1 << len(pairs))
        ) if n <= 5 else None
        for level in _iso_levels(n):
            for mask, (_, automorphisms) in level.items():
                assert len(set(automorphisms)) == len(automorphisms)
                for perm in automorphisms:
                    assert sorted(perm) == list(range(n))
                    assert _relabel(mask, perm, pairs, pair_idx) == mask
                if class_size is not None:
                    assert len(automorphisms) * class_size[mask] == math.factorial(n)


def _sorts_degrees(perm, degree):
    """Whether relabelling v -> perm[v] lists the degrees non-increasingly."""
    by_label = sorted(range(len(perm)), key=perm.__getitem__)
    return all(degree[a] >= degree[b] for a, b in zip(by_label, by_label[1:]))


def test_canonical_form_is_the_smallest_degree_sorted_relabelling():
    """Against every relabelling that sorts the degrees, on every mask with
    n <= 5 and on seeded masks with n = 6 and 7."""
    rng = random.Random(2718)
    for n in range(8):
        pairs = _vertex_pairs(n)
        pair_idx = {e: k for k, e in enumerate(pairs)}
        if n <= 5:
            masks = range(1 << len(pairs))
        else:
            masks = [rng.getrandbits(len(pairs)) for _ in range(20)]
        for mask in masks:
            degree = collections.Counter(
                v for k, e in enumerate(pairs) if (mask >> k) & 1 for v in e
            )
            best = min(
                _relabel(mask, perm, pairs, pair_idx)
                for perm in itertools.permutations(range(n))
                if _sorts_degrees(perm, degree)
            )
            assert _canonical_form(n, mask, pairs, pair_idx)[0] == best, (n, mask)


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


def _uniform_survey_by_oracle(params, n):
    """Uniform survey decided graph by graph by the conftest oracle, with
    criticality as is_critical defines it: some signing is uncolorable, no
    vertex is isolated (n >= 2), and every G - e is colorable under every
    signing.  (criticals, sparsity violations) in graphs_up_to_iso order."""
    criticals, sparse = [], []
    for graph in graphs_up_to_iso(n):
        inst = WeightedInstance.uniform(graph, params)
        witness, _ = first_uncolorable(inst)
        entry = CriticalEntry(
            graph.sorted_edges, inst.caps, subset_potential(inst, range(n))
        )
        if (
            in_guaranteed_range(params)
            and witness is not None
            and sparsity_test(graph, params).sparse
        ):
            sparse.append(entry)
        if (
            witness is not None
            and not (n >= 2 and any(graph.degree(v) == 0 for v in range(n)))
            and all(first_uncolorable(inst.without_edge(e))[0] is None for e in graph.sorted_edges)
        ):
            criticals.append(entry)
    return tuple(criticals), tuple(sparse)


@pytest.mark.parametrize("i,j", UNIFORM_PAIRS)
def test_uniform_survey_matches_per_graph_is_critical(i, j):
    params = DefectParams(i, j)
    for n in range(6):
        rep = enumerate_critical(params, n, mode="uniform")
        criticals, sparse = _uniform_survey_by_oracle(params, n)
        assert rep.graphs_examined == rep.pairs_examined == len(graphs_up_to_iso(n))
        assert rep.criticals == criticals, (i, j, n)
        assert rep.sparsity_violations == sparse
        assert rep.potential_violations == tuple(
            e for e in criticals if in_guaranteed_range(params) and e.rho > i - j - 1
        )
        assert rep.min_edges == min((len(e.edges) for e in criticals), default=None)


@pytest.mark.parametrize("i,j", UNIFORM_PAIRS)
def test_kernel_matches_the_oracle_on_every_small_class(i, j):
    """The map walk's witness and signings examined against the conftest
    oracle, on every class with n <= 6.  At (1, 3) and (2, 4) every such
    graph is colorable, so the oracle tries all 2^m signings of each; n = 6
    would take about 4 s a pair there, and stops at n = 5."""
    params = DefectParams(i, j)
    for n in range(6 if (i, j) in ((1, 3), (2, 4)) else 7):
        for graph in graphs_up_to_iso(n):
            inst = WeightedInstance.uniform(graph, params)
            scan = colorable_all_covers(inst, max_edges=15)
            assert (scan.witness, scan.signings_examined) == first_uncolorable(inst), graph


def _record_walks(monkeypatch):
    """Wrap the survey's map walk; the list it returns collects the graph of
    every walk.  Returns (that list, the real kernel)."""
    walked = []
    kernel = harness._lowest_uncolorable

    def recording(instance):
        walked.append(instance.graph)
        return kernel(instance)

    monkeypatch.setattr(harness, "_lowest_uncolorable", recording)
    return walked, kernel


def test_graphs_with_a_colorable_child_are_colorable(monkeypatch):
    """The survey walks each class at most once, and walks none that has a
    colorable recorded child (a class whose G - e it is); each skipped class
    is colorable under every signing.  The densest classes are walked, so
    the pairs with few uncolorable graphs skip the most."""
    walked, kernel = _record_walks(monkeypatch)
    skipped_total = {}
    for i, j in UNIFORM_PAIRS:
        params = DefectParams(i, j)
        for n in range(7):
            walked.clear()
            rep = enumerate_critical(params, n, mode="uniform")
            assert len(walked) == len(set(walked))
            skipped = set(graphs_up_to_iso(n)) - set(walked)
            assert len(skipped) == rep.graphs_examined - len(walked)
            for graph in skipped:
                assert kernel(WeightedInstance.uniform(graph, params))[0] is None, (i, j, graph)
            skipped_total[i, j] = skipped_total.get((i, j), 0) + len(skipped)
            if (i, j, n) == (1, 2, 6):
                assert len(walked) == 10
    assert skipped_total == {
        (0, 0): 28, (0, 1): 57, (1, 1): 140, (1, 2): 193, (1, 3): 202, (2, 4): 202
    }


def test_uniform_survey_n7(monkeypatch):
    walked, _ = _record_walks(monkeypatch)
    rep = enumerate_critical(P12, 7, mode="uniform")
    assert len(walked) == 215
    assert rep.graphs_examined == rep.pairs_examined == 1044
    assert len(rep.criticals) == 32
    assert rep.min_edges == 13 and rep.bound_min_edges == 12 and rep.bound_satisfied
    assert not rep.potential_violations and not rep.sparsity_violations
    # in report order: graphs_up_to_iso order
    assert _report_digest(rep) == "7a893f86250a32f4"


@pytest.mark.parametrize(
    "i,j,count,min_edges,digest,walks",
    [
        (1, 3, 12, 15, "694dc7e1a7d3c2a7", 54),
        (2, 4, 0, None, "4f53cda18c2baa0c", 1),
        (2, 5, 0, None, "4f53cda18c2baa0c", 1),
    ],
)
def test_uniform_survey_n7_at_other_pairs(monkeypatch, i, j, count, min_edges, digest, walks):
    """The n = 7 surveys of three more grid pairs.  (1, 3) has 12
    criticals.  At (2, 4) and (2, 5) K7 is colorable under every signing,
    so its one walk decides all 1,044 classes and there is no critical."""
    walked, _ = _record_walks(monkeypatch)
    rep = enumerate_critical(DefectParams(i, j), 7, mode="uniform")
    assert len(walked) == walks
    assert rep.graphs_examined == rep.pairs_examined == 1044
    assert len(rep.criticals) == count and rep.min_edges == min_edges
    assert not rep.potential_violations and not rep.sparsity_violations
    assert _report_digest(rep) == digest


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


def test_uniform_cross_check_rejects_a_colorable_witness(monkeypatch):
    monkeypatch.setattr(harness, "find_coloring", lambda inst, signing: (0,) * inst.n)
    with pytest.raises(RuntimeError):
        enumerate_critical(P00, 3, mode="uniform")


def test_uncolorable_signings_match_the_solver_on_every_small_graph():
    """Every graph with n <= 4 under seeded per-vertex caps in -1..2."""
    rng = random.Random(3141)
    params = DefectParams(2, 2)
    partial = 0
    for n in range(5):
        for graph in graphs_up_to_iso(n):
            for _ in range(40):
                inst = WeightedInstance(graph, params, random_caps(rng, n, params))
                bad = uncolorable_by_windows(inst)
                assert bad == uncolorable_by_oracle(inst), (graph, inst.caps)
                partial += 0 < bad < (1 << (1 << graph.edge_count())) - 1
    assert partial >= 100


def test_uncolorable_signings_without_edges():
    """n = 0 has one (empty) signing and it is colorable; at n = 1 a map
    and its complement read the poor and the rich cap."""
    assert uncolorable_by_windows(WeightedInstance.uniform(SimpleGraph(0, frozenset()), P12)) == 0
    lone = SimpleGraph(1, frozenset())
    for caps, bad in [((-1, -1), 1), ((-1, 0), 0), ((0, -1), 0), ((1, 2), 0)]:
        inst = WeightedInstance(lone, P12, (caps,))
        assert uncolorable_by_windows(inst) == bad, caps


@pytest.mark.parametrize(
    "caps",
    [
        ((-1, 0), (0, -1)),
        ((0, -1), (0, -1), (-1, 1)),
        ((2, -1), (-1, 1), (1, 0), (0, 2)),
        ((-1, 2), (2, -1), (0, 0), (1, -1)),
    ],
)
def test_uncolorable_signings_with_poor_and_rich_caps_apart(caps):
    """Caps where a map and its complement differ; against the solver on
    the path and the complete graph on the same vertices."""
    params = DefectParams(2, 2)
    n = len(caps)
    for graph in (
        SimpleGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)]),
        SimpleGraph.from_edges(n, itertools.combinations(range(n), 2)),
    ):
        inst = WeightedInstance(graph, params, caps)
        assert uncolorable_by_windows(inst) == uncolorable_by_oracle(inst), (graph, caps)


@st.composite
def capped_instances(draw):
    """A random instance with n <= 6 and at most 10 edges."""
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    i = draw(st.integers(0, 2))
    params = DefectParams(i, draw(st.integers(i, i + 2)))
    cap = st.tuples(st.integers(-1, params.i), st.integers(-1, params.j))
    caps = tuple(draw(st.lists(cap, min_size=n, max_size=n)))
    return WeightedInstance(SimpleGraph.from_edges(n, edges), params, caps)


@settings(max_examples=200, deadline=None)
@given(capped_instances(), st.data())
def test_uncolorable_signings_property(inst, data):
    bad = uncolorable_by_windows(inst)
    assert bad == uncolorable_by_oracle(inst)
    top = (1 << inst.graph.edge_count()) - 1
    for s in data.draw(st.lists(st.integers(0, top), max_size=3)):
        signing = CoverSigning.from_bits(inst.graph, s)
        assert (bad >> s) & 1 == (brute_force_oracle(inst, signing) is None)


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
    caps = tuple(draw(st.lists(cap, min_size=n, max_size=n)))
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


def _report_digest(rep):
    """The first 16 hex digits of the SHA-256 of the criticals' JSON rows,
    in report order."""
    rows = [
        [[list(e) for e in c.edges], [list(cap) for cap in c.caps], c.rho] for c in rep.criticals
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def test_enumerate_weighted_n4():
    rep = enumerate_critical(P12, 4, mode="weighted")
    assert rep.graphs_examined == 11 and rep.pairs_examined == 228096
    assert len(rep.criticals) == 6372 and rep.min_edges == 3
    assert not rep.potential_violations and not rep.sparsity_violations
    # in report order: graphs_up_to_iso order, then itertools.product order of the caps
    assert _report_digest(rep) == "e248b8b6aadf2ed3"


@pytest.mark.parametrize(
    "params,n,pairs,count,min_edges,digest",
    [
        (DefectParams(0, 1), 4, 14256, 160, 3, "2b1b00cf65c713be"),
        (DefectParams(1, 3), 4, 556875, 15981, 3, "c770f89b8776f174"),
        (DefectParams(2, 4), 3, 55296, 2143, 2, "23fe5ac59fc4dbf5"),
        (DefectParams(2, 4), 4, 3649536, 79941, 3, "f77d8290c51a51d2"),
    ],
    ids=str,
)
def test_enumerate_weighted_report_order(params, n, pairs, count, min_edges, digest):
    """Counts and report-order digests of weighted surveys at other (i, j),
    as the per-leaf walk over (map, signing) bitsets computed them."""
    rep = enumerate_critical(params, n, mode="weighted")
    assert rep.pairs_examined == pairs and len(rep.criticals) == count
    assert rep.min_edges == min_edges
    assert _report_digest(rep) == digest


def test_enumerate_weighted_guard():
    with pytest.raises(ValueError):
        enumerate_critical(P12, 6, mode="weighted")


@pytest.mark.parametrize("params", [P12, DefectParams(2, 4)], ids=str)
def test_weighted_cap_patterns_match_the_decoded_rank(params):
    """Every bit of every at_least[v][b][t] against the capacity function
    decoded from the bit's rank, vertex 0 the most significant digit."""
    for n in range(4):
        for graph in graphs_up_to_iso(n):
            tables = _WeightedTables(graph, params)
            caps, size = tables.caps, len(tables.caps)
            assert size == (params.i + 2) * (params.j + 2) and caps == sorted(set(caps))
            assert tables.everything == (1 << size**n) - 1
            assert [len(sides) for sides in tables.at_least] == [2] * n
            decoded = []
            for r in range(size**n):
                digits = []
                for _ in range(n):
                    r, digit = divmod(r, size)
                    digits.append(digit)
                decoded.append([caps[d] for d in reversed(digits)])
            for v, sides in enumerate(tables.at_least):
                for b, rows in enumerate(sides):
                    assert len(rows) == graph.degree(v) + 1
                    for t, pattern in enumerate(rows):
                        assert 0 <= pattern <= tables.everything
                        bits = format(pattern, "b").zfill(size**n)[::-1]
                        want = "".join("01"[chosen[v][b] >= t] for chosen in decoded)
                        assert bits == want, (graph, v, b, t)


def _decoded_criticals(tables):
    """`tables.criticals()` with each rank decoded to its capacity function."""
    caps = list(itertools.product(tables.caps, repeat=tables.n))
    return [(caps[r], w) for r, w in tables.criticals()]


def _criticals(graph, params):
    """The graph's `_WeightedTables.criticals()` as {caps: witness signing},
    after checking that they come in itertools.product order (the caps
    list is ascending, so that order is ascending order of the tuples)."""
    tables = _WeightedTables(graph, params)
    found = {caps: CoverSigning.from_bits(graph, w) for caps, w in _decoded_criticals(tables)}
    assert list(found) == sorted(found)
    return tables, found


def _assert_agrees_with_is_critical(graph, params, caps, found):
    """Yielded iff is_critical(Exhaustive) says critical, and then with its
    witness; returns the verdict."""
    slow = is_critical(WeightedInstance(graph, params, caps), Exhaustive())
    assert (caps in found) == (slow.verdict == CRITICAL), (graph, params, caps)
    if caps in found:
        assert found[caps] == slow.witness, (graph, params, caps)
    return slow


def test_weighted_criticals_match_is_critical_on_every_pair_up_to_n3():
    """Every pair with n <= 3 at (1, 2), including the one-vertex critical
    ((-1, -1),) and the graphs with an isolated vertex."""
    seen = {COLORABLE: 0, "isolated": 0, "deletion": 0, CRITICAL: 0}
    for n in range(4):
        for graph in graphs_up_to_iso(n):
            tables, found = _criticals(graph, P12)
            for caps in itertools.product(tables.caps, repeat=n):
                slow = _assert_agrees_with_is_critical(graph, P12, caps, found)
                if slow.failing_vertex is not None:
                    seen["isolated"] += 1
                elif slow.failing_edge is not None:
                    seen["deletion"] += 1
                else:
                    seen[slow.verdict] += 1
    assert sum(seen.values()) == 1 + 12 + 288 + 6912
    assert seen[CRITICAL] == 1 + 16 + 493
    assert all(seen.values())


@pytest.mark.parametrize(
    "params,count", [(P12, 488), (DefectParams(0, 2), 4)], ids=["1-2", "0-2"]
)
def test_weighted_criticals_match_is_critical_on_k4(params, count):
    """Every critical of the densest n=4 graph, and a seeded sample of the
    rest of its pairs."""
    k4 = SimpleGraph.from_edges(4, itertools.combinations(range(4), 2))
    tables, found = _criticals(k4, params)
    others = [c for c in itertools.product(tables.caps, repeat=4) if c not in found]
    assert len(found) == count
    for caps in [*found, *random.Random(2718).sample(others, 300)]:
        _assert_agrees_with_is_critical(k4, params, caps, found)


def test_weighted_criticals_match_is_critical_on_a_sample_at_n5():
    """The densest n=5 graphs (8 to 10 edges): a seeded sample of their
    criticals, and seeded draws from all their pairs."""
    rng = random.Random(3141)
    seen = 0
    for graph in graphs_up_to_iso(5):
        if graph.edge_count() < 8:
            continue
        tables, found = _criticals(graph, P12)
        drawn = [tuple(rng.choice(tables.caps) for _ in range(5)) for _ in range(15)]
        for caps in [*rng.sample(sorted(found), min(len(found), 15)), *drawn]:
            _assert_agrees_with_is_critical(graph, P12, caps, found)
        seen += len(found)
    assert seen == 1210 + 1355 + 120


@st.composite
def small_weighted_pairs(draw):
    n = draw(st.integers(1, 3))
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
def test_weighted_criticals_property(pair):
    """Every yielded critical of a drawn graph and params, and a drawn pair
    whether yielded or not."""
    graph, params, caps = pair
    _, found = _criticals(graph, params)
    for critical in [*found, caps]:
        _assert_agrees_with_is_critical(graph, params, critical, found)


def _rank(caps, params):
    """The rank of a capacity function among `_WeightedTables`' bits."""
    rank = 0
    for c1, c2 in caps:
        rank = rank * (params.i + 2) * (params.j + 2) + (c1 + 1) * (params.j + 2) + c2 + 1
    return rank


def test_weighted_cross_check_rejects_a_colorable_witness(monkeypatch):
    """The kernel also yields caps (i, j) everywhere on K2 with the
    all-parallel signing, which the solver colors."""
    criticals = harness._WeightedTables.criticals

    def with_a_colorable_pair(tables):
        yield from criticals(tables)
        if tables.m == 1:
            yield _rank(((P12.i, P12.j),) * 2, P12), 0

    monkeypatch.setattr(harness._WeightedTables, "criticals", with_a_colorable_pair)
    with pytest.raises(RuntimeError, match="disagree on colorability"):
        enumerate_critical(P12, 2, mode="weighted")


def test_weighted_cover_rule_honours_the_witness(monkeypatch):
    """The kernel also yields, on the path 1 - 0 - 2, caps one step below
    the critical ((-1, 1),) * 3 with signing 3, which the solver colors.
    The critical above has witness 0, not 3, so it does not cover them:
    they are searched, and the survey fails."""
    path = SimpleGraph.from_edges(3, [(0, 1), (0, 2)])
    below, above = ((-1, 0), (-1, 1), (-1, 1)), ((-1, 1),) * 3
    inst = WeightedInstance(path, P12, below)
    assert find_coloring(inst, CoverSigning.from_bits(path, 3)) is not None
    criticals = harness._WeightedTables.criticals

    def with_a_colorable_pair(tables):
        found = dict(criticals(tables))
        yield from found.items()
        if tables.m == 2:  # the path, the only 2-edge graph at n = 3
            assert found[_rank(above, P12)] == 0 and _rank(below, P12) not in found
            yield _rank(below, P12), 3

    monkeypatch.setattr(harness._WeightedTables, "criticals", with_a_colorable_pair)
    with pytest.raises(RuntimeError, match="disagree on colorability"):
        enumerate_critical(P12, 3, mode="weighted")


def _at_most(low, high):
    return all(a <= b and c <= d for (a, c), (b, d) in zip(low, high))


def test_weighted_survey_searches_the_maximal_caps_of_each_witness_group(monkeypatch):
    """At (1, 2) n = 4 the survey searches 1,187 of its 6,372 criticals:
    the maximal caps of each (graph, witness) group, found here by
    comparing every pair of the group.  Every critical lies pointwise
    below a searched one with its witness, and no search finds a map."""
    solve, context, searched, graph_of = harness._solve, harness._context, [], {}

    def recorded_context(graph):
        ctx = context(graph)
        graph_of[id(ctx)] = graph
        return ctx

    def recorded(ctx, signs, caps):
        result = solve(ctx, signs, caps)
        witness = sum(s << k for k, s in enumerate(signs))
        searched.append((graph_of[id(ctx)].sorted_edges, witness, tuple(zip(*caps))))
        assert result[0] is None
        return result

    monkeypatch.setattr(harness, "_context", recorded_context)
    monkeypatch.setattr(harness, "_solve", recorded)
    rep = enumerate_critical(P12, 4, mode="weighted")
    assert len(rep.criticals) == 6372 and len(searched) == len(set(searched)) == 1187

    groups = collections.defaultdict(list)
    for graph in graphs_up_to_iso(4):
        for caps, witness in _decoded_criticals(_WeightedTables(graph, P12)):
            groups[graph.sorted_edges, witness].append(caps)
    maximal = {
        (*key, caps)
        for key, group in groups.items()
        for caps in group
        if not any(other != caps and _at_most(caps, other) for other in group)
    }
    assert set(searched) == maximal
    for (edges, witness), group in groups.items():
        tops = [caps for e, w, caps in searched if (e, w) == (edges, witness)]
        assert all(any(_at_most(caps, top) for top in tops) for caps in group)


@pytest.mark.parametrize("params,top", [(P12, 4), (DefectParams(2, 4), 3)], ids=str)
def test_every_weighted_critical_is_uncolorable_under_its_witness(params, top):
    """The survey searches only the maximal caps of each witness group;
    here every critical gets its own search."""
    for n in range(top + 1):
        for graph in graphs_up_to_iso(n):
            for caps, witness in _decoded_criticals(_WeightedTables(graph, params)):
                inst = WeightedInstance(graph, params, caps)
                assert find_coloring(inst, CoverSigning.from_bits(graph, witness)) is None


def _assert_rho_is_the_whole_set_potential(rep):
    for c in rep.criticals:
        inst = WeightedInstance(SimpleGraph.from_edges(rep.n, c.edges), rep.params, c.caps)
        assert c.rho == subset_potential(inst, range(rep.n)), c


@pytest.mark.parametrize("params,top", [(P12, 4), (DefectParams(2, 4), 3)], ids=str)
def test_weighted_rho_closed_form_matches_subset_potential(params, top):
    for n in range(top + 1):
        _assert_rho_is_the_whole_set_potential(enumerate_critical(params, n, mode="weighted"))


def test_uniform_rho_closed_form_matches_subset_potential():
    rep = enumerate_critical(P12, 6, mode="uniform")
    assert [c.rho for c in rep.criticals] == [-6, -6, -8]
    _assert_rho_is_the_whole_set_potential(rep)


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
                    tuple(inst.caps[v] for v in keep),
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
    entries = verify_sharpness_suite([(1, 2), (1, 3)], [1, 2])
    assert all(e.ok for e in entries)
    assert [(e.i, e.j, e.m) for e in entries] == [(1, 2, 1), (1, 2, 2), (1, 3, 1), (1, 3, 2)]
    assert all(e.criticality is None for e in entries)


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
    inst = WeightedInstance(graph, P12, tuple(caps))
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
        streams.append(list(drawn_signings(sub.graph, count, seed)))
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


def test_node_counts_do_not_depend_on_earlier_scans_or_workers():
    # the leaf-block load tables live for one scan, so no count is carried over
    inst, _ = flag_path_instance(P12, 1)
    assert sample_covers(inst, 2000, 5) == sample_covers(inst, 2000, 5)
    one = is_critical(inst, Sampled(1000, 0), workers=1)
    two = is_critical(inst, Sampled(1000, 0), workers=2)
    assert one.witness is not None and one.edges_checked == 25
    assert one == two


def test_sampled_edge_deletion_sweep_deterministic():
    inst, _ = flag_path_instance(P12, 1)
    a = sampled_edge_deletion_sweep(inst, count=50, seed=11)
    b = sampled_edge_deletion_sweep(inst, count=50, seed=11, workers=2)
    assert a == b
    assert len(a) == 25
    assert all(w is None for _, w in a)


# ---------------------------------------------------------------------------
# Reduced certification from block loads
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
    bits, _ = _uncolorable_by_loads(inst, {})
    assert classes.colorable == (bits is None) == colorable
    verdict = is_critical(inst, Reduced(spec))
    assert (verdict.verdict == COLORABLE) == colorable
    if not colorable:
        witness = CoverSigning.from_bits(graph, bits)
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
    return WeightedInstance(graph, params, tuple(caps)), spec


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


# Reduced certification of every `verify` grid host: per (i, j), for m = 1, 2, 3,
# (covers_checked, nodes_expanded, the first 16 hex digits of the sha256 of the
# witness's signs as bytes); solver_signings is 1 and edges_checked 4m - 1.
REDUCED_GRID = {
    (1, 2): ((58, 95, "88cb8111c3e9abdc"), (68, 116, "d4024a00f853cfd7"),
             (86, 138, "935db74d79f1a45f")),
    (1, 3): ((58, 114, "e35c7a0f3bfb83cc"), (68, 135, "736df03662cf8cc7"),
             (86, 157, "237a99349522110b")),
    (1, 4): ((58, 133, "3c3c3fbef72c8d86"), (68, 154, "61678535bbb2340a"),
             (86, 176, "fb618271cb4b5719")),
    (2, 4): ((226, 192, "ec8c686bae77a09b"), (236, 242, "b0180d4c85c32f18"),
             (258, 293, "39898ac281bf12f4")),
    (2, 5): ((226, 216, "e88c37761a9ec921"), (236, 266, "2294d88c96d20512"),
             (258, 317, "fb5994ad20195b8a")),
    (2, 6): ((226, 240, "a7e6c6a192b12b27"), (236, 290, "64e4d48f54cfea07"),
             (258, 341, "e54428055aa8b0b8")),
}


def test_reduced_counters_and_witnesses_are_pinned_on_the_grid():
    for (i, j), pins in REDUCED_GRID.items():
        for m, (covers, nodes, digest) in enumerate(pins, 1):
            inst, spec = flag_path_instance(DefectParams(i, j), m)
            verdict = is_critical(inst, Reduced(spec))
            got = (
                verdict.verdict, verdict.covers_checked, verdict.nodes_expanded,
                verdict.solver_signings, verdict.edges_checked,
                hashlib.sha256(bytes(verdict.witness.signs)).hexdigest()[:16],
            )
            assert got == (CRITICAL, covers, nodes, 1, 4 * m - 1, digest), (i, j, m)


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
    caps = list(inst.caps)
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
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _LazyPool)
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
