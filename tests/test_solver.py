import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpdefect import (
    PARALLEL,
    POOR,
    RICH,
    TWISTED,
    CoverSigning,
    DefectParams,
    SimpleGraph,
    Violation,
    WeightedInstance,
    brute_force_oracle,
    check_coloring,
    colorable_all_covers,
    find_coloring,
    flag_path_instance,
    graphs_up_to_iso,
    hard_cover_signing,
    sample_covers,
)
from dpdefect.solver import (
    WINDOW_BITS,
    _Walk,
    _as_bits,
    _biconnected_components,
    _block_load,
    _lowest_uncolorable,
    _plan,
    _uncolorable_by_loads,
)
from conftest import (
    build_cover_graph,
    complete_graph,
    cycle_graph,
    drawn_signings,
    first_uncolorable,
    k2,
    random_graph,
    random_instance,
    random_signing,
    uncolorable_by_oracle,
    uncolorable_by_windows,
)

P00 = DefectParams(0, 0)


def single_vertex(c1, c2, params=DefectParams(1, 2)):
    return WeightedInstance(SimpleGraph(1, frozenset()), params, ((c1, c2),))


def empty_signing():
    return CoverSigning((), ())


def test_check_forbidden_node():
    inst = single_vertex(-1, 0)
    assert check_coloring(inst, empty_signing(), (POOR,)) == Violation(0, POOR, 0, -1)
    assert check_coloring(inst, empty_signing(), (RICH,)) is None


def test_check_k2_parallel():
    inst = WeightedInstance.uniform(k2(), P00)
    signing = CoverSigning.uniform(inst.graph, PARALLEL)
    assert check_coloring(inst, signing, (POOR, RICH)) is None
    v = check_coloring(inst, signing, (POOR, POOR))
    assert v == Violation(0, POOR, 1, 0)


def test_check_c3_all_parallel_all_poor():
    inst = WeightedInstance.uniform(cycle_graph(3), P00)
    signing = CoverSigning.uniform(inst.graph, PARALLEL)
    v = check_coloring(inst, signing, (POOR, POOR, POOR))
    assert v == Violation(0, POOR, 2, 0)  # first violating vertex in index order


def test_check_rejects_partial_input():
    inst = WeightedInstance.uniform(cycle_graph(3), P00)
    signing = CoverSigning.uniform(inst.graph, PARALLEL)
    with pytest.raises(ValueError):
        check_coloring(inst, signing, (POOR, RICH))
    with pytest.raises(ValueError):
        check_coloring(inst, empty_signing(), (POOR, RICH, POOR))


def test_find_k2():
    inst = WeightedInstance.uniform(k2(), P00)
    signing = CoverSigning.uniform(inst.graph, PARALLEL)
    cmap = find_coloring(inst, signing)
    assert cmap is not None
    assert check_coloring(inst, signing, cmap) is None


def test_find_c3_all_parallel_none():
    inst = WeightedInstance.uniform(cycle_graph(3), P00)
    signing = CoverSigning.uniform(inst.graph, PARALLEL)
    # oracle first: exhausting all 8 maps finds nothing
    assert brute_force_oracle(inst, signing) is None
    assert find_coloring(inst, signing) is None


def test_find_flag_path_hard_cover_none():
    inst, spec = flag_path_instance(DefectParams(1, 2), 1)
    assert find_coloring(inst, hard_cover_signing(spec)) is None


def test_c5_one_twisted_edge():
    inst = WeightedInstance.uniform(cycle_graph(5), P00)
    signs = {
        e: (TWISTED if e == (0, 1) else PARALLEL) for e in inst.graph.sorted_edges
    }
    signing = CoverSigning.from_dict(inst.graph, signs)
    oracle = brute_force_oracle(inst, signing)
    assert oracle is not None  # value fixed by exhaustion
    assert find_coloring(inst, signing) is not None


def test_oracle_ceiling():
    graph = SimpleGraph(21, frozenset())
    inst = WeightedInstance.uniform(graph, P00)
    with pytest.raises(ValueError, match="ceiling"):
        brute_force_oracle(inst, CoverSigning((), ()))


def test_single_vertex_trivially_colorable():
    inst = single_vertex(0, 0, P00)
    assert brute_force_oracle(inst, empty_signing()) is not None


def test_check_matches_explicit_cover_graph():
    # independent route: materialize the cover graph and count adjacencies
    # of the chosen nodes directly, instead of the sign XOR rule
    rng = random.Random(606)
    for _ in range(60):
        inst = random_instance(rng, max_n=6)
        graph = inst.graph
        signing = random_signing(rng, graph)
        cover = build_cover_graph(graph, signing)
        bits = rng.getrandbits(graph.n) if graph.n else 0
        cmap = tuple((bits >> v) & 1 for v in range(graph.n))
        chosen = [2 * v + cmap[v] for v in range(graph.n)]
        expected = None
        for v in range(graph.n):
            defect = sum(
                1
                for u in graph.adjacency[v]
                if tuple(sorted((chosen[u], chosen[v]))) in cover.edges
            )
            if defect > inst.caps[v][cmap[v]]:
                expected = Violation(v, cmap[v], defect, inst.caps[v][cmap[v]])
                break
        assert check_coloring(inst, signing, cmap) == expected


def test_solver_agrees_with_oracle_exhaustively():
    rng = random.Random(1234)
    for _ in range(50):
        inst = random_instance(rng, max_n=6)
        m = inst.graph.edge_count()
        for bits in range(1 << m):
            signing = CoverSigning.from_bits(inst.graph, bits)
            got = find_coloring(inst, signing)
            want = brute_force_oracle(inst, signing)
            assert (got is None) == (want is None)
            if got is not None:
                assert check_coloring(inst, signing, got) is None


def test_edge_deletion_monotonicity():
    rng = random.Random(77)
    found = 0
    while found < 40:
        inst = random_instance(rng, max_n=6)
        signing = random_signing(rng, inst.graph)
        if find_coloring(inst, signing) is None:
            continue
        found += 1
        table = signing.as_dict()
        for e in inst.graph.sorted_edges:
            sub = inst.without_edge(e)
            restricted = CoverSigning.from_dict(
                sub.graph, {f: table[f] for f in sub.graph.sorted_edges}
            )
            assert find_coloring(sub, restricted) is not None


def test_capacity_monotonicity():
    rng = random.Random(78)
    found = 0
    while found < 40:
        inst = random_instance(rng, max_n=6)
        signing = random_signing(rng, inst.graph)
        if find_coloring(inst, signing) is None:
            continue
        found += 1
        params = inst.params
        raised = tuple(
            (min(c1 + rng.randint(0, 1), params.i), min(c2 + rng.randint(0, 1), params.j))
            for c1, c2 in inst.caps
        )
        assert find_coloring(inst.with_caps(raised), signing) is not None


@st.composite
def instances_and_signings(draw):
    """A random weighted instance with n <= 6, caps down to -1, and one
    signing of it."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    i = draw(st.integers(0, 2))
    params = DefectParams(i, draw(st.integers(i, i + 3)))
    cap = st.tuples(st.integers(-1, params.i), st.integers(-1, params.j))
    inst = host(n, edges, draw(st.lists(cap, min_size=n, max_size=n)), params)
    bits = draw(st.integers(0, (1 << len(edges)) - 1))
    return inst, CoverSigning.from_bits(inst.graph, bits)


@settings(max_examples=150, deadline=None)
@given(instances_and_signings())
def test_lowering_one_cap_keeps_a_signing_uncolorable(pair):
    """A valid map under lower caps stays valid under higher ones, so a
    signing with no map keeps none when any one cap drops by one."""
    inst, signing = pair
    assume(find_coloring(inst, signing) is None)
    caps = inst.caps
    for v, (c1, c2) in enumerate(caps):
        for lowered in ((c1 - 1, c2), (c1, c2 - 1)):
            if min(lowered) >= -1:
                lower = inst.with_caps(caps[:v] + (lowered,) + caps[v + 1 :])
                assert find_coloring(lower, signing) is None, (v, lowered)


@st.composite
def weighted_instances(draw):
    """A random weighted instance with n <= 7, at most 12 edges and caps
    down to -1."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    i = draw(st.integers(0, 2))
    params = DefectParams(i, draw(st.integers(i, i + 3)))
    cap = st.tuples(st.integers(-1, params.i), st.integers(-1, params.j))
    return host(n, edges, draw(st.lists(cap, min_size=n, max_size=n)), params)


@settings(max_examples=150, deadline=None)
@given(weighted_instances())
def test_deleting_an_edge_keeps_every_signing_colorable(inst):
    """The uniform survey's downward rule: a map valid on G stays valid on
    G - e, where each vertex has no more conflicts, so a graph colorable
    under every signing leaves every G - e so too."""
    assume(_lowest_uncolorable(inst)[0] is None)
    for e in inst.graph.sorted_edges:
        assert _lowest_uncolorable(inst.without_edge(e))[0] is None, e


def all_covers(inst, **kwargs):
    res = colorable_all_covers(inst, **kwargs)
    return res.witness, res.signings_examined


def test_all_covers_k2():
    inst = WeightedInstance.uniform(k2(), P00)
    assert all_covers(inst) == first_uncolorable(inst) == (None, 2)


def test_all_covers_single_forbidden_vertex():
    inst = single_vertex(-1, -1)
    assert all_covers(inst) == first_uncolorable(inst) == (empty_signing(), 1)


def test_all_covers_c3_witness_is_all_parallel():
    inst = WeightedInstance.uniform(cycle_graph(3), P00)
    res = colorable_all_covers(inst)
    assert (res.witness, res.signings_examined) == first_uncolorable(inst)
    assert res.witness.signs == (PARALLEL,) * 3  # lexicographically smallest
    assert res.signings_examined == 1


def test_all_covers_ceiling_and_iterator_bypass():
    graph = random_graph(random.Random(5), 7, 0.9)
    inst = WeightedInstance.uniform(graph, DefectParams(1, 2))
    with pytest.raises(ValueError, match="ceiling"):
        colorable_all_covers(inst, max_edges=graph.edge_count() - 1)
    few = [CoverSigning.uniform(graph, PARALLEL), CoverSigning.uniform(graph, TWISTED)]
    bad = [k for k, signing in enumerate(few) if find_coloring(inst, signing) is None]
    want = (few[bad[0]], bad[0] + 1) if bad else (None, 2)
    assert all_covers(inst, signings=few) == want


def host(n, edges, caps, params=DefectParams(1, 2)):
    return WeightedInstance(SimpleGraph.from_edges(n, edges), params, tuple(caps))


def c4_beside_a_path(path_edges):
    """A path of rich vertices with cap 2, which every signing colors, beside
    a 4-cycle with caps (0, 0) on its highest edges, which is uncolorable
    exactly when an odd number of its edges is twisted.  (A path with a
    poor choice too would only slow the oracle: its search tries every
    coloring of the path before it fails on the cycle.)"""
    n = path_edges + 1
    cycle = [(n, n + 1), (n + 1, n + 2), (n + 2, n + 3), (n, n + 3)]
    return host(n + 4, [(k, k + 1) for k in range(path_edges)] + cycle,
                [(-1, 2)] * n + [(0, 0)] * 4)


def test_kernel_finds_the_lowest_witness_in_a_later_window():
    inst = c4_beside_a_path(13)  # the 4-cycle's edges are 13..16
    assert inst.graph.sorted_edges[13] == (14, 15)
    res = colorable_all_covers(inst, max_edges=17)
    assert (res.witness, res.signings_examined) == first_uncolorable(inst)
    assert res.signings_examined == (1 << 13) + 1  # window 2 of 2^12 signings
    assert _lowest_uncolorable(inst)[0] == 1 << 13


def test_kernel_passes_a_fully_colorable_window_zero():
    """Vertex 12 must be rich and takes one conflict.  Its edge to 14, bit
    12 and the first window bit, conflicts when twisted, and its edge to 13,
    bit 11, when parallel.  So window 0 is colorable and window 1 half
    uncolorable, each bit as the oracle says."""
    edges = [(k, k + 1) for k in range(11)] + [(12, 13), (12, 14)]
    inst = host(15, edges, [(-1, 2)] * 12 + [(-1, 1), (-1, 1), (1, -1)])
    walk = _Walk(inst)
    assert (walk.width, walk.windows) == (WINDOW_BITS, 2)
    zero, one = walk.uncolorable(0)[0], walk.uncolorable(1)[0]
    assert zero == 0 and 0 < one < (1 << (1 << WINDOW_BITS)) - 1
    assert zero | (one << (1 << WINDOW_BITS)) == uncolorable_by_windows(inst)
    assert uncolorable_by_windows(inst) == uncolorable_by_oracle(inst)
    assert all_covers(inst) == first_uncolorable(inst) == (
        CoverSigning.from_bits(inst.graph, 1 << 12), (1 << 12) + 1
    )


def test_kernel_on_a_triangle_with_a_pendant_path():
    """The triangle is uncolorable at (0, 0) with every edge parallel, so
    the witness is signing 0 although the host has 16 edges."""
    edges = [(0, 1), (0, 2), (1, 2)] + [(k, k + 1) for k in range(2, 15)]
    inst = WeightedInstance.uniform(SimpleGraph.from_edges(16, edges), P00)
    assert all_covers(inst) == first_uncolorable(inst)
    assert all_covers(inst) == (CoverSigning.from_bits(inst.graph, 0), 1)


@st.composite
def wide_instances(draw):
    """A random weighted instance with n <= 9 and 11 to 13 edges, so that
    many span two windows, with caps down to -1 on few vertices."""
    n = draw(st.integers(6, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=11, max_size=13))
    i = draw(st.integers(0, 2))
    params = DefectParams(i, draw(st.integers(max(i, 1), i + 2)))
    caps = [(params.i, params.j)] * n
    for v in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        caps[v] = (draw(st.integers(-1, params.i)), draw(st.integers(-1, params.j)))
    return host(n, edges, caps, params)


@settings(max_examples=40, deadline=None)
@given(wide_instances())
def test_kernel_matches_the_oracle_across_windows(inst):
    assert all_covers(inst) == first_uncolorable(inst)


@st.composite
def gadgets_beside_a_path(draw):
    """A random weighted gadget on at most 4 vertices beside a path of rich
    vertices with cap 2, which every signing colors.  The path's edges come
    first and the gadget's last, so that its edges end at bit 12, the first
    window bit: 13 edges in all."""
    size = draw(st.integers(2, 4))
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    gadget = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    n = 14 - len(gadget)
    i = draw(st.integers(0, 2))
    params = DefectParams(i, draw(st.integers(max(i, 2), i + 2)))
    cap = st.tuples(st.integers(-1, params.i), st.integers(-1, params.j))
    caps = [(-1, 2)] * n + draw(st.lists(cap, min_size=size, max_size=size))
    edges = [(k, k + 1) for k in range(n - 1)] + [(n + u, n + v) for u, v in gadget]
    return host(n + size, edges, caps, params)


@settings(max_examples=5, deadline=None)
@given(gadgets_beside_a_path())
def test_both_windows_match_the_oracle_bit_by_bit(inst):
    assert _Walk(inst).windows == 2
    assert uncolorable_by_windows(inst) == uncolorable_by_oracle(inst)


def test_sample_covers_deterministic():
    inst, _ = flag_path_instance(DefectParams(1, 2), 1)
    a = sample_covers(inst, 500, seed=9)
    b = sample_covers(inst, 500, seed=9)
    assert a == b
    assert list(drawn_signings(inst.graph, 500, 9)) != list(
        drawn_signings(inst.graph, 500, 10)
    )


def test_sample_covers_rejects_zero_count():
    inst = single_vertex(0, 0)
    with pytest.raises(ValueError):
        sample_covers(inst, 0, seed=1)


def test_sample_covers_finds_trivial_witness():
    rep = sample_covers(single_vertex(-1, -1), 1, seed=0)
    assert rep.witness == empty_signing()
    assert rep.signings_examined == 1


@st.composite
def instances_with_cut_vertices(draw, max_block=4):
    """Weighted instances on at most 8 vertices and 10 edges, grown from
    vertex 0 by hanging up to five small blocks (an edge, a triangle, a
    4-cycle with or without a chord; at most `max_block` vertices each) on
    earlier vertices: pendant paths, trees of blocks and blocks sharing a
    vertex, plus up to two isolated vertices and caps of -1.
    Vertices plus edges stay at most 13, so the oracle's 2^(n+m) checks per
    instance stay affordable.  A drawn set of vertices gets the top caps
    (i, j), so a cut vertex can carry a load of cap + 1 = j + 1 from each
    of its blocks."""
    i = draw(st.integers(0, 2))
    params = DefectParams(i, draw(st.integers(i, 3)))
    n, edges = 1, []
    for _ in range(draw(st.integers(1, 5))):
        size = draw(st.integers(2, max_block))  # the block's vertices, its attachment included
        at = draw(st.integers(0, n - 1))
        ring = [at, *range(n, n + size - 1)]
        block = [(ring[k], ring[(k + 1) % size]) for k in range(size if size > 2 else 1)]
        if size == 4 and draw(st.booleans()):
            block.append((ring[0], ring[2]))
        if n + size - 1 > 8 or len(edges) + len(block) > 10:
            break
        if n + size - 1 + len(edges) + len(block) > 13:
            break
        n += size - 1
        edges += block
    n = min(n + draw(st.integers(0, 2)), 8, 13 - len(edges))
    caps = draw(
        st.lists(
            st.tuples(st.integers(-1, params.i), st.integers(-1, params.j)),
            min_size=n,
            max_size=n,
        )
    )
    for v in draw(st.sets(st.integers(0, n - 1))):
        caps[v] = (params.i, params.j)
    graph = SimpleGraph.from_edges(n, edges)
    return WeightedInstance(graph, params, tuple(caps))


@settings(max_examples=150, deadline=None)
@given(instances_with_cut_vertices())
def test_scan_agrees_with_oracle_on_graphs_with_cut_vertices(inst):
    graph = inst.graph
    lowest = None
    for bits in range(1 << graph.edge_count()):
        signing = CoverSigning.from_bits(graph, bits)
        uncolorable = brute_force_oracle(inst, signing) is None
        assert (find_coloring(inst, signing) is None) == uncolorable
        assert colorable_all_covers(inst, signings=(signing,)).colorable != uncolorable
        if uncolorable and lowest is None:
            lowest = signing
    assert colorable_all_covers(inst).witness == lowest


def test_plan_tabulates_leaf_blocks_with_under_half_the_edges():
    inst, _ = flag_path_instance(DefectParams(1, 2), 1)
    plan = _plan(inst.graph)
    assert [cut for cut, _, _ in plan.blocks] == [0] * 5  # one per flag
    assert plan.core.order == (0,)
    assert plan.core_mask == 0
    # a 5-edge block and a pendant edge at vertex 3: the block stays in the core
    graph = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (3, 4)])
    plan = _plan(graph)
    assert [(cut, mask) for cut, mask, _ in plan.blocks] == [(3, 1 << 5)]
    assert sorted(plan.core.order) == [0, 1, 2, 3]
    assert plan.core_mask == (1 << 5) - 1
    # two triangles joined by a bridge: the bridge has two cut vertices
    chain = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    plan = _plan(chain)
    assert sorted(cut for cut, _, _ in plan.blocks) == [2, 3]
    assert sorted(plan.core.order) == [2, 3]
    assert plan.core_mask == 1 << chain.edge_index[(2, 3)]
    plan = _plan(cycle_graph(3))
    assert (plan.blocks, plan.core_mask) == ((), 7)


def test_each_component_is_searched_on_its_own():
    # a 12-vertex path at caps (1, 2) beside a triangle at caps (0, 0), all
    # parallel: the triangle fails alone in 10 nodes, and the search must not
    # walk the path's colorings before giving up
    edges = [(k, k + 1) for k in range(11)] + [(12, 13), (12, 14), (13, 14)]
    graph = SimpleGraph.from_edges(15, edges)
    inst = WeightedInstance(graph, DefectParams(1, 2), ((1, 2),) * 12 + ((0, 0),) * 3)
    signing = CoverSigning.from_bits(graph, 0)
    assert brute_force_oracle(inst, signing) is None
    assert find_coloring(inst, signing) is None
    scan = colorable_all_covers(inst, signings=(signing,))
    assert not scan.colorable
    assert scan.nodes_expanded < 100
    # with the triangle colorable, both components are colored in one map
    loose = inst.with_caps(((1, 2),) * 12 + ((1, 2),) * 3)
    cmap = find_coloring(loose, signing)
    assert cmap is not None and check_coloring(loose, signing, cmap) is None


def test_sample_covers_matches_a_plain_search_loop():
    host, _ = flag_path_instance(DefectParams(1, 2), 1)
    triangle = WeightedInstance.uniform(cycle_graph(3), P00)
    for inst, count, seed in ((host, 2000, 0), (triangle, 50, 3)):
        scan = sample_covers(inst, count, seed)
        examined, witness = 0, None
        for signing in drawn_signings(inst.graph, count, seed):
            examined += 1
            if find_coloring(inst, signing) is None:
                witness = signing
                break
        assert witness is not None
        assert (scan.witness, scan.signings_examined) == (witness, examined)


def plain_search_loop(inst, stream):
    """The witness and signings examined of one find_coloring per signing."""
    examined = 0
    for bits in stream:
        examined += 1
        signing = CoverSigning.from_bits(inst.graph, bits)
        if find_coloring(inst, signing) is None:
            return signing, examined
    return None, examined


def scan_stream(inst, stream):
    return colorable_all_covers(
        inst, signings=[CoverSigning.from_bits(inst.graph, bits) for bits in stream]
    )


@settings(max_examples=150, deadline=None)
@given(instances_with_cut_vertices(max_block=3), st.data())
def test_scan_of_a_repeating_stream_matches_a_plain_search_loop(inst, data):
    # a signing and some of its one-edge flips: they share the keys of all
    # but one leaf block or of the core, so a memo key missing a part shows.
    # Colorable ones lead, so their memo entries are in place when the
    # uncolorable ones come up.
    m = inst.graph.edge_count()
    base = data.draw(st.integers(0, (1 << m) - 1))
    flips = data.draw(st.lists(st.integers(0, m - 1), max_size=5))
    pool = [base] + [base ^ (1 << k) for k in flips]
    colorable = [b for b in pool if find_coloring(inst, CoverSigning.from_bits(inst.graph, b))]
    stream = data.draw(st.lists(st.sampled_from(colorable), max_size=20)) if colorable else []
    stream += data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    scan = scan_stream(inst, stream)
    assert (scan.witness, scan.signings_examined) == plain_search_loop(inst, stream)


# Triangles 0-1-2 and 3-4-5 joined by the bridge 2-3, with a pendant edge at
# each end of the bridge: two cut vertices with two leaf blocks each, and a
# one-edge core whose sign the core memo must see.
TWO_CUTS = SimpleGraph.from_edges(
    8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (2, 6), (3, 7)]
)


def test_core_memo_matches_a_plain_search_loop_at_two_cut_vertices():
    graph = TWO_CUTS
    plan = _plan(graph)
    assert sorted(plan.cuts) == [(2, 2), (3, 2)]
    rng = random.Random(2024)
    params = DefectParams(1, 2)
    full_loads = 0
    for _ in range(12):
        caps = [(rng.randint(-1, 1), rng.randint(-1, 2)) for _ in range(graph.n)]
        caps[2] = caps[3] = (1, 2)  # cut vertices at the top of their range
        inst = WeightedInstance(graph, params, tuple(caps))
        cap0, cap1 = zip(*caps)
        colorable, uncolorable = [], []
        for bits in range(1 << graph.edge_count()):
            signing = CoverSigning.from_bits(graph, bits)
            (uncolorable if find_coloring(inst, signing) is None else colorable).append(bits)
            for cut, _, ctx in plan.blocks:
                loads, _ = _block_load(ctx, cut, signing.signs, cap0, cap1)
                full_loads += loads == (2, 3)
        stream = colorable + colorable[::-1]
        assert scan_stream(inst, stream).witness is None
        for bits in uncolorable[:: max(1, len(uncolorable) // 6)]:
            scan = scan_stream(inst, colorable + [bits])
            assert (scan.witness, scan.signings_examined) == plain_search_loop(
                inst, colorable + [bits]
            )
    assert full_loads  # some block puts cap + 1 on both choices of its cut vertex


def test_a_repeated_signing_costs_the_nodes_of_one_search():
    # on every graph: with leaf blocks split off, and as its own core
    host, spec = flag_path_instance(DefectParams(1, 2), 1)
    chain = WeightedInstance.uniform(TWO_CUTS, DefectParams(1, 2))
    k4 = WeightedInstance.uniform(complete_graph(4), DefectParams(1, 2))
    hard = _as_bits(host.graph, hard_cover_signing(spec))
    cases = ((host, 0), (host, 1234567), (host, hard), (chain, 0), (chain, 300), (k4, 0), (k4, 5))
    for inst, bits in cases:
        once = scan_stream(inst, [bits])
        again = scan_stream(inst, [bits] * 5)
        assert again.nodes_expanded == once.nodes_expanded > 0
        assert again.signings_examined == (1 if once.witness else 5)
        assert again.witness == once.witness


def test_graphs_without_a_split_off_block_search_every_signing():
    # one whole-graph search per distinct signing, as `find_coloring` runs it
    triangle = WeightedInstance.uniform(cycle_graph(3), DefectParams(1, 2))
    k4 = WeightedInstance.uniform(complete_graph(4), DefectParams(1, 2))
    assert _plan(triangle.graph).blocks == () == _plan(k4.graph).blocks
    cases = [
        (scan_stream(WeightedInstance.uniform(cycle_graph(3), P00), range(8)), 1, 10),
        (scan_stream(triangle, range(8)), 8, 33),
        (scan_stream(k4, range(64)), 64, 440),
        # 200 draws over the 8 and 64 signings: the repeats cost no search
        (sample_covers(triangle, 200, 5), 200, 33),
        (sample_covers(k4, 200, 5), 200, 421),
    ]
    for scan, examined, nodes in cases:
        assert (scan.signings_examined, scan.nodes_expanded) == (examined, nodes)


# ---------------------------------------------------------------------------
# The load DP over the block-cut tree
# ---------------------------------------------------------------------------

def _agrees_with_the_walk(inst):
    """The load DP finds an uncolorable signing iff the map walk does, and
    the whole-graph search fails on the DP's."""
    bits, _ = _uncolorable_by_loads(inst, {})
    assert (bits is None) == (_lowest_uncolorable(inst)[0] is None)
    if bits is not None:
        assert find_coloring(inst, CoverSigning.from_bits(inst.graph, bits)) is None


@pytest.mark.parametrize("i,j", [(1, 2), (1, 3), (2, 4), (0, 1), (1, 1)])
def test_load_dp_agrees_with_the_walk_on_every_class_up_to_n5(i, j):
    params = DefectParams(i, j)
    for n in range(1, 6):
        for graph in graphs_up_to_iso(n):
            _agrees_with_the_walk(WeightedInstance.uniform(graph, params))


@st.composite
def trees_plus_edges(draw):
    """A random tree on at most 9 vertices plus up to 5 more edges, under
    random caps down to -1: many cut vertices, and blocks of every size."""
    n = draw(st.integers(1, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        extra = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=5))
        edges |= {(min(e), max(e)) for e in extra}
    i = draw(st.integers(0, 2))
    params = DefectParams(i, draw(st.integers(i, i + 2)))
    cap = st.tuples(st.integers(-1, params.i), st.integers(-1, params.j))
    caps = draw(st.lists(cap, min_size=n, max_size=n))
    return WeightedInstance(SimpleGraph.from_edges(n, edges), params, tuple(caps))


@settings(max_examples=200, deadline=None)
@given(trees_plus_edges())
def test_load_dp_agrees_with_the_walk_on_trees_plus_edges(inst):
    _agrees_with_the_walk(inst)


# ---------------------------------------------------------------------------
# The block-cut tree shared by `_plan` and the load DP
# ---------------------------------------------------------------------------

def blocks_by_separation(graph):
    """The blocks as sorted lists of edge indices, by the rule that edges
    wa and wb lie in one block iff a and b are connected in G - w."""
    edges = graph.sorted_edges
    block_of = list(range(len(edges)))  # union-find over the edges

    def find(k):
        while block_of[k] != k:
            block_of[k] = k = block_of[block_of[k]]
        return k

    for w in range(graph.n):
        side = {}  # each vertex of G - w -> a label of its component
        for start in range(graph.n):
            if start != w and start not in side:
                side[start], stack = start, [start]
                while stack:
                    for u in graph.adjacency[stack.pop()]:
                        if u != w and u not in side:
                            side[u] = start
                            stack.append(u)
        for a, b in itertools.combinations(graph.adjacency[w], 2):
            if side[a] == side[b]:
                ka = graph.edge_index[(min(a, w), max(a, w))]
                kb = graph.edge_index[(min(b, w), max(b, w))]
                block_of[find(ka)] = find(kb)
    groups = {}
    for k in range(len(edges)):
        groups.setdefault(find(k), set()).add(k)
    return sorted(map(sorted, groups.values()))


@settings(max_examples=200, deadline=None)
@given(trees_plus_edges())
def test_block_cut_tree_matches_the_separation_rule(inst):
    graph = inst.graph
    edges = graph.sorted_edges
    tree = _biconnected_components(graph)
    assert tree is _biconnected_components(SimpleGraph.from_edges(graph.n, edges))  # cached
    assert sorted(list(block) for _, block, _ in tree) == blocks_by_separation(graph)
    for index, (top, block, vertices) in enumerate(tree):
        assert list(block) == sorted(block)
        assert list(vertices) == sorted({v for k in block for v in edges[k]})
        assert top in vertices
        # a block comes after every block that hangs from its other vertices
        assert all(t == top or t not in vertices for t, _, _ in tree[index + 1:])


@settings(max_examples=100, deadline=None)
@given(trees_plus_edges())
def test_plan_and_load_dp_see_the_same_blocks(inst):
    graph = inst.graph
    _uncolorable_by_loads(inst, {})
    tree = _biconnected_components(graph)
    # the DP read the cached tree without changing it
    assert tree == _biconnected_components.__wrapped__(graph)
    plan = _plan(graph)
    masks = {sum(1 << k for k in block): vertices for _, block, vertices in tree}
    for cut, mask, _ in plan.blocks:
        assert cut in masks[mask]
    leaf_edges = sum(mask for _, mask, _ in plan.blocks)
    assert plan.core_mask == ((1 << graph.edge_count()) - 1) ^ leaf_edges


# The leaf blocks (cut vertex, edge mask), `cuts` and `core_mask` of `_plan`
# for the (1,2,1) host (key None) and each G - e, as recorded before the
# block-cut tree was cached: the sampled sweep runs the same searches.
PLAN_121 = {
    None: ([(0, 98311), (0, 393272), (0, 1573312), (0, 6295040), (0, 25194496)], ((0, 5),), 0),
    (0, 1): ([(0, 49155), (0, 196636), (0, 786656), (0, 3147520), (0, 12597248)], ((0, 5),), 0),
    (0, 2): (
        [(1, 16384), (0, 196636), (0, 786656), (0, 3147520), (0, 12597248)],
        ((1, 1), (0, 4)), 32771,
    ),
    (0, 3): (
        [(1, 32768), (0, 196636), (0, 786656), (0, 3147520), (0, 12597248)],
        ((1, 1), (0, 4)), 16387,
    ),
    (0, 4): ([(0, 49159), (0, 196632), (0, 786656), (0, 3147520), (0, 12597248)], ((0, 5),), 0),
    (0, 5): (
        [(0, 49159), (4, 65536), (0, 786656), (0, 3147520), (0, 12597248)],
        ((0, 4), (4, 1)), 131096,
    ),
    (0, 6): (
        [(0, 49159), (4, 131072), (0, 786656), (0, 3147520), (0, 12597248)],
        ((0, 4), (4, 1)), 65560,
    ),
    (0, 7): ([(0, 49159), (0, 196664), (0, 786624), (0, 3147520), (0, 12597248)], ((0, 5),), 0),
    (0, 8): (
        [(0, 49159), (0, 196664), (7, 262144), (0, 3147520), (0, 12597248)],
        ((0, 4), (7, 1)), 524480,
    ),
    (0, 9): (
        [(0, 49159), (0, 196664), (7, 524288), (0, 3147520), (0, 12597248)],
        ((0, 4), (7, 1)), 262336,
    ),
    (0, 10): ([(0, 49159), (0, 196664), (0, 786880), (0, 3147264), (0, 12597248)], ((0, 5),), 0),
    (0, 11): (
        [(0, 49159), (0, 196664), (0, 786880), (10, 1048576), (0, 12597248)],
        ((0, 4), (10, 1)), 2098688,
    ),
    (0, 12): (
        [(0, 49159), (0, 196664), (0, 786880), (10, 2097152), (0, 12597248)],
        ((0, 4), (10, 1)), 1050112,
    ),
    (0, 13): ([(0, 49159), (0, 196664), (0, 786880), (0, 3149312), (0, 12595200)], ((0, 5),), 0),
    (0, 14): (
        [(0, 49159), (0, 196664), (0, 786880), (0, 3149312), (13, 4194304)],
        ((0, 4), (13, 1)), 8400896,
    ),
    (0, 15): (
        [(0, 49159), (0, 196664), (0, 786880), (0, 3149312), (13, 8388608)],
        ((0, 4), (13, 1)), 4206592,
    ),
    (1, 2): ([(0, 32773), (0, 2), (0, 196664), (0, 786880), (0, 3149312), (0, 12611584)],
             ((0, 6),), 0),
    (1, 3): ([(0, 32771), (0, 4), (0, 196664), (0, 786880), (0, 3149312), (0, 12611584)],
             ((0, 6),), 0),
    (4, 5): ([(0, 98311), (0, 131112), (0, 16), (0, 786880), (0, 3149312), (0, 12611584)],
             ((0, 6),), 0),
    (4, 6): ([(0, 98311), (0, 131096), (0, 32), (0, 786880), (0, 3149312), (0, 12611584)],
             ((0, 6),), 0),
    (7, 8): ([(0, 98311), (0, 393272), (0, 524608), (0, 128), (0, 3149312), (0, 12611584)],
             ((0, 6),), 0),
    (7, 9): ([(0, 98311), (0, 393272), (0, 524480), (0, 256), (0, 3149312), (0, 12611584)],
             ((0, 6),), 0),
    (10, 11): ([(0, 98311), (0, 393272), (0, 1573312), (0, 2099712), (0, 1024), (0, 12611584)],
               ((0, 6),), 0),
    (10, 12): ([(0, 98311), (0, 393272), (0, 1573312), (0, 2098688), (0, 2048), (0, 12611584)],
               ((0, 6),), 0),
    (13, 14): ([(0, 98311), (0, 393272), (0, 1573312), (0, 6295040), (0, 8409088), (0, 8192)],
               ((0, 6),), 0),
    (13, 15): ([(0, 98311), (0, 393272), (0, 1573312), (0, 6295040), (0, 8400896), (0, 16384)],
               ((0, 6),), 0),
}


def test_plan_of_the_121_host_and_each_deletion_is_pinned():
    host, _ = flag_path_instance(DefectParams(1, 2), 1)
    assert list(PLAN_121) == [None, *host.graph.sorted_edges]
    for edge, pinned in PLAN_121.items():
        plan = _plan((host.without_edge(edge) if edge else host).graph)
        assert ([(cut, mask) for cut, mask, _ in plan.blocks], plan.cuts, plan.core_mask) == pinned
