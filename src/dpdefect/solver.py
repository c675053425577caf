"""Coloring validation and complete search over the cover space.

`find_coloring` is a complete backtracking search (fixed vertex order,
incremental defect counters, capacity pruning) of the whole graph, one
connected component at a time.
`brute_force_oracle` re-decides the same question by exhausting all 2^n
maps through `check_coloring` and deliberately shares no search code with
it.  `_lowest_uncolorable` is the only code that quantifies over every
signing: a walk over the maps that decides 2^12 signings at once, in sets
held as Python ints.  An explicit stream of signings (seeded draws, a
witness to cross-check, a hard cover) goes to `_scan`, which decides one
signing at a time: it splits the leaf blocks of the block-cut tree off into
tables of packed loads, and searches the rest once per distinct key (its
loads and its own signs) of a scan.  `colorable_all_covers` and
`sample_covers` report either as a `CoverScan`.  `_uncolorable_by_loads`
decides "is every signing colorable?" from the same leaf-block loads, over
the whole block-cut tree and for an adversary that picks each block's
signing, as the harness needs for flag-path hosts.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .model import (
    ColoringMap,
    CoverSigning,
    SimpleGraph,
    WeightedInstance,
)

DEFAULT_ORACLE_CEILING = 20
DEFAULT_ENUMERATION_CEILING = 16


@dataclass(frozen=True)
class Violation:
    """A vertex whose chosen node exceeds its capacity."""

    vertex: int
    choice: int
    defect: int
    bound: int


@dataclass(frozen=True)
class CoverScan:
    """Outcome of quantifying over a stream of signings: the first one
    with no valid coloring (None if every one is colorable), and the work
    spent reaching it."""

    witness: CoverSigning | None
    signings_examined: int
    nodes_expanded: int

    @property
    def colorable(self) -> bool:
        return self.witness is None

    @property
    def examined(self) -> int:
        # read only by bench/spans.py; goes away with the next benchmark change
        return self.signings_examined


def check_coloring(
    instance: WeightedInstance, signing: CoverSigning, cmap: ColoringMap
) -> Violation | None:
    """Validate a poor/rich choice map against a signed cover.

    Returns None when valid; otherwise the violation at the smallest vertex.
    The defect of v counts neighbors u whose chosen node is adjacent to v's
    chosen node, i.e. with x_u XOR x_v equal to the edge sign.
    """
    graph = instance.graph
    if len(cmap) != graph.n:
        raise ValueError(f"map covers {len(cmap)} of {graph.n} vertices")
    if any(x not in (0, 1) for x in cmap):
        raise ValueError("map entries must be 0 (poor) or 1 (rich)")
    signs = signing.signs_for(graph)
    edge_index = graph.edge_index
    for v in range(graph.n):
        xv = cmap[v]
        cap = instance.caps[v][xv]
        defect = 0
        for u in graph.adjacency[v]:
            e = (u, v) if u < v else (v, u)
            if (cmap[u] ^ xv) == signs[edge_index[e]]:
                defect += 1
        if defect > cap:
            return Violation(v, xv, defect, cap)
    return None


class _SearchContext:
    """Search order and incident edges for the vertices of one part of a
    graph.  Only the part's edges are kept; arrays are indexed by the
    vertices of the whole graph.  The order is by (-degree, label) within
    each connected component, and the components follow one another by
    their first vertex in that order; `parts` holds the (start, end) of
    each in `order`."""

    __slots__ = ("size", "order", "parts", "nbrs")

    def __init__(self, graph: SimpleGraph, vertices: Iterable[int], edges: Iterable[int]):
        sorted_edges = graph.sorted_edges
        rows: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
        # in edge order, so each vertex lists its neighbours in increasing order
        for k in sorted(edges):
            u, w = sorted_edges[k]
            rows[u].append((w, k))
            rows[w].append((u, k))
        nbrs: list[tuple[tuple[int, int], ...]] = [()] * graph.n
        for v, row in rows.items():
            nbrs[v] = tuple(row)
        part = dict.fromkeys(rows, -1)
        members: list[list[int]] = []
        for v in sorted(rows, key=lambda v: (-len(nbrs[v]), v)):
            if part[v] < 0:
                part[v], stack = len(members), [v]
                members.append([])
                while stack:
                    for u, _ in nbrs[stack.pop()]:
                        if part[u] < 0:
                            part[u] = part[v]
                            stack.append(u)
            members[part[v]].append(v)
        ends = list(itertools.accumulate(map(len, members)))
        self.size = graph.n
        self.order = tuple(itertools.chain(*members))
        self.parts = tuple(zip([0, *ends], ends))
        self.nbrs = tuple(nbrs)


def _caps(instance: WeightedInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The poor and the rich cap of every vertex."""
    caps = instance.caps
    return tuple(c for c, _ in caps), tuple(c for _, c in caps)


@lru_cache(maxsize=64)
def _context(graph: SimpleGraph) -> _SearchContext:
    """The whole graph's search context, shared by every capacity function."""
    return _SearchContext(graph, range(graph.n), range(len(graph.sorted_edges)))


def _solve(
    ctx: _SearchContext, signs: Sequence[int], caps: tuple[Sequence[int], Sequence[int]]
) -> tuple[ColoringMap | None, int]:
    """Backtracking core over the vertices of `ctx`, under `signs` (indexed
    by edge) and the poor and rich `caps` (a negative cap forbids that
    choice); returns (map or None, nodes expanded).  A map leaves the
    vertices outside `ctx` at -1.  Each connected component is searched on
    its own, so backtracking never re-colors a component that was already
    colored when a later one fails."""
    order = ctx.order
    nbrs = ctx.nbrs
    cap0, cap1 = caps
    n = len(order)
    choice = [-1] * ctx.size
    cnt = [0] * ctx.size
    nextx = [0] * n
    bumped: list[list[int] | None] = [None] * n
    nodes = 0

    for start, end in ctx.parts:
        depth = start
        while depth < end:
            v = order[depth]
            x = nextx[depth]
            if x == 2:
                # both branches exhausted: undo the previous level and retry it
                nextx[depth] = 0
                depth -= 1
                if depth < start:
                    return None, nodes
                w = order[depth]
                bl = bumped[depth]
                if bl:
                    for u in bl:
                        cnt[u] -= 1
                bumped[depth] = None
                choice[w] = -1
                continue
            nextx[depth] = x + 1
            cap = cap1[v] if x else cap0[v]
            if cap < 0:
                continue
            nodes += 1
            mycnt = 0
            ok = True
            bl: list[int] = []
            for u, e in nbrs[v]:
                xu = choice[u]
                if xu >= 0 and (xu ^ x) == signs[e]:
                    mycnt += 1
                    if mycnt > cap:
                        ok = False
                        break
                    if cnt[u] + 1 > (cap1[u] if xu else cap0[u]):
                        ok = False
                        break
                    bl.append(u)
            if not ok:
                continue
            for u in bl:
                cnt[u] += 1
            cnt[v] = mycnt
            choice[v] = x
            bumped[depth] = bl
            depth += 1
    return tuple(choice), nodes


def find_coloring(
    instance: WeightedInstance, signing: CoverSigning
) -> ColoringMap | None:
    """Complete search for a valid map under one signing; None iff none exists."""
    signs = signing.signs_for(instance.graph)
    cmap, _ = _solve(_context(instance.graph), signs, _caps(instance))
    if cmap is not None and check_coloring(instance, signing, cmap) is not None:
        raise RuntimeError("internal error: search returned an invalid map")
    return cmap


def brute_force_oracle(instance: WeightedInstance, signing: CoverSigning) -> ColoringMap | None:
    """Decide colorability by exhausting all 2^n maps through check_coloring.

    Independent of the backtracking search; intended as its ground truth on
    small instances, up to DEFAULT_ORACLE_CEILING vertices.
    """
    n = instance.graph.n
    if n > DEFAULT_ORACLE_CEILING:
        raise ValueError(f"oracle ceiling exceeded: n={n} > {DEFAULT_ORACLE_CEILING}")
    for bits in range(1 << n):
        cmap = tuple((bits >> v) & 1 for v in range(n))
        if check_coloring(instance, signing, cmap) is None:
            return cmap
    return None


def _as_bits(graph: SimpleGraph, signing: CoverSigning) -> int:
    """A signing of `graph` as an int: bit k is the sign of sorted edge k."""
    bits = 0
    for s in reversed(signing.signs_for(graph)):
        bits += bits + s
    return bits


_BYTE_SIGNS = tuple(tuple((b >> k) & 1 for k in range(8)) for b in range(256))


def _sign_tuple(bits: int, m: int) -> tuple[int, ...]:
    """The signs of signing `bits` on m edges, indexed by edge (padded
    with zeros to a multiple of 8)."""
    signs: tuple[int, ...] = ()
    for shift in range(0, m, 8):
        signs += _BYTE_SIGNS[(bits >> shift) & 255]
    return signs


def _repeat(pattern: int, span: int, count: int) -> int:
    """`count` copies of `pattern`, `span` bits apart, by shift-OR doubling."""
    out = shift = 0
    while True:
        if count & 1:
            out |= pattern << shift
            shift += span
        count >>= 1
        if not count:
            return out
        pattern |= pattern << span
        span <<= 1


@lru_cache(maxsize=64)
def _biconnected_components(
    graph: SimpleGraph,
) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
    """Each block (biconnected component) as (the vertex it hangs from,
    its edge indices, its vertices), both ascending, found by one
    depth-first search (Hopcroft and Tarjan, "Efficient algorithms for
    graph manipulation", 1973) that roots the block-cut tree at the
    smallest vertex of each component; a block comes after every block
    that hangs from its other vertices.  Isolated vertices are in no
    block.  Cached per graph, for `_Plan` and `_uncolorable_by_loads`."""
    adjacency, edge_index, sorted_edges = graph.adjacency, graph.edge_index, graph.sorted_edges
    disc = [-1] * graph.n
    low = [0] * graph.n
    parent = [-1] * graph.n
    blocks = []
    clock = 0
    for root in range(graph.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, iter(adjacency[root]))]
        edges: list[int] = []  # tree and back edges not yet in a block
        while stack:
            v, unseen = stack[-1]
            for u in unseen:
                if disc[u] < 0:
                    parent[u] = v
                    edges.append(edge_index[(v, u) if v < u else (u, v)])
                    disc[u] = low[u] = clock
                    clock += 1
                    stack.append((u, iter(adjacency[u])))
                    break
                if u != parent[v] and disc[u] < disc[v]:
                    edges.append(edge_index[(v, u) if v < u else (u, v)])
                    low[v] = min(low[v], disc[u])
            else:
                stack.pop()
                p = parent[v]
                if p < 0:
                    continue
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:
                    # p separates v's subtree: its edges from the tree edge on form a block
                    k = edges.index(edge_index[(p, v) if p < v else (v, p)])
                    block = sorted(edges[k:])
                    vertices = sorted({w for e in block for w in sorted_edges[e]})
                    blocks.append((p, tuple(block), tuple(vertices)))
                    del edges[k:]
    return tuple(blocks)


class _Plan:
    """How `_scan` decides a signing on one graph.

    A leaf block meets the rest of the graph only at its one cut vertex c,
    so for each choice of c its signs matter only through its load: the
    fewest conflicts it must put on c while its other vertices stay within
    their caps.  The core, the graph minus the leaf blocks' interiors, is
    colorable with c's caps lowered by its blocks' loads iff the graph is,
    so the core's verdict depends only on the loads and the core's signs,
    and every scan memoises it under that key.  A leaf block with b edges
    is split off only when it has fewer edges than the rest of the graph.
    In a stream of N draws spread over all signings each of its 2^b keys
    comes up about N / 2^b times, and filling one takes two or more
    searches of the block, so the table pays once N passes 2^(b+1); the
    rule keeps 2^b below 2^(m/2).  A one-signing stream (a witness to
    cross-check, a hard cover) repeats no key and pays two or more
    searches of each small block instead of one search of the graph.
    `blocks` holds (c, mask of the block's edges, its search context) per
    split-off block, `cuts` (c, number of its split-off blocks) per cut
    vertex, and `core_mask` masks the core's edges.
    """

    __slots__ = ("core", "blocks", "cuts", "core_mask")

    def __init__(self, graph: SimpleGraph):
        m = len(graph.sorted_edges)
        blocks = _biconnected_components(graph)
        blocks_at = Counter(v for _, _, vertices in blocks for v in vertices)
        leaves = []
        per_cut: dict[int, int] = {}
        interior: set[int] = set()
        leaf_edges: set[int] = set()
        for _, block, vertices in blocks:
            cuts = [v for v in vertices if blocks_at[v] > 1]
            if len(cuts) == 1 and 2 * len(block) < m:
                cut = cuts[0]
                context = _SearchContext(graph, vertices, block)
                leaves.append((cut, sum(1 << k for k in block), context))
                per_cut[cut] = per_cut.get(cut, 0) + 1
                interior.update(v for v in vertices if v != cut)
                leaf_edges.update(block)
        core_edges = [k for k in range(m) if k not in leaf_edges]
        self.blocks = tuple(leaves)
        self.cuts = tuple(per_cut.items())
        self.core = _SearchContext(
            graph, (v for v in range(graph.n) if v not in interior), core_edges
        )
        self.core_mask = sum(1 << k for k in core_edges)


@lru_cache(maxsize=64)
def _plan(graph: SimpleGraph) -> _Plan:
    return _Plan(graph)


def _block_load(
    ctx: _SearchContext,
    cut: int,
    signs: Sequence[int],
    cap0: Sequence[int],
    cap1: Sequence[int],
) -> tuple[tuple[int, int], int]:
    """A leaf block's load on its cut vertex for a poor and for a rich cut
    vertex, and the search nodes spent.  The load is the least L for which
    the block is colorable with the cut vertex's caps (L, -1) or (-1, L),
    or the cut vertex's cap + 1 if no L up to that cap works."""
    caps = (list(cap0), list(cap1))
    loads = []
    nodes = 0
    for x, cap in enumerate((cap0[cut], cap1[cut])):
        caps[1 - x][cut] = -1
        load = 0
        while load <= cap:
            caps[x][cut] = load
            cmap, spent = _solve(ctx, signs, caps)
            nodes += spent
            if cmap is not None:
                break
            load += 1
        loads.append(load)
    return (loads[0], loads[1]), nodes


def maximal_profiles(profiles: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The pairs that no other pair dominates componentwise, in input order.

    A larger load only makes the cut vertex harder to color, so these are
    the only loads a search for an uncolorable signing needs to try.
    """
    pool = list(profiles)
    return [
        p for p in pool
        if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in pool)
    ]


def _saturated_sums(option_sets: list[dict], cap: tuple[int, int]) -> dict:
    """The maximal sums of one option from each set, each load capped at
    `cap` + 1.  An option set maps a (poor, rich) load to the bits of a
    signing that gives it; a sum's bits are the OR of its parts'."""
    total = {(0, 0): 0}  # the sum of no options
    for options in option_sets:
        found: dict[tuple[int, int], int] = {}
        for (p, r), bits in total.items():
            for (q, s), more in options.items():
                found.setdefault((min(p + q, cap[0] + 1), min(r + s, cap[1] + 1)), bits | more)
        total = {load: found[load] for load in maximal_profiles(found)}
    return total


def _block_options(shape: tuple, caps: tuple, cut: int, loads: tuple) -> tuple[list, int]:
    """The maximal loads (`_block_load`) a block with local edges `shape`
    and `caps` puts on vertex `cut`, over its signings and one load from
    `loads` at each other vertex, lowering its caps: each with its twisted
    local edges and the loads chosen; and the calls spent."""
    ctx = _context(SimpleGraph(len(caps), frozenset(shape)))
    signings = [_sign_tuple(bits, len(shape)) for bits in range(1 << len(shape))]
    found: dict[tuple[int, int], tuple[int, tuple]] = {}
    for choice in itertools.product(*loads):
        cap0, cap1 = map(list, zip(*caps))
        for t, (poor, rich) in zip((t for t in range(len(caps)) if t != cut), choice):
            cap0[t] -= poor
            cap1[t] -= rich
        for bits, signs in enumerate(signings):
            found.setdefault(_block_load(ctx, cut, signs, cap0, cap1)[0], (bits, choice))
    return [
        (load, [t for t in range(len(shape)) if found[load][0] >> t & 1], found[load][1])
        for load in maximal_profiles(found)
    ], len(signings) * math.prod(map(len, loads))


def _uncolorable_by_loads(instance: WeightedInstance, memo: dict) -> tuple[int | None, int]:
    """Some signing (bit k is the sign of sorted edge k) under which no map
    is valid, or None; and the number of `_block_load` calls spent.

    On the rooted block-cut tree, a block that hangs from v gets its
    options on v (`_block_options`) from the saturated sums of the options
    of the blocks below its other vertices; only maximal loads matter, as
    a larger load only makes coloring harder.  A root is uncolorable iff
    one of its sums reaches its cap + 1 on both sides; the witness is the
    OR of the block bits recorded for each chosen option, edges elsewhere
    parallel.  `memo` holds blocks by their shape under an order-preserving
    relabelling (edges, caps, cut position, loads below); a hit spends no
    call.  A block with b edges costs 2^b x the product of its child option
    counts `_block_load` calls, so a 2-connected graph costs 2^|E|.
    """
    graph, caps = instance.graph, instance.caps
    edges = graph.sorted_edges
    below: list[list[dict]] = [[] for _ in range(graph.n)]  # options of the blocks at v
    roots = set(range(graph.n))
    decided = 0
    # ascending edges and vertices, so that the relabelling keeps the edge order
    for top, block, vertices in _biconnected_components(graph):
        local = {v: t for t, v in enumerate(vertices)}
        others = [v for v in vertices if v != top]
        roots.difference_update(others)
        sums = [_saturated_sums(below[v], caps[v]) for v in others]
        key = (
            tuple([(local[u], local[w]) for u, w in map(edges.__getitem__, block)]),
            tuple(map(caps.__getitem__, vertices)),
            local[top],
            tuple(map(tuple, sums)),
        )
        if key not in memo:
            memo[key], spent = _block_options(*key)
            decided += spent
        options = {}
        for load, twisted, choice in memo[key]:
            options[load] = sum(1 << block[t] for t in twisted)
            for sum_at, chosen in zip(sums, choice):
                options[load] |= sum_at[chosen]
        below[top].append(options)
    for v in sorted(roots):
        for (poor, rich), bits in _saturated_sums(below[v], caps[v]).items():
            if poor > caps[v][0] and rich > caps[v][1]:
                return bits, decided
    return None, decided


def _scan(instance: WeightedInstance, signings: Iterable[int]) -> CoverScan:
    """Decide each signing in turn (an int: bit k is the sign of sorted
    edge k) and stop at the first uncolorable one.

    Each signing is decided through the graph's `_Plan`.  Every leaf
    block's load is read from a table keyed by the signing's bits on the
    block's edges, filled by a search of the block the first time a key
    comes up.  A table entry is the load already packed into its cut
    vertex's field of one int: the poor and then the rich load, each in
    `width` bits, the bit length of (blocks at that cut vertex) * (j + 1).
    A load is at most cap + 1 <= j + 1, so the fields cannot overflow, and
    the sum of a signing's entries is its load vector on the core.  The
    core's verdict is then looked up in the memo under the key (packed
    loads, signing's bits on the core's edges), exact by `_Plan`'s lemma;
    only a miss builds the sign tuple (as a block miss does) and the
    lowered caps and searches the core.  Every scan memoises the core, so
    a repeated key costs no search.  Tables and memo live for this scan
    only.  The memo holds one bool per distinct key: at most the number
    of signings examined, and at most 2^(core edges) times the number of
    load vectors, the product over the cut vertices of (k (j + 1) + 1)^2
    for a cut vertex with k blocks.  A graph with no leaf block to split
    off is its own core, searched as `find_coloring` searches it.
    `nodes_expanded` counts the searches actually run: the core searches
    plus the searches that fill the tables.  The worst case is a split-off
    block so large that its keys never repeat: each of its signings then
    costs two or more searches of the block instead of one search of the
    graph.
    """
    graph = instance.graph
    m = len(graph.sorted_edges)
    plan = _plan(graph)
    core = plan.core
    core_mask = plan.core_mask
    cap0, cap1 = _caps(instance)
    fields: dict[int, tuple[int, int]] = {}  # cut vertex -> (shift, width)
    shift = 0
    for cut, count in plan.cuts:
        width = (count * (instance.params.j + 1)).bit_length()
        fields[cut] = (shift, width)
        shift += 2 * width
    blocks = [(mask, {}, (cut, ctx) + fields[cut]) for cut, mask, ctx in plan.blocks]
    memo: dict[int, bool] = {}
    examined = 0
    nodes_total = 0
    for bits in signings:
        examined += 1
        signs = None
        packed = 0
        for mask, table, block in blocks:
            load = table.get(bits & mask)
            if load is None:
                if signs is None:
                    signs = _sign_tuple(bits, m)
                cut, ctx, shift, width = block
                (poor, rich), nodes = _block_load(ctx, cut, signs, cap0, cap1)
                nodes_total += nodes
                load = table[bits & mask] = (poor << shift) | (rich << (shift + width))
            packed += load
        key = (packed << m) | (bits & core_mask)
        colorable = memo.get(key)
        if colorable is None:
            if signs is None:
                signs = _sign_tuple(bits, m)
            caps = (cap0, cap1)
            if fields:
                caps = (list(cap0), list(cap1))
                for cut, (shift, width) in fields.items():
                    low = (1 << width) - 1
                    caps[0][cut] -= (packed >> shift) & low
                    caps[1][cut] -= (packed >> (shift + width)) & low
            cmap, nodes = _solve(core, signs, caps)
            nodes_total += nodes
            colorable = memo[key] = cmap is not None
        if not colorable:
            return CoverScan(CoverSigning.from_bits(graph, bits), examined, nodes_total)
    return CoverScan(None, examined, nodes_total)


WINDOW_BITS = 12  # a window holds 2^12 signings, so each of its sets is 512 B


@lru_cache(maxsize=None)
def _low_signs(width: int) -> tuple[int, ...]:
    """Per edge k < width, the set of the numbers below 2**width whose bit
    k is set: the signings of a window under which edge k is twisted."""
    return tuple(  # 2^k clear, 2^k set, repeated through the window
        _repeat(((1 << (1 << k)) - 1) << (1 << k), 2 << k, 1 << (width - 1 - k))
        for k in range(width)
    )


class _Walk:
    """The map walk of `_lowest_uncolorable` on one instance.

    Each step places the vertex with the most placed neighbours (then the
    smaller degree, then the larger label), so each connected component is
    placed in one run: a part.  Per part, its order and, per depth, the
    vertices whose last neighbour is placed there, as (vertex, mask of its
    closed neighbourhood, its poor and rich caps, its low edges as
    (neighbour, conflict set when the choices differ, when they agree), its
    high edges as (neighbour, the edge's bit in the window number))."""

    __slots__ = ("n", "width", "windows", "full", "parts")

    def __init__(self, instance: WeightedInstance):
        graph = instance.graph
        adjacency, edge_index = graph.adjacency, graph.edge_index
        m = len(graph.sorted_edges)
        width = self.width = min(m, WINDOW_BITS)
        full = self.full = (1 << (1 << width)) - 1
        self.n, self.windows = graph.n, 1 << (m - width)
        self.parts: list[tuple[list[int], list[list]]] = []
        seen = dict.fromkeys(range(graph.n), 0)  # placed neighbours
        position = {}
        while seen:
            v = max(seen, key=lambda u: (seen[u], -len(adjacency[u]), u))
            if not seen.pop(v):  # no vertex left borders the placed ones
                self.parts.append(([], []))
            order, steps = self.parts[-1]
            position[v] = len(order)
            order.append(v)
            steps.append([])
            for u in adjacency[v]:
                if u in seen:
                    seen[u] += 1
        signs = _low_signs(width)
        for order, steps in self.parts:
            for v in order:
                (cap0, cap1), closed = instance.caps[v], (v, *adjacency[v])
                edges = [(u, edge_index[(u, v) if u < v else (v, u)]) for u in adjacency[v]]
                steps[max(map(position.__getitem__, closed))].append((
                    v, sum(1 << u for u in closed), (cap0, cap1),
                    [(u, signs[k], full ^ signs[k]) for u, k in edges if k < width],
                    [(u, k - width) for u, k in edges if k >= width],
                ))

    def uncolorable(self, window: int) -> tuple[int, int]:
        """The signings of `window` under which no map is valid, as a set
        whose bit r stands for signing (window << width) + r, and the
        placements spent.  The constraint of a vertex with at most 8
        neighbours is memoised for the window under its neighbours'
        choices relative to its own, all that it depends on."""
        full = self.full
        choice = [0] * self.n
        memo: list[dict[int, tuple[int, int]]] = [{} for _ in choice]
        uncolorable = nodes = 0
        for order, steps in self.parts:
            undecided = full ^ uncolorable
            last = len(order) - 1

            def descend(depth: int, mask: int, valid: int, valid_complement: int) -> None:
                nonlocal undecided, nodes
                v = order[depth]
                for x in (0, 1) if depth else (0,):
                    nodes += 1
                    choice[v] = x
                    placed = mask | (x << v)
                    mine, theirs = valid, valid_complement
                    for w, closed, caps, low, high in steps[depth]:
                        xw = choice[w]
                        # the choices around w relative to w's own: all its constraint needs
                        relative = (placed ^ -xw) & closed
                        keep = memo[w].get(relative)
                        if keep is None:
                            cap0, cap1 = caps
                            for u, shift in high:
                                if choice[u] ^ xw == (window >> shift) & 1:
                                    cap0 -= 1
                                    cap1 -= 1
                            # at_least[t]: the signings with at least t conflicts at w
                            top = min(max(cap0, cap1) + 1, len(low))
                            at_least = [full] + [0] * top
                            for u, differ, agree in low:
                                conflict = differ if choice[u] ^ xw else agree
                                for t in range(top, 0, -1):
                                    at_least[t] |= at_least[t - 1] & conflict
                            keep = (
                                full ^ at_least[max(cap0 + 1, 0)] if cap0 < top else full,
                                full ^ at_least[max(cap1 + 1, 0)] if cap1 < top else full,
                            )
                            if len(low) + len(high) <= 8:  # at most 2^8 keys of 1 KB
                                memo[w][relative] = keep
                        mine &= keep[xw]
                        theirs &= keep[1 - xw]
                        if not (mine | theirs) & undecided:
                            break
                    else:
                        if depth == last:
                            undecided &= ~(mine | theirs)
                        else:
                            descend(depth + 1, placed, mine, theirs)
                        if not undecided:
                            return

            descend(0, 0, undecided, undecided)
            uncolorable |= undecided
            if uncolorable == full:
                break
        return uncolorable, nodes


def _lowest_uncolorable(instance: WeightedInstance) -> tuple[int | None, int]:
    """The lowest signing (bit k is the sign of sorted edge k) under which
    no map is valid, or None; and the (vertex, choice) placements spent.

    Under map x, edge k = (u, w) conflicts exactly at the signings whose bit
    k equals x_u XOR x_w, for x and its complement alike, so the two are
    walked as one pair.  The signings go in ascending windows of 2^12; a
    window fixes the edges above bit 12 and holds its signings as sets of
    512 B.  Each connected component walks its map pairs depth first
    (`_Walk`): a vertex's constraint (the signings where its conflicts stay
    within its cap) is ANDed in once its last neighbour is placed, a branch
    whose sets miss every undecided signing is cut, and a complete map
    takes its signings out of the undecided set.  What is left is
    uncolorable.  Cost: up to 2^(n-1) map pairs per window and 2^(m-12)
    windows, up to the first with an uncolorable signing.  The worst case
    is a tree at caps (0, 0), where each signing has exactly one valid map
    pair, so every pair is walked in every window.
    """
    walk = _Walk(instance)
    nodes = 0
    for window in range(walk.windows):
        bad, spent = walk.uncolorable(window)
        nodes += spent
        if bad:
            return (window << walk.width) + (bad & -bad).bit_length() - 1, nodes
    return None, nodes


def colorable_all_covers(
    instance: WeightedInstance,
    signings: Iterable[CoverSigning] | None = None,
    max_edges: int = DEFAULT_ENUMERATION_CEILING,
) -> CoverScan:
    """Quantify colorability over the whole cover space.

    With `signings` omitted, `_lowest_uncolorable` decides every signing;
    more than `max_edges` edges raise ValueError.  The witness is the first
    uncolorable signing in binary-counter order (Parallel=0), so the
    lexicographically smallest, `signings_examined` its number + 1 (or
    2^|E|), and the whole-graph search must fail on it, else RuntimeError.
    `nodes_expanded` counts the walk's placements plus that search's nodes.
    A caller may instead supply its own stream of `CoverSigning`s of the
    instance's graph, such as one per symmetry class or a single one to
    cross-check; soundness is then the caller's contract.  `_scan` decides
    a stream one signing at a time, as a whole-graph search would, and
    counts the search nodes it spends.
    """
    graph = instance.graph
    m = len(graph.sorted_edges)
    if signings is not None:
        return _scan(instance, (_as_bits(graph, s) for s in signings))
    if m > max_edges:
        raise ValueError(
            f"enumeration ceiling exceeded: |E|={m} > {max_edges}; "
            "supply a symmetry-class iterator"
        )
    lowest, nodes = _lowest_uncolorable(instance)
    if lowest is None:
        return CoverScan(None, 1 << m, nodes)
    cmap, spent = _solve(_context(graph), _sign_tuple(lowest, m), _caps(instance))
    if cmap is not None:
        raise RuntimeError("internal error: the map walk and the solver disagree")
    return CoverScan(CoverSigning.from_bits(graph, lowest), lowest + 1, nodes + spent)


def _sample_bits(m: int, count: int, seed: int | str) -> Iterator[int]:
    """`count` draws of m random bits from random.Random(seed)."""
    return map(random.Random(seed).getrandbits, itertools.repeat(m, count))


def sample_covers(instance: WeightedInstance, count: int, seed: int | str) -> CoverScan:
    """Seeded random smoke test over the cover space: `_scan` over the
    `count` signings that `_sample_bits` draws, each one getrandbits(|E|)
    of random.Random(seed).

    A repeated signing, or one that repeats another's leaf-block loads
    and core signs, costs no search (`_scan` memoises the core), and
    `nodes_expanded` counts only the searches run.  Identical
    (instance, count, seed) always produces the identical result: the
    tables and the memo live for one scan only, so even `nodes_expanded`
    does not depend on earlier calls.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return _scan(instance, _sample_bits(len(instance.graph.sorted_edges), count, seed))
