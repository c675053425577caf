"""Top-level workflows: criticality certification and small-graph surveys.

An instance is critical when some cover signing defeats every coloring but
every proper subgraph is colorable for every signing.  Colorability only
gains from deleting edges, so single-edge deletions cover all proper
subgraphs once isolated vertices are handled separately: with two or more
vertices, an isolated vertex is itself uncolorable or leaves a
non-colorable proper subgraph with the full edge set, and a vertex with
caps (-1, -1) is a non-colorable proper subgraph.

`is_critical` decides one instance through `colorable_all_covers` (the
solver's map walk, or seeded draws) or, on a flag-path host, from the
loads of its block-cut tree (`solver._uncolorable_by_loads`).  The uniform
survey decides the graphs from the most edges down: a graph with a
colorable G + e is colorable, and the map walk decides each other graph.
The weighted survey quantifies over capacity functions as well, in bitsets
over a graph's capacity functions.  Both call the solver only to
cross-check criticals (the weighted survey only the maximal caps of each
witness group), and both read a critical's potential from a closed form
(`_whole_potential`).
"""

from __future__ import annotations

import itertools
import os
from contextlib import closing
from dataclasses import dataclass
from typing import Iterable, Iterator

from .constructions import (
    ConstructionSpec,
    edge_orbits,
    flag_path_instance,
    hard_cover_signing,
    reduced_cover_iterator,  # noqa: F401  (bench/workloads.py calls it through here)
    verify_counts,
)
from .model import (
    CoverSigning,
    DefectParams,
    Edge,
    SimpleGraph,
    WeightedInstance,
)
from .potential import _bit_positions, sparsity_test, subset_potential
from .solver import (
    DEFAULT_ENUMERATION_CEILING,
    _context,
    _lowest_uncolorable,
    _repeat,
    _sign_tuple,
    _solve,
    _uncolorable_by_loads,
    colorable_all_covers,
    find_coloring,
    sample_covers,
)

CRITICAL = "critical"
COLORABLE = "colorable"
NOT_CRITICAL = "not-critical"
UNREFUTED = "unrefuted"  # sampled runs cannot certify the universal claim

MODE_UNIFORM = "uniform"
MODE_WEIGHTED = "weighted"


@dataclass(frozen=True)
class Exhaustive:
    max_edges: int = DEFAULT_ENUMERATION_CEILING


@dataclass(frozen=True)
class Reduced:
    """Certify a flag-path host from block loads instead of signings.

    `spec` only names the edge orbits, one deleted edge per orbit.  For
    them to be sound it must describe the instance's graph exactly, and
    the flags on each base must agree in shape and in top and middle
    capacities; is_critical raises ValueError otherwise."""

    spec: ConstructionSpec


@dataclass(frozen=True)
class Sampled:
    count: int
    seed: int


Strategy = Exhaustive | Reduced | Sampled


@dataclass(frozen=True)
class CriticalityVerdict:
    verdict: str
    certifying: bool
    witness: CoverSigning | None
    failing_edge: Edge | None
    failing_vertex: int | None
    failing_witness: CoverSigning | None
    # signings; under Reduced the (block signing, child-option choice) pairs
    # decided, a memoised block counting 0
    covers_checked: int
    edges_checked: int
    nodes_expanded: int
    edge_orbit_map: tuple[tuple[Edge, ...], ...] | None
    potential_ok: bool | None
    solver_signings: int = 0  # signings handed to the solver


def in_guaranteed_range(params: DefectParams) -> bool:
    """Parameter range in which the sparsity and potential bounds are claimed."""
    return params.i in (1, 2) and params.j >= 2 * params.i


def _isolated_vertex(graph: SimpleGraph) -> int | None:
    """The first isolated vertex of a graph with n >= 2, else None: such a
    graph is not critical for any caps (see the module docstring)."""
    if graph.n >= 2:
        for v in range(graph.n):
            if graph.degree(v) == 0:
                return v
    return None


def _phase_covers(
    instance: WeightedInstance, strategy: Strategy, deleted: Edge | None, memo: dict | None
) -> tuple[CoverSigning | None, int, int, int]:
    """One colorability-for-all-covers phase: (witness, examined, signings
    solved, nodes).  Exhaustive and Reduced (the load DP, with the run's
    block `memo`) hand the solver only the witness, to cross-check; Sampled
    hands it every examined signing, and its deletion of edge k draws its
    signings from the seed "{seed}:{k}"."""
    inst = instance.without_edge(deleted) if deleted else instance
    if isinstance(strategy, Exhaustive):
        scan = colorable_all_covers(inst, max_edges=strategy.max_edges)
        solved = 0 if scan.colorable else 1
    elif isinstance(strategy, Reduced):
        bits, decided = _uncolorable_by_loads(inst, memo)
        if bits is None:
            return None, decided, 0, 0
        scan = colorable_all_covers(inst, signings=(CoverSigning.from_bits(inst.graph, bits),))
        if scan.colorable:
            raise RuntimeError("block loads and solver disagree on colorability")
        return scan.witness, decided, scan.signings_examined, scan.nodes_expanded
    elif isinstance(strategy, Sampled):
        seed = strategy.seed
        if deleted is not None:
            seed = f"{seed}:{instance.graph.edge_index[deleted]}"
        scan = sample_covers(inst, strategy.count, seed)
        solved = scan.signings_examined
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    return scan.witness, scan.signings_examined, solved, scan.nodes_expanded


def _check_deleted_edge(args) -> tuple[Edge, CoverSigning | None, int, int, int]:
    instance, strategy, edge, memo = args
    return (edge, *_phase_covers(instance, strategy, edge, memo))


def _deleted_edge_results(work: list, workers: int) -> Iterator[tuple]:
    """`_check_deleted_edge` over `work`, (instance, strategy, edge, memo)
    tuples, yielded in order.  The edges run in a process pool of
    min(workers, edges, CPUs) processes, or serially when that is 1; closing
    the iterator early cancels the edges that have not started."""
    pool_size = min(workers, len(work), os.cpu_count() or 1)
    if pool_size <= 1:
        yield from map(_check_deleted_edge, work)
        return
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        futures = [pool.submit(_check_deleted_edge, item) for item in work]
        try:
            for future in futures:
                yield future.result()
        finally:
            for future in futures:
                future.cancel()


def _check_reduced_spec(instance: WeightedInstance, spec: ConstructionSpec) -> None:
    """Raise ValueError unless `edge_orbits(spec)` are orbits of the instance."""
    graph, caps = instance.graph, instance.caps
    if len(spec.flags_by_base) != spec.m or any(
        f.base != base for base, flags in zip(spec.path, spec.flags_by_base) for f in flags
    ):
        raise ValueError("every flag must hang from the path vertex of its base")
    vertices = [*spec.path, *(v for f in spec.all_flags for v in (f.top, *f.middles))]
    edges = {*spec.path_edges, *(e for f in spec.all_flags for e in f.edges)}
    if sorted(vertices) != list(range(graph.n)) or edges != graph.edges:
        raise ValueError("the spec's path and flags are not the instance's graph")
    for base, flags in zip(spec.path, spec.flags_by_base):
        if (
            len({len(f.middles) for f in flags}) > 1
            or len({caps[f.top] for f in flags}) > 1
            or len({caps[u] for f in flags for u in f.middles}) > 1
        ):
            raise ValueError(
                f"flags on base {base} differ in shape or in top or middle capacities"
            )


def is_critical(
    instance: WeightedInstance, strategy: Strategy, workers: int = 1
) -> CriticalityVerdict:
    """Certify, refute, or (for sampled strategies) fail to refute criticality.

    Phase 1 looks for a signing with no valid coloring; phase 2 checks that
    deleting any single edge restores colorability for every signing, and
    stops at the first edge (in order) that does not.  Sampled runs never
    certify: a clean sampled pass yields the non-certifying UNREFUTED.

    An Exhaustive run decides G and each G - e by the map walk of
    `colorable_all_covers`, and the solver cross-checks each witness; a
    Sampled run hands every drawn signing to the solver.  Both spread phase
    2's edges over min(workers, edges, CPUs) processes.  A Reduced run
    decides G and the G - e of one deleted edge per automorphism orbit by
    the load DP (`_uncolorable_by_loads`), with one block memo for the
    run, and hands the solver only each uncolorable signing the DP
    rebuilds.  Its memo would not be shared across processes, so it runs
    phase 2 serially, and `workers` does not matter.
    """
    graph = instance.graph
    certifying = not isinstance(strategy, Sampled)
    orbit_map = memo = None
    edges_to_check = list(graph.sorted_edges)
    if isinstance(strategy, Reduced):
        _check_reduced_spec(instance, strategy.spec)
        orbit_map = edge_orbits(strategy.spec)
        edges_to_check = [orbit[0] for orbit in orbit_map]
        memo = {}  # the blocks the run has decided
        workers = 1

    def verdict(kind, edge=None, vertex=None, bad=None, potential_ok=None):
        # a refutation certifies even when its witnesses were sampled
        return CriticalityVerdict(
            kind, certifying or kind == NOT_CRITICAL, witness, edge, vertex, bad,
            covers, edges_checked, nodes, orbit_map, potential_ok, solved,
        )

    witness, covers, solved, nodes = _phase_covers(instance, strategy, None, memo)
    edges_checked = 0
    if witness is None:
        return verdict(COLORABLE)
    isolated = _isolated_vertex(graph)
    if isolated is not None:
        return verdict(NOT_CRITICAL, vertex=isolated)

    work = [(instance, strategy, e, memo) for e in edges_to_check]
    with closing(_deleted_edge_results(work, workers)) as results:
        for edge, bad, examined, edge_solved, edge_nodes in results:
            covers += examined
            solved += edge_solved
            nodes += edge_nodes
            edges_checked += 1
            if bad is not None:
                return verdict(NOT_CRITICAL, edge=edge, bad=bad)

    if not certifying:
        return verdict(UNREFUTED)
    rho = subset_potential(instance, range(graph.n))
    return verdict(CRITICAL, potential_ok=rho <= instance.params.i - instance.params.j - 1)


# ---------------------------------------------------------------------------
# Small-graph enumeration up to isomorphism
# ---------------------------------------------------------------------------

_MAX_ISO_N = 7  # 1,044 classes; n = 8 has 12,346


def _vertex_pairs(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _adjacency(n: int, mask: int, pairs: list[Edge]) -> list[int]:
    """Each vertex's neighbours in the graph of `mask`, as a bitmask."""
    adjacent = [0] * n
    for k, (u, v) in enumerate(pairs):
        if (mask >> k) & 1:
            adjacent[u] |= 1 << v
            adjacent[v] |= 1 << u
    return adjacent


def _canonical_form(
    n: int, mask: int, pairs: list[Edge], pair_idx: dict[Edge, int]
) -> tuple[int, list[tuple[int, ...]]]:
    """A graph's canonical mask and the automorphisms of the canonical graph.

    The canonical mask is the smallest mask over the relabellings that sort
    the vertices by non-increasing degree.  Pair (a, b) has a larger bit
    than every pair (a', b') with a' < a, so the labels are chosen from n - 1
    down to 0: choosing label a fixes row a (the bits of the pairs (a, b),
    b > a), and a branch whose row exceeds the smallest row found at that
    label so far is cut.  The search keeps every relabelling that reaches
    the minimum.  An automorphism of the canonical graph keeps degrees, so
    the minimisers are exactly the automorphisms composed with any one of
    them, the first: a minimiser that puts vertex w at label l gives the
    automorphism sending l to the first minimiser's label of w, and the
    minimisers give every automorphism once.
    """
    adjacent = _adjacency(n, mask, pairs)
    degrees = [a.bit_count() for a in adjacent]
    candidates = [
        [v for v in range(n) if degrees[v] == d] for d in sorted(degrees, reverse=True)
    ]
    at = [0] * n  # at[label] = vertex
    best = [-1] * n  # best[label] = the smallest row at label so far
    minimisers: list[tuple[int, ...]] = []

    def descend(label: int, used: int) -> None:
        if label < 0:
            minimisers.append(tuple(at))
            return
        for v in candidates[label]:
            if (used >> v) & 1:
                continue
            row, neighbours = 0, adjacent[v]
            for b in range(n - 1, label, -1):
                row = (row << 1) | ((neighbours >> at[b]) & 1)
            if row > best[label] >= 0:
                continue
            if row < best[label]:
                best[:label] = [-1] * label
                minimisers.clear()
            best[label] = row
            at[label] = v
            descend(label - 1, used | (1 << v))

    descend(n - 1, 0)
    canonical = sum(best[a] << pair_idx[(a, a + 1)] for a in range(n - 1))
    tau = [0] * n
    for label, v in enumerate(minimisers[0]):
        tau[v] = label
    return canonical, [tuple(map(tau.__getitem__, at)) for at in minimisers]


def _vertex_labels(adjacent: list[int]) -> list[tuple[int, int, int]]:
    """Each vertex's (degree, sum of its neighbours' degrees, edges among its
    neighbours).  An isomorphism maps every vertex to one with the same
    label, so the sorted labels do not depend on the vertex numbering."""
    degrees = [a.bit_count() for a in adjacent]
    labels = []
    for a, degree in zip(adjacent, degrees):
        total = among = 0
        rest = a
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            total += degrees[w]
            among += (a & adjacent[w]).bit_count()
        labels.append((degree, total, among // 2))
    return labels


def _isomorphic(
    adjacent: list[int], labels: list, other: list[int], other_labels: list
) -> bool:
    """Whether some bijection that keeps the `_vertex_labels` maps the graph
    with adjacency masks `adjacent` onto `other`.  Vertices 0, 1, ... are
    mapped in turn, and a choice must match the adjacency of the image to
    the images of every vertex mapped before; the search backtracks over
    every choice, so the answer is exact."""
    n = len(adjacent)
    image = [0] * n

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        need = 0
        for u in range(v):
            if (adjacent[v] >> u) & 1:
                need |= 1 << image[u]
        for w in range(n):
            if (used >> w) & 1 or other_labels[w] != labels[v] or other[w] & used != need:
                continue
            image[v] = w
            if extend(v + 1, used | (1 << w)):
                return True
        return False

    return extend(0, 0)


def _iso_levels(
    n: int, max_n: int = _MAX_ISO_N
) -> Iterator[dict[int, tuple[set[int], list]]]:
    """The isomorphism classes of graphs on n vertices, one edge count at a
    time: for k = 0, 1, ..., C(n, 2), a dict from each canonical mask with k
    edges (`_canonical_form`) to (its parents, the automorphisms of its
    canonical graph).  The parents are canonical masks with k - 1 edges.

    The classes grow by augmentation (McKay, "Isomorph-free exhaustive
    generation", 1998): every graph with k + 1 edges is a graph with k
    edges plus one non-edge.  Non-edges in one orbit of the automorphism
    group give isomorphic children, so only one child per orbit is made.
    A child whose labelled mask was already made in this level has its
    class.  Otherwise it costs one invariant, its sorted `_vertex_labels`,
    and an exact test (`_isomorphic`) against each class of the level that
    has the same invariant; `_canonical_form` runs only when none matches,
    so once per class, on the first child found in it.  Up to n = 7 no two
    classes share the invariant, so a merged child costs one test; at n = 8,
    883 of 97,514 tests fail.  Each child records the class it grew from,
    and since every (G - e, e) step is taken up to isomorphism, a class's
    parents are exactly the canonical masks of its G - e.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n > max_n:
        raise ValueError(f"isomorphism enumeration ceiling exceeded: n={n} > {max_n}")
    pairs = _vertex_pairs(n)
    pair_idx = {e: k for k, e in enumerate(pairs)}
    _, automorphisms = _canonical_form(n, 0, pairs, pair_idx)
    level = {0: (set(), automorphisms)}
    while level:
        yield level
        grown: dict[int, tuple[set[int], list]] = {}
        class_of: dict[int, int] = {}  # labelled child mask -> canonical mask
        # sorted vertex labels -> (adjacency, labels, canonical mask) per class
        buckets: dict[tuple, list[tuple[list[int], list, int]]] = {}
        for mask, (_, automorphisms) in level.items():
            adjacent = _adjacency(n, mask, pairs)
            seen = mask
            for k, (u, v) in enumerate(pairs):
                if (seen >> k) & 1:
                    continue
                for alpha in automorphisms:
                    pu, pv = alpha[u], alpha[v]
                    seen |= 1 << pair_idx[(pu, pv) if pu < pv else (pv, pu)]
                child = mask | (1 << k)
                canonical = class_of.get(child)
                if canonical is None:
                    child_adjacent = adjacent.copy()
                    child_adjacent[u] |= 1 << v
                    child_adjacent[v] |= 1 << u
                    labels = _vertex_labels(child_adjacent)
                    bucket = buckets.setdefault(tuple(sorted(labels)), [])
                    for other, other_labels, canonical in bucket:
                        if _isomorphic(child_adjacent, labels, other, other_labels):
                            break
                    else:
                        canonical, child_automorphisms = _canonical_form(n, child, pairs, pair_idx)
                        bucket.append((child_adjacent, labels, canonical))
                        grown[canonical] = (set(), child_automorphisms)
                    class_of[child] = canonical
                grown[canonical][0].add(mask)
        level = grown


def _graph_of(n: int, mask: int, pairs: list[Edge]) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1])


def graphs_up_to_iso(n: int) -> list[SimpleGraph]:
    """All graphs on n vertices up to isomorphism, in ascending order of
    their canonical adjacency masks (`_canonical_form`), each with exactly
    the edges of its canonical mask; grown by `_iso_levels`."""
    pairs = _vertex_pairs(n)
    masks = sorted(mask for level in _iso_levels(n) for mask in level)
    return [_graph_of(n, mask, pairs) for mask in masks]


# ---------------------------------------------------------------------------
# Critical-pair enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalEntry:
    edges: tuple[Edge, ...]
    caps: tuple[tuple[int, int], ...]
    rho: int


@dataclass(frozen=True)
class EnumerationReport:
    params: DefectParams
    n: int
    mode: str
    graphs_examined: int
    pairs_examined: int
    criticals: tuple[CriticalEntry, ...]
    min_edges: int | None
    bound_min_edges: int  # ceil(((2i+1)n + j - i + 1) / (i+1))
    potential_violations: tuple[CriticalEntry, ...]
    sparsity_violations: tuple[CriticalEntry, ...]

    @property
    def bound_satisfied(self) -> bool | None:
        """None without criticals, and in weighted mode: the bound holds
        only with capacities (i, j) everywhere."""
        if self.min_edges is None or self.mode != MODE_UNIFORM:
            return None
        return self.min_edges >= self.bound_min_edges


class _WeightedTables:
    """Bitsets over the capacity functions of one graph that decide which
    of them make it critical.

    With K = (i + 2)(j + 2) caps per vertex (`caps`, ascending), bit r of a
    set stands for the capacity function of rank r: vertex 0 is its most
    significant base-K digit, so ascending rank is
    itertools.product(caps, repeat=n) order.  at_least[v][b][t] holds the
    capacity functions whose side-b cap at v (0 poor, 1 rich) is at least
    t, for t = 0..deg(v); each is a periodic pattern in digit v.  Under a
    map x and a signing s, vertex v with t conflicts is within its cap
    exactly on at_least[v][x_v][t], so the AND over the vertices is where
    x is valid, and its OR over the maps is where s is colorable.  Map x
    and its complement have the same conflicts, so one count per vertex
    serves both.

    A set holds K^n bits: 2.6 KB at n = 4 and 31 KB at n = 5 for (1, 2).
    The witness record adds at most one set per signing.

    With n >= 2 a graph with an isolated vertex is skipped, exactly: none
    of its pairs is critical (see the module docstring).  A cap (-1, -1)
    needs no skip.  With n >= 2 and no isolated vertex the graph has an
    edge, and every G - e keeps the vertex with that cap, which cannot be
    colored alone, so phase 2 drops the pair.  At n = 1 the only proper
    subgraph is the empty graph, and ((-1, -1),) is critical.

    A signing uncolorable under caps d is uncolorable under every c <= d
    (pointwise), since a map valid under c stays valid under d.  So the
    solver need not cross-check every critical: `maximal` keeps those with
    no critical of the same witness one step above (one cap raised by one
    at one vertex).  A dropped critical climbs by such steps, through
    criticals of its witness, to a kept one, where a search that finds no
    map shows there is none below it either.  The kept caps are exactly
    the maximal ones of each witness group, as a group is convex: caps b
    between criticals c <= d of witness w are critical with witness w,
    since w stays uncolorable below d, every G - e stays colorable above
    c, and a signing below w uncolorable under b would be so under c.
    """

    def __init__(self, graph: SimpleGraph, params: DefectParams):
        n, edges = graph.n, graph.sorted_edges
        caps = [(c1, c2) for c1 in range(-1, params.i + 1) for c2 in range(-1, params.j + 1)]
        size = len(caps)
        self.caps = caps
        self.n = n
        self.everything = (1 << size**n) - 1
        self.at_least = []
        for v in range(n):
            block = size ** (n - 1 - v)  # a run of one value of digit v
            ones = (1 << block) - 1
            self.at_least.append([
                [
                    _repeat(
                        sum(ones << (k * block) for k, cap in enumerate(caps) if cap[b] >= t),
                        size * block,
                        size**v,
                    )
                    for t in range(graph.degree(v) + 1)
                ]
                for b in (0, 1)
            ])
        self.m = len(edges)
        self.incident = [sum(1 << k for k, e in enumerate(edges) if v in e) for v in range(n)]
        # the maps with x_0 = 0: the edges they cut, and each vertex's
        # tables for the map and for its complement
        self.maps = [
            (
                sum(1 << k for k, (u, w) in enumerate(edges) if ((x >> u) ^ (x >> w)) & 1),
                [(side[(x >> v) & 1], side[(~x >> v) & 1]) for v, side in enumerate(self.at_least)],
            )
            for x in range(0, 1 << n, 2)
        ]
        self.skip = n == 0 or _isolated_vertex(graph) is not None

    def _uncolorable(self, signing: int, missing: int, incident: list[int]) -> int:
        """The capacity functions in `missing` under which no map is valid
        for `signing`, each vertex counting its conflicts on `incident`."""
        for cut, tables in self.maps:
            conflicts = ~(signing ^ cut)
            valid = valid_complement = missing
            for (mine, complement), edges in zip(tables, incident):
                t = (conflicts & edges).bit_count()
                valid &= mine[t]
                valid_complement &= complement[t]
                if not (valid or valid_complement):
                    break
            missing ^= valid | valid_complement
            if not missing:
                break
        return missing

    def criticals(self) -> Iterator[tuple[int, int]]:
        """The ranks of the capacity functions under which the graph is
        critical, ascending, each with the number of its smallest
        uncolorable signing: the pairs on which is_critical(...,
        Exhaustive()) says CRITICAL, with its witness.

        Phase 1 walks the signings upward, and each one records the
        capacity functions it is the first to make uncolorable.  Phase 2
        keeps those under which every G - e is colorable: for edge k, the
        signings with bit k clear, e's conflicts left out.  It stops once
        none is kept."""
        if self.skip:
            return
        m, incident = self.m, self.incident
        first: list[tuple[int, int]] = []  # (signing, what it first makes uncolorable)
        uncolorable = 0
        for s in range(1 << m):
            new = self._uncolorable(s, self.everything ^ uncolorable, incident)
            if new:
                first.append((s, new))
                uncolorable |= new
        critical = uncolorable
        for k in range(m):
            kept = [edges & ~(1 << k) for edges in incident]
            for s in range(1 << m):
                if not (s >> k) & 1:
                    critical ^= self._uncolorable(s, critical, kept)
                    if not critical:
                        return
        witness = {r: s for s, new in first for r in _bit_positions(new & critical)}
        yield from sorted(witness.items())

    def maximal(self, found: list[tuple[int, int]]) -> Iterator[tuple[int, int]]:
        """The pairs of `found` (as `criticals` yields them) with no pair
        of `found` one step above them with the same witness: one cap
        raised by one at one vertex, rank + K^(n-1-v) for the rich cap and
        rank + (j+2) K^(n-1-v) for the poor one.  Digit v of a rank is
        (c1 + 1)(j + 2) + c2 + 1."""
        size, j = len(self.caps), self.caps[-1][1]
        poor_top = size - (j + 2)  # the digits with c1 = i
        steps = [size**v for v in range(self.n)]  # K^(n-1-v), from v = n - 1 down
        witness_of = dict(found).get
        for r, w in found:
            for rich in steps:
                digit = r // rich % size
                if (
                    digit % (j + 2) <= j and witness_of(r + rich) == w
                    or digit < poor_top and witness_of(r + (j + 2) * rich) == w
                ):
                    break
            else:
                yield r, w


def _whole_potential(
    params: DefectParams, caps: tuple[tuple[int, int], ...], m: int
) -> int:
    """rho of the whole vertex set of an m-edge graph under `caps`: the sum
    of the vertex potentials i - j + 1 + c1 + c2 minus (i + 1) per edge,
    which is `subset_potential(instance, range(n))` with no instance."""
    return (
        sum(map(sum, caps))
        + len(caps) * (params.i - params.j + 1)
        - (params.i + 1) * m
    )


def enumerate_critical(
    params: DefectParams, n: int, mode: str = MODE_UNIFORM
) -> EnumerationReport:
    """Survey all n-vertex graphs up to isomorphism for critical instances.

    Uniform mode fixes capacities at (i, j) everywhere and checks, inside
    the claimed parameter range, the minimum-edge bound and that no sparse
    graph turns out non-colorable.  `_iso_levels` records each class's
    parents, the classes of its G - e, and the classes are decided from the
    most edges down.  Deleting an edge never makes a signing harder to
    color, so a class that is a recorded parent of a colorable class is
    colorable, with no walk; the solver's map walk (`_lowest_uncolorable`)
    decides every other class.  An uncolorable class has no colorable
    child, so each one is walked and has its lowest uncolorable signing.
    It is critical iff none of its parents is uncolorable and (with
    n >= 2) it has no isolated vertex.  Weighted mode sweeps every capacity
    function (n <= 5) and records any critical pair whose potential exceeds
    the i - j - 1 ceiling, deciding each graph's pairs at once
    (`_WeightedTables`); the graphs with an isolated vertex are skipped,
    exactly, when n >= 2, but `pairs_examined` counts their pairs.  In both
    modes the solver must fail to color a critical's smallest uncolorable
    signing.  Weighted, it searches only the criticals with no critical of
    the same witness one step above (`_WeightedTables.maximal`): lowering a
    cap never makes an uncolorable signing colorable, so a search that
    finds no map at the top of such a chain covers the whole chain.  The
    searches run on the graph's search context, built once per graph, with
    each witness's signs built once.  A critical's rho is that of its whole
    vertex set (`_whole_potential`).
    Criticals are listed in graphs_up_to_iso order (then, weighted, in
    itertools.product order of the caps).
    """
    if mode not in (MODE_UNIFORM, MODE_WEIGHTED):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_WEIGHTED and n > 5:
        raise ValueError("weighted enumeration supported for n <= 5")

    i, j = params.i, params.j
    bound_min_edges = -(-((2 * i + 1) * n + j - i + 1) // (i + 1))
    ceiling = i - j - 1

    criticals: list[CriticalEntry] = []
    sparsity_violations: list[CriticalEntry] = []
    pairs_examined = 0

    if mode == MODE_UNIFORM:
        pairs = _vertex_pairs(n)
        parents_of = {
            mask: parents for level in _iso_levels(n) for mask, (parents, _) in level.items()
        }
        # Most edges first (the levels ascend), so every class whose recorded
        # parents include G is decided before G.
        uncolorable: dict[int, tuple[WeightedInstance, int]] = {}
        has_colorable_child: set[int] = set()
        for mask in reversed(parents_of):
            if mask not in has_colorable_child:
                instance = WeightedInstance.uniform(_graph_of(n, mask, pairs), params)
                lowest, _ = _lowest_uncolorable(instance)
                if lowest is not None:
                    uncolorable[mask] = instance, lowest
                    continue
            # G is colorable, and so is every G - e
            has_colorable_child.update(parents_of[mask])
        graphs_examined = pairs_examined = len(parents_of)
        caps = ((i, j),) * n
        for mask, (instance, lowest) in sorted(uncolorable.items()):
            graph = instance.graph
            critical = (
                uncolorable.keys().isdisjoint(parents_of[mask]) and _isolated_vertex(graph) is None
            )
            if critical:
                witness = CoverSigning.from_bits(graph, lowest)
                if find_coloring(instance, witness) is not None:
                    raise RuntimeError("map walk and solver disagree on colorability")
            sparse_bad = in_guaranteed_range(params) and sparsity_test(graph, params).sparse
            if not (critical or sparse_bad):
                continue
            entry = CriticalEntry(
                graph.sorted_edges, caps, _whole_potential(params, caps, graph.edge_count())
            )
            if sparse_bad:
                sparsity_violations.append(entry)
            if critical:
                criticals.append(entry)
    else:
        graphs = graphs_up_to_iso(n)
        graphs_examined = len(graphs)
        for graph in graphs:
            tables = _WeightedTables(graph, params)
            pairs_examined += len(tables.caps) ** n
            ctx, m = _context(graph), tables.m
            signs: dict[int, tuple[int, ...]] = {}  # many criticals share a witness
            found = list(tables.criticals())
            # rank r is the caps of head[r // low] followed by those of tail[r % low]
            low = len(tables.caps) ** (n // 2)
            head = list(itertools.product(tables.caps, repeat=n - n // 2))
            tail = list(itertools.product(tables.caps, repeat=n // 2))
            caps_of = {r: head[r // low] + tail[r % low] for r, _ in found}
            for caps in caps_of.values():
                rho = _whole_potential(params, caps, m)
                criticals.append(CriticalEntry(graph.sorted_edges, caps, rho))
            for r, witness in tables.maximal(found):
                if witness not in signs:
                    signs[witness] = _sign_tuple(witness, m)
                poor, rich = zip(*caps_of[r])  # n >= 1: n = 0 yields nothing
                if _solve(ctx, signs[witness], (poor, rich))[0] is not None:
                    raise RuntimeError("defect bitsets and solver disagree on colorability")

    potential_violations = [
        e for e in criticals if in_guaranteed_range(params) and e.rho > ceiling
    ]
    min_edges = min((len(e.edges) for e in criticals), default=None)
    return EnumerationReport(
        params=params,
        n=n,
        mode=mode,
        graphs_examined=graphs_examined,
        pairs_examined=pairs_examined,
        criticals=tuple(criticals),
        min_edges=min_edges,
        bound_min_edges=bound_min_edges,
        potential_violations=tuple(potential_violations),
        sparsity_violations=tuple(sparsity_violations),
    )


# ---------------------------------------------------------------------------
# Sharpness suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharpnessEntry:
    i: int
    j: int
    m: int
    counts_ok: bool
    uncolorable: bool
    criticality: str | None
    potential_ok: bool | None = None

    @property
    def ok(self) -> bool:
        return (
            self.counts_ok
            and self.uncolorable
            and self.criticality in (None, CRITICAL)
            and self.potential_ok in (None, True)
        )


def verify_sharpness_suite(
    pairs: Iterable[tuple[int, int]],
    ms: Iterable[int],
    criticality: Iterable[tuple[int, int, int]] = (),
) -> tuple[SharpnessEntry, ...]:
    """A tuple of one `SharpnessEntry` per (i, j) x m, in that order: check
    size identities and that the hard cover is uncolorable, decided by
    `colorable_all_covers` through the flags' load tables; optionally
    certify criticality (reduced strategy) for the listed (i, j, m) triples.
    A triple outside `pairs` x `ms` would never be certified, so it raises
    ValueError before any work is done."""
    pairs = tuple((i, j) for i, j in pairs)
    ms = tuple(ms)
    want_critical = set(criticality)
    for i, j, m in sorted(want_critical):
        if (i, j) not in pairs or m not in ms:
            raise ValueError(f"criticality triple {i},{j},{m} is outside pairs x ms")
    entries = []
    for (i, j) in pairs:
        params = DefectParams(i, j)
        for m in ms:
            counts_ok = verify_counts(params, m).all_ok
            instance, spec = flag_path_instance(params, m)
            signing = hard_cover_signing(spec)
            uncolorable = not colorable_all_covers(instance, signings=(signing,)).colorable
            crit: str | None = None
            potential_ok: bool | None = None
            if (i, j, m) in want_critical:
                verdict = is_critical(instance, Reduced(spec))
                crit = verdict.verdict
                potential_ok = verdict.potential_ok
            entries.append(
                SharpnessEntry(i, j, m, counts_ok, uncolorable, crit, potential_ok)
            )
    return tuple(entries)


def sampled_edge_deletion_sweep(
    instance: WeightedInstance,
    count: int,
    seed: int,
    workers: int = 1,
) -> tuple[tuple[Edge, CoverSigning | None], ...]:
    """Run sample_covers on every single-edge deletion of the instance.

    Edge k draws from the seed "{seed}:{k}", so the sweep is reproducible
    edge by edge, independent of worker count, and no edge shares its
    stream with another edge under a neighbouring seed.
    """
    strategy = Sampled(count, seed)
    work = [(instance, strategy, e, None) for e in instance.graph.sorted_edges]
    return tuple((edge, bad) for edge, bad, *_ in _deleted_edge_results(work, workers))
