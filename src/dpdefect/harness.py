"""Top-level workflows: criticality certification and small-graph surveys.

An instance is critical when some cover signing defeats every coloring but
every proper subgraph is colorable for every signing.  Colorability only
gains from deleting edges, so single-edge deletions cover all proper
subgraphs once isolated vertices are handled separately (an instance with
two or more vertices and an isolated vertex is never critical: either that
vertex alone is uncolorable, or removing it leaves a non-colorable proper
subgraph with the full edge set).
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Iterable, Iterator

from .constructions import (
    ConstructionSpec,
    FlagSpec,
    Profile,
    edge_orbits,
    flag_path_instance,
    flag_profiles,
    hard_cover_signing,
    maximal_profiles,
    reduced_cover_iterator,  # noqa: F401  (bench/workloads.py calls it through here)
    verify_counts,
)
from .model import (
    CapacityFunction,
    CoverSigning,
    DefectParams,
    Edge,
    SimpleGraph,
    WeightedInstance,
)
from .potential import sparsity_test, subset_potential
from .solver import (
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
    max_edges: int = 16


@dataclass(frozen=True)
class Reduced:
    """Certify a flag-path host from flag profiles instead of signings.

    `spec` must describe the instance's graph exactly, and the flags on
    each base must agree in shape and in top and middle capacities;
    is_critical raises ValueError otherwise.  Base capacities may differ.
    """

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
    covers_checked: int  # signings, or profile combinations under Reduced
    edges_checked: int
    nodes_expanded: int
    edge_orbit_map: tuple[tuple[Edge, ...], ...] | None
    potential_ok: bool | None
    solver_signings: int = 0  # signings handed to the solver


def in_guaranteed_range(params: DefectParams) -> bool:
    """Parameter range in which the sparsity and potential bounds are claimed."""
    return params.i in (1, 2) and params.j >= 2 * params.i


def _phase_covers(
    instance: WeightedInstance, strategy: Strategy, deleted: Edge | None
) -> tuple[CoverSigning | None, int, int, int]:
    """One colorability-for-all-covers phase: (witness, examined, signings
    solved, nodes); every examined signing goes to the solver.  A sampled
    deletion of edge k draws its signings from the seed "{seed}:{k}"."""
    inst = instance.without_edge(deleted) if deleted else instance
    if isinstance(strategy, Exhaustive):
        scan = colorable_all_covers(inst, max_edges=strategy.max_edges)
    elif isinstance(strategy, Sampled):
        seed = strategy.seed
        if deleted is not None:
            seed = f"{seed}:{instance.graph.edge_index[deleted]}"
        scan = sample_covers(inst, strategy.count, seed)
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    return scan.witness, scan.signings_examined, scan.signings_examined, scan.nodes_expanded


def _check_deleted_edge(args) -> tuple[Edge, CoverSigning | None, int, int, int]:
    instance, strategy, edge = args
    return (edge, *_phase_covers(instance, strategy, edge))


def _deleted_edge_results(work: list, workers: int) -> Iterator[tuple]:
    """`_check_deleted_edge` over `work`, yielded in order.  The edges run in
    a process pool of min(workers, edges, CPUs) processes, or serially when
    that is 1; closing the iterator early cancels the edges that have not
    started."""
    pool_size = min(workers, len(work), os.cpu_count() or 1)
    if pool_size <= 1:
        yield from map(_check_deleted_edge, work)
        return
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        futures = [pool.submit(_check_deleted_edge, item) for item in work]
        try:
            for future in futures:
                yield future.result()
        finally:
            for future in futures:
                future.cancel()


def _check_reduced_spec(instance: WeightedInstance, spec: ConstructionSpec) -> None:
    """Raise ValueError unless flag profiles decide this instance exactly."""
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


class _FlagProfiles:
    """Colorability of a flag-path host, and of the host minus one edge,
    for every signing at once.

    Once every base has a choice, each flag puts at least its profile on
    its base (see `flag_profiles`), and the flags on a base add up to a
    load.  A signing is colorable iff some choice along the path keeps
    every base within its capacity after its path conflicts and its load.
    A larger load only makes that harder, so each base needs only the
    loads summed from its flags' maximal profiles; intact flags on a base
    are interchangeable, so k of them with two maximal profiles give k+1.
    """

    def __init__(self, instance: WeightedInstance, spec: ConstructionSpec):
        _check_reduced_spec(instance, spec)
        self.instance = instance
        self.spec = spec
        self.caps = [instance.caps[v] for v in spec.path]
        # the first flag stands for its base: all agree in shape and caps
        self.intact = [
            self._options(flags[0], None) if flags else [] for flags in spec.flags_by_base
        ]

    def _options(
        self, flag: FlagSpec, deleted: Edge | None
    ) -> list[tuple[Profile, tuple[int, ...]]]:
        profiles = flag_profiles(flag, self.instance.caps, deleted)
        return [(p, profiles[p]) for p in maximal_profiles(profiles)]

    def _loads(self, b: int, deleted: Edge | None) -> dict[tuple[int, int], list]:
        """Maximal loads on base b, each with the (flag, profile, signs) of
        every flag there that make it up.  A load above a capacity is cut
        to capacity + 1, which fails just the same."""
        flags = self.spec.flags_by_base[b]
        intact = [f for f in flags if deleted not in f.edges]
        damaged = [
            [(f, p, signs) for p, signs in self._options(f, deleted)]
            for f in flags if deleted in f.edges
        ]
        cap = self.caps[b]
        loads: dict[tuple[int, int], list] = {}
        for hurt in itertools.product(*damaged):
            for multiset in itertools.combinations_with_replacement(
                self.intact[b], len(intact)
            ):
                picked = [*hurt, *((f, p, s) for f, (p, s) in zip(intact, multiset))]
                load = tuple(
                    min(sum(p[x] for _, p, _ in picked), cap[x] + 1) for x in (0, 1)
                )
                loads.setdefault(load, picked)
        return {load: loads[load] for load in maximal_profiles(loads)}

    def uncolorable(self, deleted: Edge | None) -> tuple[CoverSigning | None, int]:
        """An uncolorable signing of the host minus `deleted` (the first in
        path-signing then load order), or None; and the number of (path
        signing, loads) combinations decided."""
        m = self.spec.m
        path = [(e, k, k + 1) for k, e in enumerate(self.spec.path_edges) if e != deleted]
        options = [list(self._loads(b, deleted).items()) for b in range(m)]
        decided = 0
        for signs in range(1 << len(path)):
            # per path map: each base's choice and the room its path conflicts leave
            rows = []
            for x in range(1 << m):
                room = [self.caps[b][(x >> b) & 1] for b in range(m)]
                for k, (_, a, c) in enumerate(path):
                    if ((x >> a) ^ (x >> c)) & 1 == (signs >> k) & 1:
                        room[a] -= 1
                        room[c] -= 1
                rows.append([((x >> b) & 1, room[b]) for b in range(m)])
            for combo in itertools.product(*options):
                decided += 1
                if not any(
                    all(load[x] <= r for (x, r), (load, _) in zip(row, combo))
                    for row in rows
                ):
                    return self._signing(deleted, path, signs, combo), decided
        return None, decided

    def _signing(self, deleted, path, signs, combo) -> CoverSigning:
        """The signing a path signing and a load per base stand for."""
        table = {e: (signs >> k) & 1 for k, (e, _, _) in enumerate(path)}
        for _, picked in combo:
            for flag, _, flag_signs in picked:
                table.update(zip((e for e in flag.edges if e != deleted), flag_signs))
        graph = self.instance.graph
        return CoverSigning.from_dict(
            graph if deleted is None else graph.without_edge(deleted), table
        )

    def phase(self, deleted: Edge | None) -> tuple[CoverSigning | None, int, int, int]:
        """Like `_phase_covers`: the solver only cross-checks the witness."""
        witness, decided = self.uncolorable(deleted)
        if witness is None:
            return None, decided, 0, 0
        inst = self.instance if deleted is None else self.instance.without_edge(deleted)
        scan = colorable_all_covers(inst, signings=(witness,))
        if scan.colorable:
            raise RuntimeError("flag profiles and solver disagree on colorability")
        return witness, decided, scan.signings_examined, scan.nodes_expanded


def is_critical(
    instance: WeightedInstance, strategy: Strategy, workers: int = 1
) -> CriticalityVerdict:
    """Certify, refute, or (for sampled strategies) fail to refute criticality.

    Phase 1 looks for a signing with no valid coloring; phase 2 checks that
    deleting any single edge restores colorability for every signing, and
    stops at the first edge (in order) that does not.  Sampled runs never
    certify: a clean sampled pass yields the non-certifying UNREFUTED.

    Exhaustive and Sampled runs hand signings to the solver, and spread
    phase 2's edges over min(workers, edges, CPUs) processes.  A Reduced run
    decides both phases from flag profiles: the fewest conflicts each flag
    can put on its base, for a poor and a rich base, with its top and
    middles valid.  It tries every path signing with every maximal load per
    base; a damaged flag gets the profiles of its remaining edges, and a
    deleted path edge splits the path.  Phase 2 visits one edge per
    automorphism orbit.  The solver only cross-checks each uncolorable
    signing the profiles rebuild, and `workers` does not matter.
    """
    graph = instance.graph
    certifying = not isinstance(strategy, Sampled)
    if isinstance(strategy, Reduced):
        orbit_map = edge_orbits(strategy.spec)
        edges_to_check: list[Edge] = [orbit[0] for orbit in orbit_map]
        phase = _FlagProfiles(instance, strategy.spec).phase
    else:
        orbit_map = None
        edges_to_check = list(graph.sorted_edges)

        def phase(deleted):
            return _phase_covers(instance, strategy, deleted)

    witness, covers, solved, nodes = phase(None)
    if witness is None:
        return CriticalityVerdict(
            COLORABLE, certifying, None, None, None, None,
            covers, 0, nodes, orbit_map, None, solved,
        )

    if graph.n >= 2:
        for v in range(graph.n):
            if graph.degree(v) == 0:
                # Isolated vertex: {v} or G - v is a non-colorable proper subgraph.
                return CriticalityVerdict(
                    NOT_CRITICAL, True, witness, None, v, None,
                    covers, 0, nodes, orbit_map, None, solved,
                )

    if isinstance(strategy, Reduced):
        results = ((e, *phase(e)) for e in edges_to_check)
    else:
        work = [(instance, strategy, e) for e in edges_to_check]
        results = _deleted_edge_results(work, workers)

    edges_checked = 0
    with closing(results):
        for edge, bad, examined, edge_solved, edge_nodes in results:
            covers += examined
            solved += edge_solved
            nodes += edge_nodes
            edges_checked += 1
            if bad is not None:
                return CriticalityVerdict(
                    NOT_CRITICAL, True, witness, edge, None, bad,
                    covers, edges_checked, nodes, orbit_map, None, solved,
                )

    if not certifying:
        return CriticalityVerdict(
            UNREFUTED, False, witness, None, None, None,
            covers, edges_checked, nodes, orbit_map, None, solved,
        )
    rho = subset_potential(instance, range(graph.n))
    potential_ok = rho <= instance.params.i - instance.params.j - 1
    return CriticalityVerdict(
        CRITICAL, True, witness, None, None, None,
        covers, edges_checked, nodes, orbit_map, potential_ok, solved,
    )


# ---------------------------------------------------------------------------
# Small-graph enumeration up to isomorphism
# ---------------------------------------------------------------------------

def _vertex_pairs(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _degree_class_perms(degrees: list[int]) -> Iterator[tuple[int, ...]]:
    """Permutations placing vertices in non-increasing degree order, with all
    interleavings inside equal-degree classes."""
    n = len(degrees)
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(degrees[v], []).append(v)
    groups = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    for arrangement in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        flat = [v for group in arrangement for v in group]
        perm = [0] * n  # perm[v] = new label of v
        for new, old in enumerate(flat):
            perm[old] = new
        yield tuple(perm)


def _canonical_mask(n: int, mask: int, pairs: list[Edge], pair_idx: dict[Edge, int]) -> int:
    if mask == 0:
        return 0
    degrees = [0] * n
    bits = []
    m = mask
    while m:
        k = (m & -m).bit_length() - 1
        bits.append(k)
        u, v = pairs[k]
        degrees[u] += 1
        degrees[v] += 1
        m &= m - 1
    best = None
    for perm in _degree_class_perms(degrees):
        out = 0
        for k in bits:
            u, v = pairs[k]
            pu, pv = perm[u], perm[v]
            out |= 1 << pair_idx[(pu, pv) if pu < pv else (pv, pu)]
        if best is None or out < best:
            best = out
    return best


def graphs_up_to_iso(n: int, max_n: int = 6) -> list[SimpleGraph]:
    """All graphs on n vertices up to isomorphism, in ascending order of
    their canonical adjacency masks.

    A graph's canonical mask is the smallest mask over the relabellings
    that sort its vertices by non-increasing degree, and its representative
    has exactly those edges.  No scan over all 2^C(n,2) masks: the classes
    are grown one edge at a time by augmentation (McKay, "Isomorph-free
    exhaustive generation", 1998).  Every graph with k + 1 edges is a graph
    with k edges plus one non-edge, so the canonical masks of each
    k-edge representative plus each of its non-edges are every class with
    k + 1 edges.
    """
    if n > max_n:
        raise ValueError(f"isomorphism enumeration ceiling exceeded: n={n} > {max_n}")
    pairs = _vertex_pairs(n)
    pair_idx = {e: k for k, e in enumerate(pairs)}
    level = {0}
    found = {0}
    for _ in pairs:
        level = {
            _canonical_mask(n, mask | (1 << k), pairs, pair_idx)
            for mask in level
            for k in range(len(pairs))
            if not (mask >> k) & 1
        }
        found |= level
    return [
        SimpleGraph.from_edges(n, [pairs[k] for k in range(len(pairs)) if (c >> k) & 1])
        for c in sorted(found)
    ]


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


def _bit_pattern(t: int, width: int) -> int:
    """The bitset of the numbers below 2**width whose bit t is set."""
    pattern, span = ((1 << (1 << t)) - 1) << (1 << t), 2 << t
    while span < 1 << width:
        pattern |= pattern << span
        span <<= 1
    return pattern


def _at_most(conflicts: list[int], top: int, everything: int) -> list[int]:
    """Entry c + 1: the bits at which at most c of `conflicts` hold, for
    c = -1..top (an at-least-t count over the sets, then complemented)."""
    at_least = [everything] + [0] * (top + 1)
    for conflict in conflicts:
        for t in range(top + 1, 0, -1):
            at_least[t] |= at_least[t - 1] & conflict
    return [0] + [everything ^ a for a in at_least[1:]]


class _WeightedTables:
    """Bitsets over (map, signing) that decide criticality for every
    capacity function on one graph.

    Bit (map << m) + signing, m the edge count, stands for one (map,
    signing): vertex v is bit v of a map (1 = rich), edge k (sorted order)
    bit k of a signing.  vertex[v][cap] holds where v's conflicts are
    within cap, and a pair's valid set is the AND of one table per vertex.
    OR-folding it over the maps leaves the set of colorable signings.
    Phase 2 for G - e uses the endpoint tables with e's conflict taken
    away; they no longer depend on e's sign bit, so each signing of G - e
    appears twice in the fold and the full set still means colorable.
    """

    def __init__(self, graph: SimpleGraph, params: DefectParams):
        n, m = graph.n, len(graph.sorted_edges)
        caps = [(c1, c2) for c1 in range(-1, params.i + 1) for c2 in range(-1, params.j + 1)]
        top = max(params.i, params.j)
        everything = (1 << (1 << (n + m))) - 1
        rich = [_bit_pattern(m + v, n + m) for v in range(n)]
        conflict = [
            everything & ~(rich[u] ^ rich[w] ^ _bit_pattern(k, n + m))
            for k, (u, w) in enumerate(graph.sorted_edges)
        ]
        incident = [[k for k, e in enumerate(graph.sorted_edges) if v in e] for v in range(n)]

        def table(v: int, skip: int | None = None) -> dict[tuple[int, int], int]:
            at_most = _at_most([conflict[k] for k in incident[v] if k != skip], top, everything)
            poor = everything ^ rich[v]
            return {c: poor & at_most[c[0] + 1] | rich[v] & at_most[c[1] + 1] for c in caps}

        self.caps = caps
        self.n = n
        self.shifts = [1 << (m + k) for k in range(n)]
        self.full = (1 << (1 << m)) - 1
        self.everything = everything
        self.vertex = [table(v) for v in range(n)]
        self.edges = [
            ((u, table(u, k)), (w, table(w, k)), tuple(v for v in range(n) if v not in (u, w)))
            for k, (u, w) in enumerate(graph.sorted_edges)
        ]
        self.isolated = n >= 2 and any(graph.degree(v) == 0 for v in range(n))

    def _colorable(self, valid: int) -> int:
        """The signings at which some map is valid."""
        for s in self.shifts:
            valid |= valid >> s
        return valid & self.full

    def decide(self, caps: tuple[tuple[int, int], ...]) -> tuple[str, int | None]:
        """The verdict of is_critical(..., Exhaustive()) on these capacities,
        with the number of the smallest uncolorable signing (None when
        every signing is colorable)."""
        vertex = self.vertex
        valid = self.everything
        for v in range(self.n):
            valid &= vertex[v][caps[v]]
        bad = self.full & ~self._colorable(valid)
        if not bad:
            return COLORABLE, None
        witness = (bad & -bad).bit_length() - 1
        if self.isolated or (self.n >= 2 and (-1, -1) in caps):
            # An isolated or (-1, -1) vertex is a non-colorable proper subgraph.
            return NOT_CRITICAL, witness
        for (u, table_u), (w, table_w), others in self.edges:
            valid = table_u[caps[u]] & table_w[caps[w]]
            for v in others:
                valid &= vertex[v][caps[v]]
            if self._colorable(valid) != self.full:
                return NOT_CRITICAL, witness
        return CRITICAL, witness


def enumerate_critical(
    params: DefectParams, n: int, mode: str = MODE_UNIFORM
) -> EnumerationReport:
    """Survey all n-vertex graphs up to isomorphism for critical instances.

    Uniform mode fixes capacities at (i, j) everywhere and checks, inside
    the claimed parameter range, the minimum-edge bound and that no sparse
    graph turns out non-colorable.  It decides the graphs in increasing
    edge count, so each G - e is, up to isomorphism, a graph already
    decided, found by its canonical mask.  If some G - e is uncolorable, so
    is G: an uncolorable signing of G - e stays uncolorable with either
    sign on e, since a valid map for G is valid for G - e.  G is then not
    critical, and needs no search.  Otherwise one exhaustive signing scan
    decides G, which is critical iff it is uncolorable and (with n >= 2)
    has no isolated vertex, as is_critical(..., Exhaustive(15)) decides.
    Criticals and sparsity violations are listed in graphs_up_to_iso order.
    Weighted mode sweeps every capacity function (n <= 4) and records any
    critical pair whose potential exceeds the i - j - 1 ceiling.  Its
    verdicts come from per-graph defect bitsets, built once per graph from
    Python ints; each critical pair is cross-checked by the solver, which
    must fail to color the smallest uncolorable signing the bitsets found.
    """
    if mode not in (MODE_UNIFORM, MODE_WEIGHTED):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_WEIGHTED and n > 4:
        raise ValueError("weighted enumeration supported for n <= 4")

    i, j = params.i, params.j
    bound_min_edges = -(-((2 * i + 1) * n + j - i + 1) // (i + 1))
    ceiling = i - j - 1

    graphs = graphs_up_to_iso(n)
    criticals: list[CriticalEntry] = []
    sparsity_violations: list[CriticalEntry] = []
    pairs_examined = 0

    if mode == MODE_UNIFORM:
        pairs_examined = len(graphs)
        pairs = _vertex_pairs(n)
        pair_idx = {e: k for k, e in enumerate(pairs)}
        masks = [sum(1 << pair_idx[e] for e in graph.edges) for graph in graphs]
        uncolorable: set[int] = set()
        critical: set[int] = set()
        # In increasing edge count, so the canonical mask of every G - e is
        # already decided (and no lookup can hit before the first uncolorable).
        for graph, mask in sorted(zip(graphs, masks), key=lambda gm: gm[0].edge_count()):
            sub = bool(uncolorable) and any(
                _canonical_mask(n, mask ^ (1 << b), pairs, pair_idx) in uncolorable
                for b in range(len(pairs))
                if (mask >> b) & 1
            )
            instance = WeightedInstance.uniform(graph, params)
            if sub or not colorable_all_covers(instance, max_edges=15).colorable:
                uncolorable.add(mask)
                if not sub and not (n >= 2 and any(graph.degree(v) == 0 for v in range(n))):
                    critical.add(mask)
        for graph, mask in zip(graphs, masks):
            sparse_bad = (
                in_guaranteed_range(params)
                and mask in uncolorable
                and sparsity_test(graph, params).sparse
            )
            if not (mask in critical or sparse_bad):
                continue
            instance = WeightedInstance.uniform(graph, params)
            rho = subset_potential(instance, range(n))
            entry = CriticalEntry(graph.sorted_edges, instance.caps.pairs, rho)
            if sparse_bad:
                sparsity_violations.append(entry)
            if mask in critical:
                criticals.append(entry)
    else:
        for graph in graphs:
            tables = _WeightedTables(graph, params)
            for caps in itertools.product(tables.caps, repeat=n):
                pairs_examined += 1
                verdict, witness = tables.decide(caps)
                if verdict != CRITICAL:
                    continue
                instance = WeightedInstance(graph, params, CapacityFunction(caps))
                if find_coloring(instance, CoverSigning.from_bits(graph, witness)) is not None:
                    raise RuntimeError("defect bitsets and solver disagree on colorability")
                rho = subset_potential(instance, range(n))
                criticals.append(CriticalEntry(graph.sorted_edges, caps, rho))

    potential_violations = [
        e for e in criticals if in_guaranteed_range(params) and e.rho > ceiling
    ]
    min_edges = min((len(e.edges) for e in criticals), default=None)
    return EnumerationReport(
        params=params,
        n=n,
        mode=mode,
        graphs_examined=len(graphs),
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


@dataclass(frozen=True)
class SharpnessReport:
    entries: tuple[SharpnessEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


def verify_sharpness_suite(
    pairs: Iterable[tuple[int, int]],
    ms: Iterable[int],
    criticality: Iterable[tuple[int, int, int]] = (),
) -> SharpnessReport:
    """For each (i, j) x m: check size identities and that the hard cover
    defeats the solver; optionally certify criticality (reduced strategy)
    for the listed (i, j, m) triples."""
    want_critical = set(criticality)
    entries = []
    ms = tuple(ms)
    for (i, j) in pairs:
        params = DefectParams(i, j)
        for m in ms:
            counts_ok = verify_counts(params, m).all_ok
            instance, spec = flag_path_instance(params, m)
            signing = hard_cover_signing(spec)
            uncolorable = find_coloring(instance, signing) is None
            crit: str | None = None
            potential_ok: bool | None = None
            if (i, j, m) in want_critical:
                verdict = is_critical(instance, Reduced(spec))
                crit = verdict.verdict
                potential_ok = verdict.potential_ok
            entries.append(
                SharpnessEntry(i, j, m, counts_ok, uncolorable, crit, potential_ok)
            )
    return SharpnessReport(tuple(entries))


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
    work = [(instance, strategy, e) for e in instance.graph.sorted_edges]
    return tuple((edge, bad) for edge, bad, *_ in _deleted_edge_results(work, workers))
