"""Sharp constructions: flag gadgets, flag-path graphs and their hard covers.

A flag at a base vertex v consists of a fresh top vertex x adjacent to v
and i+1 fresh middle vertices each adjacent to exactly v and x (2i+3 edges
in total).  A flag-path graph strings m base vertices along a path and
attaches a prescribed number of flags to each base; with uniform
capacities (i, j) it meets the extremal edge/vertex count identities
exactly, and a specific cover signing defeats every coloring.

A flag is a block that meets the rest of its host only at its base, so
its signs matter only through the load they force there; the harness
certifies flag-path hosts from block loads (`solver._uncolorable_by_loads`).
`reduced_cover_iterator` instead yields one signing per symmetry class
(flag middles, and whole flags on a common base, are interchangeable); it
stays as an independent oracle for the load reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, product
from typing import Iterator

from .model import (
    MAX_VERTICES,
    PARALLEL,
    TWISTED,
    CoverSigning,
    DefectParams,
    Edge,
    SimpleGraph,
    WeightedInstance,
    _normalize_edge,
)

SIGN_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))  # (base-middle, top-middle)


class GraphBuilder:
    """Mutable edge-list accumulator for assembling host graphs."""

    def __init__(self, n: int = 0):
        self.n = n
        self.edges: list[Edge] = []

    def add_vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int) -> None:
        self.edges.append(_normalize_edge(u, v))

    def graph(self) -> SimpleGraph:
        return SimpleGraph.from_edges(self.n, self.edges)


@dataclass(frozen=True)
class FlagSpec:
    """Vertex ids of one flag: its base, top and i+1 middles."""

    base: int
    top: int
    middles: tuple[int, ...]

    @property
    def base_top_edge(self) -> Edge:
        return _normalize_edge(self.base, self.top)

    def base_middle_edge(self, k: int) -> Edge:
        return _normalize_edge(self.base, self.middles[k])

    def top_middle_edge(self, k: int) -> Edge:
        return _normalize_edge(self.top, self.middles[k])

    @cached_property  # read by _check_reduced_spec, flag_of_edge and reduced_cover_iterator
    def edges(self) -> tuple[Edge, ...]:
        out = [self.base_top_edge]
        for k in range(len(self.middles)):
            out.append(self.base_middle_edge(k))
            out.append(self.top_middle_edge(k))
        return tuple(out)


@dataclass(frozen=True)
class ConstructionSpec:
    """Layout of a flag-path host: path vertices and flags per base."""

    params: DefectParams
    path: tuple[int, ...]
    flags_by_base: tuple[tuple[FlagSpec, ...], ...]

    @property
    def m(self) -> int:
        return len(self.path)

    @property
    def path_edges(self) -> tuple[Edge, ...]:
        return tuple(
            _normalize_edge(self.path[k], self.path[k + 1])
            for k in range(len(self.path) - 1)
        )

    @property
    def all_flags(self) -> tuple[FlagSpec, ...]:
        return tuple(f for flags in self.flags_by_base for f in flags)

    def flag_of_edge(self, edge: Edge) -> FlagSpec | None:
        for flag in self.all_flags:
            if edge in flag.edges:
                return flag
        return None


def make_flag(builder: GraphBuilder, base: int, params: DefectParams) -> FlagSpec:
    """Append one flag at `base`: i+2 fresh vertices and 2i+3 fresh edges."""
    if not (0 <= base < builder.n):
        raise ValueError(f"base vertex {base} not in host graph")
    top = builder.add_vertex()
    middles = tuple(builder.add_vertex() for _ in range(params.i + 1))
    builder.add_edge(base, top)
    for u in middles:
        builder.add_edge(base, u)
        builder.add_edge(top, u)
    return FlagSpec(base, top, middles)


def flag_counts(params: DefectParams, m: int) -> tuple[int, ...]:
    """Flags per base along the path: i+1 first, i interior, i+j+1 last;
    a lone base carries i+j+2 flags."""
    i, j = params.i, params.j
    if m == 1:
        return (i + j + 2,)
    return (i + 1,) + (i,) * (m - 2) + (i + j + 1,)


def flag_path_graph(
    params: DefectParams, m: int
) -> tuple[SimpleGraph, ConstructionSpec]:
    """Build the m-base flag-path graph with its layout spec.

    Vertices are numbered path first, then flags in base order, each flag
    top-then-middles, so generated instances are byte-stable.  Above
    `MAX_VERTICES` vertices, as for instance files, nothing is built.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if params.i < 1 or params.j < 2 * params.i:
        raise ValueError("flag-path construction needs i >= 1 and j >= 2i")
    n = (params.i + 2) * (m * params.i + params.j + 2) + m
    if n > MAX_VERTICES:
        raise ValueError(f"m={m} gives {n} vertices, above the ceiling {MAX_VERTICES}")
    builder = GraphBuilder(m)
    for k in range(m - 1):
        builder.add_edge(k, k + 1)
    flags_by_base = tuple(
        tuple(make_flag(builder, base, params) for _ in range(count))
        for base, count in enumerate(flag_counts(params, m))
    )
    spec = ConstructionSpec(params, tuple(range(m)), flags_by_base)
    return builder.graph(), spec


def flag_path_instance(
    params: DefectParams, m: int
) -> tuple[WeightedInstance, ConstructionSpec]:
    """Flag-path graph with the uniform capacities (i, j)."""
    graph, spec = flag_path_graph(params, m)
    return WeightedInstance.uniform(graph, params), spec


@dataclass(frozen=True)
class FlagSigning:
    """Signs on one flag's edges: the base-top sign plus one
    (base-middle, top-middle) sign pair per middle vertex."""

    base_top: int
    middle_pairs: tuple[tuple[int, int], ...]

    def edge_signs(self, flag: FlagSpec) -> dict[Edge, int]:
        if len(self.middle_pairs) != len(flag.middles):
            raise ValueError("middle count mismatch between signing and flag")
        out = {flag.base_top_edge: self.base_top}
        for k, (bm, tm) in enumerate(self.middle_pairs):
            out[flag.base_middle_edge(k)] = bm
            out[flag.top_middle_edge(k)] = tm
        return out


def parallel_flag_signing(params: DefectParams) -> FlagSigning:
    """Every flag edge parallel; forces a conflict at a rich base."""
    return FlagSigning(PARALLEL, ((PARALLEL, PARALLEL),) * (params.i + 1))


def twisted_flag_signing(params: DefectParams) -> FlagSigning:
    """Base-top and base-middle twisted, top-middle parallel; forces a
    conflict at a poor base."""
    return FlagSigning(TWISTED, ((TWISTED, PARALLEL),) * (params.i + 1))


def flag_sign_classes(params: DefectParams) -> tuple[FlagSigning, ...]:
    """One representative per orbit of flag signings under middle swaps.

    Permuting the i+1 middles permutes the sign pairs, so a class is the
    base-top sign plus a multiset of pairs.  The all-parallel signing is
    the first representative.
    """
    reps = []
    for bt in (PARALLEL, TWISTED):
        for pairs in combinations_with_replacement(SIGN_PAIRS, params.i + 1):
            reps.append(FlagSigning(bt, pairs))
    return tuple(reps)


def hard_cover_signing(spec: ConstructionSpec) -> CoverSigning:
    """The cover signing under which the flag-path graph has no coloring.

    All flags at non-final bases are twisted; the final base gets i+1
    twisted flags and the rest parallel (so a lone base has i+1 twisted and
    j+1 parallel).  Path edges are twisted except the final one, which is
    parallel: the twisted prefix forces every earlier base to rich, and the
    parallel last edge feeds that rich choice into the final base on top of
    its j parallel flags.
    """
    params = spec.params
    i = params.i
    table: dict[Edge, int] = {}
    last = spec.m - 1
    for base, flags in enumerate(spec.flags_by_base):
        for idx, flag in enumerate(flags):
            if base < last or idx < i + 1:
                signing = twisted_flag_signing(params)
            else:
                signing = parallel_flag_signing(params)
            table.update(signing.edge_signs(flag))
    path_edges = spec.path_edges
    for k, e in enumerate(path_edges):
        table[e] = PARALLEL if k == len(path_edges) - 1 else TWISTED
    edges = tuple(sorted(table))
    return CoverSigning(edges, tuple(table[e] for e in edges))


@dataclass(frozen=True)
class CountsReport:
    """Exact checks of the closed-form size identities of a flag-path graph."""

    n_vertices: int
    n_edges: int
    expected_vertices: int
    expected_edges: int
    density_lhs: int  # (i+1)|E|
    density_rhs: int  # (2i+1)|V| + j - i + 1

    @property
    def all_ok(self) -> bool:
        return (
            self.n_vertices == self.expected_vertices
            and self.n_edges == self.expected_edges
            and self.density_lhs == self.density_rhs
        )


def verify_counts(params: DefectParams, m: int) -> CountsReport:
    """Build the flag-path graph and check all three size identities."""
    graph, _ = flag_path_graph(params, m)
    i, j = params.i, params.j
    blocks = m * i + j + 2
    return CountsReport(
        n_vertices=graph.n,
        n_edges=graph.edge_count(),
        expected_vertices=(i + 2) * blocks + m,
        expected_edges=(2 * i + 3) * blocks + m - 1,
        density_lhs=(i + 1) * graph.edge_count(),
        density_rhs=(2 * i + 1) * graph.n + j - i + 1,
    )


def edge_orbits(spec: ConstructionSpec) -> tuple[tuple[Edge, ...], ...]:
    """Orbits of host edges under flag swaps on a common base and middle
    swaps within a flag: per base one orbit each of base-top, base-middle
    and top-middle edges; path edges are singleton orbits."""
    orbits: list[tuple[Edge, ...]] = [(e,) for e in spec.path_edges]
    for flags in spec.flags_by_base:
        if not flags:
            continue
        bt: list[Edge] = []
        bm: list[Edge] = []
        tm: list[Edge] = []
        for f in flags:
            bt.append(f.base_top_edge)
            bm.extend(f.base_middle_edge(k) for k in range(len(f.middles)))
            tm.extend(f.top_middle_edge(k) for k in range(len(f.middles)))
        orbits.append(tuple(sorted(bt)))
        orbits.append(tuple(sorted(bm)))
        orbits.append(tuple(sorted(tm)))
    return tuple(orbits)


def _damaged_flag_variants(
    params: DefectParams, flag: FlagSpec, deleted: Edge
) -> list[dict[Edge, int]]:
    """All sign assignments of a flag missing one edge, reduced by swaps of
    the untouched middles."""
    n_mid = params.i + 1
    variants: list[dict[Edge, int]] = []
    if deleted == flag.base_top_edge:
        for pairs in combinations_with_replacement(SIGN_PAIRS, n_mid):
            signs: dict[Edge, int] = {}
            for k, (bm, tm) in enumerate(pairs):
                signs[flag.base_middle_edge(k)] = bm
                signs[flag.top_middle_edge(k)] = tm
            variants.append(signs)
        return variants
    for t in range(n_mid):
        if deleted in (flag.base_middle_edge(t), flag.top_middle_edge(t)):
            hit_base_side = deleted == flag.base_middle_edge(t)
            intact = [k for k in range(n_mid) if k != t]
            for bt in (PARALLEL, TWISTED):
                for lone in (PARALLEL, TWISTED):
                    for pairs in combinations_with_replacement(SIGN_PAIRS, len(intact)):
                        signs = {flag.base_top_edge: bt}
                        if hit_base_side:
                            signs[flag.top_middle_edge(t)] = lone
                        else:
                            signs[flag.base_middle_edge(t)] = lone
                        for k, (bm, tm) in zip(intact, pairs):
                            signs[flag.base_middle_edge(k)] = bm
                            signs[flag.top_middle_edge(k)] = tm
                        variants.append(signs)
            return variants
    raise ValueError(f"edge {deleted} not in flag {flag}")


def reduced_cover_iterator(
    graph: SimpleGraph,
    spec: ConstructionSpec,
    deleted_edge: Edge | None = None,
) -> Iterator[CoverSigning]:
    """Yield one signing per symmetry class of the cover space.

    Classes are induced by middle swaps inside each flag and by permuting
    whole flags on a common base; edges outside every flag are enumerated
    exhaustively.  Every class is hit at least once.  Soundness requires
    capacities constant across each symmetry orbit (uniform capacities
    always qualify).  With a deleted edge, the damaged flag is enumerated
    separately since it is no longer interchangeable with intact ones.
    """
    target = graph.without_edge(deleted_edge) if deleted_edge is not None else graph
    edge_list = target.sorted_edges
    edge_index = {e: k for k, e in enumerate(edge_list)}
    params = spec.params

    flag_edges: set[Edge] = set()
    for flag in spec.all_flags:
        flag_edges.update(flag.edges)
    free_edges = [e for e in edge_list if e not in flag_edges]

    damaged: FlagSpec | None = None
    if deleted_edge is not None:
        deleted_edge = _normalize_edge(*deleted_edge)
        if deleted_edge not in graph.edges:
            raise ValueError(f"deleted edge {deleted_edge} not in graph")
        damaged = spec.flag_of_edge(deleted_edge)

    classes = flag_sign_classes(params)
    class_moves: dict[FlagSpec, list[list[tuple[int, int]]]] = {}
    for flags in spec.flags_by_base:
        for flag in flags:
            if flag == damaged:
                continue
            moves = []
            for signing in classes:
                moves.append(
                    [(edge_index[e], s) for e, s in signing.edge_signs(flag).items()]
                )
            class_moves[flag] = moves

    if damaged is not None:
        damaged_moves = [
            [(edge_index[e], s) for e, s in variant.items() if e != deleted_edge]
            for variant in _damaged_flag_variants(params, damaged, deleted_edge)
        ]
    else:
        damaged_moves = [[]]

    intact_by_base = [
        [f for f in flags if f != damaged] for flags in spec.flags_by_base
    ]
    base_choices = [
        list(combinations_with_replacement(range(len(classes)), len(intact)))
        for intact in intact_by_base
    ]

    n_free = len(free_edges)
    free_idx = [edge_index[e] for e in free_edges]
    signs = [0] * len(edge_list)

    for free_bits in range(1 << n_free):
        for k in range(n_free):
            signs[free_idx[k]] = (free_bits >> k) & 1
        for dmoves in damaged_moves:
            for idx, s in dmoves:
                signs[idx] = s
            for combo in product(*base_choices):
                for flags, chosen in zip(intact_by_base, combo):
                    for flag, cls in zip(flags, chosen):
                        for idx, s in class_moves[flag][cls]:
                            signs[idx] = s
                yield CoverSigning(edge_list, tuple(signs))
