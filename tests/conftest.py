"""Shared graph builders, seeded instance generators, the explicit cover
graph used as an independent reference for the sign XOR rule, the full
mask scan and Polya's count used as the references for isomorphism-class
generation, the binary-counter solver loop used as the oracle for every
quantification over all signings, and the submodularity residual of the
potential."""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from dpdefect import (
    PARALLEL,
    CoverSigning,
    DefectParams,
    SimpleGraph,
    WeightedInstance,
    find_coloring,
)
from dpdefect.harness import _canonical_form, _vertex_pairs
from dpdefect.potential import _mask_of, _potential_of_mask
from dpdefect.solver import _sample_bits, _Walk

Edge = tuple[int, int]


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(k, k + 1) for k in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    edges = [(k, k + 1) for k in range(n - 1)] + [(0, n - 1)]
    return SimpleGraph.from_edges(n, edges)


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def k2() -> SimpleGraph:
    return SimpleGraph.from_edges(2, [(0, 1)])


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return SimpleGraph.from_edges(n, edges)


def random_caps(rng: random.Random, n: int, params: DefectParams) -> tuple[tuple[int, int], ...]:
    return tuple((rng.randint(-1, params.i), rng.randint(-1, params.j)) for _ in range(n))


def random_instance(
    rng: random.Random,
    max_n: int = 6,
    p: float | None = None,
    params: DefectParams | None = None,
) -> WeightedInstance:
    n = rng.randint(1, max_n)
    if params is None:
        i = rng.randint(0, 2)
        params = DefectParams(i, rng.randint(i, i + 3))
    graph = random_graph(rng, n, p if p is not None else rng.choice([0.3, 0.5, 0.7]))
    return WeightedInstance(graph, params, random_caps(rng, n, params))


def drawn_signings(graph: SimpleGraph, count: int, seed: int | str) -> Iterator[CoverSigning]:
    """The signings `sample_covers(instance, count, seed)` scans, in order:
    the draws of `solver._sample_bits` over the graph's edges."""
    for bits in _sample_bits(graph.edge_count(), count, seed):
        yield CoverSigning.from_bits(graph, bits)


def random_signing(rng: random.Random, graph: SimpleGraph) -> CoverSigning:
    m = len(graph.sorted_edges)
    bits = rng.getrandbits(m) if m else 0
    return CoverSigning.from_bits(graph, bits)


@dataclass(frozen=True)
class CoverGraph:
    """The explicit 2n-node cover graph: nodes 2v (poor) and 2v+1 (rich)."""

    n_vertices: int
    edges: frozenset[Edge]

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_vertices

    def node_degree(self, node: int) -> int:
        return sum(1 for a, b in self.edges if a == node or b == node)

    def cross_edges(self, u: int, v: int) -> tuple[Edge, ...]:
        """Cover edges between the lists of vertices u and v."""
        us = {2 * u, 2 * u + 1}
        vs = {2 * v, 2 * v + 1}
        return tuple(
            e for e in sorted(self.edges) if (e[0] in us and e[1] in vs) or (e[0] in vs and e[1] in us)
        )


def build_cover_graph(graph: SimpleGraph, signing: CoverSigning) -> CoverGraph:
    """Expand a signed graph into its explicit cover graph.

    Each list contributes its internal poor-rich edge; each graph edge
    contributes the two matching edges dictated by its sign.  Both nodes of
    every vertex v end up with degree 1 + deg(v).
    """
    signs = signing.signs_for(graph)
    edges: set[Edge] = set()
    for v in range(graph.n):
        edges.add((2 * v, 2 * v + 1))
    for k, (u, v) in enumerate(graph.sorted_edges):
        if signs[k] == PARALLEL:
            pairs = ((2 * u, 2 * v), (2 * u + 1, 2 * v + 1))
        else:
            pairs = ((2 * u, 2 * v + 1), (2 * u + 1, 2 * v))
        edges.update(tuple(sorted(pair)) for pair in pairs)
    return CoverGraph(graph.n, frozenset(edges))


def first_uncolorable(instance: WeightedInstance) -> tuple[CoverSigning | None, int]:
    """The oracle for "is every signing colorable?": `find_coloring` on
    each signing in binary-counter order, sharing no code with the map
    walk.  Returns the first uncolorable signing (None if there is none)
    and the number of signings examined."""
    graph = instance.graph
    m = graph.edge_count()
    for bits in range(1 << m):
        signing = CoverSigning.from_bits(graph, bits)
        if find_coloring(instance, signing) is None:
            return signing, bits + 1
    return None, 1 << m


def uncolorable_by_oracle(instance: WeightedInstance) -> int:
    """The oracle's verdict on every signing: bit s is set iff
    `find_coloring` fails on signing s."""
    graph = instance.graph
    return sum(
        1 << bits
        for bits in range(1 << graph.edge_count())
        if find_coloring(instance, CoverSigning.from_bits(graph, bits)) is None
    )


def uncolorable_by_windows(instance: WeightedInstance) -> int:
    """The map walk's verdict on every signing, in the oracle's layout: the
    sets of all its windows, window w's set shifted to signing w << width."""
    walk = _Walk(instance)
    return sum(walk.uncolorable(w)[0] << (w << walk.width) for w in range(walk.windows))


def graphs_by_mask_scan(n: int) -> list[SimpleGraph]:
    """All graphs on n vertices up to isomorphism, by canonicalising every
    one of the 2^C(n,2) adjacency masks; each class appears where its first
    mask does, as the graph of its canonical mask."""
    pairs = _vertex_pairs(n)
    pair_idx = {e: k for k, e in enumerate(pairs)}
    reps = []
    seen: set[int] = set()
    for mask in range(1 << len(pairs)):
        c = _canonical_form(n, mask, pairs, pair_idx)[0]
        if c not in seen:
            seen.add(c)
            reps.append(
                SimpleGraph.from_edges(
                    n, [pairs[k] for k in range(len(pairs)) if (c >> k) & 1]
                )
            )
    return reps


def _partitions(n: int, largest: int) -> Iterator[list[int]]:
    """The partitions of n into parts of at most `largest`, largest first."""
    if n == 0:
        yield []
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first, *rest]


def graph_counts_by_edges(n: int) -> list[int]:
    """The number of graphs on n vertices with k edges up to isomorphism,
    for k = 0, 1, ..., C(n, 2), by Polya's theorem: the cycle index of S_n
    acting on vertex pairs (Harary and Palmer, *Graphical Enumeration*,
    1973, ch. 4).  A permutation whose cycles have lengths a, b, ... moves
    the pairs in cycles: gcd(a, b) of length lcm(a, b) across two of its
    cycles, and (a - 1) // 2 of length a, plus one of length a / 2 when a
    is even, within one."""
    total = [0] * (n * (n - 1) // 2 + 1)
    for cycles in _partitions(n, n):
        permutations = math.factorial(n)
        for length, repeats in Counter(cycles).items():
            permutations //= length**repeats * math.factorial(repeats)
        pair_cycles = []
        for index, a in enumerate(cycles):
            pair_cycles += [a] * ((a - 1) // 2) + [a // 2] * (1 - a % 2)
            for b in cycles[index + 1:]:
                pair_cycles += [math.lcm(a, b)] * math.gcd(a, b)
        fixed = [1] + [0] * (len(total) - 1)  # edge sets fixed, by size
        for length in pair_cycles:
            for k in range(len(fixed) - 1, length - 1, -1):
                fixed[k] += fixed[k - length]
        total = [t + permutations * f for t, f in zip(total, fixed)]
    return [t // math.factorial(n) for t in total]


def check_submodularity(
    instance: WeightedInstance, a: Iterable[int], b: Iterable[int]
) -> int:
    """Residual of the submodularity identity; the contract is exactly 0.

    rho(A) + rho(B) - rho(A|B) - rho(A&B) - (i+1)|E(A\\B, B\\A)|
    """
    graph = instance.graph
    n = graph.n
    ma = _mask_of(a, n)
    mb = _mask_of(b, n)
    masks = graph.adjacency_masks
    only_a = ma & ~mb
    only_b = mb & ~ma
    cross = 0
    m = only_a
    while m:
        v = (m & -m).bit_length() - 1
        cross += (masks[v] & only_b).bit_count()
        m &= m - 1
    lhs = _potential_of_mask(instance, ma) + _potential_of_mask(instance, mb)
    rhs = (
        _potential_of_mask(instance, ma | mb)
        + _potential_of_mask(instance, ma & mb)
        + (instance.params.i + 1) * cross
    )
    return lhs - rhs
