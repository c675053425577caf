"""Coloring validation and complete search over the cover space.

`find_coloring` is a complete backtracking search (fixed vertex order,
incremental defect counters, capacity pruning).  `brute_force_oracle`
re-decides the same question by exhausting all 2^n maps through
`check_coloring` and deliberately shares no search code with it.
`colorable_all_covers` and `sample_covers` feed a stream of signings to
one loop over the search and report a `CoverScan`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

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
    """Per-instance arrays reused across many signings."""

    __slots__ = ("n", "order", "nbrs", "cap_by")

    def __init__(self, instance: WeightedInstance):
        graph = instance.graph
        self.n = graph.n
        self.order = tuple(
            sorted(range(graph.n), key=lambda v: (-graph.degree(v), v))
        )
        edge_index = graph.edge_index
        nbrs: list[tuple[tuple[int, int], ...]] = []
        for v in range(graph.n):
            nbrs.append(
                tuple(
                    (u, edge_index[(u, v) if u < v else (v, u)])
                    for u in graph.adjacency[v]
                )
            )
        self.nbrs = tuple(nbrs)
        self.cap_by = (
            tuple(instance.caps[v][0] for v in range(graph.n)),
            tuple(instance.caps[v][1] for v in range(graph.n)),
        )


@lru_cache(maxsize=64)
def _context(instance: WeightedInstance) -> _SearchContext:
    return _SearchContext(instance)


def _solve(ctx: _SearchContext, signs: tuple[int, ...]) -> tuple[ColoringMap | None, int]:
    """Backtracking core; returns (map or None, nodes expanded)."""
    n = ctx.n
    order = ctx.order
    nbrs = ctx.nbrs
    cap0, cap1 = ctx.cap_by
    choice = [-1] * n
    cnt = [0] * n
    nextx = [0] * n
    bumped: list[list[int] | None] = [None] * n
    depth = 0
    nodes = 0

    while True:
        if depth == n:
            return tuple(choice), nodes
        v = order[depth]
        x = nextx[depth]
        if x == 2:
            # both branches exhausted: undo the previous level and retry it
            nextx[depth] = 0
            depth -= 1
            if depth < 0:
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


def find_coloring(
    instance: WeightedInstance, signing: CoverSigning
) -> ColoringMap | None:
    """Complete search for a valid map under one signing; None iff none exists."""
    signs = signing.signs_for(instance.graph)
    cmap, _ = _solve(_context(instance), signs)
    if cmap is not None and check_coloring(instance, signing, cmap) is not None:
        raise RuntimeError("internal error: search returned an invalid map")
    return cmap


def brute_force_oracle(
    instance: WeightedInstance,
    signing: CoverSigning,
    max_n: int = DEFAULT_ORACLE_CEILING,
) -> ColoringMap | None:
    """Decide colorability by exhausting all 2^n maps through check_coloring.

    Independent of the backtracking search; intended as its ground truth on
    small instances.
    """
    n = instance.graph.n
    if n > max_n:
        raise ValueError(f"oracle ceiling exceeded: n={n} > {max_n}")
    for bits in range(1 << n):
        cmap = tuple((bits >> v) & 1 for v in range(n))
        if check_coloring(instance, signing, cmap) is None:
            return cmap
    return None


def _as_sign_tuple(
    graph: SimpleGraph, signing: CoverSigning | tuple[int, ...]
) -> tuple[int, ...]:
    if isinstance(signing, CoverSigning):
        return signing.signs_for(graph)
    if len(signing) != len(graph.sorted_edges):
        raise ValueError("sign tuple length does not match edge count")
    return signing


def _scan(
    instance: WeightedInstance, signings: Iterable[CoverSigning | tuple[int, ...]]
) -> CoverScan:
    """Solve each signing in turn and stop at the first uncolorable one."""
    graph = instance.graph
    ctx = _context(instance)
    examined = 0
    nodes_total = 0
    for signing in signings:
        signs = _as_sign_tuple(graph, signing)
        examined += 1
        cmap, nodes = _solve(ctx, signs)
        nodes_total += nodes
        if cmap is None:
            witness = (
                signing
                if isinstance(signing, CoverSigning)
                else CoverSigning(graph.sorted_edges, signs)
            )
            return CoverScan(witness, examined, nodes_total)
    return CoverScan(None, examined, nodes_total)


def colorable_all_covers(
    instance: WeightedInstance,
    signings: Iterable[CoverSigning | tuple[int, ...]] | None = None,
    max_edges: int = DEFAULT_ENUMERATION_CEILING,
) -> CoverScan:
    """Quantify colorability over the whole cover space.

    With `signings` omitted, all 2^|E| signings are enumerated in
    binary-counter order (Parallel=0), so the reported witness is the
    lexicographically smallest one; more than `max_edges` edges raise
    ValueError.  A caller may instead supply its own stream, such as one
    representative signing per symmetry class or a single signing to
    cross-check; soundness is then the caller's contract.
    """
    if signings is None:
        m = len(instance.graph.sorted_edges)
        if m > max_edges:
            raise ValueError(
                f"enumeration ceiling exceeded: |E|={m} > {max_edges}; "
                "supply a symmetry-class iterator"
            )
        signings = (tuple((bits >> k) & 1 for k in range(m)) for bits in range(1 << m))
    return _scan(instance, signings)


def sample_signings(
    graph: SimpleGraph, count: int, seed: int | str
) -> Iterator[tuple[int, ...]]:
    """Deterministic uniform sample of sign tuples (with replacement)."""
    m = len(graph.sorted_edges)
    rng = random.Random(seed)
    for _ in range(count):
        bits = rng.getrandbits(m) if m else 0
        yield tuple((bits >> k) & 1 for k in range(m))


def sample_covers(instance: WeightedInstance, count: int, seed: int | str) -> CoverScan:
    """Seeded random smoke test over the cover space: the loop of
    `colorable_all_covers` over `count` signings from `sample_signings`.

    Identical (instance, count, seed) always produces the identical result.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return _scan(instance, sample_signings(instance.graph, count, seed))
