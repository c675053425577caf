"""Potential calculus: vertex/subset potentials, minimum-potential subsets, sparsity.

The potential of a vertex with capacities (c1, c2) is i - j + 1 + c1 + c2;
a vertex set additionally pays (i+1) per induced edge.  Everything here is
exact integer arithmetic.

Sparsity is a potential question: with capacities (i, j) everywhere every
vertex has potential 2i+1, so the sparsity margin of S is exactly
(i - j) - rho(S), and G is sparse iff min rho over nonempty S is at least
i - j.  `min_potential_subset` is the one scan over subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .model import DefectParams, SimpleGraph, WeightedInstance

DEFAULT_SUBSET_CEILING = 24

MODE_NONEMPTY = "nonempty"
MODE_NONEMPTY_PROPER = "nonempty-proper"


@dataclass(frozen=True)
class PotentialReport:
    subset: tuple[int, ...]
    value: int
    mode: str


@dataclass(frozen=True)
class SparsityResult:
    sparse: bool
    witness: tuple[int, ...] | None
    margin: int | None  # (i+1)|E(S)| - ((2i+1)|S| + j - i) of the witness


def vertex_potential(cap: tuple[int, int], params: DefectParams) -> int:
    return params.i - params.j + 1 + cap[0] + cap[1]


def _mask_of(subset: Iterable[int], n: int) -> int:
    mask = 0
    for v in subset:
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} out of range")
        mask |= 1 << v
    return mask


def _bit_positions(bits: int) -> Iterator[int]:
    """The positions of the set bits of `bits`, ascending."""
    text = format(bits, "b")[::-1]
    r = text.find("1")
    while r >= 0:
        yield r
        r = text.find("1", r + 1)


def _edges_inside(graph: SimpleGraph, mask: int) -> int:
    masks = graph.adjacency_masks
    return sum((masks[v] & mask).bit_count() for v in _bit_positions(mask)) // 2


def subset_potential(instance: WeightedInstance, subset: Iterable[int]) -> int:
    """Sum of vertex potentials over S minus (i+1) per edge inside S."""
    n = instance.graph.n
    mask = _mask_of(subset, n)
    return _potential_of_mask(instance, mask)


def _potential_of_mask(instance: WeightedInstance, mask: int) -> int:
    params = instance.params
    total = sum(vertex_potential(instance.caps[v], params) for v in _bit_positions(mask))
    return total - (params.i + 1) * _edges_inside(instance.graph, mask)


def min_potential_subset(
    instance: WeightedInstance, mode: str = MODE_NONEMPTY
) -> PotentialReport:
    """Exhaustive minimum of the subset potential.

    Walks all 2^n - 1 nonempty subsets in Gray-code order with incremental
    edge counts.  Ties break toward the smaller subset, then the
    lexicographically smallest sorted vertex tuple.
    """
    if mode not in (MODE_NONEMPTY, MODE_NONEMPTY_PROPER):
        raise ValueError(f"unknown mode {mode!r}")
    graph = instance.graph
    n = graph.n
    if n > DEFAULT_SUBSET_CEILING:
        raise ValueError(f"subset ceiling exceeded: n={n} > {DEFAULT_SUBSET_CEILING}")
    if n == 0 or (n == 1 and mode == MODE_NONEMPTY_PROPER):
        raise ValueError("no subsets in the requested family")

    params = instance.params
    adj = graph.adjacency_masks
    pot = [vertex_potential(instance.caps[v], params) for v in range(n)]
    w_edge = params.i + 1
    full = (1 << n) - 1

    cur_mask = 0
    cur_val = 0  # potential of cur_mask
    best_val: int | None = None
    best_mask = 0
    best_size = 0
    for k in range(1, 1 << n):
        v = (k & -k).bit_length() - 1
        bit = 1 << v
        if cur_mask & bit:
            cur_mask ^= bit
            cur_val -= pot[v] - w_edge * (adj[v] & cur_mask).bit_count()
        else:
            cur_val += pot[v] - w_edge * (adj[v] & cur_mask).bit_count()
            cur_mask ^= bit
        if mode == MODE_NONEMPTY_PROPER and cur_mask == full:
            continue
        size = cur_mask.bit_count()
        if (
            best_val is None
            or cur_val < best_val
            or (
                cur_val == best_val
                and (size, tuple(_bit_positions(cur_mask)))
                < (best_size, tuple(_bit_positions(best_mask)))
            )
        ):
            best_val = cur_val
            best_mask = cur_mask
            best_size = size
    assert best_val is not None
    return PotentialReport(tuple(_bit_positions(best_mask)), best_val, mode)


def sparsity_test(graph: SimpleGraph, params: DefectParams) -> SparsityResult:
    """Check (i+1)|E(G[S])| <= (2i+1)|S| + j - i for every nonempty subset.

    The margin of S, the left side minus the right, equals
    (i - j) - rho(S) under uniform capacities, so the maximum-margin subset
    is the `min_potential_subset` minimiser, with the same tie-break:
    smaller subset first, then the lexicographically smaller one.  Dense
    verdicts report that subset.  Above the subset ceiling only the whole
    vertex set is checked: a violation there still certifies Dense, with
    the whole set as witness (not necessarily the maximum-margin subset),
    but Sparse cannot be certified and raises.
    """
    n = graph.n
    if n == 0:
        return SparsityResult(True, None, None)
    slack = params.i - params.j
    uniform = WeightedInstance.uniform(graph, params)
    if n > DEFAULT_SUBSET_CEILING:
        margin = slack - subset_potential(uniform, range(n))
        if margin > 0:
            return SparsityResult(False, tuple(range(n)), margin)
        raise ValueError(
            f"subset ceiling exceeded: n={n} > {DEFAULT_SUBSET_CEILING} and the "
            "whole graph does not witness density"
        )
    report = min_potential_subset(uniform)
    margin = slack - report.value
    if margin > 0:
        return SparsityResult(False, report.subset, margin)
    return SparsityResult(True, None, None)
