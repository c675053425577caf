"""Charge redistribution: surplus/ordinary classes and final charges.

Charges are half-integers, so the ledger stores doubled values and never
rounds.  Starting charges are the vertex potential at each vertex and
-(i+1) on each edge; each edge first pays half its charge to each end,
then every surplus vertex (degree 2 with full capacities (i, j)) passes
i/2 to each neighbor and ends at zero.  For an ordinary vertex the closed
form is

    ch(v) = potential(v) - (i+1)/2 * d1(v) - 1/2 * d2(v)

where d1/d2 count ordinary/surplus neighbors.  The grand total equals the
whole-graph potential whenever no two surplus vertices are adjacent; the
ledger flags adjacent surplus pairs instead of inventing a transfer rule
for them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Edge, WeightedInstance
from .potential import subset_potential, vertex_potential

SURPLUS = "surplus"
ORDINARY = "ordinary"


@dataclass(frozen=True)
class ChargeLedger:
    charges_doubled: tuple[int, ...]
    classes: tuple[str, ...]
    d1: tuple[int, ...]
    d2: tuple[int, ...]
    total_doubled: int
    residual_doubled: int  # total_doubled - 2*rho(G, c): 0 when conserved
    adjacent_surplus_edges: tuple[Edge, ...]


def classify_vertices(instance: WeightedInstance) -> tuple[str, ...]:
    """Surplus iff degree 2 with capacities exactly (i, j); ordinary otherwise."""
    params = instance.params
    graph = instance.graph
    full = (params.i, params.j)
    return tuple(
        SURPLUS if graph.degree(v) == 2 and instance.caps[v] == full else ORDINARY
        for v in range(graph.n)
    )


def ordinary_charge_doubled(
    cap: tuple[int, int], d1: int, d2: int, params
) -> int:
    """Twice the closed-form charge of an ordinary vertex."""
    return 2 * vertex_potential(cap, params) - (params.i + 1) * d1 - d2


def charges(instance: WeightedInstance) -> ChargeLedger:
    """Final charges in doubled-integer units, plus the class bookkeeping."""
    graph = instance.graph
    params = instance.params
    classes = classify_vertices(instance)
    d1 = [0] * graph.n
    d2 = [0] * graph.n
    for v in range(graph.n):
        for u in graph.adjacency[v]:
            if classes[u] == SURPLUS:
                d2[v] += 1
            else:
                d1[v] += 1
    doubled = []
    for v in range(graph.n):
        if classes[v] == SURPLUS:
            doubled.append(0)
        else:
            doubled.append(
                ordinary_charge_doubled(instance.caps[v], d1[v], d2[v], params)
            )
    adjacent = tuple(
        e
        for e in graph.sorted_edges
        if classes[e[0]] == SURPLUS and classes[e[1]] == SURPLUS
    )
    total = sum(doubled)
    return ChargeLedger(
        charges_doubled=tuple(doubled),
        classes=classes,
        d1=tuple(d1),
        d2=tuple(d2),
        total_doubled=total,
        residual_doubled=total - 2 * subset_potential(instance, range(graph.n)),
        adjacent_surplus_edges=adjacent,
    )


def verify_total_charge(instance: WeightedInstance) -> int:
    """Doubled residual of the conservation identity: 2*sum(ch) - 2*rho(G, c).

    Exactly 0 whenever no two surplus vertices are adjacent; otherwise the
    nonzero residual is returned and the ledger flags the offending edges.
    """
    return charges(instance).residual_doubled
