"""Core data model: graphs, covers, capacities and the instance file format.

Every vertex of a simple graph carries a two-node list {poor, rich}, and
every edge carries one of the two perfect matchings between the endpoint
lists.  The matching is encoded as a sign:

    PARALLEL (``P``)  joins poor-poor and rich-rich,
    TWISTED  (``T``)  joins poor-rich and rich-poor.

With choices encoded as poor=0 / rich=1, the chosen nodes of adjacent
vertices are adjacent in the cover exactly when ``x_u XOR x_v == sign``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

Edge = tuple[int, int]

POOR, RICH = 0, 1
PARALLEL, TWISTED = 0, 1

CHOICE_CHARS = "PR"
SIGN_CHARS = "PT"

FORMAT_HEADER = "dpgraph 1"
MAX_VERTICES = 100_000  # ceiling on `vertices N`, checked before any allocation


class InstanceFormatError(ValueError):
    """Raised on malformed instance text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _ascii_int(token: str) -> int:
    """An optional minus sign and ASCII digits as an int; ValueError
    otherwise (int() alone also takes '+', '_' and non-ASCII digits)."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph on vertices 0..n-1.

    Edges are stored as a frozenset of normalized (min, max) pairs, so two
    graphs with equal edge sets compare equal regardless of construction
    order.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range or not normalized")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """Build a graph from arbitrary (u, v) pairs, normalizing endpoints."""
        seen: set[Edge] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            e = _normalize_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        return cls(n, frozenset(seen))

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        """Canonical edge order: sorted by (min endpoint, max endpoint)."""
        return tuple(sorted(self.edges))

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: k for k, e in enumerate(self.sorted_edges)}

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.sorted_edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(a) for a in nbrs)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor sets as bitmasks (bit v set iff v adjacent)."""
        masks = [0] * self.n
        for u, v in self.sorted_edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def without_edge(self, edge: tuple[int, int]) -> "SimpleGraph":
        e = _normalize_edge(*edge)
        if e not in self.edges:
            raise ValueError(f"edge {e} not in graph")
        return SimpleGraph(self.n, self.edges - {e})

    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class DefectParams:
    """Global defect bounds: poor nodes tolerate i conflicts, rich nodes j."""

    i: int
    j: int

    def __post_init__(self):
        if self.i < 0 or self.j < self.i:
            raise ValueError(f"need 0 <= i <= j, got i={self.i}, j={self.j}")


@dataclass(frozen=True)
class WeightedInstance:
    """A graph together with defect parameters and per-vertex capacities:
    `caps[v]` is vertex v's pair (c1, c2) in {-1..i} x {-1..j}, and a
    capacity of -1 forbids the corresponding node from being chosen at all.
    """

    graph: SimpleGraph
    params: DefectParams
    caps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n, i, j = self.graph.n, self.params.i, self.params.j
        if len(self.caps) != n:
            raise ValueError(f"capacities defined for {len(self.caps)} vertices, graph has {n}")
        for v, (c1, c2) in enumerate(self.caps):
            if not (-1 <= c1 <= i) or not (-1 <= c2 <= j):
                raise ValueError(f"capacity {(c1, c2)} of vertex {v} outside [-1, {i}] x [-1, {j}]")

    @classmethod
    def uniform(cls, graph: SimpleGraph, params: DefectParams) -> "WeightedInstance":
        return cls(graph, params, ((params.i, params.j),) * graph.n)

    def with_caps(self, pairs: Iterable[tuple[int, int]]) -> "WeightedInstance":
        return WeightedInstance(self.graph, self.params, tuple(pairs))

    def without_edge(self, edge: tuple[int, int]) -> "WeightedInstance":
        return WeightedInstance(self.graph.without_edge(edge), self.params, self.caps)

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class CoverSigning:
    """One sign per edge, fixing a full 2-fold cover of the host graph.

    Signs are stored aligned with the canonical (sorted) edge order.
    """

    edges: tuple[Edge, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.signs):
            raise ValueError("signs and edges differ in length")
        if any(s not in (PARALLEL, TWISTED) for s in self.signs):
            raise ValueError("signs must be PARALLEL (0) or TWISTED (1)")
        if tuple(sorted(self.edges)) != self.edges:
            raise ValueError("edges must be in canonical sorted order")

    @classmethod
    def from_dict(cls, graph: SimpleGraph, mapping: Mapping[Edge, int]) -> "CoverSigning":
        edges = graph.sorted_edges
        missing = [e for e in edges if e not in mapping]
        if missing:
            raise ValueError(f"missing sign for edge {missing[0]}")
        if len(mapping) != len(edges):
            extra = set(mapping) - set(edges)
            raise ValueError(f"sign given for non-edge {sorted(extra)[0]}")
        return cls(edges, tuple(mapping[e] for e in edges))

    @classmethod
    def from_bits(cls, graph: SimpleGraph, bits: int) -> "CoverSigning":
        """Signing number `bits` in binary-counter order (edge k is bit k)."""
        edges = graph.sorted_edges
        return cls(edges, tuple((bits >> k) & 1 for k in range(len(edges))))

    @classmethod
    def uniform(cls, graph: SimpleGraph, sign: int) -> "CoverSigning":
        edges = graph.sorted_edges
        return cls(edges, (sign,) * len(edges))

    def as_dict(self) -> dict[Edge, int]:
        return dict(zip(self.edges, self.signs))

    def signs_for(self, graph: SimpleGraph) -> tuple[int, ...]:
        """Signs aligned with `graph.sorted_edges`; the edge sets must match."""
        if self.edges != graph.sorted_edges:
            raise ValueError("signing does not cover exactly the graph's edges")
        return self.signs


ColoringMap = tuple[int, ...]


def map_to_str(cmap: Iterable[int]) -> str:
    return "".join(CHOICE_CHARS[x] for x in cmap)


def map_from_str(text: str) -> ColoringMap:
    try:
        return tuple(CHOICE_CHARS.index(ch) for ch in text.strip().upper())
    except ValueError:
        raise ValueError(f"coloring map must use only characters P/R: {text!r}") from None


# ---------------------------------------------------------------------------
# Instance file format
# ---------------------------------------------------------------------------

def parse_instance(text: str) -> tuple[WeightedInstance, CoverSigning | None]:
    """Parse instance-file text.

    Grammar (one declaration per line, `#` comments and blank lines ignored):

        dpgraph 1
        params i=<int> j=<int>
        vertices <n>             # 0 <= n <= MAX_VERTICES
        cap <v> <c1> <c2>        # optional; default (i, j)
        edge <u> <v> [P|T]       # sign optional, but all-or-none per file

    An integer is ASCII digits with an optional leading minus sign.
    Returns the instance and, when every edge line carried a sign, the
    cover signing.  Raises InstanceFormatError with a line number otherwise.
    """
    params: DefectParams | None = None
    n: int | None = None
    caps: dict[int, tuple[int, int]] = {}
    edges: dict[Edge, int | None] = {}
    saw_header = False
    saw_signed = saw_unsigned = False

    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()

        if not saw_header:
            if tokens != FORMAT_HEADER.split():
                raise InstanceFormatError(lineno, f"expected header '{FORMAT_HEADER}'")
            saw_header = True
            continue

        keyword = tokens[0]
        if keyword == "params":
            if params is not None:
                raise InstanceFormatError(lineno, "duplicate params line")
            keys = [tok.split("=", 1)[0] for tok in tokens[1:]]
            if len(set(keys)) != len(keys):
                raise InstanceFormatError(lineno, "repeated key in params line")
            try:
                fields = dict(tok.split("=", 1) for tok in tokens[1:])
                params = DefectParams(_ascii_int(fields.pop("i")), _ascii_int(fields.pop("j")))
                if fields:
                    raise KeyError
            except (ValueError, KeyError):
                raise InstanceFormatError(lineno, "malformed params line") from None
        elif keyword == "vertices":
            if n is not None:
                raise InstanceFormatError(lineno, "duplicate vertices line")
            try:
                if len(tokens) != 2 or tokens[1].startswith("-"):
                    raise ValueError
                n = _ascii_int(tokens[1])
            except ValueError:
                raise InstanceFormatError(lineno, "malformed vertices line") from None
            if n > MAX_VERTICES:
                raise InstanceFormatError(
                    lineno, f"vertex count {n} exceeds the ceiling {MAX_VERTICES}"
                )
        elif keyword == "cap":
            if params is None or n is None:
                raise InstanceFormatError(lineno, "cap line before params/vertices")
            try:
                v, c1, c2 = (_ascii_int(t) for t in tokens[1:])
            except ValueError:
                raise InstanceFormatError(lineno, "malformed cap line") from None
            if not (0 <= v < n):
                raise InstanceFormatError(lineno, f"vertex {v} out of range")
            if v in caps:
                raise InstanceFormatError(lineno, f"duplicate cap line for vertex {v}")
            if not (-1 <= c1 <= params.i) or not (-1 <= c2 <= params.j):
                raise InstanceFormatError(lineno, f"capacity {(c1, c2)} out of range")
            caps[v] = (c1, c2)
        elif keyword == "edge":
            if params is None or n is None:
                raise InstanceFormatError(lineno, "edge line before params/vertices")
            if len(tokens) not in (3, 4):
                raise InstanceFormatError(lineno, "malformed edge line")
            try:
                u, v = _ascii_int(tokens[1]), _ascii_int(tokens[2])
            except ValueError:
                raise InstanceFormatError(lineno, "malformed edge line") from None
            if u == v:
                raise InstanceFormatError(lineno, f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceFormatError(lineno, f"edge ({u}, {v}) out of range")
            e = _normalize_edge(u, v)
            if e in edges:
                raise InstanceFormatError(lineno, f"duplicate edge {e}")
            if len(tokens) == 4:
                if tokens[3] not in ("P", "T"):
                    raise InstanceFormatError(lineno, f"unknown sign {tokens[3]!r}")
                if saw_unsigned:
                    raise InstanceFormatError(lineno, "mixed signed and unsigned edges")
                saw_signed = True
                edges[e] = SIGN_CHARS.index(tokens[3])
            else:
                if saw_signed:
                    raise InstanceFormatError(lineno, "mixed signed and unsigned edges")
                saw_unsigned = True
                edges[e] = None
        else:
            raise InstanceFormatError(lineno, f"unknown keyword {keyword!r}")

    final = max(lineno, 1)
    if not saw_header:
        raise InstanceFormatError(1, f"missing header '{FORMAT_HEADER}'")
    if params is None:
        raise InstanceFormatError(final, "missing params line")
    if n is None:
        raise InstanceFormatError(final, "missing vertices line")

    graph = SimpleGraph(n, frozenset(edges))
    default = (params.i, params.j)
    instance = WeightedInstance(graph, params, tuple(caps.get(v, default) for v in range(n)))

    signing = None
    if saw_signed:
        signing = CoverSigning.from_dict(graph, {e: s for e, s in edges.items()})
    return instance, signing


def serialize_instance(instance: WeightedInstance, signing: CoverSigning | None = None) -> str:
    """Emit the canonical text form: sorted edges and explicit capacities.

    parse_instance(serialize_instance(inst, s)) reproduces (inst, s) exactly.
    """
    lines = [
        FORMAT_HEADER,
        f"params i={instance.params.i} j={instance.params.j}",
        f"vertices {instance.graph.n}",
    ]
    for v in range(instance.graph.n):
        c1, c2 = instance.caps[v]
        lines.append(f"cap {v} {c1} {c2}")
    signs = signing.signs_for(instance.graph) if signing is not None else None
    for k, (u, v) in enumerate(instance.graph.sorted_edges):
        if signs is None:
            lines.append(f"edge {u} {v}")
        else:
            lines.append(f"edge {u} {v} {SIGN_CHARS[signs[k]]}")
    return "\n".join(lines) + "\n"


def instance_digest(instance: WeightedInstance, signing: CoverSigning | None = None) -> str:
    """SHA-256 of the canonical serialization; stable across runs."""
    return hashlib.sha256(serialize_instance(instance, signing).encode()).hexdigest()
