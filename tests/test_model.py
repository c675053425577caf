import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdefect import (
    PARALLEL,
    TWISTED,
    CoverSigning,
    DefectParams,
    InstanceFormatError,
    SimpleGraph,
    WeightedInstance,
    flag_path_instance,
    hard_cover_signing,
    parse_instance,
    serialize_instance,
)
from dpdefect.model import MAX_VERTICES
from conftest import (
    build_cover_graph,
    cycle_graph,
    k2,
    random_graph,
    random_instance,
    random_signing,
)


def test_parse_k2_signed():
    text = "dpgraph 1\nparams i=1 j=2\nvertices 2\nedge 0 1 P\n"
    inst, signing = parse_instance(text)
    assert inst.graph == SimpleGraph.from_edges(2, [(0, 1)])
    assert inst.caps == ((1, 2), (1, 2))
    assert signing is not None
    assert signing.as_dict() == {(0, 1): PARALLEL}


def test_parse_single_vertex_with_cap():
    text = "dpgraph 1\nparams i=1 j=2\nvertices 1\ncap 0 -1 -1\n"
    inst, signing = parse_instance(text)
    assert inst.graph.n == 1
    assert inst.caps[0] == (-1, -1)
    assert signing is None


def test_parse_comments_and_blanks():
    text = "# a comment\ndpgraph 1\n\nparams i=0 j=0\nvertices 2  # trailing\nedge 0 1\n"
    inst, signing = parse_instance(text)
    assert inst.graph.edge_count() == 1
    assert signing is None


def test_parse_loop_reports_line():
    text = "dpgraph 1\nparams i=1 j=2\nvertices 2\nedge 0 0 P\n"
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert exc.value.line == 4
    assert "loop" in str(exc.value)


def test_parse_mixed_signs_rejected():
    text = "dpgraph 1\nparams i=1 j=2\nvertices 3\nedge 0 1 P\nedge 1 2\n"
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert exc.value.line == 5


@pytest.mark.parametrize(
    "body,line,fragment",
    [
        ("edge 0 1 P\nedge 1 0 T\n", 5, "duplicate edge"),
        ("cap 0 2 2\n", 4, "out of range"),
        ("cap 5 0 0\n", 4, "out of range"),
        ("frob 1 2\n", 4, "unknown keyword"),
        ("edge 0 1 X\n", 4, "unknown sign"),
        ("cap 0 0 0\ncap 0 0 0\n", 5, "duplicate cap"),
    ],
)
def test_parse_errors(body, line, fragment):
    text = "dpgraph 1\nparams i=1 j=2\nvertices 3\n" + body
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


def test_parse_missing_header():
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("params i=1 j=2\n")
    assert exc.value.line == 1


def test_parse_non_ascii_vertex_count():
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("dpgraph 1\nparams i=1 j=2\nvertices \u00b2\n")
    assert exc.value.line == 3
    assert "malformed vertices" in str(exc.value)


@pytest.mark.parametrize(
    "body,line,fragment",
    [
        ("params i=\u0661 j=2\nvertices 2\n", 2, "malformed params"),
        ("params i=1 j=\uff12\nvertices 2\n", 2, "malformed params"),
        ("params i=1 j=2\nvertices 2\ncap \u0661 0 0\n", 4, "malformed cap"),
        ("params i=1 j=2\nvertices 2\ncap 1 0 -\u0661\n", 4, "malformed cap"),
        ("params i=1 j=2\nvertices 2\ncap +1 0 0\n", 4, "malformed cap"),
        ("params i=1 j=2\nvertices 2\nedge 0 \u0661 P\n", 4, "malformed edge"),
        ("params i=1 j=2\nvertices 2\nedge 0 1_0 P\n", 4, "malformed edge"),
    ],
)
def test_parse_rejects_non_ascii_integers(body, line, fragment):
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("dpgraph 1\n" + body)
    assert exc.value.line == line
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "count,fragment",
    [
        (str(MAX_VERTICES + 1), "exceeds the ceiling"),
        ("1" + "0" * 12, "exceeds the ceiling"),
        ("9" * 5000, "malformed vertices"),  # past int()'s digit limit
        ("-1", "malformed vertices"),
    ],
)
def test_parse_vertex_count_ceiling(count, fragment):
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(f"dpgraph 1\nparams i=1 j=2\nvertices {count}\n")
    assert exc.value.line == 3
    assert fragment in str(exc.value)


def test_parse_repeated_params_key():
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("dpgraph 1\nparams i=1 i=0 j=2\nvertices 2\n")
    assert exc.value.line == 2
    assert "repeated key" in str(exc.value)


def test_roundtrip_k2():
    inst = WeightedInstance.uniform(k2(), DefectParams(1, 2))
    signing = CoverSigning.uniform(inst.graph, TWISTED)
    text = serialize_instance(inst, signing)
    inst2, signing2 = parse_instance(text)
    assert inst2 == inst and signing2 == signing


def test_roundtrip_empty_graph_header_only():
    inst = WeightedInstance.uniform(SimpleGraph(0, frozenset()), DefectParams(1, 2))
    text = serialize_instance(inst)
    assert text.splitlines() == ["dpgraph 1", "params i=1 j=2", "vertices 0"]
    inst2, signing2 = parse_instance(text)
    assert inst2 == inst and signing2 is None


def test_roundtrip_flag_path_instance():
    inst, spec = flag_path_instance(DefectParams(1, 2), 1)
    signing = hard_cover_signing(spec)
    assert inst.graph.n == 16
    assert inst.graph.edge_count() == 25
    text = serialize_instance(inst, signing)
    inst2, signing2 = parse_instance(text)
    assert (inst2, signing2) == (inst, signing)
    assert serialize_instance(inst2, signing2) == text


def test_roundtrip_random_instances():
    rng = random.Random(424242)
    for _ in range(200):
        inst = random_instance(rng)
        signing = random_signing(rng, inst.graph) if rng.random() < 0.5 else None
        if signing is not None and not inst.graph.edges:
            signing = None  # edgeless: sign presence is carried by edge lines
        text = serialize_instance(inst, signing)
        assert parse_instance(text) == (inst, signing)


# Arguments that reach every branch of the parser: in- and out-of-range
# integers, integers int() takes but the grammar does not, digit strings
# around int()'s length limit, and arbitrary short text.
_ARGS = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["-0", "+1", "1_0", "١", "²", "", "=", "P", "T", "X", "#"]),
    st.integers(4290, 4310).map(lambda k: "7" * k),
    st.text(max_size=3),
)
_LINES = st.one_of(
    st.builds(
        lambda keyword, args: " ".join([keyword, *args]),
        st.sampled_from(["dpgraph", "params", "vertices", "cap", "edge"]),
        st.lists(
            st.one_of(_ARGS, st.builds("{}={}".format, st.sampled_from("ijk"), _ARGS)),
            max_size=4,
        ),
    ),
    st.text(max_size=8),
)


@st.composite
def instance_like_texts(draw):
    """Text whose lines mostly follow the grammar's shape: an optional
    well-formed header, params and vertices line, then lines of keywords
    with random arguments, joined by any line break."""
    head = [
        "dpgraph 1",
        f"params i=1 j={draw(st.integers(0, 3))}",
        f"vertices {draw(st.integers(0, 4))}",
    ]
    lines = [line for line in head if draw(st.integers(0, 4))]
    lines += draw(st.lists(_LINES, max_size=6))
    return draw(st.sampled_from(["\n", "\r\n", "\x0b"])).join(lines)


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(), instance_like_texts()))
def test_parse_raises_only_instance_format_errors(text):
    try:
        parse_instance(text)
    except InstanceFormatError:
        pass


@st.composite
def instances_with_signings(draw):
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    i = draw(st.integers(0, 3))
    params = DefectParams(i, draw(st.integers(i, i + 4)))
    cap = st.tuples(st.integers(-1, params.i), st.integers(-1, params.j))
    caps = tuple(draw(st.lists(cap, min_size=n, max_size=n)))
    inst = WeightedInstance(SimpleGraph.from_edges(n, edges), params, caps)
    signing = None
    if edges and draw(st.booleans()):  # an edgeless file carries no signs
        signing = CoverSigning.from_bits(inst.graph, draw(st.integers(0, (1 << len(edges)) - 1)))
    return inst, signing


@settings(max_examples=300, deadline=None)
@given(instances_with_signings())
def test_parse_inverts_serialize(case):
    inst, signing = case
    assert parse_instance(serialize_instance(inst, signing)) == (inst, signing)


def test_graph_equality_order_independent():
    a = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    b = SimpleGraph.from_edges(3, [(2, 1), (1, 0)])
    assert a == b and hash(a) == hash(b)


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 2)])


def test_params_and_caps_validation():
    with pytest.raises(ValueError):
        DefectParams(2, 1)
    with pytest.raises(ValueError):
        DefectParams(-1, 0)
    graph = k2()
    with pytest.raises(ValueError, match=r"^capacities defined for 1 vertices, graph has 2$"):
        WeightedInstance(graph, DefectParams(1, 2), ((0, 0),))
    with pytest.raises(
        ValueError, match=r"^capacity \(2, 0\) of vertex 0 outside \[-1, 1\] x \[-1, 2\]$"
    ):
        WeightedInstance(graph, DefectParams(1, 2), ((2, 0), (0, 0)))


def test_signing_must_cover_edges():
    graph = cycle_graph(3)
    with pytest.raises(ValueError, match="missing sign"):
        CoverSigning.from_dict(graph, {(0, 1): PARALLEL, (1, 2): PARALLEL})
    s = CoverSigning.uniform(graph, PARALLEL)
    with pytest.raises(ValueError):
        s.signs_for(k2())


def test_cover_graph_k2_parallel():
    graph = k2()
    cg = build_cover_graph(graph, CoverSigning.uniform(graph, PARALLEL))
    assert cg.n_nodes == 4
    assert cg.edges == frozenset({(0, 1), (2, 3), (0, 2), (1, 3)})


def test_cover_graph_k2_twisted():
    graph = k2()
    cg = build_cover_graph(graph, CoverSigning.uniform(graph, TWISTED))
    assert cg.edges == frozenset({(0, 1), (2, 3), (0, 3), (1, 2)})


def test_cover_graph_c3_all_parallel():
    graph = cycle_graph(3)
    cg = build_cover_graph(graph, CoverSigning.uniform(graph, PARALLEL))
    assert cg.n_nodes == 6
    assert len(cg.edges) == 9
    assert all(cg.node_degree(x) == 3 for x in range(6))


def test_cover_graph_degrees_and_matchings():
    rng = random.Random(7)
    for _ in range(30):
        graph = random_graph(rng, rng.randint(1, 7), 0.5)
        signing = random_signing(rng, graph)
        cg = build_cover_graph(graph, signing)
        for v in range(graph.n):
            want = 1 + graph.degree(v)
            assert cg.node_degree(2 * v) == want
            assert cg.node_degree(2 * v + 1) == want
        for (u, v) in graph.sorted_edges:
            cross = cg.cross_edges(u, v)
            assert len(cross) == 2
            nodes = [x for e in cross for x in e]
            assert len(set(nodes)) == 4  # perfect matching: node-disjoint
