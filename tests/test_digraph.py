import pytest
from hypothesis import given, settings

from ccdkit import (
    DirectedGraph,
    GraphParseError,
    PagParseError,
    SemParseError,
    UnknownVertexError,
    parse_graph,
    parse_pag,
    parse_sem,
    serialize_graph,
)

from helpers import exhaustive_graphs, graphs, labelled_graphs


def test_vertices_sorted_and_edge_endpoints_absorbed():
    g = DirectedGraph(("C", "A"), {("B", "A")})
    assert g.vertices == ("A", "B", "C")
    assert g.edges == frozenset({("B", "A")})


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        DirectedGraph(("A",), {("A", "A")})


def test_adjacency_of_a_vertex_with_itself_is_undefined():
    g = DirectedGraph(("A", "B"), {("A", "B")})
    with pytest.raises(ValueError, match="distinct vertices"):
        g.adjacent_in_graph("A", "A")


@pytest.mark.parametrize("label", ["", "two words", "a\tb", "#lead", "->", "x,y"])
def test_bad_labels_rejected(label):
    with pytest.raises(ValueError):
        DirectedGraph((label,), set())


def test_parents_children_single_edge():
    g = DirectedGraph(("A", "B"), {("A", "B")})
    assert g.parents("B") == frozenset({"A"})
    assert g.parents("A") == frozenset()
    assert g.children("A") == frozenset({"B"})
    assert g.children("B") == frozenset()


def test_unknown_vertex_raises():
    g = DirectedGraph(("A", "B"), {("A", "B")})
    with pytest.raises(UnknownVertexError):
        g.parents("Z")
    with pytest.raises(UnknownVertexError):
        g.ancestors(("A", "Z"))


def test_ancestors_of_two_cycle_cover_both_vertices():
    g = DirectedGraph(("X", "Y"), {("X", "Y"), ("Y", "X")})
    assert g.ancestors(("X",)) == frozenset({"X", "Y"})
    assert g.descendants(("X",)) == frozenset({"X", "Y"})


def test_is_ancestor_reflexive():
    g = DirectedGraph(("A", "B"), set())
    assert g.is_ancestor("A", "A")
    assert not g.is_ancestor("A", "B")


def test_ancestors_accepts_single_label():
    g = DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")})
    assert g.ancestors("C") == frozenset({"A", "B", "C"})


@given(graphs(max_vertices=5))
def test_ancestor_descendant_duality(g):
    for x in g.vertices:
        for y in g.vertices:
            assert (x in g.ancestors((y,))) == (y in g.descendants((x,)))


@given(graphs(max_vertices=5))
def test_closures_reflexive(g):
    for x in g.vertices:
        assert x in g.ancestors((x,))
        assert x in g.descendants((x,))


@given(graphs(max_vertices=7))
def test_descendants_are_what_a_directed_walk_reaches(g):
    for x in g.vertices:
        seen, todo = {x}, [x]
        while todo:
            for child in g.children(todo.pop()) - seen:
                seen.add(child)
                todo.append(child)
        assert g.descendants(x) == seen


def test_adjacent_in_graph_edge_case():
    g = DirectedGraph(("A", "B"), {("A", "B")})
    assert g.adjacent_in_graph("A", "B")


def test_adjacent_in_graph_childless_collider_is_not_adjacent():
    g = DirectedGraph(("A", "B", "Z"), {("A", "Z"), ("B", "Z")})
    assert not g.adjacent_in_graph("A", "B")


def test_adjacent_in_graph_common_child_ancestor_of_flank():
    g = DirectedGraph(("A", "B", "Z"), {("A", "Z"), ("B", "Z"), ("Z", "A")})
    assert g.adjacent_in_graph("A", "B")


def test_has_directed_cycle():
    assert DirectedGraph(("X", "Y"), {("X", "Y"), ("Y", "X")}).has_directed_cycle()
    assert not DirectedGraph(("X", "Y"), {("X", "Y")}).has_directed_cycle()


@given(graphs(max_vertices=6))
def test_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g


@settings(deadline=None)
@given(labelled_graphs())
def test_round_trip_fuzz(g):
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text


def test_parse_implicit_vertex_declaration():
    g = parse_graph("A -> B\n")
    assert g.vertices == ("A", "B")
    assert g.edges == frozenset({("A", "B")})


def test_parse_isolated_vertex_and_comments():
    g = parse_graph("# a note\nvertex C\nA -> B\n\n")
    assert g.vertices == ("A", "B", "C")


@pytest.mark.parametrize(
    "text",
    ["A ->", "A -> B -> C", "A <- B", "vertex", "A -> A"],
)
def test_parse_rejects_malformed_lines(text):
    with pytest.raises(GraphParseError):
        parse_graph(text)


# lines 1-4: header, blank, blanks only, indented comment
_PREAMBLE = "# ccd-kit format v1\n\n   \n  # a comment\n"


@pytest.mark.parametrize(
    "parse, error, good, bad",
    [
        pytest.param(parse_graph, GraphParseError, "A -> B", "A -> #B", id="graph-label"),
        pytest.param(parse_graph, GraphParseError, "A -> B", "A => B", id="graph-syntax"),
        pytest.param(parse_graph, GraphParseError, "A -> B", "C -> C", id="graph-self-loop"),
        pytest.param(parse_pag, PagParseError, "A o-> B", "vertex x,y", id="pag-label"),
        pytest.param(parse_pag, PagParseError, "A o-> B", "A o=> B", id="pag-syntax"),
        pytest.param(parse_pag, PagParseError, "A o-> B", "A o-o B", id="pag-duplicate-edge"),
        pytest.param(parse_sem, SemParseError, "B <- A 0.5", "var -> 1.0", id="sem-label"),
        pytest.param(parse_sem, SemParseError, "B <- A 0.5", "B <- A", id="sem-syntax"),
        pytest.param(parse_sem, SemParseError, "B <- A 0.5", "var A one", id="sem-number"),
        pytest.param(parse_sem, SemParseError, "var A 1.0", "B <- A nan", id="sem-nan"),
        pytest.param(parse_sem, SemParseError, "B <- A 0.5", "var A inf", id="sem-inf-variance"),
        pytest.param(parse_pag, PagParseError, "A o-> B", "A o-o A", id="pag-self-loop"),
        pytest.param(parse_sem, SemParseError, "B <- A 0.5", "B <- B 0.5", id="sem-self-dependence"),
    ],
)
def test_line_files_report_the_line_number_in_their_own_error(parse, error, good, bad):
    text = _PREAMBLE + good + "\n\n# another comment\n" + bad + "\n"
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert type(exc.value) is error
    assert str(exc.value).startswith("line 8: ")


def test_serialization_is_sorted(two_cycle):
    lines = serialize_graph(two_cycle).splitlines()
    assert lines[0] == "# ccd-kit format v1"
    assert lines[1:5] == ["vertex A", "vertex B", "vertex X", "vertex Y"]
    assert lines[5:] == ["A -> X", "B -> Y", "X -> Y", "Y -> X"]


def test_exhaustive_three_vertex_graph_count():
    assert sum(1 for _ in exhaustive_graphs(("A", "B", "C"))) == 64
