import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdkit import (
    DirectedGraph,
    GraphOracle,
    Mark,
    MarkConflict,
    Pag,
    PagParseError,
    parse_pag,
    run_ccd,
    serialize_pag,
    to_dot,
    verify_pag_against_graph,
)

from helpers import graphs, pags, reference_verify_pag_against_graph


def complete_pag(*vertices):
    return Pag.complete(vertices)


def test_complete_pag_starts_with_circles():
    psi = complete_pag("A", "B", "C")
    assert psi.adjacent("A") == ("B", "C")
    assert psi.mark_at("A", "B") is Mark.CIRCLE
    assert psi.mark_at("B", "A") is Mark.CIRCLE


def test_set_mark_hardens_first_write():
    psi = complete_pag("A", "B")
    psi.set_mark("B", "A", Mark.ARROW)
    assert psi.mark_at("B", "A") is Mark.ARROW
    psi.set_mark("B", "A", Mark.ARROW)  # same value is a no-op
    with pytest.raises(MarkConflict):
        psi.set_mark("B", "A", Mark.TAIL)


def test_set_mark_conflict_carries_context():
    psi = complete_pag("A", "B")
    psi.set_mark("A", "B", Mark.TAIL)
    with pytest.raises(MarkConflict) as exc:
        psi.set_mark("A", "B", Mark.ARROW)
    err = exc.value
    assert (err.at, err.other) == ("A", "B")
    assert err.existing is Mark.TAIL
    assert err.attempted is Mark.ARROW


def test_cannot_mark_missing_edge():
    psi = complete_pag("A", "B", "C")
    psi.remove_edge("A", "B")
    with pytest.raises(ValueError, match="not present"):
        psi.set_mark("A", "B", Mark.ARROW)
    with pytest.raises(ValueError, match="not present"):
        psi.mark_at("A", "B")


def test_remove_edge_drops_triples_on_it():
    psi = complete_pag("A", "B", "C")
    psi.add_underline("A", "B", "C")
    psi.remove_edge("B", "C")
    assert psi.underlines == frozenset()
    # a dotted underline alone is dropped too
    psi = complete_pag("A", "B", "C")
    psi.set_mark("B", "A", Mark.ARROW)
    psi.set_mark("B", "C", Mark.ARROW)
    psi.add_dotted_underline("A", "B", "C")
    psi.remove_edge("A", "B")
    assert psi.dotted_underlines == frozenset()


def test_edge_queries_reject_a_loop_and_an_absent_edge():
    psi = complete_pag("A", "B", "C")
    with pytest.raises(ValueError, match="joins a vertex to itself"):
        psi.has_edge("A", "A")
    psi.remove_edge("A", "B")
    with pytest.raises(ValueError, match="edge B-A is not present"):
        psi.remove_edge("B", "A")


def test_underline_requires_both_edges():
    psi = complete_pag("A", "B", "C")
    psi.remove_edge("A", "B")
    with pytest.raises(ValueError):
        psi.add_underline("A", "B", "C")


def test_dotted_underline_requires_arrow_collider():
    psi = complete_pag("A", "B", "C")
    with pytest.raises(ValueError):
        psi.add_dotted_underline("A", "B", "C")
    psi.set_mark("B", "A", Mark.ARROW)
    psi.set_mark("B", "C", Mark.ARROW)
    psi.add_dotted_underline("A", "B", "C")
    assert psi.dotted_underlines == {("A", "B", "C")}


def test_triple_kinds_are_mutually_exclusive():
    psi = complete_pag("A", "B", "C")
    psi.add_underline("A", "B", "C")
    psi.set_mark("B", "A", Mark.ARROW)
    psi.set_mark("B", "C", Mark.ARROW)
    with pytest.raises(ValueError):
        psi.add_dotted_underline("A", "B", "C")
    psi = complete_pag("A", "B", "C")
    psi.set_mark("B", "A", Mark.ARROW)
    psi.set_mark("B", "C", Mark.ARROW)
    psi.add_dotted_underline("A", "B", "C")
    with pytest.raises(ValueError, match="already dotted"):
        psi.add_underline("C", "B", "A")


def test_triples_are_canonicalized():
    psi = complete_pag("A", "B", "C")
    psi.add_underline("C", "B", "A")
    assert psi.underlines == {("A", "B", "C")}
    assert Pag.canonical_triple("C", "B", "A") in psi.underlines
    with pytest.raises(ValueError):
        Pag.canonical_triple("A", "B", "A")


def test_is_arrow_collider():
    psi = complete_pag("A", "B", "C")
    assert not psi.is_arrow_collider("A", "B", "C")
    psi.set_mark("B", "A", Mark.ARROW)
    psi.set_mark("B", "C", Mark.ARROW)
    assert psi.is_arrow_collider("A", "B", "C")
    assert psi.is_arrow_collider("C", "B", "A")


def test_structural_equality():
    a = complete_pag("A", "B")
    b = complete_pag("A", "B")
    assert a == b
    b.set_mark("A", "B", Mark.TAIL)
    assert a != b
    assert a.copy() == a


def test_pag_is_unequal_to_other_types_and_summarised_by_repr():
    psi = complete_pag("A", "B", "C")
    psi.add_underline("A", "B", "C")
    assert psi != object()
    assert repr(psi) == "Pag(vertices=3, edges=3, underlines=1, dotted=0)"


def test_serialize_glyphs():
    psi = complete_pag("A", "B", "C", "D")
    psi.remove_edge("A", "C")
    psi.remove_edge("A", "D")
    psi.remove_edge("B", "D")
    psi.remove_edge("C", "D")
    psi.set_mark("B", "A", Mark.ARROW)
    psi.set_mark("A", "B", Mark.TAIL)
    psi.set_mark("B", "C", Mark.ARROW)
    psi.set_mark("C", "B", Mark.ARROW)
    text = serialize_pag(psi)
    assert "A --> B" in text
    assert "B <-> C" in text
    assert "vertex D" in text  # isolated vertex survives serialization


def test_pag_round_trip_with_triples_and_isolated_vertex(two_cycle):
    pag, _ = run_ccd(GraphOracle(two_cycle), two_cycle.vertices)
    assert parse_pag(serialize_pag(pag)) == pag
    lonely = Pag.complete(("A", "B", "Z"))
    lonely.remove_edge("A", "Z")
    lonely.remove_edge("B", "Z")
    assert parse_pag(serialize_pag(lonely)) == lonely


@settings(deadline=None)
@given(pags())
def test_pag_round_trip_fuzz(pag):
    text = serialize_pag(pag)
    assert parse_pag(text) == pag
    assert serialize_pag(parse_pag(text)) == text


@pytest.mark.parametrize(
    "line",
    [
        "A -- B",
        "A o- B",
        "A <-o",
        "underline: A B",
        "dotted: A B A",
        "A --> Q_undeclared ->",
    ],
)
def test_parse_rejects_malformed(line):
    with pytest.raises(PagParseError):
        parse_pag(f"# ccd-kit format v1\nvertex A\nvertex B\n{line}\n")


def test_parse_reports_line_numbers():
    with pytest.raises(PagParseError) as exc:
        parse_pag("vertex A\nvertex B\nA ?-? B\n")
    assert "line 3" in str(exc.value)


def test_to_dot_marks(two_cycle):
    pag, _ = run_ccd(GraphOracle(two_cycle), two_cycle.vertices)
    dot = to_dot(pag)
    assert dot.startswith("digraph pag {")
    assert '"A" -> "X" [arrowtail=none, arrowhead=normal];' in dot
    assert '"X" -> "Y" [arrowtail=none, arrowhead=none];' in dot
    assert "// dotted: A X B" in dot


DOT_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_to_dot_escapes_quotes_and_backslashes_in_labels():
    graph = DirectedGraph(edges=frozenset({("A", 'X"1'), ('X"1', "B\\"), ("B\\", '\\"C')}))
    pag, _ = run_ccd(GraphOracle(graph), graph.vertices)
    vertices, edges = [], []
    for line in to_dot(pag).splitlines():
        if line.lstrip().startswith("//"):
            continue
        rest = DOT_STRING.sub("", line)
        assert '"' not in rest  # every quoted ID closes on its line
        ids = [re.sub(r"\\(.)", r"\1", token[1:-1]) for token in DOT_STRING.findall(line)]
        if "->" in rest:
            edges.append(tuple(ids))
        elif ids:
            vertices.extend(ids)
    assert vertices == list(pag.vertices)
    assert edges == [(a, b) for a, b, _, _ in pag.edge_records()]


def test_to_dot_circle_glyph():
    psi = complete_pag("A", "B")
    dot = to_dot(psi)
    assert "arrowtail=odot, arrowhead=odot" in dot


def test_verify_accepts_ccd_output(two_cycle):
    pag, _ = run_ccd(GraphOracle(two_cycle), two_cycle.vertices)
    assert verify_pag_against_graph(pag, two_cycle) == []


def test_verify_flags_wrong_skeleton(two_cycle):
    psi = Pag.complete(two_cycle.vertices)
    violations = verify_pag_against_graph(psi, two_cycle)
    assert any(v.startswith("(i) edge A-B") for v in violations)


def test_verify_flags_false_arrow():
    # arrow at B claims B is not an ancestor of A; the 2-cycle contradicts it
    psi = Pag.complete(("A", "B"))
    psi.set_mark("B", "A", Mark.ARROW)
    g = DirectedGraph(("A", "B"), {("A", "B"), ("B", "A")})
    violations = verify_pag_against_graph(psi, g)
    assert any(v.startswith("(iii)") for v in violations)
    # the same claim at the left endpoint of the A-B record
    psi = Pag.complete(("A", "B"))
    psi.set_mark("A", "B", Mark.ARROW)
    chain = DirectedGraph(("A", "B"), {("A", "B")})
    assert verify_pag_against_graph(psi, chain) == [
        "(iii) arrow at A on A-B, but A is an ancestor of B"
    ]


def test_verify_flags_false_tail(two_cycle):
    psi = Pag.complete(("A", "B"))
    psi.set_mark("A", "B", Mark.TAIL)
    g = DirectedGraph(("A", "B"), {("B", "A")})
    violations = verify_pag_against_graph(psi, g)
    assert any(v.startswith("(ii)") for v in violations)


def test_verify_checks_underline_claims():
    # an underline claims the middle is an ancestor of a flank; true on the
    # chain, false at a collider
    psi = Pag.complete(("A", "B", "C"))
    psi.remove_edge("A", "C")
    psi.add_underline("A", "B", "C")
    chain = DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")})
    assert verify_pag_against_graph(psi, chain) == []
    collider = DirectedGraph(("A", "B", "C"), {("A", "B"), ("C", "B")})
    violations = verify_pag_against_graph(psi, collider)
    assert any(v.startswith("(iv)") for v in violations)


def test_verify_checks_dotted_claims(two_cycle):
    # the dotted triple (A, X, B) claims X does not descend from a common
    # child of A and B; a graph where X is itself that common child fails it
    pag, _ = run_ccd(GraphOracle(two_cycle), two_cycle.vertices)
    g_common = DirectedGraph(two_cycle.vertices, {("A", "X"), ("B", "X")})
    violations = verify_pag_against_graph(pag, g_common, check_edges=False)
    assert any(v.startswith("(v)") for v in violations)


def test_verify_requires_same_vertices(two_cycle):
    with pytest.raises(ValueError):
        verify_pag_against_graph(Pag.complete(("A", "B")), two_cycle)


@given(graphs(max_vertices=4))
def test_ccd_output_always_verifies(g):
    pag, _ = run_ccd(GraphOracle(g), g.vertices)
    assert verify_pag_against_graph(pag, g) == []


@settings(deadline=None)
@given(graphs(max_vertices=7), st.data())
def test_edge_check_by_adjacency_equals_the_subset_sweep(g, data):
    # the CCD output, then a random set of pairs toggled: an edge removed, or
    # a circle-circle edge added
    pag, _ = run_ccd(GraphOracle(g), g.vertices)
    pairs = list(itertools.combinations(g.vertices, 2))
    for a, b in data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)):
        if pag.has_edge(a, b):
            pag.remove_edge(a, b)
        else:
            pag.add_edge(a, b)
    assert verify_pag_against_graph(pag, g) == reference_verify_pag_against_graph(pag, g)
