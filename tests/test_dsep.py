import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdkit import (
    DataMatrix,
    DirectedGraph,
    GraphOracle,
    SeparationQuery,
    UnknownVertexError,
    brute_force_d_connected,
    d_connected,
    d_separated,
    partial_correlation,
    partial_correlation_from_covariance,
    partial_correlation_recursive,
    witness_separator,
)
from ccdkit._reach import reach_set

from helpers import all_queries, exhaustive_graphs, graphs, random_query, reference_reach_set


def test_query_rejects_overlap():
    with pytest.raises(ValueError):
        SeparationQuery.of("A", "A", ())
    with pytest.raises(ValueError):
        SeparationQuery.of("A", "B", ("A",))


def test_query_rejects_empty_sides():
    with pytest.raises(ValueError):
        SeparationQuery(frozenset(), frozenset({"B"}), frozenset())


def test_d_connected_rejects_bad_queries(two_cycle):
    with pytest.raises(ValueError):
        d_connected(two_cycle, "A", "A")
    with pytest.raises(ValueError):
        d_connected(two_cycle, "A", "B", ("B",))
    with pytest.raises(ValueError):
        d_connected(two_cycle, (), "B")
    with pytest.raises(UnknownVertexError):
        d_connected(two_cycle, "A", "Q")
    with pytest.raises(UnknownVertexError):
        d_connected(two_cycle, "A", "B", (v for v in ("X", "Q")))
    with pytest.raises(TypeError):
        d_connected(two_cycle, "A", "B", (["X"],))


def test_single_edge_always_connects():
    g = DirectedGraph(("A", "B"), {("A", "B")})
    assert d_connected(g, "A", "B")
    assert d_connected(g, "A", "B", ())


def test_collider_blocks_marginally_opens_conditioned():
    g = DirectedGraph(("A", "B", "C"), {("A", "B"), ("C", "B")})
    assert not d_connected(g, "A", "C")
    assert d_connected(g, "A", "C", ("B",))


def test_two_cycle_independencies(two_cycle):
    assert not d_connected(two_cycle, "A", "B")
    assert not d_connected(two_cycle, "A", "B", ("X", "Y"))
    assert d_connected(two_cycle, "A", "B", ("X",))


def test_brute_force_matches_on_spec_cases(two_cycle):
    g = DirectedGraph(("A", "B", "C"), {("A", "B"), ("C", "B")})
    assert not brute_force_d_connected(g, "A", "C")
    assert brute_force_d_connected(g, "A", "C", ("B",))
    assert not brute_force_d_connected(two_cycle, "A", "B", ("X", "Y"))


def test_conditioned_descendant_of_collider_opens_path():
    # A -> B <- C, B -> D: conditioning on the descendant D activates the collider
    g = DirectedGraph(("A", "B", "C", "D"), {("A", "B"), ("C", "B"), ("B", "D")})
    assert d_connected(g, "A", "C", ("D",))
    assert brute_force_d_connected(g, "A", "C", ("D",))


def test_set_valued_endpoints():
    g = DirectedGraph(("A", "B", "C"), {("A", "B")})
    assert d_connected(g, ("A", "C"), ("B",))
    assert not d_connected(g, ("C",), ("B",))


def test_engine_equals_brute_force_all_three_vertex_graphs():
    labels = ("A", "B", "C")
    for g in exhaustive_graphs(labels):
        for x, y, s in all_queries(labels):
            assert d_connected(g, x, y, s) == brute_force_d_connected(g, x, y, s)


@settings(max_examples=200)
@given(graphs(min_vertices=4, max_vertices=5))
def test_engine_equals_brute_force_random(g):
    rng = random.Random(len(g.edges))
    for _ in range(5):
        x, y, s = random_query(g, rng)
        assert d_connected(g, x, y, s) == brute_force_d_connected(g, x, y, s)


@given(graphs(max_vertices=5))
def test_symmetry(g):
    rng = random.Random(len(g.edges) * 31)
    x, y, s = random_query(g, rng)
    assert d_connected(g, x, y, s) == d_connected(g, y, x, s)


@settings(max_examples=300)
@given(graphs(max_vertices=7), st.data())
def test_bounce_rule_reaches_what_the_ancestor_rule_reaches(g, data):
    n = len(g.vertices)
    z_mask = data.draw(st.integers(0, 2**n - 1), label="z_mask")
    for x in range(n):
        z = z_mask & ~(1 << x)
        got = reach_set(g._parent_masks, g._child_masks, 1 << x, z)
        assert got == reference_reach_set(g, 1 << x, z)


def test_large_graph_uses_python_backend():
    labels = tuple(f"v{i:02d}" for i in range(70))
    g = DirectedGraph(labels, {(labels[i], labels[i + 1]) for i in range(69)})
    assert d_connected(g, labels[0], labels[-1])
    assert not d_connected(g, labels[0], labels[-1], (labels[30],))


def test_witness_separator_childless_collider():
    g = DirectedGraph(("A", "B", "C"), {("A", "B"), ("C", "B")})
    assert witness_separator(g, "A", "C") == set()
    assert d_separated(g, "A", "C", ())


def test_witness_separator_chain():
    g = DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")})
    assert witness_separator(g, "A", "C") == {"B"}


def test_witness_separator_keeps_requested_vertex(two_cycle):
    t = witness_separator(two_cycle, "A", "B", ("X",))
    assert "X" in t
    assert d_separated(two_cycle, "A", "B", t)


def test_witness_separator_rejects_bad_arguments(two_cycle):
    with pytest.raises(ValueError):
        witness_separator(two_cycle, "A", "A")
    with pytest.raises(ValueError):
        witness_separator(two_cycle, "A", "B", ("A",))


# The definition's second clause names a descendant of the vertex after the
# collider; the standard reading wants a descendant of the collider itself.
# On A -> B <- C with C -> F, the readings disagree for (A, C | {F}).
def test_literal_clause_ii_differs_from_standard():
    g = DirectedGraph(("A", "B", "C", "F"), {("A", "B"), ("C", "B"), ("C", "F")})
    assert not brute_force_d_connected(g, "A", "C", ("F",))
    assert brute_force_d_connected(g, "A", "C", ("F",), literal_clause_ii=True)


def test_literal_clause_ii_is_asymmetric():
    g = DirectedGraph(("A", "B", "C", "F"), {("A", "B"), ("C", "B"), ("C", "F")})
    assert brute_force_d_connected(g, "A", "C", ("F",), literal_clause_ii=True)
    assert not brute_force_d_connected(g, "C", "A", ("F",), literal_clause_ii=True)


def _bad_inputs():
    """(name, call, exception) for every public query entry.

    Each call builds its arguments afresh, so a one-shot iterator is
    consumed only by the call under test. Where a query breaks several
    rules, the expected type shows which check runs first: unhashable
    members before the endpoint checks, the endpoint checks before the
    unknown-label check.
    """
    g = DirectedGraph(("A", "B", "X", "Y"), {("A", "X"), ("B", "Y"), ("X", "Y"), ("Y", "X")})
    oracle = GraphOracle(g)
    rows = np.random.default_rng(0).standard_normal((50, 3))
    data = DataMatrix(("A", "B", "X"), rows)
    cov = np.cov(rows, rowvar=False, ddof=1)
    pairs = [
        (("A", "A"), ValueError),
        (("Q", "Q"), ValueError),
        (("A", "B", "A"), ValueError),
        (("Q", "B", "Q"), ValueError),
        (("A", "B", lambda: iter(["X", "B"])), ValueError),
        (("A", "Q"), UnknownVertexError),
        (("A", "B", ("Q",)), UnknownVertexError),
        (("A", "B", lambda: iter(["X", "Q"])), UnknownVertexError),
        (("A", "B", (["X"],)), TypeError),
        (("A", "A", (["X"],)), TypeError),
        (("A", "B", None), TypeError),
    ]
    sets = [
        (((), "B"), ValueError),
        ((lambda: iter(["A", "X"]), "X"), ValueError),
        (("A", 1), TypeError),
    ]
    cases = []
    for name, fn in (
        ("d_connected", lambda *a: d_connected(g, *a)),
        ("brute_force_d_connected", lambda *a: brute_force_d_connected(g, *a)),
    ):
        cases += [(name, fn, args, exc) for args, exc in pairs + sets]
    cases += [
        ("witness_separator", lambda *a: witness_separator(g, *a), args, exc)
        for args, exc in pairs
    ]
    cases += [
        ("is_independent", oracle.is_independent, args, exc)
        for args, exc in pairs + [(("A", "B", (1,)), UnknownVertexError)]
    ]
    column_pairs = pairs + [(("A", "B", ("X", 1)), TypeError)]  # a set that does not sort
    for name, fn in (
        ("partial_correlation", lambda *a: partial_correlation(data, *a)),
        ("partial_correlation_recursive", lambda *a: partial_correlation_recursive(data, *a)),
    ):
        cases += [(name, fn, args, exc) for args, exc in column_pairs]
    # the covariance route looks labels up in a plain dict
    cases += [
        (
            "partial_correlation_from_covariance",
            lambda *a: partial_correlation_from_covariance(cov, data.labels, *a),
            args,
            KeyError if exc is UnknownVertexError else exc,
        )
        for args, exc in column_pairs
    ]
    return oracle, cases


def test_bad_inputs_raise_the_same_types_in_the_same_order():
    oracle, cases = _bad_inputs()
    wrong = []
    for name, fn, args, exc in cases:
        try:
            fn(*(a() if callable(a) else a for a in args))
        except Exception as raised:  # noqa: BLE001 - the type is the assertion
            if not isinstance(raised, exc):  # UnknownVertexError is no ValueError
                wrong.append(f"{name}{args}: {type(raised).__name__}, expected {exc.__name__}")
        else:
            wrong.append(f"{name}{args}: no error, expected {exc.__name__}")
    assert not wrong, "\n".join(wrong)
    assert oracle.stats.total() == 0


def test_one_shot_iterators_and_non_string_endpoints_are_read_once(two_cycle):
    for x, y, given in (("A", "B", ("X",)), ("A", "X", ("Y", "B")), ("X", "Y", ())):
        expected = d_connected(two_cycle, x, y, given)
        assert d_connected(two_cycle, iter([x]), (v for v in [y]), iter(given)) is expected
        assert brute_force_d_connected(two_cycle, iter([x]), iter([y]), iter(given)) is expected
        assert GraphOracle(two_cycle).is_independent(x, y, iter(given)) is not expected
        assert witness_separator(two_cycle, x, y, iter(given)) == witness_separator(two_cycle, x, y, given)
    # endpoints are read as labels, so 1 and 2 name the vertices "1" and "2"
    oracle = GraphOracle(DirectedGraph(("1", "2", "3"), {("1", "2")}))
    assert oracle.is_independent(1, 2) is False
    assert oracle.is_independent(1, 3) is True
