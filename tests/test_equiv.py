import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccdkit import (
    DirectedGraph,
    Mark,
    all_graphs,
    enumerate_equiv_class,
    equiv,
    fingerprint,
    markov_equivalent,
    pag_of_graph,
    random_graph,
)

from helpers import cyclic_graphs, graphs, ordered_pairs, two_cycle_graph


def test_fingerprint_lists_separated_triples():
    g = DirectedGraph(("A", "B", "C"), {("A", "B"), ("C", "B")})
    assert ("A", "C", frozenset()) in fingerprint(g)
    assert ("A", "C", frozenset({"B"})) not in fingerprint(g)


def test_fingerprint_of_two_cycle(two_cycle):
    assert fingerprint(two_cycle) == frozenset(
        {("A", "B", frozenset()), ("A", "B", frozenset({"X", "Y"}))}
    )


def test_complete_graph_has_empty_fingerprint():
    g = DirectedGraph(("A", "B"), {("A", "B")})
    assert fingerprint(g) == frozenset()


def test_two_cycle_equivalent_to_single_edge():
    two = DirectedGraph(("A", "B"), {("A", "B"), ("B", "A")})
    fwd = DirectedGraph(("A", "B"), {("A", "B")})
    rev = DirectedGraph(("A", "B"), {("B", "A")})
    assert markov_equivalent(two, fwd)
    assert markov_equivalent(fwd, rev)


def test_chain_not_equivalent_to_collider():
    chain = DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")})
    collider = DirectedGraph(("A", "B", "C"), {("A", "B"), ("C", "B")})
    assert not markov_equivalent(chain, collider)


def test_chain_equivalent_to_reversed_chain():
    chain = DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")})
    rev = DirectedGraph(("A", "B", "C"), {("B", "A"), ("C", "B")})
    assert markov_equivalent(chain, rev)


def test_different_vertex_sets_never_equivalent():
    a = DirectedGraph(("A", "B"), set())
    b = DirectedGraph(("A", "C"), set())
    assert not markov_equivalent(a, b)


def test_all_graphs_count():
    assert sum(1 for _ in all_graphs(("A", "B"))) == 4
    assert sum(1 for _ in all_graphs(("A", "B", "C"))) == 64


def test_all_graphs_unique():
    seen = list(all_graphs(("A", "B", "C")))
    assert len(set(seen)) == len(seen)


def test_two_cycle_class_members():
    two = DirectedGraph(("A", "B"), {("A", "B"), ("B", "A")})
    members = enumerate_equiv_class(two)
    edge_sets = [sorted(m.edges) for m in members]
    assert edge_sets == [
        [("A", "B")],
        [("A", "B"), ("B", "A")],
        [("B", "A")],
    ]


def test_class_members_are_mutually_equivalent(two_cycle):
    members = enumerate_equiv_class(two_cycle)
    assert len(members) == 2
    assert two_cycle in members
    for m in members:
        assert markov_equivalent(two_cycle, m)


def test_two_cycle_class_is_the_mirror_pair(two_cycle):
    members = enumerate_equiv_class(two_cycle)
    mirror = DirectedGraph(
        two_cycle.vertices, {("A", "Y"), ("B", "X"), ("X", "Y"), ("Y", "X")}
    )
    assert members == sorted(
        [two_cycle, mirror], key=lambda g: tuple(sorted(g.edges))
    )


def _chain(n):
    labels = tuple(f"V{i}" for i in range(n))
    return DirectedGraph(labels, set(zip(labels, labels[1:])))


def test_enumeration_guard(monkeypatch):
    # the guard counts candidates, not vertices: five isolated vertices
    # have k = 0 adjacent pairs, an 8-vertex chain k = 7
    empty = DirectedGraph(tuple("ABCDE"), set())
    assert enumerate_equiv_class(empty) == [empty]
    chain = _chain(8)
    members = enumerate_equiv_class(chain)
    assert len(members) == 15 and chain in members
    # a 9-vertex chain has k = 8, 4^8 candidates, and is refused before
    # any PAG is built
    built = []
    monkeypatch.setattr(equiv, "pag_of_graph", built.append)
    with pytest.raises(ValueError, match=r"k = 8 adjacent pairs; the limit is 16384"):
        enumerate_equiv_class(_chain(9))
    assert built == []


def test_edge_additions_break_conditional_independence(two_cycle):
    # growing the cycle's in-edges couples the outer pair given the cycle
    target = ("A", "B", frozenset({"X", "Y"}))
    assert target in fingerprint(two_cycle)
    for extra in [("A", "Y"), ("B", "X")]:
        grown = DirectedGraph(two_cycle.vertices, set(two_cycle.edges) | {extra})
        assert target not in fingerprint(grown)


def _edge_list(g):
    return tuple(sorted(g.edges))


def test_class_enumeration_matches_the_fingerprint_sweep_on_three_vertices():
    candidates = list(all_graphs(("A", "B", "C")))
    prints = {h: fingerprint(h) for h in candidates}
    for g in candidates:
        expected = sorted((h for h in candidates if prints[h] == prints[g]), key=_edge_list)
        assert enumerate_equiv_class(g) == expected


def test_class_enumeration_matches_the_fingerprint_classes_on_four_vertices():
    classes = {}
    for h in all_graphs(("A", "B", "C", "D")):
        classes.setdefault(fingerprint(h), []).append(h)
    assert len(classes) == 194
    for group in classes.values():
        assert enumerate_equiv_class(group[0]) == sorted(group, key=_edge_list)


def test_an_isolated_fifth_vertex_keeps_the_two_cycle_class(two_cycle):
    # E is separated from every vertex given the empty set, so no member
    # has an edge at E
    labels = two_cycle.vertices + ("E",)
    mirror = {("A", "Y"), ("B", "X"), ("X", "Y"), ("Y", "X")}
    expected = sorted(
        [DirectedGraph(labels, two_cycle.edges), DirectedGraph(labels, mirror)],
        key=_edge_list,
    )
    assert enumerate_equiv_class(DirectedGraph(labels, two_cycle.edges)) == expected


def _adjacent_pairs(g):
    return {(x, y) for x, y in combinations(g.vertices, 2) if g.adjacent_in_graph(x, y)}


def test_adjacent_pairs_are_the_pairs_the_fingerprint_never_separates():
    # Richardson's virtual-adjacency lemma, which class enumeration rests on
    for labels in ("AB", "ABC", "ABCD"):
        for g in all_graphs(tuple(labels)):
            separated = {(x, y) for x, y, _ in fingerprint(g)}
            assert _adjacent_pairs(g) == set(combinations(g.vertices, 2)) - separated


@settings(max_examples=25, deadline=None)
@given(graphs(min_vertices=5, max_vertices=6))
def test_class_enumeration_beyond_four_vertices(g):
    assume(len(_adjacent_pairs(g)) <= 7)
    members = enumerate_equiv_class(g)
    assert g in members
    assert [_edge_list(m) for m in members] == sorted(_edge_list(m) for m in members)
    target = fingerprint(g)
    step = -(-len(members) // 20)  # at most 20 members checked
    assert all(fingerprint(m) == target for m in members[::step])
    neighbours = {g.edges ^ {pair} for pair in ordered_pairs(g.vertices)}
    neighbours |= {(g.edges - {(a, b)}) | {(b, a)} for a, b in g.edges}
    for edges in neighbours:
        h = DirectedGraph(g.vertices, edges)
        if fingerprint(h) == target:
            assert h in members


@settings(max_examples=200)
@given(graphs(max_vertices=6), st.data())
def test_markov_equivalent_agrees_with_fingerprints_after_one_edge_change(g1, data):
    if g1.edges and data.draw(st.booleans(), label="reverse"):
        a, b = data.draw(st.sampled_from(sorted(g1.edges)), label="edge")
        edges = (g1.edges - {(a, b)}) | {(b, a)}
    else:
        pair = data.draw(st.sampled_from(ordered_pairs(g1.vertices)), label="pair")
        edges = g1.edges ^ {pair}
    g2 = DirectedGraph(g1.vertices, edges)
    assert markov_equivalent(g1, g2) == (fingerprint(g1) == fingerprint(g2))
    assert markov_equivalent(g2, g1) == markov_equivalent(g1, g2)


def _g16_and_an_extra_edge():
    g16 = random_graph([f"V{k:02d}" for k in range(16)], 0.12, random.Random(1608))
    x, y = next(p for p in combinations(g16.vertices, 2) if not g16.adjacent_in_graph(*p))
    return g16, DirectedGraph(g16.vertices, g16.edges | {(x, y)})


def test_equivalence_has_no_size_limit():
    g16, extended = _g16_and_an_extra_edge()
    assert markov_equivalent(g16, DirectedGraph(g16.vertices, g16.edges))
    assert not markov_equivalent(g16, extended)
    # the two-cycle and its mirror member, with twelve isolated vertices
    two_cycle = two_cycle_graph()
    labels = two_cycle.vertices + tuple(f"I{k:02d}" for k in range(12))
    g = DirectedGraph(labels, two_cycle.edges)
    mirror = DirectedGraph(labels, {("A", "Y"), ("B", "X"), ("X", "Y"), ("Y", "X")})
    assert markov_equivalent(g, mirror)
    assert enumerate_equiv_class(g) == sorted([g, mirror], key=_edge_list)


def _underlined(g):
    return equiv._underlined(g._adjacent_masks, g._ancestor_masks)


def test_underlined_triples_are_the_underlines_of_the_pag():
    for labels in ("ABC", "ABCD"):
        for g in all_graphs(tuple(labels)):
            assert _underlined(g) == pag_of_graph(g)[0]._underlines


@settings(max_examples=100, deadline=None)
@given(cyclic_graphs(max_vertices=8))
def test_underlined_triples_are_the_underlines_of_the_pag_beyond_four_vertices(g):
    assert _underlined(g) == pag_of_graph(g)[0]._underlines


def test_pags_can_differ_where_skeleton_and_underlines_agree():
    # the skeleton and underline checks pass on this pair, so only the
    # PAGs tell it apart; 6 of the 188 groups of four-vertex graphs with
    # equal skeletons and underlines hold more than one of the 194 classes
    labels = ("A", "B", "C", "D")
    g1 = DirectedGraph(labels, {("A", "C"), ("B", "C"), ("C", "D"), ("D", "C")})
    g2 = DirectedGraph(labels, {("A", "C"), ("B", "D"), ("C", "D"), ("D", "C")})
    assert g1._adjacent_masks == g2._adjacent_masks
    assert _underlined(g1) == _underlined(g2)
    pag1, pag2 = pag_of_graph(g1)[0], pag_of_graph(g2)[0]
    assert (pag1.mark_at("C", "D"), pag1.mark_at("D", "C")) == (Mark.CIRCLE, Mark.CIRCLE)
    assert pag1.dotted_underlines == frozenset()
    assert (pag2.mark_at("C", "D"), pag2.mark_at("D", "C")) == (Mark.TAIL, Mark.TAIL)
    assert pag2.dotted_underlines == {("A", "C", "B"), ("A", "D", "B")}
    assert fingerprint(g1) != fingerprint(g2)
    assert not markov_equivalent(g1, g2)
    # g2's arcs join pairs g1 never separates, so g2 is one of the
    # candidates of g1's class that only the PAG comparison turns away
    assert g2 not in enumerate_equiv_class(g1)


def test_pairs_with_different_skeletons_build_no_pag(monkeypatch):
    def refuse(g):
        raise AssertionError("a PAG was built")

    monkeypatch.setattr(equiv, "pag_of_graph", refuse)
    assert not markov_equivalent(*_g16_and_an_extra_edge())


def test_class_enumeration_builds_pags_only_for_the_input_and_its_members(monkeypatch):
    built = []

    def counted(g):
        built.append(g)
        return pag_of_graph(g)

    monkeypatch.setattr(equiv, "pag_of_graph", counted)
    # the collider A -> B <- C and the candidates like it share the
    # chain's skeleton but not its underline at B, so none is built
    chain = DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")})
    members = enumerate_equiv_class(chain)
    assert len(built) == len(members) + 1
