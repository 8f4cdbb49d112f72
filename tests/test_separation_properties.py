"""Structural properties of d-separation that the discovery phases rely on.

Each check function in helpers returns counterexample descriptions; an empty
list means the property held everywhere on that graph. The heavy exhaustive
sweep lives in the acceptance suite, this module keeps the properties named
and debuggable on small graphs.
"""
import functools
import math
import operator
import random
from itertools import combinations

import pytest
from hypothesis import given, settings

from ccdkit import DirectedGraph, brute_force_d_connected

from helpers import (
    LETTERS,
    SEPARATION_CHECKS,
    check_inseparable_pairs,
    check_local_separators,
    check_minimal_separator_ancestry,
    check_separator_monotonicity,
    check_witness_probe_retention,
    check_witness_separator,
    cyclic_graphs,
    exhaustive_graphs,
    two_cycle_graph,
    graphs,
    subsets,
    witness_separator,
)


def all_three_vertex_graphs():
    return list(exhaustive_graphs(tuple(LETTERS[:3])))


@pytest.mark.parametrize(
    "check",
    SEPARATION_CHECKS,
    ids=lambda c: c.__name__,
)
def test_property_holds_on_all_three_vertex_graphs(check):
    for g in all_three_vertex_graphs():
        assert check(g) == []


def test_adjacent_pairs_cannot_be_separated_includes_cycle_mediated_adjacency():
    # B,X share child Y which is an ancestor of X through the cycle, so the
    # pair is inseparable even though no edge joins them.
    g = two_cycle_graph()
    assert g.adjacent_in_graph("B", "X")
    assert check_inseparable_pairs(g) == []


def _check_adjacent_masks(g):
    """The masks are symmetric, hold no vertex itself, and set a bit exactly
    when no subset of the other vertices d-separates the pair."""
    masks = g._adjacent_masks
    for i, x in enumerate(g.vertices):
        assert not masks[i] >> i & 1
        for j, y in enumerate(g.vertices[i + 1 :], start=i + 1):
            assert (masks[i] >> j & 1) == (masks[j] >> i & 1), (g, x, y)
            rest = [v for v in g.vertices if v not in (x, y)]
            inseparable = all(brute_force_d_connected(g, x, y, s) for s in subsets(rest))
            assert bool(masks[i] >> j & 1) == inseparable, (g, x, y)


def test_adjacent_masks_are_the_inseparable_pairs_on_every_graph_up_to_three_vertices():
    for n in range(1, 4):
        for g in exhaustive_graphs(tuple(LETTERS[:n])):
            _check_adjacent_masks(g)


@settings(max_examples=200, deadline=None)
@given(graphs(min_vertices=4, max_vertices=6))
def test_adjacent_masks_are_the_inseparable_pairs(g):
    _check_adjacent_masks(g)


def _check_inseparable_rule(g):
    """``_inseparable(i, j, e)`` holds, in either endpoint order, exactly
    when no set between e and the other vertices d-separates i and j."""
    n = len(g.vertices)
    for i, j in combinations(range(n), 2):
        x, y = g.vertices[i], g.vertices[j]
        sets = [sum(1 << k for k in s) for s in subsets(k for k in range(n) if k not in (i, j))]
        separators = [z for z in sets if not brute_force_d_connected(g, x, y, g._labels(z))]
        for e in sets:
            inseparable = not any(z & e == e for z in separators)
            assert g._inseparable(i, j, e) == inseparable, (g, x, y, g._labels(e))
            assert g._inseparable(j, i, e) == inseparable, (g, y, x, g._labels(e))


def test_inseparable_rule_on_every_graph_up_to_three_vertices():
    for n in range(1, 4):
        for g in exhaustive_graphs(tuple(LETTERS[:n])):
            _check_inseparable_rule(g)


@settings(max_examples=200, deadline=None)
@given(cyclic_graphs(min_vertices=4, max_vertices=6))
def test_inseparable_rule_on_cyclic_graphs(g):
    _check_inseparable_rule(g)


def _check_separator_bound(g):
    """For every pair, every ``given`` and every disjoint ``within``, in
    either endpoint order: ``_separator_paths`` returns disjoint masks
    inside ``within``, an empty one only last; each Z with given ⊆ Z ⊆
    given ∪ within that d-separates the pair meets every mask and has at
    least as many members outside ``given`` as there are masks; and the
    last mask is empty exactly when no such Z exists."""
    n = len(g.vertices)
    for i, j in combinations(range(n), 2):
        x, y = g.vertices[i], g.vertices[j]
        sets = [sum(1 << k for k in s) for s in subsets(k for k in range(n) if k not in (i, j))]
        separators = [z for z in sets if not brute_force_d_connected(g, x, y, g._labels(z))]
        ancestors = g._ancestor_masks
        for given in sets:
            region = ancestors[i] | ancestors[j]  # A = An({i, j} ∪ given)
            for k in range(n):
                if given >> k & 1:
                    region |= ancestors[k]
            for within in sets:
                if within & given:
                    continue
                inside = [z for z in separators if z & given == given and not z & ~(given | within)]
                sizes = [(z & ~given).bit_count() for z in inside]
                for a, b in ((i, j), (j, i)):
                    paths = g._separator_paths(a, b, given, within, region)
                    bound = math.inf if 0 in paths else len(paths)
                    context = (g, x, y, g._labels(given), g._labels(within), paths)
                    assert 0 not in paths[:-1], context
                    assert sum(paths) == functools.reduce(operator.or_, paths, 0), context
                    assert not sum(paths) & ~within, context
                    assert all(z & cut for z in inside for cut in paths), context
                    assert (bound == math.inf) == (not sizes), context
                    assert all(size >= bound for size in sizes), context


def test_separator_bound_on_every_graph_up_to_three_vertices():
    for n in range(1, 4):
        for g in exhaustive_graphs(tuple(LETTERS[:n])):
            _check_separator_bound(g)


@settings(max_examples=200, deadline=None)
@given(cyclic_graphs(min_vertices=4, max_vertices=6))
def test_separator_bound_on_cyclic_graphs(g):
    _check_separator_bound(g)


def test_witness_separator_two_cycle_pair():
    g = two_cycle_graph()
    assert check_witness_separator(g) == []
    assert witness_separator(g, "A", "B") == frozenset()


def test_witness_retains_probe_on_two_cycle():
    g = two_cycle_graph()
    assert check_witness_probe_retention(g) == []
    assert "X" in witness_separator(g, "A", "B", {"X"})
    assert "Y" in witness_separator(g, "A", "B", {"Y"})


def test_local_separator_exists_for_chain_endpoints():
    g = DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")})
    assert check_local_separators(g) == []
    assert check_minimal_separator_ancestry(g) == []


def test_separator_monotonicity_against_brute_force():
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.choice((4, 5))
        labels = tuple(LETTERS[:n])
        edges = {
            (a, b)
            for a in labels
            for b in labels
            if a != b and rng.random() < 0.35
        }
        g = DirectedGraph(labels, edges)
        assert check_separator_monotonicity(g, connected=brute_force_d_connected) == []


@settings(max_examples=40, deadline=None)
@given(graphs(min_vertices=2, max_vertices=5))
def test_all_properties_hold_on_random_graphs(g):
    for check in SEPARATION_CHECKS:
        assert check(g) == []


def test_subsets_enumerates_size_then_lexicographic():
    assert list(subsets(("B", "A"))) == [(), ("A",), ("B",), ("A", "B")]
