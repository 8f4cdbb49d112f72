"""Brute-force Markov-equivalence tooling over small vertex sets.

The separation fingerprint of a graph is the complete table of separated
(pair, conditioning set) combinations over singleton endpoints. Two
graphs on one vertex set are Markov equivalent exactly when their
fingerprints coincide, and an equivalence class is enumerated by sweeping
the directed graphs whose edges join only pairs that the input never
separates. Everything here is exponential by design and guarded
accordingly.

``fingerprint`` decides each table entry with its own ``d_connected``
call and stays the reference. ``markov_equivalent`` and
``enumerate_equiv_class`` compare separation tables instead, which hold
the same entries as bitmasks: for every conditioning mask z and every
vertex x outside z with a larger vertex outside z, one reach set gives
the mask of the larger vertices outside z that z separates from x. On 11
vertices that is 9,217 kernel calls in place of 28,160 queries. The
class sweep builds each candidate as parent and child masks, wraps them
in the candidate's own ``UnionMemo`` pair, and makes a
``DirectedGraph`` only for the members.

An edge a -> b is an active path given every conditioning set, and a
member has the input's table, so a member's edges join only pairs that
the input never separates: the virtually adjacent pairs that
``DirectedGraph.adjacent_in_graph`` reports (Richardson 1996), the rule
``verify`` uses. The class sweep varies only the edges among these k
pairs (the two-cycle A -> X <-> Y <- B has a member with the edge
A -> Y) and refuses more than ``_CANDIDATE_LIMIT`` = 4^7 candidates
before it builds any table.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from ._reach import UnionMemo, reach_set
from .digraph import DirectedGraph
from .dsep import d_connected

__all__ = [
    "fingerprint",
    "markov_equivalent",
    "all_graphs",
    "enumerate_equiv_class",
]

_FINGERPRINT_LIMIT = 12
_CANDIDATE_LIMIT = 4**7


def _check_size(n: int) -> None:
    if n > _FINGERPRINT_LIMIT:
        raise ValueError(f"fingerprints are limited to {_FINGERPRINT_LIMIT} vertices")


def fingerprint(g: DirectedGraph) -> frozenset[tuple[str, str, frozenset[str]]]:
    """All separated (x, y, conditioning set) triples with x < y."""
    verts = g.vertices
    _check_size(len(verts))
    separated = set()
    for x, y in combinations(verts, 2):
        rest = [v for v in verts if v != x and v != y]
        for size in range(len(rest) + 1):
            for subset in combinations(rest, size):
                if not d_connected(g, x, y, subset):
                    separated.add((x, y, frozenset(subset)))
    return frozenset(separated)


def _separations(parents: UnionMemo, children: UnionMemo) -> Iterator[int]:
    """The separation table of a graph on n vertices, one row at a time,
    from its ``UnionMemo`` pair.

    Rows run over conditioning masks z in increasing order and, within
    one z, over the x outside z in increasing order that have a larger
    vertex outside z; each row is the mask of those larger vertices
    that are d-separated from x given z. Two graphs on the same vertices
    yield equal rows throughout exactly when their fingerprints are
    equal.
    """
    n = len(parents.masks)
    full = (1 << n) - 1
    for z in range(1 << n):
        m = full & ~z
        while m:
            low = m & -m
            m ^= low  # now the vertices outside z above x
            if not m:
                break
            yield m & ~reach_set(parents, children, low, z)


def markov_equivalent(g1: DirectedGraph, g2: DirectedGraph) -> bool:
    """Same vertex set and identical separation fingerprints.

    The fingerprints are compared as separation tables, row by row, and
    the first row that differs answers False. Graphs on more than twelve
    vertices raise ValueError, as ``fingerprint`` does.
    """
    if g1.vertices != g2.vertices:
        return False
    _check_size(len(g1.vertices))
    return all(
        a == b
        for a, b in zip(
            _separations(g1._parent_unions, g1._child_unions),
            _separations(g2._parent_unions, g2._child_unions),
        )
    )


def all_graphs(labels: Sequence[str]) -> Iterator[DirectedGraph]:
    """Every directed graph on the given labels, in a fixed order."""
    labels = tuple(sorted(set(labels)))
    pairs = [(a, b) for a in labels for b in labels if a != b]
    for mask in range(2 ** len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        yield DirectedGraph(labels, edges)


def enumerate_equiv_class(g: DirectedGraph) -> list[DirectedGraph]:
    """All graphs Markov equivalent to g, sorted by their edge lists.

    Only candidates whose edges join the k pairs that
    ``g.adjacent_in_graph`` reports are compared with g's separation
    table: 4^k of them, where a sweep of every directed graph would visit
    2^(n(n-1)). More than ``_CANDIDATE_LIMIT`` = 4^7 candidates (k >= 8)
    raise ValueError, as do more than twelve vertices.
    """
    labels = g.vertices
    n = len(labels)
    _check_size(n)
    pairs = [
        (a, b) for a, b in combinations(range(n), 2) if g.adjacent_in_graph(labels[a], labels[b])
    ]
    k = len(pairs)
    if 4**k > _CANDIDATE_LIMIT:
        raise ValueError(
            f"class enumeration would compare 4^{k} candidates for k = {k} "
            f"adjacent pairs; the limit is {_CANDIDATE_LIMIT} (4^7)"
        )
    target = tuple(_separations(g._parent_unions, g._child_unions))
    arcs = [arc for a, b in pairs for arc in ((a, b), (b, a))]
    members = []
    for mask in range(2 ** len(arcs)):
        edges = [arc for bit, arc in enumerate(arcs) if mask >> bit & 1]
        parents = [0] * n
        children = [0] * n
        for a, b in edges:
            parents[b] |= 1 << a
            children[a] |= 1 << b
        rows = _separations(UnionMemo(parents), UnionMemo(children))
        if all(a == b for a, b in zip(rows, target)):
            members.append(
                DirectedGraph(labels, frozenset((labels[a], labels[b]) for a, b in edges))
            )
    members.sort(key=lambda h: tuple(sorted(h.edges)))
    return members
