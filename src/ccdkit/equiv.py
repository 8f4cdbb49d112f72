"""Markov-equivalence tooling: PAG comparison, and class enumeration by
brute force over an input's adjacent pairs.

Two graphs on one vertex set are Markov equivalent exactly when they
have the same PAG (Richardson 1996), so ``markov_equivalent`` compares
the PAGs ``ccd.pag_of_graph`` builds. That takes polynomial time in the
vertex count on graphs of bounded degree, whose phase D subset levels
stay small, and has no vertex cap. Before it builds either PAG it
compares the graphs' virtual adjacency masks, which are the PAGs'
skeletons: a pair whose skeletons differ is answered False without
phases B-F, and every other pair is decided by PAG equality.
``fingerprint``, the complete table of separated (pair, conditioning
set) combinations with one ``d_connected`` call per entry, is
exponential, limited to twelve vertices, and kept as the reference the
tests compare against.

An edge a -> b is an active path given every conditioning set, so a
member of a class has edges only between pairs that the input never
separates: the virtually adjacent pairs that
``DirectedGraph.adjacent_in_graph`` reports, the rule ``verify`` uses.
``enumerate_equiv_class`` sweeps the 4^k directed graphs whose edges
join only these k pairs (the two-cycle A -> X <-> Y <- B has a member
with the edge A -> Y) and refuses more than ``_CANDIDATE_LIMIT`` = 4^7
candidates before it builds any graph. Equal PAGs need equal skeletons
and equal underlines, so a candidate whose virtual adjacencies, read
from its masks by the rule ``DirectedGraph._adjacent_masks`` uses, or
whose underlined triples differ from the input's is skipped before its
graph is built. A candidate that is built gets those parent, child,
ancestor and adjacency masks with it, so ``pag_of_graph`` computes none
of them again.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .ccd import pag_of_graph
from .digraph import DirectedGraph, _bits, _closure, _virtual_adjacency
from .dsep import d_connected

__all__ = [
    "fingerprint",
    "markov_equivalent",
    "all_graphs",
    "enumerate_equiv_class",
]

_FINGERPRINT_LIMIT = 12
_CANDIDATE_LIMIT = 4**7


def fingerprint(g: DirectedGraph) -> frozenset[tuple[str, str, frozenset[str]]]:
    """All separated (x, y, conditioning set) triples with x < y."""
    verts = g.vertices
    if len(verts) > _FINGERPRINT_LIMIT:
        raise ValueError(f"fingerprints are limited to {_FINGERPRINT_LIMIT} vertices")
    separated = set()
    for x, y in combinations(verts, 2):
        rest = [v for v in verts if v != x and v != y]
        for size in range(len(rest) + 1):
            for subset in combinations(rest, size):
                if not d_connected(g, x, y, subset):
                    separated.add((x, y, frozenset(subset)))
    return frozenset(separated)


def _underlined(
    adjacent: Sequence[int], ancestors: Sequence[int]
) -> set[tuple[int, int, int]]:
    """The underlined triples (a, b, c), a < c, that ``pag_of_graph`` writes
    on a graph with virtual adjacency masks ``adjacent`` and ancestor
    masks ``ancestors``: every unshielded a - b - c with b in An({a, c}).

    Phase B underlines b exactly when b lies in the flanks' recorded
    separator, which ``pag_of_graph`` sets to An({a, c}) minus a and c.
    A PAG's edges are its skeleton, only phase B writes underlines and no
    later phase removes one, and ``Pag.__eq__`` compares both, so graphs
    whose adjacency masks or underlined triples differ have different
    PAGs, and no PAG need be built to tell.
    """
    triples = set()
    for b, nb in enumerate(adjacent):
        for a in _bits(nb):
            # the flanks c > a of b that are not adjacent to a
            for c in _bits(nb & ~adjacent[a] & -(2 << a)):
                if (ancestors[a] | ancestors[c]) >> b & 1:
                    triples.add((a, b, c))
    return triples


def markov_equivalent(g1: DirectedGraph, g2: DirectedGraph) -> bool:
    """Same vertex set and the same PAG from ``pag_of_graph``.

    A PAG's edges are its skeleton, so pairs whose virtual adjacency
    masks differ are answered False before any PAG is built.
    """
    if g1.vertices != g2.vertices or g1._adjacent_masks != g2._adjacent_masks:
        return False
    return pag_of_graph(g1)[0] == pag_of_graph(g2)[0]


def all_graphs(labels: Sequence[str]) -> Iterator[DirectedGraph]:
    """Every directed graph on the given labels, in a fixed order."""
    labels = tuple(sorted(set(labels)))
    pairs = [(a, b) for a in labels for b in labels if a != b]
    for mask in range(2 ** len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        yield DirectedGraph(labels, edges)


def enumerate_equiv_class(g: DirectedGraph) -> list[DirectedGraph]:
    """All graphs Markov equivalent to g, sorted by their edge lists.

    Only the 4^k candidates whose edges join the k pairs that
    ``g.adjacent_in_graph`` reports are compared with g, where a sweep of
    every directed graph would visit 2^(n(n-1)). A candidate whose
    virtual adjacency masks or underlined triples differ from g's is
    skipped before its graph is built. More than ``_CANDIDATE_LIMIT`` =
    4^7 candidates (k >= 8) raise ValueError before any PAG is built.
    """
    labels = g.vertices
    skeleton = g._adjacent_masks
    adjacent = [(x, y) for x, y in combinations(labels, 2) if g.adjacent_in_graph(x, y)]
    k = len(adjacent)
    if 4**k > _CANDIDATE_LIMIT:
        raise ValueError(
            f"class enumeration would compare 4^{k} candidates for k = {k} "
            f"adjacent pairs; the limit is {_CANDIDATE_LIMIT} (4^7)"
        )
    target = pag_of_graph(g)[0]
    underlined = _underlined(skeleton, g._ancestor_masks)
    arcs = [arc for x, y in adjacent for arc in ((x, y), (y, x))]
    index = g._index
    ids = [(index[a], index[b]) for a, b in arcs]
    members = []
    for mask in range(2 ** len(arcs)):
        parents, children = [0] * len(labels), [0] * len(labels)
        for bit, (a, b) in enumerate(ids):
            if mask >> bit & 1:
                parents[b] |= 1 << a
                children[a] |= 1 << b
        ancestors = _closure(parents)
        if _virtual_adjacency(parents, children, ancestors) != skeleton:
            continue
        if _underlined(skeleton, ancestors) != underlined:
            continue
        h = DirectedGraph(labels, frozenset(arc for bit, arc in enumerate(arcs) if mask >> bit & 1))
        # the masks h's cached properties would compute, handed over as is
        vars(h).update(
            _parent_masks=tuple(parents),
            _child_masks=tuple(children),
            _ancestor_masks=ancestors,
            _adjacent_masks=skeleton,
        )
        if pag_of_graph(h)[0] == target:
            members.append(h)
    members.sort(key=lambda h: tuple(sorted(h.edges)))
    return members
