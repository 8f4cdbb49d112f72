"""Deciders for d-connection and d-separation in directed graphs.

An undirected path is active given a conditioning set z when every
conditioned vertex on it is a collider and every collider on it has a
descendant (itself included) in z; endpoints carry no condition. Two
vertex sets are d-connected given z when some active vertex-simple path
joins a member of one to a member of the other. Paths here are walks
without repeated vertices, and a 2-cycle contributes two distinct single
steps between its endpoints.

``d_connected`` is the fast engine, a reachability computation over
(vertex, arrival-direction) states. ``brute_force_d_connected`` is the
testing oracle of record: it enumerates every vertex-simple path and
applies the two activity clauses directly. The suite holds the two
implementations equal on every query it generates; neither is ever
collapsed into the other.

Every query entry, here and in ``oracle.py``, validates in one order:
each argument becomes a set once (a bare label is a one-vertex set; an
unhashable member raises TypeError), then ``_check_sets`` or
``_check_endpoints`` raise ValueError, and only then does an unknown
label raise UnknownVertexError.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ._reach import reach_set
from .digraph import DirectedGraph

__all__ = [
    "SeparationQuery",
    "d_connected",
    "d_separated",
    "brute_force_d_connected",
    "witness_separator",
]


def _as_vertex_set(value: Iterable[str] | str) -> frozenset[str]:
    if isinstance(value, str):
        return frozenset((value,))
    return frozenset(value)


def _check_sets(x: frozenset[str], y: frozenset[str], z: frozenset[str]) -> None:
    """Raise ValueError unless x and y are non-empty and x, y, z pairwise disjoint."""
    if not x or not y:
        raise ValueError("both endpoint sets must be non-empty")
    if x & y or x & z or y & z:
        raise ValueError("x, y and z must be pairwise disjoint")


def _check_endpoints(x: str, y: str, z: frozenset[str]) -> None:
    """Raise ValueError unless the endpoints differ and stay outside the set z."""
    if x == y:
        raise ValueError("query endpoints must differ")
    if x in z or y in z:
        raise ValueError("endpoints cannot appear in the conditioning set")


@dataclass(frozen=True)
class SeparationQuery:
    """Disjoint endpoint sets x and y plus a conditioning set z."""

    x: frozenset[str]
    y: frozenset[str]
    z: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        _check_sets(self.x, self.y, self.z)

    @classmethod
    def of(
        cls,
        x: Iterable[str] | str,
        y: Iterable[str] | str,
        given: Iterable[str] | str = (),
    ) -> "SeparationQuery":
        return cls(_as_vertex_set(x), _as_vertex_set(y), _as_vertex_set(given))


def d_connected(
    g: DirectedGraph,
    x: Iterable[str] | str,
    y: Iterable[str] | str,
    given: Iterable[str] | str = (),
) -> bool:
    """True iff some x-member is d-connected to some y-member given ``given``."""
    x, y, given = _as_vertex_set(x), _as_vertex_set(y), _as_vertex_set(given)
    _check_sets(x, y, given)
    xm, ym, zm = g._mask_of(x), g._mask_of(y), g._mask_of(given)
    return bool(reach_set(g._parent_masks, g._child_masks, xm, zm) & ym)


def d_separated(
    g: DirectedGraph,
    x: Iterable[str] | str,
    y: Iterable[str] | str,
    given: Iterable[str] | str = (),
) -> bool:
    return not d_connected(g, x, y, given)


def brute_force_d_connected(
    g: DirectedGraph,
    x: Iterable[str] | str,
    y: Iterable[str] | str,
    given: Iterable[str] | str = (),
    literal_clause_ii: bool = False,
) -> bool:
    """Literal path-enumeration decision; exponential, for small graphs only.

    ``literal_clause_ii`` switches the collider clause to demand a
    conditioned descendant of the vertex that follows the collider on the
    path, which is what a word-by-word reading of the activity clauses
    says, instead of a descendant of the collider itself. The readings
    disagree (the literal one is not even symmetric in x and y), and the
    flag exists so the disagreement stays visible; the default matches
    ``d_connected``.
    """
    q = SeparationQuery.of(x, y, given)
    g._mask_of(q.x | q.y | q.z)  # label validation
    for start in sorted(q.x):
        for goal in sorted(q.y):
            for verts, forwards in _simple_paths(g, start, goal):
                if _path_active(g, verts, forwards, q.z, literal_clause_ii):
                    return True
    return False


def _simple_paths(
    g: DirectedGraph, start: str, goal: str
) -> Iterator[tuple[list[str], list[bool]]]:
    """Yield (vertices, forwards) for every vertex-simple undirected path.

    forwards[i] is True when step i traverses the edge vertices[i] ->
    vertices[i+1] tip-forward; both orientations are separate steps when a
    2-cycle provides both edges.
    """
    edges = g.edges
    all_verts = g.vertices
    path = [start]
    used = {start}
    forwards: list[bool] = []

    def walk(current: str) -> Iterator[tuple[list[str], list[bool]]]:
        if current == goal:
            yield list(path), list(forwards)
            return
        for nxt in all_verts:
            if nxt in used:
                continue
            for fwd in (True, False):
                edge = (current, nxt) if fwd else (nxt, current)
                if edge not in edges:
                    continue
                path.append(nxt)
                used.add(nxt)
                forwards.append(fwd)
                yield from walk(nxt)
                path.pop()
                used.remove(nxt)
                forwards.pop()

    if start != goal:
        yield from walk(start)


def _path_active(
    g: DirectedGraph,
    verts: list[str],
    forwards: list[bool],
    z: frozenset[str],
    literal_clause_ii: bool,
) -> bool:
    for k in range(1, len(verts) - 1):
        into_left = forwards[k - 1]
        into_right = not forwards[k]
        collider = into_left and into_right
        v = verts[k]
        if v in z and not collider:
            return False
        if collider:
            probe = verts[k + 1] if literal_clause_ii else v
            if not g.descendants((probe,)) & z:
                return False
    return True


def witness_separator(
    g: DirectedGraph,
    x: str,
    y: str,
    q: Iterable[str] | str = (),
) -> frozenset[str]:
    """Candidate separating set built from local structure around x.

    Take s = children(x) restricted to ancestors of {x, y} union q; the
    result is parents(s + {x}) together with s, minus descendants of
    common children of x and y, minus the endpoints. Whenever neither
    endpoint is a parent of the other and no common child is an ancestor
    of either, the result d-separates x from y; callers can check that
    antecedent with ``adjacent_in_graph``. The set is returned either way.
    """
    extra = _as_vertex_set(q)
    _check_endpoints(x, y, extra)
    s = g.children(x) & g.ancestors(frozenset((x, y)) | extra)
    pool = s | frozenset().union(*(g.parents(v) for v in s | {x}))
    banned = g.descendants(g.children(x) & g.children(y)) | {x, y}
    return pool - banned
