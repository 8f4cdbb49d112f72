"""Deciders for d-connection and d-separation in directed graphs.

An undirected path is active given a conditioning set z when every
conditioned vertex on it is a collider and every collider on it has a
descendant (itself included) in z; endpoints carry no condition. Two
vertex sets are d-connected given z when some active vertex-simple path
joins a member of one to a member of the other. Paths here are walks
without repeated vertices, and a 2-cycle contributes two distinct single
steps between its endpoints.

``d_connected`` is the fast engine, a reachability walk over
(vertex, arrival-direction) states that stops at the first member of y
it reaches. ``brute_force_d_connected`` is the testing oracle of
record: it enumerates every vertex-simple path and applies the two
activity clauses directly. The suite holds the two implementations
equal on every query it generates; neither is ever collapsed into the
other.

Every query entry, here and in ``oracle.py`` and ``fisherz.py``,
validates in one order: each argument becomes a set once through
``digraph._as_vertex_set`` (a bare label is a one-vertex set; an
unhashable member raises TypeError), then ``_check_sets`` or
``_check_endpoints`` raise ValueError, and only then does
``digraph._id_of`` or ``digraph._mask_of`` reject an unknown label with
UnknownVertexError. Both deciders read a query through ``_read_query``,
which maps x, then y, then the conditioning set. Of several unknown
labels in one set, the least in ``str`` order is named, whatever the
hash seed.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from ._reach import walk
from .digraph import DirectedGraph, _as_vertex_set, _mask_of

__all__ = ["d_connected", "d_separated", "brute_force_d_connected"]


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


def _read_query(
    g: DirectedGraph, x: Iterable[str] | str, y: Iterable[str] | str, given: Iterable[str] | str
) -> tuple[int, int, int]:
    """The masks of x, y and ``given``, each read once and checked."""
    x, y, given = _as_vertex_set(x), _as_vertex_set(y), _as_vertex_set(given)
    _check_sets(x, y, given)
    return _mask_of(g._index, x), _mask_of(g._index, y), _mask_of(g._index, given)


def d_connected(
    g: DirectedGraph,
    x: Iterable[str] | str,
    y: Iterable[str] | str,
    given: Iterable[str] | str = (),
) -> bool:
    """True iff some x-member is d-connected to some y-member given ``given``;
    the walk from x stops at the first member of y it reaches."""
    xm, ym, zm = _read_query(g, x, y, given)
    seen_in, seen_out, _, _ = walk(g._parent_unions, g._child_unions, zm, (0, xm, 0, xm), ym)
    return bool((seen_in | seen_out) & ym)


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
) -> bool:
    """Literal path-enumeration decision; exponential, for small graphs only."""
    xm, ym, zm = _read_query(g, x, y, given)
    z = g._labels(zm)
    for start in sorted(g._labels(xm)):
        for goal in sorted(g._labels(ym)):
            for verts, forwards in _simple_paths(g, start, goal):
                if _path_active(g, verts, forwards, z):
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
) -> bool:
    for k in range(1, len(verts) - 1):
        into_left = forwards[k - 1]
        into_right = not forwards[k]
        collider = into_left and into_right
        v = verts[k]
        if v in z and not collider:
            return False
        if collider and not g.descendants((v,)) & z:
            return False
    return True

