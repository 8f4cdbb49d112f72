"""The reachability kernel deciding d-connection.

The state space is (vertex, arrival direction): ``in`` means the walk
reached the vertex along an edge pointing into it, ``out`` along an edge
pointing away from it. A vertex outside the conditioning set passes the
walk on as a non-collider, to its children from either arrival and to
its parents after an ``out`` arrival. A vertex reached ``in`` is a
collider for the next step up to a parent, and the walk may take that
step only when the collider itself is conditioned on (the bounce rule of
Bayes-Ball); a conditioned vertex passes nothing else on.

For walks this is the same as letting a collider pass while some
descendant of it is conditioned on. Take a collider v outside z with a
conditioned descendant, and w the first conditioned vertex on a shortest
directed path down from v. The walk can go down that path through
unconditioned vertices, arriving ``in`` at each, bounce at w, and come
back up it against the edges, arriving ``out`` at each, v included. From
(v, out) it may go on to every parent and child of v, which is all the
descendant rule allows at (v, in). Every step of the bounce rule is also
allowed by the descendant rule, so both rules reach the same set of
states, and the kernel needs no ancestor closure.

One fixpoint from a source set yields every vertex the walk touches, so a
single call answers the query for all targets at once: y is d-connected
to x given z exactly when y's bit is set in the result. Vertex sets are
Python ints used as bitmasks over a fixed vertex order, and a graph is
given as its parent and child masks in that order, so graphs of any
width are supported and callers need not build a ``DirectedGraph``.
"""
from __future__ import annotations

from typing import Sequence


def reach_set(
    parents: Sequence[int], children: Sequence[int], x_mask: int, z_mask: int
) -> int:
    """Mask of every vertex outside x and z that is d-connected to x given z.

    ``parents[i]`` and ``children[i]`` are the masks of vertex i's parents
    and children. x and z must be disjoint: the walk starts as an ``out``
    arrival at each member of x, which passes it on to every parent and
    child because the member lies outside z.
    """
    seen_in = front_in = 0
    seen_out = front_out = x_mask
    while front_in or front_out:
        new_in = new_out = 0
        m = front_in
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if z_mask & low:
                new_out |= parents[i]
            else:
                new_in |= children[i]
            m ^= low
        m = front_out & ~z_mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            new_in |= children[i]
            new_out |= parents[i]
            m ^= low
        front_in = new_in & ~seen_in
        front_out = new_out & ~seen_out
        seen_in |= front_in
        seen_out |= front_out
    return (seen_in | seen_out) & ~(x_mask | z_mask)
