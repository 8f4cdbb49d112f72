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
single walk answers the query for all targets at once: y is d-connected
to x given z exactly when y's bit is set in the result. Most callers ask
about a few targets only, so ``walk`` stops as soon as it has seen a
member of ``target`` and hands back its state, the seen set and the
frontier per arrival direction. Passing that state in again resumes the
walk where it stopped, for a later target; a walk that has reached its
fixpoint has an empty frontier and answers every target from its seen
sets. Vertex sets are Python ints used as bitmasks over a fixed vertex
order, so graphs of any width are supported and callers need not build a
``DirectedGraph``.

A graph reaches the kernel as two ``UnionMemo`` objects, one over its
parent masks and one over its child masks. Each level of the walk is then
two lookups of whole frontier sets, with no loop over their members:

    new_out = parents[front_in & z | front_out & ~z]
    new_in  = children[(front_in | front_out) & ~z]

A memo computes the union of a set's member masks once, on the first
lookup of that set, and answers every later lookup of it from the dict,
so walks over one graph that meet the same frontier share the work. The
memo's values depend only on the masks it wraps, so concurrent lookups
at worst compute one entry twice and store the same value.
"""
from __future__ import annotations

from typing import Mapping, Sequence


class UnionMemo(dict):
    """``memo[s]`` is the union of ``masks[i]`` over the members i of the set s.

    ``masks`` holds one bitmask per vertex; a set is a bitmask over the
    same vertices. Each set's union is computed on its first lookup.
    """

    def __init__(self, masks: Sequence[int]):
        super().__init__()
        self.masks = masks

    def __missing__(self, members: int) -> int:
        masks = self.masks
        union = 0
        m = members
        while m:
            low = m & -m
            union |= masks[low.bit_length() - 1]
            m ^= low
        self[members] = union
        return union


def walk(
    parents: Mapping[int, int],
    children: Mapping[int, int],
    z_mask: int,
    state: tuple[int, int, int, int],
    target: int = 0,
) -> tuple[int, int, int, int]:
    """Advance a walk given z until it has seen a member of ``target``, or
    to its fixpoint when none is reachable or ``target`` is 0.

    ``state`` is ``(seen_in, seen_out, front_in, front_out)``, the masks of
    the states seen and of the frontier per arrival direction, and the
    result is the state reached. A walk from the source set x starts at
    ``(0, x, 0, x)``, an ``out`` arrival at each member of x, which passes
    it on to every parent and child because the member lies outside z; x
    and z must be disjoint. ``parents[s]`` and ``children[s]`` are the
    masks of every parent and every child of the members of the set s, as
    ``UnionMemo`` gives them. The frontier is empty exactly when the walk
    has reached its fixpoint.
    """
    outside = ~z_mask
    seen_in, seen_out, front_in, front_out = state
    while (front_in or front_out) and not (seen_in | seen_out) & target:
        front_in, front_out = (
            children[(front_in | front_out) & outside] & ~seen_in,
            parents[front_in & z_mask | front_out & outside] & ~seen_out,
        )
        seen_in |= front_in
        seen_out |= front_out
    return seen_in, seen_out, front_in, front_out

