"""The reachability kernel deciding d-connection.

The state space is (vertex, arrival direction): ``in`` means the walk
reached the vertex along an edge pointing into it, ``out`` along an edge
pointing away from it. A vertex lets the walk continue as a non-collider
only while it is outside the conditioning set, and as a collider only
while some descendant of it (itself included) is conditioned on, that is
while it is an ancestor of the conditioning set; a vertex reached against
its edge can never be a collider.

One fixpoint from a source set yields every vertex the walk touches, so a
single call answers the query for all targets at once: y is d-connected
to x given z exactly when y's bit is set in ``reach_set(g, x, z)``. Vertex
sets are Python ints used as bitmasks over the graph's sorted vertex
order, so graphs of any width are supported.
"""
from __future__ import annotations

from .digraph import DirectedGraph


def reach_set(g: DirectedGraph, x_mask: int, z_mask: int) -> int:
    """Mask of every vertex outside x and z that is d-connected to x given z."""
    parents = g._parent_masks
    children = g._child_masks
    ancestors = g._ancestor_masks
    collider_ok = 0
    m = z_mask
    while m:
        low = m & -m
        collider_ok |= ancestors[low.bit_length() - 1]
        m ^= low
    seen_in = seen_out = 0
    m = x_mask
    while m:
        low = m & -m
        i = low.bit_length() - 1
        seen_in |= children[i]
        seen_out |= parents[i]
        m ^= low
    front_in, front_out = seen_in, seen_out
    while front_in or front_out:
        new_in = new_out = 0
        m = front_in
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if not z_mask & low:
                new_in |= children[i]
            if collider_ok & low:
                new_out |= parents[i]
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
