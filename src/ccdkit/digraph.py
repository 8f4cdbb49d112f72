"""Immutable directed graphs with ancestral-relation queries, and the
boundary where labels enter the package.

Vertices are string labels and every iteration surface in the package
follows lexicographic label order, so downstream output is reproducible.
Graphs may contain directed cycles (2-cycles included) but never
self-loops. Ancestor and descendant sets are reflexive and computed by a
Warshall closure over bitmasks, so deeply cyclic graphs cannot hit
recursion limits.

Every module reads labels through the helpers here: ``_check_label``
decides what a label may be, ``_id_of`` maps a label to its id in an
index or raises UnknownVertexError, ``_mask_of`` maps a label set to a
bitmask or raises UnknownVertexError for its least unknown member in
``str`` order, ``_as_vertex_set`` reads a set argument (a bare label is
a one-vertex set), and ``_read_lines`` is the frame of the graph, PAG
and model file formats: it skips blank and ``#`` lines and reports each
error as ``line N: ...`` in the caller's parse error type, a subclass
of ``ParseError``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._reach import UnionMemo

FORMAT_HEADER = "# ccd-kit format v1"

__all__ = [
    "FORMAT_HEADER",
    "DirectedGraph",
    "GraphParseError",
    "ParseError",
    "UnknownVertexError",
    "parse_graph",
    "serialize_graph",
    "random_graph",
]


class UnknownVertexError(KeyError):
    """An operation named a vertex that is not in the graph."""


class ParseError(ValueError):
    """A graph, PAG or model file could not be parsed; the base of each
    format's own parse error, the type ``_read_lines`` reports in."""


class GraphParseError(ParseError):
    """A graph file could not be parsed."""


def _check_label(label: object) -> str:
    if not isinstance(label, str) or not label or label.split() != [label]:
        raise ValueError(
            f"vertex labels must be non-empty strings without whitespace: {label!r}"
        )
    if label in ("->", "<-") or label.startswith("#") or "," in label:
        raise ValueError(f"vertex label {label!r} collides with file-format syntax")
    return label


def _id_of(index: Mapping[str, int], label: str) -> int:
    """The id ``index`` gives a label; UnknownVertexError when it has none."""
    try:
        return index[label]
    except KeyError:
        raise UnknownVertexError(label) from None


def _as_vertex_set(value: Iterable[str] | str) -> frozenset[str]:
    """A set argument read once; a bare label is the set of that one vertex."""
    if isinstance(value, str):
        return frozenset((value,))
    return frozenset(value)


def _mask_of(index: Mapping[str, int], labels: frozenset[str]) -> int:
    """The bitmask of ``labels``; UnknownVertexError names the least unknown by ``str``."""
    mask = 0
    try:
        for v in labels:
            mask |= 1 << index[v]
    except KeyError:
        raise UnknownVertexError(min((v for v in labels if v not in index), key=str)) from None
    return mask


class _Line(NamedTuple):
    """One line of a line-based file that is neither blank nor a comment."""

    number: int
    raw: str
    tokens: list[str]
    error_type: type[ParseError]

    def error(self, message: object) -> ValueError:
        return self.error_type(f"line {self.number}: {message}")

    def label(self, token: str) -> str:
        try:
            return _check_label(token)
        except ValueError as exc:
            raise self.error(exc) from None


def _read_lines(text: str, error_type: type[ParseError]) -> Iterator[_Line]:
    """Each line of ``text`` that is not blank and does not start with '#'."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield _Line(number, raw, line.split(), error_type)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(step: Sequence[int]) -> tuple[int, ...]:
    # reflexive-transitive closure of a one-step bitmask relation (Warshall)
    reach = [mask | 1 << i for i, mask in enumerate(step)]
    for k in range(len(reach)):
        row = reach[k]
        for i, mask in enumerate(reach):
            if mask >> k & 1:
                reach[i] = mask | row
    return tuple(reach)


def _virtual_adjacency(
    parents: Sequence[int], children: Sequence[int], ancestors: Sequence[int]
) -> tuple[int, ...]:
    """Per vertex, the mask of the vertices virtually adjacent to it: an edge
    either way, or a common child that is an ancestor of one of the two.
    No set d-separates such a pair (Richardson 1996), and every other pair
    has a separator. The one copy of that rule, over a graph's parent,
    child and ancestor masks; ``DirectedGraph._inseparable`` extends it to
    the sets that must hold given vertices."""
    adjacent = list(map(int.__or__, parents, children))
    for i, looped in enumerate(map(int.__and__, children, ancestors)):
        # each child of i that is also an ancestor of i makes i adjacent
        # to every other parent of that child
        if looped:
            for c in _bits(looped):
                shared = parents[c]
                adjacent[i] |= shared
                for j in _bits(shared):
                    adjacent[j] |= 1 << i
            adjacent[i] &= ~(1 << i)
    return tuple(adjacent)


@dataclass(frozen=True)
class DirectedGraph:
    """Labelled vertices plus directed edges between distinct vertices.

    Edge endpoints are absorbed into the vertex set, so only isolated
    vertices need an explicit mention. Instances are value objects: equal
    when vertex sets and edge sets are equal.
    """

    vertices: tuple[str, ...] = ()
    edges: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self) -> None:
        verts = {_check_label(v) for v in self.vertices}
        edges: set[tuple[str, str]] = set()
        for pair in self.edges:
            a, b = pair
            _check_label(a)
            _check_label(b)
            if a == b:
                raise ValueError(f"self-loop on {a!r} is not allowed")
            verts.add(a)
            verts.add(b)
            edges.add((a, b))
        object.__setattr__(self, "vertices", tuple(sorted(verts)))
        object.__setattr__(self, "edges", frozenset(edges))

    # -- indexing and bitmask caches -------------------------------------

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _parent_masks(self) -> tuple[int, ...]:
        masks = [0] * len(self.vertices)
        idx = self._index
        for a, b in self.edges:
            masks[idx[b]] |= 1 << idx[a]
        return tuple(masks)

    @cached_property
    def _child_masks(self) -> tuple[int, ...]:
        masks = [0] * len(self.vertices)
        idx = self._index
        for a, b in self.edges:
            masks[idx[a]] |= 1 << idx[b]
        return tuple(masks)

    # the kernel's views of the graph: the parents and the children of a
    # vertex set, memoised per set for the life of the graph
    @cached_property
    def _parent_unions(self) -> UnionMemo:
        return UnionMemo(self._parent_masks)

    @cached_property
    def _child_unions(self) -> UnionMemo:
        return UnionMemo(self._child_masks)

    @cached_property
    def _descendant_masks(self) -> tuple[int, ...]:
        return _closure(self._child_masks)

    @cached_property
    def _ancestor_masks(self) -> tuple[int, ...]:
        return _closure(self._parent_masks)

    @cached_property
    def _adjacent_masks(self) -> tuple[int, ...]:
        return _virtual_adjacency(self._parent_masks, self._child_masks, self._ancestor_masks)

    def _inseparable(self, i: int, j: int, given: int) -> bool:
        """True when no set holding the mask ``given`` and neither i nor j
        d-separates the vertices i and j.

        Some such set separates them exactly when An({i, j} ∪ given) minus
        i and j does, which fails exactly when i and j are adjacent in the
        moral graph of that ancestral set (Tian, Paz & Pearl 1998): an
        edge joins them, or they share a child in it. A shared child in
        An({i, j}) makes them virtually adjacent, the ``given``-free case
        (Richardson 1996); what ``given`` adds is a shared child that is an
        ancestor of one of its members, found in O(|given|). The one copy
        of that rule, over the graph's masks.
        """
        if self._adjacent_masks[i] >> j & 1:
            return True
        shared = self._child_masks[i] & self._child_masks[j]
        if shared and given:
            ancestors = self._ancestor_masks
            for k in _bits(given):
                if ancestors[k] & shared:
                    return True
        return False

    def _separator_paths(self, i: int, j: int, given: int, within: int, region: int) -> list[int]:
        """Greedy i–j paths in the moral graph of A = An({i, j} ∪ given),
        the caller's ``region``, with ``given`` removed, as the mask of each
        path's ``within`` members; ``given`` and ``within`` are disjoint
        masks holding neither i nor j.

        If a set Z, given ⊆ Z ⊆ given ∪ within, d-separates i and j, so
        does its part inside A, which is then a vertex cut between i and j
        in that moral graph (Tian, Paz & Pearl 1998; Spirtes 1995 for
        cyclic graphs). So Z meets the ``within`` members of every i–j path
        there, and the other vertices cannot be cut. Each search finds a
        shortest path, steps back through vertices outside ``within``
        where it can, and removes the path's ``within`` members for the
        next search, so the masks are disjoint and, by Menger's theorem, Z
        has at least as many members outside ``given`` as there are masks.
        An empty mask, which ends the list, is a path that no such Z cuts.
        A search step from a set F reads the kernel's memos, N(F) = pa(F) ∪
        K ∪ pa(K) with K = ch(F) ∩ A, so no moral graph is built.
        """
        parents, children = self._parent_unions, self._child_unions
        source, target = 1 << i, 1 << j
        passable = region & ~given & ~source
        paths: list[int] = []
        while True:
            layers = []
            front, left = source, passable
            while not front & target:
                if not front:
                    return paths
                layers.append(front)
                kids = children[front] & region
                front = (parents[front] | kids | parents[kids]) & left
                left ^= front
            cut, v = 0, target
            for layer in reversed(layers[1:]):
                kids = children[v] & region
                near = (parents[v] | kids | parents[kids]) & layer
                near = near & ~within or near
                v = near & -near
                cut |= v & within
            paths.append(cut)
            if not cut:
                return paths
            passable &= ~cut

    def _require(self, label: str) -> int:
        return _id_of(self._index, label)

    def _labels(self, mask: int) -> frozenset[str]:
        verts = self.vertices
        return frozenset(verts[i] for i in _bits(mask))

    def _union(self, masks: Sequence[int], sources: Iterable[str] | str) -> frozenset[str]:
        mask = 0
        for i in _bits(_mask_of(self._index, _as_vertex_set(sources))):
            mask |= masks[i]
        return self._labels(mask)

    # -- relations --------------------------------------------------------

    def parents(self, x: str) -> frozenset[str]:
        """Vertices with an edge into x."""
        return self._labels(self._parent_masks[self._require(x)])

    def children(self, x: str) -> frozenset[str]:
        """Vertices with an edge out of x."""
        return self._labels(self._child_masks[self._require(x)])

    def ancestors(self, sources: Iterable[str] | str) -> frozenset[str]:
        """All vertices with a directed path into some source; reflexive."""
        return self._union(self._ancestor_masks, sources)

    def descendants(self, sources: Iterable[str] | str) -> frozenset[str]:
        """All vertices some source has a directed path into; reflexive."""
        return self._union(self._descendant_masks, sources)

    def is_ancestor(self, x: str, y: str) -> bool:
        """True when a directed path runs from x to y; every vertex reaches itself."""
        return bool(self._ancestor_masks[self._require(y)] >> self._require(x) & 1)

    def adjacent_in_graph(self, x: str, y: str) -> bool:
        """Edge either way, or a common child that is an ancestor of x or y."""
        ix, iy = self._require(x), self._require(y)
        if ix == iy:
            raise ValueError("adjacency is defined for distinct vertices")
        return bool(self._adjacent_masks[ix] >> iy & 1)

    def has_directed_cycle(self) -> bool:
        for i, cmask in enumerate(self._child_masks):
            for j in _bits(cmask):
                if self._descendant_masks[j] >> i & 1:
                    return True
        return False


def parse_graph(text: str) -> DirectedGraph:
    """Parse the line-based graph format.

    Lines are either comments starting with '#', blank, ``vertex LABEL``
    declarations, or ``A -> B`` edges. Edge endpoints declare their labels
    implicitly; duplicate edges collapse to one.
    """
    vertices: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for line in _read_lines(text, GraphParseError):
        tokens = line.tokens
        if len(tokens) == 2 and tokens[0] == "vertex":
            vertices.add(line.label(tokens[1]))
        elif len(tokens) == 3 and tokens[1] == "->":
            a, b = line.label(tokens[0]), line.label(tokens[2])
            if a == b:
                raise line.error(f"self-loop on {a!r}")
            edges.add((a, b))
        else:
            raise line.error(f"cannot parse {line.raw!r}")
    return DirectedGraph(tuple(vertices), frozenset(edges))


def serialize_graph(g: DirectedGraph) -> str:
    """Render a graph in the line-based format; inverse of parse_graph."""
    lines = [FORMAT_HEADER]
    lines.extend(f"vertex {v}" for v in g.vertices)
    lines.extend(f"{a} -> {b}" for a, b in sorted(g.edges))
    return "\n".join(lines) + "\n"


def random_graph(labels: Sequence[str], edge_prob: float, rng: random.Random) -> DirectedGraph:
    """Sample each ordered pair as an edge independently; cycles allowed.

    Draw order follows the given label order, so a seeded rng reproduces
    the same graph.
    """
    labels = tuple(labels)
    edges = {
        (a, b)
        for a in labels
        for b in labels
        if a != b and rng.random() < edge_prob
    }
    return DirectedGraph(labels, frozenset(edges))
