"""Partial ancestral graphs: skeleton, endpoint marks, triple annotations.

Mark semantics on an edge between A and B: a tail at A claims A is an
ancestor of B in every graph compatible with the recorded independence
answers, an arrow at A claims it is not, and a circle claims nothing. An
underlined middle vertex claims it is an ancestor of at least one of its
flanking vertices; a dotted underline sits only on colliders and claims
the middle vertex is not a descendant of any common child of the flanking
pair. ``verify_pag_against_graph`` checks each of those claims against
one concrete graph. An edge claims that no conditioning set separates its
endpoints; in a directed graph, cycles allowed, that holds exactly when
the graph joins them by an edge or they share a child that is an ancestor
of either (``DirectedGraph.adjacent_in_graph``), so every check is
polynomial in the vertex count.

Serialisation uses one line per edge, with endpoint glyphs ``o`` (circle),
``-`` (tail) and ``<``/``>`` (arrow), e.g. ``A o-> B`` or ``X --- Y``,
followed by ``underline:`` and ``dotted:`` triple lines.
"""
from __future__ import annotations

from bisect import insort
from enum import Enum
from itertools import combinations, permutations
from typing import Iterable

from .digraph import FORMAT_HEADER, DirectedGraph, ParseError, _Line, _check_label, _id_of, _read_lines

__all__ = [
    "Mark",
    "MarkConflict",
    "Pag",
    "PagParseError",
    "parse_pag",
    "serialize_pag",
    "to_dot",
    "verify_pag_against_graph",
]


class Mark(Enum):
    CIRCLE = "circle"
    TAIL = "tail"
    ARROW = "arrow"


class MarkConflict(ValueError):
    """A hardened endpoint mark was asked to change into a different one."""

    def __init__(self, at: str, other: str, existing: Mark, attempted: Mark):
        self.at = at
        self.other = other
        self.existing = existing
        self.attempted = attempted
        super().__init__(
            f"mark at {at} on edge {at}-{other} is already "
            f"{existing.value}, cannot set {attempted.value}"
        )


class PagParseError(ParseError):
    """A PAG file could not be parsed."""


class Pag:
    """Mutable PAG under exclusive ownership of one writer.

    Reads are safe to share once mutation stops; ``copy`` takes a
    snapshot. Equality is structural over vertices, edges with their
    marks, and both triple sets.

    Storage is by vertex id, a vertex's position in the sorted labels, so
    id order is label order. ``_adj[i]`` is the sorted list of ids
    adjacent to i, ``_marks[i, j]`` the mark at the i end of the i-j edge,
    and triples are id triples with the smaller flank first. The search
    works on these through the underscore id methods; the label methods
    wrap them for parsing, rendering, verification and callers.
    """

    __slots__ = ("_vertices", "_id", "_adj", "_marks", "_underlines", "_dotted")

    def __init__(self, vertices: Iterable[str]):
        self._vertices = tuple(sorted({_check_label(v) for v in vertices}))
        self._id = {v: i for i, v in enumerate(self._vertices)}
        self._adj: list[list[int]] = [[] for _ in self._vertices]
        self._marks: dict[tuple[int, int], Mark] = {}
        self._underlines: set[tuple[int, int, int]] = set()
        self._dotted: set[tuple[int, int, int]] = set()

    @classmethod
    def complete(cls, vertices: Iterable[str]) -> "Pag":
        """The all-circles complete graph the search starts from."""
        pag = cls(vertices)
        n = len(pag._vertices)
        pag._adj = [[*range(i), *range(i + 1, n)] for i in range(n)]
        pag._marks = dict.fromkeys(permutations(range(n), 2), Mark.CIRCLE)
        return pag

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def underlines(self) -> frozenset[tuple[str, str, str]]:
        return self._labelled(self._underlines)

    @property
    def dotted_underlines(self) -> frozenset[tuple[str, str, str]]:
        return self._labelled(self._dotted)

    def _labelled(self, triples: set[tuple[int, int, int]]) -> frozenset[tuple[str, str, str]]:
        v = self._vertices
        return frozenset((v[a], v[b], v[c]) for a, b, c in triples)

    @staticmethod
    def canonical_triple(a: str, b: str, c: str) -> tuple[str, str, str]:
        """Triples are unordered in their flanks: (a, b, c) == (c, b, a)."""
        if len({a, b, c}) != 3:
            raise ValueError("a triple needs three distinct vertices")
        return (a, b, c) if a < c else (c, b, a)

    def index(self, label: str) -> int:
        """The id of a vertex label."""
        return _id_of(self._id, label)

    def _ids(self, x: str, y: str) -> tuple[int, int]:
        if x == y:
            raise ValueError("no edge joins a vertex to itself")
        return self.index(x), self.index(y)

    def _edge_error(self, i: int, j: int, state: str) -> ValueError:
        return ValueError(f"edge {self._vertices[i]}-{self._vertices[j]} is {state}")

    def has_edge(self, x: str, y: str) -> bool:
        return self._ids(x, y) in self._marks

    def add_edge(
        self, x: str, y: str, mark_x: Mark = Mark.CIRCLE, mark_y: Mark = Mark.CIRCLE
    ) -> None:
        i, j = self._ids(x, y)
        if (i, j) in self._marks:
            raise self._edge_error(i, j, "already present")
        self._marks[i, j] = mark_x
        self._marks[j, i] = mark_y
        insort(self._adj[i], j)
        insort(self._adj[j], i)

    def remove_edge(self, x: str, y: str) -> None:
        self._remove_edge(*self._ids(x, y))

    def _remove_edge(self, i: int, j: int) -> None:
        marks = self._marks
        if (i, j) not in marks:
            raise self._edge_error(i, j, "not present")
        del marks[i, j], marks[j, i]
        self._adj[i].remove(j)
        self._adj[j].remove(i)
        if not (self._underlines or self._dotted):
            return
        # triples are claims about their two edges; drop any that lost one
        gone = {i, j}
        for triples in (self._underlines, self._dotted):
            for t in [t for t in triples if gone <= {t[0], t[1]} or gone <= {t[1], t[2]}]:
                triples.discard(t)

    def mark_at(self, at: str, other: str) -> Mark:
        """The mark at the ``at`` end of the edge between at and other."""
        i, j = self._ids(at, other)
        mark = self._marks.get((i, j))
        if mark is None:
            raise self._edge_error(i, j, "not present")
        return mark

    def set_mark(self, at: str, other: str, mark: Mark) -> "Pag":
        """Write an endpoint mark.

        A circle may harden into a tail or an arrow; re-setting the
        current mark is a no-op; any other change raises MarkConflict.
        """
        existing = self._set_mark(*self._ids(at, other), mark)
        if existing is not None:
            raise MarkConflict(at, other, existing, mark)
        return self

    def _set_mark(self, i: int, j: int, mark: Mark) -> Mark | None:
        """``set_mark`` by ids, without raising on a conflict: None when the
        mark is written or already set, else the different hardened mark
        that stays. An absent edge raises ValueError."""
        current = self._marks.get((i, j))
        if current is mark:
            return None
        if current is Mark.CIRCLE:
            self._marks[i, j] = mark
            return None
        if current is None:
            raise self._edge_error(i, j, "not present")
        return current

    def adjacent(self, x: str) -> tuple[str, ...]:
        v = self._vertices
        return tuple(v[j] for j in self._adj[self.index(x)])

    def edge_records(self) -> list[tuple[str, str, Mark, Mark]]:
        """Sorted (a, b, mark_at_a, mark_at_b) rows with a < b."""
        v = self._vertices
        marks = self._marks
        return [
            (v[i], v[j], marks[i, j], marks[j, i])
            for i, adjacent in enumerate(self._adj)
            for j in adjacent
            if i < j
        ]

    def is_arrow_collider(self, a: str, b: str, c: str) -> bool:
        """Arrows at b on both the a-b and c-b edges."""
        (i, j), (k, _) = self._ids(a, b), self._ids(c, b)
        return self._is_arrow_collider(i, j, k)

    def _is_arrow_collider(self, a: int, b: int, c: int) -> bool:
        marks = self._marks
        return marks.get((b, a)) is Mark.ARROW and marks.get((b, c)) is Mark.ARROW

    def _triple(self, a: str, b: str, c: str) -> tuple[int, int, int]:
        self.canonical_triple(a, b, c)
        return self.index(a), self.index(b), self.index(c)

    def add_underline(self, a: str, b: str, c: str) -> None:
        self._add_underline(*self._triple(a, b, c))

    def _add_underline(self, a: int, b: int, c: int) -> None:
        if not ((a, b) in self._marks and (b, c) in self._marks):
            raise self._triple_error("underline", a, b, c, "needs both edges present")
        triple = (a, b, c) if a < c else (c, b, a)
        if triple in self._dotted:
            raise self._triple_error("triple", a, b, c, "is already dotted-underlined")
        self._underlines.add(triple)

    def add_dotted_underline(self, a: str, b: str, c: str) -> None:
        self._add_dotted_underline(*self._triple(a, b, c))

    def _add_dotted_underline(self, a: int, b: int, c: int) -> None:
        if not self._is_arrow_collider(a, b, c):
            raise self._triple_error(
                "dotted underline", a, b, c, f"needs a collider at {self._vertices[b]}"
            )
        triple = (a, b, c) if a < c else (c, b, a)
        if triple in self._underlines:
            raise self._triple_error("triple", a, b, c, "is already underlined")
        self._dotted.add(triple)

    def _triple_error(self, what: str, a: int, b: int, c: int, why: str) -> ValueError:
        v = self._vertices
        return ValueError(f"{what} {v[a]} {v[b]} {v[c]} {why}")

    def copy(self) -> "Pag":
        dup = Pag(self._vertices)
        dup._adj = [list(adjacent) for adjacent in self._adj]
        dup._marks = dict(self._marks)
        dup._underlines = set(self._underlines)
        dup._dotted = set(self._dotted)
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pag):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._marks == other._marks
            and self._underlines == other._underlines
            and self._dotted == other._dotted
        )

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return (
            f"Pag(vertices={len(self._vertices)}, edges={len(self._marks) // 2}, "
            f"underlines={len(self._underlines)}, dotted={len(self._dotted)})"
        )


_LEFT_GLYPH = {Mark.CIRCLE: "o", Mark.TAIL: "-", Mark.ARROW: "<"}
_RIGHT_GLYPH = {Mark.CIRCLE: "o", Mark.TAIL: "-", Mark.ARROW: ">"}
_LEFT_MARK = {v: k for k, v in _LEFT_GLYPH.items()}
_RIGHT_MARK = {v: k for k, v in _RIGHT_GLYPH.items()}


def serialize_pag(pag: Pag) -> str:
    """Render a PAG in the line-based format; inverse of parse_pag."""
    lines = [FORMAT_HEADER]
    lines.extend(f"vertex {v}" for v in pag.vertices)
    for a, b, ma, mb in pag.edge_records():
        lines.append(f"{a} {_LEFT_GLYPH[ma]}-{_RIGHT_GLYPH[mb]} {b}")
    lines.extend(f"underline: {a} {b} {c}" for a, b, c in sorted(pag.underlines))
    lines.extend(f"dotted: {a} {b} {c}" for a, b, c in sorted(pag.dotted_underlines))
    return "\n".join(lines) + "\n"


def parse_pag(text: str) -> Pag:
    vertices: set[str] = set()
    edge_rows: list[tuple[_Line, str, str, Mark, Mark]] = []
    triple_rows: list[tuple[_Line, str, str, str, str]] = []
    for line in _read_lines(text, PagParseError):
        tokens = line.tokens
        if len(tokens) == 2 and tokens[0] == "vertex":
            vertices.add(line.label(tokens[1]))
        elif len(tokens) == 4 and tokens[0] in ("underline:", "dotted:"):
            a, b, c = (line.label(t) for t in tokens[1:])
            triple_rows.append((line, tokens[0][:-1], a, b, c))
        elif len(tokens) == 3 and _is_glyph_pair(tokens[1]):
            a, b = line.label(tokens[0]), line.label(tokens[2])
            if a == b:
                raise line.error(f"self-loop on {a!r}")
            edge_rows.append((line, a, b, _LEFT_MARK[tokens[1][0]], _RIGHT_MARK[tokens[1][2]]))
        else:
            raise line.error(f"cannot parse {line.raw!r}")
    for _, a, b, *_ in edge_rows:
        vertices.update((a, b))
    for _, _, a, b, c in triple_rows:
        vertices.update((a, b, c))
    pag = Pag(vertices)
    for line, a, b, ma, mb in edge_rows:
        try:
            pag.add_edge(a, b, ma, mb)
        except ValueError as exc:
            raise line.error(exc) from None
    for line, kind, a, b, c in triple_rows:
        try:
            if kind == "underline":
                pag.add_underline(a, b, c)
            else:
                pag.add_dotted_underline(a, b, c)
        except ValueError as exc:
            raise line.error(exc) from None
    return pag


def _is_glyph_pair(token: str) -> bool:
    return (
        len(token) == 3
        and token[1] == "-"
        and token[0] in _LEFT_MARK
        and token[2] in _RIGHT_MARK
    )


_DOT_ARROW = {Mark.TAIL: "none", Mark.ARROW: "normal", Mark.CIRCLE: "odot"}


def _dot_id(label: str) -> str:
    """A label as a quoted DOT ID; a label may hold '"' and '\\'."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(pag: Pag) -> str:
    """Graphviz rendering; triple annotations travel as comments."""
    lines = ["digraph pag {", "  edge [dir=both];"]
    lines.extend(f"  {_dot_id(v)};" for v in pag.vertices)
    for a, b, ma, mb in pag.edge_records():
        lines.append(
            f"  {_dot_id(a)} -> {_dot_id(b)} "
            f"[arrowtail={_DOT_ARROW[ma]}, arrowhead={_DOT_ARROW[mb]}];"
        )
    lines.extend(f"  // underline: {a} {b} {c}" for a, b, c in sorted(pag.underlines))
    lines.extend(
        f"  // dotted: {a} {b} {c}" for a, b, c in sorted(pag.dotted_underlines)
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def verify_pag_against_graph(
    pag: Pag, graph: DirectedGraph, check_edges: bool = True
) -> list[str]:
    """Check every claim the PAG makes against one concrete graph.

    Returns human-readable violation strings; an empty list means sound.
    Edges are claims of inseparability, checked for every pair by virtual
    adjacency in the graph; pass check_edges=False to skip that check.
    Circle marks claim nothing and are never checked.
    """
    if tuple(pag.vertices) != tuple(graph.vertices):
        raise ValueError("the PAG and the graph must share one vertex set")
    violations: list[str] = []
    verts = graph.vertices
    if check_edges:
        for a, b in combinations(verts, 2):
            separable = not graph.adjacent_in_graph(a, b)
            if pag.has_edge(a, b) and separable:
                violations.append(f"(i) edge {a}-{b}, but some subset separates them")
            if not pag.has_edge(a, b) and not separable:
                violations.append(f"(i) no edge {a}-{b}, but no subset separates them")
    for a, b, ma, mb in pag.edge_records():
        if ma is Mark.TAIL and not graph.is_ancestor(a, b):
            violations.append(f"(ii) tail at {a} on {a}-{b}, but {a} is not an ancestor of {b}")
        if mb is Mark.TAIL and not graph.is_ancestor(b, a):
            violations.append(f"(ii) tail at {b} on {a}-{b}, but {b} is not an ancestor of {a}")
        if ma is Mark.ARROW and graph.is_ancestor(a, b):
            violations.append(f"(iii) arrow at {a} on {a}-{b}, but {a} is an ancestor of {b}")
        if mb is Mark.ARROW and graph.is_ancestor(b, a):
            violations.append(f"(iii) arrow at {b} on {a}-{b}, but {b} is an ancestor of {a}")
    for a, b, c in sorted(pag.underlines):
        if not (graph.is_ancestor(b, a) or graph.is_ancestor(b, c)):
            violations.append(
                f"(iv) underline {a} {b} {c}, but {b} is an ancestor of neither flank"
            )
    for a, b, c in sorted(pag.dotted_underlines):
        common = graph.children(a) & graph.children(c)
        if b in graph.descendants(common):
            violations.append(
                f"(v) dotted underline {a} {b} {c}, but {b} descends from a "
                f"common child of {a} and {c}"
            )
    return violations
