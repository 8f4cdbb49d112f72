"""The CCD search: one adjacency-elimination pass and five orientation
passes over a conditional-independence oracle.

The phases run once each, in a fixed order, and all candidate enumeration
is lexicographic in vertex labels with conditioning subsets visited in
size-then-lexicographic order, so a run is a pure function of the oracle's
answers. Orientation follows a first-write-wins policy: a mark that is
already hardened is never changed, and a contradicting write is recorded
as a conflict while the run continues. An exact oracle never produces
conflicts; a statistical one may.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .oracle import IndependenceOracle, OracleStats
from .pag import Mark, MarkConflict, Pag

__all__ = [
    "CcdState",
    "ConflictRecord",
    "run_ccd",
    "phase_a",
    "phase_b",
    "phase_c",
    "phase_d",
    "phase_e",
    "phase_f",
]


@dataclass(frozen=True)
class ConflictRecord:
    """One rejected orientation write."""

    phase: str
    at: str
    other: str
    existing: Mark
    attempted: Mark

    def describe(self) -> str:
        return (
            f"phase {self.phase}: {self.attempted.value} rejected at {self.at} "
            f"on edge {self.at}-{self.other} (already {self.existing.value})"
        )


@dataclass
class CcdState:
    """Everything one run accumulates.

    sepset maps each non-adjacent pair to the conditioning set that
    separated it. supset maps each dotted-underlined triple to the
    separator containing its middle vertex. local is frozen once when the
    separator-completion phase starts and never recomputed afterwards.
    """

    psi: Pag
    sepset: dict[tuple[str, str], frozenset[str]] = field(default_factory=dict)
    supset: dict[tuple[str, str, str], frozenset[str]] = field(default_factory=dict)
    local: dict[str, tuple[str, ...]] = field(default_factory=dict)
    stats: OracleStats = field(default_factory=OracleStats)
    conflicts: list[ConflictRecord] = field(default_factory=list)

    @classmethod
    def initial(cls, vertices: Iterable[str], stats: OracleStats | None = None) -> "CcdState":
        return cls(psi=Pag.complete(vertices), stats=stats or OracleStats())

    def sepset_of(self, x: str, y: str) -> frozenset[str] | None:
        return self.sepset.get(_pair(x, y))

    def supset_of(self, a: str, b: str, c: str) -> frozenset[str] | None:
        return self.supset.get(Pag.canonical_triple(a, b, c))


def _pair(x: str, y: str) -> tuple[str, str]:
    return (x, y) if x < y else (y, x)


def _orient(state: CcdState, phase: str, at: str, other: str, mark: Mark) -> None:
    try:
        state.psi.set_mark(at, other, mark)
    except MarkConflict as exc:
        state.conflicts.append(
            ConflictRecord(phase=phase, at=at, other=other, existing=exc.existing, attempted=mark)
        )


def run_ccd(oracle: IndependenceOracle, vertices: Iterable[str]) -> tuple[Pag, CcdState]:
    """Run the full search over ``vertices`` and return (PAG, state)."""
    state = CcdState.initial(tuple(vertices), oracle.stats)
    phase_a(state, oracle)
    phase_b(state)
    phase_c(state, oracle)
    phase_d(state, oracle)
    phase_e(state)
    phase_f(state, oracle)
    return state.psi, state


def phase_a(state: CcdState, oracle: IndependenceOracle) -> CcdState:
    """Delete edges between conditionally independent pairs.

    For growing subset sizes n, each ordered pair (x, y) still adjacent is
    tested against every size-n subset of x's current neighbours other
    than y; an independent answer deletes the edge and records the subset
    for the pair. Neighbour sets reflect deletions immediately. y walks
    x's neighbour list, read once per x (only x-y is deleted meanwhile):
    a sweep costs O(sum of squared degrees) plus its queries.
    """
    psi = state.psi
    verts = psi.vertices
    with oracle.phase("A"):
        n = 0
        while any(len(psi.adjacent(v)) >= n + 1 for v in verts):
            for x in verts:
                for y in psi.adjacent(x):
                    candidates = [v for v in psi.adjacent(x) if v != y]
                    if len(candidates) < n:
                        continue
                    for subset in combinations(candidates, n):
                        if oracle.is_independent(x, y, subset):
                            psi.remove_edge(x, y)
                            state.sepset[_pair(x, y)] = frozenset(subset)
                            break
            n += 1
    return state


def phase_b(state: CcdState) -> CcdState:
    """Classify unshielded triples.

    A middle vertex absent from its flanks' recorded separator becomes a
    collider (arrows at the middle, tails at the flanks); one present in
    the separator is underlined instead.
    """
    psi = state.psi
    for b in psi.vertices:
        for a, c in combinations(psi.adjacent(b), 2):
            if psi.has_edge(a, c):
                continue
            if b in state.sepset[_pair(a, c)]:
                psi.add_underline(a, b, c)
            else:
                _orient(state, "B", b, a, Mark.ARROW)
                _orient(state, "B", b, c, Mark.ARROW)
                _orient(state, "B", a, b, Mark.TAIL)
                _orient(state, "B", c, b, Mark.TAIL)
    return state


def phase_c(state: CcdState, oracle: IndependenceOracle) -> CcdState:
    """Direct edges whose far endpoint cannot be the near one's ancestor.

    For each ordered triple (a, x, y) with a adjacent to neither x nor y,
    x and y adjacent, and x outside the recorded separator of a and y: if
    a and x stay dependent given that separator, the x end of the x-y edge
    gets an arrow and the y end a tail. The skeleton is fixed here, so for
    each a, x walks the vertices outside a's closed neighbourhood and y
    walks x's neighbours outside it, in label order: O(n * (n + |E|)).
    """
    psi = state.psi
    verts = psi.vertices
    adjacent = {v: psi.adjacent(v) for v in verts}
    with oracle.phase("C"):
        for a in verts:
            near = {a, *adjacent[a]}
            for x in verts:
                if x in near:
                    continue
                for y in adjacent[x]:
                    if y in near:
                        continue
                    separator = state.sepset.get(_pair(a, y))
                    if separator is None or x in separator:
                        continue
                    if not oracle.is_independent(a, x, separator):
                        _orient(state, "C", x, y, Mark.ARROW)
                        _orient(state, "C", y, x, Mark.TAIL)
    return state


def _local_set(psi: Pag, v: str) -> tuple[str, ...]:
    """Neighbours of v plus far flanks of colliders pointing at v's neighbours."""
    out = set(psi.adjacent(v))
    for y in psi.adjacent(v):
        if psi.mark_at(y, v) is not Mark.ARROW:
            continue
        for x in psi.adjacent(y):
            if x != v and psi.mark_at(y, x) is Mark.ARROW:
                out.add(x)
    return tuple(sorted(out))


def _collider_triples(psi: Pag) -> list[tuple[str, str, str]]:
    triples = []
    for b in psi.vertices:
        flanks = [v for v in psi.adjacent(b) if psi.mark_at(b, v) is Mark.ARROW]
        for a in flanks:
            for c in flanks:
                if a != c and not psi.has_edge(a, c):
                    triples.append((a, b, c))
    triples.sort()
    return triples


def phase_d(state: CcdState, oracle: IndependenceOracle) -> CcdState:
    """Find separators that contain each unshielded collider's middle vertex.

    Candidate extra conditioning vertices come from the local set of the
    first flank, computed here once and frozen for the rest of the run.
    A success records the separator (middle vertex included) and marks the
    triple with a dotted underline.
    """
    psi = state.psi
    state.local = {v: _local_set(psi, v) for v in psi.vertices}
    with oracle.phase("D"):
        m = 0
        while True:
            dotted = set(psi.dotted_underlines)
            pending = [
                (a, b, c)
                for (a, b, c) in _collider_triples(psi)
                if Pag.canonical_triple(a, b, c) not in dotted
                and len([v for v in state.local[a] if v not in (b, c)]) >= m
            ]
            if not pending:
                break
            for a, b, c in pending:
                key = Pag.canonical_triple(a, b, c)
                if key in dotted:
                    continue  # dotted earlier in this same sweep
                candidates = [v for v in state.local[a] if v not in (b, c)]
                for subset in combinations(candidates, m):
                    conditioning = frozenset(subset) | {b}
                    if oracle.is_independent(a, c, conditioning):
                        psi.add_dotted_underline(a, b, c)
                        dotted.add(key)
                        state.supset[key] = conditioning
                        break
            m += 1
    return state


def _dotted_both_ways(psi: Pag) -> list[tuple[str, str, str]]:
    """Every dotted triple in both flank orders, lexicographically sorted.

    This is the order in which a scan over all ordered vertex triples
    meets them, so the orientation phases write marks, and record
    conflicts, in the same sequence as that scan would.
    """
    return sorted(t for a, b, c in psi.dotted_underlines for t in ((a, b, c), (c, b, a)))


def phase_e(state: CcdState) -> CcdState:
    """Orient edges between the middles of twin colliders over one flank pair.

    For a dotted triple (a, b, c) and a fourth vertex d that is also a
    collider between a and c and adjacent to b: membership of d in the
    recorded separator puts a tail at d on the b-d edge, non-membership
    orients b-d as b into d. d walks b's neighbours adjacent to both
    flanks, in label order: O(deg a + deg b + deg c) per dotted triple.
    """
    psi = state.psi
    for a, b, c in _dotted_both_ways(psi):
        supset = state.supset[Pag.canonical_triple(a, b, c)]
        shared = set(psi.adjacent(a)).intersection(psi.adjacent(c))
        for d in psi.adjacent(b):
            if d not in shared:
                continue
            if not (psi.mark_at(d, a) is Mark.ARROW and psi.mark_at(d, c) is Mark.ARROW):
                continue
            if d in supset:
                _orient(state, "E", d, b, Mark.TAIL)
            else:
                _orient(state, "E", b, d, Mark.TAIL)
                _orient(state, "E", d, b, Mark.ARROW)
    return state


def phase_f(state: CcdState, oracle: IndependenceOracle) -> CcdState:
    """Orient the middle of a dotted triple into neighbours that break its
    separator.

    For a dotted triple (a, b, c) and a neighbour d of b not adjacent to
    both flanks: if adding d to the recorded separator leaves a and c
    dependent, the b-d edge is oriented b into d. A d already inside the
    separator repeats the recorded independent answer, so nothing fires.
    d walks b's neighbours in label order: O(deg a + deg b + deg c) per
    dotted triple plus its queries.
    """
    psi = state.psi
    with oracle.phase("F"):
        for a, b, c in _dotted_both_ways(psi):
            supset = state.supset[Pag.canonical_triple(a, b, c)]
            shared = set(psi.adjacent(a)).intersection(psi.adjacent(c))
            for d in psi.adjacent(b):
                if d == a or d == c or d in shared:
                    continue
                if not oracle.is_independent(a, c, supset | {d}):
                    _orient(state, "F", b, d, Mark.TAIL)
                    _orient(state, "F", d, b, Mark.ARROW)
    return state
