"""The CCD search: one adjacency-elimination pass and five orientation
passes over a conditional-independence oracle.

The phases run once each, in a fixed order, and all candidate enumeration
is lexicographic in vertex labels with conditioning subsets visited in
size-then-lexicographic order, so a run is a pure function of the oracle's
answers. Orientation follows a first-write-wins policy: a mark that is
already hardened is never changed, and a contradicting write is recorded
as a conflict while the run continues. An exact oracle never produces
conflicts; a statistical one may.

The phases work on vertex ids, positions in the PAG's sorted labels, so
id order is label order and sorted id lists enumerate candidates and
subsets in the same order as labels would. A conditioning set is a
bitmask over PAG ids, and ``_route`` gives each asking phase one
callable ``ask(x, y, zmask)`` over those ids:

- when the oracle's class keeps ``IndependenceOracle.is_independent``
  and the oracle's vertices are the PAG's, its indices are the PAG ids,
  and the callable is ``_ask``, the internal entry that owns the memo and
  the statistics, with no label handling per query;
- otherwise, as for a search over a subset of the oracle's vertices, a
  subclass that overrides ``is_independent`` or a wrapper that offers
  only the label interface, it asks ``is_independent`` with the PAG's
  labels, in the same order.

``CcdState`` keeps what the phases hand on by ids: separators and
supersets as masks, local sets as id tuples. Its ``sepset``, ``supset``
and ``local`` attributes are label views built when read.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Callable, Iterable

from .digraph import _bits, _id_of
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
    """Everything one run accumulates, keyed by PAG ids.

    ``_sep`` maps each non-adjacent pair, smaller id first, to the mask of
    the set that separated it; ``_sup`` maps each dotted-underlined triple,
    smaller flank first, to the mask of the separator holding its middle;
    ``_local`` holds each vertex's local set, frozen when phase D starts.
    ``sepset``, ``supset`` and ``local`` are read-only label views of them.
    """

    psi: Pag
    stats: OracleStats = field(default_factory=OracleStats)
    conflicts: list[ConflictRecord] = field(default_factory=list)
    _sep: dict[tuple[int, int], int] = field(default_factory=dict, init=False)
    _sup: dict[tuple[int, int, int], int] = field(default_factory=dict, init=False)
    _local: list[tuple[int, ...]] = field(default_factory=list, init=False)

    @classmethod
    def initial(cls, vertices: Iterable[str], stats: OracleStats | None = None) -> "CcdState":
        return cls(psi=Pag.complete(vertices), stats=stats or OracleStats())

    def _names(self, ids: Iterable[int]) -> tuple[str, ...]:
        names = self.psi.vertices
        return tuple(names[v] for v in ids)

    def _set(self, mask: int | None) -> frozenset[str] | None:
        return None if mask is None else frozenset(self._names(_bits(mask)))

    @property
    def sepset(self) -> dict[tuple[str, str], frozenset[str]]:
        return {self._names(pair): self._set(m) for pair, m in self._sep.items()}

    @property
    def supset(self) -> dict[tuple[str, str, str], frozenset[str]]:
        return {self._names(triple): self._set(m) for triple, m in self._sup.items()}

    @property
    def local(self) -> dict[str, tuple[str, ...]]:
        return {self.psi.vertices[v]: self._names(ids) for v, ids in enumerate(self._local)}

    def sepset_of(self, x: str, y: str) -> frozenset[str] | None:
        return self._set(self._sep.get(tuple(sorted(map(self.psi.index, (x, y))))))

    def supset_of(self, a: str, b: str, c: str) -> frozenset[str] | None:
        return self._set(self._sup.get(tuple(map(self.psi.index, Pag.canonical_triple(a, b, c)))))


def _harden(state: CcdState, phase: str, at: int, other: int, mark: Mark) -> None:
    """Write a mark by PAG ids; a rejected write becomes a ConflictRecord."""
    try:
        state.psi._set_mark(at, other, mark)
    except MarkConflict as exc:
        state.conflicts.append(
            ConflictRecord(phase, exc.at, exc.other, existing=exc.existing, attempted=mark)
        )


def _route(oracle: IndependenceOracle, psi: Pag) -> Callable[[int, int, int], bool]:
    """How one phase asks the oracle: ``ask(x, y, zmask)`` over PAG ids.

    ``_ask`` itself when the oracle's class keeps the base
    ``is_independent`` and the oracle's vertices are the PAG's. Otherwise
    the query goes to ``is_independent`` with labels, the conditioning set
    in label order, after every PAG vertex has been checked against the
    oracle's, so an unknown one raises UnknownVertexError before any query.
    """
    names = psi.vertices
    keeps_base = type(oracle).is_independent is IndependenceOracle.is_independent
    if keeps_base and oracle.vertices == names:
        return oracle._ask
    known = dict.fromkeys(oracle.vertices)
    for v in names:
        _id_of(known, v)

    def ask(x: int, y: int, zmask: int) -> bool:
        return oracle.is_independent(names[x], names[y], [names[k] for k in _bits(zmask)])

    return ask


def run_ccd(oracle: IndependenceOracle, vertices: Iterable[str]) -> tuple[Pag, CcdState]:
    """Run the full search over ``vertices`` and return (PAG, state).

    ``vertices`` may be any subset of the oracle's vertices; a vertex the
    oracle does not know raises UnknownVertexError.
    """
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
    adj = psi._adj
    ask = _route(oracle, psi)
    with oracle.phase("A"):
        n = 0
        while any(len(nb) > n for nb in adj):
            for x, nb in enumerate(adj):
                for y in tuple(nb):
                    candidates = [1 << v for v in nb if v != y]
                    if len(candidates) < n:
                        continue
                    for subset in combinations(candidates, n):
                        zmask = sum(subset)
                        if ask(x, y, zmask):
                            psi._remove_edge(x, y)
                            state._sep[(x, y) if x < y else (y, x)] = zmask
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
    marks = psi._marks
    for b, nb in enumerate(psi._adj):
        for a, c in combinations(nb, 2):
            if (a, c) in marks:
                continue
            if state._sep[a, c] >> b & 1:
                psi._add_underline(a, b, c)
            else:
                _harden(state, "B", b, a, Mark.ARROW)
                _harden(state, "B", b, c, Mark.ARROW)
                _harden(state, "B", a, b, Mark.TAIL)
                _harden(state, "B", c, b, Mark.TAIL)
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
    adj = psi._adj
    separators = state._sep
    ask = _route(oracle, psi)
    with oracle.phase("C"):
        for a, nb_a in enumerate(adj):
            near = {a, *nb_a}
            for x, nb in enumerate(adj):
                if x in near:
                    continue
                for y in nb:
                    if y in near:
                        continue
                    separator = separators.get((a, y) if a < y else (y, a))
                    if separator is None or separator >> x & 1:
                        continue
                    if not ask(a, x, separator):
                        _harden(state, "C", x, y, Mark.ARROW)
                        _harden(state, "C", y, x, Mark.TAIL)
    return state


def _local_set(psi: Pag, v: int) -> tuple[int, ...]:
    """Neighbours of v plus far flanks of colliders pointing at v's neighbours."""
    adj = psi._adj
    marks = psi._marks
    out = set(adj[v])
    for y in adj[v]:
        if marks[y, v] is not Mark.ARROW:
            continue
        for x in adj[y]:
            if x != v and marks[y, x] is Mark.ARROW:
                out.add(x)
    return tuple(sorted(out))


def phase_d(state: CcdState, oracle: IndependenceOracle) -> CcdState:
    """Find separators that contain each unshielded collider's middle vertex.

    Candidate extra conditioning vertices come from the local set of the
    first flank, computed here once and frozen for the rest of the run.
    A success records the separator (middle vertex included) and marks the
    triple with a dotted underline. Phase D writes no marks, so the
    colliders and their candidates are collected once; level m then walks
    the ordered triples not yet dotted that have at least m candidates,
    sorted, until none is left.
    """
    psi = state.psi
    marks = psi._marks
    local = state._local = [_local_set(psi, v) for v in range(len(psi.vertices))]
    pending = []
    for b, nb in enumerate(psi._adj):
        flanks = [v for v in nb if marks[b, v] is Mark.ARROW]
        for a, c in permutations(flanks, 2):
            if (a, c) not in marks:
                key = (a, b, c) if a < c else (c, b, a)
                pending.append(((a, b, c), key, [1 << v for v in local[a] if v != b and v != c]))
    pending.sort()
    dotted = psi._dotted
    ask = _route(oracle, psi)
    with oracle.phase("D"):
        m = 0
        while True:
            pending = [
                (triple, key, candidates)
                for triple, key, candidates in pending
                if key not in dotted and len(candidates) >= m
            ]
            if not pending:
                break
            for (a, b, c), key, candidates in pending:
                if key in dotted:
                    continue  # the other flank order was dotted earlier at this level
                middle = 1 << b
                for subset in combinations(candidates, m):
                    zmask = sum(subset) | middle
                    if ask(a, c, zmask):
                        psi._add_dotted_underline(a, b, c)
                        state._sup[key] = zmask
                        break
            m += 1
    return state


def _dotted_both_ways(psi: Pag) -> list[tuple[int, int, int]]:
    """Every dotted triple in both flank orders, lexicographically sorted.

    This is the order in which a scan over all ordered vertex triples
    meets them, so the orientation phases write marks, and record
    conflicts, in the same sequence as that scan would.
    """
    return sorted(t for a, b, c in psi._dotted for t in ((a, b, c), (c, b, a)))


def phase_e(state: CcdState) -> CcdState:
    """Orient edges between the middles of twin colliders over one flank pair.

    For a dotted triple (a, b, c) and a fourth vertex d that is also a
    collider between a and c and adjacent to b: membership of d in the
    recorded separator puts a tail at d on the b-d edge, non-membership
    orients b-d as b into d. d walks b's neighbours adjacent to both
    flanks, in label order: O(deg a + deg b + deg c) per dotted triple.
    """
    psi = state.psi
    adj = psi._adj
    marks = psi._marks
    for a, b, c in _dotted_both_ways(psi):
        supset = state._sup[(a, b, c) if a < c else (c, b, a)]
        shared = set(adj[a]).intersection(adj[c])
        for d in adj[b]:
            if d not in shared:
                continue
            if not (marks[d, a] is Mark.ARROW and marks[d, c] is Mark.ARROW):
                continue
            if supset >> d & 1:
                _harden(state, "E", d, b, Mark.TAIL)
            else:
                _harden(state, "E", b, d, Mark.TAIL)
                _harden(state, "E", d, b, Mark.ARROW)
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
    adj = psi._adj
    ask = _route(oracle, psi)
    with oracle.phase("F"):
        for a, b, c in _dotted_both_ways(psi):
            supset = state._sup[(a, b, c) if a < c else (c, b, a)]
            shared = set(adj[a]).intersection(adj[c])
            for d in adj[b]:
                if d == a or d == c or d in shared:
                    continue
                if not ask(a, c, supset | 1 << d):
                    _harden(state, "F", b, d, Mark.TAIL)
                    _harden(state, "F", d, b, Mark.ARROW)
    return state
