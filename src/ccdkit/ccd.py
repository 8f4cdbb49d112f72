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
bitmask over the oracle's own indices; ``_route`` maps PAG ids to those
indices once per phase (the search may run over a subset of the oracle's
vertices) and picks how the phase asks:

- an oracle whose class keeps ``IndependenceOracle.is_independent`` is
  asked through ``_ask(i, j, zmask)``, the internal entry that owns its
  memo and statistics, with no label handling per query;
- any other oracle, such as a subclass that overrides ``is_independent``
  or a wrapper that offers only the label interface, is asked through
  ``is_independent`` with labels, in the same order.

``CcdState`` keeps its separators, supersets and local sets keyed by
labels: a phase converts an entry when it writes one (once per deleted
edge, dotted triple or local set) and reads the separators it needs into
masks once, when it starts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable

from .digraph import UnknownVertexError, _bits
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


def _harden(state: CcdState, phase: str, at: int, other: int, mark: Mark) -> None:
    """Write a mark by PAG ids; a rejected write becomes a ConflictRecord."""
    try:
        state.psi._set_mark(at, other, mark)
    except MarkConflict as exc:
        state.conflicts.append(
            ConflictRecord(phase, exc.at, exc.other, existing=exc.existing, attempted=mark)
        )


def _route(
    oracle: IndependenceOracle, psi: Pag
) -> tuple[Callable[[int, int, int], bool], list[int], list[int], dict[int, str]]:
    """How one phase asks the oracle: ``(ask, at, bit, label)``.

    For PAG id v, ``at[v]`` is its oracle index, ``bit[v]`` its bit in a
    conditioning mask and ``label[bit[v]]`` its label; ``ask(at[x], at[y],
    zmask)`` answers a query. An oracle whose class keeps the base
    ``is_independent`` is asked through ``_ask``. Any other one overrides
    ``is_independent`` or only offers the label interface, so it is asked
    through ``is_independent`` with labels, the conditioning set in label
    order.
    """
    names = tuple(oracle.vertices)
    index = {v: k for k, v in enumerate(names)}
    try:
        at = [index[v] for v in psi.vertices]
    except KeyError as exc:
        raise UnknownVertexError(exc.args[0]) from None
    bit = [1 << k for k in at]
    label = dict(zip(bit, psi.vertices))
    if type(oracle).is_independent is IndependenceOracle.is_independent:
        return oracle._ask, at, bit, label

    def ask(i: int, j: int, zmask: int) -> bool:
        return oracle.is_independent(names[i], names[j], [names[k] for k in _bits(zmask)])

    return ask, at, bit, label


def _mask(psi: Pag, bit: list[int], labels: Iterable[str]) -> int:
    """The conditioning mask of a set of labels."""
    index = psi.index
    return sum(bit[index(v)] for v in labels)


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
    names = psi.vertices
    adj = psi._adj
    ask, at, bit, label = _route(oracle, psi)
    with oracle.phase("A"):
        n = 0
        while any(len(nb) > n for nb in adj):
            for x, ix in enumerate(at):
                for y in tuple(adj[x]):
                    candidates = [bit[v] for v in adj[x] if v != y]
                    if len(candidates) < n:
                        continue
                    iy = at[y]
                    for subset in combinations(candidates, n):
                        if ask(ix, iy, sum(subset)):
                            psi._remove_edge(x, y)
                            state.sepset[_pair(names[x], names[y])] = frozenset(
                                label[b] for b in subset
                            )
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
    names = psi.vertices
    marks = psi._marks
    for b, nb in enumerate(psi._adj):
        for a, c in combinations(nb, 2):
            if (a, c) in marks:
                continue
            if names[b] in state.sepset[names[a], names[c]]:
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
    ask, at, bit, _ = _route(oracle, psi)
    index = psi.index
    separators = {}
    for pair, separator in state.sepset.items():
        i, j = sorted(map(index, pair))
        separators[i, j] = _mask(psi, bit, separator)
    with oracle.phase("C"):
        for a, ia in enumerate(at):
            near = {a, *adj[a]}
            for x, nb in enumerate(adj):
                if x in near:
                    continue
                for y in nb:
                    if y in near:
                        continue
                    separator = separators.get((a, y) if a < y else (y, a))
                    if separator is None or separator & bit[x]:
                        continue
                    if not ask(ia, at[x], separator):
                        _harden(state, "C", x, y, Mark.ARROW)
                        _harden(state, "C", y, x, Mark.TAIL)
    return state


def _local_set(psi: Pag, v: int) -> list[int]:
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
    return sorted(out)


def _collider_triples(psi: Pag) -> list[tuple[int, int, int]]:
    marks = psi._marks
    triples = []
    for b, nb in enumerate(psi._adj):
        flanks = [v for v in nb if marks[b, v] is Mark.ARROW]
        for a in flanks:
            for c in flanks:
                if a != c and (a, c) not in marks:
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
    names = psi.vertices
    local = [_local_set(psi, v) for v in range(len(names))]
    state.local = {names[v]: tuple(names[u] for u in members) for v, members in enumerate(local)}
    ask, at, bit, label = _route(oracle, psi)
    with oracle.phase("D"):
        m = 0
        while True:
            dotted = set(psi._dotted)
            pending = [
                (a, b, c)
                for (a, b, c) in _collider_triples(psi)
                if ((a, b, c) if a < c else (c, b, a)) not in dotted
                and len([v for v in local[a] if v != b and v != c]) >= m
            ]
            if not pending:
                break
            for a, b, c in pending:
                key = (a, b, c) if a < c else (c, b, a)
                if key in dotted:
                    continue  # dotted earlier in this same sweep
                candidates = [bit[v] for v in local[a] if v != b and v != c]
                ia, ic, middle = at[a], at[c], bit[b]
                for subset in combinations(candidates, m):
                    if ask(ia, ic, sum(subset) | middle):
                        psi._add_dotted_underline(a, b, c)
                        dotted.add(key)
                        supset = frozenset(label[z] for z in subset) | {names[b]}
                        state.supset[names[key[0]], names[b], names[key[2]]] = supset
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


def _supset(state: CcdState, a: int, b: int, c: int) -> frozenset[str]:
    names = state.psi.vertices
    return state.supset[Pag.canonical_triple(names[a], names[b], names[c])]


def phase_e(state: CcdState) -> CcdState:
    """Orient edges between the middles of twin colliders over one flank pair.

    For a dotted triple (a, b, c) and a fourth vertex d that is also a
    collider between a and c and adjacent to b: membership of d in the
    recorded separator puts a tail at d on the b-d edge, non-membership
    orients b-d as b into d. d walks b's neighbours adjacent to both
    flanks, in label order: O(deg a + deg b + deg c) per dotted triple.
    """
    psi = state.psi
    names = psi.vertices
    adj = psi._adj
    marks = psi._marks
    for a, b, c in _dotted_both_ways(psi):
        supset = _supset(state, a, b, c)
        shared = set(adj[a]).intersection(adj[c])
        for d in adj[b]:
            if d not in shared:
                continue
            if not (marks[d, a] is Mark.ARROW and marks[d, c] is Mark.ARROW):
                continue
            if names[d] in supset:
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
    ask, at, bit, _ = _route(oracle, psi)
    with oracle.phase("F"):
        for a, b, c in _dotted_both_ways(psi):
            supset = _mask(psi, bit, _supset(state, a, b, c))
            shared = set(adj[a]).intersection(adj[c])
            ia, ic = at[a], at[c]
            for d in adj[b]:
                if d == a or d == c or d in shared:
                    continue
                if not ask(ia, ic, supset | bit[d]):
                    _harden(state, "F", b, d, Mark.TAIL)
                    _harden(state, "F", d, b, Mark.ARROW)
    return state
