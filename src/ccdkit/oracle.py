"""The exact conditional-independence oracle, and the memo and query
accounting every oracle shares.

``IndependenceOracle`` is the interface; ``GraphOracle`` answers by
d-separation in a known graph. The statistical oracle, ``FisherZOracle``,
lives in ``fisherz.py`` with the rest of the numpy-backed code, so this
module and the search that uses it load without numpy.

A query has two entries: the public ``is_independent`` takes labels, and
the internal ``_first_separator`` takes vertex indices and a whole level
of a separator search; ``ccd._route`` chooses between them. Each oracle's
``_first_separator`` alone reads and writes its memo and statistics, and
``GraphOracle``'s its ranges of settled sets too; the base class's asks
each new set through ``_decide``, ``FisherZOracle``'s only one not clean.
The memo keeps each answer under one packed int per unordered pair and
set. The statistics count each distinct query once, under the phase that
first asked it and the size of its set.

The memo, the ranges, the caches and the counters are written only under
a lock, and the phase label belongs to the thread that set it, so an
oracle instance can be shared across threads.
"""
from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from ._reach import walk
from .digraph import DirectedGraph, _as_vertex_set, _bits, _id_of, _mask_of
from .dsep import _check_endpoints

__all__ = [
    "OracleStats",
    "IndependenceOracle",
    "GraphOracle",
]


@dataclass
class OracleStats:
    """Distinct-query counts grouped by phase label and conditioning-set size,
    and per reason a statistical query counted as dependent, in first-seen
    order, ``degenerate[reason] = [count, first query as "(x, y | [s])"]``."""

    counts: Counter = field(default_factory=Counter)
    degenerate: dict[str, list] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.counts.values())

    def for_phase(self, phase: str | None) -> int:
        return sum(n for (p, _), n in self.counts.items() if p == phase)

    def rows(self) -> list[tuple[str, int, int]]:
        """Sorted (phase, size, count) rows; unattributed queries show as '-'."""
        return sorted(
            (phase if phase is not None else "-", size, count)
            for (phase, size), count in self.counts.items()
        )


class _PhaseLabel(threading.local):
    """The phase label of one thread; unattributed until that thread sets one."""

    label: str | None = None


class IndependenceOracle:
    """Base answering service; subclasses implement ``_decide``."""

    def __init__(self, vertices: Iterable[str]):
        self.vertices: tuple[str, ...] = tuple(sorted({str(v) for v in vertices}))
        self.stats = OracleStats()
        self._index = {v: i for i, v in enumerate(self.vertices)}
        # bits of one endpoint index in a packed key
        self._width = max(1, (len(self.vertices) - 1).bit_length())
        self._memo: dict[int, bool] = {}
        self._lock = threading.Lock()
        self._phase = _PhaseLabel()

    def is_independent(self, x: str, y: str, s: Iterable[str] | str = ()) -> bool:
        """Whether x and y are independent given the set ``s``; a bare label
        is the set of that one vertex, as in ``d_separated``. Endpoints and
        members are read as labels through ``str``, validated as ``dsep.py``
        states, and asked through ``_first_separator`` as its one set."""
        s = frozenset(str(v) for v in _as_vertex_set(s))
        x, y = str(x), str(y)
        _check_endpoints(x, y, s)
        i, j = _id_of(self._index, x), _id_of(self._index, y)
        return self._first_separator(i, j, (), 0, _mask_of(self._index, s)) is not None

    def _first_separator(
        self, i: int, j: int, candidates: Sequence[int], size: int, extra: int = 0
    ) -> int | None:
        """The first set ``sum(subset) | extra`` that separates i from j,
        over the size-``size`` subsets of ``candidates`` in ``combinations``
        order, or None when none does.

        The caller passes distinct indices i and j and distinct one-vertex
        ``candidates``, disjoint from ``extra``, none holding i or j,
        unchecked, so every set of one call has the size ``size +
        extra.bit_count()``, under which its new queries are counted. The
        memo key packs the set and the unordered pair into one int,
        ``zmask << 2w | lo << w | hi`` with ``w`` bits per index.

        With ``size`` 0 the one set is ``extra``, as ``is_independent``,
        phases C and F and level 0 of phases A and D ask it. Its memo entry
        is read first without the lock: a dict read is atomic and an entry
        never changes once written, so a hit returns with no lock, no phase
        label and no count. A miss, like any larger level, goes through the
        one loop, where ``combinations(candidates, 0)`` yields the one set.
        The loop holds the lock for the whole call, reads the memo again per
        set, and updates the statistics once, with the call's new decisions
        even when a later ``_decide`` raises. The raising query is neither
        memoised nor counted.
        """
        w = self._width
        pair = i << w | j if i < j else j << w | i
        memo = self._memo
        if size == 0:  # one set, extra
            answer = memo.get(extra << 2 * w | pair)
            if answer is not None:
                return extra if answer else None
        decide = self._decide
        with self._lock:
            label = self._phase.label
            new = 0
            try:
                for subset in combinations(candidates, size):
                    zmask = sum(subset) | extra
                    key = zmask << 2 * w | pair
                    answer = memo.get(key)
                    if answer is None:
                        answer = memo[key] = bool(decide(i, j, zmask))
                        new += 1
                    if answer:
                        return zmask
            finally:
                if new:
                    self.stats.counts[label, size + extra.bit_count()] += new
        return None

    def _decide(self, i: int, j: int, zmask: int) -> bool:
        """Whether i and j, indices into ``vertices`` in the caller's order,
        are independent given the set of the bitmask ``zmask``."""
        raise NotImplementedError

    @contextmanager
    def phase(self, label: str) -> Iterator["IndependenceOracle"]:
        """Attribute queries this thread first asks inside the block to this label."""
        previous = self._phase.label
        self._phase.label = label
        try:
            yield self
        finally:
            self._phase.label = previous


def _covered(ranges: Iterable[tuple[int, int]], zmask: int) -> bool:
    """True when some range (fixed, universe) holds the set zmask."""
    for fixed, universe in ranges:
        if not fixed & ~zmask and not zmask & ~universe:
            return True
    return False


def _range_size(fixed: int, universe: int, k: int) -> int:
    """The number of k-sets Z with fixed <= Z <= universe."""
    if fixed & ~universe:
        return 0
    free = k - fixed.bit_count()
    return comb(universe.bit_count() - fixed.bit_count(), free) if free >= 0 else 0


class GraphOracle(IndependenceOracle):
    """Exact oracle: independent iff d-separated in the given graph.

    ``_decide`` answers a query from one reach set per endpoint and
    conditioning set, walked once. A subset level of the search goes
    through this class's ``_first_separator``, where the level test and its
    moral-graph paths (``_level_paths``) and the ancestral rule
    (``_known_dependent``) answer most of its sets without ``_decide``.
    """

    def __init__(self, graph: DirectedGraph):
        super().__init__(graph.vertices)
        self.graph = graph
        # keyed zmask << w | endpoint: the vertices outside the endpoint
        # and zmask that are d-connected to it given zmask
        self._walks: dict[int, int] = {}
        # keyed extra << 2w | i << w | j: (within, paths) of the last
        # searched level of that pair and extra, the member masks of the
        # moral-graph paths found over the candidates ``within``
        self._bounds: dict[int, tuple[int, Sequence[int]]] = {}
        # keyed k << 2w | lo << w | hi: the settled ranges (fixed, universe),
        # each meaning that every k-set Z with fixed <= Z <= universe is
        # dependent, and the decided dependent k-sets, k >= 1
        self._ranges: dict[int, list[tuple[int, int]]] = {}
        self._decided: dict[int, list[int]] = {}

    def _first_separator(
        self, i: int, j: int, candidates: Sequence[int], size: int, extra: int = 0
    ) -> int | None:
        """The base class's query path, memo and counts, with known
        dependent sets left out of ``_decide``. A one-set miss in a recorded
        range of its pair and size is dependent and not counted again. A
        level that ``_level_paths`` settles is recorded as one range
        (``_settle``) and its new sets counted. Otherwise each set neither
        memoised nor in a range is decided, or recorded dependent as if
        decided when it misses one of the level's paths or
        ``_known_dependent`` holds for its part inside An({i, j}). A
        dependent set is indexed in ``_decided``."""
        w = self._width
        pair = i << w | j if i < j else j << w | i
        memo = self._memo
        if size == 0:  # one set, extra
            key = extra << 2 * w | pair
            answer = memo.get(key)
            if answer is None:
                with self._lock:
                    answer = memo.get(key)
                    if answer is None:
                        k = extra.bit_count()
                        if k:
                            level = k << 2 * w | pair
                            ranges = self._ranges.get(level)
                            if ranges and _covered(ranges, extra):
                                return None
                            answer = memo[key] = bool(self._decide(i, j, extra))
                            if not answer:
                                self._decided.setdefault(level, []).append(extra)
                        else:
                            answer = memo[key] = bool(self._decide(i, j, extra))
                        self.stats.counts[self._phase.label, k] += 1
            return extra if answer else None
        decide = self._decide
        with self._lock:
            label = self._phase.label
            k = size + extra.bit_count()
            level = k << 2 * w | pair
            ancestors = self.graph._ancestor_masks
            region = ancestors[i] | ancestors[j]
            paths = self._level_paths(i, j, candidates, size, extra, region)
            if paths is None:
                new = self._settle(level, k, extra, extra | sum(candidates))
                if new:
                    self.stats.counts[label, k] += new
                return None
            ranges = self._ranges.get(level)
            shared = ancestors[i] & ancestors[j]
            new = 0
            dependent = []
            try:
                for subset in combinations(candidates, size):
                    zmask = sum(subset) | extra
                    key = zmask << 2 * w | pair
                    answer = memo.get(key)
                    if answer is None:
                        if ranges and _covered(ranges, zmask):
                            continue
                        for cut in paths:
                            if not zmask & cut:  # the set misses this path
                                answer = memo[key] = False
                                break
                        else:
                            inner = zmask & region
                            if inner != zmask and self._known_dependent(pair, inner, shared):
                                answer = memo[key] = False
                            else:
                                answer = memo[key] = bool(decide(i, j, zmask))
                        new += 1
                        if not answer:
                            dependent.append(zmask)
                    if answer:
                        return zmask
            finally:
                if new:
                    self.stats.counts[label, k] += new
                if dependent:
                    self._decided.setdefault(level, []).extend(dependent)
        return None

    def _settle(self, level: int, k: int, fixed: int, universe: int) -> int:
        """Record the range of the k-sets Z with fixed ⊆ Z ⊆ universe as
        dependent under ``level`` (k and the packed pair), and return how
        many of them were not known before, which the caller counts as the
        per-set loop would have counted them. The range's sets get no memo
        entry, so the memo holds only the queries asked one by one.

        The new sets are all of them, minus those in the level's earlier
        ranges, counted by inclusion–exclusion over their intersections
        (again ranges: the union of the fixed masks, the intersection of
        the universes), minus the decided dependent sets of ``_decided``
        inside it and outside those ranges; a separating set lies in no
        range, so only dependent sets are indexed. A range with no new set,
        and an earlier range inside the new one, are not kept."""
        new = _range_size(fixed, universe, k)
        if not new:
            return 0
        earlier = self._ranges.get(level)
        decided = self._decided.get(level)
        if earlier is None and decided is None:  # most levels: nothing known yet
            self._ranges[level] = [(fixed, universe)]
            return new
        earlier = earlier or []
        # (fixed, universe, sign) of the range met with each nonempty
        # combination of earlier ranges; the sign is +1 for an odd count
        terms: list[tuple[int, int, int]] = []
        for f, u in earlier:
            for tf, tu, sign in [(fixed, universe, -1), *terms]:
                tf |= f
                tu &= u
                if _range_size(tf, tu, k):
                    terms.append((tf, tu, -sign))
        new -= sum(sign * _range_size(tf, tu, k) for tf, tu, sign in terms)
        for z in decided or ():
            if not fixed & ~z and not z & ~universe and not _covered(earlier, z):
                new -= 1
        if new:
            kept = [(f, u) for f, u in earlier if fixed & ~f or u & ~universe]
            kept.append((fixed, universe))
            self._ranges[level] = kept
        return new

    def _known_dependent(self, pair: int, zmask: int, shared: int) -> bool:
        """The ancestral rule: True when the set zmask, inside An({i, j}),
        is known not to separate the packed pair i, j, whose endpoints share
        the ancestors ``shared``: it is empty and they share one, it is
        memoised as dependent, or it lies in a recorded range of its pair
        and size. Then every set Z with Z ∩ An({i, j}) = zmask is dependent
        too, since Z separates the pair only if that part does, by the
        moral-graph criterion (Tian, Paz & Pearl 1998; Spirtes 1995 for
        cyclic graphs). In phase A this is a set of neighbours that holds
        some outside the pair's ancestral set."""
        if not zmask:
            return bool(shared)
        w = self._width
        if self._memo.get(zmask << 2 * w | pair) is False:
            return True
        ranges = self._ranges.get(zmask.bit_count() << 2 * w | pair)
        return bool(ranges) and _covered(ranges, zmask)

    def _level_paths(
        self, i: int, j: int, candidates: Sequence[int], size: int, extra: int, region: int
    ) -> Sequence[int] | None:
        """The level test: None when no set of the level separates i and j,
        else masks of candidates, each of which every separating set of the
        level meets, so that a set missing one of them is dependent.

        Each mask is the candidates on one i–j path in the moral graph of A
        = An({i, j} ∪ extra) with extra removed, and no two masks share a
        candidate, so the level holds no separator when a mask is empty or
        there are more than ``size`` of them. ``DirectedGraph._inseparable``
        finds the pair joined in that graph in O(|extra|): in phase A a
        virtually adjacent pair, in phase D flanks with a common child that
        is an ancestor of the collider middle every set holds. Otherwise
        ``DirectedGraph._separator_paths`` searches for paths when the
        level's sets inside A, C(|A ∩ candidates|, size), outnumber two
        thirds of A's vertices. A smaller level costs less to ask than to
        search: ``_known_dependent`` answers most sets that reach outside
        An({i, j}), and on sparse graphs one walk from an endpoint given a
        set answers many pairs. The paths are kept per (i, j, extra) with
        their candidates, and a later level whose candidates are among
        those reuses them, cut down to its candidates: a path stays a path
        and the masks stay disjoint. It is searched again when it has fewer
        candidates and the cut-down paths do not settle it: no two paths
        may share a candidate, so fewer candidates can leave room for more
        paths. ``region`` is the caller's An({i, j}); A extends it.
        """
        g = self.graph
        if g._inseparable(i, j, extra):
            return None
        w = self._width
        key = extra << 2 * w | i << w | j
        within = sum(candidates)
        cached = self._bounds.get(key)
        if cached is not None and not within & ~cached[0]:
            kept, paths = cached
            if within != kept:
                paths = [cut & within for cut in paths]
        else:
            kept, paths = 0, ()
        if within != kept and len(paths) <= size and 0 not in paths:
            if extra:
                ancestors = g._ancestor_masks
                for k in _bits(extra):
                    region |= ancestors[k]
            if 3 * comb((within & region).bit_count(), size) > 2 * region.bit_count():
                paths = g._separator_paths(i, j, extra, within, region)
                self._bounds[key] = within, paths
        return None if len(paths) > size or 0 in paths else paths

    def _decide(self, i: int, j: int, zmask: int) -> bool:
        """Given the empty set, i and j are d-connected exactly when they
        share an ancestor, and a virtually adjacent pair is dependent given
        every set; neither needs a walk. Otherwise j's bit in the reach set
        of i given zmask answers: the first query of that endpoint and set
        walks to the fixpoint and keeps the set in ``_walks``, and every
        later one, for any target, is one bit test."""
        g = self.graph  # masks and memos built on first use keep construction cheap
        if not zmask:
            ancestors = g._ancestor_masks
            return not ancestors[i] & ancestors[j]
        if g._adjacent_masks[i] >> j & 1:
            return False
        key = zmask << self._width | i
        reach = self._walks.get(key)
        if reach is None:
            reached = walk(g._parent_unions, g._child_unions, zmask, 1 << i)
            reach = self._walks[key] = reached & ~(zmask | 1 << i)
        return not reach >> j & 1
