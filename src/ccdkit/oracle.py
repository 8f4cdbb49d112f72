"""The exact conditional-independence oracle, and the memo and query
accounting every oracle shares.

``IndependenceOracle`` is the interface; ``GraphOracle`` answers by
d-separation in a known graph: the empty set and a virtually adjacent
pair from the graph's masks, any other query by a reachability walk that
stops at the asked vertex and is kept, as one packed int, per (endpoint,
conditioning set) for later queries to resume; a subset level that no
set holding its fixed vertices can separate, or whose sets are too small
to cut every path between the pair, is recorded at once as one range of
dependent sets, with no walk, and a set of a level whose part inside
An({i, j}) is already known to be dependent is dependent with no walk.
The statistical oracle, ``FisherZOracle``, lives in
``fisherz.py`` with the rest of the numpy-backed code, so this module
and the search that uses it load without numpy.

A query has two entries. The public ``is_independent`` validates labels
by the rules ``dsep.py`` states for every query entry and maps them to
vertex indices. The internal ``_first_separator(i, j, candidates, size,
extra)`` takes indices and asks a whole level of a separator search in
one call: the set ``sum(subset) | extra`` for each size-``size`` subset
of the candidate bitmasks, in ``combinations`` order, until one
separates i from j. Its caller passes distinct one-vertex candidates,
disjoint from ``extra``, none holding i or j, so all sets of one call
have one size. It alone reads and writes the memo and the statistics.
A call that asks one set (``size`` 0, the set ``extra``), as
``is_independent``, phases C and F and level 0 of phases A and D do,
reads the memo before it takes the lock: a dict read is atomic and an
entry never changes once written, so a hit returns with no lock, no
phase label and no counting. A miss takes the lock, reads the memo
again, and decides, memoises and counts the query under it. A larger
level takes the lock, reads the phase label and updates the statistics
once per call, not once per query. An oracle whose ``_inseparable``
level test says that no set of the level separates the pair records the
level as one range per unordered pair and set size k, ``(extra, extra |
sum(candidates))``: every k-set between the two masks is dependent. Its
sets are counted as the per-set loop would count them, with no
``_decide`` call and no memo entry, so the memo holds only the queries
asked one by one. A memo miss of such an oracle is checked against its
pair's ranges of that size before ``_decide``: a covered set is
dependent and not counted again. On a level it does not settle, a set
whose part inside An({i, j}) is smaller and known to be dependent is
memoised and counted as dependent without ``_decide``. Only
``GraphOracle`` has the test, and asks its levels through its own
``_ranged_level``, and only while its class keeps its ``_decide``, so an
oracle that answers otherwise sees every query, keeps no range and pays
no range check.
The search in ``ccd.py`` calls ``_first_separator`` directly when the
oracle's class keeps the base ``is_independent`` and its vertices are
the searched ones, so that its indices are the PAG's ids, and
``is_independent`` with labels otherwise, once per set in the same
order, so an oracle that overrides ``is_independent`` still sees every
query. The memo is keyed on one packed int per unordered pair and set;
statistics count each distinct query once, attributed to the search
phase that first asked it. The memo, the ranges, the caches and the
counters are written only under a lock, and the phase label belongs to
the thread that set it, so an oracle instance can be shared across
threads.
"""
from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

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
    """Base answering service; subclasses implement ``_decide``.

    ``is_independent(x, y, s)`` takes the conditioning set ``s`` as an
    iterable of labels; a bare label means the set of that one vertex, as
    in ``d_separated``. The endpoints and the members of ``s`` are read
    as labels through ``str``. It validates the query and hands it to
    ``_first_separator`` as the one set to ask.

    ``_first_separator(i, j, candidates, size, extra)`` is the internal
    entry the search phases call: distinct indices into ``vertices``,
    candidate one-vertex bitmasks and an ``extra`` bitmask, none holding
    i or j, unchecked. It owns the memo, the statistics and the lock. The
    phases use it only when ``type(oracle).is_independent`` is this
    class's method and ``vertices`` are the PAG's; a subclass that
    overrides ``is_independent``, or a search over other vertices, asks
    through ``is_independent``, with labels, in the same order.

    ``_decide(i, j, zmask)`` receives the endpoints as indices into
    ``vertices``, in the order the caller named them, and the conditioning
    set as a bitmask over the same indices.
    """

    # the level test of an oracle that asks its levels through its own
    # _ranged_level, which settles a level that no set of it separates
    # without _decide; None asks every set
    _inseparable: Callable[..., bool] | None = None

    def __init__(self, vertices: Iterable[str]):
        self.vertices: tuple[str, ...] = tuple(sorted({str(v) for v in vertices}))
        self.stats = OracleStats()
        self._index = {v: i for i, v in enumerate(self.vertices)}
        # bits of one endpoint index in a packed key
        self._width = max(1, (len(self.vertices) - 1).bit_length())
        self._memo: dict[int, bool] = {}
        # for an oracle with a level test, keyed k << 2w | lo << w | hi: the
        # settled ranges (fixed, universe), each meaning that every k-set Z
        # with fixed <= Z <= universe is dependent, and the decided dependent
        # k-sets, k >= 1
        self._ranges: dict[int, list[tuple[int, int]]] = {}
        self._decided: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._phase = _PhaseLabel()

    def is_independent(self, x: str, y: str, s: Iterable[str] | str = ()) -> bool:
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

        The one entry that reads and writes the memo and the stats, each
        distinct query counted under the size of its whole set. The caller
        passes distinct one-vertex ``candidates``, disjoint from ``extra``,
        none holding i or j, so every set of one call has the size
        ``size + extra.bit_count()``. With ``size`` 0 the one set is
        ``extra``: the memo is read first without the lock, and only a miss
        takes it, reads the memo again and decides and counts the query.
        Otherwise the lock is held for the whole level and the stats are
        updated once per call, with the call's new decisions, even when
        ``_decide`` raises. Either way the raising query is neither
        memoised nor counted. An oracle with a level test goes through
        its ``_ranged_level`` instead: when the level test holds, under the
        lock, no set of the level separates the pair, so the level is
        recorded as one range of dependent sets, its new sets are counted,
        and None is returned with no ``_decide`` call, as the loop would
        leave them; otherwise, and on a one-set miss, a set inside a
        recorded range of its pair and size is dependent without
        ``_decide`` and without a count, and on a level, a set whose part
        inside An({i, j}) is smaller and known to be dependent is memoised
        and counted as dependent without ``_decide``. This is still the one
        entry to the memo and the ranges. The memo key packs the
        set and the unordered pair into one int, ``zmask << 2w | lo << w |
        hi`` with ``w`` bits per index; a range's key packs k in place of
        the set.
        """
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
                        if k and self._inseparable is not None:
                            level = k << 2 * w | pair
                            ranges = self._ranges.get(level)
                            if ranges and _covered(ranges, extra):
                                return None
                            answer = memo[key] = bool(self._decide(i, j, extra))
                            if not answer:  # a separating set lies in no range
                                self._decided.setdefault(level, []).append(extra)
                        else:
                            answer = memo[key] = bool(self._decide(i, j, extra))
                        self.stats.counts[self._phase.label, k] += 1
            return extra if answer else None
        decide = self._decide
        with self._lock:
            label = self._phase.label
            if self._inseparable is not None:
                return self._ranged_level(i, j, candidates, size, extra, pair, label)
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

    def _settle(self, level: int, k: int, fixed: int, universe: int) -> int:
        """Record the range of the k-sets Z with fixed ⊆ Z ⊆ universe as
        dependent under ``level`` (k and the packed pair), and return how
        many of them were not known before: all of them, minus those in the
        level's earlier ranges, counted by inclusion–exclusion over their
        intersections (again ranges: the union of the fixed masks, the
        intersection of the universes), minus the decided sets inside it and
        outside those ranges. A range with no new set, and an earlier range
        inside the new one, are not kept."""
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

    def _decide(self, i: int, j: int, zmask: int) -> bool:
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

    Given the empty set, a pair is d-connected exactly when its endpoints
    share an ancestor, read from ``_ancestor_masks`` with no walk. A pair
    the graph makes virtually adjacent (``_adjacent_masks``) is
    dependent under every set and needs no walk. A subset level of
    ``_first_separator`` that none of its sets can separate is recorded
    as one range of dependent sets without a ``_decide`` call or a memo
    entry (the level test ``_inseparable``):
    when no set holding ``extra`` separates the pair
    (``DirectedGraph._inseparable``: in phase A a virtually adjacent
    pair, in phase D flanks with a common child that is an ancestor of
    the collider middle every set holds), or, on a level that takes two
    or more candidates a set and has more sets than An({i, j} ∪ extra)
    has vertices, when more than ``size`` paths between the pair share no
    candidate (``DirectedGraph._separator_bound``): in phase A most
    levels of a non-adjacent pair before the one that removes its edge.
    On a level the test does not settle, a set Z whose part Z ∩ An({i, j})
    is smaller and already known to be dependent (``_known_dependent``)
    is dependent too, since Z separates the pair only if that part does
    (Tian, Paz & Pearl 1998; Spirtes 1995 for cyclic graphs), and is
    memoised with no ``_decide`` call: in phase A, a set of neighbours
    that holds some outside the pair's ancestral set. The level test and
    this rule are taken only when the class keeps this ``_decide``, so a
    subclass that changes the answers is asked every set. Any other query
    resumes the walk from its first-named endpoint given the conditioning
    set, and that walk goes only as far as the other endpoint: its state
    is kept per (endpoint, conditioning set), packed into one int, so
    queries sharing that endpoint and the set continue one walk instead
    of starting another, and a target it has already seen costs no step.
    """

    def __init__(self, graph: DirectedGraph):
        super().__init__(graph.vertices)
        self.graph = graph
        self._n = len(graph.vertices)
        # keyed zmask << w | endpoint; the state
        # seen_in | seen_out << n | front_in << 2n | front_out << 3n
        self._walks: dict[int, int] = {}
        # keyed extra << 2w | i << w | j; (within, _separator_bound) of the
        # last bounded level of that pair and extra
        self._bounds: dict[int, tuple[int, float]] = {}
        if type(self)._decide is not GraphOracle._decide:  # answers are not d-separation's
            self._inseparable = None

    def _ranged_level(
        self, i: int, j: int, candidates: Sequence[int], size: int, extra: int,
        pair: int, label: str | None,
    ) -> int | None:
        """``_first_separator``'s level, under the lock. A level that
        ``_inseparable`` settles is recorded as one range and its new sets
        counted (``_settle``). Otherwise each set that is neither memoised
        nor in a recorded range is decided or, when its part inside the
        region An({i, j}) is smaller and known to be dependent
        (``_known_dependent``), recorded dependent as if decided. A
        dependent set is indexed with the pair's other decided dependent
        sets of its size, the only decided sets a later range can hold."""
        w = self._width
        k = size + extra.bit_count()
        level = k << 2 * w | pair
        ancestors = self.graph._ancestor_masks
        region = ancestors[i] | ancestors[j]
        if self._inseparable(i, j, candidates, size, extra, region):
            new = self._settle(level, k, extra, extra | sum(candidates))
            if new:
                self.stats.counts[label, k] += new
            return None
        memo = self._memo
        decide = self._decide
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

    def _known_dependent(self, pair: int, zmask: int, shared: int) -> bool:
        """True when the set zmask is known not to separate the packed
        pair, whose endpoints share the ancestors ``shared``: it is empty
        and they share one, it is memoised as dependent, or it lies in a
        recorded range of its pair and size."""
        if not zmask:
            return bool(shared)
        w = self._width
        if self._memo.get(zmask << 2 * w | pair) is False:
            return True
        ranges = self._ranges.get(zmask.bit_count() << 2 * w | pair)
        return bool(ranges) and _covered(ranges, zmask)

    def _inseparable(
        self, i: int, j: int, candidates: Sequence[int], size: int, extra: int, region: int
    ) -> bool:
        """True when no set of the level separates i and j: when no set
        holding ``extra`` does (``DirectedGraph._inseparable``), or, for a
        level of ``size`` 2 or more with more sets than A = An({i, j} ∪
        extra) has vertices, when ``DirectedGraph._separator_bound`` over
        the candidates exceeds ``size``. A smaller level costs less to ask
        than to bound; on sparse graphs most one-candidate levels that get
        past the rule above hold a separator, so their bound would be
        wasted. The bound is kept per (i, j, extra) with its candidate
        range and reused while the range shrinks, since fewer vertices to
        cut never lower the minimum cut. ``region`` is the caller's
        An({i, j}); A extends it by the ancestors of ``extra`` and is
        handed to the bound, so it is built once per level."""
        g = self.graph
        if g._inseparable(i, j, extra):
            return True
        if size < 2:
            return False
        ancestors = g._ancestor_masks
        for k in _bits(extra):
            region |= ancestors[k]
        if comb(len(candidates), size) <= region.bit_count():
            return False
        w = self._width
        key = extra << 2 * w | i << w | j
        within = sum(candidates)
        cached = self._bounds.get(key)
        if cached is not None and cached[1] > size and not within & ~cached[0]:
            return True
        bound = g._separator_bound(i, j, extra, within, region)
        self._bounds[key] = within, bound
        return bound > size

    def _decide(self, i: int, j: int, zmask: int) -> bool:
        g = self.graph  # masks and memos built on first use keep construction cheap
        if not zmask:  # given nothing, d-connected exactly when they share an ancestor
            ancestors = g._ancestor_masks
            return not ancestors[i] & ancestors[j]
        if g._adjacent_masks[i] >> j & 1:
            return False
        n = self._n
        key = zmask << self._width | i
        state = self._walks.get(key)
        if state is None:
            state = (0, 1 << i, 0, 1 << i)
        elif (state >> j | state >> n + j) & 1:
            return False
        elif not state >> 2 * n:  # the walk is at its fixpoint without j
            return True
        else:
            full = (1 << n) - 1
            state = (state & full, state >> n & full, state >> 2 * n & full, state >> 3 * n)
        seen_in, seen_out, front_in, front_out = walk(
            g._parent_unions, g._child_unions, zmask, state, 1 << j
        )
        self._walks[key] = seen_in | seen_out << n | front_in << 2 * n | front_out << 3 * n
        return not (seen_in | seen_out) >> j & 1
