import csv
import io
import linecache
import math
import random
import string
import sys
import threading
import time
import tracemalloc
import warnings
from array import array
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ccdkit import (
    DataMatrix,
    IndependenceOracle,
    brute_force_d_connected,
    DirectedGraph,
    FisherZOracle,
    GraphOracle,
    SingularCovarianceError,
    SingularCovarianceWarning,
    UnknownVertexError,
    d_separated,
    fisher_z_statistic,
    partial_correlation,
    partial_correlation_from_covariance,
    partial_correlation_recursive,
    random_graph,
    run_ccd,
    sem_from_graph,
    serialize_pag,
)

import ccdkit.ccd
import ccdkit.oracle
from ccdkit.fisherz import _read_csv, _Residuals, _sweep, _triangle, _Triangle
from helpers import (
    DecideOnlyNoisyOracle,
    EverySet,
    all_queries,
    cyclic_graphs,
    graphs,
    known_queries,
    reference_reach_set,
    solved_residual,
    two_cycle_graph,
)


def test_graph_oracle_matches_separation(two_cycle):
    oracle = GraphOracle(two_cycle)
    assert oracle.is_independent("A", "B")
    assert oracle.is_independent("A", "B", ("X", "Y"))
    assert not oracle.is_independent("A", "B", ("X",))


def test_graph_oracle_single_edge():
    oracle = GraphOracle(DirectedGraph(("A", "B"), {("A", "B")}))
    assert not oracle.is_independent("A", "B")


def test_oracle_rejects_unknown_vertices(two_cycle):
    oracle = GraphOracle(two_cycle)
    with pytest.raises(UnknownVertexError):
        oracle.is_independent("A", "Q")
    with pytest.raises(UnknownVertexError):
        oracle.is_independent("A", "B", ("Q",))


@settings(deadline=None)
@given(graphs(max_vertices=5))
def test_cached_graph_oracle_equals_brute_force(g):
    # one fresh oracle per graph, so later answers come from stored walks
    # advanced by earlier queries with either endpoint first
    queries = [q for x, y, s in all_queries(g.vertices) for q in ((x, y, s), (y, x, s))]
    random.Random(len(g.edges)).shuffle(queries)
    oracle = GraphOracle(g)
    for x, y, s in queries:
        assert oracle.is_independent(x, y, s) == (not brute_force_d_connected(g, x, y, s))


def _walk_levels(g, x, z):
    """The fewest steps of the bounce-rule walk from vertex x given the mask
    z to each vertex it reaches, by a search over (vertex, arrival) states."""
    parents, children = g._parent_masks, g._child_masks
    level = {x: 0}
    front = {(x, "out")}
    seen = set(front)
    steps = 0
    while front:
        steps += 1
        nxt = set()
        for v, arrival in front:
            if not z >> v & 1:
                nxt.update((c, "in") for c in range(len(g.vertices)) if children[v] >> c & 1)
            # up to the parents: an ``in`` arrival at a conditioned vertex
            # (the bounce), an ``out`` arrival at an unconditioned one
            if (arrival == "in") == bool(z >> v & 1):
                nxt.update((p, "out") for p in range(len(g.vertices)) if parents[v] >> p & 1)
        front = nxt - seen
        seen |= front
        for v, _ in front:
            level.setdefault(v, steps)
    return level


def _assert_walks_are_reach_sets(oracle):
    """Every reach set the oracle keeps is the reference reach set of its
    endpoint and conditioning set."""
    g, w = oracle.graph, oracle._width
    for key, reach in oracle._walks.items():
        i, zmask = key & (1 << w) - 1, key >> w
        assert reach == reference_reach_set(g, 1 << i, zmask), (i, zmask)


@settings(max_examples=150, deadline=None)
@given(cyclic_graphs(), st.data())
def test_kept_walks_equal_the_reference_reach_set(g, data):
    # one fresh oracle, asked past its memo so that no answer is shared
    # between (x, y) and (y, x); for each (x, Z) the targets come in the
    # order the walk first reaches them, then the unreachable ones, so the
    # first query of each (x, Z) walks and every later one, reached or
    # not, is answered from the kept reach set
    n = len(g.vertices)
    oracle = GraphOracle(g)
    for z in data.draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=3), label="Z"):
        for x in range(n):
            if z >> x & 1:
                continue
            reach = reference_reach_set(g, 1 << x, z)
            level = _walk_levels(g, x, z)
            targets = [y for y in range(n) if y != x and not z >> y & 1]
            targets = data.draw(st.permutations(targets), label="ties")
            targets.sort(key=lambda y: level.get(y, n * 2))
            for y in targets:
                assert oracle._decide(x, y, z) == (not reach >> y & 1), (x, y, z)
    _assert_walks_are_reach_sets(oracle)


@settings(max_examples=100, deadline=None)
@given(cyclic_graphs())
def test_a_search_keeps_only_reference_reach_sets(g):
    oracle = GraphOracle(g)
    run_ccd(oracle, g.vertices)
    _assert_walks_are_reach_sets(oracle)


def test_swapped_endpoints_and_duplicates_share_one_memo_entry(two_cycle):
    oracle = GraphOracle(two_cycle)
    assert not oracle.is_independent("A", "B", ("X",))
    assert not oracle.is_independent("B", "A", ("X",))
    assert not oracle.is_independent("A", "B", ["X", "X"])
    assert not oracle.is_independent("B", "A", frozenset({"X"}))
    assert oracle.stats.total() == 1


def test_oracle_rejects_bad_queries(two_cycle):
    oracle = GraphOracle(two_cycle)
    with pytest.raises(ValueError):
        oracle.is_independent("A", "A")
    with pytest.raises(ValueError):
        oracle.is_independent("A", "B", ("A",))
    with pytest.raises(ValueError):
        oracle.is_independent("A", "B", ("X", "B"))
    # endpoint checks come before the unknown-label check
    with pytest.raises(ValueError) as caught:
        oracle.is_independent("Q", "Q")
    assert not isinstance(caught.value, UnknownVertexError)
    with pytest.raises(UnknownVertexError):
        oracle.is_independent("Q", "A")
    with pytest.raises(UnknownVertexError):
        oracle.is_independent("A", "B", (v for v in ("X", "Q")))
    with pytest.raises(TypeError):
        oracle.is_independent("A", "B", (["X"],))
    assert oracle.stats.total() == 0


def test_memoization_counts_distinct_queries_once(two_cycle):
    oracle = GraphOracle(two_cycle)
    for _ in range(3):
        oracle.is_independent("A", "B")
        oracle.is_independent("B", "A")
    assert oracle.stats.total() == 1


def test_stats_attribute_queries_to_phases(two_cycle):
    oracle = GraphOracle(two_cycle)
    with oracle.phase("A"):
        oracle.is_independent("A", "B")
        oracle.is_independent("A", "X", ("B",))
    with oracle.phase("D"):
        oracle.is_independent("A", "B")  # memo hit, not recounted
        oracle.is_independent("A", "Y", ("B", "X"))
    assert oracle.stats.rows() == [("A", 0, 1), ("A", 1, 1), ("D", 2, 1)]
    assert oracle.stats.for_phase("A") == 2


class ParityOracle(IndependenceOracle):
    """Answers by a hash of the unordered query, so a memo entry shared by
    two distinct queries would show as a wrong answer."""

    def _decide(self, i, j, zmask):
        return answer_of(min(i, j), max(i, j), zmask)


def answer_of(lo, hi, zmask):
    return random.Random(f"{lo}/{hi}/{zmask}").random() < 0.5


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=70), st.randoms(use_true_random=False))
def test_packed_memo_key_counts_each_distinct_query_once(n, rng):
    # up to 70 vertices, so keys pass 64 bits; each query is asked with
    # both endpoint orders, and earlier queries come back as repeats
    labels = [f"V{k:02d}" for k in range(n)]
    oracle = ParityOracle(labels)
    asked = []
    for _ in range(40):
        if asked and rng.random() < 0.3:
            i, j, zmask = rng.choice(asked)
        else:
            i, j = rng.sample(range(n), 2)
            zmask = rng.choice((rng.getrandbits(n), (1 << n) - 1, 1 << n - 1, 0))
            zmask &= ~(1 << i | 1 << j)
        asked.append((i, j, zmask))
        s = [labels[k] for k in range(n) if zmask >> k & 1]
        for x, y in ((i, j), (j, i)):
            assert oracle.is_independent(labels[x], labels[y], s) == answer_of(
                min(i, j), max(i, j), zmask
            )
    assert oracle.stats.total() == len({(min(i, j), max(i, j), z) for i, j, z in asked})


def per_subset_loop(oracle, i, j, candidates, size, extra):
    """A level asked one set at a time through ``_decide``: the memo and
    the stats updated per set, the first separating set returned."""
    w = oracle._width
    for subset in combinations(candidates, size):
        zmask = sum(subset) | extra
        key = zmask << 2 * w | min(i, j) << w | max(i, j)
        if key not in oracle._memo:
            oracle._memo[key] = bool(oracle._decide(i, j, zmask))
            oracle.stats.counts[oracle._phase.label, zmask.bit_count()] += 1
        if oracle._memo[key]:
            return zmask
    return None


@settings(max_examples=200, deadline=None)
@given(graphs(min_vertices=2, max_vertices=6), st.integers(0, 2**32 - 1), st.data())
def test_first_separator_equals_a_per_subset_loop_over_decide(g, seed, data):
    n = len(g.vertices)
    i, j = data.draw(st.permutations(range(n)), label="order")[:2]
    others = data.draw(st.permutations([v for v in range(n) if v not in (i, j)]), label="others")
    k = data.draw(st.integers(0, len(others)), label="candidate count")
    candidates = [1 << v for v in sorted(others[:k])]
    extra = sum(1 << v for v in others[k:] if data.draw(st.booleans(), label=f"extra {v}"))
    size = data.draw(st.integers(0, len(candidates) + 1), label="size")
    subsets = [sum(c) | extra for c in combinations(candidates, size)]
    # some sets of the level are already in the memo, under another label
    warm = data.draw(st.lists(st.sampled_from(subsets), max_size=3) if subsets else st.just([]))
    label = data.draw(st.sampled_from((None, "A", "D")), label="phase")
    # _decide raises on the level's k-th new decision, as a warning under an
    # "error" filter would; 0 never raises
    fail_at = data.draw(st.integers(0, len(subsets)), label="raise at")
    runs = []
    for entry in ("first_separator", "per_subset_loop"):
        oracle = DecideOnlyNoisyOracle(g, seed, flip=0.3)
        with oracle.phase("C"):
            for zmask in warm:
                per_subset_loop(oracle, j, i, (), 0, zmask)
        decided = []
        decide = oracle._decide

        def logged(a, b, z):
            decided.append((a, b, z))
            if len(decided) == fail_at:
                raise RuntimeError("decide failed")
            return decide(a, b, z)

        oracle._decide = logged
        with oracle.phase(label):
            try:
                if entry == "first_separator":
                    found = oracle._first_separator(i, j, candidates, size, extra)
                else:
                    found = per_subset_loop(oracle, i, j, candidates, size, extra)
            except RuntimeError:
                found = "raised"
        runs.append((found, decided, dict(oracle._memo), oracle.stats.rows()))
    assert runs[0] == runs[1]
    found, decided = runs[0][:2]
    if found == "raised":
        assert len(decided) == fail_at
    else:
        asked = subsets if found is None else subsets[: subsets.index(found) + 1]
        assert {z for _, _, z in decided} <= set(asked)  # nothing past the separator


@st.composite
def inseparable_levels(draw):
    """A graph, an ordered pair (i, j), one-vertex candidates and an extra
    mask such that no set holding extra separates i from j: an edge joins
    the pair, or the pair shares a child with a descendant in extra."""
    g = draw(graphs(min_vertices=3, max_vertices=6))
    names = g.vertices
    n = len(names)
    i, j, c = draw(st.permutations(range(n)), label="i, j, child")[:3]
    if draw(st.booleans(), label="adjacent"):
        a, b = draw(st.sampled_from(((i, j), (j, i))), label="edge")
        g = DirectedGraph(names, g.edges | {(names[a], names[b])})
        required = 0
    else:
        g = DirectedGraph(names, g.edges | {(names[i], names[c]), (names[j], names[c])})
        below = [k for k in range(n) if g._descendant_masks[c] >> k & 1 and k not in (i, j)]
        required = 1 << draw(st.sampled_from(below), label="descendant in extra")
    others = [v for v in range(n) if v not in (i, j) and not required >> v & 1]
    others = draw(st.permutations(others), label="others")
    k = draw(st.integers(0, len(others)), label="candidate count")
    candidates = [1 << v for v in sorted(others[:k])]
    extra = required | sum(1 << v for v in others[k:] if draw(st.booleans(), label=f"extra {v}"))
    size = draw(st.integers(1, len(candidates) + 1), label="size")
    return g, i, j, candidates, size, extra


@settings(max_examples=200, deadline=None)
@given(inseparable_levels(), st.data())
def test_an_inseparable_level_is_written_as_the_per_subset_loop_writes_it(level, data):
    g, i, j, candidates, size, extra = level
    assert g._inseparable(i, j, extra)
    subsets = [sum(c) | extra for c in combinations(candidates, size)]
    # some sets of the level, and the set extra alone, are already known,
    # asked under another label
    warm = data.draw(st.lists(st.sampled_from(subsets + [extra]), max_size=3), label="warm")
    label = data.draw(st.sampled_from((None, "A", "D")), label="phase")
    runs = []
    for entry in ("first_separator", "per_subset_loop"):
        oracle = GraphOracle(g)
        with oracle.phase("C"):
            for zmask in warm:
                if entry == "first_separator":
                    oracle._first_separator(j, i, (), 0, zmask)
                else:
                    per_subset_loop(oracle, j, i, (), 0, zmask)
        decided = []
        decide = oracle._decide

        def logged(a, b, z):
            decided.append((a, b, z))
            return decide(a, b, z)

        oracle._decide = logged
        with oracle.phase(label):
            if entry == "first_separator":
                found = oracle._first_separator(i, j, candidates, size, extra)
            else:
                found = per_subset_loop(oracle, i, j, candidates, size, extra)
        runs.append((found, known_queries(oracle), oracle.stats.rows(), decided, len(oracle._memo)))
    assert runs[0][:3] == runs[1][:3]
    assert runs[0][0] is None
    assert runs[0][3] == []  # the level is settled without _decide
    assert runs[0][4] == len(set(warm))  # the memo holds only the warm-up's decisions


@st.composite
def bounded_levels(draw):
    """A graph, an ordered pair (i, j), an extra mask and two levels, each
    (candidates, size), that ``DirectedGraph._inseparable`` does not settle
    but the moral-graph paths do, the second with one candidate fewer and
    one size more. k middle vertices each join i and j by a path of their
    own (a chain either way, or a common cause), so no set with fewer than
    k of them separates the pair; the other vertices are children of i or
    j, outside An({i, j}), and one of them may be in extra. A few random
    edges are added, and draws whose first level falls outside the search
    gate, or whose paths do not outnumber the second size, are rejected."""
    k = draw(st.integers(4, 5), label="middles")
    n = 2 + k + draw(st.integers(2, 3), label="children")
    names = string.ascii_uppercase[:n]
    order = draw(st.permutations(range(n)), label="order")
    i, j, middles, below = order[0], order[1], order[2 : 2 + k], order[2 + k :]
    edges = set()
    for m in middles:
        a, b = draw(st.sampled_from(((i, j), (j, i), (None, None))), label=f"path {m}")
        edges |= {(m, i), (m, j)} if a is None else {(a, m), (m, b)}
    edges |= {(draw(st.sampled_from((i, j)), label=f"parent {c}"), c) for c in below}
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2), label="random edges"))
    g = DirectedGraph(names, {(names[a], names[b]) for a, b in edges})
    extra = draw(st.sampled_from((0, *(1 << c for c in below))), label="extra")
    candidates = [1 << v for v in sorted(middles + below) if not extra >> v & 1]
    size = draw(st.integers(2, k - 2), label="size")
    dropped = draw(st.sampled_from(candidates), label="dropped")
    levels = [(candidates, size), ([c for c in candidates if c != dropped], size + 1)]
    assume(not g._inseparable(i, j, extra))
    ancestors = g._ancestor_masks
    region = ancestors[i] | ancestors[j] | sum(ancestors[v] for v in range(n) if extra >> v & 1)
    assume(3 * math.comb((sum(candidates) & region).bit_count(), size) > 2 * region.bit_count())
    assume(len(g._separator_paths(i, j, extra, sum(candidates), region)) > size + 1)
    return g, i, j, levels, extra


@settings(max_examples=100, deadline=None)
@given(bounded_levels(), st.data())
def test_a_level_the_separator_bound_settles_is_written_as_the_per_subset_loop_writes_it(
    level, data
):
    g, i, j, levels, extra = level
    subsets = [sum(c) | extra for cands, size in levels for c in combinations(cands, size)]
    # some sets of the levels, and the set extra alone, are already known,
    # asked under another label
    warm = data.draw(st.lists(st.sampled_from(subsets + [extra]), max_size=3), label="warm")
    label = data.draw(st.sampled_from((None, "A", "D")), label="phase")
    runs = []
    for entry in ("first_separator", "per_subset_loop"):
        oracle = GraphOracle(g)
        with oracle.phase("C"):
            for zmask in warm:
                if entry == "first_separator":
                    oracle._first_separator(j, i, (), 0, zmask)
                else:
                    per_subset_loop(oracle, j, i, (), 0, zmask)
        decided = []
        decide = oracle._decide

        def logged(a, b, z):
            decided.append((a, b, z))
            return decide(a, b, z)

        oracle._decide = logged
        search = mock.patch.object(
            DirectedGraph, "_separator_paths", autospec=True,
            side_effect=DirectedGraph._separator_paths,
        )
        with oracle.phase(label), search as searches:
            found = [
                oracle._first_separator(i, j, candidates, size, extra)
                if entry == "first_separator"
                else per_subset_loop(oracle, i, j, candidates, size, extra)
                for candidates, size in levels
            ]
        runs.append((found, known_queries(oracle), oracle.stats.rows(), decided, searches.call_count))
    assert runs[0][:3] == runs[1][:3]
    assert runs[0][0] == [None, None]
    assert runs[0][3] == []  # both levels are settled without _decide
    assert runs[0][4] == 1  # the second level reuses the first one's paths


def test_a_set_that_misses_a_moral_graph_path_is_recorded_dependent_without_decide():
    # I -> M -> J is the one I-J path in the moral graph of An({I, J}) =
    # {A, B, C, D, I, M, J}; the parents A to D of I are not on it, so
    # each of them alone is dependent with no walk and only {M} is decided
    g = DirectedGraph(tuple("ABCDIJM"), {*((p, "I") for p in "ABCD"), ("I", "M"), ("M", "J")})
    i, j, m = 4, 5, 6
    candidates = [1 << v for v in (0, 1, 2, 3, m)]
    runs = []
    for entry in ("first_separator", "per_subset_loop"):
        oracle = GraphOracle(g)
        decided = []
        decide = oracle._decide

        def logged(x, y, z, decide=decide):
            decided.append(z)
            return decide(x, y, z)

        oracle._decide = logged
        with oracle.phase("A"):
            if entry == "first_separator":
                found = oracle._first_separator(i, j, candidates, 1)
            else:
                found = per_subset_loop(oracle, i, j, candidates, 1, 0)
        runs.append((found, known_queries(oracle), oracle.stats.rows(), decided))
    assert runs[0][:3] == runs[1][:3]
    assert runs[0][0] == 1 << m
    assert runs[0][3] == [1 << m]
    assert runs[1][3] == candidates
    exact = GraphOracle(g)
    with exact.phase("A"):
        exact._first_separator(i, j, candidates, 1)
    assert len(exact._memo) == 5  # memoised, counted and indexed as if decided
    assert exact._decided == {1 << 2 * exact._width | i << exact._width | j: candidates[:4]}


@pytest.mark.parametrize("seed", range(6))
def test_an_oracle_that_changes_decide_is_asked_every_new_set_of_an_adjacent_pair(seed):
    # A -> B joins the pair, so GraphOracle settles the level without _decide
    g = DirectedGraph(tuple("ABCDE"), {("A", "B"), ("C", "A"), ("D", "B"), ("E", "C")})
    candidates = [1 << v for v in (2, 3, 4)]
    subsets = [sum(c) for c in combinations(candidates, 2)]
    exact = GraphOracle(g)
    exact._decide = refuse_to_decide
    assert exact._first_separator(0, 1, candidates, 2) is None
    # the doubles that wrap a GraphOracle for _decide ask each new set
    for oracle in (EverySet(g), DecideOnlyNoisyOracle(g, seed, flip=0.3)):
        with oracle.phase("C"):
            oracle._first_separator(1, 0, (), 0, subsets[1])
        decided = []
        decide = oracle._decide

        def logged(a, b, z, decide=decide):
            decided.append(z)
            return decide(a, b, z)

        oracle._decide = logged
        with oracle.phase("A"):
            found = oracle._first_separator(0, 1, candidates, 2)
        asked = subsets if found is None else subsets[: subsets.index(found) + 1]
        assert decided == [z for z in asked if z != subsets[1]]
        assert oracle.stats.for_phase("A") == len(decided)


def test_decide_calls_per_phase_on_the_16_vertex_graph():
    # the inseparable-level rule, the moral-graph paths and the ancestral
    # rule leave these sets to _decide, of 7,196 distinct queries; 2,233
    # phase A calls without the paths and 406 without the ancestral rule,
    # so a change that silently turns either off fails here
    g = random_graph([f"V{k:02d}" for k in range(16)], 0.12, random.Random(1608))
    oracle = GraphOracle(g)
    calls = dict.fromkeys("ACDF", 0)
    decide = oracle._decide

    def counted(i, j, zmask):
        calls[oracle._phase.label] += 1
        return decide(i, j, zmask)

    oracle._decide = counted
    run_ccd(oracle, g.vertices)
    assert oracle.stats.total() == 7196
    assert calls == {"A": 368, "C": 76, "D": 4, "F": 0}


def test_the_memo_holds_only_decided_queries_on_the_16_vertex_graph():
    # settled levels are kept as ranges, so the memo holds the 1,096 sets
    # decided one by one, not all 7,196 distinct queries: the 448 that
    # _decide answered, 610 that miss a moral-graph path and 38 whose part
    # inside An({i, j}) was known to be dependent
    g = random_graph([f"V{k:02d}" for k in range(16)], 0.12, random.Random(1608))
    oracle = GraphOracle(g)
    calls = []
    decide = oracle._decide

    def counted(i, j, zmask):
        calls.append((i, j, zmask))
        return decide(i, j, zmask)

    oracle._decide = counted
    run_ccd(oracle, g.vertices)
    assert len(calls) == 448
    assert len(oracle._memo) == 1096
    assert oracle.stats.total() == len(known_queries(oracle)) == 7196


def test_walks_on_the_16_vertex_graph():
    # the empty set is answered from the ancestor masks, and a set that
    # misses a moral-graph path or whose part inside An({i, j}) is known
    # to be dependent is not decided; a decided query that needs a walk
    # walks once per distinct (endpoint, set), so 144 walks run, each kept
    # as the reach set of its endpoint and set
    g = random_graph([f"V{k:02d}" for k in range(16)], 0.12, random.Random(1608))
    oracle = GraphOracle(g)
    with mock.patch.object(ccdkit.oracle, "walk", wraps=ccdkit.oracle.walk) as walk:
        run_ccd(oracle, g.vertices)
    assert walk.call_count == len(oracle._walks) == 144
    _assert_walks_are_reach_sets(oracle)


@pytest.mark.parametrize(
    "n, p, seed",
    [
        (16, 0.12, 1608),
        (32, 0.06, 32),
        # exact_wide's first graph: most of its levels go through the
        # per-set loop, where the moral-graph paths and the ancestral rule
        # answer many sets without _decide
        (48, 0.02, 4800),
    ],
)
def test_the_shortcuts_change_no_search(n, p, seed):
    # GraphOracle's level test, path rule and ancestral rule against
    # EverySet, which asks every set one at a time
    g = random_graph([f"V{k:02d}" for k in range(n)], p, random.Random(seed))
    runs, calls = [], []
    for oracle in (GraphOracle(g), EverySet(g)):
        decide, count = oracle._decide, [0]

        def counted(i, j, zmask, decide=decide, count=count):
            count[0] += 1
            return decide(i, j, zmask)

        oracle._decide = counted
        pag, state = run_ccd(oracle, g.vertices)
        known = known_queries(oracle)
        assert state.stats.total() == len(known)
        runs.append((serialize_pag(pag), state.sepset, state.supset, state.stats.rows(), known))
        calls.append(count[0])
    assert type(oracle)._first_separator is IndependenceOracle._first_separator
    assert runs[0] == runs[1]
    if n == 48:
        assert calls[0] < calls[1]


def test_a_set_of_a_settled_level_asked_under_another_label_is_dependent_and_not_recounted():
    # A -> B joins the pair, so the level test settles each of its levels
    g = DirectedGraph(tuple("ABCDE"), {("A", "B"), ("C", "A"), ("D", "B"), ("E", "C")})
    oracle = GraphOracle(g)
    candidates = [1 << v for v in (2, 3, 4)]
    with oracle.phase("A"):
        assert oracle._first_separator(0, 1, candidates, 2) is None
    assert oracle._memo == {}
    assert oracle.stats.rows() == [("A", 2, 3)]
    oracle._decide = refuse_to_decide
    for label in ("C", "D", None):
        with oracle.phase(label):
            assert not oracle.is_independent("B", "A", ("C", "E"))
            assert oracle._first_separator(1, 0, (), 0, 0b11000) is None
            assert oracle._first_separator(1, 0, candidates[1:], 2) is None
            assert oracle._first_separator(0, 1, candidates[:2], 1, 1 << 4) is None
    assert oracle._memo == {}
    assert oracle.stats.rows() == [("A", 2, 3)]


def test_oracles_without_a_level_test_keep_no_ranges():
    # FisherZOracle's loop and the base loop, which serves a double that
    # wraps a GraphOracle for _decide, ask every set one at a time and keep
    # no range: each distinct query is one memo entry
    g = DirectedGraph(tuple("ABCDE"), {("A", "B"), ("B", "C"), ("D", "C"), ("C", "E")})
    data = sem_from_graph(g, 0.5).simulate(500, seed=3)
    assert DecideOnlyNoisyOracle._first_separator is IndependenceOracle._first_separator
    for oracle in (FisherZOracle(data), DecideOnlyNoisyOracle(g, 2, flip=0.3)):
        try:
            run_ccd(oracle, oracle.vertices)
        except ValueError as exc:  # a sample-data run may abort in phase D
            assert "already underlined" in str(exc)
        assert oracle.stats.total() == len(oracle._memo) > 0
        assert not hasattr(oracle, "_ranges") and not hasattr(oracle, "_decided")


@st.composite
def overlapping_levels(draw):
    """A graph on 4-7 vertices, a pair (i, j) and a list of calls on the
    pair in either endpoint order under labels A, C and D: one-set queries,
    and levels with an extra of no vertex or one, whose candidates are drawn
    afresh, or are the last level's less one, or are the last level's with
    its extra moved among them and one more to a set. The pair may be
    joined by an edge, so that every level settles, or given a common
    child, so that a level whose extra is that child settles and a later
    level that takes the child as a candidate meets those sets in the
    per-set loop: the child is the lowest other vertex, so the sets holding
    it come first there."""
    g = draw(graphs(min_vertices=4, max_vertices=7))
    names = g.vertices
    n = len(names)
    i, j = draw(st.permutations(range(n)), label="pair")[:2]
    c = min(v for v in range(n) if v not in (i, j))
    shape = draw(st.sampled_from(("adjacent", "common child", "drawn")), label="shape")
    if shape == "adjacent":
        a, b = draw(st.sampled_from(((i, j), (j, i))), label="edge")
        g = DirectedGraph(names, g.edges | {(names[a], names[b])})
    elif shape == "common child":
        g = DirectedGraph(names, g.edges | {(names[i], names[c]), (names[j], names[c])})
    others = [v for v in range(n) if v not in (i, j)]
    calls, last = [], (others, 1, 0)
    for _ in range(draw(st.integers(1, 8), label="calls")):
        order = draw(st.sampled_from(((i, j), (j, i))), label="order")
        label = draw(st.sampled_from("ACD"), label="label")
        if draw(st.booleans(), label="one set"):
            zmask = sum(1 << v for v in others if draw(st.booleans(), label=f"in {v}"))
            calls.append((order, label, (), 0, zmask))
            continue
        pool, size, extra = last
        step = draw(st.sampled_from(("fresh", "shrink", "absorb")), label="step")
        if step == "absorb" and extra:
            pool, size, extra = sorted(pool + [extra.bit_length() - 1]), size + 1, 0
        else:
            if step == "shrink" and len(pool) > 1:
                pool = [v for v in pool if v != draw(st.sampled_from(pool), label="dropped")]
            else:
                pool = [v for v in others if draw(st.booleans(), label=f"candidate {v}")]
            outside = [1 << v for v in others if v not in pool]
            if shape == "common child" and c not in pool:
                outside = [1 << c]
            extra = 0
            if outside and draw(st.booleans(), label="has extra"):
                extra = draw(st.sampled_from(outside), label="extra")
            size = draw(st.integers(1, max(1, len(pool))), label="size")
        last = pool, size, extra
        calls.append((order, label, [1 << v for v in pool], size, extra))
    return g, calls


@settings(max_examples=300, deadline=None)
@given(overlapping_levels())
def test_overlapping_settled_levels_count_each_query_once(case):
    g, calls = case
    runs = []
    for oracle in (GraphOracle(g), EverySet(g)):
        w = oracle._width
        decide = oracle._decide

        def checked(a, b, zmask, oracle=oracle, decide=decide, w=w):
            level = zmask.bit_count() << 2 * w | min(a, b) << w | max(a, b)
            ranges = getattr(oracle, "_ranges", {}).get(level, ())
            assert not any(not f & ~zmask and not zmask & ~u for f, u in ranges)
            return decide(a, b, zmask)

        oracle._decide = checked
        found = []
        for (a, b), label, candidates, size, extra in calls:
            with oracle.phase(label):
                found.append(oracle._first_separator(a, b, candidates, size, extra))
        runs.append((found, oracle.stats.rows(), known_queries(oracle)))
    assert runs[0] == runs[1]


def test_oracle_is_thread_safe(two_cycle):
    queries = list(all_queries(two_cycle.vertices))
    serial = GraphOracle(two_cycle)
    expected = [serial.is_independent(x, y, s) for x, y, s in queries]
    oracle = GraphOracle(two_cycle)
    decide = oracle._decide

    def slow_decide(i, j, zmask):
        time.sleep(0.001)  # the other threads miss the memo and queue at the lock
        return decide(i, j, zmask)

    oracle._decide = slow_decide
    start = threading.Barrier(8)
    answers = []

    def worker():
        start.wait(timeout=10)
        answers.append([oracle.is_independent(x, y, s) for x, y, s in queries])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert answers == [expected] * 8
    assert oracle.stats.total() == len(queries)
    assert oracle.stats.rows() == serial.stats.rows()
    assert oracle._memo == serial._memo


def search_outcome(oracle):
    """The PAG text of a search, or the message of its phase D abort."""
    try:
        return serialize_pag(run_ccd(oracle, oracle.vertices)[0])
    except ValueError as exc:  # a sample-data run may abort in phase D
        assert "already underlined" in str(exc)
        return f"raised {exc}"


def test_searches_sharing_an_oracle_across_threads_count_each_query_once():
    # whole levels, settled or decided, go into one shared memo while the
    # threads switch often; a lost update would show in the counts. The
    # exact search must return a PAG. The Fisher-z data hold a scaled copy
    # of V7 as V8, so some queries are degenerate, and its search aborts in
    # phase D; its sweeps yield, so another thread may ask the same set
    # while one is building it.
    g = random_graph([f"V{k}" for k in range(9)], 0.3, random.Random(9))
    values = sem_from_graph(g, 0.2).simulate(300, seed=2).values.copy()
    values[:, 8] = 2.0 * values[:, 7]
    data = DataMatrix(g.vertices, values)
    missing = _Residuals.__missing__

    def yielding(residual, zmask):
        time.sleep(0)
        return missing(residual, zmask)

    for make, aborts in ((lambda: GraphOracle(g), False), (lambda: FisherZOracle(data), True)):
        with warnings.catch_warnings(), mock.patch.object(_Residuals, "__missing__", yielding):
            warnings.simplefilter("ignore", SingularCovarianceWarning)
            serial = make()
            expected = search_outcome(serial)
            assert expected.startswith("raised") is aborts
            oracle = make()
            start = threading.Barrier(8)
            outcomes = []

            def worker():
                start.wait(timeout=10)
                outcomes.append(search_outcome(oracle))

            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=worker) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert outcomes == [expected] * 8
        assert known_queries(oracle) == known_queries(serial)
        assert oracle._memo == serial._memo
        assert oracle.stats.rows() == serial.stats.rows()
        assert oracle.stats.total() == len(known_queries(serial))
        assert oracle.stats.degenerate == serial.stats.degenerate
    assert serial.stats.degenerate


def one_set_query(oracle, x, y, s):
    """(i, j, zmask) of the query (x, y | s) on the oracle's indices."""
    index = oracle.vertices.index
    return index(x), index(y), sum(1 << index(v) for v in s)


def refuse_to_decide(i, j, zmask):
    raise AssertionError(f"decided ({i}, {j} | {zmask:b}) again")


def test_one_set_hit_returns_the_memoised_answer_without_deciding(two_cycle):
    # FisherZOracle decides a clean query in its loop, not in _decide, so
    # for it only the lock shows that a hit does not reach the loop
    data = sem_from_graph(two_cycle, 0.5).simulate(2000, seed=1)
    for oracle in (GraphOracle(two_cycle), FisherZOracle(data)):
        i, j, separating = one_set_query(oracle, "A", "B", ("X", "Y"))
        connecting = one_set_query(oracle, "A", "B", ("X",))[2]
        assert oracle._first_separator(i, j, (), 0, separating) == separating
        assert oracle._first_separator(i, j, (), 0, connecting) is None
        # a hit neither decides nor takes the lock
        oracle._decide = refuse_to_decide
        oracle._lock = mock.MagicMock(**{"__enter__.side_effect": AssertionError("took the lock")})
        for a, b in ((i, j), (j, i)):
            assert oracle._first_separator(a, b, (), 0, separating) == separating
            assert oracle._first_separator(a, b, (), 0, connecting) is None
        assert oracle.is_independent("B", "A", ("Y", "X"))
        assert not oracle.is_independent("B", "A", ("X",))


def test_one_set_hit_under_another_phase_changes_no_memo_or_count(two_cycle):
    oracle = GraphOracle(two_cycle)
    i, j, zmask = one_set_query(oracle, "A", "B", ("X",))
    with oracle.phase("A"):
        assert oracle._first_separator(i, j, (), 0, zmask) is None
        assert oracle.is_independent("A", "B")
    memo, rows = dict(oracle._memo), oracle.stats.rows()
    assert rows == [("A", 0, 1), ("A", 1, 1)]
    oracle._decide = refuse_to_decide
    for label in ("C", "F", None):
        with oracle.phase(label):
            assert oracle._first_separator(j, i, (), 0, zmask) is None
            assert oracle._first_separator(i, j, (), 0, 0) == 0
            assert oracle.is_independent("B", "A")
    assert oracle._memo == memo
    assert oracle.stats.rows() == rows


def test_one_set_miss_whose_decide_raises_memoises_and_counts_nothing(two_cycle):
    oracle = GraphOracle(two_cycle)
    i, j, zmask = one_set_query(oracle, "A", "B", ("X", "Y"))
    oracle._decide = mock.Mock(side_effect=RuntimeError("decide failed"))
    with oracle.phase("C"):
        with pytest.raises(RuntimeError):
            oracle._first_separator(i, j, (), 0, zmask)
        with pytest.raises(RuntimeError):
            oracle.is_independent("A", "B", ("X", "Y"))
    assert oracle._memo == {}
    assert oracle.stats.rows() == []
    del oracle._decide  # the class's decision again: the query is a miss
    with oracle.phase("C"):
        assert oracle._first_separator(j, i, (), 0, zmask) == zmask
    assert oracle.stats.rows() == [("C", 2, 1)]


def test_phase_label_belongs_to_the_thread_that_set_it(two_cycle):
    # a worker sits inside phase "A" while the main thread queries: the
    # main thread's queries stay unattributed, or go to its own label
    oracle = GraphOracle(two_cycle)
    entered, release = threading.Event(), threading.Event()

    def worker():
        with oracle.phase("A"):
            entered.set()
            assert release.wait(timeout=10)
            oracle.is_independent("A", "B", ("X",))

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert entered.wait(timeout=10)
        oracle.is_independent("A", "B")
        with oracle.phase("C"):
            oracle.is_independent("A", "X")
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert oracle.stats.rows() == [("-", 0, 1), ("A", 1, 1), ("C", 0, 1)]


def rng_data(n=10000, cols=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = tuple("XYZW"[:cols])
    return DataMatrix(labels, rng.standard_normal((n, cols)))


def test_partial_correlation_identical_columns_is_one():
    x = np.random.default_rng(1).standard_normal(300)
    data = DataMatrix(("X", "Y"), np.column_stack([x, x]))
    assert partial_correlation(data, "X", "Y", ()) == pytest.approx(1.0)


def test_partial_correlation_independent_samples_near_zero():
    data = rng_data(n=10000, seed=2)
    assert abs(partial_correlation(data, "X", "Y", ())) < 0.05


def test_partial_correlation_exact_linear_dependence():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(400)
    z = rng.standard_normal(400)
    data = DataMatrix(("X", "Y", "Z"), np.column_stack([x, x + z, z]))
    assert partial_correlation(data, "X", "Y", ("Z",)) == pytest.approx(1.0, abs=1e-9)


def test_partial_correlation_conditioning_on_constant_is_singular():
    rows = np.column_stack([np.arange(5.0), np.arange(5.0) ** 2, np.ones(5)])
    data = DataMatrix(("X", "Y", "Z"), rows)
    with pytest.raises(SingularCovarianceError):
        partial_correlation(data, "X", "Y", ("Z",))


@pytest.mark.parametrize(
    "cov, s, message",
    [
        # X and Z both constant: the endpoint check comes before the block check
        ([[0, 0, 0], [0, 1, 0], [0, 0, 0]], ("Z",), "a queried column has zero variance"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], ("Z",), "conditioning covariance is singular"),
        ([[1, 0, 1e200], [0, 1, 0], [1e200, 0, 1e-300]], ("Z",), "numerically singular"),
        ([[1, 0.5, 1], [0.5, 1, 0.5], [1, 0.5, 1]], ("Z",), "determines a queried variable"),
        ([[1, np.nan], [np.nan, 1]], (), "partial correlation is not finite"),
    ],
)
def test_degenerate_covariance_checks_keep_their_order(cov, s, message):
    labels = ("X", "Y", "Z")[: len(cov)]
    with np.errstate(all="ignore"), pytest.raises(SingularCovarianceError, match=message):
        partial_correlation_from_covariance(np.array(cov, dtype=float), labels, "X", "Y", s)


@pytest.mark.parametrize("scale", [1e-110, 1e110])
def test_partial_correlation_survives_extreme_scales(scale):
    # var_x * var_y under- or overflows at these scales; r must not change
    values = np.random.default_rng(13).standard_normal((200, 3))
    values[:, 1] += values[:, 0]
    data = DataMatrix(("X", "Y", "Z"), values)
    scaled = DataMatrix(("X", "Y", "Z"), values * scale)
    for s in ((), ("Z",)):
        assert partial_correlation(scaled, "X", "Y", s) == pytest.approx(
            partial_correlation(data, "X", "Y", s), abs=1e-12
        )
        assert not FisherZOracle(scaled).is_independent("X", "Y", s)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 10),
    st.integers(0, 2**32 - 1),
    st.sampled_from((None, "constant", "copy", "near-copy")),
    st.data(),
)
def test_sweep_residual_matches_solved_schur_complement(n, seed, degenerate, data):
    # S = F F^T with F random rows on scales e^-3..e^3; a zero row of F is a
    # constant column, a scaled row of F a column that copies another. An
    # exact copy mostly leaves a pivot of 0 or below; a copy off by 1e-7 per
    # entry leaves a positive one and an inflation near 1e14, which only the
    # inflation bound catches.
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((n, n + 2)) * np.exp(rng.uniform(-3.0, 3.0, (n, 1)))
    m = data.draw(st.integers(0, n - 1))
    tied = {m}
    if degenerate == "constant":
        factor[m] = 0.0
    elif degenerate:
        assume(n > 1)
        source = data.draw(st.integers(0, n - 1).filter(lambda v: v != m))
        factor[m] = data.draw(st.sampled_from((-3.0, -1.0, 0.5, 2.0, 1e3))) * factor[source]
        if degenerate == "near-copy":
            factor[m] *= 1.0 + 1e-7 * rng.standard_normal(n + 2)
        tied.add(source)
    cov = factor @ factor.T
    cond = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    layout = _Triangle(n)
    variances = np.diagonal(cov).tolist()  # as _Residuals holds them
    packed = cov[layout.rows, layout.cols]
    swept = []
    for k in cond:
        packed = _sweep(layout, packed, variances, k, swept)
        if packed is None:
            break
        swept.append(k)
    reference = solved_residual(cov, cond)
    assert (packed is None) == (reference is None)
    if degenerate and tied <= set(cond):
        assert packed is None
    if packed is None:
        return
    rest = [i for i in range(n) if i not in cond]
    for i, j in combinations_with_replacement(rest, 2):
        value = packed[layout.offset[i] + j]
        assert abs(value - reference[i, j]) <= 1e-12 * math.sqrt(variances[i] * variances[j])


def test_a_member_the_swept_set_determines_makes_it_singular():
    # M = A + 1e-3 Z + 1e-7 e: swept A, then M, then Z, every pivot is
    # positive and Z's own inflation is about 1e8, but given the rest of the
    # set A and M are determined to about 1e-14 of their variances, so only
    # the member bound finds the set singular
    rng = np.random.default_rng(0)
    a, z, e, *others = rng.standard_normal((6, 5000))
    columns = np.column_stack([a, a + 1e-3 * z + 1e-7 * e, z, *others])
    data = DataMatrix(("A", "M", "Z", "D", "F", "G"), columns)
    oracle = FisherZOracle(data)
    assert oracle.vertices == ("A", "D", "F", "G", "M", "Z")  # swept in the order A, M, Z
    store, cov = oracle._residual, oracle._cov
    layout, variances = store.layout, store.variances
    parent = _sweep(layout, _sweep(layout, store[0], variances, 0, []), variances, 4, [0])
    pivot = parent[layout.offset[5] + 5]
    assert 1e7 < variances[5] / pivot < 1e9  # Z's own pivot and inflation pass
    inverse = np.linalg.inv(cov[np.ix_([0, 4, 5], [0, 4, 5])])
    assert variances[0] * inverse[0, 0] > 1e13 and variances[4] * inverse[1, 1] > 1e13
    assert _sweep(layout, parent, variances, 5, [0, 4]) is None
    assert store[0b10001] == parent and store[0b110001] is None
    with pytest.warns(SingularCovarianceWarning) as caught:
        for x, y in (("D", "F"), ("G", "D"), ("F", "G")):
            assert not oracle.is_independent(x, y, ("Z", "A", "M"))
    assert [str(w.message) for w in caught] == [
        "query (D, F | ['A', 'M', 'Z']): conditioning covariance is singular; treating as dependent"
    ]
    assert oracle.stats.degenerate == {"conditioning covariance is singular": [3, "(D, F | ['A', 'M', 'Z'])"]}


def test_partial_is_the_same_float_cold_or_after_its_parents():
    values = np.random.default_rng(21).standard_normal((60, 6))
    values[:, 3] += values[:, 0] - values[:, 5]
    data = DataMatrix(("F", "B", "E", "A", "D", "C"), values)
    shared = FisherZOracle(data)  # asked every query, in all_queries order
    warm = FisherZOracle(data)
    index = {v: i for i, v in enumerate(shared.vertices)}
    sizes = set()
    for x, y, s in all_queries(data.labels):
        i, j = index[x], index[y]
        zmask = sum(1 << index[v] for v in s)
        # the public function first, before any oracle holds the set
        r = partial_correlation_from_covariance(shared._cov, shared.vertices, x, y, s)
        for size in range(1, len(s)):  # every parent and sibling subset first, highest labels first
            for part in sorted(combinations(s, size), reverse=True):
                warm._residual.partial(i, j, sum(1 << index[v] for v in part))
        assert FisherZOracle(data)._residual.partial(i, j, zmask) == r  # asked cold
        assert warm._residual.partial(i, j, zmask) == r
        assert shared._residual.partial(i, j, zmask) == r
        sizes.add(len(s))
    assert sizes == set(range(5))


def test_partial_correlation_recursive_agrees():
    rng = np.random.default_rng(4)
    data = DataMatrix(("P", "Q", "R", "S"), rng.standard_normal((500, 4)))
    for x, y, s in all_queries(data.labels):
        direct = partial_correlation(data, x, y, s)
        recursive = partial_correlation_recursive(data, x, y, s)
        assert direct == pytest.approx(recursive, abs=1e-10)


@pytest.mark.parametrize(
    "shape, labels, s",
    [
        ((2, 3), ("A", "B"), ()),  # not square
        ((2, 2), ("A", "B", "C"), ("C",)),  # a label without a row
        ((3, 3), ("A", "B"), ()),  # a row without a label
        ((3,), ("A", "B", "C"), ()),  # not two-dimensional
        ((1, 3, 3), ("A", "B", "C"), ()),
        ((3, 3), ("A", "B", "A"), ()),  # a repeated label
        ((4, 4), ("A", "B", "C", "B"), ("C",)),
    ],
)
def test_partial_correlation_from_covariance_rejects_a_cov_that_does_not_fit_its_labels(shape, labels, s):
    cov = np.full(shape, 0.5)
    if cov.ndim == 2:
        np.fill_diagonal(cov, 1.0)
    with mock.patch("ccdkit.fisherz._sweep") as sweep, pytest.raises(ValueError) as caught:
        partial_correlation_from_covariance(cov, labels, "A", "B", s)
    assert caught.type is ValueError  # not a degenerate covariance
    assert not sweep.called


def test_one_read_only_layout_per_size():
    layout = _triangle(5)
    assert _triangle(5) is layout
    assert _Residuals(np.eye(5)).layout is _Residuals(np.ones((5, 5))).layout is layout
    for index in (layout.rows, layout.cols, layout.line, layout.diagonal):
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 1


def test_partial_correlation_from_covariance_matches_sample_route():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((800, 3))
    data = DataMatrix(("X", "Y", "Z"), values)
    cov = np.cov(values.T)
    for x, y, s in all_queries(data.labels):
        assert partial_correlation_from_covariance(cov, data.labels, x, y, s) == pytest.approx(
            partial_correlation(data, x, y, s)
        )


def test_fisher_z_zero_correlation_is_zero_statistic():
    assert fisher_z_statistic(0.0, 100, 0) == 0.0
    assert fisher_z_statistic(0.0, 100, 5) == 0.0


def test_fisher_z_spec_constants():
    assert fisher_z_statistic(0.5, 100, 1) == pytest.approx(0.5493 * 96 ** 0.5, abs=2e-3)
    assert fisher_z_statistic(0.01, 100, 0) == pytest.approx(0.098, abs=1e-3)


def test_fisher_z_decision_examples():
    rng = np.random.default_rng(7)
    z = rng.standard_normal(100)
    strong = DataMatrix(("X", "Y"), np.column_stack([z, 0.6 * z + 0.8 * rng.standard_normal(100)]))
    assert not FisherZOracle(strong, alpha=0.01).is_independent("X", "Y")
    weak = rng_data(n=100, seed=8)
    assert FisherZOracle(weak, alpha=0.01).is_independent("X", "Y")


def test_fisher_z_unit_correlation_is_dependent():
    x = np.random.default_rng(9).standard_normal(50)
    data = DataMatrix(("X", "Y"), np.column_stack([x, 2 * x]))
    assert not FisherZOracle(data).is_independent("X", "Y")


def test_fisher_z_oracle_warns_and_reports_dependence_on_singular_input():
    rows = np.column_stack([np.arange(6.0), np.arange(6.0) * 2, np.ones(6)])
    oracle = FisherZOracle(DataMatrix(("X", "Y", "Z"), rows))
    with pytest.warns(SingularCovarianceWarning):
        assert not oracle.is_independent("X", "Y", ("Z",))


def test_scaled_copy_in_the_conditioning_set_is_singular():
    # LU solves the block of a column and a scaled copy of it, leaving r as
    # rounding noise; both routes must report the block as singular, and a
    # set holding only one of the two must not be
    for seed in range(20):
        values = np.random.default_rng(seed).standard_normal((200, 3))
        b = values[:, 0]
        data = DataMatrix(("B", "C", "X", "Y"), np.column_stack([b, 3 * b, values[:, 1:]]))
        with pytest.raises(SingularCovarianceError, match="conditioning covariance is singular"):
            partial_correlation(data, "X", "Y", ("B", "C"))
        oracle = FisherZOracle(data)
        with pytest.warns(SingularCovarianceWarning, match="conditioning covariance is singular"):
            assert not oracle.is_independent("X", "Y", ("B", "C"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            partial_correlation(data, "X", "Y", ("C",))
            oracle.is_independent("X", "Y", ("C",))


def test_recursion_reports_a_scaled_copy_in_the_conditioning_set_as_singular():
    # the correlation of B and 3B rounds to just under 1, so a bound of 0 on
    # the recursion's denominator let it return a value where the matrix
    # route raises
    for seed in range(20):
        values = np.random.default_rng(seed).standard_normal((200, 3))
        b = values[:, 0]
        data = DataMatrix(("B", "C", "X", "Y"), np.column_stack([b, 3 * b, values[:, 1:]]))
        for route in (partial_correlation, partial_correlation_recursive):
            with pytest.raises(SingularCovarianceError):
                route(data, "X", "Y", ("B", "C"))


def test_fisher_z_oracle_counts_too_small_samples_as_dependent():
    # 6 rows leave N - |s| - 3 = 0 for |s| = 3: the statistic is undefined,
    # the oracle warns and answers dependent, and the search runs on
    data = DataMatrix(tuple("ABCDEF"), np.random.default_rng(2).standard_normal((6, 6)))
    with pytest.raises(ValueError):
        fisher_z_statistic(0.1, data.n_rows, 3)
    oracle = FisherZOracle(data, alpha=0.9)
    with pytest.warns(SingularCovarianceWarning, match="n_rows"):
        assert not oracle.is_independent("A", "B", ("C", "D", "E"))
    with pytest.warns(SingularCovarianceWarning):
        run_ccd(FisherZOracle(data, alpha=0.9), data.labels)


def test_singular_warning_is_attributed_to_the_asking_code():
    # the warning names the first frame outside ccdkit: the line of a
    # direct query, the run_ccd line of a search on either route, and an
    # override's own super() call
    data = DataMatrix(tuple("ABCD"), np.random.default_rng(3).standard_normal((1, 4)))

    def sources(caught):
        return {(w.filename, linecache.getline(w.filename, w.lineno).strip()) for w in caught}

    with pytest.warns(SingularCovarianceWarning) as caught:
        FisherZOracle(data).is_independent("A", "B", ("C",))
    assert sources(caught) == {(__file__, 'FisherZOracle(data).is_independent("A", "B", ("C",))')}
    for vertices in (data.labels, data.labels[:3]):  # the id route, then the label route
        with pytest.warns(SingularCovarianceWarning) as caught:
            run_ccd(FisherZOracle(data), vertices)
        assert sources(caught) == {(__file__, "run_ccd(FisherZOracle(data), vertices)")}

    class Overriding(FisherZOracle):
        def is_independent(self, x, y, s=()):
            return super().is_independent(x, y, s)

    with pytest.warns(SingularCovarianceWarning) as caught:
        run_ccd(Overriding(data), data.labels)
    assert sources(caught) == {(__file__, "return super().is_independent(x, y, s)")}


@pytest.mark.parametrize("n_rows", [1, 3])
def test_too_few_rows_is_the_named_reason_for_every_query(n_rows):
    # one row has no sample covariance, and on three rows any two
    # conditioning columns determine the rest: the oracle builds without
    # numpy warnings, and every query counts as lacking rows, not as a
    # singular covariance or a determined variable; only the first query
    # warns, and the stats count every one under that reason
    values = np.random.default_rng(3).standard_normal((n_rows, 4))
    data = DataMatrix(("A", "B", "C", "D"), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = FisherZOracle(data)
    queries = list(all_queries(data.labels))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for x, y, s in queries:
            assert not oracle.is_independent(x, y, s)
    assert [(w.category, str(w.message)) for w in caught] == [(
        SingularCovarianceWarning,
        "query (A, B | []): need n_rows - |s| - 3 >= 1; treating as dependent",
    )]
    assert oracle.stats.degenerate == {"need n_rows - |s| - 3 >= 1": [len(queries), "(A, B | [])"]}


def test_search_on_too_few_rows_warns_once_and_counts_every_query():
    # each of the 1,792 distinct phase-A queries lacks rows; under the
    # default filter each used to warn with its own text
    data = DataMatrix(tuple(f"C{k}" for k in range(8)), np.arange(8.0).reshape(1, 8))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        _, state = run_ccd(FisherZOracle(data), data.labels)
    assert [w.category for w in caught] == [SingularCovarianceWarning]
    assert state.stats.degenerate == {"need n_rows - |s| - 3 >= 1": [1792, "(C0, C1 | [])"]}


def test_fisher_z_oracle_alpha_validation():
    with pytest.raises(ValueError):
        FisherZOracle(rng_data(n=50), alpha=0.0)
    with pytest.raises(ValueError):
        FisherZOracle(rng_data(n=50), alpha=1.0)
    for alpha in (1e-17, 1.1e-16, 2.0**-53):  # 1 - alpha/2 rounds to 1.0
        with pytest.raises(ValueError, match=rf"above 2\*\*-53, got {alpha!r}"):
            FisherZOracle(rng_data(n=50), alpha=alpha)


@pytest.mark.parametrize("alpha", [math.nextafter(2.0**-53, 1.0), 2.3e-16])
def test_fisher_z_oracle_builds_just_above_the_smallest_alpha(alpha):
    oracle = FisherZOracle(rng_data(n=50), alpha=alpha)
    assert oracle._critical == pytest.approx(8.2095, abs=1e-4)


def test_fisher_z_oracle_agrees_with_direct_function():
    data = rng_data(n=2000, cols=3, seed=10)
    oracle = FisherZOracle(data, alpha=0.05)
    critical = NormalDist().inv_cdf(1.0 - 0.05 / 2.0)
    for x, y, s in all_queries(data.labels):
        z = fisher_z_statistic(partial_correlation(data, x, y, s), data.n_rows, len(s))
        assert oracle.is_independent(x, y, s) == (abs(z) <= critical)


def test_fisher_z_oracle_follows_column_labels_not_order():
    # columns out of label order: the oracle maps each label to its column
    data = rng_data(n=2000, cols=4, seed=12)
    shuffled = DataMatrix(("W", "Y", "X", "Z"), data.columns(("W", "Y", "X", "Z")))
    oracle = FisherZOracle(shuffled, alpha=0.05)
    cov = np.cov(shuffled.values, rowvar=False, ddof=1)
    critical = NormalDist().inv_cdf(1.0 - 0.05 / 2.0)
    for x, y, s in all_queries(shuffled.labels):
        r = partial_correlation_from_covariance(cov, shuffled.labels, x, y, s)
        z = fisher_z_statistic(r, shuffled.n_rows, len(s))
        assert oracle.is_independent(x, y, s) == (abs(z) <= critical)


def test_data_matrix_validation():
    with pytest.raises(ValueError):
        DataMatrix(("X", "X"), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        DataMatrix(("X",), np.zeros((0, 1)))
    with pytest.raises(ValueError):
        DataMatrix(("X", "Y"), np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        DataMatrix(("X", "Y"), np.zeros(4))


def test_data_matrix_label_count_must_match_the_columns():
    with pytest.raises(ValueError, match="label count must match column count"):
        DataMatrix(("X", "Y", "Z"), np.zeros((3, 2)))


def test_partial_correlation_needs_rows_and_variance():
    data = DataMatrix(("X", "Y", "Z"), np.random.default_rng(5).standard_normal((3, 3)))
    for route in (partial_correlation, partial_correlation_recursive):
        with pytest.raises(ValueError, match="need more rows"):
            route(data, "X", "Y", ("Z",))
    values = np.random.default_rng(5).standard_normal((10, 2))
    constant = DataMatrix(("X", "Y"), np.column_stack([values[:, 0], np.ones(10)]))
    with pytest.raises(SingularCovarianceError, match="zero variance"):
        partial_correlation_recursive(constant, "X", "Y")


def test_base_oracle_leaves_the_decision_to_subclasses():
    oracle = IndependenceOracle(("A", "B"))
    with pytest.raises(NotImplementedError):
        oracle.is_independent("A", "B")


def test_data_matrix_csv_round_trip():
    data = rng_data(n=20, cols=3, seed=11)
    back = DataMatrix.from_csv(data.to_csv())
    assert back.labels == data.labels
    assert np.array_equal(back.values, data.values)


def test_data_matrix_csv_layout_for_plain_labels():
    data = DataMatrix(("X", "Y_2"), np.array([[1.0, -2.5], [0.1, 3e-20]]))
    assert data.to_csv() == "X,Y_2\n1.0,-2.5\n0.1,3e-20\n"


@settings(deadline=None)
@given(
    st.lists(st.text().map(str.strip), min_size=1, max_size=4, unique=True).flatmap(
        lambda labels: st.tuples(
            st.just(tuple(labels)),
            st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=len(labels), max_size=len(labels)),
                min_size=1, max_size=4,
            ),
        )
    )
)
@example((("a,b", 'q"x', "c\rd", "e\nf"), [[1.0, -0.0, 1e308, 5e-324]]))
def test_data_matrix_csv_round_trip_any_labels(case):
    # from_csv drops whitespace around header cells, so labels are drawn
    # without it; every other character, commas and quotes included, survives
    labels, rows = case
    data = DataMatrix(labels, np.array(rows, dtype=float))
    back = DataMatrix.from_csv(data.to_csv())
    assert back.labels == data.labels
    assert np.array_equal(back.values, data.values)


def test_data_matrix_csv_strips_header_whitespace():
    text = DataMatrix((" X ", "Y"), np.zeros((1, 2))).to_csv()
    assert DataMatrix.from_csv(text).labels == ("X", "Y")


def test_data_matrix_csv_rejects_ragged_rows():
    with pytest.raises(ValueError):
        DataMatrix.from_csv("X,Y\n1.0,2.0\n3.0\n")


def reference_from_csv(text):
    """The plain list-of-rows parse that ``from_csv`` streams: every row read
    through ``io.StringIO``, blank rows dropped, then one float per cell."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    labels = tuple(cell.strip() for cell in rows[0])
    return labels, np.array([[float(cell) for cell in row] for row in rows[1:]])


@pytest.mark.parametrize(
    "text",
    [
        "X,Y\r\n1.5,-2\r\n3e-3,4\r\n",
        "X,Y\n1.5,-2\n3e-3,4",
        "\nX,Y\n\n1.5,-2\n\n\n3e-3,4\n\n",
        "X,Y\r\n\r\n1.5,-2\r\n\r\n3e-3,4",
        '"a\rb","c\nd","e\x0cf","g\u2028h"\n1,2,3,4\n5,6,7,8\n',
        '"a\r\nb",c\x0c\r\n1,2\r\n',
        '"A",B\r\n1,2\r\n',
    ],
    ids=["crlf", "no-final-newline", "blank-lines", "crlf-blank-lines",
         "quoted-line-breaks", "quoted-crlf", "quoted-header"],
)
def test_data_matrix_csv_parses_as_the_list_of_rows_reader(text):
    labels, values = reference_from_csv(text)
    data = DataMatrix.from_csv(text)
    assert data.labels == labels
    assert np.array_equal(data.values, values)


_CSV_TOKENS = (
    *"0123456789.eE+-,", "\n", "\r\n", "\r", " ", '"', "_",
    "\x00", "\x0b", "\x0c", "\x1c", "\u2028", "\u0661", "nan", "inf", "1e400", "0x1p3",
)


def _csv_outcome(read, text):
    """The labels and the values' shape and bytes that ``read`` makes of
    ``text``, or the message of the ValueError it raises."""
    try:
        data = read(text)
    except ValueError as exc:
        return str(exc)
    return data.labels, data.values.shape, data.values.tobytes()


def _insert(text, edits):
    for at, token in edits:
        at %= len(text) + 1
        text = text[:at] + token + text[at:]
    return text


def _csv_texts():
    """Texts drawn flat from the tokens, and numeric tables of one width,
    each with up to two tokens put in at drawn places."""
    flat = st.lists(st.sampled_from(_CSV_TOKENS), max_size=30).map("".join)
    number = st.one_of(st.floats().map(repr), st.integers(-9, 9).map(str))
    ends = st.sampled_from(("\n", "\r\n", "\n\n"))

    def table(width):
        labels = st.sampled_from(("A", " B", "C ", "D", "E", '"F"'))
        header = st.lists(labels, min_size=width, max_size=width, unique=True)
        row = st.lists(number, min_size=width, max_size=width)
        lines = st.lists(st.tuples(row.map(",".join), ends).map("".join), min_size=1, max_size=4)
        return st.tuples(header.map(",".join), ends, lines.map("".join)).map("".join)

    edits = st.lists(st.tuples(st.integers(0, 200), st.sampled_from(_CSV_TOKENS)), max_size=2)
    return st.one_of(flat, st.builds(_insert, st.integers(1, 3).flatmap(table), edits))


@settings(max_examples=300, deadline=None)
@given(_csv_texts())
@example("A,B\n\n1,2\n\n\n3,4\n")
@example("A,B\r\n \r\n1,2\r\n")
@example("A,B\n1,2\n\t\n")
@example("A,B\n1,\n")
@example("A\n1\n2\n")
@example("A\n1\n \n2\n")
@example("A,B\n")
@example("A,B\n\n\n")
@example("")
@example("A,B\n" + "1" * 200_000 + ",2\n")
@example("A,B\n1,2\n" + "0." + "0" * 200_000 + "1,2\n")
@example("A,B\n1\x1c,2\n")
@example("A,B\n1_0,\u0661\n")
@example("A,B\n1,2\n1e400,0\n")
@example("A,B\n1,2\x00\n")
@example('"A",B\r\n1,2\r\n')
@example("A\rB,C\n1,2\n")
def test_data_matrix_csv_numpy_reader_equals_the_csv_module(text):
    assert _csv_outcome(DataMatrix.from_csv, text) == _csv_outcome(lambda t: DataMatrix(*_read_csv(t)), text)


def test_data_matrix_csv_plain_numeric_text_skips_the_csv_module():
    data = rng_data(n=50, cols=4, seed=12)
    quoted = '"' + '","'.join(data.labels) + '"\r\n' + data.to_csv().split("\n", 1)[1].replace("\n", "\r\n")

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader was called")

    with mock.patch("csv.reader", refuse):
        back = DataMatrix.from_csv(data.to_csv())
        with pytest.raises(AssertionError, match="csv.reader was called"):
            DataMatrix.from_csv(quoted)
    assert back.labels == data.labels
    assert np.array_equal(back.values, data.values)
    back = DataMatrix.from_csv(quoted)
    assert back.labels == data.labels
    assert np.array_equal(back.values, data.values)


def test_data_matrix_csv_drops_one_byte_order_mark():
    assert DataMatrix.from_csv("\ufeff\ufeffA,B\n1,2\n").labels == ("\ufeffA", "B")


def test_data_matrix_csv_errors_name_the_line_where_the_record_ends():
    with pytest.raises(ValueError, match="^CSV line 5 has a non-numeric or missing cell$"):
        DataMatrix.from_csv('A,B\n1,2\n\n"3\n",x\n')
    with pytest.raises(ValueError, match="header row and at least one data row"):
        DataMatrix.from_csv("\n\nA,B\n\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("A,B\r1,2\n", "CSV line 1: new-line character seen in unquoted field"),
        ("A,B\n" + "1" * 200_000 + ",2\n", "CSV line 2: field larger than field limit"),
        ('A,B\n1,2\n\n"' + "1" * 200_000 + '",2\n', "CSV line 4: field larger than field limit"),
    ],
    ids=["bare-cr-unquoted", "huge-cell", "huge-quoted-cell-after-blank"],
)
def test_data_matrix_csv_reader_errors_are_value_errors(text, message):
    with pytest.raises(ValueError, match="^" + message):
        DataMatrix.from_csv(text)


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "crlf-quoted-header"])
def test_data_matrix_csv_parse_peak_memory_is_near_the_values(quoted):
    text = DataMatrix(tuple("ABCDEFGH"), np.random.default_rng(5).standard_normal((20000, 8))).to_csv()
    if quoted:  # read by the csv module
        text = '"A",' + text[2:].replace("\n", "\r\n")
    tracemalloc.start()
    try:
        data = DataMatrix.from_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.values.shape == (20000, 8)
    assert peak < 2 * data.values.nbytes


def test_data_matrix_columns_selects_by_label():
    data = DataMatrix(("X", "Y"), np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(data.columns(("Y",)), np.array([[2.0], [4.0]]))


def test_sem_consistency_statistical_oracle_matches_graph_oracle():
    # data simulated from a stable feedback model; query-level agreement
    from helpers import faithful_sem
    import random as pyrandom

    g = two_cycle_graph()
    sem, _ = faithful_sem(g, pyrandom.Random(42))
    data = sem.simulate(50000, seed=42)
    graph_oracle = GraphOracle(g)
    stat_oracle = FisherZOracle(data, alpha=0.01)
    queries = [(x, y, s) for x, y, s in all_queries(g.vertices, max_cond=2)]
    agree = sum(
        graph_oracle.is_independent(x, y, s) == stat_oracle.is_independent(x, y, s)
        for x, y, s in queries
    )
    assert agree / len(queries) >= 0.95


def test_bare_label_is_a_one_vertex_conditioning_set():
    g = DirectedGraph(("V01", "V02", "V03"), {("V01", "V02"), ("V02", "V03")})
    data = sem_from_graph(g, 0.8).simulate(2000, seed=3)
    for oracle in (GraphOracle(g), FisherZOracle(data)):
        assert oracle.is_independent("V01", "V03", "V02") is d_separated(g, "V01", "V03", "V02")
        assert oracle.is_independent("V03", "V01", ("V02",)) is True
        assert oracle.stats.rows() == [("-", 1, 1)]
        with pytest.raises(UnknownVertexError):
            oracle.is_independent("V01", "V03", "V9")
        with pytest.raises(ValueError):
            oracle.is_independent("V01", "V03", "V01")


def test_bare_label_is_one_conditioning_vertex_in_the_public_functions():
    g = DirectedGraph(("V01", "V02", "V03"), {("V01", "V02"), ("V02", "V03")})
    data = sem_from_graph(g, 0.8).simulate(500, seed=5)
    cov = np.cov(data.values, rowvar=False, ddof=1)
    routes = (
        lambda s: partial_correlation(data, "V01", "V03", s),
        lambda s: partial_correlation_from_covariance(cov, data.labels, "V01", "V03", s),
        lambda s: partial_correlation_recursive(data, "V01", "V03", s),
        lambda s: FisherZOracle(data).is_independent("V01", "V03", s),
    )
    for route in routes:
        assert route("V02") == route(("V02",))


@st.composite
def degenerate_data(draw):
    """Random columns plus one or two constant columns and a duplicated
    column, often with fewer rows than some conditioning sets need, in
    shuffled label order."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_rows = draw(st.integers(2, 9))
    n_random = draw(st.integers(1, 3))
    constants = draw(st.lists(st.sampled_from((0.0, 1.0, 0.1, -3.7)), min_size=1, max_size=2))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_rows, n_random))
    copy = values[:, draw(st.integers(0, n_random - 1))]
    values = np.column_stack([values, *(np.full(n_rows, c) for c in constants), copy])
    labels = list("ABCDEF"[: values.shape[1]])
    rng.shuffle(labels)
    return DataMatrix(tuple(labels), values), seed


def _reference_answer(data, cov, critical, x, y, s):
    """(answer, r, reason the query counts as dependent) by the per-query
    route of the public functions; too few rows is the reason named before
    a degenerate covariance."""
    reason = "need n_rows - |s| - 3 >= 1" if data.n_rows - len(s) - 3 < 1 else None
    try:
        r = partial_correlation_from_covariance(cov, data.labels, x, y, s)
    except SingularCovarianceError as exc:
        r = exc
        reason = reason or str(exc)
    if reason:
        return False, r, reason
    return abs(fisher_z_statistic(r, data.n_rows, len(s))) <= critical, r, None


@settings(deadline=None, max_examples=150)
@given(degenerate_data())
def test_cached_fisher_z_oracle_equals_per_query_route(case):
    data, seed = case
    queries = [q for x, y, s in all_queries(data.labels) for q in ((x, y, s), (y, x, s))]
    random.Random(seed).shuffle(queries)
    assert_oracle_follows_reference(data, queries)


def assert_oracle_follows_reference(data, queries):
    """Ask ``queries`` in order of one FisherZOracle(data, alpha=0.2); each
    answer, warning, ``_residual.partial`` value or error and the final
    ``stats.degenerate`` record must be those of ``_reference_answer``."""
    oracle = FisherZOracle(data, alpha=0.2)
    cov = np.cov(data.values, rowvar=False, ddof=1)
    critical = NormalDist().inv_cdf(1.0 - 0.2 / 2.0)
    index = {v: i for i, v in enumerate(oracle.vertices)}
    asked = set()
    degenerate = {}  # the reference record: reason -> [count, first query]
    for x, y, s in queries:
        expected, r, reason = _reference_answer(data, cov, critical, x, y, s)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert oracle.is_independent(x, y, s) == expected
        key = (frozenset((x, y)), s)
        first = key not in asked  # later asks hit the memo
        asked.add(key)
        messages = []
        if first and reason:
            query = f"({x}, {y} | {sorted(s)})"
            if reason not in degenerate:  # only the first query of a reason warns
                messages = [f"query {query}: {reason}; treating as dependent"]
            degenerate.setdefault(reason, [0, query])[0] += 1
        assert [str(w.message) for w in caught if w.category is SingularCovarianceWarning] == messages
        zmask = sum(1 << index[v] for v in s)
        if isinstance(r, SingularCovarianceError):
            with pytest.raises(SingularCovarianceError, match=str(r)):
                oracle._residual.partial(index[x], index[y], zmask)
        else:
            assert oracle._residual.partial(index[x], index[y], zmask) == pytest.approx(r, abs=1e-12)
    assert list(oracle.stats.degenerate.items()) == list(degenerate.items())


@pytest.mark.parametrize("scaled", [1, 2])
@pytest.mark.parametrize("exponent", [-200, -160, -110, 0, 110, 155, 200])
def test_fisher_z_guards_follow_the_reference_at_extreme_scales(exponent, scaled):
    # one or two columns scaled by 10^e, so that a variance, or the product
    # of two, under- or overflows, beside a constant column, a copy and a
    # copy off by 1e-7 that the copied column determines to within 1e-12
    values = np.random.default_rng(31).standard_normal((60, 4))
    values[:, 1] += values[:, 0]
    near = values[:, 2] + 1e-7 * values[:, 3]
    values = np.column_stack([values[:, :3], np.full(60, 2.5), values[:, 2], near])
    values[:, :scaled] *= 10.0**exponent
    data = DataMatrix(("D", "A", "E", "B", "C", "F"), values)
    queries = [q for x, y, s in all_queries(data.labels) for q in ((x, y, s), (y, x, s))]
    random.Random(exponent).shuffle(queries)
    with np.errstate(all="ignore"):
        assert_oracle_follows_reference(data, queries)


@dataclass(frozen=True, eq=False)
class _RowCount(DataMatrix):
    """Samples that report ``rows`` rows, so that a test can build the band
    table of a large N from a few real rows."""

    rows: int = 0

    @property
    def n_rows(self) -> int:
        return self.rows


# the smallest alpha whose critical value NormalDist can compute, 8.21: it
# puts t_0 at N = 4 within 1.5e-7 of 1; no alpha the oracle accepts rounds
# t_k to 1.0, which needs c / sqrt(N - k - 3) above 19
SMALLEST_ALPHA = 1.2e-16


@settings(deadline=None, max_examples=300)
@given(
    st.integers(4, 10**6),
    st.integers(0, 8),
    st.one_of(st.sampled_from((SMALLEST_ALPHA, 0.01, 0.05)), st.floats(SMALLEST_ALPHA, 0.99)),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
    st.booleans(),
)
def test_fisher_z_band_decides_as_the_statistic(n_rows, k, alpha, offsets, negative):
    # the residual of (X, Y) given k others holds R_XX = R_YY = 1 and R_XY = r,
    # so the oracle reads |r| itself; an r it settles by the threshold alone
    # must get the answer of |z| <= c, asked as one set and as a level
    assume(n_rows - k - 3 >= 1)
    labels = tuple(f"V{m}" for m in range(k + 2))
    data = _RowCount(labels, np.random.default_rng(k).standard_normal((k + 5, k + 2)), n_rows)
    oracle = FisherZOracle(data, alpha)
    t = math.tanh(oracle._critical / math.sqrt(n_rows - k - 3))
    edges = oracle._bands[k]
    values = [0.0, 1.0, *(t + u * 1e-6 * t for u in offsets)]
    for edge in edges:
        values += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, 2.0)]
    members = [1 << m for m in range(2, k + 2)]  # every vertex but V0 and V1
    zmask = sum(members)
    layout = _Triangle(k + 2)
    identity = np.eye(k + 2)[layout.rows, layout.cols]
    settled = 0
    for r in values:
        r = -r if negative else r
        oracle._residual[zmask] = packed = array("d", identity)
        packed[layout.offset[0] + 1] = r
        expected = zmask if abs(fisher_z_statistic(r, n_rows, k)) <= oracle._critical else None
        with mock.patch("ccdkit.fisherz.fisher_z_statistic", side_effect=fisher_z_statistic) as z:
            for i, j, candidates, size, extra in ((0, 1, (), 0, zmask), (1, 0, members, k, 0)):
                oracle._memo.clear()
                assert oracle._first_separator(i, j, candidates, size, extra) == expected
        if not z.called:
            settled += 1
        elif not edges[0] <= abs(r) <= edges[1]:
            pytest.fail(f"r = {r!r} outside the band {edges} took the statistic")
    assert settled >= 2  # at least r = 0 and r = 1


@st.composite
def degenerate_samples(draw):
    """Samples on 3-7 columns and 1-40 rows, so that some set sizes, or
    all, have too few rows for the test, with up to two of these shapes: a
    constant column, a copy or a scaled copy of another, or the sum of two
    others."""
    n = draw(st.integers(3, 7), label="columns")
    rows = draw(st.one_of(st.integers(1, 6), st.integers(7, 40)), label="rows")
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed")).standard_normal((rows, n))
    for _ in range(draw(st.integers(0, 2), label="shapes")):
        a, b, c = draw(st.permutations(range(n)), label="columns")[:3]
        shape = draw(st.sampled_from(("constant", "copy", "scaled", "sum")), label="shape")
        if shape == "constant":
            values[:, a] = 2.5
        elif shape == "copy":
            values[:, a] = values[:, b]
        elif shape == "scaled":
            values[:, a] = -3.0 * values[:, b]
        else:
            values[:, a] = values[:, b] + values[:, c]
    labels = draw(st.permutations([f"V{m}" for m in range(n)]), label="labels")
    return DataMatrix(tuple(labels), values)


@settings(max_examples=300, deadline=None)
@given(degenerate_samples(), st.sampled_from((0.01, 0.05, 0.5)), st.booleans(), st.data())
def test_fisher_z_first_separator_equals_a_per_subset_loop_over_the_statistic(samples, alpha, strict, data):
    # the reference sends every new set through _decide, the statistic
    # route; under strict, the first degenerate query of a reason raises its
    # warning, and the rest of the level is not asked
    n = len(samples.labels)
    i, j = data.draw(st.permutations(range(n)), label="order")[:2]
    others = data.draw(st.permutations([v for v in range(n) if v not in (i, j)]), label="others")
    k = data.draw(st.integers(0, len(others)), label="candidate count")
    candidates = [1 << v for v in sorted(others[:k])]
    extra = sum(1 << v for v in others[k:] if data.draw(st.booleans(), label=f"extra {v}"))
    size = data.draw(st.integers(0, len(candidates) + 1), label="size")
    subsets = [sum(c) | extra for c in combinations(candidates, size)]
    warm = data.draw(st.lists(st.sampled_from(subsets), max_size=3) if subsets else st.just([]))
    label = data.draw(st.sampled_from((None, "A", "D")), label="phase")
    runs = []
    for entry in ("first_separator", "per_subset_loop"):
        oracle = FisherZOracle(samples, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with oracle.phase("C"):
                for zmask in warm:
                    per_subset_loop(oracle, j, i, (), 0, zmask)
            if strict:
                warnings.simplefilter("error", SingularCovarianceWarning)
            with oracle.phase(label):
                try:
                    if entry == "first_separator":
                        found = oracle._first_separator(i, j, candidates, size, extra)
                    else:
                        found = per_subset_loop(oracle, i, j, candidates, size, extra)
                except SingularCovarianceWarning as exc:
                    found = str(exc)
        runs.append((found, dict(oracle._memo), oracle.stats.rows(), oracle.stats.degenerate))
    assert runs[0] == runs[1]
    found, memo = runs[0][:2]
    assert oracle.stats.total() == len(memo)
    if isinstance(found, str):  # the raising set is the level's first not memoised
        w = oracle._width
        pair = min(i, j) << w | max(i, j)
        zmask = next(z for z in subsets if z << 2 * w | pair not in memo)
        names = oracle.vertices
        query = f"({names[i]}, {names[j]} | {[names[m] for m in range(n) if zmask >> m & 1]})"
        assert found.startswith(f"query {query}: ")


def test_search_memo_equals_the_per_query_route():
    # a complete acyclic model on 12 variables: phase A keeps most pairs
    # adjacent and asks conditioning sets of every size up to 10
    labels = tuple(f"V{m:02d}" for m in range(12))
    g = DirectedGraph(labels, {(a, b) for m, a in enumerate(labels) for b in labels[m + 1:]})
    data = sem_from_graph(g, 0.4).simulate(20000, seed=1)
    oracle = FisherZOracle(data)
    try:
        run_ccd(oracle, oracle.vertices)
    except ValueError as exc:
        # phase D aborts on some sample-data runs, at a triple phase B
        # underlined; the memo keeps every decision made up to it
        assert "already underlined" in str(exc)
    cov = np.cov(data.values, rowvar=False, ddof=1)
    w = oracle._width
    sizes = set()
    for key, answer in oracle._memo.items():
        zmask, lo, hi = key >> 2 * w, key >> w & (1 << w) - 1, key & (1 << w) - 1
        s = [v for m, v in enumerate(oracle.vertices) if zmask >> m & 1]
        r = partial_correlation_from_covariance(cov, data.labels, oracle.vertices[lo], oracle.vertices[hi], s)
        assert answer == (abs(fisher_z_statistic(r, data.n_rows, len(s))) <= oracle._critical)
        sizes.add(len(s))
    assert sizes == set(range(11))


def test_singular_conditioning_set_warns_once_and_counts_every_pair(monkeypatch):
    values = np.random.default_rng(6).standard_normal((50, 4))
    data = DataMatrix(("A", "B", "C", "D", "E"), np.insert(values, 2, 1.0, axis=1))
    factored = []  # the conditioning set of every residual sweep, by label
    missing = _Residuals.__missing__

    def counted(self, zmask):
        factored.append([v for k, v in enumerate(data.labels) if zmask >> k & 1])
        return missing(self, zmask)

    monkeypatch.setattr(_Residuals, "__missing__", counted)
    oracle = FisherZOracle(data)
    with pytest.warns(SingularCovarianceWarning) as caught:
        for x, y in (("A", "B"), ("E", "A"), ("B", "E")):
            assert not oracle.is_independent(x, y, ("C", "D"))
    assert [str(w.message) for w in caught] == [
        "query (A, B | ['C', 'D']): conditioning covariance is singular; treating as dependent"
    ]
    assert oracle.stats.degenerate == {
        "conditioning covariance is singular": [3, "(A, B | ['C', 'D'])"]
    }
    # {C, D} sweeps D into its parent {C}, which is factored first and is
    # singular, so {C, D} is cached singular without a sweep of its own;
    # each set is factored once, then read back from the cache
    assert factored == [["C", "D"], ["C"]]
    assert oracle._residual[0b100] is None and oracle._residual[0b1100] is None
    oracle.is_independent("A", "B", ("D",))
    oracle.is_independent("E", "A", ("D",))
    assert not oracle.is_independent("A", "B", ("C",))
    assert factored == [["C", "D"], ["C"], ["D"]]
