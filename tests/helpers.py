"""Shared test utilities: graph enumeration, scripted oracles, faithful models,
and all-tuples reference scans of the search phases."""
import itertools
import random

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from ccdkit import (
    DirectedGraph,
    GraphOracle,
    LinearSem,
    Mark,
    Pag,
    SingularModelError,
    d_connected,
    d_separated,
    verify_pag_against_graph,
)
from ccdkit.ccd import CcdState, _harden
from ccdkit.digraph import _check_label
from ccdkit.fisherz import partial_correlation_from_covariance
from ccdkit.oracle import IndependenceOracle

LETTERS = "ABCDEFGH"


def two_cycle_graph() -> DirectedGraph:
    return DirectedGraph(
        ("A", "B", "X", "Y"),
        {("A", "X"), ("B", "Y"), ("X", "Y"), ("Y", "X")},
    )


def ordered_pairs(labels):
    return [(a, b) for a in labels for b in labels if a != b]


def exhaustive_graphs(labels):
    """Every directed graph on the given labels, fixed edge order."""
    pairs = ordered_pairs(labels)
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        yield DirectedGraph(labels, frozenset(p for p, bit in zip(pairs, picks) if bit))


def all_queries(labels, max_cond=None):
    """Every (x, y, s) with singleton endpoints, s over the remaining labels."""
    for x, y in itertools.combinations(labels, 2):
        rest = [v for v in labels if v not in (x, y)]
        top = len(rest) if max_cond is None else min(max_cond, len(rest))
        for r in range(top + 1):
            for s in itertools.combinations(rest, r):
                yield x, y, s


def known_queries(oracle):
    """Every query the oracle knows the answer of, keyed as its memo is:
    the memo, plus each set of each settled level's range as dependent."""
    known = dict(oracle._memo)
    w = oracle._width
    for level, ranges in getattr(oracle, "_ranges", {}).items():
        k, pair = level >> 2 * w, level & (1 << 2 * w) - 1
        for fixed, universe in ranges:
            free = [1 << v for v in range(universe.bit_length()) if (universe & ~fixed) >> v & 1]
            for subset in itertools.combinations(free, k - fixed.bit_count()):
                key = (sum(subset) | fixed) << 2 * w | pair
                assert known.setdefault(key, False) is False, "a settled set was decided separating"
    return known


class ScriptedOracle(IndependenceOracle):
    """Answers independent exactly on a fixed list of (pair, conditioning set)."""

    def __init__(self, vertices, independent):
        super().__init__(vertices)
        self._keys = set()
        for pair, s in independent:
            i, j = sorted(self._index[v] for v in pair)
            self._keys.add((i, j, sum(1 << self._index[v] for v in frozenset(s))))

    def _decide(self, i, j, zmask):
        return (min(i, j), max(i, j), zmask) in self._keys


class NoisyOracle(IndependenceOracle):
    """Exact answers with a seeded share flipped, so that runs meet conflicts.

    It wraps a ``GraphOracle`` of the graph for ``_decide`` alone, so its
    own queries go through the base per-set loop. Each distinct query
    keeps one answer for the life of the oracle, and two oracles built
    from the same graph and seed agree on every query. ``calls`` lists
    every ``is_independent`` call, memo hits included.
    """

    def __init__(self, graph, seed, flip=0.15):
        super().__init__(graph.vertices)
        self.seed = seed
        self.flip = flip
        self.calls = []
        self._exact = GraphOracle(graph)._decide

    def is_independent(self, x, y, s=()):
        s = tuple(s)
        self.calls.append((x, y, frozenset(s)))
        return super().is_independent(x, y, s)

    def _decide(self, i, j, zmask):
        key = f"{self.seed}/{min(i, j)}/{max(i, j)}/{zmask}"
        return self._exact(i, j, zmask) != (random.Random(key).random() < self.flip)


class EverySet(IndependenceOracle):
    """GraphOracle's answers through the base per-set loop, which asks
    every set one at a time and memoises it: the reference the exact
    oracle's level test and ancestral rule are compared against."""

    def __init__(self, graph):
        super().__init__(graph.vertices)
        self._decide = GraphOracle(graph)._decide


class DecideOnlyNoisyOracle(NoisyOracle):
    """NoisyOracle's answers with the base ``is_independent``, so the
    phases ask through ``_first_separator``."""

    is_independent = IndependenceOracle.is_independent


def reference_reach_set(g, x_mask, z_mask):
    """The kernel as it was before the bounce rule: a walk passes a
    collider while the collider is an ancestor of the conditioning set."""
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


def relabel_pag(pag, mapping):
    out = Pag(mapping[v] for v in pag.vertices)
    for a, b, mark_a, mark_b in pag.edge_records():
        out.add_edge(mapping[a], mapping[b], mark_a, mark_b)
    for a, b, c in pag.underlines:
        out.add_underline(mapping[a], mapping[b], mapping[c])
    for a, b, c in pag.dotted_underlines:
        out.add_dotted_underline(mapping[a], mapping[b], mapping[c])
    return out


def scrambled_state(labels, seed):
    """A state as phases C to F may meet it under a noisy oracle: a random
    skeleton, random marks and separators, and dotted arrow colliders."""
    rng = random.Random(seed)
    marks = (Mark.CIRCLE, Mark.TAIL, Mark.ARROW, Mark.ARROW)
    state = CcdState(psi=Pag(labels))
    psi = state.psi
    index = psi.index

    def some_of(but):
        # a random set's mask; every label draws once, kept or not
        return sum(1 << index(v) for v in labels if rng.random() < 0.3 and v not in but)

    density = rng.uniform(0.4, 0.9)
    for a, b in itertools.combinations(labels, 2):
        if rng.random() < density:
            psi.add_edge(a, b, rng.choice(marks), rng.choice(marks))
        else:
            state._sep[index(a), index(b)] = some_of((a, b))
    for b in labels:
        for a, c in itertools.combinations(psi.adjacent(b), 2):
            if not psi.has_edge(a, c) and psi.is_arrow_collider(a, b, c) and rng.random() < 0.7:
                psi.add_dotted_underline(a, b, c)
                state._sup[index(a), index(b), index(c)] = some_of((a, c)) | 1 << index(b)
    return state


# Phases A, C, D, E and F as scans over every ordered vertex tuple, in
# lexicographic order. ccd.py enumerates the same candidates from
# neighbour sets; these define the query and write order it must keep.


def reference_phase_a(state, oracle):
    psi = state.psi
    with oracle.phase("A"):
        n = 0
        while any(len(psi.adjacent(v)) >= n + 1 for v in psi.vertices):
            for x, y in itertools.permutations(psi.vertices, 2):
                if not psi.has_edge(x, y):
                    continue
                candidates = [v for v in psi.adjacent(x) if v != y]
                for subset in itertools.combinations(candidates, n):
                    if oracle.is_independent(x, y, subset):
                        psi.remove_edge(x, y)
                        i, j = sorted(map(psi.index, (x, y)))
                        state._sep[i, j] = sum(1 << psi.index(v) for v in subset)
                        break
            n += 1


def reference_phase_c(state, oracle):
    psi = state.psi
    with oracle.phase("C"):
        for a, x, y in itertools.permutations(psi.vertices, 3):
            if psi.has_edge(a, x) or psi.has_edge(a, y) or not psi.has_edge(x, y):
                continue
            separator = state.sepset_of(a, y)
            if separator is not None and x not in separator:
                if not oracle.is_independent(a, x, separator):
                    _harden(state, "C", psi.index(x), psi.index(y), Mark.ARROW)
                    _harden(state, "C", psi.index(y), psi.index(x), Mark.TAIL)


def reference_phase_d(state, oracle):
    psi = state.psi
    local = {}
    for v in psi.vertices:
        members = set(psi.adjacent(v))
        for y in psi.adjacent(v):
            if psi.mark_at(y, v) is Mark.ARROW:
                members.update(
                    x for x in psi.adjacent(y) if x != v and psi.mark_at(y, x) is Mark.ARROW
                )
        local[v] = sorted(members)
    state._local = [tuple(map(psi.index, local[v])) for v in psi.vertices]
    with oracle.phase("D"):
        m = 0
        met = True
        while met:
            met = False  # a triple not yet dotted with m candidates
            for a, b, c in itertools.permutations(psi.vertices, 3):
                if psi.has_edge(a, c) or not psi.is_arrow_collider(a, b, c):
                    continue
                if Pag.canonical_triple(a, b, c) in psi.dotted_underlines:
                    continue
                candidates = [v for v in local[a] if v not in (b, c)]
                if len(candidates) < m:
                    continue
                met = True
                for subset in itertools.combinations(candidates, m):
                    if oracle.is_independent(a, c, subset + (b,)):
                        psi.add_dotted_underline(a, b, c)
                        key = tuple(map(psi.index, Pag.canonical_triple(a, b, c)))
                        state._sup[key] = sum(1 << psi.index(v) for v in (*subset, b))
                        break
            m += 1


def _dotted_quadruples(psi):
    for a, b, c, d in itertools.permutations(psi.vertices, 4):
        if Pag.canonical_triple(a, b, c) in psi.dotted_underlines:
            yield a, b, c, d


def reference_phase_e(state):
    psi = state.psi
    for a, b, c, d in _dotted_quadruples(psi):
        if not (psi.has_edge(a, d) and psi.has_edge(c, d) and psi.has_edge(b, d)):
            continue
        if psi.mark_at(d, a) is Mark.ARROW and psi.mark_at(d, c) is Mark.ARROW:
            if d in state.supset_of(a, b, c):
                _harden(state, "E", psi.index(d), psi.index(b), Mark.TAIL)
            else:
                _harden(state, "E", psi.index(b), psi.index(d), Mark.TAIL)
                _harden(state, "E", psi.index(d), psi.index(b), Mark.ARROW)


def reference_phase_f(state, oracle):
    psi = state.psi
    with oracle.phase("F"):
        for a, b, c, d in _dotted_quadruples(psi):
            if not psi.has_edge(b, d) or (psi.has_edge(d, a) and psi.has_edge(d, c)):
                continue
            if not oracle.is_independent(a, c, state.supset_of(a, b, c) | {d}):
                _harden(state, "F", psi.index(b), psi.index(d), Mark.TAIL)
                _harden(state, "F", psi.index(d), psi.index(b), Mark.ARROW)


def faithful_sem(graph, rng, low=0.4, high=0.7, min_partial=0.05):
    """Random coefficients avoiding near-cancellation of d-connected correlations.

    Signed uniform draws on a graph with feedback can make two paths cancel
    almost exactly, leaving a d-connected pair with a population partial
    correlation no finite-sample test can see. Such draws are rejected and
    redrawn; the count comes back for reporting.
    """
    labels = graph.vertices
    redraws = 0
    while True:
        coeffs = {
            (target, source): rng.choice([-1.0, 1.0]) * rng.uniform(low, high)
            for source, target in sorted(graph.edges)
        }
        sem = LinearSem(labels, coeffs, {})
        cov = sem.implied_covariance()
        ok = all(
            abs(partial_correlation_from_covariance(cov, labels, x, y, s)) >= min_partial
            for x, y, s in all_queries(labels)
            if d_connected(graph, x, y, s)
        )
        if ok:
            return sem, redraws
        redraws += 1


def solved_residual(cov, cond):
    """The residual covariance S - S[:, Z] S[Z, Z]^-1 S[Z, :] given the
    index list ``cond``, by one LU solve: an independent reference for the
    sweep. None when the block is singular: LU fails on it, or a member's
    variance inflation S_mm (S[Z, Z]^-1)_mm falls outside (0, 1e12]."""
    rows = cov[cond]
    block = rows[:, cond]
    try:
        inverse = np.linalg.solve(block, np.eye(len(cond)))
    except np.linalg.LinAlgError:
        return None
    if not all(0.0 < v <= 1e12 for v in (np.diagonal(block) * np.diagonal(inverse)).tolist()):
        return None
    return cov - rows.T @ (inverse @ rows)


def subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def reference_verify_pag_against_graph(pag, graph):
    """``verify_pag_against_graph`` with clause (i) decided by sweeping every
    conditioning subset per pair: 2^(n-2) d-separation queries a pair."""
    violations = []
    for a, b in itertools.combinations(graph.vertices, 2):
        rest = [v for v in graph.vertices if v not in (a, b)]
        separable = any(d_separated(graph, a, b, s) for s in subsets(rest))
        if pag.has_edge(a, b) and separable:
            violations.append(f"(i) edge {a}-{b}, but some subset separates them")
        if not pag.has_edge(a, b) and not separable:
            violations.append(f"(i) no edge {a}-{b}, but no subset separates them")
    return violations + verify_pag_against_graph(pag, graph, check_edges=False)


def check_inseparable_pairs(g):
    """Adjacent pairs (edge, or common child ancestral to an endpoint) stay
    d-connected under every conditioning set."""
    bad = []
    for x, y in itertools.combinations(g.vertices, 2):
        if not g.adjacent_in_graph(x, y):
            continue
        rest = [v for v in g.vertices if v not in (x, y)]
        for s in subsets(rest):
            if d_separated(g, x, y, s):
                bad.append(f"{x},{y} separated by {sorted(s)} despite adjacency")
    return bad


def witness_separator(g, x, y, q=()):
    """Candidate separating set built from local structure around x.

    Take s = children(x) restricted to ancestors of {x, y} union q; the
    result is parents(s + {x}) together with s, minus descendants of
    common children of x and y, minus the endpoints. Whenever neither
    endpoint is a parent of the other and no common child is an ancestor
    of either, the result d-separates x from y; callers can check that
    antecedent with ``adjacent_in_graph``. The set is returned either way.
    """
    s = g.children(x) & g.ancestors(frozenset((x, y)) | frozenset(q))
    pool = s | frozenset().union(*(g.parents(v) for v in s | {x}))
    banned = g.descendants(g.children(x) & g.children(y)) | {x, y}
    return pool - banned


def check_witness_separator(g):
    """For non-adjacent ordered pairs the constructed witness separates, draws
    only on ancestors of the endpoints, and stays within x's adjacents unless
    x is an ancestor of y."""
    bad = []
    for x, y in ordered_pairs(g.vertices):
        if g.adjacent_in_graph(x, y):
            continue
        t = witness_separator(g, x, y)
        if d_connected(g, x, y, t):
            bad.append(f"witness {sorted(t)} fails to separate {x},{y}")
        anc = g.ancestors((x, y))
        if not t <= anc:
            bad.append(f"witness for {x},{y} strays outside ancestors: {sorted(t - anc)}")
        if not g.is_ancestor(x, y):
            loose = [v for v in t if not g.adjacent_in_graph(v, x)]
            if loose:
                bad.append(f"witness for {x},{y} not local to {x}: {loose}")
    return bad


def check_local_separators(g):
    """Every separable pair is separated by a subset of one endpoint's adjacents."""
    bad = []
    for x, y in itertools.combinations(g.vertices, 2):
        if g.adjacent_in_graph(x, y):
            continue
        hit = any(
            d_separated(g, x, y, s)
            for end in (x, y)
            for s in subsets(
                v for v in g.vertices if v != end and g.adjacent_in_graph(end, v)
            )
        )
        if not hit:
            bad.append(f"no separator local to either endpoint for {x},{y}")
    return bad


def check_minimal_separator_ancestry(g):
    """Inclusion-minimal separating sets consist of ancestors of the endpoints."""
    bad = []
    for x, y in itertools.combinations(g.vertices, 2):
        rest = [v for v in g.vertices if v not in (x, y)]
        seps = [frozenset(s) for s in subsets(rest) if d_separated(g, x, y, s)]
        anc = g.ancestors((x, y))
        for s in seps:
            if any(t < s for t in seps):
                continue
            if not s <= anc:
                bad.append(f"minimal separator {sorted(s)} of {x},{y} leaves ancestors")
    return bad


def check_witness_probe_retention(g):
    """A witness built around a probe vertex still separates, and keeps the
    probe whenever it is adjacent to both endpoints and not a descendant of a
    common child of them."""
    bad = []
    for x, z in ordered_pairs(g.vertices):
        if g.adjacent_in_graph(x, z):
            continue
        shielded = g.descendants(g.children(x) & g.children(z))
        for y in g.vertices:
            if y in (x, z):
                continue
            t = witness_separator(g, x, z, {y})
            if d_connected(g, x, z, t):
                bad.append(f"witness with probe {y} fails to separate {x},{z}")
            if (
                y not in shielded
                and g.adjacent_in_graph(x, y)
                and g.adjacent_in_graph(y, z)
                and y not in t
            ):
                bad.append(f"probe {y} dropped from witness for {x},{z}")
    return bad


def check_separator_monotonicity(g, connected=d_connected):
    """Enlarging a separating set with ancestors of it or of the endpoints
    never reopens the pair."""
    bad = []
    for x, z in itertools.combinations(g.vertices, 2):
        rest = [v for v in g.vertices if v not in (x, z)]
        for r in subsets(rest):
            if connected(g, x, z, r):
                continue
            pool = g.ancestors(frozenset(r) | {x, z}) - {x, z} - frozenset(r)
            for q in subsets(pool):
                if q and connected(g, x, z, frozenset(r) | frozenset(q)):
                    bad.append(
                        f"{x},{z}: separator {sorted(r)} broken by ancestors {sorted(q)}"
                    )
    return bad


SEPARATION_CHECKS = (
    check_inseparable_pairs,
    check_witness_separator,
    check_local_separators,
    check_minimal_separator_ancestry,
    check_witness_probe_retention,
    check_separator_monotonicity,
)


@st.composite
def graphs(draw, min_vertices=2, max_vertices=5):
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    labels = tuple(LETTERS[:n])
    pairs = ordered_pairs(labels)
    edges = draw(st.frozensets(st.sampled_from(pairs)))
    return DirectedGraph(labels, edges)


@st.composite
def cyclic_graphs(draw, min_vertices=3, max_vertices=8):
    """A graph with between n/2 and 2n edges, one directed cycle among them."""
    n = draw(st.integers(min_vertices, max_vertices))
    labels = tuple(LETTERS[:n])
    pairs = st.sampled_from(ordered_pairs(labels))
    edges = draw(st.frozensets(pairs, min_size=n // 2, max_size=2 * n))
    ring = draw(st.permutations(labels))[: draw(st.integers(2, n))]
    return DirectedGraph(labels, edges | set(zip(ring, ring[1:] + ring[:1])))


def _is_label(text):
    try:
        _check_label(text)
    except ValueError:
        return False
    return True


# any label the file formats accept: no whitespace, no comma, no leading "#"
vertex_labels = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3
).filter(_is_label)


@st.composite
def labelled_graphs(draw, max_vertices=6):
    """A graph over any labels the graph format accepts; sparse enough
    that isolated vertices are common."""
    labels = draw(st.lists(vertex_labels, max_size=max_vertices, unique=True))
    pairs = ordered_pairs(labels)
    edges = draw(st.frozensets(st.sampled_from(pairs), max_size=len(labels))) if pairs else ()
    return DirectedGraph(tuple(labels), frozenset(edges))


@st.composite
def pags(draw, max_vertices=6):
    """A PAG with random marks, underlines and dotted underlines; sparse
    enough that isolated vertices are common."""
    labels = draw(st.lists(vertex_labels, min_size=1, max_size=max_vertices, unique=True))
    pag = Pag(labels)
    marks = st.sampled_from(list(Mark))
    for a, b in itertools.combinations(pag.vertices, 2):
        if draw(st.integers(0, 2)) == 0:
            pag.add_edge(a, b, draw(marks), draw(marks))
    for b in pag.vertices:
        for a, c in itertools.combinations(pag.adjacent(b), 2):
            kind = draw(st.sampled_from(("plain", "underline", "dotted")))
            if kind == "underline":
                pag.add_underline(a, b, c)
            elif kind == "dotted" and pag.is_arrow_collider(a, b, c):
                pag.add_dotted_underline(a, b, c)
    return pag


@st.composite
def sems(draw, max_vertices=5):
    """A solvable linear model with random coefficients and error variances."""
    labels = draw(st.lists(vertex_labels, min_size=1, max_size=max_vertices, unique=True))
    pairs = ordered_pairs(labels)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    coefficients = draw(st.dictionaries(st.sampled_from(pairs), finite)) if pairs else {}
    variances = {
        v: draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)) for v in labels
    }
    try:
        return LinearSem(labels, coefficients, variances)
    except SingularModelError:
        assume(False)


def random_query(g, rng: random.Random):
    x, y = rng.sample(g.vertices, 2)
    rest = [v for v in g.vertices if v not in (x, y)]
    s = tuple(v for v in rest if rng.random() < 0.5)
    return x, y, s
