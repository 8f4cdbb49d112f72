"""Shared test utilities: graph enumeration, scripted oracles, faithful models."""
import itertools
import random

from hypothesis import strategies as st

from ccdkit import DirectedGraph, LinearSem, d_connected, d_separated, witness_separator
from ccdkit.oracle import IndependenceOracle, partial_correlation_from_covariance

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


def subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


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


def random_query(g, rng: random.Random):
    x, y = rng.sample(g.vertices, 2)
    rest = [v for v in g.vertices if v not in (x, y)]
    s = tuple(v for v in rest if rng.random() < 0.5)
    return x, y, s
