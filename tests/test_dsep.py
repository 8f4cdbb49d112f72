import os
import random
import subprocess
import sys
import threading
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdkit import (
    DataMatrix,
    DirectedGraph,
    GraphOracle,
    UnknownVertexError,
    brute_force_d_connected,
    d_connected,
    d_separated,
    partial_correlation,
    partial_correlation_from_covariance,
    partial_correlation_recursive,
)
from ccdkit._reach import UnionMemo, walk

from helpers import (
    LETTERS,
    all_queries,
    cyclic_graphs,
    exhaustive_graphs,
    graphs,
    ordered_pairs,
    random_query,
    reference_reach_set,
    subsets,
    witness_separator,
)


def test_d_connected_rejects_bad_queries(two_cycle):
    with pytest.raises(ValueError):
        d_connected(two_cycle, "A", "A")
    with pytest.raises(ValueError):
        d_connected(two_cycle, "A", "B", ("B",))
    with pytest.raises(ValueError):
        d_connected(two_cycle, (), "B")
    with pytest.raises(UnknownVertexError):
        d_connected(two_cycle, "A", "Q")
    with pytest.raises(UnknownVertexError):
        d_connected(two_cycle, "A", "B", (v for v in ("X", "Q")))
    with pytest.raises(TypeError):
        d_connected(two_cycle, "A", "B", (["X"],))


def test_single_edge_always_connects():
    g = DirectedGraph(("A", "B"), {("A", "B")})
    assert d_connected(g, "A", "B")
    assert d_connected(g, "A", "B", ())


def test_collider_blocks_marginally_opens_conditioned():
    g = DirectedGraph(("A", "B", "C"), {("A", "B"), ("C", "B")})
    assert not d_connected(g, "A", "C")
    assert d_connected(g, "A", "C", ("B",))


def test_two_cycle_independencies(two_cycle):
    assert not d_connected(two_cycle, "A", "B")
    assert not d_connected(two_cycle, "A", "B", ("X", "Y"))
    assert d_connected(two_cycle, "A", "B", ("X",))


def test_brute_force_matches_on_spec_cases(two_cycle):
    g = DirectedGraph(("A", "B", "C"), {("A", "B"), ("C", "B")})
    assert not brute_force_d_connected(g, "A", "C")
    assert brute_force_d_connected(g, "A", "C", ("B",))
    assert not brute_force_d_connected(two_cycle, "A", "B", ("X", "Y"))


def test_conditioned_descendant_of_collider_opens_path():
    # A -> B <- C, B -> D: conditioning on the descendant D activates the collider
    g = DirectedGraph(("A", "B", "C", "D"), {("A", "B"), ("C", "B"), ("B", "D")})
    assert d_connected(g, "A", "C", ("D",))
    assert brute_force_d_connected(g, "A", "C", ("D",))


def test_set_valued_endpoints():
    g = DirectedGraph(("A", "B", "C"), {("A", "B")})
    assert d_connected(g, ("A", "C"), ("B",))
    assert not d_connected(g, ("C",), ("B",))


def test_engine_equals_brute_force_all_three_vertex_graphs():
    labels = ("A", "B", "C")
    for g in exhaustive_graphs(labels):
        for x, y, s in all_queries(labels):
            assert d_connected(g, x, y, s) == brute_force_d_connected(g, x, y, s)


@settings(max_examples=200)
@given(graphs(min_vertices=4, max_vertices=5))
def test_engine_equals_brute_force_random(g):
    rng = random.Random(len(g.edges))
    for _ in range(5):
        x, y, s = random_query(g, rng)
        assert d_connected(g, x, y, s) == brute_force_d_connected(g, x, y, s)


@given(graphs(max_vertices=5))
def test_symmetry(g):
    rng = random.Random(len(g.edges) * 31)
    x, y, s = random_query(g, rng)
    assert d_connected(g, x, y, s) == d_connected(g, y, x, s)


def _fixpoint(parents, children, x, z):
    """Every vertex outside x and z that the walk from x given z reaches
    by its fixpoint."""
    return walk(parents, children, z, x) & ~(x | z)


@settings(max_examples=300)
@given(cyclic_graphs(), st.data())
def test_a_walk_stopped_at_a_target_is_part_of_its_fixpoint(g, data):
    # the early stop that d_connected uses: the walk given a target reaches
    # nothing the fixpoint does not, holds a target member exactly when the
    # fixpoint does, and is the fixpoint when no target member is reachable
    n = len(g.vertices)
    parents, children = g._parent_unions, g._child_unions
    x = data.draw(st.integers(1, 2**n - 1), label="x")
    z = data.draw(st.integers(0, 2**n - 1), label="z") & ~x
    target = data.draw(st.integers(0, 2**n - 1), label="target")
    fixpoint = walk(parents, children, z, x)
    stopped = walk(parents, children, z, x, target)
    assert not stopped & ~fixpoint
    assert bool(stopped & target) == bool(fixpoint & target)
    if not fixpoint & target:
        assert stopped == fixpoint


@settings(max_examples=300)
@given(graphs(max_vertices=7), st.data())
def test_bounce_rule_reaches_what_the_ancestor_rule_reaches(g, data):
    n = len(g.vertices)
    z_mask = data.draw(st.integers(0, 2**n - 1), label="z_mask")
    for x in range(n):
        z = z_mask & ~(1 << x)
        got = _fixpoint(g._parent_unions, g._child_unions, 1 << x, z)
        assert got == reference_reach_set(g, 1 << x, z)


def test_kernel_equals_the_ancestor_rule_on_every_graph_up_to_three_vertices():
    # every source set x and every z disjoint from it, each asked of fresh
    # memos and again of the warm memos of the same graph
    for n in range(1, 4):
        for g in exhaustive_graphs(tuple(LETTERS[:n])):
            for fresh in (True, False):
                for x in range(1, 1 << n):
                    for z in range(1 << n):
                        if x & z:
                            continue
                        if fresh:
                            parents = UnionMemo(g._parent_masks)
                            children = UnionMemo(g._child_masks)
                        else:
                            parents, children = g._parent_unions, g._child_unions
                        got = _fixpoint(parents, children, x, z)
                        assert got == reference_reach_set(g, x, z), (g, x, z)


def _check_ancestral_rules(g, i, j):
    """The two rules GraphOracle answers from its ancestor masks, against
    brute_force_d_connected for the pair i, j and every set of the other
    vertices: given nothing, the pair is d-connected exactly when its
    endpoints share an ancestor, and a set whose part inside An({i, j}) is
    dependent is dependent. Then a GraphOracle, asked in either endpoint
    order the empty set and every other set as a level of one set, in size
    order so that each set's part inside An({i, j}) is known before it,
    gives the brute-force answer to each."""
    x, y = g.vertices[i], g.vertices[j]
    ancestors = g._ancestor_masks
    region = ancestors[i] | ancestors[j]
    rest = [k for k in range(len(g.vertices)) if k not in (i, j)]
    sets = [sum(1 << k for k in s) for s in subsets(rest)]
    connected = {z: brute_force_d_connected(g, x, y, g._labels(z)) for z in sets}
    assert connected[0] == bool(ancestors[i] & ancestors[j]), (g, x, y)
    for z in sets:
        assert connected[z] or not connected[z & region], (g, x, y, g._labels(z))
    for a, b in ((i, j), (j, i)):
        oracle = GraphOracle(g)
        for z in sets:
            members = [1 << k for k in rest if z >> k & 1]
            found = oracle._first_separator(a, b, members, len(members))
            assert (found is None) == connected[z], (g, x, y, g._labels(z))


def test_ancestral_rules_on_every_graph_up_to_four_vertices():
    for n in range(2, 5):
        for g in exhaustive_graphs(tuple(LETTERS[:n])):
            for i, j in combinations(range(n), 2):
                _check_ancestral_rules(g, i, j)


@settings(max_examples=200, deadline=None)
@given(cyclic_graphs(min_vertices=5, max_vertices=8), st.data())
def test_ancestral_rules_on_cyclic_graphs(g, data):
    i, j = data.draw(st.sampled_from(list(combinations(range(len(g.vertices)), 2))), label="pair")
    _check_ancestral_rules(g, i, j)


def test_union_memos_belong_to_one_graph():
    # two graphs on the same labels, equal ones included, never share a memo,
    # so a union filled for one never answers the other
    chain = DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")})
    fork = DirectedGraph(("A", "B", "C"), {("B", "A"), ("B", "C")})
    twin = DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")})
    assert twin == chain
    memos = [m for g in (chain, fork, twin) for m in (g._parent_unions, g._child_unions)]
    assert len({id(m) for m in memos}) == len(memos)
    for g in (chain, fork, twin, chain, fork):
        for x, y, s in all_queries(g.vertices):
            assert d_connected(g, x, y, s) == brute_force_d_connected(g, x, y, s)
    assert chain._parent_unions[0b111] == 0b011
    assert fork._parent_unions[0b111] == 0b010


def test_threads_sharing_one_graph_get_the_brute_force_answers():
    labels = tuple(LETTERS[:7])
    rng = random.Random(7)
    g = DirectedGraph(labels, {e for e in ordered_pairs(labels) if rng.random() < 0.3})
    queries = list(all_queries(labels))
    expected = [brute_force_d_connected(g, x, y, s) for x, y, s in queries]
    results = {}

    def worker(k):
        order = list(range(len(queries)))
        random.Random(k).shuffle(order)
        results[k] = {q: d_connected(g, *queries[q]) for q in order}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for k in range(8):
        assert [results[k][q] for q in range(len(queries))] == expected


def test_large_graph_uses_python_backend():
    labels = tuple(f"v{i:02d}" for i in range(70))
    g = DirectedGraph(labels, {(labels[i], labels[i + 1]) for i in range(69)})
    assert d_connected(g, labels[0], labels[-1])
    assert not d_connected(g, labels[0], labels[-1], (labels[30],))


def test_witness_separator_childless_collider():
    g = DirectedGraph(("A", "B", "C"), {("A", "B"), ("C", "B")})
    assert witness_separator(g, "A", "C") == set()
    assert d_separated(g, "A", "C", ())


def test_witness_separator_chain():
    g = DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")})
    assert witness_separator(g, "A", "C") == {"B"}


def test_witness_separator_keeps_requested_vertex(two_cycle):
    t = witness_separator(two_cycle, "A", "B", ("X",))
    assert "X" in t
    assert d_separated(two_cycle, "A", "B", t)


# A collider opens a path when the collider itself has a descendant in the
# conditioning set; a descendant of the vertex after it does not count.
def test_collider_opens_only_through_its_own_descendants():
    g = DirectedGraph(("A", "B", "C", "F"), {("A", "B"), ("C", "B"), ("C", "F")})
    assert not brute_force_d_connected(g, "A", "C", ("F",))


def _bad_inputs():
    """(name, call, exception) for every public query entry.

    Each call builds its arguments afresh, so a one-shot iterator is
    consumed only by the call under test. Where a query breaks several
    rules, the expected type shows which check runs first: unhashable
    members before the endpoint checks, the endpoint checks before the
    unknown-label check.
    """
    g = DirectedGraph(("A", "B", "X", "Y"), {("A", "X"), ("B", "Y"), ("X", "Y"), ("Y", "X")})
    oracle = GraphOracle(g)
    rows = np.random.default_rng(0).standard_normal((50, 3))
    data = DataMatrix(("A", "B", "X"), rows)
    cov = np.cov(rows, rowvar=False, ddof=1)
    pairs = [
        (("A", "A"), ValueError),
        (("Q", "Q"), ValueError),
        (("A", "B", "A"), ValueError),
        (("Q", "B", "Q"), ValueError),
        (("A", "B", lambda: iter(["X", "B"])), ValueError),
        (("A", "Q"), UnknownVertexError),
        (("A", "B", ("Q",)), UnknownVertexError),
        (("A", "B", lambda: iter(["X", "Q"])), UnknownVertexError),
        (("A", "B", (["X"],)), TypeError),
        (("A", "A", (["X"],)), TypeError),
        (("A", "B", None), TypeError),
    ]
    sets = [
        (((), "B"), ValueError),
        ((lambda: iter(["A", "X"]), "X"), ValueError),
        (("A", 1), TypeError),
    ]
    cases = []
    for name, fn in (
        ("d_connected", lambda *a: d_connected(g, *a)),
        ("brute_force_d_connected", lambda *a: brute_force_d_connected(g, *a)),
    ):
        cases += [(name, fn, args, exc) for args, exc in pairs + sets]
    cases += [
        ("is_independent", oracle.is_independent, args, exc)
        for args, exc in pairs + [(("A", "B", (1,)), UnknownVertexError)]
    ]
    column_pairs = pairs + [(("A", "B", ("X", 1)), TypeError)]  # a set that does not sort
    for name, fn in (
        ("partial_correlation", lambda *a: partial_correlation(data, *a)),
        ("partial_correlation_recursive", lambda *a: partial_correlation_recursive(data, *a)),
    ):
        cases += [(name, fn, args, exc) for args, exc in column_pairs]
    cases += [
        (
            "partial_correlation_from_covariance",
            lambda *a: partial_correlation_from_covariance(cov, data.labels, *a),
            args,
            exc,
        )
        for args, exc in column_pairs
    ]
    return oracle, cases


def test_bad_inputs_raise_the_same_types_in_the_same_order():
    oracle, cases = _bad_inputs()
    wrong = []
    for name, fn, args, exc in cases:
        try:
            fn(*(a() if callable(a) else a for a in args))
        except Exception as raised:  # noqa: BLE001 - the type is the assertion
            if not isinstance(raised, exc):  # UnknownVertexError is no ValueError
                wrong.append(f"{name}{args}: {type(raised).__name__}, expected {exc.__name__}")
        else:
            wrong.append(f"{name}{args}: no error, expected {exc.__name__}")
    assert not wrong, "\n".join(wrong)
    assert oracle.stats.total() == 0


_UNKNOWN_PAIR_PROBE = """
from ccdkit import (
    DirectedGraph, GraphOracle, UnknownVertexError, brute_force_d_connected, d_connected,
)
g = DirectedGraph(("A", "B", "X", "Y"), {("A", "X"), ("B", "Y"), ("X", "Y"), ("Y", "X")})
unknown = {"Q", "R"}
for call in (
    lambda: d_connected(g, "A", "B", unknown),
    lambda: brute_force_d_connected(g, "A", "B", unknown),
    lambda: g.ancestors(unknown),
    lambda: g.descendants(unknown),
    lambda: GraphOracle(g).is_independent("A", "B", unknown),
):
    try:
        call()
    except UnknownVertexError as exc:
        print(exc.args[0])
    else:
        print("no error")
"""


def test_a_set_of_unknown_labels_names_the_least_under_every_hash_seed():
    for hash_seed in range(6):
        result = subprocess.run(
            [sys.executable, "-c", _UNKNOWN_PAIR_PROBE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["Q"] * 5, f"PYTHONHASHSEED={hash_seed}"


def test_one_shot_iterators_and_non_string_endpoints_are_read_once(two_cycle):
    for x, y, given in (("A", "B", ("X",)), ("A", "X", ("Y", "B")), ("X", "Y", ())):
        expected = d_connected(two_cycle, x, y, given)
        assert d_connected(two_cycle, iter([x]), (v for v in [y]), iter(given)) is expected
        assert brute_force_d_connected(two_cycle, iter([x]), iter([y]), iter(given)) is expected
        assert GraphOracle(two_cycle).is_independent(x, y, iter(given)) is not expected
    # endpoints and set members are read as labels, so 1 and 2 name the
    # vertices "1" and "2"
    oracle = GraphOracle(DirectedGraph(("1", "2", "3"), {("1", "2")}))
    assert oracle.is_independent(1, 2) is False
    assert oracle.is_independent(1, 3) is True
    assert oracle.is_independent(1, 3, (2,)) is True
    assert oracle.is_independent(1, 3, iter([2])) is True
