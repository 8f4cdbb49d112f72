"""End-to-end acceptance checks with per-criterion runtime budgets.

Each test prints exactly one ``criterion N [...]: PASS/FAIL`` line (visible
under ``pytest -s``) and then asserts. Criteria 2 and 7 share one batch of
discovery runs through a module-scoped fixture, so the batch is generated
once. A warmup fixture compiles the reachability kernel before anything is
timed.
"""
import random
import statistics
import time
from math import comb

import pytest

from ccdkit import (
    DirectedGraph,
    FisherZOracle,
    GraphOracle,
    brute_force_d_connected,
    d_connected,
    d_separated,
    enumerate_equiv_class,
    fingerprint,
    random_graph,
    run_ccd,
    serialize_pag,
    verify_pag_against_graph,
)
from ccdkit.cli import RunReport

from conftest import GOLDEN
from helpers import (
    LETTERS,
    SEPARATION_CHECKS,
    all_queries,
    exhaustive_graphs,
    faithful_sem,
    two_cycle_graph,
    random_query,
)

EDGE_PROBS = (0.2, 0.35, 0.5)


def report(num, name, ok, detail=""):
    word = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} [{name}]: {word}{suffix}")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


@pytest.fixture(scope="module", autouse=True)
def warmup():
    # First d_connected call pays the kernel compilation cost; keep that out
    # of every timed window below.
    g = two_cycle_graph()
    d_connected(g, "A", "B", ("X", "Y"))


@pytest.fixture(scope="module")
def soundness_runs():
    rng = random.Random(6021023)
    runs = []
    t0 = time.perf_counter()
    for _ in range(1000):
        n = rng.choice((3, 4, 5, 6))
        p = rng.choice(EDGE_PROBS)
        g = random_graph(LETTERS[:n], p, rng)
        psi, state = run_ccd(GraphOracle(g), g.vertices)
        runs.append((n, p, g, psi, state))
    return runs, time.perf_counter() - t0


def test_criterion_1_golden_trace(golden):
    g = two_cycle_graph()
    t0 = time.perf_counter()
    psi, state = run_ccd(GraphOracle(g), g.vertices)
    elapsed = time.perf_counter() - t0

    dump = RunReport.build(psi, state, elapsed).stdout_text(dump_state=True)
    facts = [
        serialize_pag(psi) == golden("two_cycle.pag"),
        dump == golden("two_cycle_dump.txt"),
        state.sepset_of("A", "B") == frozenset(),
        state.supset_of("A", "X", "B") == frozenset({"X", "Y"}),
        state.supset_of("A", "Y", "B") == frozenset({"X", "Y"}),
        psi.dotted_underlines
        == frozenset({("A", "X", "B"), ("A", "Y", "B")}),
        state.stats.for_phase("C") == 0,
        state.stats.for_phase("F") == 0,
        not state.conflicts,
        elapsed < 1.0,
    ]
    report(
        1,
        "golden trace",
        all(facts),
        f"byte-identical={facts[1]}, {elapsed:.3f}s",
    )


def test_criterion_2_soundness(soundness_runs):
    runs, gen_elapsed = soundness_runs
    t0 = time.perf_counter()
    violations = []
    cyclic = 0
    for _, _, g, psi, _ in runs:
        if g.has_directed_cycle():
            cyclic += 1
        found = verify_pag_against_graph(psi, g)
        violations.extend(f"{serialize_pag(psi)!r}: {v}" for v in found)
    elapsed = gen_elapsed + (time.perf_counter() - t0)
    ok = (
        len(runs) == 1000
        and cyclic >= 300
        and not violations
        and elapsed < 120.0
    )
    report(
        2,
        "soundness",
        ok,
        f"1000 graphs, {cyclic / 10:.0f}% cyclic, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_3_equivalence_vs_fingerprint():
    t0 = time.perf_counter()
    exceptions = []
    for family in (
        list(exhaustive_graphs(tuple(LETTERS[:3]))),
        [
            random_graph(LETTERS[:4], random.Random(40 + i).choice(EDGE_PROBS), random.Random(7000 + i))
            for i in range(500)
        ],
    ):
        by_fp = {}
        by_pag = {}
        for g in family:
            fp = fingerprint(g)
            pag_text = serialize_pag(run_ccd(GraphOracle(g), g.vertices)[0])
            by_fp.setdefault(fp, set()).add(pag_text)
            by_pag.setdefault(pag_text, set()).add(fp)
        exceptions.extend(f"fingerprint -> {len(v)} PAGs" for v in by_fp.values() if len(v) > 1)
        exceptions.extend(f"PAG -> {len(v)} fingerprints" for v in by_pag.values() if len(v) > 1)
    elapsed = time.perf_counter() - t0
    ok = not exceptions and elapsed < 300.0
    report(
        3,
        "identical PAG iff identical fingerprint",
        ok,
        f"564 graphs, {len(exceptions)} exceptions, {elapsed:.1f}s",
    )


def test_criterion_4_equivalence_class_size():
    g = two_cycle_graph()
    t0 = time.perf_counter()
    members = enumerate_equiv_class(g)
    elapsed = time.perf_counter() - t0
    ok = (
        len(members) == 2
        and any(m.edges == g.edges for m in members)
        and elapsed < 30.0
    )
    report(4, "equivalence class size", ok, f"{len(members)} members, {elapsed:.1f}s")


def test_criterion_5_edge_additions_reconnect():
    g = two_cycle_graph()
    facts = [d_separated(g, "A", "B", ("X", "Y"))]
    for extra in (("A", "Y"), ("B", "X")):
        g2 = DirectedGraph(g.vertices, set(g.edges) | {extra})
        facts.append(d_connected(g2, "A", "B", ("X", "Y")))
        facts.append(brute_force_d_connected(g2, "A", "B", ("X", "Y")))
    report(5, "edge additions reconnect A,B given {X,Y}", all(facts))


def test_criterion_6_engine_equals_brute_force():
    t0 = time.perf_counter()
    disagreements = 0
    checked = 0
    for g in exhaustive_graphs(tuple(LETTERS[:3])):
        for x, y, s in all_queries(g.vertices):
            checked += 1
            if d_connected(g, x, y, s) != brute_force_d_connected(g, x, y, s):
                disagreements += 1
    rng = random.Random(424242)
    for _ in range(2000):
        n = rng.choice((4, 5))
        g = random_graph(LETTERS[:n], rng.choice(EDGE_PROBS), rng)
        x, y, s = random_query(g, rng)
        checked += 1
        if d_connected(g, x, y, s) != brute_force_d_connected(g, x, y, s):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and elapsed < 120.0
    report(
        6,
        "engine equals brute force",
        ok,
        f"{checked} queries, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_7_query_count_bounds(soundness_runs):
    runs, _ = soundness_runs
    over = []
    sparse_margins = []
    for n, p, g, psi, state in runs:
        k = max(len(psi.adjacent(v)) for v in g.vertices)
        bound_a = 2 * comb(n, 2) * sum(comb(n - 2, i) for i in range(k + 1))
        count_a = state.stats.for_phase("A")
        m = max((len(vs) for vs in state.local.values()), default=0)
        bound_d = 3 * comb(n, 3) * sum(comb(n - 3, i) for i in range(m + 1))
        count_d = state.stats.for_phase("D")
        if count_a > bound_a or count_d > bound_d:
            over.append((count_a, bound_a, count_d, bound_d))
        if n == 6 and p == 0.2:
            sparse_margins.append(bound_a - count_a)
    ok = (
        not over
        and len(sparse_margins) > 0
        and statistics.median(sparse_margins) > 0
    )
    report(
        7,
        "query count bounds",
        ok,
        f"{len(over)} over bound, {len(sparse_margins)} sparse runs, "
        f"median sparse slack {statistics.median(sparse_margins):.0f}",
    )


def test_criterion_8_statistical_end_to_end():
    g = two_cycle_graph()
    psi_exact, _ = run_ccd(GraphOracle(g), g.vertices)
    t0 = time.perf_counter()
    matches = 0
    failures = []
    for seed in range(50):
        sem, _ = faithful_sem(g, random.Random(1000 + seed))
        data = sem.simulate(20000, seed=seed)
        psi, state = run_ccd(FisherZOracle(data, alpha=0.01), g.vertices)
        if psi == psi_exact:
            matches += 1
        else:
            failures.append(f"seed {seed}: conflicts={len(state.conflicts)}")
    elapsed = time.perf_counter() - t0
    ok = matches >= 40 and elapsed < 180.0
    report(
        8,
        "statistical end to end",
        ok,
        f"{matches}/50 match, {elapsed:.1f}s"
        + (f"; failures: {'; '.join(failures)}" if failures else ""),
    )


def test_criterion_9_separation_property_sweep():
    t0 = time.perf_counter()
    counterexamples = []
    families = [
        g
        for size in (2, 3, 4)
        for g in exhaustive_graphs(tuple(LETTERS[:size]))
    ]
    rng = random.Random(97)
    families.extend(
        random_graph(LETTERS[:5], rng.choice(EDGE_PROBS), rng) for _ in range(500)
    )
    for g in families:
        for check in SEPARATION_CHECKS:
            counterexamples.extend(f"{check.__name__}: {c}" for c in check(g))
    elapsed = time.perf_counter() - t0
    ok = not counterexamples and elapsed < 180.0
    report(
        9,
        "separation property sweep",
        ok,
        f"{len(families)} graphs x {len(SEPARATION_CHECKS)} properties, "
        f"{len(counterexamples)} counterexamples, {elapsed:.1f}s",
    )
