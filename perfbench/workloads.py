"""Seeded inputs, passes and output checks for the four benchmark workloads.

Only names that ``ccdkit`` exports in ``__all__`` are used, so the library's
internals (kernels, memo keys, vertex representation) can change without
touching this file.

Each workload has a fixed base set of graphs drawn by ``random_graph`` from
listed base seeds. The ``--seed`` of a run relabels every base graph by a
seeded permutation of its vertex labels, and for ``fisherz`` also seeds the
sampled data. Relabelling keeps the amount of work but changes the
lexicographic order the search visits, so query counts move by a few
percent between seeds. Fresh random graphs per seed were rejected: at
n = 16, p = .12 one search costs from 0.2 s to 28 s depending on the seed,
which no bound on ``pass_s`` could absorb.
"""
from __future__ import annotations

import hashlib
import random
import time
import warnings
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from ccdkit import (
    DirectedGraph,
    FisherZOracle,
    GraphOracle,
    Mark,
    Pag,
    UnstableModelWarning,
    enumerate_equiv_class,
    fingerprint,
    markov_equivalent,
    parse_pag,
    random_graph,
    sem_from_graph,
    serialize_graph,
    serialize_pag,
    verify_pag_against_graph,
)
from ccdkit.ccd import run_ccd

WORKLOADS = ("exact_skeleton", "exact_wide", "fisherz", "equiv_sweep")

# Why each workload exists, and its sizes at "full" (what the benchmark
# measures) and "tiny" (what the smoke test runs in seconds).
SPECS = {
    # Phase A asks nearly all distinct queries, so the oracle memo, the
    # d_connected wrapper and the reachability kernel do most of the work.
    "exact_skeleton": {
        "full": {"n": 16, "p": 0.12, "base_seeds": tuple(range(1608, 1614))},
        "tiny": {"n": 8, "p": 0.25, "base_seeds": (800, 801)},
    },
    # Few queries on many vertices: the O(n^3)-O(n^4) tuple scans of
    # phases C, E and F take most of the time, not the oracle.
    "exact_wide": {
        "full": {"n": 48, "p": 0.02, "base_seeds": tuple(range(4800, 4805))},
        "tiny": {"n": 24, "p": 0.05, "base_seeds": (2400,)},
    },
    # Fisher-z tests replace d-separation; most runs abort in phase D
    # (ROADMAP item 3) and those aborts are counted, not avoided.
    "fisherz": {
        "full": {"sizes": (8, 12, 16), "per_size": 10, "samples": 20000,
                 "alpha": 0.01, "coefficient": 0.4},
        "tiny": {"sizes": (5, 6), "per_size": 2, "samples": 2000,
                 "alpha": 0.01, "coefficient": 0.4},
    },
    # d_connected called straight from the equivalence tooling, with no
    # oracle and no search: class enumeration builds 2^(n(n-1)) graphs,
    # and each pair compares two brute-force fingerprints.
    "equiv_sweep": {
        "full": {"classes": (("V00 V01", "V01 V02", "V02 V03"),
                             ("V00 V01", "V01 V00", "V01 V02", "V03 V02")),
                 "pairs": ((11, 0.15, 1100, True), (11, 0.15, 1101, False))},
        "tiny": {"classes": (("V00 V01", "V01 V02"),),
                 "pairs": ((6, 0.3, 600, True), (5, 0.3, 500, False))},
    },
}


def labels_for(n: int) -> tuple[str, ...]:
    return tuple(f"V{i:02d}" for i in range(n))


def base_graph(n: int, p: float, base_seed: int) -> DirectedGraph:
    return random_graph(labels_for(n), p, random.Random(base_seed))


def fisherz_base(size: str) -> list[tuple[int, int, float]]:
    """(n, base seed, edge probability) of every fisherz model, in order."""
    spec = SPECS["fisherz"][size]
    return [
        (n, n * 100 + i, 2.0 / n)
        for n in spec["sizes"]
        for i in range(spec["per_size"])
    ]


def permutation(labels: tuple[str, ...], rng: random.Random) -> dict[str, str]:
    shuffled = list(labels)
    rng.shuffle(shuffled)
    return dict(zip(labels, shuffled))


def relabel(g: DirectedGraph, mapping: dict[str, str]) -> DirectedGraph:
    return DirectedGraph(g.vertices, frozenset((mapping[a], mapping[b]) for a, b in g.edges))


def relabel_pag(pag: Pag, mapping: dict[str, str]) -> Pag:
    out = Pag(mapping[v] for v in pag.vertices)
    for a, b, mark_a, mark_b in pag.edge_records():
        out.add_edge(mapping[a], mapping[b], mark_a, mark_b)
    for a, b, c in pag.underlines:
        out.add_underline(mapping[a], mapping[b], mapping[c])
    for a, b, c in pag.dotted_underlines:
        out.add_dotted_underline(mapping[a], mapping[b], mapping[c])
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows_text(rows) -> str:
    return "".join(f"{phase} {size} = {count}\n" for phase, size, count in rows)


# ---------------------------------------------------------------------------
# Inputs


@dataclass
class SearchInput:
    """One search: a graph (and data for fisherz) plus its fresh oracle."""

    key: str
    graph: DirectedGraph
    inverse: dict[str, str]  # relabelled label -> base label
    oracle: object


@dataclass
class Inputs:
    workload: str
    searches: list[SearchInput] = field(default_factory=list)
    classes: list[tuple[int, DirectedGraph]] = field(default_factory=list)  # (mask, graph)
    pairs: list[tuple[DirectedGraph, DirectedGraph, bool]] = field(default_factory=list)
    build_s: float = 0.0  # graph construction inside prepare()
    simulate_s: float = 0.0  # sem simulation inside prepare()


def class_base(edges: tuple[str, ...]) -> DirectedGraph:
    """A class-enumeration input on V00.. from edges written "A B" for A -> B."""
    pairs = frozenset(tuple(edge.split()) for edge in edges)
    n = 1 + max(int(v[1:]) for pair in pairs for v in pair)
    return DirectedGraph(labels_for(n), pairs)


def graph_mask(g: DirectedGraph) -> int:
    """Position of g in the order ``all_graphs`` yields graphs on its labels."""
    ordered = [(a, b) for a in g.vertices for b in g.vertices if a != b]
    return sum(1 << i for i, edge in enumerate(ordered) if edge in g.edges)


def prepare(workload: str, size: str, seed: int) -> Inputs:
    """Generate every input of one pass from the seed: graphs, data, oracles."""
    spec = SPECS[workload][size]
    rng = random.Random(f"{workload}/{size}/{seed}")
    out = Inputs(workload)
    if workload in ("exact_skeleton", "exact_wide"):
        for base_seed in spec["base_seeds"]:
            t0 = time.perf_counter()
            g0 = base_graph(spec["n"], spec["p"], base_seed)
            mapping = permutation(g0.vertices, rng)
            g = relabel(g0, mapping)
            out.build_s += time.perf_counter() - t0
            inverse = {new: old for old, new in mapping.items()}
            out.searches.append(SearchInput(f"{base_seed}", g, inverse, GraphOracle(g)))
    elif workload == "fisherz":
        for n, base_seed, p in fisherz_base(size):
            t0 = time.perf_counter()
            g0 = base_graph(n, p, base_seed)
            mapping = permutation(g0.vertices, rng)
            g = relabel(g0, mapping)
            t1 = time.perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnstableModelWarning)
                data = sem_from_graph(g, spec["coefficient"]).simulate(
                    spec["samples"], rng.randrange(2**32)
                )
            t2 = time.perf_counter()
            out.build_s += t1 - t0
            out.simulate_s += t2 - t1
            inverse = {new: old for old, new in mapping.items()}
            oracle = FisherZOracle(data, spec["alpha"])
            out.searches.append(SearchInput(f"{n}/{base_seed}", g, inverse, oracle))
    else:
        t0 = time.perf_counter()
        for edges in spec["classes"]:
            g0 = class_base(edges)
            g = relabel(g0, permutation(g0.vertices, rng))
            out.classes.append((graph_mask(g), g))
        for n_pair, p, base_seed, equivalent in spec["pairs"]:
            g0 = base_graph(n_pair, p, base_seed)
            g = relabel(g0, permutation(g0.vertices, rng))
            if equivalent:
                other = DirectedGraph(g.vertices, g.edges)
            else:
                # x and y are not adjacent in g, so some set separates them;
                # with the edge x -> y none does, and the graphs differ.
                candidates = [
                    (x, y) for x, y in combinations(g.vertices, 2)
                    if not g.adjacent_in_graph(x, y)
                ]
                x, y = rng.choice(candidates)
                other = DirectedGraph(g.vertices, g.edges | {(x, y)})
            out.pairs.append((g, other, equivalent))
        out.build_s += time.perf_counter() - t0
    return out


def input_digest(inputs: Inputs) -> str:
    """sha256 over every generated graph (and data matrix) of a pass."""
    digest = hashlib.sha256()
    for item in inputs.searches:
        digest.update(serialize_graph(item.graph).encode())
        if isinstance(item.oracle, FisherZOracle):
            digest.update(item.oracle.data.values.tobytes())
    for _, g in inputs.classes:
        digest.update(serialize_graph(g).encode())
    for g, other, _ in inputs.pairs:
        digest.update(serialize_graph(g).encode() + serialize_graph(other).encode())
    return digest.hexdigest()


def table_entries(n: int) -> int:
    """Separation-table entries a brute-force fingerprint decides on n vertices."""
    return comb(n, 2) * 2 ** (n - 2)


def class_entries(n: int) -> int:
    """Table entries of a class enumeration: every graph on n vertices plus the input."""
    return (2 ** (n * (n - 1)) + 1) * table_entries(n)


# ---------------------------------------------------------------------------
# Passes


@dataclass
class SearchOutcome:
    """What one search produced: a PAG (or the exception type) and its counts."""

    key: str
    pag: Pag | None
    text: str  # serialized PAG, or "raised <ExceptionType>"
    rows: tuple
    distinct: int
    conflicts: int
    seconds: float
    error: str | None = None


@dataclass
class PassResult:
    """One pass over all inputs; each input is one timed unit."""

    unit_seconds: list[float]
    unit_queries: list[int]  # distinct oracle queries, or fingerprint table entries
    attempted: int
    failed: int
    searches: list[SearchOutcome] = field(default_factory=list)
    equiv: list[tuple] = field(default_factory=list)
    unit_marks: list[tuple[int, int]] = field(default_factory=list)  # speed-probe marks

    @property
    def seconds(self) -> float:
        return sum(self.unit_seconds)


def run_search(item: SearchInput) -> SearchOutcome:
    """One closed-loop call of run_ccd; any exception is a failed operation."""
    oracle = item.oracle
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pag, state = run_ccd(oracle, oracle.vertices)
    except Exception as exc:  # the library aborted this run; count it, keep going
        dt = time.perf_counter() - t0
        name = type(exc).__name__
        return SearchOutcome(item.key, None, f"raised {name}", tuple(oracle.stats.rows()),
                             oracle.stats.total(), 0, dt, name)
    dt = time.perf_counter() - t0
    return SearchOutcome(item.key, pag, serialize_pag(pag), tuple(state.stats.rows()),
                         state.stats.total(), len(state.conflicts), dt)


def run_pass(inputs: Inputs, mark) -> PassResult:
    """Every input once, in order; ``mark()`` brackets each one for the speed probe."""
    if inputs.searches:
        outcomes, marks = [], []
        for item in inputs.searches:
            start = mark()
            outcomes.append(run_search(item))
            marks.append((start, mark()))
        result = search_pass(outcomes)
        result.unit_marks = marks
        return result
    result = PassResult([], [], 0, 0)
    for mask, g in inputs.classes:
        start = mark()
        t0 = time.perf_counter()
        members = enumerate_equiv_class(g)
        result.unit_seconds.append(time.perf_counter() - t0)
        result.unit_marks.append((start, mark()))
        result.unit_queries.append(class_entries(len(g.vertices)))
        result.equiv.append(("class", mask, members))
    for g, other, _ in inputs.pairs:
        start = mark()
        t0 = time.perf_counter()
        answer = markov_equivalent(g, other)
        result.unit_seconds.append(time.perf_counter() - t0)
        result.unit_marks.append((start, mark()))
        result.unit_queries.append(2 * table_entries(len(g.vertices)))
        result.equiv.append(("pair", answer))
    result.attempted = len(result.equiv)
    return result


def search_pass(outcomes: list[SearchOutcome]) -> PassResult:
    return PassResult(
        unit_seconds=[o.seconds for o in outcomes],
        unit_queries=[o.distinct for o in outcomes],
        attempted=len(outcomes),
        failed=sum(o.error is not None for o in outcomes),
        searches=outcomes,
    )


def pass_signature(result: PassResult) -> list:
    """What must repeat exactly between passes of one run."""
    if result.searches:
        return [(o.key, o.text, o.rows, o.conflicts) for o in result.searches]
    return [
        (r[0], r[1], tuple(serialize_graph(m) for m in r[2])) if r[0] == "class" else r
        for r in result.equiv
    ]


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failure descriptions.


def check_exact(inputs: Inputs, result: PassResult, reference: dict, size: str) -> list[str]:
    """Soundness against the true graph, and the base-label PAG against its digest."""
    failures = []
    digests = reference["pag_sha256"]
    for item, outcome in zip(inputs.searches, result.searches):
        if outcome.pag is None:
            continue  # a failed operation, counted separately
        bad = verify_pag_against_graph(outcome.pag, item.graph, check_edges=False)
        if bad:
            failures.append(f"{item.key}: {bad[0]}")
        text = serialize_pag(relabel_pag(outcome.pag, item.inverse))
        want = digests[f"{inputs.workload}/{size}/{item.key}"]
        if sha256(text) != want:
            failures.append(f"{item.key}: PAG differs from the reference digest")
    return failures


def check_equiv(inputs: Inputs, result: PassResult, reference: dict) -> list[str]:
    """Class members share the input's fingerprint; sizes and answers match."""
    failures = []
    classes = iter(inputs.classes)
    pairs = iter(inputs.pairs)
    for entry in result.equiv:
        if entry[0] == "class":
            mask, g = next(classes)
            members = entry[2]
            target = fingerprint(g)
            if any(fingerprint(m) != target for m in members):
                failures.append(f"class {mask}: a member has another fingerprint")
            want = reference["class_sizes"][str(len(g.vertices))][mask]
            if len(members) != want:
                failures.append(f"class {mask}: {len(members)} members, reference {want}")
        else:
            g, other, equivalent = next(pairs)
            if entry[1] != equivalent:
                failures.append(f"pair on {len(g.vertices)} vertices: answer {entry[1]}, expected {equivalent}")
    return failures


def f1_scores(inputs: Inputs, result: PassResult, reference: dict, size: str) -> dict:
    """Pooled adjacency and arrowhead F1 against the exact-oracle PAG of each graph.

    An aborted run predicts nothing, so all of its reference edges are misses.
    """
    counts = {"adj": [0, 0, 0], "arrow": [0, 0, 0]}  # tp, fp, fn
    for item, outcome in zip(inputs.searches, result.searches):
        base = parse_pag(reference["fisherz_pags"][f"{size}/{item.key}"])
        forward = {old: new for new, old in item.inverse.items()}
        truth = relabel_pag(base, forward)
        predicted = outcome.pag
        for kind, extract in (("adj", _adjacencies), ("arrow", _arrowheads)):
            want = extract(truth)
            got = extract(predicted) if predicted is not None else set()
            c = counts[kind]
            c[0] += len(want & got)
            c[1] += len(got - want)
            c[2] += len(want - got)
    return {kind: _f1(*c) for kind, c in counts.items()}


def _adjacencies(pag: Pag) -> set:
    return {(a, b) for a, b, _, _ in pag.edge_records()}


def _arrowheads(pag: Pag) -> set:
    out = set()
    for a, b, mark_a, mark_b in pag.edge_records():
        if mark_a is Mark.ARROW:
            out.add((a, b))
        if mark_b is Mark.ARROW:
            out.add((b, a))
    return out


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0
