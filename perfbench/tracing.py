"""The traced pass: spans around every call the benchmark makes into a layer.

The search is driven phase by phase through ``CcdState.initial`` and
``phase_a`` ... ``phase_f`` instead of ``run_ccd``, and the oracle is wrapped
so that each call into it is timed and counted under the current phase.
Decision costs are measured afterwards by replaying each distinct query
through the public functions that decide it (``d_connected``, or
``partial_correlation_from_covariance`` plus ``fisher_z_statistic``), so
the wrapped run itself stays comparable to the untraced one. Spans stay in
memory until the run ends.
"""
from __future__ import annotations

import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from ccdkit import (
    FisherZOracle,
    SingularCovarianceError,
    SingularCovarianceWarning,
    d_connected,
    enumerate_equiv_class,
    fisher_z_statistic,
    markov_equivalent,
    partial_correlation_from_covariance,
    serialize_pag,
)
from ccdkit.ccd import CcdState, phase_a, phase_b, phase_c, phase_d, phase_e, phase_f

from workloads import Inputs, PassResult, SearchOutcome, class_entries, search_pass, table_entries

PHASES = (
    ("A", phase_a, True),
    ("B", phase_b, False),
    ("C", phase_c, True),
    ("D", phase_d, True),
    ("E", phase_e, False),
    ("F", phase_f, True),
)
ASKING = tuple(label for label, _, asks in PHASES if asks)


class Tracer:
    """In-memory spans: id, parent id, name, start, end and attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                  "name": name, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def seconds(record: dict) -> float:
        return record["end"] - record["start"]


class TimedOracle:
    """Forwards to an oracle, timing and counting each query per phase label."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.vertices = inner.vertices
        self.stats = inner.stats
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.distinct: list[tuple] = []  # (x, y, s) in first-asked order
        self._label: str | None = None
        self._known = 0

    @contextmanager
    def phase(self, label: str):
        previous = self._label
        self._label = label
        try:
            with self.inner.phase(label):
                yield self
        finally:
            self._label = previous

    def is_independent(self, x, y, s=()):
        t0 = time.perf_counter()
        answer = self.inner.is_independent(x, y, s)
        self.busy[self._label] += time.perf_counter() - t0
        self.calls[self._label] += 1
        total = self.stats.total()
        if total != self._known:  # the oracle counted a new distinct query
            self._known = total
            self.distinct.append((x, y, tuple(s)))
        return answer


def _zeroed() -> dict:
    layer = {f"ccd.{label}_s": 0.0 for label, _, _ in PHASES}
    layer.update({f"ccd.{label}_self_s": 0.0 for label in ASKING})
    layer.update({f"ccd.aborts.{label}": 0 for label, _, _ in PHASES})
    layer.update({f"oracle.distinct.{label}": 0 for label in ASKING})
    for name in ("ccd.conflicts", "oracle.calls", "oracle.distinct", "oracle.singular",
                 "dsep.calls", "pag.edges", "pag.underlines", "pag.dotted", "equiv.class_size"):
        layer[name] = 0
    for name in ("oracle.busy_s", "oracle.decide_s", "oracle.fz_s", "dsep.busy_s",
                 "pag.serialize_s", "equiv.class_s", "equiv.pair_s"):
        layer[name] = 0.0
    return layer


def traced_pass(inputs: Inputs, tracer: Tracer) -> tuple[PassResult, dict]:
    """Run one pass with spans; return its result and raw per-layer sums."""
    layer = _zeroed()
    layer["digraph.build_s"] = inputs.build_s
    layer["sem.simulate_s"] = inputs.simulate_s
    if inputs.searches:
        result = search_pass([_traced_search(item, tracer, layer) for item in inputs.searches])
    else:
        result = _traced_equiv(inputs, tracer, layer)
    return result, layer


def _traced_search(item, tracer: Tracer, layer: dict) -> SearchOutcome:
    oracle = TimedOracle(item.oracle)
    error = None
    with tracer.span("search", input=item.key) as search:
        state = CcdState.initial(tuple(oracle.vertices), oracle.stats)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for label, phase, asks in PHASES:
                with tracer.span(f"ccd.{label}") as record:
                    try:
                        phase(state, oracle) if asks else phase(state)
                    except Exception as exc:  # an aborted run is a counted failure
                        error = type(exc).__name__
                if asks:
                    record["oracle_s"] = oracle.busy[label]
                    record["oracle_calls"] = oracle.calls[label]
                    layer[f"ccd.{label}_self_s"] += Tracer.seconds(record) - oracle.busy[label]
                layer[f"ccd.{label}_s"] += Tracer.seconds(record)
                if error is not None:
                    layer[f"ccd.aborts.{label}"] += 1
                    break
    seconds = Tracer.seconds(search)
    layer["oracle.singular"] += sum(issubclass(w.category, SingularCovarianceWarning) for w in caught)
    layer["oracle.calls"] += sum(oracle.calls.values())
    layer["oracle.busy_s"] += sum(oracle.busy.values())
    layer["oracle.distinct"] += oracle.stats.total()
    for label in ASKING:
        layer[f"oracle.distinct.{label}"] += oracle.stats.for_phase(label)
    layer["ccd.conflicts"] += len(state.conflicts)
    _replay(item, oracle.distinct, tracer, layer)
    rows = tuple(oracle.stats.rows())
    if error is not None:
        return SearchOutcome(item.key, None, f"raised {error}", rows, oracle.stats.total(), 0, seconds, error)
    pag = state.psi
    with tracer.span("pag.serialize") as record:
        text = serialize_pag(pag)
    layer["pag.serialize_s"] += Tracer.seconds(record)
    layer["pag.edges"] += len(pag.edge_records())
    layer["pag.underlines"] += len(pag.underlines)
    layer["pag.dotted"] += len(pag.dotted_underlines)
    return SearchOutcome(item.key, pag, text, rows, oracle.stats.total(), len(state.conflicts), seconds)


def _replay(item, distinct: list[tuple], tracer: Tracer, layer: dict) -> None:
    """Time each distinct query's decision on its own.

    Every query also goes through d_connected on the generating graph, which
    for fisherz measures what the same questions cost in the dsep layer.
    """
    graph = item.graph
    with tracer.span("dsep.replay", input=item.key, calls=len(distinct)) as record:
        for x, y, s in distinct:
            d_connected(graph, x, y, s)
    layer["dsep.calls"] += len(distinct)
    layer["dsep.busy_s"] += Tracer.seconds(record)
    if not isinstance(item.oracle, FisherZOracle):
        layer["oracle.decide_s"] += Tracer.seconds(record)
        return
    data = item.oracle.data
    cov = np.atleast_2d(np.cov(data.values, rowvar=False, ddof=1))
    labels = data.labels
    with tracer.span("oracle.fz_replay", input=item.key, calls=len(distinct)) as record:
        for x, y, s in distinct:
            try:
                r = partial_correlation_from_covariance(cov, labels, x, y, s)
            except SingularCovarianceError:
                continue
            fisher_z_statistic(r, data.n_rows, len(s))
    layer["oracle.decide_s"] += Tracer.seconds(record)
    layer["oracle.fz_s"] += Tracer.seconds(record)


def _traced_equiv(inputs: Inputs, tracer: Tracer, layer: dict) -> PassResult:
    result = PassResult([], [], 0, 0)
    for mask, g in inputs.classes:
        with tracer.span("equiv.enumerate_equiv_class", mask=mask) as record:
            members = enumerate_equiv_class(g)
        layer["equiv.class_s"] += Tracer.seconds(record)
        layer["equiv.class_size"] += len(members)
        result.unit_seconds.append(Tracer.seconds(record))
        result.unit_queries.append(class_entries(len(g.vertices)))
        result.equiv.append(("class", mask, members))
    for g, other, _ in inputs.pairs:
        with tracer.span("equiv.markov_equivalent", n=len(g.vertices)) as record:
            answer = markov_equivalent(g, other)
        layer["equiv.pair_s"] += Tracer.seconds(record)
        result.unit_seconds.append(Tracer.seconds(record))
        result.unit_queries.append(2 * table_entries(len(g.vertices)))
        result.equiv.append(("pair", answer))
    result.attempted = len(result.equiv)
    # The fingerprint queries of every pair graph, through d_connected.
    for g, other, _ in inputs.pairs:
        for h in (g, other):
            verts = h.vertices
            calls = 0
            with tracer.span("dsep.replay", n=len(verts)) as record:
                for x, y in combinations(verts, 2):
                    rest = [v for v in verts if v != x and v != y]
                    for size in range(len(rest) + 1):
                        for subset in combinations(rest, size):
                            d_connected(h, x, y, subset)
                            calls += 1
            layer["dsep.calls"] += calls
            layer["dsep.busy_s"] += Tracer.seconds(record)
    return result


def finish(layer: dict) -> dict:
    """Derived per-layer metrics from the raw sums of one traced pass."""
    out = dict(layer)
    calls = out["oracle.calls"]
    out["oracle.memo_hit_ratio"] = 1.0 - out["oracle.distinct"] / calls if calls else 0.0
    out["oracle.us_per_call"] = out["oracle.busy_s"] / calls * 1e6 if calls else 0.0
    out["oracle.self_s"] = out["oracle.busy_s"] - out.pop("oracle.decide_s")
    fz = out.pop("oracle.fz_s")
    out["oracle.fz_us_per_query"] = fz / out["oracle.distinct"] * 1e6 if out["oracle.distinct"] else 0.0
    out["dsep.us_per_call"] = out["dsep.busy_s"] / out["dsep.calls"] * 1e6 if out["dsep.calls"] else 0.0
    return out
