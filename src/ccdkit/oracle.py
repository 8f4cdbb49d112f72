"""Conditional-independence oracles with memoisation and query accounting.

Two concrete oracles share one interface: an exact oracle answering by
d-separation in a known graph, and a statistical oracle running Fisher-z
partial-correlation tests on a data matrix. Each caches the work it shares
between queries with the same conditioning set: the exact oracle one
reach set per (endpoint, set), the statistical oracle one residual
covariance per set.

A query has two entries. The public ``is_independent`` validates labels
by the rules ``dsep.py`` states for every query entry and maps them to
vertex indices. The internal ``_first_separator(i, j, candidates, size,
extra)`` takes indices and asks a whole level of a separator search in
one call: the set ``sum(subset) | extra`` for each size-``size`` subset
of the candidate bitmasks, in ``combinations`` order, until one
separates i from j. Its caller passes distinct one-vertex candidates,
disjoint from ``extra``, none holding i or j, so all sets of one call
have one size. It alone reads and writes the memo and the statistics,
and it takes the lock, reads the phase label and updates the statistics
once per call, not once per query. ``is_independent`` asks it one set.
The search in ``ccd.py`` calls ``_first_separator`` directly when the
oracle's class keeps the base ``is_independent`` and its vertices are
the searched ones, so that its indices are the PAG's ids, and
``is_independent`` with labels otherwise, once per set in the same
order, so an oracle that overrides ``is_independent`` still sees every
query. The memo is keyed on one packed int per unordered pair and set;
statistics count each distinct query once, attributed to the search
phase that first asked it. The memo, the caches and the counters sit
behind a lock, and the phase label belongs to the thread that set it, so
an oracle instance can be shared across threads.

The statistical oracle and the public ``partial_correlation`` functions
share one residual routine and one set of degenerate-covariance checks;
``partial_correlation`` reads its columns' sample covariance through
``partial_correlation_from_covariance``. A Fisher-z decision has one
entry, ``FisherZOracle.is_independent``; ``fisher_z_statistic`` is the
statistic alone. ``partial_correlation_recursive`` stays an independent
cross-check; it applies the same 1e-12 bound to a variable the set
determines. A query it cannot test counts as dependent, per reason in
``OracleStats.degenerate``; only the first of each reason warns.
"""
from __future__ import annotations

import csv
import io
import math
import os
import sys
import threading
import warnings
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from statistics import NormalDist
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._reach import reach_set
from .digraph import DirectedGraph, _as_vertex_set, _bits, _id_of, _mask_of
from .dsep import _check_endpoints

__all__ = [
    "DataMatrix",
    "OracleStats",
    "IndependenceOracle",
    "GraphOracle",
    "FisherZOracle",
    "SingularCovarianceError",
    "SingularCovarianceWarning",
    "partial_correlation",
    "partial_correlation_recursive",
    "partial_correlation_from_covariance",
    "fisher_z_statistic",
]


class SingularCovarianceError(ValueError):
    """The covariance needed for a partial correlation is degenerate."""


class SingularCovarianceWarning(UserWarning):
    """A statistical query met a degenerate covariance or too few rows and
    counted as dependent."""


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
        ``size + extra.bit_count()``; the stats are updated once per call,
        with the call's new decisions, even when ``_decide`` raises (the
        raising query is neither memoised nor counted). The memo key packs
        the set and the unordered pair into one int,
        ``zmask << 2w | lo << w | hi`` with ``w`` bits per index.
        """
        w = self._width
        pair = i << w | j if i < j else j << w | i
        memo = self._memo
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


class GraphOracle(IndependenceOracle):
    """Exact oracle: independent iff d-separated in the given graph.

    Each kernel call yields every vertex d-connected to the first-named
    endpoint given the conditioning set; that reach set is cached per
    (endpoint, conditioning set), so queries sharing that endpoint and the
    set are answered without another fixpoint.
    """

    def __init__(self, graph: DirectedGraph):
        super().__init__(graph.vertices)
        self.graph = graph
        self._reach: dict[int, int] = {}  # keyed zmask << w | endpoint

    def _decide(self, i: int, j: int, zmask: int) -> bool:
        key = zmask << self._width | i
        reach = self._reach.get(key)
        if reach is None:
            g = self.graph  # memos built on first use keep construction cheap
            reach = self._reach[key] = reach_set(g._parent_unions, g._child_unions, 1 << i, zmask)
        return not reach >> j & 1


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """Rectangular real-valued samples with one labelled column per variable."""

    labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("values must be a two-dimensional array")
        rows, cols = vals.shape
        if rows < 1:
            raise ValueError("a data matrix needs at least one row")
        labels = tuple(str(c) for c in self.labels)
        if len(labels) != cols:
            raise ValueError("label count must match column count")
        if len(set(labels)) != len(labels):
            raise ValueError("column labels must be unique")
        if not np.isfinite(vals).all():
            raise ValueError("missing or non-finite values are not accepted")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", vals)

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    @cached_property
    def _col_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def columns(self, names: Sequence[str]) -> np.ndarray:
        index = self._col_index
        return self.values[:, [_id_of(index, name) for name in names]]

    @classmethod
    def from_csv(cls, text: str) -> "DataMatrix":
        """Read a header row of labels plus decimal rows; no missing cells.

        Whitespace around each header cell is dropped, so a label with
        leading or trailing whitespace does not survive a round trip.
        """
        reader = csv.reader(io.StringIO(text))
        rows = [row for row in reader if row]
        if len(rows) < 2:
            raise ValueError("CSV needs a header row and at least one data row")
        labels = tuple(cell.strip() for cell in rows[0])
        data = []
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != len(labels):
                raise ValueError(f"CSV row {lineno} has {len(row)} cells, expected {len(labels)}")
            try:
                data.append([float(cell) for cell in row])
            except ValueError:
                raise ValueError(f"CSV row {lineno} has a non-numeric or missing cell") from None
        return cls(labels, np.asarray(data, dtype=float))

    def to_csv(self) -> str:
        """The inverse of ``from_csv``: a header row, then one row per sample.

        Labels are quoted where the CSV syntax needs it; values are written
        as ``repr`` of each float, so they read back exactly.
        """
        out = io.StringIO()
        # with "\n" as the line terminator, csv does not quote a bare "\r"
        quoting = csv.QUOTE_ALL if any("\r" in v for v in self.labels) else csv.QUOTE_MINIMAL
        csv.writer(out, lineterminator="\n", quoting=quoting).writerow(self.labels)
        csv.writer(out, lineterminator="\n").writerows(
            [repr(float(v)) for v in row] for row in self.values
        )
        return out.getvalue()


def _partial_from_residual(
    base_x: float, base_y: float, residual: tuple[float, float, float] | None
) -> float:
    """Partial correlation of x and y from their residual covariance given a set.

    ``base_x`` and ``base_y`` are the unconditioned variances; ``residual``
    is (var_x, var_y, cov_xy) after conditioning, or None when the
    conditioning block is singular. Every degenerate case raises
    SingularCovarianceError, checked in this order: a zero-variance
    endpoint, a singular conditioning block, a non-finite residual, an
    endpoint the set determines exactly, a non-finite correlation.
    """
    if base_x <= 0.0 or base_y <= 0.0:
        raise SingularCovarianceError("a queried column has zero variance")
    if residual is None:
        raise SingularCovarianceError("conditioning covariance is singular")
    var_x, var_y, cov_xy = residual
    if not (math.isfinite(var_x) and math.isfinite(var_y)):
        raise SingularCovarianceError("conditioning covariance is numerically singular")
    if var_x <= base_x * 1e-12 or var_y <= base_y * 1e-12:
        raise SingularCovarianceError("conditioning determines a queried variable")
    scale = math.sqrt(var_x * var_y)
    if not 0.0 < scale < math.inf:  # the product under- or overflowed
        scale = math.sqrt(var_x) * math.sqrt(var_y)
    r = cov_xy / scale
    if not math.isfinite(r):
        raise SingularCovarianceError("partial correlation is not finite")
    return min(1.0, max(-1.0, r))


def _inverse(block: np.ndarray) -> np.ndarray | None:
    """The inverse of a conditioning covariance block, or None when the
    block is singular, numerically included.

    A member whose variance inflation ``A_cc (A^-1)_cc`` passes 1e12, that
    is one the rest of the set determines to within 1e-12 of its variance,
    makes the block singular, by the same fraction that makes a queried
    variable determined. LU inverts such a block, say one holding a column
    and a scaled copy of it, without complaint, and what it returns is
    rounding noise.
    """
    try:
        inverse = np.linalg.solve(block, np.eye(len(block)))
    except np.linalg.LinAlgError:
        return None
    inflation = np.diagonal(block) * np.diagonal(inverse)
    if not all(0.0 < v <= 1e12 for v in inflation.tolist()):  # NaN fails too
        return None
    return inverse


def _residual(cov: np.ndarray, cond: list[int]) -> np.ndarray | None:
    """The residual covariance S - S[:, Z] S[Z, Z]^-1 S[Z, :] of every
    variable given the non-empty set Z of indices ``cond``, or None when the
    block S[Z, Z] is singular, numerically included."""
    rows = cov[cond]
    inverse = _inverse(rows[:, cond])
    if inverse is None:
        return None
    return cov - rows.T @ (inverse @ rows)


def _query_names(x: str, y: str, s: Iterable[str] | str) -> tuple[str, str, tuple[str, ...]]:
    s = _as_vertex_set(s)  # a bare label is one vertex
    cond = tuple(sorted(s))
    _check_endpoints(x, y, s)
    # the pair in label order, as FisherZOracle reads it, so that r does not
    # depend on which endpoint is named first
    return (x, y, cond) if x < y else (y, x, cond)


def partial_correlation(
    data: DataMatrix, x: str, y: str, s: Iterable[str] | str = ()
) -> float:
    """Sample partial correlation of x and y controlling for s.

    Here and in the other partial-correlation functions, ``s`` is an
    iterable of labels or one bare label.
    """
    x, y, cond = _query_names(x, y, s)
    if data.n_rows <= len(cond) + 2:
        raise ValueError("need more rows than conditioning variables plus two")
    names = (x, y, *cond)
    cov = np.cov(data.columns(names), rowvar=False, ddof=1)
    return partial_correlation_from_covariance(cov, names, x, y, cond)


def partial_correlation_from_covariance(
    cov: np.ndarray, labels: Sequence[str], x: str, y: str, s: Iterable[str] | str = ()
) -> float:
    """Partial correlation read off a covariance matrix over ``labels``.

    Uses the conditional (Schur-complement) covariance of the pair, which
    needs only the conditioning block to be invertible; a block that is
    numerically singular, or a variable that the conditioning set
    determines exactly, is reported as singular.
    """
    x, y, cond = _query_names(x, y, s)
    index = {label: i for i, label in enumerate(labels)}
    idx = [_id_of(index, v) for v in (x, y, *cond)]
    cov = np.asarray(cov, dtype=float)[np.ix_(idx, idx)]
    top = _residual(cov, list(range(2, len(idx)))) if cond else cov
    residual = None if top is None else (float(top[0, 0]), float(top[1, 1]), float(top[0, 1]))
    return _partial_from_residual(float(cov[0, 0]), float(cov[1, 1]), residual)


def partial_correlation_recursive(
    data: DataMatrix, x: str, y: str, s: Iterable[str] | str = ()
) -> float:
    """Same quantity by the classic recursion on lower-order correlations.

    Exponential in the conditioning-set size; kept as an independent
    cross-check of the matrix route.
    """
    x, y, cond = _query_names(x, y, s)
    if data.n_rows <= len(cond) + 2:
        raise ValueError("need more rows than conditioning variables plus two")
    cov = np.atleast_2d(np.cov(data.columns((x, y, *cond)), rowvar=False, ddof=1))
    scale = np.sqrt(np.diag(cov))
    if np.any(scale <= 0.0):
        raise SingularCovarianceError("a queried column has zero variance")
    corr = cov / np.outer(scale, scale)
    memo: dict[tuple[int, int, frozenset[int]], float] = {}

    # every call keeps i < j < min(given), so (i, j, given) is a canonical key
    def rho(i: int, j: int, given: frozenset[int]) -> float:
        key = (i, j, given)
        if key in memo:
            return memo[key]
        if not given:
            value = float(corr[i, j])
        else:
            k = min(given)
            rest = given - {k}
            r_ij = rho(i, j, rest)
            r_ik = rho(i, k, rest)
            r_jk = rho(j, k, rest)
            left, right = 1.0 - r_ik * r_ik, 1.0 - r_jk * r_jk
            # the bound _partial_from_residual puts on a determined variable
            if left <= 1e-12 or right <= 1e-12:
                raise SingularCovarianceError("recursion hit a unit correlation")
            value = (r_ij - r_ik * r_jk) / math.sqrt(left * right)
        memo[key] = value
        return value

    r = rho(0, 1, frozenset(range(2, 2 + len(cond))))
    return min(1.0, max(-1.0, r))


_TOO_FEW_ROWS = "need n_rows - |s| - 3 >= 1"
_PACKAGE_DIR = os.path.dirname(__file__)


def fisher_z_statistic(r: float, n_rows: int, cond_size: int) -> float:
    """The z transform of r scaled by sqrt(N - |s| - 3); infinite at |r| = 1."""
    df = n_rows - cond_size - 3
    if df < 1:
        raise ValueError(_TOO_FEW_ROWS)
    if abs(r) >= 1.0:
        return math.inf
    return math.atanh(r) * math.sqrt(df)


class FisherZOracle(IndependenceOracle):
    """Statistical oracle testing partial correlations on one data matrix.

    The covariance of all columns is computed once up front. The first
    query with a given conditioning set inverts that set's block and
    caches the residual covariance
    R = S - S[:, Z] S[Z, Z]^-1 S[Z, :] as its packed upper triangle; every
    query with the same set then reads r = R_xy / sqrt(R_xx R_yy) from it
    with plain float arithmetic. The empty set reads the covariance itself,
    and a singular block is cached as such; so is a block one of whose
    members the others determine to within 1e-12 of its variance. Too few
    rows for the test (N - |s| - 3 < 1), checked first, or a degenerate
    block makes the query count as dependent under that reason in
    ``stats.degenerate``, so a small sample or a deterministic linear
    dependence degrades the answer instead of aborting the search. The
    first such query of each reason also emits SingularCovarianceWarning
    naming the query and the reason. A one-row sample has no covariance;
    the oracle builds without one, since every query lacks rows.
    """

    def __init__(self, data: DataMatrix, alpha: float = 0.01):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be strictly between 0 and 1")
        super().__init__(data.labels)
        self.data = data
        self.alpha = float(alpha)
        self._n_rows = data.n_rows
        self._critical = NormalDist().inv_cdf(1.0 - self.alpha / 2.0)
        n = len(self.vertices)
        column = [data._col_index[v] for v in self.vertices]
        if data.n_rows > 1:
            cov = np.atleast_2d(np.cov(data.values, rowvar=False, ddof=1))
        else:  # no sample covariance, and every query lacks rows anyway
            cov = np.full((n, n), np.nan)
        self._cov = cov[np.ix_(column, column)]  # in vertex order
        self._upper = np.triu_indices(n)
        # (i, j) with i <= j sits at offset[i] + j of a packed triangle
        self._offset = tuple(i * n - i * (i + 1) // 2 for i in range(n))
        self._residual: dict[int, array | None] = {0: array("d", self._cov[self._upper].tobytes())}

    def _decide(self, i: int, j: int, zmask: int) -> bool:
        size = zmask.bit_count()
        try:
            if self._n_rows - size - 3 < 1:  # named before a degenerate block
                raise ValueError(_TOO_FEW_ROWS)
            z = fisher_z_statistic(self._partial(i, j, zmask), self._n_rows, size)
        except ValueError as exc:  # too few rows for |s|, or a singular block
            reason = str(exc)
            record = self.stats.degenerate.get(reason)
            if record is not None:  # only the first query of a reason warns
                record[0] += 1
                return False
            names = self.vertices
            query = f"({names[i]}, {names[j]} | {[names[k] for k in _bits(zmask)]})"
            # warn at the first frame outside this package: the code that asked
            level, frame = 1, sys._getframe()
            while frame is not None and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
                level, frame = level + 1, frame.f_back
            warnings.warn(
                SingularCovarianceWarning(f"query {query}: {reason}; treating as dependent"),
                stacklevel=level,
            )
            # recorded after the warning, which an "error" filter raises
            self.stats.degenerate[reason] = [1, query]
            return False
        return abs(z) <= self._critical

    def _partial(self, i: int, j: int, zmask: int) -> float:
        """Partial correlation of vertices i and j given the set ``zmask``."""
        try:
            packed = self._residual[zmask]
        except KeyError:
            packed = self._residual[zmask] = self._packed_residual(zmask)
        if i > j:
            i, j = j, i
        offset = self._offset
        ii, jj = offset[i] + i, offset[j] + j
        base = self._residual[0]
        residual = None if packed is None else (packed[ii], packed[jj], packed[offset[i] + j])
        return _partial_from_residual(base[ii], base[jj], residual)

    def _packed_residual(self, zmask: int) -> array | None:
        """Packed upper triangle of the residual covariance given the set, or
        None when the set's covariance block is singular, numerically
        included."""
        residual = _residual(self._cov, list(_bits(zmask)))
        return None if residual is None else array("d", residual[self._upper].tobytes())
