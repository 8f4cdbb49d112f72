"""The Fisher-z oracle and the partial-correlation functions behind it.

The numpy-backed half of the oracles: a ``DataMatrix`` of labelled
samples, ``FisherZOracle``, which answers ``IndependenceOracle`` queries
by Fisher-z tests on partial correlations, and the public partial
correlation functions. The exact path never imports this module, so a
search over a known graph starts without numpy; the package loads it on
first use of one of its names.

The statistical oracle and the public ``partial_correlation`` functions
share one residual store, which keeps per conditioning set the packed
upper triangle of the residual covariance, built by symmetric sweep steps
(Goodnight 1979), and one set of degenerate-covariance checks.
``partial_correlation_from_covariance`` builds a store over its labels in
label order, as the oracle holds its vertices, so the two compute r
bit-for-bit alike; ``partial_correlation`` reads its columns' sample
covariance through it. ``FisherZOracle._first_separator`` compares |r|
with a threshold per set size and sends only a query near it, or one it
cannot test, to ``_decide``, which computes the statistic;
``fisher_z_statistic`` is the statistic alone, kept for reporting.
``partial_correlation_recursive`` stays an independent cross-check; it
applies the same 1e-12 bound to a variable the set determines. A query
it cannot test counts as dependent, per reason in
``OracleStats.degenerate``; only the first of each reason warns.
"""
from __future__ import annotations

import csv
import io
import math
import os
import sys
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations
from statistics import NormalDist
from typing import Iterable, Sequence

import numpy as np

from .digraph import _as_vertex_set, _bits, _id_of
from .dsep import _check_endpoints
from .oracle import IndependenceOracle

__all__ = [
    "DataMatrix",
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
        leading or trailing whitespace does not survive a round trip. One
        leading UTF-8 byte-order mark is dropped too. Blank lines are
        skipped. Every error, a record the csv module cannot read included,
        is a ValueError that names the file line on which the bad record
        ends. A plain numeric text is read by numpy's C reader; quoted
        input, and any text that reader rejects, by the csv module, which
        gives every error (``_read_plain_csv``). Either way the labels and
        values are the same, and lines are read lazily: apart from
        ``text``, the parse's peak allocation on a large table is little
        more than ``values.nbytes``, 1.2 times on 20,000 x 8.
        """
        return cls(*(_read_plain_csv(text) or _read_csv(text)))

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


def _lines(text: str):
    """The lines of ``text`` after one leading byte-order mark, split only at
    "\\n" and keeping it, as iterating ``io.StringIO(text)`` gives them, but
    one at a time and without copying the text."""
    start, end = (1 if text.startswith("\ufeff") else 0), len(text)
    while start < end:
        stop = text.find("\n", start) + 1 or end
        yield text[start:stop]
        start = stop


def _read_csv(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """``DataMatrix.from_csv``'s labels and values, read by the csv module.

    Each row goes straight into one packed float buffer, which becomes the
    values without a copy.
    """
    reader = csv.reader(_lines(text))
    rows = filter(None, reader)  # a blank line reads as []
    try:
        labels = tuple(cell.strip() for cell in next(rows, ()))
        width = len(labels)
        values = array("d")
        for row in rows:
            if len(row) != width:
                raise ValueError(f"CSV line {reader.line_num} has {len(row)} cells, expected {width}")
            try:
                values.extend([float(cell) for cell in row])
            except ValueError:
                raise ValueError(f"CSV line {reader.line_num} has a non-numeric or missing cell") from None
    except csv.Error as exc:  # say, a cell past the field size limit
        raise ValueError(f"CSV line {reader.line_num}: {exc}") from None
    if not values:
        raise ValueError("CSV needs a header row and at least one data row")
    return labels, np.frombuffer(values).reshape(-1, width)


_BLANK = ("\n", "\r\n")  # the lines csv.reader reads as an empty row


def _read_plain_csv(text: str) -> tuple[tuple[str, ...], np.ndarray] | None:
    """``_read_csv``'s labels and values, read by numpy's C reader, or None
    when only the csv module may read ``text``.

    numpy reads a text with no quote, no bare "\\r" and no line longer than
    ``csv.field_size_limit()``: the csv module would split each of its
    records at every comma and raise no error, and numpy parses each cell
    with the routine behind ``float``, so the values are bit-identical. A
    NUL, which the csv module rejects before Python 3.11, and the control
    characters 0x1c-0x1f, which numpy strips around a number as whitespace
    and ``float`` does not, send the text to the csv module too. So does
    every text numpy rejects: a cell that ``float`` may still accept
    (``1_0``, ``١``), a ragged or whitespace-only line. The csv module then
    gives the result or the error, with its message and line number.
    """
    if any(c in text for c in '"\x00\x1c\x1d\x1e\x1f') or (
        "\r" in text and text.count("\r") != text.count("\r\n")
    ):
        return None
    lines = _short_lines(text, csv.field_size_limit())
    try:
        header = next((line for line in lines if line not in _BLANK), None)
        first = next((line for line in lines if line not in _BLANK), None)
        if first is None:  # no data row, on which numpy would warn
            return None
        values = np.loadtxt(chain((first,), lines), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    labels = tuple(cell.strip() for cell in header.split(","))
    return (labels, values) if values.shape[1] == len(labels) else None


def _short_lines(text: str, limit: int):
    """``_lines(text)``, raising ValueError at a line longer than ``limit``."""
    for line in _lines(text):
        if len(line) > limit:
            raise ValueError("a line is longer than the csv field size limit")
        yield line


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


class _Triangle:
    """Index arrays of the packed upper triangle of a symmetric n x n matrix,
    the one layout in which a residual covariance is kept and swept."""

    def __init__(self, n: int):
        ids = np.arange(n)
        self.rows, self.cols = np.nonzero(ids[:, None] <= ids)  # np.triu_indices(n)
        # (i, j) with i <= j sits at offset[i] + j
        self.offset = tuple(i * n - i * (i + 1) // 2 for i in range(n))
        low, high = np.minimum.outer(ids, ids), np.maximum.outer(ids, ids)
        # line[k]: where row k of the full matrix sits, (k, m) at (min, max)
        self.line = low * n - low * (low + 1) // 2 + high
        self.diagonal = self.line[ids, ids]


@lru_cache(maxsize=16)
def _triangle(n: int) -> _Triangle:
    """The one shared, read-only ``_Triangle`` of each size n."""
    layout = _Triangle(n)
    for index in (layout.rows, layout.cols, layout.line, layout.diagonal):
        index.flags.writeable = False
    return layout


def _sweep(
    layout: _Triangle, packed: array, variances: Sequence[float], k: int, swept: Iterable[int]
) -> array | None:
    """One symmetric sweep step: the packed covariance swept on the set
    ``swept`` becomes the one swept on that set plus k, as ``array("d")``,
    or None when the larger set's block is singular, numerically included.
    ``packed`` is any float64 buffer of the triangle, ``variances`` the
    unswept diagonal.

    A matrix swept on Z holds -S[Z, Z]^-1 on its Z block and the residual
    covariance S - S[:, Z] S[Z, Z]^-1 S[Z, :] outside Z's rows and columns.
    The pivot p = R_kk is k's residual variance given Z, and it must lie in
    (0, inf). A member whose variance inflation S_mm (S[Z, Z]^-1)_mm passes
    1e12, that is one the rest of the set determines to within 1e-12 of its
    variance, makes the block singular, by the same fraction that makes a
    queried variable determined; k's inflation is S_kk / p, checked before
    anything is divided by p, and each other member's is read off its own
    diagonal entry of the result, so the check costs one product per member
    of ``swept``. Each entry's update reads only its own row's and column's
    entries, so sweeping a set's members one at a time in ascending index
    order gives the same floats whatever other rows the matrix holds: a
    submatrix that keeps the rows' order sweeps to a submatrix of the full
    sweep.
    """
    base = np.frombuffer(packed)
    line = layout.line[k]
    c = base[line]
    p = float(c[k])
    if not (0.0 < p < math.inf and 0.0 < variances[k] / p <= 1e12):
        return None
    b = c / p  # c[rows] * c[cols] / p overflows at scales where this does not
    out = base - c[layout.rows] * b[layout.cols]
    out[line] = b
    out[layout.diagonal[k]] = -1.0 / p
    result = array("d", out.tobytes())
    offset = layout.offset
    for m in swept:  # -S_mm (S[Z, Z]^-1)_mm; NaN fails too
        if not -1e12 <= variances[m] * result[offset[m] + m] < 0.0:
            return None
    return result


class _Residuals(dict):
    """``self[zmask]`` is the packed upper triangle of the residual covariance
    given the set ``zmask``, as ``array("d")``, or None when the set's block
    is singular; ``self[0]`` is the covariance itself, and ``variances`` its
    diagonal as a list of floats. A set is swept on its first lookup, its
    highest member into the entry of the rest of the set, which is looked
    up first by the same rule; so members are swept in ascending index
    order whichever set is asked first.
    """

    __slots__ = ("layout", "variances")  # a dict subclass's __dict__ attributes read slower

    def __init__(self, cov: np.ndarray):
        super().__init__()
        self.layout = layout = _triangle(len(cov))
        self.variances = np.diagonal(cov).tolist()
        self[0] = array("d", cov[layout.rows, layout.cols].tobytes())

    def __missing__(self, zmask: int) -> array | None:
        top = zmask.bit_length() - 1
        rest = zmask ^ (1 << top)
        packed = self[rest]
        if packed is not None:
            packed = _sweep(self.layout, packed, self.variances, top, _bits(rest))
        self[zmask] = packed
        return packed

    def partial(self, i: int, j: int, zmask: int) -> float:
        """Partial correlation of rows i and j given the set ``zmask``."""
        packed = self[zmask]
        if i > j:
            i, j = j, i
        offset = self.layout.offset
        ii, jj = offset[i] + i, offset[j] + j
        base = self[0]
        residual = None if packed is None else (packed[ii], packed[jj], packed[offset[i] + j])
        return _partial_from_residual(base[ii], base[jj], residual)


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

    ``cov`` is square with one row and column per label, in the order of
    ``labels``, which are unique; any other shape or a repeated label raises
    ValueError. Sweeps the conditioning set's members into the covariance
    one at a time, which yields the conditional (Schur-complement)
    covariance of the pair and needs only the conditioning block to be
    invertible; a block that is numerically singular, or a variable that
    the conditioning set determines exactly, is reported as singular.
    """
    cov = np.asarray(cov, dtype=float)
    index = {label: i for i, label in enumerate(labels)}
    if cov.shape != (len(labels), len(labels)):
        raise ValueError(f"cov has shape {cov.shape}; {len(labels)} labels need a square of that side")
    if len(index) != len(labels):
        raise ValueError("labels must be unique")
    x, y, cond = _query_names(x, y, s)
    ids = {v: _id_of(index, v) for v in (x, y, *cond)}
    # in label order, as FisherZOracle holds its vertices, so that both sweep
    # the same entries in the same order and compute r bit-for-bit alike
    names = sorted(ids)
    idx = [ids[v] for v in names]
    zmask = sum(1 << names.index(v) for v in cond)
    return _Residuals(cov[np.ix_(idx, idx)]).partial(names.index(x), names.index(y), zmask)


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

    The covariance of all columns is computed once up front. One residual
    store, the kind ``partial_correlation_from_covariance`` reads too,
    keeps per conditioning set Z the packed upper triangle of the residual
    covariance R = S - S[:, Z] S[Z, Z]^-1 S[Z, :]. The first query with Z
    builds it by one O(n^2) sweep step, Z's highest member swept into the
    entry of the rest of Z, built first by the same rule when not stored;
    every query with the same set then reads r = R_xy / sqrt(R_xx R_yy)
    from it with plain float arithmetic. The empty set reads the covariance
    itself, and a singular block is stored as such, as is every set built
    on it; so is a block one of whose members the others determine to
    within 1e-12 of its variance.

    |atanh r| sqrt(N - |s| - 3) <= c holds exactly when |r| <= t =
    tanh(c / sqrt(N - |s| - 3)). A table built up front holds, per set
    size, the band [t (1 - 1e-9), t (1 + 1e-9)] around t: a query whose
    residual is clean decides an |r| below the band as independent and one
    above it as dependent, with one comparison. An r inside the band, where
    rounding could tell the two forms apart, and every query that is not
    clean take the route that computes the statistic with
    ``fisher_z_statistic``, ``_decide``, so every answer is that route's.

    Too few rows for the test (N - |s| - 3 < 1, a size without a band),
    checked first, or a degenerate block or endpoint makes the query count
    as dependent under that reason in ``stats.degenerate``, so a small
    sample or a deterministic linear dependence degrades the answer instead
    of aborting the search. The first such query of each reason also emits
    SingularCovarianceWarning naming the query and the reason. A one-row
    sample has no covariance; the oracle builds without one, since every
    query lacks rows.
    """

    def __init__(self, data: DataMatrix, alpha: float = 0.01):
        # at alpha <= 2**-53, 1 - alpha/2 rounds to 1.0, which has no normal quantile
        if not (0.0 < alpha < 1.0 and 1.0 - alpha / 2.0 < 1.0):
            raise ValueError(f"alpha must be strictly between 0 and 1, and above 2**-53, got {alpha!r}")
        super().__init__(data.labels)
        self.data = data
        self.alpha = float(alpha)
        self._n_rows = data.n_rows
        self._critical = NormalDist().inv_cdf(1.0 - self.alpha / 2.0)
        n = len(self.vertices)
        column = [data._col_index[v] for v in self.vertices]
        if data.n_rows > 1:
            # an overflowing column makes entries inf or nan; the queries
            # on them are reported as degenerate, not as numpy warnings
            with np.errstate(all="ignore"):
                cov = np.atleast_2d(np.cov(data.values, rowvar=False, ddof=1))
        else:  # no sample covariance, and every query lacks rows anyway
            cov = np.full((n, n), np.nan)
        self._cov = cov[np.ix_(column, column)]  # in vertex order
        self._residual = _Residuals(self._cov)
        # per set size k, the band around tanh(c / sqrt(N - k - 3)) outside
        # which one comparison decides; None where N - k - 3 < 1
        self._bands: list[tuple[float, float] | None] = [None] * n
        for k in range(min(n, self._n_rows - 3)):
            t = math.tanh(self._critical / math.sqrt(self._n_rows - k - 3))
            self._bands[k] = (t * (1.0 - 1e-9), t * (1.0 + 1e-9))
        # per vertex, the residual variance at or below which a set
        # determines it; inf for a column without variance
        self._floor = [v * 1e-12 if v > 0.0 else math.inf for v in self._residual.variances]

    def _first_separator(
        self, i: int, j: int, candidates: Sequence[int], size: int, extra: int = 0
    ) -> int | None:
        """The base class's loop, with the pair's constants read once and clean queries decided inline."""
        w = self._width
        lo, hi = (i, j) if i < j else (j, i)
        pair = lo << w | hi
        memo = self._memo
        if size == 0:  # one set, extra
            answer = memo.get(extra << 2 * w | pair)
            if answer is not None:
                return extra if answer else None
        k = size + extra.bit_count()
        band = self._bands[k]
        residual = self._residual
        offset = residual.layout.offset
        ii, jj, ij = offset[lo] + lo, offset[hi] + hi, offset[lo] + hi
        floor_i, floor_j = self._floor[lo], self._floor[hi]
        with self._lock:
            label = self._phase.label
            new = 0
            try:
                for subset in combinations(candidates, size):
                    zmask = sum(subset) | extra
                    key = zmask << 2 * w | pair
                    answer = memo.get(key)
                    if answer is None:
                        packed = residual[zmask] if band else None
                        if packed is not None:
                            var_i, var_j = packed[ii], packed[jj]  # positive above their floors
                            product = var_i * var_j
                            if floor_i < var_i and floor_j < var_j and 0.0 < product < math.inf:
                                r = abs(packed[ij]) / math.sqrt(product)
                                if r < band[0]:
                                    answer = True
                                elif band[1] < r < math.inf:
                                    answer = False
                        if answer is None:
                            answer = bool(self._decide(i, j, zmask))
                        memo[key] = answer
                        new += 1
                    if answer:
                        return zmask
            finally:
                if new:
                    self.stats.counts[label, k] += new
        return None

    def _decide(self, i: int, j: int, zmask: int) -> bool:
        """The statistic route: z, or the reason the query cannot be tested."""
        try:
            if self._bands[zmask.bit_count()] is None:  # N - |s| - 3 < 1, named first
                raise ValueError(_TOO_FEW_ROWS)
            z = fisher_z_statistic(self._residual.partial(i, j, zmask), self._n_rows, zmask.bit_count())
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
