import random
import threading
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    run_ccd,
    sem_from_graph,
)

from helpers import all_queries, graphs, two_cycle_graph


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
    # one fresh oracle per graph, so later answers come from cached reach sets
    # filled by earlier queries with either endpoint first
    queries = [q for x, y, s in all_queries(g.vertices) for q in ((x, y, s), (y, x, s))]
    random.Random(len(g.edges)).shuffle(queries)
    oracle = GraphOracle(g)
    for x, y, s in queries:
        assert oracle.is_independent(x, y, s) == (not brute_force_d_connected(g, x, y, s))


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


def test_oracle_is_thread_safe(two_cycle):
    oracle = GraphOracle(two_cycle)
    queries = list(all_queries(two_cycle.vertices))

    def worker():
        for x, y, s in queries:
            oracle.is_independent(x, y, s)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert oracle.stats.total() == len(queries)


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


def test_partial_correlation_recursive_agrees():
    rng = np.random.default_rng(4)
    data = DataMatrix(("P", "Q", "R", "S"), rng.standard_normal((500, 4)))
    for x, y, s in all_queries(data.labels):
        direct = partial_correlation(data, x, y, s)
        recursive = partial_correlation_recursive(data, x, y, s)
        assert direct == pytest.approx(recursive, abs=1e-10)


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


@pytest.mark.parametrize("n_rows", [1, 3])
def test_too_few_rows_is_the_named_reason_for_every_query(n_rows):
    # one row has no sample covariance, and on three rows any two
    # conditioning columns determine the rest: the oracle builds without
    # numpy warnings, and every query warns that rows are lacking, not
    # that the covariance is singular or determines a variable
    values = np.random.default_rng(3).standard_normal((n_rows, 4))
    data = DataMatrix(("A", "B", "C", "D"), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = FisherZOracle(data)
    for x, y, s in all_queries(data.labels):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not oracle.is_independent(x, y, s)
        assert [(w.category, str(w.message)) for w in caught] == [(
            SingularCovarianceWarning,
            f"query ({x}, {y} | {list(s)}): need n_rows - |s| - 3 >= 1; treating as dependent",
        )]


def test_fisher_z_oracle_alpha_validation():
    with pytest.raises(ValueError):
        FisherZOracle(rng_data(n=50), alpha=0.0)
    with pytest.raises(ValueError):
        FisherZOracle(rng_data(n=50), alpha=1.0)


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
    """(answer, r, warning text) by the per-query route of the public
    functions; too few rows is the reason named before a degenerate
    covariance."""
    reason = "need n_rows - |s| - 3 >= 1" if data.n_rows - len(s) - 3 < 1 else None
    try:
        r = partial_correlation_from_covariance(cov, data.labels, x, y, s)
    except SingularCovarianceError as exc:
        r = exc
        reason = reason or str(exc)
    if reason:
        return False, r, f"query ({x}, {y} | {sorted(s)}): {reason}; treating as dependent"
    return abs(fisher_z_statistic(r, data.n_rows, len(s))) <= critical, r, None


@settings(deadline=None, max_examples=150)
@given(degenerate_data())
def test_cached_fisher_z_oracle_equals_per_query_route(case):
    data, seed = case
    queries = [q for x, y, s in all_queries(data.labels) for q in ((x, y, s), (y, x, s))]
    random.Random(seed).shuffle(queries)
    oracle = FisherZOracle(data, alpha=0.2)
    cov = np.cov(data.values, rowvar=False, ddof=1)
    critical = NormalDist().inv_cdf(1.0 - 0.2 / 2.0)
    index = {v: i for i, v in enumerate(oracle.vertices)}
    asked = set()
    for x, y, s in queries:
        expected, r, message = _reference_answer(data, cov, critical, x, y, s)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert oracle.is_independent(x, y, s) == expected
        key = (frozenset((x, y)), s)
        first = key not in asked  # later asks hit the memo
        asked.add(key)
        assert [str(w.message) for w in caught if w.category is SingularCovarianceWarning] == (
            [message] if first and message else []
        )
        zmask = sum(1 << index[v] for v in s)
        if isinstance(r, SingularCovarianceError):
            with pytest.raises(SingularCovarianceError, match=str(r)):
                oracle._partial(index[x], index[y], zmask)
        else:
            assert oracle._partial(index[x], index[y], zmask) == pytest.approx(r, abs=1e-12)


def test_singular_conditioning_set_warns_on_every_pair(monkeypatch):
    values = np.random.default_rng(6).standard_normal((50, 4))
    data = DataMatrix(("A", "B", "C", "D", "E"), np.insert(values, 2, 1.0, axis=1))
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
    oracle = FisherZOracle(data)
    for x, y in (("A", "B"), ("E", "A"), ("B", "E")):
        with pytest.warns(SingularCovarianceWarning) as caught:
            assert not oracle.is_independent(x, y, ("C", "D"))
        assert [str(w.message) for w in caught] == [
            f"query ({x}, {y} | ['C', 'D']): conditioning covariance is singular; "
            "treating as dependent"
        ]
    assert solves == [(2, 2)]  # solved once, then read back as the cached error
    oracle.is_independent("A", "B", ("D",))
    oracle.is_independent("E", "A", ("D",))
    assert solves == [(2, 2), (1, 1)]
