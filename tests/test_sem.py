import random

import numpy as np
import pytest

from ccdkit import (
    DirectedGraph,
    LinearSem,
    SemParseError,
    SingularModelError,
    UnstableModelWarning,
    parse_sem,
    partial_correlation_from_covariance,
    random_graph,
    sem_from_graph,
    serialize_sem,
)
from ccdkit.dsep import d_connected

from helpers import all_queries, faithful_sem, two_cycle_graph, graphs, sems

from hypothesis import given, settings


def two_cycle_sem(c=0.5):
    return sem_from_graph(two_cycle_graph(), coefficient=c)


def test_vertices_absorbed_and_variances_default():
    sem = LinearSem(("A",), {("B", "A"): 0.3}, {"C": 2.0})
    assert sem.vertices == ("A", "B", "C")
    assert sem.error_variances == {"A": 1.0, "B": 1.0, "C": 2.0}


def test_self_dependence_rejected():
    with pytest.raises(ValueError):
        LinearSem(("A",), {("A", "A"): 0.5}, {})


def test_nonpositive_variance_rejected():
    with pytest.raises(ValueError):
        LinearSem(("A",), {}, {"A": 0.0})


def test_non_finite_numbers_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        LinearSem(("A",), {("B", "A"): float("nan")}, {})
    with pytest.raises(ValueError, match="non-finite"):
        LinearSem(("A",), {}, {"A": float("inf")})


def test_graph_of_model_empty():
    assert LinearSem(("A", "B"), {}, {}).graph() == DirectedGraph(("A", "B"), set())


def test_model_without_vertices_solves_and_is_stable():
    sem = LinearSem((), {}, {})
    assert sem.implied_covariance().shape == (0, 0)
    assert sem.is_stable()


def test_graph_of_model_two_cycle():
    sem = LinearSem(
        ("A", "B", "X", "Y"),
        {("X", "A"): 0.5, ("Y", "B"): 0.5, ("Y", "X"): 0.5, ("X", "Y"): 0.5},
        {},
    )
    assert sem.graph() == two_cycle_graph()


def test_graph_of_model_chain():
    sem = LinearSem(("A", "B", "C"), {("B", "A"): 1.0, ("C", "B"): -1.0}, {})
    assert sem.graph().edges == frozenset({("A", "B"), ("B", "C")})


def test_implied_covariance_identity_when_no_edges():
    sem = LinearSem(("A", "B"), {}, {})
    assert np.allclose(sem.implied_covariance(), np.eye(2))


def test_implied_covariance_single_edge():
    sem = LinearSem(("X", "Y"), {("Y", "X"): 0.5}, {})
    assert np.allclose(sem.implied_covariance(), [[1.0, 0.5], [0.5, 1.25]])


def test_two_cycle_unit_product_is_singular():
    with pytest.raises(SingularModelError):
        LinearSem(("X", "Y"), {("Y", "X"): 2.0, ("X", "Y"): 0.5}, {})


def test_two_cycle_sem_matches_graph_independencies():
    sem = two_cycle_sem()
    cov = sem.implied_covariance()
    labels = sem.vertices
    r = partial_correlation_from_covariance
    assert abs(r(cov, labels, "A", "B", ())) < 1e-12
    assert abs(r(cov, labels, "A", "B", ("X", "Y"))) < 1e-12
    assert abs(r(cov, labels, "A", "B", ("X",))) > 1e-3


def test_simulate_requires_positive_sample_count():
    with pytest.raises(ValueError):
        two_cycle_sem().simulate(0, seed=1)
    assert two_cycle_sem().simulate(1, seed=1).n_rows == 1


def solved_samples(sem, n, seed):
    """Rows drawn as ``simulate`` draws them, one solve of I - B per row."""
    k = len(sem.vertices)
    scale = np.sqrt([sem.error_variances[v] for v in sem.vertices])
    errors = np.random.default_rng(seed).standard_normal((n, k)) * scale
    return np.linalg.solve(np.eye(k) - sem.b_matrix(), errors.T).T


def test_simulate_matches_a_solve_per_row():
    labels = [f"V{k:02d}" for k in range(16)]
    wide = sem_from_graph(random_graph(labels, 0.12, random.Random(1608)), 0.4)
    scaled = LinearSem((), {("X", "A"): 0.5, ("Y", "X"): -0.7, ("X", "Y"): 0.6}, {"X": 2.5})
    for sem in (two_cycle_sem(), scaled, wide):
        assert sem.is_stable()
        data = sem.simulate(2000, seed=11)
        assert data.labels == sem.vertices
        assert np.max(np.abs(data.values - solved_samples(sem, 2000, 11))) < 1e-12


def test_model_without_vertices_simulates():
    data = LinearSem((), {}, {}).simulate(3, seed=0)
    assert data.labels == ()
    assert data.values.shape == (3, 0)


def test_simulate_is_deterministic_per_seed():
    a = two_cycle_sem().simulate(100, seed=7)
    b = two_cycle_sem().simulate(100, seed=7)
    c = two_cycle_sem().simulate(100, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sample_covariance_converges():
    sem = LinearSem(("A", "B"), {}, {})
    data = sem.simulate(100000, seed=2)
    sample = np.cov(data.values.T)
    assert np.max(np.abs(sample - np.eye(2))) < 0.05


def test_sample_partial_correlations_match_population():
    sem = two_cycle_sem()
    data = sem.simulate(100000, seed=3)
    cov_pop = sem.implied_covariance()
    cov_sample = np.cov(data.values.T)
    labels = sem.vertices
    for x, y, s in all_queries(labels):
        pop = partial_correlation_from_covariance(cov_pop, labels, x, y, s)
        got = partial_correlation_from_covariance(cov_sample, labels, x, y, s)
        assert got == pytest.approx(pop, abs=0.02)


def test_stability():
    assert LinearSem(("A", "B"), {}, {}).is_stable()
    assert LinearSem(("X", "Y"), {("Y", "X"): 0.9, ("X", "Y"): 0.9}, {}).is_stable()
    assert not LinearSem(("X", "Y"), {("Y", "X"): 1.1, ("X", "Y"): 1.1}, {}).is_stable()


def test_unstable_model_warns_on_simulate():
    wild = LinearSem(("X", "Y"), {("Y", "X"): 1.1, ("X", "Y"): 1.1}, {})
    with pytest.warns(UnstableModelWarning):
        wild.simulate(10, seed=0)


def test_sem_from_graph_identity():
    for g in [two_cycle_graph(), DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")})]:
        assert sem_from_graph(g, coefficient=0.4).graph() == g


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=4))
def test_sem_from_graph_identity_random(g):
    try:
        sem = sem_from_graph(g, coefficient=0.5)
    except SingularModelError:
        return
    assert sem.graph() == g


def test_sem_from_graph_callable_coefficients():
    sem = sem_from_graph(two_cycle_graph(), coefficient=lambda s, t: 0.1 if s == "A" else 0.6)
    assert sem.coefficients[("X", "A")] == 0.1
    assert sem.coefficients[("Y", "B")] == 0.6


def test_round_trip():
    sem = LinearSem(("A", "B", "X"), {("X", "A"): 0.25, ("X", "B"): -1.5}, {"A": 2.0})
    assert parse_sem(serialize_sem(sem)) == sem


@settings(deadline=None)
@given(sems())
def test_round_trip_fuzz(sem):
    text = serialize_sem(sem)
    assert parse_sem(text) == sem
    assert serialize_sem(parse_sem(text)) == text


def test_serialize_layout():
    text = serialize_sem(LinearSem(("X", "Y"), {("Y", "X"): 0.5}, {}))
    assert text.splitlines() == [
        "# ccd-kit format v1",
        "var X 1.0",
        "var Y 1.0",
        "Y <- X 0.5",
    ]


@pytest.mark.parametrize(
    "text",
    [
        "X <- 0.5",
        "X <- Y",
        "X -> Y 0.5",
        "var",
        "X <- Y 0.5\nX <- Y 0.3",
        "var X 1.0\nvar X 2.0",
        "X <- Y abc",
        "var X -1.0",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises((SemParseError, ValueError)):
        parse_sem(text)


def test_parse_singular_model_raises_its_own_error():
    with pytest.raises(SingularModelError):
        parse_sem("Y <- X 2.0\nX <- Y 0.5\n")


def test_faithful_draws_leave_connected_pairs_visible():
    g = two_cycle_graph()
    sem, _ = faithful_sem(g, random.Random(5))
    cov = sem.implied_covariance()
    for x, y, s in all_queries(g.vertices):
        rho = partial_correlation_from_covariance(cov, g.vertices, x, y, s)
        if d_connected(g, x, y, s):
            assert abs(rho) >= 0.05
        else:
            assert abs(rho) < 1e-8
