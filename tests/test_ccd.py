import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdkit import (
    DirectedGraph,
    GraphOracle,
    IndependenceOracle,
    Mark,
    UnknownVertexError,
    d_connected,
    run_ccd,
    serialize_pag,
    verify_pag_against_graph,
)
from ccdkit.ccd import CcdState, phase_a, phase_b, phase_c, phase_d, phase_e, phase_f
from ccdkit.digraph import _bits

from helpers import (
    LETTERS,
    NoisyOracle,
    ScriptedOracle,
    graphs,
    ordered_pairs,
    reference_phase_a,
    reference_phase_c,
    reference_phase_d,
    reference_phase_e,
    reference_phase_f,
    relabel_pag,
    scrambled_state,
)


def run_on(graph):
    oracle = GraphOracle(graph)
    return run_ccd(oracle, oracle.vertices)


def test_two_cycle_final_pag(two_cycle, golden):
    pag, state = run_on(two_cycle)
    assert serialize_pag(pag) == golden("two_cycle.pag")
    assert not state.conflicts


def test_two_cycle_sepset(two_cycle):
    _, state = run_on(two_cycle)
    assert state.sepset == {("A", "B"): frozenset()}
    assert state.sepset_of("B", "A") == frozenset()


def test_two_cycle_supsets_include_middle(two_cycle):
    _, state = run_on(two_cycle)
    assert state.supset == {
        ("A", "X", "B"): frozenset({"X", "Y"}),
        ("A", "Y", "B"): frozenset({"X", "Y"}),
    }
    assert state.supset_of("B", "X", "A") == frozenset({"X", "Y"})
    assert "X" in state.supset_of("A", "X", "B")


def test_two_cycle_local_sets(two_cycle):
    # B enters A's local set only through the arrow colliders at X and Y
    _, state = run_on(two_cycle)
    assert state.local == {
        "A": ("B", "X", "Y"),
        "B": ("A", "X", "Y"),
        "X": ("A", "B", "Y"),
        "Y": ("A", "B", "X"),
    }


def test_two_cycle_query_counts(two_cycle):
    # adjacency search: 6 pairs at size 0, 10 at size 1, 5 at size 2;
    # supset search: 2 at size 1, 1 at size 2; no other phase asks anything
    _, state = run_on(two_cycle)
    assert state.stats.rows() == [
        ("A", 0, 6),
        ("A", 1, 10),
        ("A", 2, 5),
        ("D", 1, 2),
        ("D", 2, 1),
    ]


def test_two_isolated_vertices():
    pag, state = run_on(DirectedGraph(("A", "B"), set()))
    assert pag.adjacent("A") == ()
    assert state.sepset == {("A", "B"): frozenset()}
    assert state.stats.rows() == [("A", 0, 1)]


def test_single_edge_stays_circle():
    pag, _ = run_on(DirectedGraph(("A", "B"), {("A", "B")}))
    assert pag.has_edge("A", "B")
    assert pag.mark_at("A", "B") is Mark.CIRCLE
    assert pag.mark_at("B", "A") is Mark.CIRCLE


def test_chain_keeps_circles_and_underline():
    pag, state = run_on(DirectedGraph(("A", "B", "C"), {("A", "B"), ("B", "C")}))
    assert not pag.has_edge("A", "C")
    assert pag.underlines == {("A", "B", "C")}
    assert pag.mark_at("B", "A") is Mark.CIRCLE
    assert state.sepset_of("A", "C") == frozenset({"B"})


def test_collider_is_oriented():
    pag, _ = run_on(DirectedGraph(("A", "B", "C"), {("A", "B"), ("C", "B")}))
    assert pag.mark_at("B", "A") is Mark.ARROW
    assert pag.mark_at("A", "B") is Mark.TAIL
    assert pag.mark_at("B", "C") is Mark.ARROW
    assert pag.mark_at("C", "B") is Mark.TAIL
    assert pag.underlines == frozenset()


def test_far_vertex_orients_collider_edge():
    # A is adjacent to neither X nor Y; A and Y stay dependent given
    # the sepset of {A, X}, which orients Y *-> on the X-Y edge
    g = DirectedGraph(("A", "W", "X", "Y"), {("A", "W"), ("W", "Y"), ("X", "Y")})
    pag, state = run_on(g)
    assert pag.mark_at("Y", "X") is Mark.ARROW
    assert pag.mark_at("X", "Y") is Mark.TAIL
    assert pag.mark_at("W", "A") is Mark.CIRCLE
    assert pag.underlines == {("A", "W", "Y")}
    assert state.stats.for_phase("C") == 1


def test_two_cycle_cycle_edge_is_tail_tail(two_cycle):
    pag, _ = run_on(two_cycle)
    assert pag.mark_at("X", "Y") is Mark.TAIL
    assert pag.mark_at("Y", "X") is Mark.TAIL
    assert pag.dotted_underlines == {("A", "X", "B"), ("A", "Y", "B")}


def test_conflicting_answers_are_recorded_not_fatal():
    # the scripted answers force the adjacency phase to keep edge A-B,
    # orient it as a collider at B, then contradict both marks later
    oracle = ScriptedOracle(
        ("A", "B", "C", "D"),
        [
            (("A", "C"), ()),
            (("A", "D"), ()),
            (("B", "D"), ("C",)),
        ],
    )
    pag, state = run_ccd(oracle, oracle.vertices)
    assert len(state.conflicts) == 2
    phases = {record.phase for record in state.conflicts}
    assert phases == {"C"}
    # first write wins: the collider marks from the triple phase stand
    assert pag.mark_at("A", "B") is Mark.TAIL
    assert pag.mark_at("B", "A") is Mark.ARROW
    descriptions = [record.describe() for record in state.conflicts]
    assert any("already tail" in d for d in descriptions)
    assert any("already arrow" in d for d in descriptions)


def test_exact_oracle_never_conflicts():
    for edges in [
        set(),
        {("A", "B")},
        {("A", "B"), ("B", "C"), ("C", "A")},
        {("A", "B"), ("C", "B"), ("B", "D")},
    ]:
        _, state = run_on(DirectedGraph(("A", "B", "C", "D"), edges))
        assert state.conflicts == []


def test_initial_state_is_complete_graph():
    state = CcdState.initial(("A", "B", "C"))
    assert state.psi.adjacent("A") == ("B", "C")
    assert state.sepset == {}
    assert state.supset == {}


def test_runs_are_deterministic(two_cycle):
    first_pag, first_state = run_on(two_cycle)
    second_pag, second_state = run_on(two_cycle)
    assert serialize_pag(first_pag) == serialize_pag(second_pag)
    assert first_state.sepset == second_state.sepset
    assert first_state.supset == second_state.supset
    assert first_state.stats.rows() == second_state.stats.rows()


def test_orientation_phases_are_idempotent(two_cycle):
    oracle = GraphOracle(two_cycle)
    pag, state = run_ccd(oracle, oracle.vertices)
    before = serialize_pag(pag)
    phase_b(state)
    phase_e(state)
    assert serialize_pag(state.psi) == before
    assert not state.conflicts


def test_adjacency_phase_alone_recovers_skeleton(two_cycle):
    oracle = GraphOracle(two_cycle)
    state = CcdState.initial(oracle.vertices, oracle.stats)
    phase_a(state, oracle)
    assert state.psi.adjacent("A") == ("X", "Y")
    assert state.psi.adjacent("X") == ("A", "B", "Y")
    assert ("A", "B") in state.sepset


def test_unknown_vertex_propagates_from_oracle(two_cycle):
    # the least unknown label is named, before any query is asked
    for vertices in (("A", "B", "Q"), ("A", "R", "Q")):
        oracle = GraphOracle(two_cycle)
        with pytest.raises(UnknownVertexError) as err:
            run_ccd(oracle, vertices)
        assert err.value.args[0] == "Q"
        assert oracle.stats.total() == 0


def test_state_lookups_reject_unknown_labels(two_cycle):
    _, state = run_on(two_cycle)
    assert state.sepset_of("A", "X") is None  # adjacent, so no separator
    assert state.supset_of("A", "B", "X") is None  # not a dotted triple
    for lookup in (lambda: state.sepset_of("A", "Q"), lambda: state.supset_of("Q", "X", "B")):
        with pytest.raises(UnknownVertexError) as err:
            lookup()
        assert err.value.args[0] == "Q"


@settings(max_examples=60, deadline=None)
@given(graphs(max_vertices=5))
def test_output_is_sound_for_its_graph(g):
    pag, state = run_on(g)
    assert state.conflicts == []
    assert verify_pag_against_graph(pag, g) == []


def run_phases(g, seed, run_a, run_c, run_e, run_f):
    oracle = NoisyOracle(g, seed)
    state = CcdState.initial(oracle.vertices, oracle.stats)
    try:
        run_a(state, oracle)
        phase_b(state)
        run_c(state, oracle)
        phase_d(state, oracle)
        run_e(state)
        run_f(state, oracle)
        error = None
    except ValueError as exc:  # noisy answers can still make phase D abort
        error = str(exc)
    return oracle.calls, state, error


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=7), st.integers(min_value=0, max_value=2**32 - 1))
def test_phases_keep_the_query_and_write_order_of_tuple_scans(g, seed):
    calls, state, error = run_phases(g, seed, phase_a, phase_c, phase_e, phase_f)
    ref_calls, ref, ref_error = run_phases(
        g, seed, reference_phase_a, reference_phase_c, reference_phase_e, reference_phase_f
    )
    assert calls == ref_calls
    assert state.psi == ref.psi
    assert state.sepset == ref.sepset
    assert state.supset == ref.supset
    assert state.conflicts == ref.conflicts
    assert state.stats.rows() == ref.stats.rows()
    assert error == ref_error


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=7), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_phase_d_keeps_the_query_order_of_the_triple_scan(g, seed, noisy):
    # noisy answers make phase D meet underlined colliders, and abort
    outcomes = []
    for run_d in (phase_d, reference_phase_d):
        oracle = NoisyOracle(g, seed) if noisy else GraphOracle(g)
        state = CcdState.initial(oracle.vertices, oracle.stats)
        phase_a(state, oracle)
        phase_b(state)
        phase_c(state, oracle)
        try:
            run_d(state, oracle)
            error = None
        except ValueError as exc:
            error = str(exc)
        outcomes.append((
            getattr(oracle, "calls", None),
            state.psi.dotted_underlines,
            state.supset,
            state.local,
            state.stats.rows(),
            error,
        ))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_orientation_phases_keep_the_order_of_tuple_scans_on_any_state(n, seed):
    # phases C, E and F from a random mid-search state, with coin-flip
    # answers: many dotted triples, candidates and conflicts per run
    g = DirectedGraph(tuple(LETTERS[:n]), ())
    outcomes = []
    for run_c, run_e, run_f in (
        (phase_c, phase_e, phase_f),
        (reference_phase_c, reference_phase_e, reference_phase_f),
    ):
        state = scrambled_state(g.vertices, seed)
        oracle = NoisyOracle(g, seed, flip=0.5)
        run_c(state, oracle)
        run_e(state)
        run_f(state, oracle)
        outcomes.append((oracle.calls, state.psi, state.conflicts, state.stats.rows()))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=7), st.randoms(use_true_random=False))
def test_relabelled_graph_gives_relabelled_pag(n, rng):
    labels = tuple(LETTERS[:n])
    density = rng.uniform(0.1, 0.5)
    g = DirectedGraph(labels, {e for e in ordered_pairs(labels) if rng.random() < density})
    shuffled = list(labels)
    rng.shuffle(shuffled)
    mapping = dict(zip(labels, shuffled))
    relabelled = DirectedGraph(labels, {(mapping[a], mapping[b]) for a, b in g.edges})
    pag, _ = run_on(g)
    assert run_on(relabelled)[0] == relabel_pag(pag, mapping)


class DecideOnlyNoisyOracle(NoisyOracle):
    """NoisyOracle's answers with the base ``is_independent``: only
    ``_decide`` differs from GraphOracle, so the phases ask through ``_ask``."""

    is_independent = IndependenceOracle.is_independent


class LabelOnly:
    """A duck-typed wrapper that offers only the label interface."""

    def __init__(self, inner):
        self.inner = inner
        self.vertices = inner.vertices
        self.stats = inner.stats
        self.calls = []

    def phase(self, label):
        return self.inner.phase(label)

    def is_independent(self, x, y, s=()):
        s = tuple(s)
        self.calls.append((x, y, frozenset(s)))
        return self.inner.is_independent(x, y, s)


def search_outcome(oracle, vertices):
    try:
        pag, state = run_ccd(oracle, vertices)
        error = None
    except ValueError as exc:  # noisy answers can make phase D abort
        pag, state, error = None, None, str(exc)
    if state is None:
        return error, None
    return error, (
        serialize_pag(pag),
        state.sepset,
        state.supset,
        state.local,
        state.conflicts,
        state.stats.rows(),
    )


@settings(max_examples=100, deadline=None)
@given(graphs(max_vertices=7), st.integers(min_value=0, max_value=2**32 - 1))
def test_ask_route_and_label_route_give_the_same_run(g, seed):
    direct = DecideOnlyNoisyOracle(g, seed)
    asked = []
    ask = direct._ask
    direct._ask = lambda i, j, zmask: asked.append((i, j, zmask)) or ask(i, j, zmask)
    wrapped = LabelOnly(DecideOnlyNoisyOracle(g, seed))
    assert search_outcome(direct, direct.vertices) == search_outcome(wrapped, wrapped.vertices)
    index = {v: i for i, v in enumerate(g.vertices)}
    assert asked == [
        (index[x], index[y], sum(1 << index[v] for v in s)) for x, y, s in wrapped.calls
    ]
    assert direct.calls == []  # the ask route bypasses is_independent


class MarginalOracle(IndependenceOracle):
    """d-separation in a graph, over a subset of its vertices only."""

    def __init__(self, graph, vertices):
        super().__init__(vertices)
        self.graph = graph

    def _decide(self, i, j, zmask):
        v = self.vertices
        return not d_connected(self.graph, v[i], v[j], [v[k] for k in _bits(zmask)])


@settings(max_examples=100, deadline=None)
@given(graphs(min_vertices=3, max_vertices=7), st.data())
def test_search_over_a_vertex_subset_matches_the_reference_phases(g, data):
    # leaving a latent vertex out shifts every later PAG id against the
    # oracle's indices; the reference phases ask by labels over an oracle
    # that knows only the observed vertices
    latent = data.draw(st.sampled_from(g.vertices))
    observed = [v for v in g.vertices if v != latent]
    pag, state = run_ccd(GraphOracle(g), observed)
    oracle = MarginalOracle(g, observed)
    ref = CcdState.initial(observed, oracle.stats)
    reference_phase_a(ref, oracle)
    phase_b(ref)
    reference_phase_c(ref, oracle)
    phase_d(ref, oracle)
    reference_phase_e(ref)
    reference_phase_f(ref, oracle)
    assert pag == ref.psi
    assert (state.sepset, state.supset, state.local) == (ref.sepset, ref.supset, ref.local)
    assert state.conflicts == ref.conflicts
    assert state.stats.rows() == ref.stats.rows()
