"""Equivalence-class discovery for directed graphs that may contain cycles.

The package bundles a d-separation engine that handles feedback loops, the
constraint-based search that recovers a partial ancestral graph from an
independence oracle, a linear-model simulator for generating test data, and
brute-force equivalence tooling for small graphs.
"""
from .ccd import CcdState, ConflictRecord, run_ccd
from .digraph import (
    DirectedGraph,
    GraphParseError,
    UnknownVertexError,
    parse_graph,
    random_graph,
    serialize_graph,
)
from .dsep import (
    brute_force_d_connected,
    d_connected,
    d_separated,
    witness_separator,
)
from .equiv import all_graphs, enumerate_equiv_class, fingerprint, markov_equivalent
from .oracle import (
    DataMatrix,
    FisherZOracle,
    GraphOracle,
    IndependenceOracle,
    OracleStats,
    SingularCovarianceError,
    SingularCovarianceWarning,
    fisher_z_is_independent,
    fisher_z_statistic,
    partial_correlation,
    partial_correlation_from_covariance,
    partial_correlation_recursive,
)
from .pag import (
    Mark,
    MarkConflict,
    Pag,
    PagParseError,
    parse_pag,
    serialize_pag,
    to_dot,
    verify_pag_against_graph,
)
from .sem import (
    LinearSem,
    SemParseError,
    SingularModelError,
    UnstableModelWarning,
    parse_sem,
    sem_from_graph,
    serialize_sem,
)

__version__ = "0.1.0"

__all__ = [
    "CcdState",
    "ConflictRecord",
    "DataMatrix",
    "DirectedGraph",
    "FisherZOracle",
    "GraphOracle",
    "GraphParseError",
    "IndependenceOracle",
    "LinearSem",
    "Mark",
    "MarkConflict",
    "OracleStats",
    "Pag",
    "PagParseError",
    "SemParseError",
    "SingularCovarianceError",
    "SingularCovarianceWarning",
    "SingularModelError",
    "UnknownVertexError",
    "UnstableModelWarning",
    "all_graphs",
    "brute_force_d_connected",
    "d_connected",
    "d_separated",
    "enumerate_equiv_class",
    "fingerprint",
    "fisher_z_is_independent",
    "fisher_z_statistic",
    "markov_equivalent",
    "parse_graph",
    "parse_pag",
    "parse_sem",
    "partial_correlation",
    "partial_correlation_from_covariance",
    "partial_correlation_recursive",
    "random_graph",
    "run_ccd",
    "sem_from_graph",
    "serialize_graph",
    "serialize_pag",
    "serialize_sem",
    "to_dot",
    "verify_pag_against_graph",
    "witness_separator",
]
