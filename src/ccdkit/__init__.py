"""Equivalence-class discovery for directed graphs that may contain cycles.

The package bundles a d-separation engine that handles feedback loops, the
constraint-based search that recovers a partial ancestral graph from an
independence oracle, a linear-model simulator for generating test data, and
Markov-equivalence tooling: two graphs are compared by their PAGs, and a
class is enumerated by brute force over its input's adjacent pairs.

The exact path (graphs, d-separation, the exact oracle, the search, PAGs
and equivalence) imports no numpy. The names of ``fisherz`` (the Fisher-z
oracle and partial correlations) and ``sem`` (linear models) are listed
in ``__all__`` but load, numpy with them, on first access.
"""
from importlib import import_module

from .ccd import CcdState, ConflictRecord, pag_of_graph, run_ccd
from .digraph import (
    DirectedGraph,
    GraphParseError,
    UnknownVertexError,
    parse_graph,
    random_graph,
    serialize_graph,
)
from .dsep import brute_force_d_connected, d_connected, d_separated
from .equiv import all_graphs, enumerate_equiv_class, fingerprint, markov_equivalent
from .oracle import GraphOracle, IndependenceOracle, OracleStats
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

# The numpy-backed names and their modules; a module loads on first access
# to one of its names, so the exact path starts without numpy.
_LAZY = {
    "DataMatrix": "fisherz",
    "FisherZOracle": "fisherz",
    "SingularCovarianceError": "fisherz",
    "SingularCovarianceWarning": "fisherz",
    "fisher_z_statistic": "fisherz",
    "partial_correlation": "fisherz",
    "partial_correlation_from_covariance": "fisherz",
    "partial_correlation_recursive": "fisherz",
    "LinearSem": "sem",
    "SemParseError": "sem",
    "SingularModelError": "sem",
    "UnstableModelWarning": "sem",
    "parse_sem": "sem",
    "sem_from_graph": "sem",
    "serialize_sem": "sem",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


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
    "fisher_z_statistic",
    "markov_equivalent",
    "pag_of_graph",
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
]
