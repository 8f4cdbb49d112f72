"""Linear structural equation models over directed graphs, cycles included.

A model holds one linear equation per vertex: the vertex equals a
weighted sum of the vertices with edges into it plus an independent
zero-mean Gaussian error. Writing B for the coefficient matrix (rows
index equations) and W for the diagonal of error variances, solving the
simultaneous system gives covariance (I - B)^-1 W (I - B)^-T; sampling
draws error rows and multiplies them by (I - B)^-T, inverted once per
call, in one matrix product. Nothing requires acyclicity, only that
I - B is invertible.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .digraph import FORMAT_HEADER, DirectedGraph, ParseError, _Line, _check_label, _read_lines
from .fisherz import DataMatrix

__all__ = [
    "LinearSem",
    "SemParseError",
    "UnstableModelWarning",
    "SingularModelError",
    "sem_from_graph",
    "parse_sem",
    "serialize_sem",
]


class SingularModelError(ValueError):
    """The model's simultaneous equations are not solvable."""


class UnstableModelWarning(UserWarning):
    """Sampling a model whose feedback does not settle to an equilibrium."""


class SemParseError(ParseError):
    """A model file could not be parsed."""


@dataclass(frozen=True)
class LinearSem:
    """One linear equation per vertex; absent coefficients are fixed at zero.

    ``coefficients`` maps (target, source) to the weight of source in
    target's equation, so a key (y, x) corresponds to the edge x -> y.
    Vertices mentioned only in coefficients or variances are absorbed;
    missing error variances default to 1.0. Every number must be finite.
    """

    vertices: tuple[str, ...] = ()
    coefficients: Mapping[tuple[str, str], float] = None  # type: ignore[assignment]
    error_variances: Mapping[str, float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        verts = {_check_label(v) for v in self.vertices}
        coefs: dict[tuple[str, str], float] = {}
        for (target, source), value in dict(self.coefficients or {}).items():
            _check_label(target)
            _check_label(source)
            if target == source:
                raise ValueError(f"vertex {target!r} cannot appear in its own equation")
            verts.update((target, source))
            coefs[(target, source)] = float(value)
        variances: dict[str, float] = {}
        for v, value in dict(self.error_variances or {}).items():
            _check_label(v)
            verts.add(v)
            variances[v] = float(value)
        for v in verts:
            variances.setdefault(v, 1.0)
        if not np.isfinite([*coefs.values(), *variances.values()]).all():
            raise ValueError("non-finite coefficients or error variances are not accepted")
        for v, value in variances.items():
            if not value > 0.0:
                raise ValueError(f"error variance of {v!r} must be positive, got {value}")
        object.__setattr__(self, "vertices", tuple(sorted(verts)))
        object.__setattr__(self, "coefficients", coefs)
        object.__setattr__(self, "error_variances", variances)
        self._inverse()  # solvability is a load-time check

    def b_matrix(self) -> np.ndarray:
        k = len(self.vertices)
        index = {v: i for i, v in enumerate(self.vertices)}
        b = np.zeros((k, k))
        for (target, source), value in self.coefficients.items():
            b[index[target], index[source]] = value
        return b

    def _inverse(self) -> np.ndarray:
        """(I - B)^-1 over ``vertices`` order."""
        k = len(self.vertices)
        if k == 0:
            return np.zeros((0, 0))
        try:
            return np.linalg.solve(np.eye(k) - self.b_matrix(), np.eye(k))
        except np.linalg.LinAlgError as exc:
            raise SingularModelError("the equation system is singular") from exc

    def graph(self) -> DirectedGraph:
        """The directed graph with one edge per present coefficient."""
        return DirectedGraph(
            self.vertices,
            frozenset((source, target) for (target, source) in self.coefficients),
        )

    def implied_covariance(self) -> np.ndarray:
        """Population covariance over ``vertices`` order."""
        inv = self._inverse()
        noise = np.diag([self.error_variances[v] for v in self.vertices])
        return inv @ noise @ inv.T

    def simulate(self, n_samples: int, seed: int) -> DataMatrix:
        """Draw rows of independent errors and multiply them by (I - B)^-T.

        Each output row x then solves x = B x + e for its error row e.
        Solvability is the hard requirement; an unstable model (spectral
        radius of B at or above one) still samples but only describes an
        equilibrium that no dynamic process reaches, so it warns.
        """
        if n_samples < 1:
            raise ValueError("need at least one sample")
        if not self.is_stable():
            warnings.warn(
                "model is unstable: its feedback has no settling equilibrium",
                UnstableModelWarning,
                stacklevel=2,
            )
        rng = np.random.default_rng(seed)
        scale = np.sqrt([self.error_variances[v] for v in self.vertices])
        errors = rng.standard_normal((n_samples, len(self.vertices)))
        errors *= scale
        return DataMatrix(self.vertices, errors @ self._inverse().T)

    def is_stable(self) -> bool:
        """Spectral radius of the coefficient matrix strictly below one."""
        if not self.vertices:
            return True
        return bool(np.max(np.abs(np.linalg.eigvals(self.b_matrix()))) < 1.0)


def sem_from_graph(
    graph: DirectedGraph,
    coefficient: float | Callable[[str, str], float] = 0.5,
    error_variance: float = 1.0,
) -> LinearSem:
    """Build a model whose graph is exactly ``graph``.

    ``coefficient`` is a constant or a callable giving the weight for each
    edge (source, target); edges are visited in sorted order so seeded
    callables reproduce the same model.
    """
    coefs = {}
    for source, target in sorted(graph.edges):
        value = coefficient(source, target) if callable(coefficient) else float(coefficient)
        coefs[(target, source)] = value
    return LinearSem(
        graph.vertices, coefs, {v: float(error_variance) for v in graph.vertices}
    )


def parse_sem(text: str) -> LinearSem:
    """Parse the line-based model format.

    Lines are comments, ``var LABEL VALUE`` variance declarations, or
    ``Y <- X VALUE`` coefficient lines meaning X enters Y's equation with
    that weight. Labels declare themselves on first mention. A second
    variance or coefficient line for the same label or pair is an error.
    """
    coefs: dict[tuple[str, str], float] = {}
    variances: dict[str, float] = {}
    for line in _read_lines(text, SemParseError):
        tokens = line.tokens
        if len(tokens) == 3 and tokens[0] == "var":
            label = line.label(tokens[1])
            if label in variances:
                raise line.error(f"duplicate variance for {label}")
            variances[label] = _sem_number(line, tokens[2])
        elif len(tokens) == 4 and tokens[1] == "<-":
            target, source = line.label(tokens[0]), line.label(tokens[2])
            if target == source:
                raise line.error(f"{target!r} cannot depend on itself")
            if (target, source) in coefs:
                raise line.error(f"duplicate coefficient for {source} -> {target}")
            coefs[(target, source)] = _sem_number(line, tokens[3])
        else:
            raise line.error(f"cannot parse {line.raw!r}")
    try:
        return LinearSem((), coefs, variances)
    except SingularModelError:
        raise
    except ValueError as exc:
        raise SemParseError(str(exc)) from None


def _sem_number(line: _Line, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise line.error(f"{token!r} is not a number") from None
    if not np.isfinite(value):
        raise line.error(f"{token!r} is not a finite number")
    return value


def serialize_sem(model: LinearSem) -> str:
    """Render a model in the line-based format; inverse of parse_sem."""
    lines = [FORMAT_HEADER]
    lines.extend(f"var {v} {model.error_variances[v]!r}" for v in model.vertices)
    lines.extend(
        f"{target} <- {source} {value!r}"
        for (target, source), value in sorted(model.coefficients.items())
    )
    return "\n".join(lines) + "\n"
