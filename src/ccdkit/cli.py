"""Command-line front end.

Subcommands: ``discover`` runs the search from a graph file (exact oracle)
or a CSV sample (Fisher-z oracle) and prints the resulting PAG; ``dsep``
answers one d-connection query; ``simulate`` samples a linear model to
CSV; ``equiv`` compares two graphs or enumerates an equivalence class;
``verify`` checks a PAG's claims against a graph, each in time polynomial
in the vertex count.

Exit codes: 0 success (or a positive predicate answer), 1 negative
predicate answer, 2 usage or file errors, 3 data-quality problems (bad
numeric content, singular models, conflicts under --strict). Everything
deterministic goes to stdout; timing and conflict diagnostics go to
stderr, so stdout is byte-identical across runs on identical inputs.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from .ccd import CcdState, run_ccd
from .digraph import GraphParseError, UnknownVertexError, parse_graph, serialize_graph
from .dsep import brute_force_d_connected, d_connected
from .equiv import enumerate_equiv_class, markov_equivalent
from .oracle import DataMatrix, FisherZOracle, GraphOracle
from .pag import PagParseError, parse_pag, serialize_pag, to_dot, verify_pag_against_graph
from .sem import SemParseError, SingularModelError, parse_sem

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_DATA = 3


def _render_state(state: CcdState) -> str:
    lines = ["# sepsets"]
    for (x, y), sep in sorted(state.sepset.items()):
        lines.append(f"{x} {y} =" + _render_set(sep))
    lines.append("# supsets")
    for (a, b, c), sup in sorted(state.supset.items()):
        lines.append(f"{a} {b} {c} =" + _render_set(sup))
    lines.append("# local")
    for v, members in sorted(state.local.items()):
        lines.append(f"{v} =" + _render_set(members))
    lines.append("# oracle counts")
    for phase, size, count in state.stats.rows():
        lines.append(f"{phase} {size} = {count}")
    lines.append("# conflicts")
    if state.conflicts:
        lines.extend(record.describe() for record in state.conflicts)
    else:
        lines.append("none")
    return "\n".join(lines) + "\n"


def _render_set(values) -> str:
    ordered = sorted(values)
    return " " + " ".join(ordered) if ordered else ""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _alpha(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:  # NaN fails too
        raise argparse.ArgumentTypeError("alpha must be strictly between 0 and 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccdkit",
        description="Discover the Markov-equivalence structure of directed, possibly cyclic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discover", help="run the search and print the PAG")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="FILE", help="graph file; exact oracle")
    source.add_argument("--data", metavar="FILE", help="CSV sample; Fisher-z oracle")
    p.add_argument("--alpha", type=_alpha, default=None, help="test level, only with --data (default 0.01)")
    p.add_argument("--dot", metavar="FILE", help="also write the PAG as Graphviz dot")
    p.add_argument("--dump-state", action="store_true", help="append sepsets, supsets, local sets and query counts")
    p.add_argument("--strict", action="store_true", help="exit 3 when orientation conflicts occur")
    p.set_defaults(handler=cmd_discover)

    p = sub.add_parser("dsep", help="answer one d-connection query")
    p.add_argument("--graph", metavar="FILE", required=True)
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--given", default="", help="comma-separated conditioning vertices")
    p.add_argument("--brute-force", action="store_true", help="use the path-enumeration decider")
    p.set_defaults(handler=cmd_dsep)

    p = sub.add_parser("simulate", help="sample a linear model to CSV")
    p.add_argument("--model", metavar="FILE", required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, required=True)
    p.add_argument("--out", metavar="FILE", required=True)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("equiv", help="compare two graphs or enumerate a class")
    p.add_argument("--graph", metavar="FILE", action="append", default=[], help="repeat for the comparison form")
    p.add_argument("--class", dest="enumerate_class", action="store_true", help="print every member of the class")
    p.add_argument("--max-vertices", type=_positive_int, default=4, help="guard for class enumeration (default 4)")
    p.set_defaults(handler=cmd_equiv)

    p = sub.add_parser("verify", help="check a PAG's claims against a graph")
    p.add_argument("--pag", metavar="FILE", required=True)
    p.add_argument("--graph", metavar="FILE", required=True)
    p.add_argument("--skip-edge-check", action="store_true", help="skip the per-pair inseparability check of the edges")
    p.set_defaults(handler=cmd_verify)

    return parser


def cmd_discover(args: argparse.Namespace) -> int:
    if args.graph is not None:
        if args.alpha is not None:
            print("error: --alpha requires --data", file=sys.stderr)
            return EXIT_USAGE
        oracle = GraphOracle(parse_graph(_read(args.graph)))
    else:
        data = DataMatrix.from_csv(_read(args.data))
        oracle = FisherZOracle(data, 0.01 if args.alpha is None else args.alpha)
    started = time.perf_counter()
    pag, state = run_ccd(oracle, oracle.vertices)
    elapsed = time.perf_counter() - started
    sys.stdout.write(serialize_pag(pag) + (_render_state(state) if args.dump_state else ""))
    if args.dot:
        Path(args.dot).write_text(to_dot(pag))
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    for record in state.conflicts:
        print(f"conflict: {record.describe()}", file=sys.stderr)
    if args.strict and state.conflicts:
        return EXIT_DATA
    return EXIT_OK


def cmd_dsep(args: argparse.Namespace) -> int:
    graph = parse_graph(_read(args.graph))
    given = [v for v in (part.strip() for part in args.given.split(",")) if v]
    decide = brute_force_d_connected if args.brute_force else d_connected
    connected = decide(graph, args.x, args.y, given)
    print("d-connected" if connected else "d-separated")
    return EXIT_OK if connected else EXIT_NEGATIVE


def cmd_simulate(args: argparse.Namespace) -> int:
    model = parse_sem(_read(args.model))
    data = model.simulate(args.samples, args.seed)
    Path(args.out).write_text(data.to_csv())
    return EXIT_OK


def cmd_equiv(args: argparse.Namespace) -> int:
    if args.enumerate_class:
        if len(args.graph) != 1:
            print("error: --class takes exactly one --graph", file=sys.stderr)
            return EXIT_USAGE
        g = parse_graph(_read(args.graph[0]))
        members = enumerate_equiv_class(g, max_vertices=args.max_vertices)
        sys.stdout.write("\n".join(serialize_graph(member) for member in members))
        return EXIT_OK
    if len(args.graph) != 2:
        print("error: comparison takes exactly two --graph files", file=sys.stderr)
        return EXIT_USAGE
    g1 = parse_graph(_read(args.graph[0]))
    g2 = parse_graph(_read(args.graph[1]))
    if markov_equivalent(g1, g2):
        print("equivalent")
        return EXIT_OK
    print("not equivalent")
    return EXIT_NEGATIVE


def cmd_verify(args: argparse.Namespace) -> int:
    pag = parse_pag(_read(args.pag))
    graph = parse_graph(_read(args.graph))
    violations = verify_pag_against_graph(pag, graph, check_edges=not args.skip_edge_check)
    if violations:
        for line in violations:
            print(line)
        return EXIT_NEGATIVE
    print("sound")
    return EXIT_OK


def _read(path: str) -> str:
    return Path(path).read_text()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (GraphParseError, PagParseError, SemParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownVertexError as exc:
        print(f"error: unknown vertex {exc.args[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    except (SingularModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
