import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ccdkit import (
    DataMatrix,
    FisherZOracle,
    GraphOracle,
    Mark,
    SingularCovarianceWarning,
    parse_graph,
    parse_pag,
    random_graph,
    serialize_graph,
    serialize_pag,
)
from ccdkit.ccd import ConflictRecord
import ccdkit.cli as cli

from conftest import GOLDEN

TWO_CYCLE = str(GOLDEN / "two_cycle.graph")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_g16(tmp_path):
    """The 16-vertex graph of the hash-seed test, written as a graph file."""
    labels = [f"V{k:02d}" for k in range(16)]
    graph = tmp_path / "g16.graph"
    graph.write_text(serialize_graph(random_graph(labels, 0.12, random.Random(1608))))
    return graph


def test_discover_prints_golden_pag(capsys, golden):
    code, out, err = run_cli(capsys, "discover", "--graph", TWO_CYCLE)
    assert code == 0
    assert out == golden("two_cycle.pag")
    assert "elapsed:" in err


def test_discover_dump_state_golden(capsys, golden):
    code, out, _ = run_cli(capsys, "discover", "--graph", TWO_CYCLE, "--dump-state")
    assert code == 0
    assert out == golden("two_cycle_dump.txt")


def test_discover_stdout_is_reproducible(capsys):
    _, first, _ = run_cli(capsys, "discover", "--graph", TWO_CYCLE, "--dump-state")
    _, second, _ = run_cli(capsys, "discover", "--graph", TWO_CYCLE, "--dump-state")
    assert first == second


def test_discover_stdout_does_not_depend_on_the_hash_seed(tmp_path, golden):
    # 16 vertices, so one phase A or D call asks many sets of one size
    graph = write_g16(tmp_path)
    outputs = []
    for hash_seed in ("0", "12345"):
        result = subprocess.run(
            [sys.executable, "-m", "ccdkit", "discover", "--graph", str(graph), "--dump-state"],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert result.returncode == 0
        outputs.append(result.stdout.decode())
    assert outputs == [golden("g16_dump.txt")] * 2


def test_discover_writes_dot(capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, _, _ = run_cli(capsys, "discover", "--graph", TWO_CYCLE, "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph pag {")
    assert "arrowhead=normal" in text


def test_discover_dot_into_a_missing_directory_is_usage_error(capsys, tmp_path):
    dot = tmp_path / "missing" / "out.dot"
    code, out, err = run_cli(capsys, "discover", "--graph", TWO_CYCLE, "--dot", str(dot))
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]


def test_discover_alpha_requires_data(capsys):
    code, _, err = run_cli(capsys, "discover", "--graph", TWO_CYCLE, "--alpha", "0.05")
    assert code == 2
    assert "--alpha" in err


# at 1e-17 and 2**-53, 1 - alpha/2 rounds to 1.0
@pytest.mark.parametrize("alpha", ["0", "1.5", "nan", "-0.1", "1e-17", "1.1102230246251565e-16"])
def test_discover_alpha_outside_the_unit_interval_is_usage_error(capsys, tmp_path, alpha):
    csv = tmp_path / "d.csv"
    csv.write_text("A,B\n1.0,2.0\n2.0,1.0\n3.0,5.0\n")
    code, out, err = run_cli(capsys, "discover", "--data", str(csv), "--alpha", alpha)
    assert (code, out) == (2, "")
    assert "alpha must be strictly between 0 and 1" in err


def test_discover_accepts_the_smallest_alphas_the_library_builds(capsys, tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("A,B\n1.0,2.0\n2.0,1.0\n3.0,5.0\n4.0,3.0\n")
    for alpha in ("1.1102230246251568e-16", "2.3e-16"):
        code, out, _ = run_cli(capsys, "discover", "--data", str(csv), "--alpha", alpha)
        assert code == 0
        assert out.startswith("# ccd-kit format")


def test_discover_graph_and_data_mutually_exclusive(capsys, tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("A,B\n1.0,2.0\n")
    code, _, _ = run_cli(capsys, "discover", "--graph", TWO_CYCLE, "--data", str(csv))
    assert code == 2


def test_discover_from_data_matches_oracle_mode(capsys, tmp_path, golden):
    model = tmp_path / "m.sem"
    model.write_text(
        "X <- A 0.5\nY <- B 0.5\nY <- X 0.5\nX <- Y 0.5\n"
        "var A 1.0\nvar B 1.0\nvar X 1.0\nvar Y 1.0\n"
    )
    csv = tmp_path / "m.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--model", str(model), "--samples", "20000",
        "--seed", "3", "--out", str(csv),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "discover", "--data", str(csv), "--alpha", "0.01")
    assert code == 0
    assert out == golden("two_cycle.pag")


def test_discover_data_dump_state_with_conflicts_golden(capsys, tmp_path, golden):
    # perfbench's fisherz CLI model: random_graph(V00..V07, .25, Random(800)),
    # every coefficient 0.4; its sample contradicts itself in phase B
    csv = tmp_path / "fisherz8.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--model", str(GOLDEN / "fisherz8.sem"), "--samples", "20000",
        "--seed", "0", "--out", str(csv),
    )
    assert code == 0
    code, out, err = run_cli(capsys, "discover", "--data", str(csv), "--alpha", "0.01", "--dump-state")
    assert code == 0
    assert out == golden("fisherz8_dump.txt")
    conflicts = [line for line in err.splitlines() if line.startswith("conflict: ")]
    assert len(conflicts) == 4 and all(line.startswith("conflict: phase B: ") for line in conflicts)


def test_discover_strict_exits_3_on_conflicts(capsys, monkeypatch):
    real = cli.run_ccd

    def with_conflict(oracle, vertices):
        pag, state = real(oracle, vertices)
        state.conflicts.append(
            ConflictRecord("C", "A", "X", Mark.TAIL, Mark.ARROW)
        )
        return pag, state

    monkeypatch.setattr(cli, "run_ccd", with_conflict)
    code, out, err = run_cli(capsys, "discover", "--graph", TWO_CYCLE, "--strict")
    assert code == 3
    assert "conflict:" in err
    assert "conflict" not in out
    code, _, _ = run_cli(capsys, "discover", "--graph", TWO_CYCLE)
    assert code == 0  # without --strict the same run only reports
    code, out, _ = run_cli(capsys, "discover", "--graph", TWO_CYCLE, "--dump-state", "--strict")
    assert code == 3
    section = out.split("# conflicts\n")[1].splitlines()
    assert section == [ConflictRecord("C", "A", "X", Mark.TAIL, Mark.ARROW).describe()]


def test_discover_folds_query_warnings_into_one_line_per_reason(capsys, tmp_path, monkeypatch):
    # one row is too few for every query: the 1,792 phase-A queries each
    # printed a two-line warning; the line reads the oracle's counts, so
    # the caller's warning filters change nothing, and other warnings
    # still show as they are
    labels = [f"C{k}" for k in range(8)]
    csv = tmp_path / "one.csv"
    csv.write_text(",".join(labels) + "\n" + ",".join(str(float(k)) for k in range(8)) + "\n")
    outputs = set()
    for flags in ([], ["-W", "error"], ["-W", "ignore"]):
        result = subprocess.run(
            [sys.executable, *flags, "-m", "ccdkit", "discover", "--data", str(csv), "--dump-state"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, (flags, result.stderr)
        assert result.stderr.splitlines()[:-1] == [
            "SingularCovarianceWarning: 1792 queries: need n_rows - |s| - 3 >= 1; "
            "treating as dependent; first query (C0, C1 | [])"
        ]
        assert result.stderr.splitlines()[-1].startswith("elapsed: ")
        outputs.add(result.stdout)
    assert outputs == {result.stdout}
    real = cli.run_ccd

    def also_warns(oracle, vertices):
        warnings.warn("unrelated", UserWarning)
        return real(oracle, vertices)

    monkeypatch.setattr(cli, "run_ccd", also_warns)
    with pytest.warns(UserWarning) as caught:
        code, out, _ = run_cli(capsys, "discover", "--data", str(csv), "--dump-state")
    assert (code, out) == (0, result.stdout)
    assert [(w.category, str(w.message), w.filename) for w in caught] == [
        (UserWarning, "unrelated", __file__)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SingularCovarianceWarning)
        pag, state = real(FisherZOracle(DataMatrix.from_csv(csv.read_text())), labels)
    assert out == serialize_pag(pag) + cli._render_state(state)


def test_covariance_overflow_is_reported_only_as_degenerate_queries(tmp_path):
    # two cells of 1e308 overflow the covariance to inf and nan; the
    # queries on them are folded into the degenerate report, and numpy's
    # own overflow warnings do not reach the caller
    values = np.random.default_rng(0).standard_normal((200, 4))
    values[5, 1] = values[17, 1] = 1e308
    csv = tmp_path / "overflow.csv"
    csv.write_text("A,B,C,D\n" + "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        FisherZOracle(DataMatrix.from_csv(csv.read_text()))
    result = subprocess.run(
        [sys.executable, "-m", "ccdkit", "discover", "--data", str(csv), "--dump-state"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr
    lines = result.stderr.splitlines()
    assert lines[:-1] and all(line.startswith("SingularCovarianceWarning: ") for line in lines[:-1])
    assert lines[-1].startswith("elapsed: ")


@pytest.mark.parametrize(
    "text, message",
    [
        ("A,B\n", "CSV needs a header row and at least one data row"),
        ("A,B\n1.0,x\n", "CSV line 2 has a non-numeric or missing cell"),
        ("A,B\n1,2\n\n3\n", "CSV line 4 has 1 cells, expected 2"),
        ("A,B\n1,2\n\nx,3\n", "CSV line 4 has a non-numeric or missing cell"),
        ("A,B\n" + "1" * 200_000 + ",2\n", "CSV line 2: field larger than field limit (131072)"),
    ],
    ids=["header-only", "non-numeric-cell", "ragged-row-after-blank", "non-numeric-after-blank",
         "cell-past-field-limit"],
)
def test_discover_bad_csv_content_is_data_error(capsys, tmp_path, text, message):
    # an error names the file line, blank lines counted
    csv = tmp_path / "d.csv"
    csv.write_text(text)
    code, out, err = run_cli(capsys, "discover", "--data", str(csv))
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


def test_discover_drops_a_byte_order_mark(capsys, tmp_path):
    rows = np.random.default_rng(4).standard_normal((50, 2)).tolist()
    text = "\ufeffA,B\r\n" + "".join(f"{x!r},{y!r}\r\n" for x, y in rows)
    csv = tmp_path / "bom.csv"
    csv.write_bytes(text.encode("utf-8"))
    assert csv.read_bytes().startswith(b"\xef\xbb\xbfA,B\r\n")
    assert DataMatrix.from_csv(text).labels == ("A", "B")
    code, out, _ = run_cli(capsys, "discover", "--data", str(csv))
    assert code == 0
    assert out.splitlines()[1:3] == ["vertex A", "vertex B"]


def test_dsep_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "dsep", "--graph", TWO_CYCLE, "A", "B", "--given", "X")
    assert (code, out.strip()) == (0, "d-connected")
    code, out, _ = run_cli(capsys, "dsep", "--graph", TWO_CYCLE, "A", "B", "--given", "X,Y")
    assert (code, out.strip()) == (1, "d-separated")


def test_dsep_brute_force_flags(capsys):
    code, _, _ = run_cli(
        capsys, "dsep", "--graph", TWO_CYCLE, "A", "B", "--given", "X,Y", "--brute-force"
    )
    assert code == 1


def test_dsep_agrees_with_the_brute_force_decider_on_the_16_vertex_graph(capsys, tmp_path):
    graph = write_g16(tmp_path)
    g = parse_graph(graph.read_text())
    rng = random.Random(16)
    answers = set()
    for _ in range(20):
        x, y, *rest = rng.sample(g.vertices, len(g.vertices))
        given = ",".join(sorted(v for v in rest if rng.random() < 0.25)) or ","
        query = ("dsep", "--graph", str(graph), x, y, "--given", given)
        fast = run_cli(capsys, *query)
        assert fast == run_cli(capsys, *query, "--brute-force")
        answers.add(fast[:2])
    assert answers == {(0, "d-connected\n"), (1, "d-separated\n")}


def test_dsep_unknown_vertex_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "dsep", "--graph", TWO_CYCLE, "A", "Q")
    assert code == 2
    assert "unknown vertex" in err


@pytest.mark.parametrize("query", [["A", "A"], ["A", "X", "--given", "A"]], ids=["same", "given"])
def test_dsep_overlapping_vertices_are_usage_error(capsys, query):
    code, out, err = run_cli(capsys, "dsep", "--graph", TWO_CYCLE, *query)
    assert (code, out) == (2, "")
    assert err == "error: x, y and z must be pairwise disjoint\n"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "dsep", "--graph", "/nonexistent.graph", "A", "B")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["discover", "--graph", "{bad}"],
        ["discover", "--data", "{bad}"],
        ["dsep", "--graph", "{bad}", "A", "B"],
        ["verify", "--pag", "{bad}", "--graph", TWO_CYCLE],
        ["simulate", "--model", "{bad}", "--samples", "5", "--seed", "0", "--out", "{out}"],
        ["equiv", "--class", "--graph", "{bad}"],
    ],
    ids=["discover-graph", "discover-data", "dsep", "verify-pag", "simulate-model", "equiv-class"],
)
def test_input_file_that_is_not_utf8_is_usage_error(capsys, tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    argv = [arg.replace("{bad}", str(bad)).replace("{out}", str(tmp_path / "out.csv")) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert str(bad) in err


def test_malformed_graph_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("A -> \n")
    code, _, err = run_cli(capsys, "dsep", "--graph", str(bad), "A", "B")
    assert code == 2


def test_simulate_writes_loadable_csv(capsys, tmp_path):
    model = tmp_path / "m.sem"
    model.write_text("B <- A 0.5\n")
    out = tmp_path / "out.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--model", str(model), "--samples", "50",
        "--seed", "1", "--out", str(out),
    )
    assert code == 0
    data = DataMatrix.from_csv(out.read_text())
    assert data.labels == ("A", "B")
    assert data.n_rows == 50


def test_simulate_deterministic_per_seed(capsys, tmp_path):
    model = tmp_path / "m.sem"
    model.write_text("B <- A 0.5\n")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        run_cli(
            capsys, "simulate", "--model", str(model), "--samples", "20",
            "--seed", "9", "--out", str(out),
        )
    assert first.read_text() == second.read_text()


def test_simulate_rejects_nonpositive_samples(capsys, tmp_path):
    model = tmp_path / "m.sem"
    model.write_text("B <- A 0.5\n")
    code, _, _ = run_cli(
        capsys, "simulate", "--model", str(model), "--samples", "0",
        "--seed", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_simulate_rejects_a_negative_seed(capsys, tmp_path):
    model = tmp_path / "m.sem"
    model.write_text("B <- A 0.5\n")
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--model", str(model), "--samples", "10",
        "--seed", "-1", "--out", str(out),
    )
    assert code == 2
    assert "must be a non-negative integer" in err
    assert not out.exists()


def test_simulate_duplicate_variance_is_usage_error(capsys, tmp_path):
    model = tmp_path / "m.sem"
    model.write_text("var A 1.0\nvar A 2.0\nB <- A 0.5\n")
    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--model", str(model), "--samples", "10",
        "--seed", "1", "--out", str(out),
    )
    assert code == 2
    assert "line 2: duplicate variance for A" in err
    assert not out.exists()


def test_simulate_singular_model_is_data_error(capsys, tmp_path):
    model = tmp_path / "m.sem"
    model.write_text("Y <- X 2.0\nX <- Y 0.5\n")
    code, _, err = run_cli(
        capsys, "simulate", "--model", str(model), "--samples", "10",
        "--seed", "1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 3
    assert "singular" in err


def test_equiv_compare(capsys, tmp_path):
    mirror = tmp_path / "mirror.graph"
    mirror.write_text("A -> Y\nB -> X\nX -> Y\nY -> X\n")
    code, out, _ = run_cli(capsys, "equiv", "--graph", TWO_CYCLE, "--graph", str(mirror))
    assert (code, out.strip()) == (0, "equivalent")
    chain = tmp_path / "chain.graph"
    chain.write_text("A -> B\nB -> X\nX -> Y\n")
    code, out, _ = run_cli(capsys, "equiv", "--graph", TWO_CYCLE, "--graph", str(chain))
    assert (code, out.strip()) == (1, "not equivalent")


def test_equiv_requires_two_graphs(capsys):
    code, _, err = run_cli(capsys, "equiv", "--graph", TWO_CYCLE)
    assert code == 2
    assert "two --graph" in err


def test_equiv_class_takes_one_graph(capsys):
    code, _, err = run_cli(capsys, "equiv", "--class", "--graph", TWO_CYCLE, "--graph", TWO_CYCLE)
    assert code == 2
    assert "exactly one --graph" in err


def test_equiv_class_lists_members(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--class", "--graph", TWO_CYCLE)
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    members = [parse_graph(b) for b in blocks]
    assert all(m.vertices == ("A", "B", "X", "Y") for m in members)


def test_equiv_class_refuses_more_than_the_candidate_limit(capsys, tmp_path):
    labels = [f"V{i}" for i in range(9)]
    chain = tmp_path / "chain9.graph"
    chain.write_text("".join(f"{a} -> {b}\n" for a, b in zip(labels, labels[1:])))
    code, out, err = run_cli(capsys, "equiv", "--class", "--graph", str(chain))
    assert (code, out) == (3, "")
    assert "k = 8 adjacent pairs" in err


@pytest.mark.parametrize("command", ["equiv", "discover"])
def test_running_out_of_memory_is_a_data_error(capsys, tmp_path, monkeypatch, command):
    # exit 1 would read as "not equivalent"; the oracle fails as an input
    # too large for the search would, after some queries
    graph = tmp_path / "g16.graph"
    labels = [f"V{k:02d}" for k in range(16)]
    graph.write_text(serialize_graph(random_graph(labels, 0.12, random.Random(1608))))
    decide, calls = GraphOracle._decide, [0]

    def exhausted(self, i, j, zmask):
        calls[0] += 1
        if calls[0] > 50:
            raise MemoryError
        return decide(self, i, j, zmask)

    monkeypatch.setattr(GraphOracle, "_decide", exhausted)
    argv = ["--graph", str(graph)] * (2 if command == "equiv" else 1)
    code, out, err = run_cli(capsys, command, *argv)
    assert calls[0] > 50
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: out of memory; the input is too large for the search"]


def test_verify_sound_pag(capsys, tmp_path, golden):
    pag_file = tmp_path / "two_cycle.pag"
    pag_file.write_text(golden("two_cycle.pag"))
    code, out, _ = run_cli(capsys, "verify", "--pag", str(pag_file), "--graph", TWO_CYCLE)
    assert (code, out.strip()) == (0, "sound")


def test_verify_reports_violations(capsys, tmp_path):
    pag_file = tmp_path / "bad.pag"
    pag_file.write_text("vertex A\nvertex B\nvertex X\nvertex Y\nA --> B\n")
    code, out, _ = run_cli(capsys, "verify", "--pag", str(pag_file), "--graph", TWO_CYCLE)
    assert code == 1
    assert "(i)" in out


def test_verify_checks_the_edges_of_a_13_vertex_graph(capsys, tmp_path):
    labels = [f"v{i:02d}" for i in range(13)]
    graph_file = tmp_path / "big.graph"
    graph_file.write_text(
        "\n".join(f"{a} -> {b}" for a, b in zip(labels, labels[1:])) + "\n"
    )
    vertices = [f"vertex {v}" for v in labels]
    edges = [f"{a} o-o {b}" for a, b in zip(labels, labels[1:])]
    sound = tmp_path / "sound.pag"
    sound.write_text("\n".join(vertices + edges) + "\n")
    missing = tmp_path / "missing.pag"
    missing.write_text("\n".join(vertices + edges[:5] + edges[6:]) + "\n")
    verify = ("verify", "--graph", str(graph_file), "--pag")
    code, out, _ = run_cli(capsys, *verify, str(sound))
    assert (code, out.strip()) == (0, "sound")
    code, out, _ = run_cli(capsys, *verify, str(missing))
    assert (code, out.strip()) == (1, "(i) no edge v05-v06, but no subset separates them")
    code, out, _ = run_cli(capsys, *verify, str(missing), "--skip-edge-check")
    assert (code, out.strip()) == (0, "sound")


def test_verify_the_discover_pag_of_the_16_vertex_graph(capsys, tmp_path):
    graph = write_g16(tmp_path)
    code, out, _ = run_cli(capsys, "discover", "--graph", str(graph))
    assert code == 0
    pag_file = tmp_path / "g16.pag"
    pag_file.write_text(out)
    code, out, _ = run_cli(capsys, "verify", "--pag", str(pag_file), "--graph", str(graph))
    assert (code, out) == (0, "sound\n")


def test_verify_with_different_vertex_sets_is_a_data_error(capsys, tmp_path):
    (tmp_path / "ab.graph").write_text("A -> B\n")
    (tmp_path / "ac.graph").write_text("A -> C\n")
    code, out, _ = run_cli(capsys, "discover", "--graph", str(tmp_path / "ab.graph"))
    assert code == 0
    (tmp_path / "ab.pag").write_text(out)
    code, out, err = run_cli(
        capsys, "verify", "--pag", str(tmp_path / "ab.pag"), "--graph", str(tmp_path / "ac.graph")
    )
    assert (code, out) == (3, "")
    assert err == "error: the PAG and the graph must share one vertex set\n"


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ccdkit", "dsep", "--graph", TWO_CYCLE, "A", "B"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stdout.strip() == "d-separated"


NUMPY_FREE_SCRIPT = """
import contextlib, io, sys

graph, pag, model, csv = sys.argv[1:]
import ccdkit
import ccdkit.cli as cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))

exact = [
    run("discover", "--graph", graph),
    run("dsep", "--graph", graph, "A", "B"),
    run("verify", "--pag", pag, "--graph", graph),
    run("equiv", "--class", "--graph", graph),
]
print(exact, "numpy" in sys.modules, set(ccdkit.__all__) <= set(dir(ccdkit)))
statistical = [
    run("simulate", "--model", model, "--samples", "200", "--seed", "0", "--out", csv),
    run("discover", "--data", csv),
]
namespace = {}
exec("from ccdkit import *", namespace)
print(statistical, "numpy" in sys.modules, set(ccdkit.__all__) <= set(namespace))
"""


def test_exact_path_does_not_import_numpy(tmp_path):
    model = tmp_path / "two_cycle.sem"
    model.write_text("X <- A 0.5\nX <- Y 0.5\nY <- B 0.5\nY <- X 0.5\n")
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT, TWO_CYCLE, str(GOLDEN / "two_cycle.pag"),
         str(model), str(tmp_path / "two_cycle.csv")],
        capture_output=True,
        text=True,
    )
    assert result.stderr == ""
    assert result.stdout.splitlines() == ["[0, 1, 0, 0] False True", "[0, 0] True True"]


def test_package_names_resolve_on_first_access():
    import ccdkit
    import ccdkit.fisherz
    import ccdkit.sem

    for name in ccdkit.__all__:
        getattr(ccdkit, name)
    assert set(ccdkit.__all__) <= set(dir(ccdkit))
    assert ccdkit.FisherZOracle is ccdkit.fisherz.FisherZOracle
    assert ccdkit.parse_sem is ccdkit.sem.parse_sem
    with pytest.raises(AttributeError, match="no_such_name"):
        ccdkit.no_such_name
