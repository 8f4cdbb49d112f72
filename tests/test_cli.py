import os
import random
import subprocess
import sys

import numpy as np
import pytest

from ccdkit import DataMatrix, Mark, parse_graph, parse_pag, random_graph, serialize_graph
from ccdkit.ccd import ConflictRecord
import ccdkit.cli as cli

from conftest import GOLDEN

TWO_CYCLE = str(GOLDEN / "two_cycle.graph")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_discover_stdout_does_not_depend_on_the_hash_seed(tmp_path):
    labels = [f"V{k:02d}" for k in range(16)]
    graph = tmp_path / "g16.graph"
    graph.write_text(serialize_graph(random_graph(labels, 0.12, random.Random(1608))))
    outputs = []
    for hash_seed in ("0", "12345"):
        result = subprocess.run(
            [sys.executable, "-m", "ccdkit", "discover", "--graph", str(graph), "--dump-state"],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert result.returncode == 0
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert b"# oracle counts" in outputs[0]


def test_discover_writes_dot(capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, _, _ = run_cli(capsys, "discover", "--graph", TWO_CYCLE, "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph pag {")
    assert "arrowhead=normal" in text


def test_discover_alpha_requires_data(capsys):
    code, _, err = run_cli(capsys, "discover", "--graph", TWO_CYCLE, "--alpha", "0.05")
    assert code == 2
    assert "--alpha" in err


@pytest.mark.parametrize("alpha", ["0", "1.5", "nan", "-0.1"])
def test_discover_alpha_outside_the_unit_interval_is_usage_error(capsys, tmp_path, alpha):
    csv = tmp_path / "d.csv"
    csv.write_text("A,B\n1.0,2.0\n2.0,1.0\n3.0,5.0\n")
    code, out, err = run_cli(capsys, "discover", "--data", str(csv), "--alpha", alpha)
    assert (code, out) == (2, "")
    assert "alpha must be strictly between 0 and 1" in err


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


@pytest.mark.parametrize(
    "text", ["A,B\n", "A,B\n1.0,x\n"], ids=["header-only", "non-numeric-cell"]
)
def test_discover_bad_csv_content_is_data_error(capsys, tmp_path, text):
    csv = tmp_path / "d.csv"
    csv.write_text(text)
    code, out, err = run_cli(capsys, "discover", "--data", str(csv))
    assert (code, out) == (3, "")
    assert err.startswith("error: CSV ")


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


def test_dsep_unknown_vertex_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "dsep", "--graph", TWO_CYCLE, "A", "Q")
    assert code == 2
    assert "unknown vertex" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "dsep", "--graph", "/nonexistent.graph", "A", "B")
    assert code == 2
    assert "error:" in err


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


@pytest.mark.parametrize("guard", ["-1", "0"])
def test_equiv_class_rejects_a_nonpositive_guard(capsys, guard):
    code, out, err = run_cli(
        capsys, "equiv", "--class", "--graph", TWO_CYCLE, "--max-vertices", guard
    )
    assert (code, out) == (2, "")
    assert "must be a positive integer" in err


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
