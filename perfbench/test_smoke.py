"""Smoke test of the benchmark on tiny inputs; takes about 15 s.

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload with tracing off and on, and checks that every
metric is printed, that the summary line matches BENCHMARK.json, that every
output check ran, and that the benchmark refuses to run without the library.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

END_TO_END_PRINTED = {"pass_s", "us_per_query", "setup_s", "peak_rss_mb", "cli_s",
                      "fail_ratio", "adj_f1", "arrow_f1"}
PER_LAYER_PRINTED = (
    {f"ccd.{p}_s" for p in "ABCDEF"}
    | {f"ccd.{p}_self_s" for p in "ACDF"}
    | {f"ccd.aborts.{p}" for p in "ABCDEF"}
    | {f"oracle.distinct.{p}" for p in "ACDF"}
    | {"ccd.conflicts", "oracle.calls", "oracle.distinct", "oracle.memo_hit_ratio",
       "oracle.busy_s", "oracle.self_s", "oracle.us_per_call", "oracle.fz_us_per_query",
       "oracle.singular", "dsep.calls", "dsep.busy_s", "dsep.us_per_call",
       "digraph.build_s", "pag.edges", "pag.underlines", "pag.dotted", "pag.serialize_s",
       "sem.simulate_s", "equiv.class_s", "equiv.pair_s", "equiv.class_size",
       "trace.overhead", "fail_ratio"}
)
CHECKS = {
    "exact_skeleton": {"exact_pag_sound_and_digest", "outcomes_repeat_across_passes", "cli_matches_library"},
    "exact_wide": {"exact_pag_sound_and_digest", "outcomes_repeat_across_passes", "cli_matches_library"},
    "fisherz": {"outcomes_repeat_across_passes", "cli_matches_library"},
    "equiv_sweep": {"equiv_members_sizes_answers", "outcomes_repeat_across_passes", "cli_matches_library"},
}
TRACED_CHECKS = {"traced_equals_untraced", "layer_counts_repeat"}


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def parse(stdout: str) -> tuple[dict, dict, dict]:
    lines = stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    printed = {line.split()[1]: line for line in lines if line.startswith("metric ")}
    checks = {}
    for line in lines:
        if line.startswith("check "):
            _, name, _, ran, _, failed = line.split()
            checks[name] = (int(ran), int(failed))
    return summary, printed, checks


def test_names_match_benchmark_json():
    sys.path.insert(0, str(HERE))
    import run as bench

    assert WORKLOADS == list(bench.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench.PER_LAYER_SUMMARY)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload):
    proc = run(ROOT, workload, 0)
    assert proc.returncode == 0, proc.stderr
    summary, printed, checks = parse(proc.stdout)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        entry = summary["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert entry["value"] > 0
    assert END_TO_END_PRINTED <= set(printed)
    assert CHECKS[workload] <= set(checks)
    assert all(ran > 0 and failed == 0 for ran, failed in checks.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    proc = run(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr
    summary, printed, checks = parse(proc.stdout)
    assert summary["correct"] is True
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert summary["metrics"][m["name"]]["unit"] == m["unit"]
        assert summary["metrics"][m["name"]]["value"] is not None
    assert PER_LAYER_PRINTED <= set(printed)
    assert TRACED_CHECKS | CHECKS[workload] - {"cli_matches_library", "outcomes_repeat_across_passes"} <= set(checks)
    assert all(ran > 0 and failed == 0 for ran, failed in checks.values())


def test_refuses_to_run_without_the_library():
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
