#!/usr/bin/env python3
"""Benchmark of ccdkit: one workload per call, in its own child process.

    python3 perfbench/run.py --workload exact_skeleton --seed 1 --seconds 25 --trace 0

Workloads: exact_skeleton, exact_wide, fisherz, equiv_sweep (see
workloads.py for why each exists). With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it alternates
untraced and traced passes and reports per-layer metrics, writing its spans
to perfbench/_work/. One caller drives the library in a closed loop: each
input starts when the previous one finished. Every metric is printed as a
``metric`` line with its unit; the last line of stdout is a JSON summary.
The exit code is non-zero when an output check fails, when the child fails,
or when the library source (src/ccdkit) is not beside this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact_skeleton", "exact_wide", "fisherz", "equiv_sweep")
CHILD_TIMEOUT_S = 170

# Per-layer metrics of the summary object with --trace 1: those that have a
# value on every workload (a layer that a workload never calls still has
# counts, of zero, but no time). The rest are printed as metric lines.
PER_LAYER_SUMMARY = (
    "trace.overhead", "digraph.build_s", "dsep.calls", "dsep.busy_s", "dsep.us_per_call",
    "oracle.calls", "oracle.distinct", "oracle.distinct.A",
    "oracle.distinct.C", "oracle.distinct.D", "oracle.distinct.F", "oracle.singular",
    "ccd.conflicts", "ccd.aborts.A", "ccd.aborts.B", "ccd.aborts.C", "ccd.aborts.D",
    "ccd.aborts.E", "ccd.aborts.F", "pag.edges", "pag.underlines", "pag.dotted",
    "equiv.class_size",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the smoke test")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ccdkit" / "__init__.py").is_file():
        print(f"error: no ccdkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
    ]
    # Its own session, so a timeout can stop the child and the CLI runs it started.
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: workload child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload child exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    report(args, result)
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    if args.trace:
        summary["metrics"] = {k: summary["metrics"][k] for k in PER_LAYER_SUMMARY}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


def report(args, result: dict) -> None:
    extra = result["extra"]
    env = result["env"]
    print(f"workload {args.workload} size {args.size} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds} passes {extra['passes']}")
    print("env " + " ".join(f"{k} {v}" for k, v in env.items()))
    print(f"inputs sha256 {extra['input_sha256']}")
    for name, entry in result["metrics"].items():
        if entry["value"] is None:
            print(f"metric {name} n/a (layer not called by this workload)")
        else:
            print(f"metric {name} {entry['value']!r} {entry['unit']}")
    print(f"metric fail_ratio {extra['fail_ratio']!r} ratio "
          f"({extra['runs_failed']} failed of {extra['runs_attempted']} runs_attempted; "
          f"errors {extra['errors'] or 'none'})")
    if not args.trace:
        print(f"wall pass_s {extra['pass_wall_s']!r} s, cli_s {extra['cli_wall_s']!r} s "
              "(medians before scaling to the reference CPU speed)")
        for name in ("adj_f1", "arrow_f1"):
            if name in extra:
                print(f"metric {name} {extra[name]!r} ratio")
            else:
                print(f"metric {name} n/a (no statistical PAGs in this workload)")
    else:
        print(f"spans {extra['spans']} written to {extra['spans_file']}")
    for name, (ran, failed) in sorted(result["checks"].items()):
        print(f"check {name} ran {ran} failed {failed}")
    for line in result["failures"]:
        print(f"failure {line}")


if __name__ == "__main__":
    sys.exit(main())
