"""One workload in one process: set-up, timed passes, output checks, CLI runs.

Started by run.py with BLAS pinned to one thread. It caps its own address
space first, so a run that needs too much memory fails with MemoryError
(a counted failure) instead of drawing the machine into an OOM kill. The
last line of stdout is a JSON object that run.py turns into the report.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy
from ccdkit import (
    DataMatrix,
    FisherZOracle,
    enumerate_equiv_class,
    sem_from_graph,
    serialize_graph,
    serialize_pag,
)

import tracing
import workloads
from speedprobe import SpeedProbe

ADDRESS_SPACE_LIMIT = 2 * 1024**3
MIN_PASSES = 3

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# Layers (module names) each workload calls into, directly or through another.
LAYERS_CALLED = {
    "exact_skeleton": {"trace", "ccd", "oracle", "dsep", "digraph", "pag"},
    "exact_wide": {"trace", "ccd", "oracle", "dsep", "digraph", "pag"},
    "fisherz": {"trace", "ccd", "oracle", "dsep", "digraph", "pag", "sem"},
    "equiv_sweep": {"trace", "equiv", "dsep", "digraph"},
}

END_TO_END_UNITS = {
    "pass_s": "s",
    "us_per_query": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_s": "s",
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    args = parser.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    reference = json.loads((HERE / "reference.json").read_text())
    run = Run(args.workload, args.size, args.seed, reference)
    try:
        result = run.traced(args.seconds) if args.trace else run.untraced(args.seconds)
    finally:
        run.probe.stop()  # a SIGPROF after interpreter shutdown began would kill the process
    result["env"] = environment()
    result["checks"] = run.checks
    result["failures"] = run.failures[:20]
    print(json.dumps(result))
    return 0


def environment() -> dict:
    numba = importlib.util.find_spec("numba")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.metadata.version("numba") if numba else "absent",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "address_space_limit_mb": ADDRESS_SPACE_LIMIT // 1024**2,
    }


class Run:
    def __init__(self, workload: str, size: str, seed: int, reference: dict):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.reference = reference
        self.checks: dict[str, list[int]] = {}  # name -> [ran, failed]
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.first_inverse: dict[str, dict[str, str]] = {}
        self.probe = SpeedProbe()
        self.probe.start()

    def check(self, name: str, failures: list[str], ran: int = 1) -> None:
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += ran
        entry[1] += len(failures)
        self.failures.extend(f"{name}: {f}" for f in failures)

    def prepare(self):
        t0 = time.perf_counter()
        inputs = workloads.prepare(self.workload, self.size, self.seed)
        return inputs, time.perf_counter() - t0

    def count(self, result) -> None:
        """Count the operations of one pass.

        Only the first pass of a run is counted: later passes repeat the same
        inputs and must give the same outcomes (a checked condition), so the
        counts depend on the seed alone, not on how many passes fit in the run.
        """
        self.attempted += result.attempted
        self.failed += result.failed
        for outcome in result.searches:
            if outcome.error is not None:
                self.errors[outcome.error] = self.errors.get(outcome.error, 0) + 1

    def check_outputs(self, inputs, result) -> dict:
        """Every output check of the workload on one pass; returns F1 scores."""
        if self.workload.startswith("exact_"):
            ran = sum(o.pag is not None for o in result.searches)
            failures = workloads.check_exact(inputs, result, self.reference, self.size)
            self.check("exact_pag_sound_and_digest", failures, ran)
        elif self.workload == "fisherz":
            return workloads.f1_scores(inputs, result, self.reference, self.size)
        else:
            failures = workloads.check_equiv(inputs, result, self.reference)
            self.check("equiv_members_sizes_answers", failures, len(result.equiv))
        return {}

    def check_repeat(self, first, result) -> None:
        same = workloads.pass_signature(first) == workloads.pass_signature(result)
        self.check("outcomes_repeat_across_passes", [] if same else ["a pass gave other outcomes"])

    def untraced(self, seconds: float) -> dict:
        probe = self.probe
        deadline = time.perf_counter() + seconds
        setups, passes, walls, cli_times, cli_walls = [], [], [], [], []
        first = None
        digest = ""
        f1 = {}
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            start = probe.mark()
            inputs, setup_s = self.prepare()
            setups.append(setup_s * probe.factor(start, probe.mark()))
            result = workloads.run_pass(inputs, probe.mark)
            passes.append(sum(t * probe.factor(*m) for t, m in zip(result.unit_seconds, result.unit_marks)))
            walls.append(result.seconds)
            if first is None:
                self.count(result)
                first = result
                self.first_inverse = {item.key: item.inverse for item in inputs.searches}
                digest = workloads.input_digest(inputs)
                f1 = self.check_outputs(inputs, result)
                cli = self.cli_command(first)
            else:
                self.check_repeat(first, result)
            del inputs, result
            # One CLI run after each pass spreads its samples over the run.
            wall, factor = self.run_cli(*cli)
            cli_walls.append(wall)
            cli_times.append(wall * factor)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pass_s = statistics.median(passes)
        values = {
            "pass_s": pass_s,
            "us_per_query": pass_s / sum(first.unit_queries) * 1e6,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "cli_s": statistics.median(cli_times),
        }
        extra = {
            "passes": len(passes),
            "pass_wall_s": statistics.median(walls),
            "cli_wall_s": statistics.median(cli_walls),
            "runs_attempted": self.attempted,
            "runs_failed": self.failed,
            "fail_ratio": self.failed / self.attempted,
            "errors": self.errors,
            "input_sha256": digest,
        }
        if f1:
            extra["adj_f1"] = f1["adj"]
            extra["arrow_f1"] = f1["arrow"]
        return self.result(values, END_TO_END_UNITS, extra)

    def traced(self, seconds: float) -> dict:
        probe = self.probe
        tracer = tracing.Tracer()
        deadline = time.perf_counter() + seconds
        plain, traced, layers = [], [], []
        first = None
        digest = ""
        while len(layers) < 2 or time.perf_counter() < deadline:
            inputs, _ = self.prepare()
            start = probe.mark()
            result = workloads.run_pass(inputs, probe.mark)
            plain.append(result.seconds * probe.factor(start, probe.mark()))
            if not layers:
                digest = workloads.input_digest(inputs)
                self.check_outputs(inputs, result)
            del inputs
            inputs, _ = self.prepare()
            start = probe.mark()
            with tracer.span("pass", index=len(layers)):
                traced_result, layer = tracing.traced_pass(inputs, tracer)
            traced.append(traced_result.seconds * probe.factor(start, probe.mark()))
            del inputs
            same = workloads.pass_signature(result) == workloads.pass_signature(traced_result)
            self.check("traced_equals_untraced", [] if same else ["traced PAGs or query rows differ"])
            if not layers:
                self.count(traced_result)
                first = traced_result
            else:
                self.check_repeat(first, traced_result)
            layers.append(tracing.finish(layer))
        counts = {k for k, v in layers[0].items() if isinstance(v, int)} | {"oracle.memo_hit_ratio"}
        repeat = all(all(layer[k] == layers[0][k] for k in counts) for layer in layers)
        self.check("layer_counts_repeat", [] if repeat else ["a count metric changed between passes"])
        values = {
            k: (layers[0][k] if k in counts else statistics.median(layer[k] for layer in layers))
            for k in layers[0]
        }
        values["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
        units = {k: layer_unit(k) for k in values}
        called = LAYERS_CALLED[self.workload]
        for k in values:
            if units[k] != "count" and k.split(".")[0] not in called:
                values[k] = None  # a layer this workload never calls has no time
        if self.workload != "fisherz":
            values["oracle.fz_us_per_query"] = None
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"spans-{self.workload}-{self.size}-{self.seed}.jsonl"
        with spans.open("w") as fh:
            for record in tracer.spans:
                fh.write(json.dumps(record) + "\n")
        extra = {
            "passes": len(layers),
            "runs_attempted": self.attempted,
            "runs_failed": self.failed,
            "fail_ratio": self.failed / self.attempted,
            "errors": self.errors,
            "input_sha256": digest,
            "spans_file": str(spans.relative_to(ROOT)),
            "spans": len(tracer.spans),
        }
        return self.result(values, units, extra)

    def result(self, values: dict, units: dict, extra: dict) -> dict:
        return {
            "correct": all(failed == 0 for _, failed in self.checks.values()),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            "extra": extra,
        }

    # -- the command-line front end on one fixed input of the workload --

    def cli_command(self, first):
        """The CLI arguments for the workload's fixed input, and their output check."""
        WORK.mkdir(exist_ok=True)
        if self.workload == "equiv_sweep":
            return self._cli_equiv()
        if self.workload == "fisherz":
            return self._cli_fisherz()
        return self._cli_exact(first)

    def run_cli(self, argv: list[str], check) -> tuple[float, float]:
        """Wall time of one ``python -m ccdkit`` run, and its speed factor."""
        factor_file = WORK / f"cli-factor-{os.getpid()}"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "cli_probe.py"), str(factor_file), *argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        seconds = time.perf_counter() - t0
        self.check("cli_matches_library", check(proc))
        factor = float(factor_file.read_text())
        factor_file.unlink()
        return seconds, factor

    def _cli_exact(self, first):
        spec = workloads.SPECS[self.workload][self.size]
        base_seed = spec["base_seeds"][0]
        graph = workloads.base_graph(spec["n"], spec["p"], base_seed)
        path = WORK / f"{self.workload}-{self.size}.graph"
        path.write_text(serialize_graph(graph))
        # The pass searched a relabelled copy; mapped back it is this graph's PAG.
        key = str(base_seed)
        item_pag = next(o.pag for o in first.searches if o.key == key)
        library = None
        if item_pag is not None:
            mapped = workloads.relabel_pag(item_pag, self.first_inverse[key])
            library = serialize_pag(mapped)
        want = self.reference["fixed_sha256"][f"{self.workload}/{self.size}"]

        def check(proc) -> list[str]:
            if proc.returncode != 0:
                return [f"discover exited {proc.returncode}: {proc.stderr.strip()[-200:]}"]
            pag_text, _, state = proc.stdout.partition("# sepsets\n")
            rows = state.partition("# oracle counts\n")[2].partition("# conflicts\n")[0]
            failures = []
            if library is not None and pag_text != library:
                failures.append("discover PAG differs from the library's serialize_pag")
            if workloads.sha256(pag_text + rows) != want:
                failures.append("discover PAG or per-phase query counts differ from the reference")
            return failures

        return ["discover", "--graph", str(path), "--dump-state"], check

    def _cli_fisherz(self):
        spec = workloads.SPECS["fisherz"][self.size]
        n, base_seed, p = workloads.fisherz_base(self.size)[0]
        graph = workloads.base_graph(n, p, base_seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = sem_from_graph(graph, spec["coefficient"]).simulate(spec["samples"], 0)
        text = data.to_csv()
        path = WORK / f"fisherz-{self.size}.csv"
        path.write_text(text)
        oracle = FisherZOracle(DataMatrix.from_csv(text), spec["alpha"])
        item = workloads.SearchInput("cli", graph, {}, oracle)
        outcome = workloads.run_search(item)

        def check(proc) -> list[str]:
            if outcome.error is not None:
                # run_ccd raised; the CLI reports it on stderr with exit code 3.
                if proc.returncode == 3 and proc.stdout == "":
                    return []
                return [f"library raised {outcome.error}, discover exited {proc.returncode}"]
            if proc.returncode != 0:
                return [f"discover exited {proc.returncode}"]
            if not proc.stdout.startswith(outcome.text):
                return ["discover PAG differs from the library's serialize_pag"]
            if workloads.rows_text(outcome.rows) not in proc.stdout:
                return ["discover query counts differ from the library's"]
            return []

        return ["discover", "--data", str(path), "--alpha", str(spec["alpha"]), "--dump-state"], check

    def _cli_equiv(self):
        graph = workloads.class_base(workloads.SPECS["equiv_sweep"][self.size]["classes"][0])
        path = WORK / f"equiv-{self.size}.graph"
        path.write_text(serialize_graph(graph))
        members = enumerate_equiv_class(graph)
        want = "\n".join(serialize_graph(m) for m in members)

        def check(proc) -> list[str]:
            if proc.returncode != 0 or proc.stdout != want:
                return [f"equiv --class output differs from the library (exit {proc.returncode})"]
            return []

        return ["equiv", "--class", "--graph", str(path)], check


def layer_unit(name: str) -> str:
    if name == "trace.overhead" or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("us_per_call") or name.endswith("us_per_query"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
