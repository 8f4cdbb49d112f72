#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the library at hand.

    PYTHONPATH=src python3 perfbench/make_reference.py

The file holds what the benchmark's output checks compare against: the
exact-oracle PAG of every base graph (as a sha256 of its text for the exact
workloads, in full for the fisherz F1 scores), the PAG and per-phase query
counts of each CLI input, and the equivalence-class size of every graph on
three and four vertices. Regenerate it only when a change to the library's
output is intended, and say so in that change.
"""
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ccdkit import GraphOracle, all_graphs, fingerprint, serialize_pag  # noqa: E402
from ccdkit.ccd import run_ccd  # noqa: E402

import workloads  # noqa: E402


def exact(graph):
    pag, state = run_ccd(GraphOracle(graph), graph.vertices)
    return serialize_pag(pag), workloads.rows_text(state.stats.rows())


def main() -> None:
    ref = {"pag_sha256": {}, "fixed_sha256": {}, "fisherz_pags": {}, "class_sizes": {}}
    for workload in ("exact_skeleton", "exact_wide"):
        for size, spec in workloads.SPECS[workload].items():
            for i, base_seed in enumerate(spec["base_seeds"]):
                text, rows = exact(workloads.base_graph(spec["n"], spec["p"], base_seed))
                ref["pag_sha256"][f"{workload}/{size}/{base_seed}"] = workloads.sha256(text)
                if i == 0:
                    ref["fixed_sha256"][f"{workload}/{size}"] = workloads.sha256(text + rows)
    for size in workloads.SPECS["fisherz"]:
        for n, base_seed, p in workloads.fisherz_base(size):
            text, _ = exact(workloads.base_graph(n, p, base_seed))
            ref["fisherz_pags"][f"{size}/{n}/{base_seed}"] = text
    for n in (3, 4):
        prints = [fingerprint(g) for g in all_graphs(workloads.labels_for(n))]
        sizes = Counter(prints)
        ref["class_sizes"][str(n)] = [sizes[fp] for fp in prints]
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
