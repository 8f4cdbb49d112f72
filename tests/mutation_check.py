"""Mutation checks: each shortcut's test must still catch the shortcut's failure.

Each mutant is one exact text replacement in a file under ``src/ccdkit``
and the pytest node ids that must fail once it is applied. The script
first requires every old text to occur exactly once, so that a refactor
that moves the code reports its mutant as stale instead of passing it,
and an unpatched copy to pass every named test. Then, for each mutant, it
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the one patch there and runs the named tests against
the copy in a subprocess, with a fixed Hypothesis seed. A mutant passes
the check only when those tests fail. The repository itself is never
modified. The file name has no ``test_`` prefix, so pytest does not
collect it; it needs nothing beyond the standard library and the
test dependencies the suite already uses.

    python3 tests/mutation_check.py

The exit status is 0 when every mutant is caught, 1 otherwise.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/ccdkit
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "separator-paths-leave-the-region",
        "digraph.py",
        "kids = children[front] & region",
        "kids = children[front]",
        ("tests/test_separation_properties.py::test_separator_bound_on_every_graph_up_to_three_vertices",),
    ),
    Mutant(
        "fisher-z-drops-the-floor-check",
        "fisherz.py",
        "if floor_i < var_i and floor_j < var_j and 0.0 < product < math.inf:",
        "if floor_i < var_i and 0.0 < product < math.inf:",
        ("tests/test_oracle.py::test_fisher_z_first_separator_equals_a_per_subset_loop_over_the_statistic",),
    ),
    Mutant(
        "ancestral-rule-without-a-known-dependent-part",
        "oracle.py",
        "if inner != zmask and self._known_dependent(pair, inner, shared):",
        "if inner != zmask:",
        ("tests/test_oracle.py::test_the_shortcuts_change_no_search[32-0.06-32]",),
    ),
    Mutant(
        "graph-oracle-keeps-a-walk-stopped-at-its-target",
        "oracle.py",
        "reached = walk(g._parent_unions, g._child_unions, zmask, 1 << i)",
        "reached = walk(g._parent_unions, g._child_unions, zmask, 1 << i, 1 << j)",
        ("tests/test_oracle.py::test_cached_graph_oracle_equals_brute_force",),
    ),
    Mutant(
        "ancestral-rule-takes-any-memoised-part",
        "oracle.py",
        "if self._memo.get(zmask << 2 * w | pair) is False:",
        "if (zmask << 2 * w | pair) in self._memo:",
        ("tests/test_oracle.py::test_the_shortcuts_change_no_search[32-0.06-32]",),
    ),
    Mutant(
        "numpy-csv-reader-takes-quoted-text",
        "fisherz.py",
        "any(c in text for c in '\"",
        "any(c in text for c in '",
        ("tests/test_oracle.py::test_data_matrix_csv_parses_as_the_list_of_rows_reader[quoted-header]",),
    ),
    Mutant(
        "numpy-csv-reader-takes-lines-past-the-field-size-limit",
        "fisherz.py",
        "lines = _short_lines(text, csv.field_size_limit())",
        "lines = _lines(text)",
        ("tests/test_oracle.py::test_data_matrix_csv_reader_errors_are_value_errors[huge-cell]",),
    ),
)


def _copy(into: Path) -> Path:
    """A copy of what the tests need, under ``into``."""
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", into / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")
    return into


def _run(copy: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    """Run the tests against the copy's package, from the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import ccdkit; print(ccdkit.__file__)"],
        cwd=copy, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).is_relative_to(copy):
        raise SystemExit(f"ccdkit imports from {where}, not from the copy under {copy}")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    return subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)


def _tail(proc: subprocess.CompletedProcess) -> str:
    return "\n".join((proc.stdout + proc.stderr).splitlines()[-15:])


def main() -> int:
    stale = False
    for m in MUTANTS:
        found = (ROOT / "src" / "ccdkit" / m.file).read_text().count(m.old)
        if found != 1:
            stale = True
            print(f"STALE {m.name}: the old text occurs {found} times in src/ccdkit/{m.file}")
    if stale:
        return 1

    started = time.perf_counter()
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="ccdkit-mutants-") as tmp:
        proc = _run(_copy(Path(tmp) / "clean"), tests)
        if proc.returncode != 0:
            print(f"the unpatched copy fails the named tests:\n{_tail(proc)}")
            return 1
        print(f"unpatched copy passes {len(tests)} tests ({time.perf_counter() - started:.1f} s)")
        survived = []
        for m in MUTANTS:
            began = time.perf_counter()
            copy = _copy(Path(tmp) / m.name)
            path = copy / "src" / "ccdkit" / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            proc = _run(copy, m.tests)
            seconds = time.perf_counter() - began
            if proc.returncode == 1:  # pytest: some test failed
                print(f"caught {m.name} ({seconds:.1f} s)")
            else:
                survived.append(m.name)
                print(f"SURVIVED {m.name}: pytest exit {proc.returncode} ({seconds:.1f} s)\n{_tail(proc)}")
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - len(survived)} of {len(MUTANTS)} mutants caught in {time.perf_counter() - started:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
