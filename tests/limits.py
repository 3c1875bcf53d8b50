"""Each size limit's largest accepted and first refused input, and other worst
cases: rows of a command, a time budget, an exit code and a refusal's stderr.
``PYTHONPATH=src python tests/limits.py`` writes each input once, runs every
row as a whole ``python -m coxhom.cli`` process, one at a time, and exits 1 at
the first row over its budget or ending in another exit code or stderr."""

from __future__ import annotations

import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

from conftest import permuted_copy, random_coxeter_graph
from coxhom.graph import MAX_CATALOG_N, MAX_LABEL_DIGITS, from_catalog
from coxhom.invariants import MAX_SCAN_STEPS
from coxhom.io import render_graph
from coxhom.words import MAX_SPELLED_LABEL

N, STEPS, SPELLED, DIGITS = MAX_CATALOG_N, MAX_SCAN_STEPS, MAX_SPELLED_LABEL, MAX_LABEL_DIGITS
FILE_N = N + 1  # a graph file may have as many vertices as ~A<N>
SRC = Path(__file__).resolve().parents[1] / "src"
OVER_N = f"parameter above the limit n <= {N}"
OVER_FILE_N = f"vertex {FILE_N + 1} is above the limit of {FILE_N} vertices"
OVER_DIGITS = f"digits, above the limit of {DIGITS}"


def _edgeless(n: int) -> str:
    return "".join(f"vertex v{i}\n" for i in range(n))


def _complete(n: int, m: int) -> str:
    return _edgeless(n) + "".join(f"edge v{i} v{j} {m}\n" for i in range(n) for j in range(i + 1, n))


# Each input's text by its name; a row's command names it as "@name".
INPUTS = {
    "one": lambda: "vertex a\n",  # a scan's work follows its seed, not n-max
    "three": lambda: "vertex a\nvertex b\nvertex c\nedge a b 3\n",
    # its omega3 words time the word layer, and check runs every oracle on it
    "random200": lambda: render_graph(random_coxeter_graph(random.Random(1), 200)),
    # about 6900 labels, the slowest stability seed of its size found
    "sparse1000": lambda: render_graph(random_coxeter_graph(random.Random(3), 1000, (500.0, 3.0, 1.0, 1.0, 1.0, 1.0))),
    # every pair a class of its own: the pair classes' worst case at each size
    "edgeless100": lambda: _edgeless(100),
    "edgeless1000": lambda: _edgeless(1000),
    "edgeless_max": lambda: _edgeless(FILE_N),
    "edgeless_over": lambda: _edgeless(FILE_N + 1),
    # every pair an odd edge: the most omega3 words and letters per vertex
    "dense1000": lambda: _complete(1000, 3),
    "commented_over": lambda: "# edgeless\n" + _edgeless(FILE_N + 1),
    # grown through births and joins, where the catalog order copies whole rows
    "shuffled1000": lambda: render_graph(permuted_copy(from_catalog("A1000"), random.Random(1))),
    "affine_max": lambda: render_graph(from_catalog(f"~A{N}")),
    "label5000": lambda: f"vertex a\nvertex b\nedge a b {'9' * 5000}\n",
}


class Row(NamedTuple):
    command: str  # split at spaces
    budget: float  # wall-clock seconds, interpreter start-up included
    code: int = 0
    message: str = ""  # a refusal's, which stderr gives whole

    @property
    def stderr(self) -> str:
        return f"error: {self.message}\n" if self.message else ""

    def argv(self, paths: dict[str, str]) -> list[str]:
        return [paths[arg[1:]] if arg.startswith("@") else arg for arg in self.command.split()]

    def __str__(self) -> str:  # an argument of over 40 characters shown by its length
        return " ".join(arg if len(arg) <= 40 else f"<{len(arg)} characters>" for arg in self.command.split())


ROWS = [
    Row(f"compute --json --type A{N}", 30),
    Row(f"generators --json --type ~D{N}", 30),
    Row(f"compute --json --type ~A{N}", 30),
    Row(f"compute --type A{N + 1}", 10, 2, f"A{N + 1}: {OVER_N}"),
    Row("compute --type A999999999999", 10, 2, f"A999999999999: {OVER_N}"),
    Row("generators --type ~D100000000000", 10, 2, f"~D100000000000: {OVER_N}"),
    Row("compute --json --file @edgeless_max", 10),
    Row("compute --json --file @affine_max", 30),
    Row("compute --json --file @shuffled1000", 10),
    Row("compute --file @edgeless_over", 10, 2, f"line {FILE_N + 1}: {OVER_FILE_N}"),  # refused while parsing
    Row("compute --json --file @commented_over", 10, 2, f"line {FILE_N + 2}: {OVER_FILE_N}"),
    Row("stability --n-max 4 --seed-file @commented_over", 10, 2, f"line {FILE_N + 2}: {OVER_FILE_N}"),
    # check has no limit of its own: its closure oracle grows as about n**2 on A<n> and edgeless graphs
    Row("generators --json --file @random200", 30),
    Row("check --file @random200", 60),
    Row("check --type A100", 10),
    Row("check --type A1000", 30),
    Row("check --file @edgeless100", 10),
    Row("compute --json --file @edgeless1000", 30),
    Row("generators --json --file @edgeless1000", 30),
    Row("check --file @edgeless1000", 60),
    # no check row: fundamental_cycles_bound's gf2_rank keeps a pivot mask of up to
    # E bits for each of the about E fundamental cycles, 432 MB on K400 with every label 3
    Row("compute --json --file @dense1000", 30),
    Row("generators --json --file @dense1000", 60),
    # n-max <= MAX_SCAN_STEPS; a seed takes what a graph file takes, as the scan grows
    # only the seed and three appended vertices
    Row(f"stability --seed-file @one --n-max {STEPS}", 10),
    Row(f"stability --seed-file @edgeless_max --n-max {STEPS}", 10),
    Row(f"stability --seed-file @affine_max --n-max {STEPS}", 10),
    Row("stability --seed-file @random200 --n-max 4", 30),
    Row("stability --seed-file @edgeless1000 --n-max 4", 30),
    Row("stability --seed-file @sparse1000 --n-max 4", 30),
    Row(f"stability --seed-file @sparse1000 --n-max {STEPS}", 30),
    Row(f"stability --n-max {STEPS + 1} --seed-file @one", 10, 1, f"n_max must be <= {STEPS}, got {STEPS + 1}"),
    Row(f"stability --n-max {10**9} --seed-file @three", 10, 1, f"n_max must be <= {STEPS}, got {10**9}"),
    Row(f"generators --json --type I2({SPELLED})", 30),
    Row(f"generators --type I2({SPELLED + 2})", 10, 2,  # an even label is spelled on any edge
        f"label {SPELLED + 2} is above the limit {SPELLED} on spelled words"),
    Row(f"compute --type I2({'9' * DIGITS})", 10),
    Row(f"compute --type I2({'9' * (DIGITS + 1)})", 10, 2, f"label has {DIGITS + 1} {OVER_DIGITS}"),
    Row(f"compute --type I2({'9' * 5000})", 10, 2, f"label has 5000 {OVER_DIGITS}"),
    Row("compute --file @label5000", 10, 2, f"line 3: label has 5000 {OVER_DIGITS}"),
]


def write_inputs(rows: list[Row], directory: str | Path) -> dict[str, str]:
    """Write each input the rows name once into ``directory``: its path by name."""
    paths = {arg[1:]: str(Path(directory, arg[1:])) for row in rows for arg in row.command.split() if arg[0] == "@"}
    for name, path in paths.items():
        Path(path).write_text(INPUTS[name](), encoding="utf-8")
    return paths


def run(rows: list[Row]) -> int:
    """1 at the first row that fails, each run as a whole process in turn, else 0."""
    with tempfile.TemporaryDirectory() as directory:
        paths = write_inputs(rows, directory)
        for row in rows:
            start = time.perf_counter()
            try:  # cwd=SRC runs this checkout's package, as the child's cwd leads its path
                done = subprocess.run([sys.executable, "-m", "coxhom.cli", *row.argv(paths)], cwd=SRC, text=True,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=row.budget)
                code, stderr = done.returncode, done.stderr
            except subprocess.TimeoutExpired:
                code, stderr = None, "killed at its budget"
            seconds = time.perf_counter() - start
            failed = (code, stderr) != (row.code, row.stderr) or seconds > row.budget
            print(f"{'FAIL' if failed else 'ok'} {seconds:.2f} of {row.budget:g} s, exit {code}: {row}")
            if failed:
                print(f"expected exit {row.code} and stderr {row.stderr!r}, got stderr {stderr[:200]!r}")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(run(ROWS))
