"""Paired in-process timing of two source trees on one benchmark workload.

    python tests/ab.py PARENT CHANGE [--workload sparse_family] [--seed 1] [--repeat 11]

PARENT and CHANGE are checkouts of this repository.  Each tree's
``src/coxhom`` is loaded under a package name of its own (``coxhom_parent``,
``coxhom_change``) in this one process, so both run with the same interpreter,
heap and caches.  The jobs are one seeded run's job list, built by this
checkout's ``bench/workloads.py``, with the graph files in a temporary
directory.  Every job must give the same exit code, stdout and stderr on both
trees; the first job that does not ends the script with exit code 1.  Then
each job runs ``--repeat`` times on each tree, alternating which tree runs
first, and a job's time on a tree is the best of its runs.

The script prints a summary line, then one row per command (the sum of its
jobs' best times), ``pass`` (the sum over all jobs), the median ``p50`` and
maximum ``max`` of the jobs' best times, and ``import``, the median of 9
fresh interpreters' ``import coxhom.cli`` times per tree (the trees taking
turns, bytecode cached in a temporary directory, each tree's first import
not counted): the parent's milliseconds, the change's, and change / parent.
It writes no bytecode under either tree and changes nothing there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, jobs_for, select  # noqa: E402

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import coxhom.cli; print(time.perf_counter() - t)"
)
IMPORT_REPEAT = 9


def load_cli(tree: Path, alias: str):
    """The ``cli`` module of ``tree``'s ``src/coxhom``, imported as package ``alias``."""
    package = tree / "src" / "coxhom"
    spec = importlib.util.spec_from_file_location(alias, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cli")


def run(cli, argv: tuple[str, ...]) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def best_times(clis, jobs, repeat: int) -> list[list[float]]:
    """Each tree's best time per job over ``repeat`` rounds, the trees'
    order flipping from one call to the next."""
    best = [[float("inf")] * len(jobs) for _ in clis]
    for r in range(repeat):
        gc.collect()
        for k, job in enumerate(jobs):
            for side in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                best[side][k] = min(best[side][k], run(clis[side], job.argv)[3])
    return best


def import_seconds(trees) -> list[float]:
    """Each tree's median time for a fresh interpreter to import coxhom.cli."""
    with tempfile.TemporaryDirectory() as cache:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPYCACHEPREFIX"] = cache
        times = [[] for _ in trees]
        for r in range(IMPORT_REPEAT + 1):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                probe = [sys.executable, "-c", IMPORT_PROBE, str(trees[side] / "src")]
                done = subprocess.run(probe, capture_output=True, text=True, check=True, env=env)
                if r:  # the first import writes the bytecode
                    times[side].append(float(done.stdout))
    return [statistics.median(t) for t in times]


def rows(jobs, best) -> list[tuple[str, float, float]]:
    """(name, parent seconds, change seconds) per command, then pass, p50 and max."""
    table = []
    for kind in sorted({job.kind for job in jobs}):
        table.append((kind, *(sum(t for job, t in zip(jobs, times) if job.kind == kind) for times in best)))
    table.append(("pass", *map(sum, best)))
    table.append(("p50", *map(statistics.median, best)))
    table.append(("max", *map(max, best)))
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Paired in-process timing of two coxhom trees.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS, default="sparse_family")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=11)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    clis = (load_cli(args.parent, "coxhom_parent"), load_cli(args.change, "coxhom_change"))
    with tempfile.TemporaryDirectory() as workdir:
        jobs = jobs_for(args.workload, select(args.workload, args.seed), Path(workdir))
        for job in jobs:
            parent, change = (run(cli, job.argv)[:3] for cli in clis)
            if parent != change:
                print(f"outputs differ: {' '.join(job.argv)}", file=sys.stderr)
                return 1
        best = best_times(clis, jobs, args.repeat)
    table = rows(jobs, best) + [("import", *import_seconds((args.parent, args.change)))]
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, same bytes, best of {args.repeat}")
    for name, parent, change in table:
        print(f"{name:<12}{parent * 1e3:12.3f} ms{change * 1e3:12.3f} ms{change / parent:9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
