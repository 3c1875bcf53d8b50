"""One digest line per benchmark workload, to compare two trees' output bytes.

``python tests/same_bytes.py`` runs every job of ``bench/workloads.pool()``
through ``coxhom.cli.main`` in process: each argv as listed, and again with
``--json`` dropped when it has one.  For each workload it prints the workload
name, the number of runs and a sha256 over each run's exit code, stdout and
stderr, in pool order.  Two trees that print the same lines give the same
bytes on every benchmark input, in both formats; a run that raises stops
the script.  It takes no options, writes no bytecode, and writes the pool's
graph files to a temporary directory, so it only reads ``bench/`` and
``src/``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from coxhom.cli import main  # noqa: E402
from workloads import WORKLOADS, jobs_for, pool  # noqa: E402


def outcome(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(workload: str) -> tuple[int, str]:
    """The number of runs of ``workload``'s pool and the sha256 over their outcomes."""
    sha = hashlib.sha256()
    runs = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # relative graph paths: an argv names no temporary directory
        try:
            for job in jobs_for(workload, pool(workload), Path()):
                argvs = [list(job.argv)]  # a list, not a set: the runs keep one order
                if "--json" in job.argv:
                    argvs.append([arg for arg in job.argv if arg != "--json"])
                for argv in argvs:
                    sha.update(json.dumps(outcome(argv)).encode("utf-8"))
                    runs += 1
        finally:
            os.chdir(home)
    return runs, sha.hexdigest()


if __name__ == "__main__":
    for name in WORKLOADS:
        runs, hexdigest = digest(name)
        print(f"{name} {runs} {hexdigest}")
