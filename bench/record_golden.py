"""Rewrite golden.json: the semantic digest of every job any seed can run.

    python3 bench/record_golden.py

Run it only at a commit whose outputs are trusted; the benchmark counts any
later difference from these digests as a failed job.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import coxhom.cli as cli

    digests = {}
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        for workload in workloads.WORKLOADS:
            items = workloads.pool(workload)
            for job in workloads.jobs_for(workload, items, Path(tmp)):
                code, out, err, _ = run.run_job(cli, job)
                if code != 0:
                    raise SystemExit(f"{' '.join(job.argv)}: exit {code}: {err}")
                result = checks.semantic(job.kind, out)
                if job.key is not None:
                    digests[job.key] = checks.digest(result)
            print(f"{workload}: {len(items)} items", file=sys.stderr)
    text = json.dumps({"digests": digests}, indent=0, sort_keys=True)
    checks.GOLDEN.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {checks.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
