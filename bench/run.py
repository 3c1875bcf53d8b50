"""coxhom benchmark: one closed-loop client calling ``coxhom.cli.main`` in process.

Usage (from the repository root):

    python3 bench/run.py --workload dense_random --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

A job is one ``coxhom.cli.main(argv)`` call with stdout captured: argument
parsing, graph load, compute and rendering.  The run repeats whole passes over
the seeded job list until ``--seconds`` have gone by, checks every output, and
prints a table followed by one JSON line.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` times one untraced pass, then traced passes,
and reports per-layer metrics.  ``--workload all`` runs each workload in its
own process.  Each run also writes ``bench/results/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics, each summed over one pass of the job list.  `.s` is
# inclusive time, `.self_s` excludes traced callees, `.calls` counts spans.
PER_LAYER = (
    ("cli.main.self_s", "s"),
    ("io.parse_graph.s", "s"),
    ("graph.from_catalog.s", "s"),
    ("graph.build_graph.s", "s"),
    ("invariants.commuting_pairs.s", "s"),
    ("invariants.pair_classes.self_s", "s"),
    ("invariants.invariant_profile.self_s", "s"),
    ("invariants.homology_summary.self_s", "s"),
    ("invariants.stability_scan.self_s", "s"),
    ("graph.extend_family.s", "s"),
    ("words.omega_sets.self_s", "s"),
    ("chains.fundamental_cycle_basis.s", "s"),
    ("io.render_json.s", "s"),
    ("oracles.consistency_report.self_s", "s"),
    ("oracles.naive_pair_closure.s", "s"),
    ("oracles.rational_cycle_rank.s", "s"),
    ("chains.gf2_rank.s", "s"),
    ("invariants.pair_classes.calls", "count"),
    ("invariants.pairs", "count"),
    ("invariants.classes", "count"),
    ("graph.odd_edges", "count"),
    ("chains.cycles", "count"),
    ("words.letters", "count"),
    ("io.json_bytes", "bytes"),
)
COUNT_METRICS = tuple(name for name, unit in PER_LAYER if unit != "s")

SETUP_REPEATS = 21
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "t = time.perf_counter(); import coxhom.cli; t = time.perf_counter() - t; "
    "import reference, statistics; "
    "print(t, statistics.median(reference.reference_seconds() for _ in range(7)))"
)
# Untraced runs make at least this many passes, traced runs at least two.
MIN_PASSES = 5
# Between jobs, time the reference loop whenever this much time has passed.
REFERENCE_EVERY_S = 0.025


class BenchmarkDefect(Exception):
    """The benchmark itself misbehaved (as opposed to the program failing)."""


def setup_seconds() -> tuple[float, float]:
    """Median time for a fresh interpreter to import coxhom.cli, scaled to the
    nominal host speed and raw.  The first import, which may write bytecode
    caches, is not counted."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    scaled, raw = [], []
    for attempt in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT, env=env,
        )
        if attempt:
            seconds, ref = (float(x) for x in proc.stdout.split())
            raw.append(seconds)
            scaled.append(seconds * reference.scale([ref]))
    return statistics.median(scaled), statistics.median(raw)


def run_job(cli, job):
    """(exit code or None on an exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(job.argv))
        except Exception:  # a crash is a failed job, not a benchmark stop
            code = None
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


class Runner:
    """Runs passes over one job list, checking every output.

    ``times[k][i]`` is the raw latency of job i in pass k; ``scales[k]``
    turns pass k's times into times at the nominal host speed (see
    reference.py).
    """

    def __init__(self, cli, jobs, verifier):
        self.cli, self.jobs, self.verifier = cli, jobs, verifier
        self.times: list[list[float]] = []
        self.scales: list[float] = []
        self.failures: list[tuple[str, str]] = []

    def warm_up(self) -> None:
        """One untimed call per command kind, on its smallest input."""
        smallest = {}
        for job in self.jobs:
            if job.kind not in smallest or job.size < smallest[job.kind].size:
                smallest[job.kind] = job
        for job in smallest.values():
            run_job(self.cli, job)

    def one_pass(self, tracer=None) -> tuple[float, float]:
        """Run every job once; returns (scaled, raw) jobs per second of job
        time.  The pass's scale is appended to ``scales``."""
        gc.collect()
        refs = [reference.reference_seconds() for _ in range(5)]
        last_ref = time.perf_counter()
        times = []
        for job in self.jobs:
            code, out, err, elapsed = run_job(self.cli, job)
            if tracer is not None:
                tracer.end_job()
            times.append(elapsed)
            reason = self.verifier.failure(job, code, out)
            if reason is not None:
                self.failures.append((" ".join(job.argv), f"{reason}; stderr: {err.strip()[-300:]}"))
            if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append(reference.reference_seconds())
                last_ref = time.perf_counter()
        refs += [reference.reference_seconds() for _ in range(5)]
        factor = reference.scale(refs)
        self.scales.append(factor)
        self.times.append(times)
        busy = sum(times)
        return len(times) / (busy * factor), len(times) / busy

    def passes(self, seconds: float, minimum: int = 1, tracer_factory=None):
        """Whole passes until ``seconds`` have passed; yields each pass's
        (scaled jobs per second, raw jobs per second, tracer or None)."""
        start = time.perf_counter()
        done = 0
        while done < minimum or time.perf_counter() - start < seconds:
            if tracer_factory is None:
                yield *self.one_pass(), None
            else:
                tracer = tracer_factory()
                with spans.instrumented(tracer):
                    rates = self.one_pass(tracer)
                yield *rates, tracer
            done += 1

    @property
    def attempted(self) -> int:
        return sum(len(times) for times in self.times)

    def job_latencies(self, scaled: bool = True) -> list[float]:
        """Each job's median latency over the passes, once per pass.

        A single long job's time swings by 15-20% on this kind of host; the
        median of its repeats is the estimate of its latency.
        """
        passes = [
            [t * factor for t in times] if scaled else times
            for times, factor in zip(self.times, self.scales)
        ]
        medians = [statistics.median(column) for column in zip(*passes)]
        return medians * len(passes)


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten of ``count`` samples
    above it, by the nearest-rank rule."""
    for p in range(99, 0, -1):
        if count - -(-p * count // 100) >= 10:
            return p
    return 50


def percentile(samples, p: int) -> float:
    ordered = sorted(samples)
    return ordered[-(-p * len(ordered) // 100) - 1]


def end_to_end(runner, rates, raw_rates, setup):
    # The percentile comes from the guaranteed sample count, so a faster
    # program, which fits more passes in the run, is judged at the same one.
    p = tail_percentile(MIN_PASSES * len(runner.jobs))
    latencies, raw_latencies = runner.job_latencies(), runner.job_latencies(scaled=False)
    metrics = {
        "setup_s": setup[0],
        "jobs_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": percentile(latencies, p) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "latency_tail_percentile": p,
        "latency_samples": len(latencies),
        "passes": len(rates),
        "host_speed_scale": statistics.median(runner.scales),
        "unscaled": {
            "setup_s": setup[1],
            "jobs_per_s": statistics.median(raw_rates),
            "latency_p50_ms": statistics.median(raw_latencies) * 1e3,
            "latency_tail_ms": percentile(raw_latencies, p) * 1e3,
        },
    }
    return metrics, notes


def per_layer(runner, seconds):
    base_rate, _ = runner.one_pass()
    rows, rates = [], []
    for rate, _, tracer in runner.passes(seconds, minimum=2, tracer_factory=spans.Tracer):
        factor = runner.scales[-1]
        summary = spans.summarize(tracer.spans)
        row = {}
        for name, unit in PER_LAYER:
            span_name, field = name.rsplit(".", 1)
            if unit == "s":
                row[name] = summary.get(span_name, {}).get(field, 0.0) * factor
            elif field == "calls":
                row[name] = summary.get(span_name, {}).get(field, 0)
            else:
                row[name] = tracer.counts.get(name, 0)
        row["_job_s"] = summary.get("cli.main", {}).get("s", 0.0) * factor
        rows.append(row)
        rates.append(rate)
    for row in rows[1:]:
        for name in COUNT_METRICS:
            if row[name] != rows[0][name]:
                raise BenchmarkDefect(f"{name} differs between passes: {rows[0][name]} vs {row[name]}")
    metrics = {
        name: statistics.median(row[name] for row in rows) if unit == "s" else rows[0][name]
        for name, unit in PER_LAYER
    }
    job_s = statistics.median(row["_job_s"] for row in rows)
    notes = {
        "passes": len(rows),
        "host_speed_scale": statistics.median(runner.scales),
        "traced_job_s_per_pass": job_s,
        "share_of_traced_job_time": {
            name: metrics[name] / job_s for name, unit in PER_LAYER if unit == "s"
        },
        "tracing_overhead": {
            "untraced_jobs_per_s": base_rate,
            "untraced_jobs": len(runner.jobs),
            "traced_jobs_per_s": statistics.median(rates),
            "traced_jobs": len(runner.jobs) * len(rows),
        },
    }
    return metrics, notes


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, which names the code also where the
    checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "coxhom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args, jobs) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "jobs_per_pass": len(jobs),
    }


def print_table(title, metrics, units, notes) -> None:
    print(title)
    for name, unit in units:
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")
    for key, value in notes.items():
        if isinstance(value, dict):
            print(f"  {key}:")
            for inner, inner_value in value.items():
                text = f"{inner_value:.4g}" if isinstance(inner_value, float) else inner_value
                print(f"    {inner:<38} {text}")
        else:
            print(f"  {key:<40} {value}")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import coxhom.cli as cli
    except ImportError as exc:
        print(f"error: cannot import coxhom from {SRC}: {exc}", file=sys.stderr)
        return 2
    verifier = checks.Verifier(checks.load_golden())
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        jobs = workloads.jobs_for(args.workload, workloads.select(args.workload, args.seed), workdir)
        env = environment(args, jobs)
        setup = setup_seconds() if args.trace == 0 else None
        runner = Runner(cli, jobs, verifier)
        runner.warm_up()
        if args.trace == 0:
            rates, raw_rates, _ = zip(*runner.passes(args.seconds, minimum=MIN_PASSES))
            metrics, notes = end_to_end(runner, rates, raw_rates, setup)
            units = END_TO_END
        else:
            metrics, notes = per_layer(runner, args.seconds)
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = runner.attempted, len(runner.failures)
    notes = {"attempted": attempted, "failed": failed, "failed_ratio": failed / attempted, **notes}
    for argv, reason in runner.failures[:20]:
        print(f"FAILED {argv}: {reason}", file=sys.stderr)
    print_table(f"coxhom benchmark: {args.workload}, seed {args.seed}, trace {args.trace}", metrics, units, notes)
    result_file = BENCH / "results" / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_file.parent.mkdir(exist_ok=True)
    record = {
        **env, **notes,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        "failures": runner.failures[:100],
    }
    result_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    results, status = {}, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except BenchmarkDefect as exc:
        print(f"benchmark defect: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
