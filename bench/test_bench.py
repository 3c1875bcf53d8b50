"""Tests of the benchmark's tracer and job runner.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys

import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

import coxhom  # noqa: E402
import coxhom.cli  # noqa: E402
import coxhom.invariants  # noqa: E402
import coxhom.words  # noqa: E402


def test_self_time_subtracts_nested_children():
    trace = [
        spans.Span("a", 0.0, 10.0, -1),
        spans.Span("b", 1.0, 4.0, 0),
        spans.Span("c", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 9.0, 0),
        spans.Span("d", 6.0, 7.0, 3),
    ]
    summary = spans.summarize(trace)
    assert summary["a"] == {"s": 10.0, "self_s": 3.0, "calls": 1}
    assert summary["b"] == {"s": 7.0, "self_s": 5.0, "calls": 2}
    assert summary["c"] == {"s": 1.0, "self_s": 1.0, "calls": 1}
    assert summary["d"] == {"s": 1.0, "self_s": 1.0, "calls": 1}


def test_self_time_counts_overlapping_children_once():
    trace = [
        spans.Span("a", 0.0, 10.0, -1),
        spans.Span("b", 2.0, 6.0, 0),
        spans.Span("c", 4.0, 8.0, 0),
        spans.Span("d", 9.0, 12.0, 0),
    ]
    assert spans.summarize(trace)["a"]["self_s"] == pytest.approx(3.0)


def test_wrapped_calls_record_parent_and_times():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    assert tracer.spans == [
        spans.Span("outer", 0.0, 5.0, -1),
        spans.Span("inner", 1.0, 2.0, 0),
        spans.Span("inner", 3.0, 4.0, 0),
    ]
    summary = spans.summarize(tracer.spans)
    assert summary["outer"]["self_s"] == 3.0
    assert summary["inner"] == {"s": 2.0, "self_s": 2.0, "calls": 2}


def test_instrumented_rebinds_every_import_and_restores():
    original = coxhom.invariants.pair_classes
    helper = coxhom.graph.is_odd
    with spans.instrumented(spans.Tracer()):
        wrapper = coxhom.invariants.pair_classes
        assert wrapper is not original
        assert coxhom.words.pair_classes is wrapper
        assert coxhom.pair_classes is wrapper
        assert coxhom.graph.is_odd is helper
    assert coxhom.invariants.pair_classes is original
    assert coxhom.words.pair_classes is original
    assert coxhom.pair_classes is original
    assert not hasattr(coxhom.cli.main, "__wrapped__")


def test_instrumented_restores_after_an_exception():
    original = coxhom.cli.main
    with pytest.raises(RuntimeError):
        with spans.instrumented(spans.Tracer()):
            assert coxhom.cli.main is not original
            raise RuntimeError("job crashed")
    assert coxhom.cli.main is original


@pytest.fixture
def sample_jobs(tmp_path):
    items = workloads.select("catalog_check", 0)[:12]
    return workloads.jobs_for("catalog_check", items, tmp_path)


def _traced_pass(jobs):
    tracer = spans.Tracer()
    outputs = []
    with spans.instrumented(tracer):
        for job in jobs:
            code, out, _, _ = run.run_job(coxhom.cli, job)
            tracer.end_job()
            outputs.append((code, out))
    return outputs, tracer


def test_traced_and_untraced_jobs_print_the_same(sample_jobs):
    untraced = [run.run_job(coxhom.cli, job)[:2] for job in sample_jobs]
    traced, tracer = _traced_pass(sample_jobs)
    assert traced == untraced
    assert spans.summarize(tracer.spans)["cli.main"]["calls"] == len(sample_jobs)
    verifier = checks.Verifier(checks.load_golden())
    assert all(verifier.failure(job, code, out) is None for job, (code, out) in zip(sample_jobs, untraced))


def test_counts_repeat_exactly(sample_jobs):
    _, first = _traced_pass(sample_jobs)
    _, second = _traced_pass(sample_jobs)
    assert first.counts == second.counts
    assert first.counts["invariants.pairs"] > 0 and first.counts["words.letters"] > 0
    calls = [spans.summarize(t.spans)["invariants.pair_classes"]["calls"] for t in (first, second)]
    assert calls[0] == calls[1] > 0


def test_verifier_flags_a_changed_result(sample_jobs):
    job = next(j for j in sample_jobs if j.kind == "compute")
    code, out, _, _ = run.run_job(coxhom.cli, job)
    verifier = checks.Verifier(checks.load_golden())
    assert verifier.failure(job, code, out.replace('"q1": ', '"q1": 1')) is not None
    assert verifier.failure(job, code, out) is None
    assert verifier.failure(job, 3, out) == "exit code 3"


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(72) == 86
    assert run.tail_percentile(1000) == 99
    assert run.percentile([float(x) for x in range(1, 101)], 90) == 90.0
