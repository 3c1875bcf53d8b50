"""Correctness checks on job outputs and the semantic digests in golden.json.

A digest covers only what the paper defines: the ranks p, q1, q2, q3, q,
Howlett's n1..n4, the corollary flags, the omega word texts and the stability
trajectory.  JSON layout, extra keys and the wording of `check` rows are not
part of it, so an added output field is not a failure.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"


class CheckFailed(Exception):
    """A job's output violates an identity or differs from its digest."""


def semantic(kind: str, stdout: str):
    """The semantic result of one job's stdout; raises CheckFailed on a
    violated identity.  `check` jobs have no semantic result (None)."""
    if kind == "check":
        failed = [line for line in stdout.splitlines() if line.startswith("FAIL")]
        if failed:
            raise CheckFailed(failed[0])
        return None
    doc = json.loads(stdout)
    if kind == "stability":
        return {
            "trajectory": [[row["n"], row["rank"]] for row in doc["trajectory"]],
            "verdict": doc["verdict"],
        }
    if doc["howlett_identity"] is not True:
        raise CheckFailed("howlett_identity is false")
    result = {
        "ranks": [doc[key] for key in ("p", "q1", "q2", "q3", "q")],
        "n": [doc["n"][key] for key in ("n1", "n2", "n3", "n4")],
        "corollary": [doc["corollary"][key] for key in ("all_torsion", "odd_equals_gamma", "tree", "applies")],
    }
    if kind == "generators":
        gens = doc["generators"]
        if gens["counts"]["total"] != gens["counts"]["expected_total"]:
            raise CheckFailed("counts.total != counts.expected_total")
        rows = [gens[f"omega{k}"] for k in (1, 2, 3)]
        if not all(row["abelianization_zero"] is True for family in rows for row in family):
            raise CheckFailed("a generator word has nonzero abelianization")
        result["flavor"] = gens["flavor"]
        result["omega"] = [[row["word"] for row in family] for family in rows]
    return result


def digest(result) -> str:
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]


class Verifier:
    """Checks every job run; the first run of a job against its identities and
    golden digest, every later run for byte-identical output."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self._outputs: dict[tuple[str, ...], bytes] = {}

    def failure(self, job, exit_code, stdout: str) -> str | None:
        """The reason the job failed, or None when its output is correct."""
        if exit_code != 0:
            return f"exit code {exit_code}"
        fingerprint = hashlib.sha1(stdout.encode("utf-8")).digest()
        earlier = self._outputs.get(job.argv)
        if earlier is not None:
            return None if earlier == fingerprint else "output differs from an earlier run of the same job"
        try:
            result = semantic(job.kind, stdout)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        if job.key is not None and digest(result) != self.golden[job.key]:
            return "semantic digest differs from golden.json"
        self._outputs[job.argv] = fingerprint
        return None
