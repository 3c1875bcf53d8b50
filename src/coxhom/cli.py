"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 internal
consistency failure (an identity the library guarantees failed, which
signals a bug rather than valid output).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CoxhomError
from .graph import CoxeterGraph, catalog_grammar, from_catalog
from .invariants import analyze, stability_scan
from .io import parse_graph, render_json, word_to_text
from .oracles import consistency_report
from .words import FLAVORS, in_commutator_subgroup, omega_sets


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="coxhom", description="Homology invariants of Artin and Coxeter groups from Coxeter graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--file", help="graph file (vertex/edge lines)")
        group.add_argument("--type", dest="catalog", help="catalog name, e.g. A3, ~D4, I2(5)")

    compute = sub.add_parser("compute", help="invariant profile and homology summary")
    add_graph_source(compute)
    compute.add_argument("--json", action="store_true")

    generators = sub.add_parser("generators", help="second-homology generator words")
    add_graph_source(generators)
    generators.add_argument("--flavor", choices=FLAVORS, default="artin")
    generators.add_argument("--json", action="store_true")

    check = sub.add_parser("check", help="run all internal identities on one graph")
    add_graph_source(check)

    stability = sub.add_parser("stability", help="rank trajectory of the vertex-appending family")
    stability.add_argument("--seed-file", required=True)
    stability.add_argument("--n-max", type=int, required=True)
    stability.add_argument("--json", action="store_true")

    catalog = sub.add_parser("catalog", help="catalog utilities")
    catalog.add_argument("action", choices=("list",))
    return parser


def _read_graph_file(path: str) -> CoxeterGraph:
    """Parse a graph file; a leading BOM is skipped, undecodable bytes are an input error."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CoxhomError(f"cannot decode {path!r} as UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_graph(text)


def _load_graph(args) -> CoxeterGraph:
    if args.file is not None:
        return _read_graph_file(args.file)
    return from_catalog(args.catalog)


def _group_text(descriptor) -> str:
    if descriptor is None:
        return "not determined here"
    parts = []
    if descriptor.free_rank:
        parts.append(f"Z^{descriptor.free_rank}" if descriptor.free_rank > 1 else "Z")
    if descriptor.torsion2_rank:
        parts.append(f"Z2^{descriptor.torsion2_rank}" if descriptor.torsion2_rank > 1 else "Z2")
    return " + ".join(parts) if parts else "0"


def _cmd_compute(args) -> int:
    g = _load_graph(args)
    analysis = analyze(g)
    profile, summary = analysis.profile, analysis.summary
    if not profile.howlett_identity:
        print("internal error: Howlett identity violated", file=sys.stderr)
        return 3
    if args.json:
        sys.stdout.write(render_json(g, profile, summary))
        return 0
    corollary = summary.corollary
    print(f"graph: {len(g.vertices)} vertices, {len(g.labels)} edges")
    print(f"p  = {profile.p}")
    print(f"q1 = {profile.q1}  q2 = {profile.q2}  q3 = {profile.q3}  q = {profile.q}")
    print(f"n1..n4 = {profile.n1} {profile.n2} {profile.n3} {profile.n4}  (howlett identity: ok)")
    print(f"H1(A; Z) free rank = {profile.n4}")
    print(f"H2(N; Z)  = {_group_text(summary.h2_orbit)}")
    print(f"H2(W; Z)  = {_group_text(summary.h2_coxeter)}")
    print(f"H2(A; Z2) rank = {summary.h2_artin_mod2_rank}")
    print(
        "corollary conditions: "
        f"all_torsion={_yn(corollary.all_torsion)} "
        f"odd_equals_gamma={_yn(corollary.odd_equals_gamma)} "
        f"tree={_yn(corollary.tree)} -> applies={_yn(corollary.applies)}"
    )
    print(f"H2(A; Z)  = {_group_text(summary.h2_artin_integral)}")
    return 0


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_generators(args) -> int:
    g = _load_graph(args)
    omegas = omega_sets(g, args.flavor)
    profile, summary = omegas.analysis.profile, omegas.analysis.summary
    if omegas.total != profile.p + profile.q:
        print("internal error: generator count != p+q", file=sys.stderr)
        return 3
    if args.json:
        sys.stdout.write(render_json(g, profile, summary, omegas))
        return 0
    print(f"flavor: {omegas.flavor}")
    for name, words in (("omega1", omegas.omega1), ("omega2", omegas.omega2), ("omega3", omegas.omega3)):
        print(f"{name} ({len(words)} words):")
        for w in words:
            zero = "yes" if in_commutator_subgroup(w) else "NO"
            print(f"  {word_to_text(w, g.vertices)}   (abelianization zero: {zero})")
    print(f"total = {omegas.total} = p+q = {profile.p + profile.q}")
    return 0


def _cmd_check(args) -> int:
    g = _load_graph(args)
    rows = consistency_report(g)
    failures = 0
    for name, passed, detail in rows:
        mark = "ok  " if passed else "FAIL"
        print(f"{mark} {name}: {detail}")
        failures += 0 if passed else 1
    print(f"{len(rows) - failures}/{len(rows)} checks passed")
    return 0 if failures == 0 else 3


def _cmd_stability(args) -> int:
    seed = _read_graph_file(args.seed_file)
    try:
        report = stability_scan(seed, args.n_max)
    except CoxhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        doc = {
            "trajectory": [{"n": n, "rank": rank} for n, rank in report.trajectory],
            "verdict": report.stable,
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return 0
    for n, rank in report.trajectory:
        print(f"n = {n:2d}  p+q = {rank}")
    print(f"stable for n >= 3: {_yn(report.stable)}")
    return 0


def _cmd_catalog(args) -> int:
    width = max(len(pattern) for pattern, _, _ in catalog_grammar())
    for pattern, constraint, description in catalog_grammar():
        print(f"{pattern:<{width}}  {constraint:<12}  {description}")
    return 0


_COMMANDS = {
    "compute": _cmd_compute,
    "generators": _cmd_generators,
    "check": _cmd_check,
    "stability": _cmd_stability,
    "catalog": _cmd_catalog,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (CoxhomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
