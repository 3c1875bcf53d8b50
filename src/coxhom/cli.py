"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 internal
consistency failure (an identity the library guarantees failed, which
signals a bug rather than valid output).
"""

from __future__ import annotations

import functools
import sys
import types

from .errors import ECHO_LIMIT, CoxhomError, echo
from .graph import CoxeterGraph, catalog_grammar, from_catalog
from .invariants import analyze, stability_scan
from .io import parse_graph, render_json, render_stability, word_texts
from .words import FLAVORS, omega_sets


class _UsageError(Exception):
    pass


def _cut_long_tokens(message: str, argv: list[str]) -> str:
    """An argparse message with every argument longer than ECHO_LIMIT, or the
    long value of an ``--option=value``, cut short as ``errors.echo`` cuts it,
    also where argparse quoted it with repr.  Shorter tokens keep their bytes."""
    tokens = {part for token in argv for part in (token, token.partition("=")[2]) if len(part) > ECHO_LIMIT}
    for token in sorted(tokens, key=len, reverse=True):  # a token may hold a shorter one
        short = echo(token, False)
        message = message.replace(token, short).replace(repr(token)[1:-1], short)
    return message


# Each plain command's options: dest, default, and how a value is read (None
# for a flag, a tuple of choices, or a converter).  The parser is the reference.
_SOURCE = {"--file": ("file", None, str), "--type": ("catalog", None, str)}
_JSON = {"--json": ("json", False, None)}
_OPTIONS = {
    "compute": {**_SOURCE, **_JSON}, "check": _SOURCE,
    "generators": {**_SOURCE, "--flavor": ("flavor", "artin", FLAVORS), **_JSON},
    "stability": {"--seed-file": ("seed_file", None, str), "--n-max": ("n_max", None, int), **_JSON},
}


def _plain_args(argv: list[str]) -> types.SimpleNamespace | None:
    """The top parser's namespace for a plain argv, else None: a command of
    ``_OPTIONS``, each of its options at most once and in full, every value
    valid and a token of its own not starting with ``-``, and exactly one graph
    source (both for stability).  Values are read after the walk, as argparse
    reads a repeated option's every value."""
    tokens = iter(argv)
    command = next(tokens, None)
    options, given = _OPTIONS.get(command, {}), {}
    for flag in tokens:
        if flag not in options or flag in given:
            return None
        given[flag] = options[flag][2] is None or next(tokens, "-")  # True for a flag
        if given[flag] is not True and given[flag].startswith("-"):  # no value, or one argparse must read
            return None
    if len(given.keys() & {"--file", "--type", "--seed-file", "--n-max"}) != (2 if command == "stability" else 1):
        return None
    args = types.SimpleNamespace(command=command, **{dest: default for dest, default, _ in options.values()})
    try:
        for flag, value in given.items():
            dest, _, read = options[flag]
            if isinstance(read, tuple) and value not in read:
                return None
            setattr(args, dest, read(value) if callable(read) else value)
    except ValueError:  # an --n-max that int() does not read
        return None
    return args


@functools.cache  # built at first use and reused: a parse keeps no state in the parser
def _build_parser():
    """The top parser, which reads every argv ``_plain_args`` does not."""
    import argparse  # a plain argv never loads argparse, nor its gettext

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

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
        with open(path, encoding="utf-8-sig") as handle:  # not Path(path): Path("") is "."
            text = handle.read()
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
    profile = analyze(g)
    if args.json:
        sys.stdout.write(render_json(g, profile))
        return 0
    print(f"graph: {len(g.vertices)} vertices, {len(g.labels)} edges")
    print(f"p  = {profile.p}")
    print(f"q1 = {profile.q1}  q2 = {profile.q2}  q3 = {profile.q3}  q = {profile.q}")
    print(f"n1..n4 = {profile.n1} {profile.n2} {profile.n3} {profile.n4}  (howlett identity: ok)")
    print(f"H1(A; Z) free rank = {profile.n4}")
    print(f"H2(N; Z)  = {_group_text(profile.h2_orbit)}")
    print(f"H2(W; Z)  = {_group_text(profile.h2_coxeter)}")
    print(f"H2(A; Z2) rank = {profile.mod2_rank}")
    print(
        "corollary conditions: "
        f"all_torsion={_yn(profile.all_torsion)} "
        f"odd_equals_gamma={_yn(profile.odd_equals_gamma)} "
        f"tree={_yn(profile.tree)} -> applies={_yn(profile.corollary_applies)}"
    )
    print(f"H2(A; Z)  = {_group_text(profile.h2_artin_integral)}")
    return 0


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_generators(args) -> int:
    g = _load_graph(args)
    profile = analyze(g)
    omegas = omega_sets(g, profile, args.flavor)
    if omegas.total != profile.mod2_rank:
        print("internal error: generator count != p+q", file=sys.stderr)
        return 3
    if args.json:
        sys.stdout.write(render_json(g, profile, omegas))
        return 0
    print(f"flavor: {omegas.flavor}")
    families = (omegas.omega1, omegas.omega2, omegas.omega3)
    for k, (words, texts) in enumerate(zip(families, word_texts(families, g.vertices)), start=1):
        print(f"omega{k} ({len(words)} words):")
        for text in texts:
            print(f"  {text}   (abelianization zero: yes)")
    print(f"total = {omegas.total} = p+q = {profile.mod2_rank}")
    return 0


def _cmd_check(args) -> int:
    from .oracles import consistency_report  # only check needs the oracles

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
    if not report.stable:
        print("internal error: step 4's rank differs from step 3's", file=sys.stderr)
        return 3
    if args.json:
        sys.stdout.write(render_stability(report))
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
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _plain_args(argv) or _build_parser().parse_args(argv)
    except _UsageError as exc:
        message = _cut_long_tokens(str(exc), argv)
        print(f"usage error: {message}", file=sys.stderr)
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
