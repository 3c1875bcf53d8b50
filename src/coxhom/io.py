"""Text format for Coxeter graphs and deterministic JSON rendering.

The graph file format is line oriented: ``vertex <name>`` declares a vertex
(declaration order is the total order), ``edge <u> <v> <m>`` sets a label
(integer >= 2 or ``inf``), ``#`` starts a comment.  JSON output has a fixed
key order so identical inputs give byte-identical bytes.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import CoxhomError, GraphSyntaxError
from .graph import INFINITY, CoxeterGraph, Label, build_graph, read_label
from .invariants import HomologySummary, InvariantProfile
from .words import OmegaSets, in_commutator_subgroup


def parse_graph(text: str) -> CoxeterGraph:
    """Graph of a file-format text; every error names its 1-based line."""
    vertices: list[tuple[int, str]] = []
    edges: list[tuple[int, tuple[str, str, Label]]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise GraphSyntaxError("expected `vertex <name>`", number)
            vertices.append((number, tokens[1]))
        elif tokens[0] == "edge":
            if len(tokens) != 4:
                raise GraphSyntaxError("expected `edge <u> <v> <m>`", number)
            edges.append((number, (tokens[1], tokens[2], _parse_label(tokens[3], number))))
        else:
            raise GraphSyntaxError(f"unknown directive {tokens[0]!r}", number)
    current = 0

    def rows(numbered):
        # build_graph draws each row once, so a build error belongs to the latest line drawn
        nonlocal current
        for current, row in numbered:
            yield row

    try:
        return build_graph(rows(vertices), rows(edges))
    except CoxhomError as exc:
        raise GraphSyntaxError(str(exc), current) from None


def _parse_label(token: str, line: int) -> Label:
    try:
        value = read_label(token)
    except CoxhomError as exc:
        raise GraphSyntaxError(str(exc), line) from None
    if value < 2:
        raise GraphSyntaxError(f"label must be >= 2, got {value}", line)
    return value


def render_graph(g: CoxeterGraph) -> str:
    """Canonical file-format text; parsing it reproduces the graph exactly."""
    lines = [f"vertex {name}" for name in g.vertices]
    for (i, j), m in sorted(g.labels.items()):
        value = "inf" if m == INFINITY else m
        lines.append(f"edge {g.vertices[i]} {g.vertices[j]} {value}")
    return "\n".join(lines) + "\n"


def word_to_text(w: tuple[int, ...], vertices: tuple[str, ...]) -> str:
    """Letters as `name` / `name^-1` separated by spaces; the empty word is `1`."""
    if not w:
        return "1"
    return " ".join(
        vertices[abs(a) - 1] if a > 0 else f"{vertices[abs(a) - 1]}^-1" for a in w
    )


def _descriptor_json(descriptor) -> Optional[dict]:
    if descriptor is None:
        return None
    return {"free_rank": descriptor.free_rank, "torsion2_rank": descriptor.torsion2_rank}


def render_json(
    g: CoxeterGraph,
    profile: InvariantProfile,
    summary: HomologySummary,
    omegas: Optional[OmegaSets] = None,
) -> str:
    """The JSON document, keys in a fixed insertion order."""
    edges = []
    for (i, j), m in sorted(g.labels.items()):
        edges.append({
            "u": g.vertices[i],
            "v": g.vertices[j],
            "m": "inf" if m == INFINITY else m,
        })
    doc = {
        "vertices": list(g.vertices),
        "edges": edges,
        "p": profile.p,
        "q1": profile.q1,
        "q2": profile.q2,
        "q3": profile.q3,
        "q": profile.q,
        "n": {"n1": profile.n1, "n2": profile.n2, "n3": profile.n3, "n4": profile.n4},
        "howlett_identity": profile.howlett_identity,
        "h1_artin_free_rank": profile.n4,
        "h2_orbit": _descriptor_json(summary.h2_orbit),
        "h2_coxeter": _descriptor_json(summary.h2_coxeter),
        "h2_artin_mod2_rank": summary.h2_artin_mod2_rank,
        "corollary": {
            "all_torsion": summary.corollary.all_torsion,
            "odd_equals_gamma": summary.corollary.odd_equals_gamma,
            "tree": summary.corollary.tree,
            "applies": summary.corollary.applies,
        },
        "h2_artin_integral": _descriptor_json(summary.h2_artin_integral),
    }
    if omegas is not None:
        doc["generators"] = {
            "flavor": omegas.flavor,
            "omega1": _word_rows(omegas.omega1, g.vertices),
            "omega2": _word_rows(omegas.omega2, g.vertices),
            "omega3": _word_rows(omegas.omega3, g.vertices),
            "counts": {
                "omega1": len(omegas.omega1),
                "omega2": len(omegas.omega2),
                "omega3": len(omegas.omega3),
                "total": omegas.total,
                "expected_total": profile.p + profile.q,
            },
        }
    return json.dumps(doc, indent=2) + "\n"


def _word_rows(words, vertices) -> list[dict]:
    return [
        {"word": word_to_text(w, vertices), "abelianization_zero": in_commutator_subgroup(w)}
        for w in words
    ]

