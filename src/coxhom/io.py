"""Text format for Coxeter graphs and deterministic JSON rendering.

The graph file format is line oriented: ``vertex <name>`` declares a vertex
(declaration order is the total order), ``edge <u> <v> <m>`` sets a label
(integer >= 2 or ``inf``), ``#`` starts a comment.  JSON output has a fixed
key order so identical inputs give byte-identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote  # how json.dumps quotes every str
from typing import Optional

from .errors import CoxhomError, GraphSyntaxError, echo
from .graph import INFINITY, CoxeterGraph, Label, build_graph, read_label
from .invariants import HomologySummary, InvariantProfile
from .words import OmegaSets, in_commutator_subgroup


def parse_graph(text: str) -> CoxeterGraph:
    """Graph of a file-format text; every error names its 1-based line."""
    vertices: list[tuple[int, str]] = []
    edges: list[tuple[int, tuple[str, str, Label]]] = []
    # lines end at \n, \r\n or \r only; str.splitlines() would also end them
    # at characters such as \f and \u2028, which str.split() reads as spaces
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for number, raw in enumerate(lines, start=1):
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
            try:
                label = read_label(tokens[3])
            except CoxhomError as exc:
                raise GraphSyntaxError(str(exc), number) from None
            edges.append((number, (tokens[1], tokens[2], label)))
        else:
            raise GraphSyntaxError(f"unknown directive {echo(tokens[0])}", number)
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


def render_graph(g: CoxeterGraph) -> str:
    """Canonical file-format text; parsing it reproduces the graph exactly."""
    lines = [f"vertex {name}" for name in g.vertices]
    for (i, j), m in g.labels.items():
        value = "inf" if m == INFINITY else m
        lines.append(f"edge {g.vertices[i]} {g.vertices[j]} {value}")
    return "\n".join(lines) + "\n"


def word_texts(families, vertices: tuple[str, ...]) -> list[list[str]]:
    """Each word of each family as its letters, `name` or `name^-1`, separated
    by spaces; the empty word is `1`."""
    table: dict[int, str] = {}
    for k, name in enumerate(vertices, start=1):
        table[k] = name
        table[-k] = f"{name}^-1"
    spell = table.__getitem__
    return [[" ".join(map(spell, w)) if w else "1" for w in words] for words in families]


def _descriptor_json(descriptor) -> Optional[dict]:
    if descriptor is None:
        return None
    return {"free_rank": descriptor.free_rank, "torsion2_rank": descriptor.torsion2_rank}


# The bulk rows of the document, as json.dumps(..., indent=2) lays them out at
# their depth; strings are filled in already quoted.
_EDGE_ROW = '    {\n      "u": %s,\n      "v": %s,\n      "m": %s\n    }'
_WORD_ROW = '      {\n        "word": %s,\n        "abelianization_zero": %s\n      }'


def _array(rows: list[str], indent: str) -> str:
    """A JSON array of rendered rows whose closing bracket sits at ``indent``."""
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def render_json(
    g: CoxeterGraph,
    profile: InvariantProfile,
    summary: HomologySummary,
    omegas: Optional[OmegaSets] = None,
) -> str:
    """The JSON document, keys in a fixed order: the bytes of
    ``json.dumps(doc, indent=2) + "\\n"``, with the vertex, edge and word rows
    written from templates and their strings quoted by the C encoder."""
    names = [_quote(name) for name in g.vertices]
    edges = [
        _EDGE_ROW % (names[i], names[j], '"inf"' if m == INFINITY else m)
        for (i, j), m in g.labels.items()
    ]
    scalars = json.dumps({
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
    }, indent=2)
    parts = [
        '{\n  "vertices": ', _array([f"    {name}" for name in names], "  "),
        ',\n  "edges": ', _array(edges, "  "),
        ",\n", scalars[2:-2],  # the fields' lines, without the braces around them
    ]
    if omegas is not None:
        families = (omegas.omega1, omegas.omega2, omegas.omega3)
        counts = json.dumps({
            "omega1": len(omegas.omega1),
            "omega2": len(omegas.omega2),
            "omega3": len(omegas.omega3),
            "total": omegas.total,
            "expected_total": profile.p + profile.q,
        }, indent=2)
        parts += [',\n  "generators": {\n    "flavor": ', _quote(omegas.flavor)]
        for k, (words, texts) in enumerate(zip(families, word_texts(families, g.vertices)), start=1):
            rows = [
                _WORD_ROW % (_quote(text), "true" if in_commutator_subgroup(w) else "false")
                for w, text in zip(words, texts)
            ]
            parts += [f',\n    "omega{k}": ', _array(rows, "    ")]
        parts += [',\n    "counts": ', counts.replace("\n", "\n    "), "\n  }"]
    parts.append("\n}\n")
    return "".join(parts)
