"""Text format for Coxeter graphs and deterministic JSON rendering.

The graph file format is line oriented: ``vertex <name>`` declares a vertex
(declaration order is the total order), ``edge <u> <v> <m>`` sets a label
(integer >= 2 or ``inf``), and a line whose first token starts with ``#``
is a comment (a later ``#`` is part of its token).  JSON output has a fixed
key order so identical inputs give byte-identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote  # how json.dumps quotes every str
from operator import length_hint
from typing import Iterator, Optional, Sequence

from .errors import CoxhomError, GraphSyntaxError, echo
from .graph import INFINITY, MAX_CATALOG_N, CoxeterGraph, Label, build_graph, read_label
from .invariants import InvariantProfile, StabilityReport
from .words import OmegaSets, in_commutator_subgroup


def parse_graph(text: str) -> CoxeterGraph:
    """Graph of a file-format text; every error names its 1-based line.  A
    graph may have MAX_CATALOG_N + 1 vertices, as the largest catalog diagram
    does, and the first vertex line past them is refused."""
    vertices: list[str] = []
    edges: list[tuple[str, str, Label]] = []
    # lines end at \n, \r\n or \r only; str.splitlines() would also end them
    # at characters such as \f and \u2028, which str.split() reads as spaces
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    read: dict[str, Label] = {}  # each distinct label token is read once
    for number, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] == "edge":  # before comments: a file is mostly edge lines
            if len(tokens) != 4:
                raise GraphSyntaxError("expected `edge <u> <v> <m>`", number)
            label = read.get(tokens[3])
            if label is None:
                try:
                    label = read[tokens[3]] = read_label(tokens[3])
                except CoxhomError as exc:
                    raise GraphSyntaxError(str(exc), number) from None
            edges.append((tokens[1], tokens[2], label))
        elif tokens[0] == "vertex":
            if len(tokens) != 2:
                raise GraphSyntaxError("expected `vertex <name>`", number)
            if len(vertices) > MAX_CATALOG_N:
                limit = MAX_CATALOG_N + 1
                raise GraphSyntaxError(f"vertex {limit + 1} is above the limit of {limit} vertices", number)
            vertices.append(tokens[1])
        elif not tokens[0].startswith("#"):
            raise GraphSyntaxError(f"unknown directive {echo(tokens[0])}", number)
    vertex_rows, edge_rows = iter(vertices), iter(edges)
    try:
        return build_graph(vertex_rows, edge_rows)
    except CoxhomError as exc:
        # build_graph draws each row once, every vertex row before any edge row, and
        # refuses the latest one drawn: the k-th row of a kind is on that kind's k-th line
        drawn = len(edges) - length_hint(edge_rows)
        kind, drawn = ("edge", drawn) if drawn else ("vertex", len(vertices) - length_hint(vertex_rows))
        number = [k for k, raw in enumerate(lines, start=1) if raw.split()[:1] == [kind]][drawn - 1]
        raise GraphSyntaxError(str(exc), number) from None


def word_texts(families, vertices: Sequence[str]) -> list[Iterator[str]]:
    """Each word of each family as its letters, `name` or `name^-1`, separated
    by spaces, spelled as it is read; the empty word is `1`."""
    table: dict[int, str] = {}
    for k, name in enumerate(vertices, start=1):
        table[k] = name
        table[-k] = f"{name}^-1"
    spell = table.__getitem__
    return [(" ".join(map(spell, w)) if w else "1" for w in words) for words in families]


def _descriptor(d) -> str:
    return "null" if d is None else _DESCRIPTOR % (d.free_rank, d.torsion2_rank)


def _template(doc: dict, depth: int) -> str:
    """``json.dumps(doc, indent=2)`` laid out at nesting ``depth``, with every
    "%s" value left as a slot to fill in with already rendered JSON."""
    return json.dumps(doc, indent=2).replace('"%s"', "%s").replace("\n", "\n" + "  " * depth)


def _slots(*keys: str) -> dict:
    return dict.fromkeys(keys, "%s")


# The rows, blocks and whole documents, each at its depth; an edge or word
# row is split at its slots, to be filled by one f-string per row.
_FLAG = {True: "true", False: "false"}
_EDGE_HEAD, _EDGE_V, _EDGE_M, _EDGE_TAIL = ("    " + _template(_slots("u", "v", "m"), 2)).split("%s")
_WORD_HEAD, _WORD_FLAG, _WORD_TAIL = ("      " + _template(_slots("word", "abelianization_zero"), 3)).split("%s")
_TRAJECTORY_ROW = "    " + _template(_slots("n", "rank"), 2)
_DESCRIPTOR = _template(_slots("free_rank", "torsion2_rank"), 1)
_PROFILE = {
    **_slots("vertices", "edges", "p", "q1", "q2", "q3", "q"),
    "n": _slots("n1", "n2", "n3", "n4"),
    **_slots("howlett_identity", "h1_artin_free_rank", "h2_orbit", "h2_coxeter", "h2_artin_mod2_rank"),
    "corollary": _slots("all_torsion", "odd_equals_gamma", "tree", "applies"),
    "h2_artin_integral": "%s",
}
_COMPUTE = _template(_PROFILE, 0) + "\n"
_GENERATORS = _template({**_PROFILE, "generators": {
    **_slots("flavor", "omega1", "omega2", "omega3"),
    "counts": _slots("omega1", "omega2", "omega3", "total", "expected_total"),
}}, 0) + "\n"
_STABILITY = _template(_slots("trajectory", "verdict"), 0) + "\n"


def _array(rows: list[str], indent: str) -> str:
    """A JSON array of rendered rows whose closing bracket sits at ``indent``."""
    if not rows:
        return "[]"
    return "[\n" + ",\n".join(rows) + "\n" + indent + "]"


def render_json(g: CoxeterGraph, profile: InvariantProfile, omegas: Optional[OmegaSets] = None) -> str:
    """The JSON document, keys in a fixed order: the bytes of
    ``json.dumps(doc, indent=2) + "\\n"``, filled in from templates with
    their strings quoted by the C encoder."""
    names = [_quote(name) for name in g.vertices]
    inf = '"inf"'
    edges = [
        f"{_EDGE_HEAD}{names[i]}{_EDGE_V}{names[j]}{_EDGE_M}{inf if m == INFINITY else m}{_EDGE_TAIL}"
        for (i, j), m in g.labels.items()
    ]
    fields = (
        _array([f"    {name}" for name in names], "  "), _array(edges, "  "),
        profile.p, profile.q1, profile.q2, profile.q3, profile.q,
        profile.n1, profile.n2, profile.n3, profile.n4,
        _FLAG[profile.howlett_identity], profile.n4,
        _descriptor(profile.h2_orbit), _descriptor(profile.h2_coxeter), profile.mod2_rank,
        _FLAG[profile.all_torsion], _FLAG[profile.odd_equals_gamma], _FLAG[profile.tree],
        _FLAG[profile.corollary_applies], _descriptor(profile.h2_artin_integral),
    )
    if omegas is None:
        return _COMPUTE % fields
    families = (omegas.omega1, omegas.omega2, omegas.omega3)
    # the encoder quotes each character alone, so words spelled from the
    # quoted names, less their quotes, are the quoted word texts, less theirs
    arrays = [
        _array([f'{_WORD_HEAD}"{text}"{_WORD_FLAG}{_FLAG[in_commutator_subgroup(w)]}{_WORD_TAIL}'
                for w, text in zip(words, texts)], "    ")
        for words, texts in zip(families, word_texts(families, [name[1:-1] for name in names]))
    ]
    return _GENERATORS % (*fields, _quote(omegas.flavor), *arrays, *map(len, families), omegas.total, profile.mod2_rank)


def render_stability(report: StabilityReport) -> str:
    """The ``stability --json`` document: the bytes of
    ``json.dumps(doc, indent=2) + "\\n"``, filled in from templates."""
    rows = [_TRAJECTORY_ROW % row for row in report.trajectory]
    return _STABILITY % (_array(rows, "  "), _FLAG[report.stable])
