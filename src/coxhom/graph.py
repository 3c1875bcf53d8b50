"""Coxeter graph data model, standard diagram catalog, and derived subgraphs.

A Coxeter graph is a finite vertex set with a symmetric label m(s, t) on each
unordered pair of distinct vertices: an integer >= 2 or ``INFINITY``.  Only
labels != 2 are stored; an absent pair means m = 2 and the diagonal value
m(s, s) = 1 is implicit.  The vertex sequence fixes the total order used by
every downstream construction (relators, chain orientations, canonical class
representatives).
"""

from __future__ import annotations

import math
import re
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import CoxhomError, echo

INFINITY = math.inf

# Finite labels are ints >= 2; INFINITY is the only non-int value allowed.
Label = Union[int, float]


def is_odd(m: Label) -> bool:
    """True for finite odd labels; INFINITY is neither odd nor even."""
    return m != INFINITY and m % 2 == 1


def is_even(m: Label) -> bool:
    """True for finite even labels; INFINITY is neither odd nor even."""
    return m != INFINITY and m % 2 == 0


# Python's int() refuses a decimal string of more digits than this, and str()
# an int of more digits.
MAX_LABEL_DIGITS = 4300
_LABEL_BOUND = 10**MAX_LABEL_DIGITS  # the least int of more digits


# int() would also take "1_000", surrounding spaces and non-ASCII digits.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def read_label(token: str) -> Label:
    """The label a token spells, `inf` or an optional sign and ASCII digits,
    not yet range-checked."""
    if token == "inf":
        return INFINITY
    if not _INTEGER_RE.fullmatch(token):
        raise CoxhomError(f"label must be an integer >= 2 or `inf`, got {echo(token)}")
    digits = token.lstrip("+-")
    if len(digits) > MAX_LABEL_DIGITS:
        raise CoxhomError(f"label has {len(digits)} digits, above the limit of {MAX_LABEL_DIGITS}")
    return int(token)


def _check_label(m: Label) -> Label:
    if m == INFINITY:
        return INFINITY
    if isinstance(m, bool) or not isinstance(m, int):
        raise CoxhomError(f"label must be an integer >= 2 or INFINITY, got {echo(repr(m), False)}")
    if abs(m) >= _LABEL_BOUND:  # before any str(m), which would raise ValueError
        raise CoxhomError(f"label has more than {MAX_LABEL_DIGITS} digits, above the limit")
    if m < 2:
        raise CoxhomError(f"label must be >= 2, got {echo(str(m), False)}")
    return int(m)  # a plain int: a subclass may format or compare as it likes


class CoxeterGraph(NamedTuple):
    """Sparse Coxeter graph over an ordered vertex sequence.

    ``labels`` maps index pairs (i, j) with i < j to their label, in
    increasing pair order; pairs with m = 2 are never stored.  Instances are
    treated as immutable.
    """

    vertices: tuple[str, ...]
    labels: dict[tuple[int, int], Label]


class PlainGraph(NamedTuple):  # kept because bench/spans.py counts odd edges and cycles by its fields
    """Unlabeled graph whose edges join vertex indices.

    ``vertices`` holds one name per vertex, ``edges`` each edge (i, j), i < j,
    in increasing pair order, as ``odd_subgraph`` lists them (the forest relies on it).
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]


def build_graph(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str, Label]] = (),
) -> CoxeterGraph:
    """Construct a canonical sparse graph from vertex names and labeled edges.

    Edges explicitly labeled 2 are dropped into the implicit default.  Listing
    the same pair twice is allowed only with equal labels.  Each iterable is
    consumed once, vertices first, so an error is raised while the offending
    row is the latest one drawn.
    """
    index: dict[str, int] = {}
    for name in vertices:
        if not isinstance(name, str):
            raise CoxhomError(f"vertex name must be a str, got {echo(repr(name), False)}")
        if name in index:
            raise CoxhomError(f"vertex {echo(name)} declared twice")
        if name.endswith("^-1"):
            raise CoxhomError(f"vertex name {echo(name)} ends in `^-1`, which word texts read as an inverse")
        if name.split() != [name]:  # word texts join letters with spaces
            raise CoxhomError(f"vertex name {echo(name)} is empty or holds whitespace, which word texts cannot spell")
        index[name] = len(index)
    labels: dict[tuple[int, int], Label] = {}
    for u, v, m in edges:
        try:
            i = index[u]
            j = index[v]
        except (KeyError, TypeError):  # a name's type is tested only here, on a miss or an unhashable name
            for name in (u, v):
                if not isinstance(name, str):
                    raise CoxhomError(f"vertex name must be a str, got {echo(repr(name), False)}") from None
            raise CoxhomError(f"unknown vertex {echo(u if u not in index else v)}") from None
        if i == j:
            raise CoxhomError(f"self-loop at {echo(u)}")
        # a type test: 3.0 == 3 and True == 1 are refused, and a float inf other than INFINITY is normalised
        if not (type(m) is int and 2 <= m < _LABEL_BOUND) and m is not INFINITY:
            m = _check_label(m)
        seen = labels.setdefault((i, j) if i < j else (j, i), m)
        if seen != m:
            raise CoxhomError(
                f"pair ({echo(u)}, {echo(v)}) listed with labels "
                f"{echo(str(seen), False)} and {echo(str(m), False)}"
            )
    labels = {pair: m for pair, m in sorted(labels.items()) if m != 2}
    return CoxeterGraph(tuple(index), labels)


def odd_subgraph(g: CoxeterGraph) -> PlainGraph:
    """Subgraph keeping all vertices and exactly the finite-odd-labeled edges."""
    edges = tuple(pair for pair, m in g.labels.items() if is_odd(m))
    return PlainGraph(g.vertices, edges)


# -- catalog ------------------------------------------------------------------

def _path(labels: Sequence[Label], start: int = 0) -> list[tuple[int, int, Label]]:
    """0-based edges of a path from vertex ``start``, one per label."""
    return [(start + k, start + k + 1, m) for k, m in enumerate(labels)]


def _e(n: int) -> list[tuple[int, int, Label]]:
    # path s1 s3 s4 ... sn with s2 attached to s4
    return [(0, 2, 3), (1, 3, 3), *_path([3] * (n - 3), start=2)]


# family key -> ((least n, greatest n or None), 0-based edges of the n-th
# diagram, description for `catalog list`); a `~` family has n + 1 vertices
_CATALOG = {
    "A": ((1, None), lambda n: _path([3] * (n - 1)), "path of n vertices, all edges 3"),
    "B": ((2, None), lambda n: _path([4] + [3] * (n - 2)), "path, first edge 4, rest 3"),
    "D": ((4, None), lambda n: [(1, n - 1, 3), *_path([3] * (n - 2))], "path with a fork of two 3-edges at one end"),
    "E": ((6, 8), _e, "path with one branch vertex"),
    "F": ((4, 4), lambda n: _path([3, 4, 3]), "path, edges 3,4,3"),
    "H": ((3, 4), lambda n: _path([5] + [3] * (n - 2)), "path, first edge 5, rest 3"),
    "~A": ((2, None), lambda n: [(0, n, 3), *_path([3] * n)], "cycle of n+1 vertices, all edges 3"),
    "~B": ((3, None), lambda n: [(0, 2, 3), *_path([3] * (n - 2) + [4], start=1)], "forked path ending in a 4-edge"),
    "~C": ((2, None), lambda n: _path([4] + [3] * (n - 2) + [4]), "path with both end edges 4"),
    "~D": ((4, None), lambda n: [(0, 2, 3), (n - 2, n, 3), *_path([3] * (n - 2), start=1)],
           "path with a fork of two 3-edges at each end"),
    "~E": ((6, 8), lambda n: [({6: 1, 7: 0, 8: n - 1}[n], n, 3), *_e(n)], "extended E diagram"),
}
_I2_MIN = 3
# Largest catalog parameter n.  compute and generators --json hold the pair
# classes' slot per vertex pair, so their memory grows as n**2.  check's pair
# closure oracle holds each commuting pair once, about n**2 on A_n or an
# edgeless graph, and takes about n**3 steps on a dense random one; this limit
# does not bound it.  A graph file may have MAX_CATALOG_N + 1 vertices, as
# ~A<MAX_CATALOG_N> has.  tests/limits.py holds each command's time budget here.
MAX_CATALOG_N = 3000

_I2_RE = re.compile(r"I2\(([0-9]+|inf)\)")
_FAMILY_RE = re.compile(r"(~?[A-Z])([0-9]+)")


def _constraint(lo: int, hi: int | None) -> str:
    if hi is None:
        return f"n >= {lo}"
    if lo == hi:
        return f"n = {lo}"
    return "n in {" + ",".join(str(n) for n in range(lo, hi + 1)) + "}"


def from_catalog(name: str) -> CoxeterGraph:
    """Standard diagram by name: A<n>, B<n>, D<n>, E6..E8, F4, H3, H4,
    I2(<m>|inf), ~A<n>, ~B<n>, ~C<n>, ~D<n>, ~E6..~E8."""
    m = _I2_RE.fullmatch(name)
    if m:
        value = read_label(m.group(1))
        if value < _I2_MIN:
            raise CoxhomError(f"I2 requires m >= {_I2_MIN} or inf, got {value}")
        return CoxeterGraph(("s1", "s2"), {(0, 1): value})  # value is a plain int >= 3 or INFINITY itself
    m = _FAMILY_RE.fullmatch(name)
    if not m:
        raise CoxhomError(f"unknown catalog name {echo(name)}")
    family, digits = m.group(1), m.group(2).lstrip("0") or "0"
    if family not in _CATALOG:
        raise CoxhomError(f"unknown catalog family {family!r}")
    # lengths first: int() refuses a string of thousands of digits
    if len(digits) > len(str(MAX_CATALOG_N)) or int(digits) > MAX_CATALOG_N:
        raise CoxhomError(f"{echo(name, False)}: parameter above the limit n <= {MAX_CATALOG_N}")
    n = int(digits)
    (lo, hi), edges, _ = _CATALOG[family]
    if n < lo or (hi is not None and n > hi):
        raise CoxhomError(f"{family}{n}: parameter out of range ({_constraint(lo, hi)})")
    # a table lists each pair once, i < j, none labelled 2: its sorted rows are the labels
    names = tuple(f"s{k}" for k in range(1, n + 1 + family.startswith("~")))
    return CoxeterGraph(names, {(i, j): m for i, j, m in sorted(edges(n))})


def catalog_grammar() -> list[tuple[str, str, str]]:
    """(pattern, constraint, description) rows for the supported names."""
    rows = [(f"{family}<n>", _constraint(*bounds), description)
            for family, (bounds, _, description) in _CATALOG.items()]
    rows.insert(6, ("I2(<m>|inf)", f"m >= {_I2_MIN}", "single edge labeled m"))
    return rows
