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
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .errors import CoxhomError, echo

INFINITY = math.inf

# Finite labels are ints >= 2; INFINITY is the only non-int value allowed.
Label = Union[int, float]


def is_finite(m: Label) -> bool:
    return m != INFINITY


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
    return m


@dataclass(frozen=True)
class CoxeterGraph:
    """Sparse Coxeter graph over an ordered vertex sequence.

    ``labels`` maps index pairs (i, j) with i < j to their label, in
    increasing pair order; pairs with m = 2 are never stored.  Instances are
    treated as immutable.
    """

    vertices: tuple[str, ...]
    labels: dict[tuple[int, int], Label]

    def label_ix(self, i: int, j: int) -> Label:
        """Label by vertex index, with the implicit diagonal and default 2."""
        if i == j:
            return 1
        if i > j:
            i, j = j, i
        return self.labels.get((i, j), 2)


@dataclass(frozen=True)
class PlainGraph:
    """Unlabeled graph whose edges join vertex indices.

    ``vertices`` holds one name per vertex.  Chains orient an edge (i, j)
    with i < j, boundary j - i, as ``odd_subgraph`` lists them.
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
        if name in index:
            raise CoxhomError(f"vertex {echo(name)} declared twice")
        index[name] = len(index)
    labels: dict[tuple[int, int], Label] = {}
    checked: dict[tuple[type, Label], Label] = {}  # typed, as 3.0 == 3 and True == 1 are refused
    for u, v, m in edges:
        i = index.get(u)
        if i is None:
            raise CoxhomError(f"unknown vertex {echo(u)}")
        j = index.get(v)
        if j is None:
            raise CoxhomError(f"unknown vertex {echo(v)}")
        if i == j:
            raise CoxhomError(f"self-loop at {echo(u)}")
        key = type(m), m
        try:
            m = checked[key]
        except KeyError:
            m = checked[key] = _check_label(m)
        except TypeError:  # an unhashable label is checked without the memo
            m = _check_label(m)
        i, j = (i, j) if i < j else (j, i)
        seen = labels.get((i, j))
        if seen is not None and seen != m:
            raise CoxhomError(
                f"pair ({echo(u)}, {echo(v)}) listed with labels "
                f"{echo(str(seen), False)} and {echo(str(m), False)}"
            )
        labels[(i, j)] = m
    labels = {pair: m for pair, m in sorted(labels.items()) if m != 2}
    return CoxeterGraph(tuple(index), labels)


def odd_subgraph(g: CoxeterGraph) -> PlainGraph:
    """Subgraph keeping all vertices and exactly the finite-odd-labeled edges."""
    edges = tuple(pair for pair, m in g.labels.items() if is_odd(m))
    return PlainGraph(g.vertices, edges)


# -- catalog ------------------------------------------------------------------

def _names(n: int) -> list[str]:
    return [f"s{i}" for i in range(1, n + 1)]


def _path(n: int, labels: Sequence[Label]) -> CoxeterGraph:
    names = _names(n)
    return build_graph(names, [(names[i], names[i + 1], labels[i]) for i in range(n - 1)])


def _type_a(n: int) -> CoxeterGraph:
    return _path(n, [3] * (n - 1))


def _type_b(n: int) -> CoxeterGraph:
    return _path(n, [4] + [3] * (n - 2))


def _type_d(n: int) -> CoxeterGraph:
    # fork s1, sn at s2; path s2..s_{n-1}
    names = _names(n)
    edges = [(names[0], names[1], 3), (names[n - 1], names[1], 3)]
    edges += [(names[i], names[i + 1], 3) for i in range(1, n - 2)]
    return build_graph(names, edges)


def _type_e(n: int) -> CoxeterGraph:
    # path s1 s3 s4 ... sn with s2 attached to s4
    names = _names(n)
    chain = [names[0]] + names[2:]
    edges = [(chain[i], chain[i + 1], 3) for i in range(len(chain) - 1)]
    edges.append((names[1], names[3], 3))
    return build_graph(names, edges)


def _type_i2(m: Label) -> CoxeterGraph:
    return build_graph(["s1", "s2"], [("s1", "s2", m)])


def _affine_a(n: int) -> CoxeterGraph:
    names = _names(n + 1)
    edges = [(names[i], names[i + 1], 3) for i in range(n)]
    edges.append((names[0], names[n], 3))
    return build_graph(names, edges)


def _affine_b(n: int) -> CoxeterGraph:
    # fork s1, s2 at s3; path s3..sn; final edge sn - s_{n+1} labeled 4
    names = _names(n + 1)
    edges = [(names[0], names[2], 3), (names[1], names[2], 3)]
    edges += [(names[i], names[i + 1], 3) for i in range(2, n - 1)]
    edges.append((names[n - 1], names[n], 4))
    return build_graph(names, edges)


def _affine_c(n: int) -> CoxeterGraph:
    return _path(n + 1, [4] + [3] * (n - 2) + [4])


def _affine_d(n: int) -> CoxeterGraph:
    # forks s1, s2 at s3 and sn, s_{n+1} at s_{n-1}; path s3..s_{n-1}
    names = _names(n + 1)
    edges = [(names[0], names[2], 3), (names[1], names[2], 3)]
    edges += [(names[i], names[i + 1], 3) for i in range(2, n - 2)]
    edges += [(names[n - 1], names[n - 2], 3), (names[n], names[n - 2], 3)]
    return build_graph(names, edges)


def _affine_e(n: int) -> CoxeterGraph:
    g = _type_e(n)
    names = _names(n + 1)
    attach = {6: names[1], 7: names[0], 8: names[n - 1]}[n]
    edges = [(names[i], names[j], m) for (i, j), m in g.labels.items()]
    edges.append((names[n], attach, 3))
    return build_graph(names, edges)


# family key -> ((least n, greatest n or None), builder, description for `catalog list`)
_CATALOG = {
    "A": ((1, None), _type_a, "path of n vertices, all edges 3"),
    "B": ((2, None), _type_b, "path, first edge 4, rest 3"),
    "D": ((4, None), _type_d, "path with a fork of two 3-edges at one end"),
    "E": ((6, 8), _type_e, "path with one branch vertex"),
    "F": ((4, 4), lambda n: _path(4, [3, 4, 3]), "path, edges 3,4,3"),
    "H": ((3, 4), lambda n: _path(n, [5] + [3] * (n - 2)), "path, first edge 5, rest 3"),
    "~A": ((2, None), _affine_a, "cycle of n+1 vertices, all edges 3"),
    "~B": ((3, None), _affine_b, "forked path ending in a 4-edge"),
    "~C": ((2, None), _affine_c, "path with both end edges 4"),
    "~D": ((4, None), _affine_d, "path with a fork of two 3-edges at each end"),
    "~E": ((6, 8), _affine_e, "extended E diagram"),
}
_I2_MIN = 3
# Largest catalog parameter n.  At n = 3000, compute and generators --json
# take about 0.3 s and 25 MB on every family; check's brute-force pair
# closure grows as about n**4.4 and is not bounded by this limit.
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
        return _type_i2(value)
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
    (lo, hi), builder, _ = _CATALOG[family]
    if n < lo or (hi is not None and n > hi):
        raise CoxhomError(f"{family}{n}: parameter out of range ({_constraint(lo, hi)})")
    return builder(n)


def catalog_grammar() -> list[tuple[str, str, str]]:
    """(pattern, constraint, description) rows for the supported names."""
    rows = [(f"{family}<n>", _constraint(*bounds), description)
            for family, (bounds, _, description) in _CATALOG.items()]
    rows.insert(6, ("I2(<m>|inf)", f"m >= {_I2_MIN}", "single edge labeled m"))
    return rows
