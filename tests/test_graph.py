from __future__ import annotations

import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (LABEL_SUPPORT, SPARSE_WEIGHTS, catalog_sample, corpus_graphs, label_ix, random_coxeter_graph,
                      render_graph)
from coxhom.cli import main
from coxhom.errors import ECHO_LIMIT, CoxhomError
from coxhom.graph import (
    _CATALOG,
    INFINITY,
    MAX_CATALOG_N,
    MAX_LABEL_DIGITS,
    build_graph,
    catalog_grammar,
    from_catalog,
    odd_subgraph,
)
from coxhom.invariants import analyze
from coxhom.io import parse_graph, render_json


def test_build_graph_stores_labels():
    g = build_graph(["s", "t"], [("s", "t", 3)])
    assert label_ix(g, g.vertices.index("s"), g.vertices.index("t")) == 3
    assert g.vertices == ("s", "t")


def test_build_graph_drops_explicit_label_two():
    g = build_graph(["s", "t"], [("s", "t", 2)])
    assert g.labels == {}
    assert label_ix(g, g.vertices.index("s"), g.vertices.index("t")) == 2


def test_build_graph_conflicting_labels():
    with pytest.raises(CoxhomError, match="listed with labels 3 and 4"):
        build_graph(["s", "t"], [("s", "t", 3), ("t", "s", 4)])


def test_build_graph_duplicate_listing_with_equal_label_is_fine():
    g = build_graph(["s", "t"], [("s", "t", 3), ("t", "s", 3)])
    assert label_ix(g, g.vertices.index("s"), g.vertices.index("t")) == 3


def test_build_graph_errors_name_the_offender():
    with pytest.raises(CoxhomError, match="vertex 'a' declared twice"):
        build_graph(["a", "a"])
    with pytest.raises(CoxhomError, match="unknown vertex 'b'"):
        build_graph(["a"], [("a", "b", 3)])
    with pytest.raises(CoxhomError, match="self-loop at 'a'"):
        build_graph(["a"], [("a", "a", 3)])


def test_build_graph_refuses_vertex_names_that_are_not_str():
    # a name is echoed in messages and quoted in JSON as a str; an edge's
    # endpoint is refused alike, whether it hashes (1) or not (["b"])
    for vertices, edges, shown in (([1, 1], (), "1"), ([1, 2], [(1, 2, 4)], "1"), ([["a"]], (), "\\['a'\\]"),
                                   (["a", "b"], [(1, "a", 3)], "1"), (["a", "b"], [("a", ["b"], 3)], "\\['b'\\]"),
                                   (["a", "b"], [("x", 2.5, 3)], "2.5")):
        with pytest.raises(CoxhomError, match=f"^vertex name must be a str, got {shown}$"):
            build_graph(vertices, edges)


class _Three(int):
    def __format__(self, spec):
        return "three"


def test_build_graph_stores_finite_labels_as_plain_ints():
    # a label of an int subclass is stored as the int it equals, so JSON writes its digits
    g = build_graph(["a", "b"], [("a", "b", _Three(3))])
    assert type(g.labels[0, 1]) is int
    assert json.loads(render_json(g, analyze(g)))["edges"] == [{"u": "a", "v": "b", "m": 3}]


def test_build_graph_reads_any_float_inf_as_infinity():
    # the parser's labels are the INFINITY object itself; a library caller's
    # float("inf") is another object, normalised to it
    inf = float("inf")
    assert inf is not INFINITY
    g = build_graph(["s", "t", "u"], [("s", "t", inf), ("t", "u", INFINITY), ("u", "s", 3)])
    assert all(g.labels[pair] is INFINITY for pair in ((0, 1), (1, 2)))
    with pytest.raises(CoxhomError, match="unknown vertex 'x'"):
        build_graph(["s"], [("x", "x", inf)])  # the vertices are checked before the label


def test_build_graph_label_errors_cut_long_values_short():
    with pytest.raises(CoxhomError) as info:
        build_graph(["a", "b"], [("a", "b", -10**200)])
    digits = str(-10**200)
    assert str(info.value) == f"label must be >= 2, got {digits[:ECHO_LIMIT]}... ({len(digits)} characters)"
    label = "x" * 300
    with pytest.raises(CoxhomError) as info:
        build_graph(["a", "b"], [("a", "b", label)])
    shown = f"{repr(label)[:ECHO_LIMIT]}... ({len(label) + 2} characters)"
    assert str(info.value) == f"label must be an integer >= 2 or INFINITY, got {shown}"
    with pytest.raises(CoxhomError, match="^label must be >= 2, got 1$"):
        build_graph(["a", "b"], [("a", "b", 1)])


def test_build_graph_checks_labels_by_type_and_value():
    # 3.0 == 3 and True == 1 hash alike; a label seen valid once must not let them through
    for valid, refused in ((3, 3.0), (2, True), (3, True), (INFINITY, 10**4301)):
        with pytest.raises(CoxhomError, match="^label "):
            build_graph(["a", "b", "c"], [("a", "b", valid), ("b", "c", refused)])
    with pytest.raises(CoxhomError, match="^label must be an integer >= 2 or INFINITY, got \\[3\\]$"):
        build_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", [3])])
    g = build_graph(["a", "b", "c"], [("a", "b", 3), ("b", "c", 3), ("c", "a", 3)])
    assert g.labels == {(0, 1): 3, (0, 2): 3, (1, 2): 3}
    assert all(type(m) is int for m in g.labels.values())


def test_build_graph_refuses_labels_of_too_many_digits():
    # str() of an int of more than MAX_LABEL_DIGITS digits raises ValueError,
    # so such a label must be refused before any message or rendering spells it
    huge = 10**5000
    limit = f"^label has more than {MAX_LABEL_DIGITS} digits, above the limit$"
    for edges in ([("a", "b", -huge)], [("a", "b", 3), ("b", "a", huge)], [("a", "b", huge)]):
        with pytest.raises(CoxhomError, match=limit):
            build_graph(["a", "b"], edges)
    widest = 10**MAX_LABEL_DIGITS - 1
    assert render_graph(build_graph(["a", "b"], [("a", "b", widest)])).endswith(f"edge a b {widest}\n")


def test_catalog_diagrams_equal_their_tables_built_by_build_graph():
    # from_catalog builds a family's diagram straight from its 0-based table;
    # build_graph, which checks and sorts each row, must give the same graph
    names = [name for name in catalog_sample() if not name.startswith("I2")]  # I2 goes through build_graph
    names += [f"{family}{lo}" for family, ((lo, _), _, _) in _CATALOG.items()]
    names += [f"{family}{n - family.startswith('~')}" for family, ((_, hi), _, _) in _CATALOG.items()
              if hi is None for n in range(60, 98)]  # the sparse_family benchmark's vertex counts
    names += ["A3000", "~A3000", "~D3000"]
    for name in names:
        family, n = re.fullmatch(r"(~?[A-Z])([0-9]+)", name).groups()
        table = _CATALOG[family][1](int(n))
        vertices = [f"s{k}" for k in range(1, int(n) + 1 + family.startswith("~"))]
        expected = build_graph(vertices, [(vertices[i], vertices[j], m) for i, j, m in table])
        g = from_catalog(name)
        assert g == expected
        assert list(g.labels.items()) == list(expected.labels.items())  # the same pair order
        assert len(table) == len(g.labels)  # each pair listed once


def _assert_in_pair_order(g):
    """The CoxeterGraph contract: pairs (i, j) with i < j, increasing, no label 2."""
    assert list(g.labels) == sorted(g.labels)
    assert all(0 <= i < j < len(g.vertices) for i, j in g.labels)
    assert 2 not in g.labels.values()


@given(st.integers(1, 8), st.lists(st.sampled_from(LABEL_SUPPORT), min_size=28, max_size=28),
       st.randoms(use_true_random=False))
def test_build_graph_stores_labels_in_pair_order(n, draws, rng):
    names = [f"v{i}" for i in range(n)]
    drawn = list(zip(combinations(range(n), 2), draws))
    edges = [(names[j], names[i], m) if rng.random() < 0.5 else (names[i], names[j], m)
             for (i, j), m in drawn]
    rng.shuffle(edges)
    g = build_graph(names, edges)
    _assert_in_pair_order(g)
    assert g.labels == {pair: m for pair, m in drawn if m != 2}


def test_every_graph_source_stores_labels_in_pair_order():
    rng = random.Random(13)
    graphs = [from_catalog(name) for name in catalog_sample()]
    graphs += corpus_graphs(40) + [random_coxeter_graph(rng, 30, SPARSE_WEIGHTS)]
    for g in corpus_graphs(20, base_seed=300):
        lines = [f"vertex {name}" for name in g.vertices]
        lines += [f"edge {g.vertices[j]} {g.vertices[i]} {'inf' if m == INFINITY else m}"
                  for (i, j), m in reversed(g.labels.items())]
        parsed = parse_graph("\n".join(lines))
        assert parsed == g
        graphs.append(parsed)
    for g in graphs:
        _assert_in_pair_order(g)


def test_label_ix_diagonal_and_defaults():
    a3 = from_catalog("A3")
    s1, s2, s3 = (a3.vertices.index(s) for s in ("s1", "s2", "s3"))
    assert label_ix(a3, s1, s2) == 3
    assert label_ix(a3, s2, s1) == 3
    assert label_ix(a3, s1, s1) == 1
    assert label_ix(a3, s1, s3) == 2


def test_odd_subgraph_parity():
    assert odd_subgraph(from_catalog("I2(4)")).edges == ()
    assert odd_subgraph(from_catalog("I2(5)")).edges == ((0, 1),)
    # infinite labels are neither odd nor even
    assert odd_subgraph(from_catalog("I2(inf)")).edges == ()
    b3 = from_catalog("B3")  # labels 4, 3 along the path
    assert odd_subgraph(b3).edges == ((1, 2),)


def test_catalog_basic_shapes():
    a3 = from_catalog("A3")
    assert a3.vertices == ("s1", "s2", "s3")
    assert a3.labels == {(0, 1): 3, (1, 2): 3}
    i27 = from_catalog("I2(7)")
    assert i27.labels == {(0, 1): 7}
    assert from_catalog("I2(inf)").labels == {(0, 1): INFINITY}


def test_catalog_affine_d4_is_the_star():
    g = from_catalog("~D4")
    assert len(g.vertices) == 5
    center = 2  # s3
    assert sorted(g.labels) == [(0, 2), (1, 2), (2, 3), (2, 4)]
    assert all(m == 3 for m in g.labels.values())
    degrees = [0] * 5
    for i, j in g.labels:
        degrees[i] += 1
        degrees[j] += 1
    assert degrees[center] == 4


# Each family at its least n and least n + 1, the unbounded ones also at
# n = 12, and every member of the bounded ones: vertex count and labels.
_CATALOG_SHAPES = [
    ("A1", 1, {}),
    ("A2", 2, {(0, 1): 3}),
    ("A12", 12, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3,
        (7, 8): 3, (8, 9): 3, (9, 10): 3, (10, 11): 3}),
    ("B2", 2, {(0, 1): 4}),
    ("B3", 3, {(0, 1): 4, (1, 2): 3}),
    ("B12", 12, {(0, 1): 4, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3,
        (7, 8): 3, (8, 9): 3, (9, 10): 3, (10, 11): 3}),
    ("D4", 4, {(0, 1): 3, (1, 2): 3, (1, 3): 3}),
    ("D5", 5, {(0, 1): 3, (1, 2): 3, (1, 4): 3, (2, 3): 3}),
    ("D12", 12, {(0, 1): 3, (1, 2): 3, (1, 11): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3,
        (6, 7): 3, (7, 8): 3, (8, 9): 3, (9, 10): 3}),
    ("E6", 6, {(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3}),
    ("E7", 7, {(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3}),
    ("E8", 8, {(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3}),
    ("F4", 4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}),
    ("H3", 3, {(0, 1): 5, (1, 2): 3}),
    ("H4", 4, {(0, 1): 5, (1, 2): 3, (2, 3): 3}),
    ("~A2", 3, {(0, 1): 3, (0, 2): 3, (1, 2): 3}),
    ("~A3", 4, {(0, 1): 3, (0, 3): 3, (1, 2): 3, (2, 3): 3}),
    ("~A12", 13, {(0, 1): 3, (0, 12): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3,
        (6, 7): 3, (7, 8): 3, (8, 9): 3, (9, 10): 3, (10, 11): 3, (11, 12): 3}),
    ("~B3", 4, {(0, 2): 3, (1, 2): 3, (2, 3): 4}),
    ("~B4", 5, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 4}),
    ("~B12", 13, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3,
        (7, 8): 3, (8, 9): 3, (9, 10): 3, (10, 11): 3, (11, 12): 4}),
    ("~C2", 3, {(0, 1): 4, (1, 2): 4}),
    ("~C3", 4, {(0, 1): 4, (1, 2): 3, (2, 3): 4}),
    ("~C12", 13, {(0, 1): 4, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3,
        (7, 8): 3, (8, 9): 3, (9, 10): 3, (10, 11): 3, (11, 12): 4}),
    ("~D4", 5, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (2, 4): 3}),
    ("~D5", 6, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (3, 5): 3}),
    ("~D12", 13, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3,
        (7, 8): 3, (8, 9): 3, (9, 10): 3, (10, 11): 3, (10, 12): 3}),
    ("~E6", 7, {(0, 2): 3, (1, 3): 3, (1, 6): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3}),
    ("~E7", 8, {(0, 2): 3, (0, 7): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3}),
    ("~E8", 9, {(0, 2): 3, (1, 3): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (5, 6): 3, (6, 7): 3,
        (7, 8): 3}),
]


@pytest.mark.parametrize("name, count, labels", _CATALOG_SHAPES)
def test_catalog_family_shapes(name, count, labels):
    g = from_catalog(name)
    assert g.vertices == tuple(f"s{k}" for k in range(1, count + 1))
    assert list(g.labels.items()) == sorted(labels.items())


def test_catalog_parameter_errors():
    for bad in ["A0", "B1", "D3", "E5", "E9", "F5", "H2", "I2(1)", "I2(2)", "~A1", "~B2", "~C1", "~D3", "~E5"]:
        with pytest.raises(CoxhomError, match=r"parameter out of range|I2 requires m >= 3"):
            from_catalog(bad)
    for unknown in ["X5", "~H3", "A", "I2()", "I2(x)", "foo", "~F4"]:
        with pytest.raises(CoxhomError, match="unknown catalog"):
            from_catalog(unknown)


@pytest.mark.parametrize("name", ["A3\n", "~D4\n", "I2(5)\n", "A\u0663", "I2(\u0665)"])
def test_catalog_names_are_ascii_and_whole(name, capsys):
    with pytest.raises(CoxhomError) as info:
        from_catalog(name)
    assert str(info.value) == f"unknown catalog name {name!r}"
    assert main(["compute", "--type", name]) == 2
    assert capsys.readouterr() == ("", f"error: unknown catalog name {name!r}\n")


def test_catalog_parameter_limit():
    assert MAX_CATALOG_N >= 3000
    assert len(from_catalog(f"A{MAX_CATALOG_N}").vertices) == MAX_CATALOG_N
    assert from_catalog("~D0012") == from_catalog("~D12")
    for name in (f"A{MAX_CATALOG_N + 1}", f"~D{MAX_CATALOG_N + 1}", "E" + "9" * 5000):
        with pytest.raises(CoxhomError, match=f"parameter above the limit n <= {MAX_CATALOG_N}"):
            from_catalog(name)


def test_catalog_bounds_match_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    listing = capsys.readouterr().out.splitlines()
    rows = catalog_grammar()
    assert len(listing) == len(rows)
    for line, (pattern, constraint, _) in zip(listing, rows):
        assert line.startswith(pattern) and f"  {constraint}  " in line
        lowest = int(re.search(r"\d+", constraint).group())
        placeholder = "<m>|inf" if pattern.startswith("I2") else "<n>"
        assert from_catalog(pattern.replace(placeholder, str(lowest))).vertices
        with pytest.raises(CoxhomError, match=re.escape(constraint)):
            from_catalog(pattern.replace(placeholder, str(lowest - 1)))


def test_catalog_is_deterministic():
    for name in ["A4", "~D5", "E7", "I2(6)"]:
        assert from_catalog(name) == from_catalog(name)
        assert from_catalog(name).vertices == from_catalog(name).vertices


def test_label_symmetry_on_corpus():
    for g in corpus_graphs(40):
        for s in g.vertices:
            for t in g.vertices:
                i, j = g.vertices.index(s), g.vertices.index(t)
                assert label_ix(g, i, j) == label_ix(g, j, i)
