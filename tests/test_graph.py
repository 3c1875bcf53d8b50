from __future__ import annotations

import re

import pytest

from conftest import corpus_graphs
from coxhom.cli import main
from coxhom.errors import CoxhomError
from coxhom.graph import (
    INFINITY,
    MAX_CATALOG_N,
    build_graph,
    catalog_grammar,
    extend_family,
    from_catalog,
    odd_subgraph,
)


def test_build_graph_stores_labels():
    g = build_graph(["s", "t"], [("s", "t", 3)])
    assert g.label_ix(g.vertices.index("s"), g.vertices.index("t")) == 3
    assert g.vertices == ("s", "t")


def test_build_graph_drops_explicit_label_two():
    g = build_graph(["s", "t"], [("s", "t", 2)])
    assert g.labels == {}
    assert g.label_ix(g.vertices.index("s"), g.vertices.index("t")) == 2


def test_build_graph_conflicting_labels():
    with pytest.raises(CoxhomError, match="listed with labels 3 and 4"):
        build_graph(["s", "t"], [("s", "t", 3), ("t", "s", 4)])


def test_build_graph_duplicate_listing_with_equal_label_is_fine():
    g = build_graph(["s", "t"], [("s", "t", 3), ("t", "s", 3)])
    assert g.label_ix(g.vertices.index("s"), g.vertices.index("t")) == 3


def test_build_graph_errors_name_the_offender():
    with pytest.raises(CoxhomError, match="vertex 'a' declared twice"):
        build_graph(["a", "a"])
    with pytest.raises(CoxhomError, match="unknown vertex 'b'"):
        build_graph(["a"], [("a", "b", 3)])
    with pytest.raises(CoxhomError, match="self-loop at 'a'"):
        build_graph(["a"], [("a", "a", 3)])


def test_label_ix_diagonal_and_defaults():
    a3 = from_catalog("A3")
    s1, s2, s3 = (a3.vertices.index(s) for s in ("s1", "s2", "s3"))
    assert a3.label_ix(s1, s2) == 3
    assert a3.label_ix(s2, s1) == 3
    assert a3.label_ix(s1, s1) == 1
    assert a3.label_ix(s1, s3) == 2


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


def test_catalog_parameter_errors():
    for bad in ["A0", "B1", "D3", "E5", "E9", "F5", "H2", "I2(1)", "I2(2)", "~A1", "~B2", "~C1", "~D3", "~E5"]:
        with pytest.raises(CoxhomError, match=r"parameter out of range|I2 requires m >= 3"):
            from_catalog(bad)
    for unknown in ["X5", "~H3", "A", "I2()", "I2(x)", "foo", "~F4"]:
        with pytest.raises(CoxhomError, match="unknown catalog"):
            from_catalog(unknown)


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


def test_extend_family_steps():
    assert extend_family(from_catalog("A1")) == from_catalog("A2")
    assert extend_family(from_catalog("A2")) == from_catalog("A3")
    g = extend_family(from_catalog("I2(4)"))
    assert g.labels == {(0, 1): 4, (1, 2): 3}
    assert extend_family(build_graph(["s3", "x"])).vertices == ("s3", "x", "s4")


def test_extend_family_rejects_empty_graph():
    with pytest.raises(CoxhomError, match="cannot extend the empty graph"):
        extend_family(build_graph([]))


def test_extend_family_reaches_every_a_type():
    g = from_catalog("A1")
    for n in range(2, 8):
        g = extend_family(g)
        assert g == from_catalog(f"A{n}")


def test_label_symmetry_on_corpus():
    for g in corpus_graphs(40):
        for s in g.vertices:
            for t in g.vertices:
                i, j = g.vertices.index(s), g.vertices.index(t)
                assert g.label_ix(i, j) == g.label_ix(j, i)
