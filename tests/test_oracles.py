from __future__ import annotations

import random

import pytest

from conftest import (
    DEFAULT_WEIGHTS,
    LABEL_SUPPORT,
    SPARSE_WEIGHTS,
    corpus_graphs,
    dihedral_h2_reference,
    incidence_masks,
    listed,
    permuted_copy,
    random_coxeter_graph,
    unread_slot_graph,
)
from coxhom.chains import fundamental_cycle_basis, gf2_rank, mod2_reduce
from coxhom.errors import CoxhomError
from coxhom.graph import INFINITY, PlainGraph, build_graph, from_catalog, odd_subgraph
from coxhom.invariants import analyze, pair_classes
from coxhom.oracles import consistency_report, naive_pair_closure, rational_cycle_rank

K4 = PlainGraph(("a", "b", "c", "d"), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def test_naive_closure_examples():
    assert naive_pair_closure(from_catalog("A4")) == listed(pair_classes(from_catalog("A4")))
    assert naive_pair_closure(from_catalog("~D4")) == listed(pair_classes(from_catalog("~D4")))
    edgeless = build_graph(["a", "b", "c", "d"])
    classes, flags = naive_pair_closure(edgeless)
    assert len(classes) == 6
    assert all(len(block) == 1 for block in classes)
    assert flags == (False,) * 6


def test_rational_cycle_rank_examples():
    assert rational_cycle_rank(odd_subgraph(from_catalog("A5"))) == 0
    triangle = PlainGraph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)))
    assert rational_cycle_rank(triangle) == 1
    assert rational_cycle_rank(K4) == 3


@pytest.mark.parametrize("n", [60, 100])
def test_rational_cycle_rank_matches_q3_on_large_graphs(n):
    for seed in range(2):
        profile = analyze(random_coxeter_graph(random.Random(seed), n))
        assert rational_cycle_rank(profile.odd) == profile.q3


def test_dihedral_reference():
    assert dihedral_h2_reference(4) == 1
    assert dihedral_h2_reference(5) == 0
    assert dihedral_h2_reference(2) == 1
    assert dihedral_h2_reference(INFINITY) == 0
    with pytest.raises(CoxhomError, match="dihedral parameter must be >= 2"):
        dihedral_h2_reference(1)


def test_random_graph_determinism():
    assert random_coxeter_graph(random.Random(42), 8) == random_coxeter_graph(random.Random(42), 8)
    single = random_coxeter_graph(random.Random(1), 1)
    assert len(single.vertices) == 1 and single.labels == {}


def test_random_graph_validation():
    # no cap on the vertex count: a 40-vertex graph draws every label
    large = random_coxeter_graph(random.Random(1), 40, SPARSE_WEIGHTS)
    assert large.vertices == tuple(f"v{i}" for i in range(1, 41))
    assert large == random_coxeter_graph(random.Random(1), 40, SPARSE_WEIGHTS)
    assert set(large.labels.values()) == set(LABEL_SUPPORT) - {2}
    with pytest.raises(CoxhomError, match="vertex count must be >= 1, got 0"):
        random_coxeter_graph(random.Random(1), 0)
    with pytest.raises(CoxhomError, match="weights, one per label"):
        random_coxeter_graph(random.Random(1), 3, (1.0,))
    with pytest.raises(CoxhomError, match="nonnegative with positive sum"):
        random_coxeter_graph(random.Random(1), 3, (0, 0, 0, 0, 0, 0))
    with pytest.raises(CoxhomError, match="nonnegative with positive sum"):
        random_coxeter_graph(random.Random(1), 3, (1.0, -1.0, 1.0, 1.0, 1.0, 1.0))


def test_pair_classes_agree_with_naive_closure():
    for g in corpus_graphs(120, base_seed=40) + [unread_slot_graph()]:
        assert listed(pair_classes(g)) == naive_pair_closure(g)


def test_pair_classes_agree_with_naive_closure_above_ten_vertices():
    graphs = [random_coxeter_graph(random.Random(seed), 11 + seed % 10) for seed in range(10)]
    graphs += [random_coxeter_graph(random.Random(seed), 11 + seed % 10, SPARSE_WEIGHTS)
               for seed in range(10, 20)]
    # mostly 3-edges: each torsion class has many witnesses, where the mixes
    # above also give classes with none
    graphs += [random_coxeter_graph(random.Random(seed), 11 + seed % 10, (2.0, 6.0, 0.5, 0.5, 0.5, 0.5))
               for seed in range(20, 30)]
    graphs += [from_catalog(name) for name in ("~D16", "B16", "~C14", "D18", "A20")]
    # beyond the sizes of the corpus: 30-120 vertices, A100 in a shuffled
    # order (grown through births and joins), and an edgeless graph
    graphs += [random_coxeter_graph(random.Random(seed), n, weights)
               for seed, n in enumerate((30, 60, 90, 120)) for weights in (DEFAULT_WEIGHTS, SPARSE_WEIGHTS)]
    graphs += [permuted_copy(from_catalog("A100"), random.Random(1)), build_graph([f"v{i}" for i in range(100)])]
    shapes = set()
    for g in graphs:
        partition = pair_classes(g)
        assert listed(partition) == naive_pair_closure(g)
        shapes.add((len(partition.classes) >= 4, all(partition.torsion_flags)))
    assert (True, False) in shapes and (True, True) in shapes


def _backbone_graph(rng, n):
    """Odd labels along most of the path v0..v(n-1), sparse random labels elsewhere:
    a vertex's highest odd neighbour is mostly the one before it, whose row
    pair_classes copies, with births that the other labels scatter through it."""
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1:
                m = rng.choice((3, 3, 3, 5, 4, INFINITY))
            else:
                m = rng.choices(LABEL_SUPPORT, weights=(12, 2, 1, 1, 1, 1))[0]
            edges.append((names[i], names[j], m))
    return build_graph(names, edges)


def test_pair_classes_agree_with_naive_closure_along_odd_paths():
    # each row is copied from the row before it, and its births and other
    # odd neighbours add joins at the rest of it
    rng = random.Random(21)
    for _ in range(300):
        g = _backbone_graph(rng, rng.randint(6, 14))
        assert listed(pair_classes(g)) == naive_pair_closure(g)


def test_cycle_rank_oracles_agree():
    for g in corpus_graphs(120, base_seed=60):
        pg = odd_subgraph(g)
        q3 = analyze(g).q3
        assert q3 == rational_cycle_rank(pg)
        assert q3 == len(pg.edges) - gf2_rank(incidence_masks(pg))
        assert q3 == gf2_rank(mod2_reduce(cycle) for cycle in fundamental_cycle_basis(pg).basis)


def test_consistency_report_gf2_row_on_random_graphs():
    # small graphs split into several odd components; the largest is the size `check` is timed at
    rng = random.Random(31)
    graphs = [random_coxeter_graph(rng, n, weights)
              for n in range(1, 13) for weights in (DEFAULT_WEIGHTS, SPARSE_WEIGHTS)]
    graphs += [random_coxeter_graph(rng, n) for n in (40, 80, 200)]
    for g in graphs:
        (row,) = [row for row in consistency_report(g) if row[0] == "cycle_rank_oracles"]
        assert row[1], (len(g.vertices), row[2])
