from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from conftest import (
    DEFAULT_WEIGHTS,
    LABEL_SUPPORT,
    SPARSE_WEIGHTS,
    corpus_graphs,
    dihedral_h2_reference,
    incidence_masks,
    listed,
    mod2_reduce,
    permuted_copy,
    random_coxeter_graph,
    unread_slot_graph,
)
from coxhom.chains import fundamental_cycle_basis, gf2_rank
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
        g = random_coxeter_graph(random.Random(seed), n)
        assert rational_cycle_rank(odd_subgraph(g)) == analyze(g).q3


def _wheel(rim: int):
    """A rim cycle of label-3 edges, and a hub after it joined to each rim vertex by a 3."""
    names = [f"r{k}" for k in range(rim)] + ["hub"]
    edges = [(f"r{k}", f"r{(k + 1) % rim}", 3) for k in range(rim)] + [(f"r{k}", "hub", 3) for k in range(rim)]
    return build_graph(names, edges)


def _complete_threes(n: int):
    names = [f"v{i}" for i in range(n)]
    return build_graph(names, [(s, t, 3) for s, t in combinations(names, 2)])


def _shuffled_path_with_chords():
    """A200 in a shuffled order with four odd chords and one even one: q3 = 4."""
    path = from_catalog("A200").vertices
    shuffled = permuted_copy(from_catalog("A200"), random.Random(3))
    edges = [(shuffled.vertices[i], shuffled.vertices[j], m) for (i, j), m in shuffled.labels.items()]
    chords = [(0, 199, 3), (10, 67, 5), (40, 43, 3), (120, 190, 3), (5, 150, 4)]
    return build_graph(shuffled.vertices, edges + [(path[i], path[j], m) for i, j, m in chords])


@pytest.mark.parametrize("make, q3, small", [
    # ~A<n>: the last edge read closes the cycle, and its row reduces through every kept row down to vertex 0
    (lambda: from_catalog("~A100"), 1, True),
    (lambda: from_catalog("~A3000"), 1, False),
    # each spoke's row leads with the hub, then walks down the rim's kept rows
    (lambda: _wheel(2000), 2000, False),
    (lambda: _complete_threes(5), 6, True),
    (lambda: _complete_threes(40), 741, True),
    (_shuffled_path_with_chords, 4, True),
], ids=["~A100", "~A3000", "wheel2000", "K5", "K40", "shuffled-A200-chords"])
def test_rational_cycle_rank_on_long_reductions(make, q3, small):
    g = make()
    pg = odd_subgraph(g)
    assert rational_cycle_rank(pg) == analyze(g).q3 == q3
    if small:
        assert len(pg.edges) - gf2_rank(incidence_masks(pg)) == q3


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
    # the sparse_family benchmark's families at 61 and 97 vertices, in catalog
    # order: a path's row tail is one slot, D and ~D also fork (y + 1 < v)
    graphs += [from_catalog(f"{family}{n - family.startswith('~')}")
               for family in ("A", "B", "D", "~A", "~C", "~D") for n in (61, 97)]
    shapes = set()
    for g in graphs:
        partition = pair_classes(g)
        classes, flags = naive_pair_closure(g)
        assert listed(partition) == (classes, flags)
        assert partition.least == tuple(block[0] for block in classes)
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


@pytest.mark.parametrize("most, labels, graphs", [
    (5, (2, 3), 1099),
    (4, (2, 3, 4, 5, INFINITY), 15756),
], ids=["labels-23", "labels-2345inf"])
def test_pair_classes_agree_with_naive_closure_on_every_small_graph(most, labels, graphs):
    # every labelled graph of 1..most vertices over the labels
    count = 0
    for n in range(1, most + 1):
        names = [f"v{i}" for i in range(n)]
        pairs = list(combinations(names, 2))
        for choice in product(labels, repeat=len(pairs)):
            g = build_graph(names, [(s, t, m) for (s, t), m in zip(pairs, choice)])
            classes, flags = naive_pair_closure(g)
            assert listed(pair_classes(g)) == (classes, flags), choice
            profile = analyze(g)
            assert (profile.n3, profile.p) == (len(classes), sum(flags)), choice
            count += 1
    assert count == graphs


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


def test_fundamental_cycles_bound_fails_on_a_basis_holding_one_cycle_twice(monkeypatch):
    import coxhom.oracles as oracles
    from coxhom.chains import CycleBasis

    # two triangles on the edge b - c: q3 = 2, and the cycles share that edge
    g = build_graph("abcd", [(s, t, 3) for s, t in ("ab", "ac", "bc", "bd", "cd")])
    real = oracles.omega_sets

    def doubled(graph, profile, flavor):
        omegas = real(graph, profile, flavor)
        first = omegas.basis.basis[0]
        return omegas._replace(basis=CycleBasis((first, first)))  # as many cycles as q3, but dependent

    assert all(passed for _, passed, _ in consistency_report(g))
    monkeypatch.setattr(oracles, "omega_sets", doubled)
    rows = oracles.consistency_report(g)
    assert [name for name, passed, _ in rows if not passed] == ["fundamental_cycles_bound"]


@pytest.mark.parametrize("name, failed", [
    ("~A3", ["howlett_term_identities", "cycle_rank_oracles", "fundamental_cycles_bound", "omega_counts"]),
    ("A4", ["howlett_identity", "howlett_term_identities"]),
], ids=["~A3", "A4"])
def test_check_fails_where_the_odd_subgraph_and_the_profile_disagree(monkeypatch, name, failed):
    # the profile counts the odd edges from its label pass, the oracles read
    # odd_subgraph's; one edge dropped from the second must show
    import coxhom.words as words

    real = words.odd_subgraph

    def short(g):
        pg = real(g)
        return pg._replace(edges=pg.edges[:-1])

    g = from_catalog(name)
    assert all(passed for _, passed, _ in consistency_report(g))
    monkeypatch.setattr(words, "odd_subgraph", short)
    assert [row for row, passed, _ in consistency_report(g) if not passed] == failed
