from __future__ import annotations

import random

from conftest import corpus_graphs, mod2_reduce, random_coxeter_graph
from coxhom.chains import (
    boundary,
    fundamental_cycle_basis,
    gf2_rank,
)
from coxhom.graph import PlainGraph, from_catalog, odd_subgraph
from coxhom.invariants import analyze
from coxhom.oracles import rational_cycle_rank

EDGE = PlainGraph(("a", "b"), ((0, 1),))
TRIANGLE = PlainGraph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)))
TWO_TRIANGLES = PlainGraph(
    ("a", "b", "c", "d", "e", "f"),
    ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)),
)
K4 = PlainGraph(("a", "b", "c", "d"), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def test_boundary_matrix_triangle_has_rank_two():
    assert len(TRIANGLE.edges) - rational_cycle_rank(TRIANGLE) == 2


def test_fundamental_basis_of_tree_is_empty():
    pg = odd_subgraph(from_catalog("A5"))
    assert fundamental_cycle_basis(pg).basis == ()


def test_fundamental_basis_triangle():
    basis = fundamental_cycle_basis(TRIANGLE)
    assert len(basis.basis) == 1
    cycle = basis.basis[0]
    assert not boundary(TRIANGLE, cycle)
    assert [k for k, c in cycle] == [0, 1, 2]  # support is all 3 edges
    assert all(abs(c) == 1 for k, c in cycle)
    assert (_path_walk_cycle_basis(TRIANGLE)[1][0], 1) in cycle


def test_fundamental_basis_two_components():
    basis = fundamental_cycle_basis(TWO_TRIANGLES)
    assert len(basis.basis) == 2
    supports = [{k for k, c in cycle} for cycle in basis.basis]
    assert supports[0].isdisjoint(supports[1])


def test_fundamental_basis_boundaries_vanish_on_corpus():
    for g in corpus_graphs(60):
        pg = odd_subgraph(g)
        basis = fundamental_cycle_basis(pg)
        nontree = _path_walk_cycle_basis(pg)[1]
        for k, cycle in enumerate(basis.basis):
            assert not boundary(pg, cycle)
            assert (nontree[k], 1) in cycle
            assert [e for e, c in cycle] == sorted({e for e, c in cycle})
            assert all(c in (-1, 1) for e, c in cycle)


def test_basis_size_is_cycle_rank():
    for g in corpus_graphs(60):
        pg = odd_subgraph(g)
        basis = fundamental_cycle_basis(pg)
        q3 = analyze(g).q3
        assert len(basis.basis) == q3
        assert gf2_rank(mod2_reduce(cycle) for cycle in basis.basis) == q3


def _path_walk_cycle_basis(pg):
    """Independent cycle basis: the same breadth-first forest, with each path
    edge found by its (min, max) ends in an edge table."""
    edge_id = {edge: k for k, edge in enumerate(pg.edges)}
    nbrs = [[] for _ in pg.vertices]
    for i, j in pg.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    parent, depth, tree = {}, {}, set()
    for root in range(len(pg.vertices)):
        if root in depth:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:
            for w in sorted(nbrs[v]):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    tree.add(edge_id[(min(v, w), max(v, w))])
                    queue.append(w)
    basis, generators = [], []
    for k, (u, v) in enumerate(pg.edges):
        if k in tree:
            continue
        left, right = [v], [u]
        while depth[left[-1]] > depth[right[-1]]:
            left.append(parent[left[-1]])
        while depth[right[-1]] > depth[left[-1]]:
            right.append(parent[right[-1]])
        while left[-1] != right[-1]:
            left.append(parent[left[-1]])
            right.append(parent[right[-1]])
        path = left + right[-2::-1]
        terms = [(k, 1)]
        for x, y in zip(path, path[1:]):
            terms.append((edge_id[(min(x, y), max(x, y))], 1 if x < y else -1))
        basis.append(tuple(sorted(terms)))
        generators.append(k)
    return tuple(basis), tuple(generators)


def _random_plain_graph(rng, n):
    density = rng.choice([1.5 / n, 3.0 / n, 0.05, 0.3])
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density)
    return PlainGraph(tuple(f"v{i}" for i in range(n)), edges)


def test_fundamental_basis_matches_path_walk_oracle():
    rng = random.Random(41)
    graphs = [_random_plain_graph(rng, rng.randint(1, 200)) for _ in range(60)]
    graphs += [odd_subgraph(random_coxeter_graph(rng, n)) for n in (80, 140, 200)]
    cycles = 0
    for pg in graphs:
        basis = fundamental_cycle_basis(pg)
        cycles_oracle, nontree = _path_walk_cycle_basis(pg)
        assert basis.basis == cycles_oracle
        for k, cycle in zip(nontree, basis.basis):
            assert not boundary(pg, cycle)
            assert (k, 1) in cycle
        cycles += len(basis.basis)
    assert cycles > 10000


def test_mod2_reduce_triangle_is_all_ones():
    (cycle,) = fundamental_cycle_basis(TRIANGLE).basis
    assert mod2_reduce(cycle) == 0b111
    assert mod2_reduce(enumerate([2, -3, 0, 5])) == 0b1010
    assert fundamental_cycle_basis(odd_subgraph(from_catalog("A4"))).basis == ()


def test_boundary_parity():
    assert not any(c % 2 for c in boundary(EDGE, enumerate([2])).values())
    assert any(c % 2 for c in boundary(EDGE, enumerate([1])).values())
    for cycle in fundamental_cycle_basis(K4).basis:
        assert not any(c % 2 for c in boundary(K4, cycle).values())


def test_boundary_keeps_only_the_nonzero_coefficients_it_touches():
    path = odd_subgraph(from_catalog("A5"))  # 0 - 1 - 2 - 3 - 4
    assert boundary(path, [(k, 1) for k in range(4)]) == {0: -1, 4: 1}
    assert boundary(path, [(k, -1) for k in (3, 2, 1)]) == {4: -1, 1: 1}
    for pg in (K4, odd_subgraph(from_catalog("~A5"))):
        cycles = fundamental_cycle_basis(pg).basis
        assert cycles and all(boundary(pg, cycle) == {} for cycle in cycles)
    assert boundary(EDGE, [(0, 2)]) == {0: -2, 1: 2}
    assert boundary(EDGE, [(0, 1), (0, -1)]) == {}


def test_mod2_reduce_kills_doubled_chains():
    cycle = fundamental_cycle_basis(TRIANGLE).basis[0]
    shifted = [2 * d for d in (3, -1, 5)]
    for k, c in cycle:
        shifted[k] += c
    assert mod2_reduce(enumerate(shifted)) == mod2_reduce(cycle)


def test_gf2_rank_basics():
    assert gf2_rank([]) == 0
    assert gf2_rank([0b101, 0b101]) == 1
    assert gf2_rank([0b011, 0b110, 0b101]) == 2
    assert gf2_rank([0b1, 0b10, 0b100, 0]) == 3
    basis = fundamental_cycle_basis(K4)
    assert gf2_rank(mod2_reduce(cycle) for cycle in basis.basis) == 3


def test_boundary_matrix_rank_is_vertices_minus_components():
    for g in corpus_graphs(50):
        pg = odd_subgraph(g)
        rank = len(pg.edges) - rational_cycle_rank(pg)
        assert rank == len(pg.vertices) - analyze(g).n4


def test_kernel_law_on_random_even_chains():
    # the mod-2 reduction xi(a) is 0 exactly when every coefficient of a is even
    rng = random.Random(23)
    checked = 0
    graphs = corpus_graphs(200, base_seed=500)
    while checked < 400:
        g = graphs[checked % len(graphs)]
        pg = odd_subgraph(g)
        basis = fundamental_cycle_basis(pg)
        a = [2 * rng.randint(-3, 3) for _ in pg.edges]
        flags = [rng.randint(0, 1) for _ in basis.basis]
        for flag, cycle in zip(flags, basis.basis):
            if flag:
                for k, c in cycle:
                    a[k] += c
        assert not any(c % 2 for c in boundary(pg, enumerate(a)).values())
        all_even = all(c % 2 == 0 for c in a)
        assert all_even == (not any(flags))
        assert (mod2_reduce(enumerate(a)) == 0) == all_even
        checked += 1


def test_xi_is_onto_the_mod2_cycle_space():
    # any GF(2) combination of the reduced basis lifts to a 0/1 chain with even
    # boundary whose reduction is the combination itself
    rng = random.Random(29)
    for g in corpus_graphs(80, base_seed=900):
        pg = odd_subgraph(g)
        target = 0
        for cycle in fundamental_cycle_basis(pg).basis:
            if rng.random() < 0.5:
                target ^= mod2_reduce(cycle)
        lift = [target >> k & 1 for k in range(len(pg.edges))]
        assert not any(c % 2 for c in boundary(pg, enumerate(lift)).values())
        assert mod2_reduce(enumerate(lift)) == target
