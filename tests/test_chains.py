from __future__ import annotations

import random

import pytest

from conftest import corpus_graphs
from coxhom.chains import (
    Chain1,
    Mod2Cycle,
    boundary,
    boundary_matrix,
    even_boundary_check,
    fundamental_cycle_basis,
    gf2_rank,
    is_dw_member,
    mod2_reduce,
    xi_reduce,
)
from coxhom.errors import CoxhomError
from coxhom.graph import PlainGraph, from_catalog, odd_subgraph
from coxhom.invariants import invariant_profile
from coxhom.oracles import rational_cycle_rank

EDGE = PlainGraph(("a", "b"), ((0, 1),))
TRIANGLE = PlainGraph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)))
TWO_TRIANGLES = PlainGraph(
    ("a", "b", "c", "d", "e", "f"),
    ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)),
)
K4 = PlainGraph(("a", "b", "c", "d"), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def test_boundary_matrix_single_edge():
    assert boundary_matrix(EDGE) == [[-1], [1]]


def test_boundary_matrix_triangle_has_rank_two():
    assert len(TRIANGLE.edges) - rational_cycle_rank(TRIANGLE) == 2


def test_boundary_matrix_edgeless():
    pg = PlainGraph(("a", "b"), ())
    assert boundary_matrix(pg) == [[], []]


def test_fundamental_basis_of_tree_is_empty():
    pg = odd_subgraph(from_catalog("A5"))
    assert fundamental_cycle_basis(pg).basis == ()


def test_fundamental_basis_triangle():
    basis = fundamental_cycle_basis(TRIANGLE)
    assert len(basis.basis) == 1
    cycle = basis.basis[0]
    assert not any(boundary(cycle))
    assert all(abs(c) == 1 for c in cycle.coefficients)  # support is all 3 edges
    assert cycle.coefficients[basis.nontree_edges[0]] == 1


def test_fundamental_basis_two_components():
    basis = fundamental_cycle_basis(TWO_TRIANGLES)
    assert len(basis.basis) == 2
    supports = [
        {k for k, c in enumerate(chain.coefficients) if c} for chain in basis.basis
    ]
    assert supports[0].isdisjoint(supports[1])


def test_fundamental_basis_boundaries_vanish_on_corpus():
    for g in corpus_graphs(60):
        basis = fundamental_cycle_basis(odd_subgraph(g))
        for k, chain in enumerate(basis.basis):
            assert not any(boundary(chain))
            assert chain.coefficients[basis.nontree_edges[k]] == 1


def test_basis_size_is_cycle_rank():
    for g in corpus_graphs(60):
        pg = odd_subgraph(g)
        basis = fundamental_cycle_basis(pg)
        q3 = invariant_profile(g).q3
        assert len(basis.basis) == q3
        assert gf2_rank([c.bits for c in mod2_reduce(basis)]) == q3


def test_mod2_reduce_triangle_is_all_ones():
    basis = fundamental_cycle_basis(TRIANGLE)
    (cycle,) = mod2_reduce(basis)
    assert cycle.bits == (1, 1, 1)
    assert mod2_reduce(fundamental_cycle_basis(odd_subgraph(from_catalog("A4")))) == ()


def test_even_boundary_check():
    assert even_boundary_check(Chain1(EDGE, (2,)))
    assert not even_boundary_check(Chain1(EDGE, (1,)))
    for chain in fundamental_cycle_basis(K4).basis:
        assert even_boundary_check(chain)


def test_xi_reduce_values():
    assert xi_reduce(Chain1(EDGE, (2,))).bits == (0,)
    basis = fundamental_cycle_basis(TRIANGLE)
    assert xi_reduce(basis.basis[0]).bits == (1, 1, 1)
    with pytest.raises(CoxhomError, match="odd boundary"):
        xi_reduce(Chain1(EDGE, (1,)))


def test_xi_reduce_kills_doubled_chains():
    cycle = fundamental_cycle_basis(TRIANGLE).basis[0]
    shifted = cycle + 2 * Chain1(TRIANGLE, (3, -1, 5))
    assert xi_reduce(shifted) == xi_reduce(cycle)


def test_is_dw_member():
    assert is_dw_member(Chain1(TRIANGLE, (0, 0, 0)))
    assert is_dw_member(2 * Chain1(TRIANGLE, (3, -2, 7)))
    assert not is_dw_member(fundamental_cycle_basis(TRIANGLE).basis[0])


def test_mod2cycle_rejects_non_cycles():
    with pytest.raises(CoxhomError, match="not a mod-2 cycle"):
        Mod2Cycle(EDGE, (1,))


def test_gf2_rank_basics():
    assert gf2_rank([]) == 0
    assert gf2_rank([(1, 0, 1), (1, 0, 1)]) == 1
    basis = fundamental_cycle_basis(K4)
    assert gf2_rank([c.bits for c in mod2_reduce(basis)]) == 3
    with pytest.raises(CoxhomError, match="different lengths"):
        gf2_rank([(1, 0), (1, 0, 1)])


def test_boundary_matrix_rank_is_vertices_minus_components():
    for g in corpus_graphs(50):
        pg = odd_subgraph(g)
        rank = len(pg.edges) - rational_cycle_rank(pg)
        from coxhom.graph import connected_components

        assert rank == len(pg.vertices) - len(connected_components(pg))


def test_kernel_law_on_random_even_chains():
    # xi_reduce(a) = 0 exactly when every coefficient of a is even
    rng = random.Random(23)
    checked = 0
    graphs = corpus_graphs(200, base_seed=500)
    while checked < 400:
        g = graphs[checked % len(graphs)]
        pg = odd_subgraph(g)
        basis = fundamental_cycle_basis(pg)
        doubled = Chain1(pg, tuple(2 * rng.randint(-3, 3) for _ in pg.edges))
        flags = [rng.randint(0, 1) for _ in basis.basis]
        chain = doubled
        for flag, cycle in zip(flags, basis.basis):
            if flag:
                chain = chain + cycle
        assert even_boundary_check(chain)
        assert is_dw_member(chain) == (not any(flags))
        assert xi_reduce(chain).is_zero() == is_dw_member(chain)
        checked += 1


def test_xi_is_onto_the_mod2_cycle_space():
    # any GF(2) combination of the reduced basis lifts to a 0/1 chain with even
    # boundary whose reduction is the combination itself
    rng = random.Random(29)
    for g in corpus_graphs(80, base_seed=900):
        pg = odd_subgraph(g)
        reduced = mod2_reduce(fundamental_cycle_basis(pg))
        bits = [0] * len(pg.edges)
        for cycle in reduced:
            if rng.random() < 0.5:
                bits = [(a + b) % 2 for a, b in zip(bits, cycle.bits)]
        target = Mod2Cycle(pg, tuple(bits))
        lift = Chain1(pg, tuple(bits))
        assert even_boundary_check(lift)
        assert xi_reduce(lift) == target
