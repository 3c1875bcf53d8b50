from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import corpus_graphs, power
from coxhom.chains import fundamental_cycle_basis
from coxhom.errors import CoxhomError
from coxhom.graph import INFINITY, build_graph, from_catalog, odd_subgraph
from coxhom.invariants import invariant_profile
from coxhom.oracles import random_coxeter_graph
from coxhom.words import (
    MAX_SPELLED_LABEL,
    abelianize,
    alternating_word,
    commutator,
    free_reduce,
    generator,
    in_commutator_subgroup,
    inverse,
    omega_sets,
    relator,
)

letters = st.lists(
    st.integers(min_value=-5, max_value=5).filter(lambda a: a != 0), max_size=40
)


def test_alternating_word():
    assert alternating_word(0, 1, 3) == (1, 2, 1)
    assert alternating_word(0, 1, 1) == (1,)
    assert alternating_word(0, 1, 4) == (1, 2, 1, 2)
    with pytest.raises(CoxhomError, match="needs distinct vertices"):
        alternating_word(2, 2, 3)
    with pytest.raises(CoxhomError, match="length must be >= 1"):
        alternating_word(0, 1, 0)
    with pytest.raises(CoxhomError, match="label 1000001 is above the limit 1000000"):
        alternating_word(0, 1, MAX_SPELLED_LABEL + 1)


def test_relator_shapes():
    assert relator(0, 1, 2) == (1, 2, -1, -2)
    assert relator(0, 1, 3) == (1, 2, 1, -2, -1, -2)
    assert relator(0, 1, 4) == (1, 2, 1, 2, -1, -2, -1, -2)
    with pytest.raises(CoxhomError, match="no relator for the infinite label"):
        relator(0, 1, INFINITY)
    with pytest.raises(CoxhomError, match="requires s < t"):
        relator(1, 0, 3)


def test_relator_equals_commutator_for_label_two():
    assert relator(0, 1, 2) == commutator(generator(0), generator(1))


def test_free_reduce_examples():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, 1]) == (1, 1)
    assert free_reduce([1, 2, 1]) == (1, 2, 1)


@given(letters)
def test_free_reduce_idempotent_and_shorter(raw):
    w = free_reduce(raw)
    assert free_reduce(w) == w
    assert len(w) <= len(raw)


@given(letters)
def test_abelianize_survives_reduction(raw):
    counts = [0] * 5
    for a in raw:
        counts[abs(a) - 1] += 1 if a > 0 else -1
    assert abelianize(free_reduce(raw), 5) == tuple(counts)


def test_commutator_examples():
    assert commutator(generator(0), generator(1)) == (1, 2, -1, -2)
    assert commutator(generator(0), generator(0)) == ()
    w = commutator(free_reduce([1, 2]), generator(0))
    assert w == (1, 2, 1, -2, -1, -1)
    assert in_commutator_subgroup(w)


def test_abelianize_examples():
    assert abelianize(relator(0, 1, 3), 2) == (1, -1)
    assert abelianize(relator(0, 1, 4), 2) == (0, 0)


@pytest.mark.parametrize("m", range(2, 13))
def test_relator_abelianization_by_parity(m):
    vec = abelianize(relator(0, 1, m), 2)
    assert vec == ((1, -1) if m % 2 else (0, 0))


def test_in_commutator_subgroup():
    assert in_commutator_subgroup(())
    assert not in_commutator_subgroup(generator(0))
    assert not in_commutator_subgroup(relator(0, 1, 5))


@given(letters, letters)
def test_commutators_abelianize_to_zero(a, b):
    assert in_commutator_subgroup(commutator(free_reduce(a), free_reduce(b)))


def test_word_power_and_inverse():
    w = free_reduce([1, 2])
    assert power(w, -1) == inverse(w) == (-2, -1)
    assert power(w, 2) == (1, 2, 1, 2)
    assert free_reduce(w + inverse(w)) == ()


def test_omega_sets_a3():
    om = omega_sets(from_catalog("A3"), "artin")
    assert om.omega1 == (commutator(generator(0), generator(2)),)
    assert om.omega2 == ()
    assert om.omega3 == ()


def test_omega_sets_i24():
    om = omega_sets(from_catalog("I2(4)"), "artin")
    assert om.omega1 == ()
    assert om.omega2 == (relator(0, 1, 4),)
    assert om.omega2[0] == (1, 2, 1, 2, -1, -2, -1, -2)
    assert om.omega3 == ()


TRIANGLE = build_graph(["s1", "s2", "s3"], [("s1", "s2", 3), ("s2", "s3", 3), ("s1", "s3", 3)])


def test_omega_sets_triangle_cycle_word():
    om = omega_sets(TRIANGLE, "artin")
    assert (len(om.omega1), len(om.omega2), len(om.omega3)) == (0, 0, 1)
    word = om.omega3[0]
    assert in_commutator_subgroup(word)
    # the word is the relator product with the fundamental cycle's exponents
    pg = odd_subgraph(TRIANGLE)
    (cycle,) = fundamental_cycle_basis(pg).basis
    parts = []
    for k, coefficient in cycle:
        i, j = pg.edges[k]
        parts.extend(power(relator(i, j, 3), coefficient))
    assert word == free_reduce(parts)


def test_omega_exponent_recovery_on_corpus():
    for g in corpus_graphs(40, base_seed=300):
        pg = odd_subgraph(g)
        basis = fundamental_cycle_basis(pg)
        for flavor in ("artin", "coxeter"):
            om = omega_sets(g, flavor)
            assert len(om.omega3) == len(basis.basis)
            for word, cycle in zip(om.omega3, basis.basis):
                parts = []
                for k, coefficient in cycle:
                    i, j = pg.edges[k]
                    parts.extend(power(relator(i, j, g.label_ix(i, j)), coefficient))
                assert word == free_reduce(parts)


def test_omega_sets_memory_stays_near_the_output_size():
    # each fundamental cycle holds its path's terms, not one entry per odd edge
    g = random_coxeter_graph(random.Random(1), 100)
    tracemalloc.start()
    try:
        omega_sets(g, "artin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_omega_counts_and_abelianization_on_corpus():
    for g in corpus_graphs(60, base_seed=100):
        profile = invariant_profile(g)
        for flavor in ("artin", "coxeter"):
            om = omega_sets(g, flavor)
            assert len(om.omega1) == profile.p + profile.q1
            assert len(om.omega2) == profile.q2
            assert len(om.omega3) == profile.q3
            assert om.total == profile.p + profile.q
            for w in om.omega1 + om.omega2 + om.omega3:
                assert in_commutator_subgroup(w)
                assert abelianize(w, len(g.vertices)) == (0,) * len(g.vertices)


def test_both_flavors_build_the_same_words():
    for g in corpus_graphs(40, base_seed=200):
        artin = omega_sets(g, "artin")
        coxeter = omega_sets(g, "coxeter")
        assert (artin.flavor, coxeter.flavor) == ("artin", "coxeter")
        assert artin.omega1 == coxeter.omega1
        assert artin.omega2 == coxeter.omega2
        assert artin.omega3 == coxeter.omega3
