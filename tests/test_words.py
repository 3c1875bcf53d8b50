from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import coxhom.words
from conftest import (
    DEFAULT_WEIGHTS,
    SPARSE_WEIGHTS,
    abelianize,
    alternating_word,
    corpus_graphs,
    free_reduce,
    inverse,
    label_ix,
    permuted_copy,
    power,
    random_coxeter_graph,
)
from coxhom.chains import fundamental_cycle_basis
from coxhom.errors import CoxhomError
from coxhom.graph import INFINITY, build_graph, from_catalog, odd_subgraph
from coxhom.invariants import analyze
from coxhom.words import (
    MAX_SPELLED_LABEL,
    _extend_reduced,
    _spell,
    in_commutator_subgroup,
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


def test_relator_shapes():
    assert relator(0, 1, 2) == (1, 2, -1, -2)
    assert relator(0, 1, 3) == (1, 2, 1, -2, -1, -2)
    assert relator(0, 1, 4) == (1, 2, 1, 2, -1, -2, -1, -2)
    with pytest.raises(CoxhomError, match="no relator for the infinite label"):
        relator(0, 1, INFINITY)
    with pytest.raises(CoxhomError, match="requires s < t"):
        relator(1, 0, 3)


@given(st.integers(0, 30), st.integers(1, 30), st.integers(2, 60))
def test_relator_closed_form_matches_its_definition(s, gap, m):
    t = s + gap
    rel = relator(s, t, m)
    assert rel == alternating_word(s, t, m) + inverse(alternating_word(t, s, m))
    assert len(rel) == 2 * m and free_reduce(rel) == rel
    # omega3 caches each relator's inverse as the same closed form with s and t swapped
    assert _spell(t + 1, s + 1, m) == inverse(rel)
    if m % 2:  # a triangle whose cycle takes one odd-m relator with exponent -1
        g = build_graph(["a", "b", "c"], [("a", "b", m), ("b", "c", 3), ("a", "c", m)])
        om = omega_sets(g, analyze(g), "artin")
        (cycle,) = om.basis.basis
        assert -1 in dict(cycle).values()
        parts = []
        for k, coefficient in cycle:
            i, j = om.odd.edges[k]
            parts.extend(power(relator(i, j, g.labels[i, j]), coefficient))
        assert om.omega3 == (free_reduce(parts),)


def test_relator_refusals_keep_their_messages():
    cases = (
        ((0, 1, INFINITY), "no relator for the infinite label on (0, 1)"),
        ((1, 0, 3), "relator requires s < t in vertex order, got (1, 0)"),
        ((2, 2, 3), "relator requires s < t in vertex order, got (2, 2)"),
        ((0, 1, 1), "relator requires m >= 2, got 1"),
        ((0, 1, -5), "relator requires m >= 2, got -5"),
        ((0, 1, MAX_SPELLED_LABEL + 1), f"label {MAX_SPELLED_LABEL + 1} is above the limit {MAX_SPELLED_LABEL} on spelled words"),
    )
    for args, message in cases:
        with pytest.raises(CoxhomError) as info:
            relator(*args)
        assert str(info.value) == message
    assert len(relator(0, 1, MAX_SPELLED_LABEL)) == 2 * MAX_SPELLED_LABEL


def test_relator_equals_commutator_for_label_two():
    # omega1 spells [s, t] = s t s^-1 t^-1 for the least pair (s, t) of each class
    for g in corpus_graphs(60):
        profile = analyze(g)
        om = omega_sets(g, profile, "coxeter")
        least = profile.partition.least
        assert om.omega1 == tuple((s + 1, t + 1, -(s + 1), -(t + 1)) for s, t in least)


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
    w = (1, 2, 1, -2, -1, -1)  # [s1 s2, s1], freely reduced
    assert free_reduce(w) == w
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
    assert in_commutator_subgroup((1, 2, -1, -2))
    assert not in_commutator_subgroup((1,))
    assert not in_commutator_subgroup(relator(0, 1, 5))
    # unbalanced words that a partial comparison lets through: only half the
    # sorted letters, only the negative letters, only the sign counts or only
    # the set of letters
    assert not in_commutator_subgroup((1, 1, -2, -2))
    assert not in_commutator_subgroup((1, -1, 2))
    assert not in_commutator_subgroup((3,))
    assert not in_commutator_subgroup((1, 1, -1))


# Words with every letter's inverse shuffled in: zero abelianization, rarely reduced.
balanced = letters.flatmap(lambda xs: st.permutations(xs + [-a for a in xs]))


@given(st.one_of(letters, balanced), st.booleans())
@example([1, 2, -1], False)
@example([1, 2, -2, -1, 1], True)
@example([1, -2, 2, -1], False)
def test_in_commutator_subgroup_matches_abelianize(raw, reduce):
    w = free_reduce(raw) if reduce else tuple(raw)
    assert in_commutator_subgroup(w) == (not any(abelianize(w, 5)))


@given(letters, letters)
def test_commutators_abelianize_to_zero(a, b):
    x, y = free_reduce(a), free_reduce(b)
    assert in_commutator_subgroup(free_reduce(x + y + inverse(x) + inverse(y)))


@given(letters, letters)
def test_extend_reduced_is_free_reduction_of_the_product(a, b):
    stack = list(free_reduce(a))
    part = free_reduce(b)
    _extend_reduced(stack, part)
    assert tuple(stack) == free_reduce(tuple(free_reduce(a)) + part)


def test_extend_reduced_cancels_a_whole_relator():
    rel = relator(0, 1, 3)
    stack = list((3,) + rel)
    _extend_reduced(stack, inverse(rel))
    assert stack == [3]
    # the whole stack cancels and the rest of the part is kept
    stack = list(rel)
    _extend_reduced(stack, inverse(rel) + (3,))
    assert stack == [3]
    stack = list(rel)
    _extend_reduced(stack, inverse(rel))
    assert stack == []


def test_word_power_and_inverse():
    w = free_reduce([1, 2])
    assert power(w, -1) == inverse(w) == (-2, -1)
    assert power(w, 2) == (1, 2, 1, 2)
    assert free_reduce(w + inverse(w)) == ()


def test_omega_sets_a3():
    g = from_catalog("A3")
    om = omega_sets(g, analyze(g), "artin")
    assert om.omega1 == ((1, 3, -1, -3),)
    assert om.omega2 == ()
    assert om.omega3 == ()


def test_omega_sets_i24():
    g = from_catalog("I2(4)")
    om = omega_sets(g, analyze(g), "artin")
    assert om.omega1 == ()
    assert om.omega2 == (relator(0, 1, 4),)
    assert om.omega2[0] == (1, 2, 1, 2, -1, -2, -1, -2)
    assert om.omega3 == ()


TRIANGLE = build_graph(["s1", "s2", "s3"], [("s1", "s2", 3), ("s2", "s3", 3), ("s1", "s3", 3)])


def test_omega_sets_triangle_cycle_word():
    om = omega_sets(TRIANGLE, analyze(TRIANGLE), "artin")
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
            om = omega_sets(g, analyze(g), flavor)
            assert len(om.omega3) == len(basis.basis)
            for word, cycle in zip(om.omega3, basis.basis):
                parts = []
                for k, coefficient in cycle:
                    i, j = pg.edges[k]
                    parts.extend(power(relator(i, j, label_ix(g, i, j)), coefficient))
                assert word == free_reduce(parts)


def _omega3_by_full_reduction(g):
    """Each omega3 word as free_reduce of its cycle's concatenated relator powers."""
    pg = odd_subgraph(g)
    words = []
    for cycle in fundamental_cycle_basis(pg).basis:
        parts = []
        for k, coefficient in cycle:
            i, j = pg.edges[k]
            parts.extend(power(relator(i, j, label_ix(g, i, j)), coefficient))
        words.append(free_reduce(parts))
    return tuple(words)


@pytest.mark.parametrize("weights", [DEFAULT_WEIGHTS, SPARSE_WEIGHTS], ids=["default", "sparse"])
def test_omega3_join_reduction_equals_full_reduction_on_large_graphs(weights):
    rng = random.Random(61)
    graphs = [random_coxeter_graph(rng, rng.randint(30, 62), weights) for _ in range(40)]
    graphs += [permuted_copy(from_catalog(name), rng) for name in ("~A40", "~C40")]
    cycles = 0
    for g in graphs:
        expected = _omega3_by_full_reduction(g)
        assert omega_sets(g, analyze(g), "artin").omega3 == expected
        cycles += len(expected)
    assert cycles > 1000


def test_omega_sets_spells_each_term_of_the_cycle_basis_once(monkeypatch):
    # a term (edge, +-1) is spelled at its first use only, and a non-tree
    # edge, used only in its own cycle with +1, has its inverse never spelled
    spelled = []
    spell = coxhom.words._spell

    def spy(a, b, m):
        spelled.append((a, b, m))
        return spell(a, b, m)

    monkeypatch.setattr(coxhom.words, "_spell", spy)
    g = random_coxeter_graph(random.Random(30), 62)
    om = omega_sets(g, analyze(g), "artin")
    pg = om.odd
    terms = {term for cycle in om.basis.basis for term in cycle}
    expected = []
    for k, sign in terms:
        i, j = pg.edges[k]
        expected.append((i + 1, j + 1, g.labels[i, j]) if sign > 0 else (j + 1, i + 1, g.labels[i, j]))
    # omega1's and omega2's relators have even labels
    assert sorted(call for call in spelled if call[2] % 2) == sorted(expected)
    assert len(om.omega3) > 500 and len(terms) < 2 * len({k for k, _ in terms})


def test_omega_sets_memory_stays_near_the_output_size():
    # each fundamental cycle holds its path's terms, not one entry per odd edge
    g = random_coxeter_graph(random.Random(1), 100)
    tracemalloc.start()
    try:
        omega_sets(g, analyze(g), "artin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_omega_counts_and_abelianization_on_corpus():
    for g in corpus_graphs(60, base_seed=100):
        profile = analyze(g)
        for flavor in ("artin", "coxeter"):
            om = omega_sets(g, profile, flavor)
            assert len(om.omega1) == profile.p + profile.q1
            assert len(om.omega2) == profile.q2
            assert len(om.omega3) == profile.q3
            assert om.total == profile.p + profile.q
            for w in om.omega1 + om.omega2 + om.omega3:
                assert in_commutator_subgroup(w)
                assert abelianize(w, len(g.vertices)) == (0,) * len(g.vertices)


def test_both_flavors_build_the_same_words():
    for g in corpus_graphs(40, base_seed=200):
        profile = analyze(g)
        artin = omega_sets(g, profile, "artin")
        coxeter = omega_sets(g, profile, "coxeter")
        assert (artin.flavor, coxeter.flavor) == ("artin", "coxeter")
        assert artin.omega1 == coxeter.omega1
        assert artin.omega2 == coxeter.omega2
        assert artin.omega3 == coxeter.omega3


def test_omega_sets_refuses_an_unknown_flavor():
    with pytest.raises(CoxhomError) as info:
        g = from_catalog("A3")
        omega_sets(g, analyze(g), "bogus")
    assert str(info.value) == "flavor must be one of ('artin', 'coxeter'), got 'bogus'"
