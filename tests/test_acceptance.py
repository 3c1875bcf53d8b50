"""Acceptance suite: every criterion asserts exact integer equalities and
prints one PASS line (visible under ``pytest -s`` or ``-rA``)."""

from __future__ import annotations

import json
import random

from conftest import corpus_graphs, permuted_copy, power
from coxhom.chains import boundary, boundary_matrix, fundamental_cycle_basis, gf2_rank, mod2_reduce
from coxhom.cli import main
from coxhom.graph import INFINITY, build_graph, from_catalog, odd_subgraph
from coxhom.invariants import invariant_profile, pair_classes, stability_scan
from coxhom.oracles import (
    catalog_sample,
    dihedral_h2_reference,
    naive_pair_closure,
    random_coxeter_graph,
    rational_cycle_rank,
)
from coxhom.words import abelianize, in_commutator_subgroup, omega_sets


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number:2d}: {text}")


def test_criterion_01_affine_d4(capsys):
    assert main(["compute", "--type", "~D4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p"] == 6
    assert doc["q"] == 0
    assert doc["h2_artin_mod2_rank"] == 6
    assert doc["corollary"]["applies"] is True
    assert doc["h2_artin_integral"] == {"free_rank": 0, "torsion2_rank": 6}
    with capsys.disabled():
        _report(1, "~D4 gives p=6, q=0, integral H2(A) = Z2^6")


def test_criterion_02_affine_d_family(capsys):
    for n in range(5, 13):
        g = from_catalog(f"~D{n}")
        profile = invariant_profile(g)
        assert (profile.p, profile.q) == (3, 0)
        from coxhom.invariants import homology_summary

        integral = homology_summary(g).h2_artin_integral
        assert (integral.free_rank, integral.torsion2_rank) == (0, 3)
    with capsys.disabled():
        _report(2, "~Dn for n=5..12 gives p=3, q=0, integral H2(A) = Z2^3")


def test_criterion_03_affine_e_family(capsys):
    from coxhom.invariants import homology_summary

    for i in (6, 7, 8):
        g = from_catalog(f"~E{i}")
        profile = invariant_profile(g)
        assert (profile.p, profile.q) == (1, 0)
        integral = homology_summary(g).h2_artin_integral
        assert (integral.free_rank, integral.torsion2_rank) == (0, 1)
    with capsys.disabled():
        _report(3, "~E6, ~E7, ~E8 give p=1, q=0, integral H2(A) = Z2")


def test_criterion_04_dihedral_sweep(capsys):
    for m in list(range(2, 21)) + [INFINITY]:
        g = build_graph(["s1", "s2"], [("s1", "s2", m)])
        profile = invariant_profile(g)
        assert profile.p + profile.q == dihedral_h2_reference(m), f"m = {m}"
    with capsys.disabled():
        _report(4, "I2(m) rank matches the dihedral reference for m = 2..20 and inf")


def _corpus_with_catalog():
    graphs = corpus_graphs(500)
    graphs += [from_catalog(name) for name in catalog_sample()]
    return graphs


def test_criterion_05_howlett_identity(capsys):
    graphs = _corpus_with_catalog()
    for g in graphs:
        profile = invariant_profile(g)
        assert -profile.n1 + profile.n2 + profile.n3 + profile.n4 == profile.p + profile.q
    with capsys.disabled():
        _report(5, f"Howlett identity holds on {len(graphs)} corpus + catalog graphs")


def test_criterion_06_oracle_equivalence(capsys):
    graphs = _corpus_with_catalog()
    for g in graphs:
        assert pair_classes(g) == naive_pair_closure(g)
        pg = odd_subgraph(g)
        q3 = invariant_profile(g).q3
        assert q3 == rational_cycle_rank(pg)
        assert q3 == len(pg.edges) - gf2_rank(mod2_reduce(enumerate(row)) for row in boundary_matrix(pg))
    with capsys.disabled():
        _report(6, f"pair-graph components vs closure and all three cycle ranks agree on {len(graphs)} graphs")


def test_criterion_07_omega_contract(capsys):
    graphs = _corpus_with_catalog()
    for g in graphs:
        profile = invariant_profile(g)
        rank = len(g.vertices)
        artin = omega_sets(g, "artin")
        coxeter = omega_sets(g, "coxeter")
        for omegas in (artin, coxeter):
            assert len(omegas.omega1) == profile.p + profile.q1
            assert len(omegas.omega2) == profile.q2
            assert len(omegas.omega3) == profile.q3
            assert omegas.total == profile.p + profile.q
            for w in omegas.omega1 + omegas.omega2 + omegas.omega3:
                assert in_commutator_subgroup(w)
                assert abelianize(w, rank) == (0,) * rank
        # the Artin and Coxeter families are the same words
        assert artin.omega1 == coxeter.omega1
        assert artin.omega2 == coxeter.omega2
        for wa, wc in zip(artin.omega3, coxeter.omega3):
            ea = _relator_exponents(g, wa)
            ec = _relator_exponents(g, wc)
            assert [x % 2 for x in ea] == [x % 2 for x in ec]
    with capsys.disabled():
        _report(7, f"omega counts, abelianizations and flavor agreement verified on {len(graphs)} graphs")


def _relator_exponents(g, word):
    """Recover odd-relator exponents of an omega3 word from the cycle basis.

    The basis is the unique source of omega3 words, so solving against it
    reads the exponent vector back off the word.
    """
    pg = odd_subgraph(g)
    basis = fundamental_cycle_basis(pg)
    for cycle in basis.basis:
        from coxhom.words import free_reduce, relator

        parts = []
        exponents = [0] * len(pg.edges)
        for k, coefficient in cycle:
            i, j = pg.edges[k]
            parts.extend(power(relator(i, j, g.label_ix(i, j)), coefficient))
            exponents[k] = coefficient
        if free_reduce(parts) == word:
            return exponents
    raise AssertionError("omega3 word does not match any basis cycle")


def test_criterion_08_kernel_law(capsys):
    rng = random.Random(2024)
    graphs = corpus_graphs(250, base_seed=5000)
    checked = 0
    while checked < 1000:
        g = graphs[checked % len(graphs)]
        pg = odd_subgraph(g)
        basis = fundamental_cycle_basis(pg)
        a = [2 * rng.randint(-4, 4) for _ in pg.edges]
        flags = [rng.randint(0, 1) for _ in basis.basis]
        for flag, cycle in zip(flags, basis.basis):
            if flag:
                for k, coefficient in cycle:
                    a[k] += coefficient
        assert all(c % 2 == 0 for c in boundary(pg, enumerate(a)))
        zero_image = mod2_reduce(enumerate(a)) == 0
        doubly_even = all(c % 2 == 0 for c in a)
        assert zero_image == doubly_even
        assert doubly_even == (not any(flags))
        checked += 1
    with capsys.disabled():
        _report(8, "xi(a) = 0 iff a is doubly-even on 1000 random even-boundary chains")


def test_criterion_09_stability(capsys):
    seeds = [
        random_coxeter_graph(random.Random(9000 + i), (i % 5) + 1)
        for i in range(50)
    ]
    seeds += [from_catalog(name) for name in ("A1", "B2", "I2(4)")]
    for seed in seeds:
        report = stability_scan(seed, 12)
        assert report.stable
        tail = [rank for step, rank in report.trajectory if step >= 3]
        assert len(set(tail)) == 1
    with capsys.disabled():
        _report(9, "p+q is constant from step 3 to 12 for 50 random + 3 catalog seeds")


def test_criterion_10_isomorphism_invariance(capsys):
    rng = random.Random(77)
    for g in corpus_graphs(100, base_seed=7000):
        reference = invariant_profile(g)
        for _ in range(5):
            assert invariant_profile(permuted_copy(g, rng)) == reference
    with capsys.disabled():
        _report(10, "p, q1..q3, n1..n4 unchanged under 5 permutations of 100 graphs")


def test_criterion_11_determinism(capsys):
    outputs = []
    for _ in range(3):
        assert main(["compute", "--type", "~D4", "--json"]) == 0
        outputs.append(capsys.readouterr().out.encode("utf-8"))
    assert outputs[0] == outputs[1] == outputs[2]
    with capsys.disabled():
        _report(11, "compute --type ~D4 --json is byte-identical across 3 runs")
