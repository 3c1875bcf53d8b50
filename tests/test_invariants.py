from __future__ import annotations

import random

import pytest

from conftest import SPARSE_WEIGHTS, corpus_graphs, permuted_copy
import coxhom.invariants
from coxhom.errors import CoxhomError
from coxhom.graph import INFINITY, build_graph, extend_family, from_catalog, is_even
from coxhom.invariants import (
    MAX_SCAN_STEPS,
    commuting_pairs,
    homology_summary,
    invariant_profile,
    pair_classes,
    stability_scan,
)
from coxhom.oracles import DEFAULT_WEIGHTS, LABEL_SUPPORT, random_coxeter_graph

TRIANGLE = build_graph(["s1", "s2", "s3"], [("s1", "s2", 3), ("s2", "s3", 3), ("s1", "s3", 3)])


def test_commuting_pairs_examples():
    assert commuting_pairs(from_catalog("A2")) == ()
    assert commuting_pairs(from_catalog("A3")) == ((0, 2),)
    # ~D4 star: all six leaf pairs commute, none involves the center (index 2)
    pairs = commuting_pairs(from_catalog("~D4"))
    assert pairs == ((0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4))


def test_pair_classes_a4_single_torsion_class():
    partition = pair_classes(from_catalog("A4"))
    assert partition.pairs == ((0, 2), (0, 3), (1, 3))
    assert partition.classes == (((0, 2), (0, 3), (1, 3)),)
    assert partition.torsion_flags == (True,)


def test_pair_classes_b3_single_nontorsion_class():
    partition = pair_classes(from_catalog("B3"))
    assert partition.classes == (((0, 2),),)
    assert partition.torsion_flags == (False,)


def test_pair_classes_affine_d4_six_torsion_singletons():
    partition = pair_classes(from_catalog("~D4"))
    assert len(partition.classes) == 6
    assert all(len(block) == 1 for block in partition.classes)
    assert partition.torsion_flags == (True,) * 6


def test_pair_classes_blocks_cover_pairs_exactly():
    for g in corpus_graphs(60):
        partition = pair_classes(g)
        flattened = sorted(pair for block in partition.classes for pair in block)
        assert flattened == sorted(partition.pairs)
        assert len(partition.torsion_flags) == len(partition.classes)


def test_invariant_profile_affine_d4():
    profile = invariant_profile(from_catalog("~D4"))
    assert (profile.p, profile.q1, profile.q2, profile.q3, profile.q) == (6, 0, 0, 0, 0)


def test_invariant_profile_i24():
    profile = invariant_profile(from_catalog("I2(4)"))
    assert (profile.p, profile.q1, profile.q2, profile.q3) == (0, 0, 1, 0)
    assert profile.p + profile.q == 1


def test_invariant_profile_triangle_cycle_rank():
    profile = invariant_profile(TRIANGLE)
    assert (profile.p, profile.q1, profile.q2, profile.q3) == (0, 0, 0, 1)


def test_invariant_profile_empty_graph():
    profile = invariant_profile(build_graph([]))
    assert profile == invariant_profile(build_graph([]))
    assert profile.p == profile.q == profile.n1 == profile.n4 == 0


def test_h1_rank_counts_odd_components():
    # B3: the 4-edge splits s1 from the odd component {s2, s3}
    assert invariant_profile(from_catalog("B3")).n4 == 2
    assert invariant_profile(from_catalog("A5")).n4 == 1


def test_homology_summary_affine_e6():
    summary = homology_summary(from_catalog("~E6"))
    assert summary.corollary.applies
    assert (summary.h2_artin_integral.free_rank, summary.h2_artin_integral.torsion2_rank) == (0, 1)


def test_homology_summary_affine_d5():
    summary = homology_summary(from_catalog("~D5"))
    assert (summary.h2_artin_integral.free_rank, summary.h2_artin_integral.torsion2_rank) == (0, 3)


def test_homology_summary_i24_undetermined_integrally():
    summary = homology_summary(from_catalog("I2(4)"))
    assert not summary.corollary.odd_equals_gamma
    assert not summary.corollary.applies
    assert summary.h2_artin_mod2_rank == 1
    assert summary.h2_artin_integral is None


def test_homology_summary_rank_identities():
    for g in corpus_graphs(60):
        summary = homology_summary(g)
        assert (
            summary.h2_artin_mod2_rank
            == summary.h2_orbit.free_rank + summary.h2_orbit.torsion2_rank
            == summary.h2_coxeter.torsion2_rank
        )
        assert (summary.h2_artin_integral is not None) == summary.corollary.applies


def test_corollary_tree_condition_is_on_whole_graph():
    # odd subgraph is a forest, but the 4-labeled edge closes a cycle in the graph
    g = build_graph(
        ["a", "b", "c"],
        [("a", "b", 3), ("b", "c", 3), ("a", "c", 4)],
    )
    summary = homology_summary(g)
    assert not summary.corollary.tree
    assert invariant_profile(g).q3 == 0


def _forest_components(n, edges):
    """(component count, acyclic) by union-find over the edges."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    components, acyclic = n, True
    for i, j in edges:
        a, b = find(i), find(j)
        if a == b:
            acyclic = False
        else:
            parent[a] = b
            components -= 1
    return components, acyclic


def test_howlett_identity_on_corpus():
    for g in corpus_graphs(120):
        profile = invariant_profile(g)
        summary = homology_summary(g)
        odd_edges = [pair for pair, m in g.labels.items() if m != INFINITY and m % 2]
        assert profile.howlett_identity
        assert profile.n3 == profile.p + profile.q1
        assert profile.n1 == len(g.vertices)
        assert profile.n4 == _forest_components(len(g.vertices), odd_edges)[0]
        assert summary.corollary.all_torsion == all(pair_classes(g).torsion_flags)
        assert summary.corollary.tree == _forest_components(len(g.vertices), g.labels)[1]


def test_invariants_are_isomorphism_invariant():
    rng = random.Random(11)
    for g in corpus_graphs(30):
        reference = invariant_profile(g)
        for _ in range(3):
            assert invariant_profile(permuted_copy(g, rng)) == reference


def _disjoint_union(g1, g2):
    """g1 and g2 side by side, every cross label 2."""
    names = [f"a{v}" for v in g1.vertices] + [f"b{v}" for v in g2.vertices]
    k = len(g1.vertices)
    edges = [(names[i], names[j], m) for (i, j), m in g1.labels.items()]
    edges += [(names[k + i], names[k + j], m) for (i, j), m in g2.labels.items()]
    return build_graph(names, edges)


def test_kunneth_law_for_disjoint_unions():
    # rank2 H2(W1 x W2) = r1 + r2 + c1 * c2 with ci the odd components (n4)
    rng = random.Random(5)
    pairs = []
    for _ in range(30):
        total = rng.randint(5, 60)
        first = rng.randint(1, total - 1)
        weights = rng.choice((DEFAULT_WEIGHTS, SPARSE_WEIGHTS))
        pairs.append((random_coxeter_graph(rng, first, weights), random_coxeter_graph(rng, total - first, weights)))
    names = ("~D12", "A20", "B15", "~A14", "E8", "H4", "I2(6)")
    pairs += [(from_catalog(a), from_catalog(b)) for a in names for b in names if a <= b]
    for g1, g2 in pairs:
        p1, p2 = invariant_profile(g1), invariant_profile(g2)
        union = invariant_profile(_disjoint_union(g1, g2))
        assert union.mod2_rank == p1.mod2_rank + p2.mod2_rank + p1.n4 * p2.n4
        assert union.n4 == p1.n4 + p2.n4


def test_stability_scan_a1():
    report = stability_scan(from_catalog("A1"), 6)
    assert report.trajectory == ((1, 0), (2, 0), (3, 1), (4, 1), (5, 1), (6, 1))
    assert report.stable


def test_stability_scan_i24():
    report = stability_scan(from_catalog("I2(4)"), 6)
    ranks = [rank for step, rank in report.trajectory if step >= 3]
    assert len(set(ranks)) == 1
    assert report.stable


def test_stability_scan_preconditions():
    with pytest.raises(CoxhomError, match="needs a nonempty seed"):
        stability_scan(build_graph([]), 6)
    with pytest.raises(CoxhomError, match="n_max must be >= 4"):
        stability_scan(from_catalog("A1"), 3)
    with pytest.raises(CoxhomError, match=f"n_max must be <= {MAX_SCAN_STEPS}, got {MAX_SCAN_STEPS + 1}"):
        stability_scan(from_catalog("A1"), MAX_SCAN_STEPS + 1)


def _per_step_ranks(seed, n_max, extend):
    """The trajectory from a full invariant_profile of every graph of the family."""
    g, ranks = seed, []
    for step in range(1, n_max + 1):
        if step > 1:
            g = extend(g)
        ranks.append((step, invariant_profile(g).mod2_rank))
    return tuple(ranks)


def _scan_seeds():
    rng = random.Random(8)
    seeds = [random_coxeter_graph(rng, rng.randint(1, 12), weights)
             for weights in (DEFAULT_WEIGHTS, SPARSE_WEIGHTS) for _ in range(40)]
    seeds += [random_coxeter_graph(rng, rng.randint(13, 30), rng.choice((DEFAULT_WEIGHTS, SPARSE_WEIGHTS)))
              for _ in range(5)]
    labels = {m for g in seeds for m in g.labels.values()}
    assert INFINITY in labels and any(is_even(m) for m in labels)
    return seeds + [from_catalog(name) for name in ("A1", "B2", "I2(4)", "I2(inf)", "~D4", "E8", "H4")]


def test_stability_scan_matches_the_per_step_profile():
    for seed in _scan_seeds():
        n_max = 16 + len(seed.vertices) % 5
        assert stability_scan(seed, n_max).trajectory == _per_step_ranks(seed, n_max, extend_family)


def test_stability_scan_updates_for_any_appended_vertex(monkeypatch):
    # The scan reads the new vertex's labels from the extended graph, so its
    # update rules must hold for a step that adds even, inf and several odd
    # labels at once, not only for extend_family's single 3-edge.
    rng = random.Random(9)
    drawn = [rng.choices(LABEL_SUPPORT, weights=SPARSE_WEIGHTS, k=k) for k in range(48)]

    def extend(g):
        k = len(g.vertices)
        names = g.vertices + (f"x{k}",)
        edges = [(names[i], names[j], m) for (i, j), m in g.labels.items()]
        edges += [(names[i], names[k], m) for i, m in enumerate(drawn[k])]
        return build_graph(names, edges)

    monkeypatch.setattr(coxhom.invariants, "extend_family", extend)
    for seed in _scan_seeds():
        assert stability_scan(seed, 16).trajectory == _per_step_ranks(seed, 16, extend)


def test_stability_scan_never_analyses_a_graph(monkeypatch):
    # the scan grows its seed vertex by vertex, so it shares no step with analyze
    def refuse(g):
        raise AssertionError("stability_scan must not analyse a graph")

    monkeypatch.setattr(coxhom.invariants, "analyze", refuse)
    monkeypatch.setattr(coxhom.invariants, "pair_classes", refuse)
    seed = build_graph(["a", "b", "c"], [("a", "b", 3), ("a", "c", 4)])
    for n_max in (4, 40):
        assert stability_scan(seed, n_max).trajectory[:4] == ((1, 2), (2, 2), (3, 3), (4, 3))
