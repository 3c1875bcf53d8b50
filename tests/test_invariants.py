from __future__ import annotations

import random

import pytest

from conftest import (
    DEFAULT_WEIGHTS,
    SPARSE_WEIGHTS,
    appended,
    corpus_graphs,
    family_ranks,
    label_ix,
    listed,
    permuted_copy,
    random_coxeter_graph,
    unread_slot_graph,
)
import coxhom.invariants
from coxhom.errors import CoxhomError
from coxhom.graph import INFINITY, MAX_CATALOG_N, build_graph, from_catalog, is_even, is_odd
from coxhom.invariants import (
    MAX_SCAN_STEPS,
    AbelianDescriptor,
    _grow,
    _read_labels,
    analyze,
    pair_classes,
    stability_scan,
)
from coxhom.oracles import naive_pair_closure
from coxhom.words import omega_sets

# Labels 3 and 5 drawn 7 times in 16: odd edges at most vertices.
ODD_HEAVY = (6.0, 4.0, 1.0, 3.0, 1.0, 1.0)
TRIANGLE = build_graph(["s1", "s2", "s3"], [("s1", "s2", 3), ("s2", "s3", 3), ("s1", "s3", 3)])


def test_commuting_pairs_examples():
    assert pair_classes(from_catalog("A2")).pairs == ()
    assert pair_classes(from_catalog("A3")).pairs == ((0, 2),)
    # ~D4 star: all six leaf pairs commute, none involves the center (index 2)
    pairs = pair_classes(from_catalog("~D4")).pairs
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
        n = len(g.vertices)
        commuting = [(i, j) for i in range(n) for j in range(i + 1, n) if label_ix(g, i, j) == 2]
        flattened = sorted(pair for block in partition.classes for pair in block)
        assert flattened == list(partition.pairs) == commuting
        assert all(list(block) == sorted(block) for block in partition.classes)
        assert partition.least == tuple(block[0] for block in partition.classes)
        assert len(partition.torsion_flags) == len(partition.classes)


@pytest.mark.parametrize(
    "family, expected",
    [("A", (1, 1)), ("B", (2, 1)), ("D", (2, 2)), ("~A", (1, 1)), ("~B", (3, 2)), ("~C", (4, 1)), ("~D", (3, 3))],
)
def test_pair_classes_keep_their_count_along_catalog_families(family, expected):
    # (classes, torsion classes) at n = 12, confirmed by the closure oracle, and unchanged at n = 3000
    small = from_catalog(f"{family}12")
    reference = naive_pair_closure(small)
    classes, flags = reference
    assert (len(classes), sum(flags)) == expected
    assert listed(pair_classes(small)) == reference
    large = pair_classes(from_catalog(f"{family}3000"))
    assert (len(large.least), sum(large.torsion_flags)) == expected


def test_pair_classes_search_goes_on_through_births():
    # v4 commutes with v0..v3 and has no odd neighbour, so its four slots are
    # births.  They are joined only along the chain v0 - v2 - v3 - v1 of odd
    # edges: a search from v0 that stops at v2 leaves v1 to a search that
    # stops at v3, and the edge v2 - v3 joins the two.
    g = _named(5, [(0, 2, 3), (2, 3, 3), (1, 3, 3)])
    partition = pair_classes(g)
    assert partition.n3 == 2
    assert partition.classes[1] == ((0, 4), (1, 4), (2, 4), (3, 4))
    assert listed(partition) == naive_pair_closure(g)


def test_pair_classes_births_meet_at_a_shared_vertex():
    # v4's highest odd neighbour is v3, which commutes with v2 but not with
    # v0 or v1: {v0,v4} and {v1,v4} are births, and only their odd edges to
    # the shared v2 join them, through {v2,v4}, to {v2,v3}.
    g = _named(5, [(3, 4, 3), (0, 3, 4), (1, 3, 4), (0, 2, 3), (1, 2, 3)])
    partition = pair_classes(g)
    assert partition.n3 == 2
    assert partition.classes[1] == ((0, 4), (1, 4), (2, 3), (2, 4))
    assert listed(partition) == naive_pair_closure(g)


def test_invariant_profile_affine_d4():
    profile = analyze(from_catalog("~D4"))
    assert (profile.p, profile.q1, profile.q2, profile.q3, profile.q) == (6, 0, 0, 0, 0)


def test_invariant_profile_i24():
    profile = analyze(from_catalog("I2(4)"))
    assert (profile.p, profile.q1, profile.q2, profile.q3) == (0, 0, 1, 0)
    assert profile.p + profile.q == 1


def test_invariant_profile_triangle_cycle_rank():
    profile = analyze(TRIANGLE)
    assert (profile.p, profile.q1, profile.q2, profile.q3) == (0, 0, 0, 1)


def test_invariant_profile_empty_graph():
    profile = analyze(build_graph([]))
    assert profile == analyze(build_graph([]))
    assert profile.p == profile.q == profile.n1 == profile.n4 == 0


def test_h1_rank_counts_odd_components():
    # B3: the 4-edge splits s1 from the odd component {s2, s3}
    assert analyze(from_catalog("B3")).n4 == 2
    assert analyze(from_catalog("A5")).n4 == 1


def test_homology_summary_affine_e6():
    profile = analyze(from_catalog("~E6"))
    assert profile.corollary_applies
    assert profile.h2_artin_integral == AbelianDescriptor(0, 1)


def test_homology_summary_affine_d5():
    profile = analyze(from_catalog("~D5"))
    assert profile.h2_artin_integral == AbelianDescriptor(0, 3)


def test_homology_summary_i24_undetermined_integrally():
    profile = analyze(from_catalog("I2(4)"))
    assert not profile.odd_equals_gamma
    assert not profile.corollary_applies
    assert profile.mod2_rank == 1
    assert profile.h2_artin_integral is None


def test_homology_summary_rank_identities():
    for g in corpus_graphs(60):
        profile = analyze(g)
        assert profile.q == profile.q1 + profile.q2 + profile.q3
        assert (
            profile.mod2_rank
            == profile.h2_orbit.free_rank + profile.h2_orbit.torsion2_rank
            == profile.h2_coxeter.torsion2_rank
        )
        assert profile.h2_orbit == AbelianDescriptor(profile.q, profile.p)
        assert (profile.h2_artin_integral is not None) == profile.corollary_applies
        assert profile.odd_equals_gamma == all(is_odd(m) for m in g.labels.values())


def test_corollary_tree_condition_is_on_whole_graph():
    # odd subgraph is a forest, but the 4-labeled edge closes a cycle in the graph
    g = build_graph(
        ["a", "b", "c"],
        [("a", "b", 3), ("b", "c", 3), ("a", "c", 4)],
    )
    profile = analyze(g)
    assert not profile.tree
    assert profile.q3 == 0


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
    # catalog diagrams in their own vertex order are long runs of odd edges,
    # shuffled copies scatter them; ~A3000's last label closes its cycle
    rng = random.Random(5)
    graphs = corpus_graphs(120) + [from_catalog(name) for name in ("A3000", "~A3000", "~D3000")]
    graphs += [permuted_copy(from_catalog(name), rng) for name in ("D70", "~A85")]
    for g in graphs:
        profile = analyze(g)
        odd_edges = [pair for pair, m in g.labels.items() if m != INFINITY and m % 2]
        assert -profile.n1 + profile.n2 + profile.n3 + profile.n4 == profile.mod2_rank
        assert profile.n3 == profile.p + profile.q1
        assert profile.n1 == len(g.vertices)
        assert profile.n4 == _forest_components(len(g.vertices), odd_edges)[0]
        assert profile.all_torsion == all(pair_classes(g).torsion_flags)
        assert profile.tree == _forest_components(len(g.vertices), g.labels)[1]


def _classes_by_name(g):
    """g's pair classes as sets of vertex-name pairs, each with its torsion flag."""
    partition = pair_classes(g)
    return {
        frozenset(frozenset((g.vertices[s], g.vertices[t])) for s, t in block): flag
        for block, flag in zip(partition.classes, partition.torsion_flags)
    }


def test_invariants_are_isomorphism_invariant():
    # pair_classes grows a graph in its vertex order, so a shuffled copy
    # reaches the same classes through other row copies, births and joins;
    # large catalog diagrams and random graphs are shuffled too
    rng = random.Random(11)
    graphs = corpus_graphs(30)
    sizes = (40, 55, 70, 85, 100, 110, 120)
    graphs += [from_catalog(f"{family}{n}") for family, n in zip(("A", "B", "D", "~A", "~B", "~C", "~D"), sizes)]
    graphs += [random_coxeter_graph(rng, rng.randint(40, 60), weights)
               for weights in (DEFAULT_WEIGHTS, SPARSE_WEIGHTS) for _ in range(3)]
    for g in graphs:
        reference = analyze(g)
        classes = _classes_by_name(g)
        for _ in range(3 if len(g.vertices) < 40 else 2):
            copy = permuted_copy(g, rng)
            assert analyze(copy) == reference
            assert _classes_by_name(copy) == classes


def test_analyze_counts_the_largest_edgeless_graph_without_listing_a_class():
    # every pair of an edgeless graph is a class of its own; compute reads
    # only the counts, so no class, least pair or flag is listed
    n = MAX_CATALOG_N + 1
    profile = analyze(build_graph([f"v{i}" for i in range(n)]))
    assert (profile.n3, profile.p) == (n * (n - 1) // 2, 0) == (4501500, 0)
    assert not {"least", "torsion_flags", "classes", "pairs"} & vars(profile.partition).keys()


def test_profile_shows_its_counts_only_and_omega_sets_every_field():
    g = from_catalog("~D4")
    profile = analyze(g)
    omegas = omega_sets(g, profile, "artin")
    bare = profile._replace(partition=None)
    assert profile == bare and not profile != bare and hash(profile) == hash(bare)
    assert profile != profile._replace(n1=profile.n1 + 1) and not profile == profile._replace(tree=False)
    assert profile != tuple(profile)
    assert repr(profile) == (
        "InvariantProfile(p=6, q1=0, q2=0, q3=0, n1=5, n2=4, n3=6, n4=1, odd_equals_gamma=True, tree=True)"
    )
    # the words' sources are plain fields, compared, hashed and shown like the words
    assert type(omegas).__eq__ is tuple.__eq__ and type(omegas).__hash__ is tuple.__hash__
    assert omegas._fields == ("flavor", "omega1", "omega2", "omega3", "odd", "basis")
    assert omegas == tuple(omegas) and hash(omegas) == hash(tuple(omegas))
    assert omegas != omegas._replace(flavor="coxeter") and omegas != omegas._replace(omega1=())
    assert omegas != omegas._replace(odd=None) and omegas != omegas._replace(basis=None)
    assert repr(omegas) == (
        f"OmegaSets(flavor='artin', omega1={omegas.omega1!r}, omega2=(), omega3=(), "
        f"odd={omegas.odd!r}, basis=CycleBasis(basis=()))"
    )
    assert repr(profile.partition) == "PairPartition(n3=6, p=6)"


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
        p1, p2 = analyze(g1), analyze(g2)
        union = analyze(_disjoint_union(g1, g2))
        assert union.mod2_rank == p1.mod2_rank + p2.mod2_rank + p1.n4 * p2.n4
        assert union.n4 == p1.n4 + p2.n4


def test_stability_scan_a1():
    report = stability_scan(from_catalog("A1"), 6)
    assert report.trajectory == ((1, 0), (2, 0), (3, 1), (4, 1), (5, 1), (6, 1))
    assert report.stable


def test_stability_scan_i24():
    report = stability_scan(from_catalog("I2(4)"), 6)
    expected = family_ranks(from_catalog("I2(4)"), 6)
    assert report.trajectory == expected
    ranks = [rank for step, rank in expected if step >= 3]
    assert len(set(ranks)) == 1
    assert report.stable


def test_stability_scan_preconditions():
    with pytest.raises(CoxhomError, match="needs a nonempty seed"):
        stability_scan(build_graph([]), 6)
    with pytest.raises(CoxhomError, match="n_max must be >= 4"):
        stability_scan(from_catalog("A1"), 3)
    with pytest.raises(CoxhomError, match=f"n_max must be <= {MAX_SCAN_STEPS}, got {MAX_SCAN_STEPS + 1}"):
        stability_scan(from_catalog("A1"), MAX_SCAN_STEPS + 1)


def test_stability_scan_takes_seeds_of_any_size_at_every_n_max():
    # only the seed and three appended vertices are grown, so n_max bounds
    # the output rows and not the seed: A<n> has rank 1 at every step
    seed = from_catalog(f"A{MAX_SCAN_STEPS}")
    for n_max in (4, MAX_SCAN_STEPS):
        report = stability_scan(seed, n_max)
        assert report.trajectory == tuple((step, 1) for step in range(1, n_max + 1))
        assert report.stable
    # n_max is checked first, whatever the seed
    with pytest.raises(CoxhomError, match=f"n_max must be <= {MAX_SCAN_STEPS}, got {MAX_SCAN_STEPS + 1}"):
        stability_scan(seed, MAX_SCAN_STEPS + 1)
    assert stability_scan(from_catalog("A3"), 8).trajectory[-1][0] == 8


def test_family_extender_reaches_every_a_type():
    g = from_catalog("A1")
    for n in range(2, 8):
        g = appended(g)
        assert g == from_catalog(f"A{n}")
    assert appended(from_catalog("I2(4)")).labels == {(0, 1): 4, (1, 2): 3}


def _reference_rank(g):
    """p + q = n3 + q2 + q3 with no step shared with the scan: n3 from the
    closure oracle, q2 by counting labels, q3 by a union-find over the odd
    edges."""
    n = len(g.vertices)
    odd_edges = [pair for pair, m in g.labels.items() if is_odd(m)]
    q2 = sum(1 for m in g.labels.values() if is_even(m) and m >= 4)
    q3 = len(odd_edges) - n + _forest_components(n, odd_edges)[0]
    classes, _ = naive_pair_closure(g)
    return len(classes) + q2 + q3


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
        assert stability_scan(seed, n_max).trajectory == family_ranks(seed, n_max)


def _full_scan(seed, n_max):
    """The trajectory from one ``_grow`` call over the seed and all n_max - 1
    appended vertices, each step's count read as it is grown: the scan with
    no use of its lemma, kept as the lemma's oracle."""
    n = len(seed.vertices)
    profile = analyze(seed)
    noncommuting, odd, *_ = _read_labels(seed)
    for v in range(n, n + n_max - 1):
        noncommuting[v - 1] |= 1 << v
        noncommuting.append(1 << (v - 1) | 1 << v)
        odd.append([v - 1])
    counts = _grow(noncommuting, odd)[0][n - 1:]
    return tuple((step, n3 + profile.q2 + profile.q3) for step, n3 in enumerate(counts, 1))


def test_stability_scan_matches_the_full_scan():
    # the lemma: once two vertices are appended, p+q stays the same at every
    # later step of the full scan, which the scan only repeats
    rng = random.Random(28)
    seeds = [random_coxeter_graph(rng, rng.randint(1, 40), weights)
             for weights in (DEFAULT_WEIGHTS, SPARSE_WEIGHTS, ODD_HEAVY) for _ in range(340)]
    seeds += [from_catalog(name) for name in ("A1", "B2", "I2(4)", "I2(inf)", "~D4", "E8", "H4")]
    moved = 0
    for seed in seeds:
        full = _full_scan(seed, 60)
        assert len({rank for step, rank in full if step >= 3}) == 1
        assert stability_scan(seed, 60).trajectory == full
        moved += len({rank for _, rank in full}) > 1
    assert moved > 100  # steps 1..3 do move: the comparison is not of constants


def test_stability_scan_grows_the_seed_and_three_appended_vertices(monkeypatch):
    calls = []
    grow = coxhom.invariants._grow

    def spy(noncommuting, odd_lowers):
        calls.append((noncommuting, odd_lowers))
        return grow(noncommuting, odd_lowers)

    monkeypatch.setattr(coxhom.invariants, "_grow", spy)
    for n_max in (4, MAX_SCAN_STEPS):
        calls.clear()
        assert len(stability_scan(from_catalog("A1"), n_max).trajectory) == n_max
        # the path s1 -- v1 -- v2 -- v3 of 3-edges
        assert calls == [([0b0011, 0b0111, 0b1110, 0b1100], [[], [0], [1], [2]])]


def _scan_shapes(g):
    """Which shapes of the scan's per-vertex update a seed takes, with y a
    vertex v's highest odd neighbour below it and S the vertices below y
    commuting with both: two or more odd neighbours below v, S in several
    runs, and vertices between y and v that commute with v."""
    n = len(g.vertices)
    noncommuting = [1 << v for v in range(n)]
    odd = [[] for _ in range(n)]
    for (x, v), m in g.labels.items():
        noncommuting[x] |= 1 << v
        noncommuting[v] |= 1 << x
        if is_odd(m):
            odd[v].append(x)
    shapes = set()
    for v in range(n):
        if odd[v]:
            y = max(odd[v])
            row = ((1 << v) - 1) & ~noncommuting[v]
            shared = row & ~noncommuting[y] & ((1 << y) - 1)
            if len(odd[v]) > 1:
                shapes.add("odd neighbours")
            if (shared & ~(shared << 1)).bit_count() > 1:  # more than one run start
                shapes.add("runs")
            if row >> (y + 1):
                shapes.add("between")
    return shapes


def _named(n, edges):
    names = [f"v{i}" for i in range(n)]
    return build_graph(names, [(names[i], names[j], m) for i, j, m in edges])


def test_stability_scan_matches_the_per_step_profile_on_each_update_shape():
    # v9's 3-neighbour v8 does not commute with v1, v3 or v5, so S splits
    # into four runs, and odd edges join vertices inside and across them.
    runs = _named(10, [(1, 8, 4), (3, 8, INFINITY), (5, 8, 6), (8, 9, 3),
                       (0, 2, 3), (2, 4, 5), (4, 6, 3), (1, 3, 3), (6, 7, 5), (3, 6, 3)])
    # v9's highest odd neighbour is v3: v4..v8 lie between, with odd edges
    # among them and to the vertices below; v0 and v2 are two more odd
    # neighbours, and v5 commutes with v9 but not with v3.
    between = _named(10, [(0, 9, 5), (2, 9, 3), (3, 9, 3), (3, 5, 4), (4, 6, 3), (6, 8, 3),
                          (5, 7, 5), (1, 4, 3), (2, 7, 3), (0, 1, 3), (1, 2, 6), (8, 9, INFINITY)])
    assert "runs" in _scan_shapes(runs)
    assert {"odd neighbours", "between"} <= _scan_shapes(between)
    rng = random.Random(11)
    drawn = [random_coxeter_graph(rng, rng.randint(8, 14), ODD_HEAVY) for _ in range(40)]
    drawn = [g for g in drawn if _scan_shapes(g) == {"odd neighbours", "runs", "between"}]
    assert len(drawn) >= 10
    for seed in [runs, between, unread_slot_graph()] + drawn:
        for n_max in (4, 9):
            assert stability_scan(seed, n_max).trajectory == family_ranks(seed, n_max, _reference_rank)


def test_stability_scan_matches_the_per_step_profile_on_large_seeds():
    rng = random.Random(12)
    for weights in (DEFAULT_WEIGHTS, SPARSE_WEIGHTS, (1.0,) * 6):
        seed = random_coxeter_graph(rng, rng.randint(60, 120), weights)
        assert stability_scan(seed, 6).trajectory == family_ranks(seed, 6)


def test_stability_scan_updates_for_any_appended_vertex():
    # Step 1 grows the seed vertex by vertex with the update every appended
    # vertex takes, so it must equal analyze on each vertex prefix of a graph
    # whose vertices add even, inf and several odd labels at once, not only
    # the family's single 3-edge.
    rng = random.Random(9)
    for weights in (SPARSE_WEIGHTS, DEFAULT_WEIGHTS, SPARSE_WEIGHTS):
        g = random_coxeter_graph(rng, 40, weights)
        assert {INFINITY, 3, 4, 5, 6} <= set(g.labels.values())
        assert any(sum(1 for (_, j), m in g.labels.items() if j == v and is_odd(m)) > 1 for v in range(40))
        for k in range(1, len(g.vertices) + 1):
            prefix = build_graph(g.vertices[:k], [(g.vertices[i], g.vertices[j], m)
                                                   for (i, j), m in g.labels.items() if j < k])
            assert stability_scan(prefix, 4).trajectory[0] == (1, analyze(prefix).mod2_rank)


def test_stability_scan_never_analyses_a_graph(monkeypatch):
    # the scan feeds its seed's vertices and the appended ones straight to
    # pair_classes' engine, so it builds no graph and runs no analysis
    def refuse(g):
        raise AssertionError("stability_scan must not analyse a graph")

    monkeypatch.setattr(coxhom.invariants, "analyze", refuse)
    monkeypatch.setattr(coxhom.invariants, "pair_classes", refuse)
    seed = build_graph(["a", "b", "c"], [("a", "b", 3), ("a", "c", 4)])
    for n_max in (4, 40):
        assert stability_scan(seed, n_max).trajectory[:4] == ((1, 2), (2, 2), (3, 3), (4, 3))
