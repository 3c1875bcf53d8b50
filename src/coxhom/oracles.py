"""Independent oracles backing the test suite and `check`.

Each reads only the stored labels (an absent pair has m = 2) and the odd
edges, by a route of its own: pair classes as the components of the direct
relation, searched breadth first, not a union-find over pair slots; cycle
rank by integer elimination of edge rows, not by counting components.  Their
agreement is evidence, not tautology; `check` reads n3 and n4 from them.
"""

from __future__ import annotations

from itertools import combinations
from operator import add, neg

from .chains import boundary, gf2_rank
from .graph import CoxeterGraph, PlainGraph, is_odd
from .invariants import Pair, analyze
from .words import omega_sets


def naive_pair_closure(g: CoxeterGraph) -> tuple[tuple[tuple[Pair, ...], ...], tuple[bool, ...]]:
    """Pair classes as the connected components of the direct relation, and
    whether each is torsion: ``(classes, flags)``, in the order and shape of
    ``PairPartition``'s ``classes`` and ``torsion_flags``.

    The relation is read from its definition: for each odd edge {x,y}, every
    vertex a commuting with both relates {a,x} to {a,y}, and a commutes with
    y when ``g.labels`` holds no label for them, that is, when y is not in
    the set of vertices a has a stored label with.  A breadth-first search
    from each class's least pair lists the class.  The 3-neighbours that
    decide its torsion are gathered only for vertices that lie in a pair,
    once the stored sets show which.  Unlike
    ``invariants._grow``, which grows a union-find over pair slots vertex by
    vertex, this keeps no union-find, slot table or bit mask, only neighbour
    lists and sets, which grow with the labels, and pairs.
    """
    # each vertex's odd neighbours and stored neighbours (those it does not
    # commute with), read in one pass over the stored labels
    odd: list[list[int]] = [[] for _ in g.vertices]
    stored: list[set[int]] = [set() for _ in g.vertices]
    for (s, t), m in g.labels.items():
        stored[s].add(t)
        stored[t].add(s)
        if is_odd(m):
            odd[s].append(t)
            odd[t].append(s)
    # then the 3-neighbours of each vertex that commutes with another, as only
    # such a vertex lies in a pair; the others' sets stay empty and are not read
    paired = [len(nbrs) < len(g.vertices) - 1 for nbrs in stored]
    threes: list[set[int]] = [set() for _ in g.vertices]
    for (s, t), m in g.labels.items():
        if m == 3:
            if paired[s]:
                threes[s].add(t)
            if paired[t]:
                threes[t].add(s)
    classes: list[tuple[Pair, ...]] = []
    seen: set[Pair] = set()
    for pair in combinations(range(len(g.vertices)), 2):  # in order, so a search starts at its class's least pair
        if pair in g.labels or pair in seen:
            continue
        seen.add(pair)
        block = [pair]
        for s, t in block:  # the block grows as it is walked
            # {a,x} ~ {a,y} for each odd edge {x,y} with a commuting with y; y != a, as {a,x} commutes
            for a, x in ((s, t), (t, s)):
                stored_a = stored[a]
                for y in odd[x]:
                    if y in stored_a:
                        continue
                    other = (a, y) if a < y else (y, a)
                    if other not in seen:
                        seen.add(other)
                        block.append(other)
        classes.append(tuple(sorted(block)))
    # a class is torsion when one of its own pairs {s,t} has a common 3-neighbour
    flags = tuple(any(not threes[s].isdisjoint(threes[t]) for s, t in block) for block in classes)
    return tuple(classes), flags


def rational_cycle_rank(pg: PlainGraph) -> int:
    """#edges minus the rank of the boundary matrix over the rationals.

    That is its transpose's rank: each edge {i,j} gives an integer row
    ``{i: -1, j: 1}``, reduced against the rows kept so far, one per leading
    (highest) vertex, as a * row - b * kept (a the kept row's entry there, b
    the row's) until it leads with a new vertex and is kept, or is 0.  Exact
    elimination, with no union-find (``invariants._components``) or forest.
    """
    kept: dict[int, dict[int, int]] = {}  # leading vertex -> the kept row that leads with it
    for i, j in pg.edges:
        row = {i: -1, j: 1}
        while row:
            top = max(row)
            pivot = kept.get(top)
            if pivot is None:
                kept[top] = row
                break
            a = pivot[top]
            b = row[top]
            for c in row:
                row[c] *= a
            for c, x in pivot.items():
                y = row.get(c, 0) - b * x
                if y:
                    row[c] = y
                else:
                    del row[c]
    return len(pg.edges) - len(kept)


def in_commutator_subgroup(w: tuple[int, ...]) -> bool:
    """Exact commutator-subgroup test in a free group: zero abelianization,
    that is, each letter occurs as often as its inverse.  Then the word has
    even length, and its sorted letters' upper half is their lower half
    negated and reversed; conversely that match makes the lower half all
    negative and the letters closed under negation, count by count."""
    ordered = sorted(w)
    half = len(ordered) // 2
    return len(ordered) % 2 == 0 and ordered[half:] == list(map(neg, reversed(ordered[:half])))


def consistency_report(g: CoxeterGraph) -> list[tuple[str, bool, str]]:
    """Every internal identity on one graph, as (name, passed, detail) rows."""
    profile = analyze(g)
    omegas = omega_sets(g, profile, "artin")  # both flavors build the same words
    pg, basis = omegas.odd, omegas.basis
    # the oracle runs first, so its working sets are freed before the partition lists its classes
    closure = naive_pair_closure(g)
    rational = rational_cycle_rank(pg)
    n3 = len(closure[0])
    n4 = len(pg.vertices) - len(pg.edges) + rational
    rows: list[tuple[str, bool, str]] = []

    howlett = -profile.n1 + profile.n2 + n3 + n4
    rows.append((
        "howlett_identity",
        howlett == profile.mod2_rank,
        f"-n1+n2+n3+n4 = {howlett}, p+q = {profile.mod2_rank}",
    ))
    rows.append((
        "howlett_term_identities",
        n3 == profile.p + profile.q1
        and profile.n2 == profile.q2 + len(pg.edges)
        and n4 == profile.n4,
        f"n1..n4 = {profile.n1},{profile.n2},{n3},{n4}",
    ))
    partition = profile.partition
    agree = closure == (partition.classes, partition.torsion_flags)
    rows.append(("pair_classes_vs_naive_closure", agree, f"{profile.n3} classes"))
    gf2_dim = len(pg.edges) - gf2_rank((1 << i) | (1 << j) for i, j in pg.edges)  # one 2-bit row per edge
    rows.append((
        "cycle_rank_oracles",
        profile.q3 == rational == gf2_dim == len(basis.basis),
        f"q3 = {profile.q3}, rational = {rational}, gf2 = {gf2_dim}",
    ))
    # q3 cycles that each hold an edge no other cycle holds, with an odd
    # coefficient, are independent mod 2: one count per edge shows it
    held = [0] * len(pg.edges)  # how many cycles hold each edge with an odd coefficient
    for cycle in basis.basis:
        for k, c in cycle:
            held[k] += c % 2
    rows.append((
        "fundamental_cycles_bound",
        not any(boundary(pg, cycle) for cycle in basis.basis)
        and len(basis.basis) == profile.q3
        and all(any(c % 2 and held[k] == 1 for k, c in cycle) for cycle in basis.basis),
        f"{len(basis.basis)} cycles",
    ))
    rows.append((
        "omega_counts",
        len(omegas.omega1) == profile.p + profile.q1
        and len(omegas.omega2) == profile.q2
        and len(omegas.omega3) == profile.q3,
        f"|1|,|2|,|3| = {len(omegas.omega1)},{len(omegas.omega2)},{len(omegas.omega3)}",
    ))
    words = omegas.omega1 + omegas.omega2 + omegas.omega3
    rows.append((
        "omega_abelianization",
        all(map(in_commutator_subgroup, words)),
        f"{omegas.total} words",
    ))
    rows.append((
        "omega_freely_reduced",
        all(0 not in w and 0 not in map(add, w, w[1:]) for w in words),  # a + b == 0 when b == -a
        f"{omegas.total} words",
    ))
    return rows
