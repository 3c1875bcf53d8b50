"""Independent oracles backing the test suite and `check`.

Each oracle reimplements a quantity by a structurally different route: pair
classes as the components of the direct relation built from its definition,
searched breadth first, instead of a union-find over pair slots grown vertex
by vertex; cycle rank by elimination over the integers, with integer
cross-multiplication, instead of component counting.  Agreement between routes is evidence, not tautology.  `check`
also reads Howlett's n3 and n4 from these two oracles, not from the profile.
"""

from __future__ import annotations

from itertools import combinations

from .chains import boundary, gf2_rank, mod2_reduce
from .graph import CoxeterGraph, PlainGraph, is_odd
from .invariants import Pair
from .words import in_commutator_subgroup, omega_sets


def naive_pair_closure(g: CoxeterGraph) -> tuple[tuple[tuple[Pair, ...], ...], tuple[bool, ...]]:
    """Pair classes as the connected components of the direct relation, and
    whether each is torsion: ``(classes, flags)``, in the order and shape of
    ``PairPartition``'s ``classes`` and ``torsion_flags``.

    The relation is read from its definition: for each odd edge {x,y},
    every vertex a commuting with both relates {a,x} to {a,y}.  A
    breadth-first search from each class's least pair lists the class,
    stepping from each member {a,x} along the odd edges at either end.
    This shares nothing with ``invariants._grow``, which grows a union-find
    over pair slots vertex by vertex: here there is no union-find, no slot
    table and no bit mask, only sets of vertices and lists of pairs.
    """
    n = len(g.vertices)
    # each vertex's commuting set, odd neighbours and 3-neighbours, read in
    # one pass over the stored labels: an absent pair has m = 2
    commuting = [set(range(n)) - {a} for a in range(n)]
    odd: list[list[int]] = [[] for _ in range(n)]
    threes: list[set[int]] = [set() for _ in range(n)]
    for (s, t), m in g.labels.items():
        commuting[s].discard(t)
        commuting[t].discard(s)
        if is_odd(m):
            odd[s].append(t)
            odd[t].append(s)
        if m == 3:
            threes[s].add(t)
            threes[t].add(s)
    classes: list[tuple[Pair, ...]] = []
    seen: set[Pair] = set()
    pairs = [(a, x) for a, x in combinations(range(n), 2) if x in commuting[a]]
    for pair in pairs:  # in increasing order, so each search starts at its class's least pair
        if pair in seen:
            continue
        seen.add(pair)
        block = [pair]
        for s, t in block:  # the block grows as it is walked
            # {a,x} ~ {a,y} for each odd edge {x,y} with a commuting with y
            related = [(a, y) if a < y else (y, a) for a, x in ((s, t), (t, s)) for y in odd[x] if y in commuting[a]]
            for other in related:
                if other not in seen:
                    seen.add(other)
                    block.append(other)
        classes.append(tuple(sorted(block)))
    # a class is torsion when one of its own pairs {s,t} has a common 3-neighbour
    flags = tuple(any(not threes[s].isdisjoint(threes[t]) for s, t in block) for block in classes)
    return tuple(classes), flags


def rational_cycle_rank(pg: PlainGraph) -> int:
    """#edges minus the rank of the boundary matrix over the rationals.

    Exact elimination on sparse integer rows: each vertex row is a
    {column: int} dict, and entries that become 0 are dropped.  A row
    holding the pivot's column becomes a * row - b * pivot, a the pivot's
    entry there and b the row's, which clears that column and keeps the
    rank over the rationals.  An incidence matrix's pivots are +-1, so its
    entries stay in {-1, 0, 1}.
    """
    rows: list[dict[int, int]] = [{} for _ in pg.vertices]
    for column, (i, j) in enumerate(pg.edges):
        rows[i][column] = -1
        rows[j][column] = 1
    rank = 0
    for col in range(len(pg.edges)):
        holding = [row for row in rows if col in row]
        if not holding:
            continue
        pivot = holding[0]
        rows = [row for row in rows if row is not pivot]
        rank += 1
        a = pivot[col]
        for row in holding[1:]:
            b = row[col]
            for c in row:
                row[c] *= a
            for c, x in pivot.items():
                y = row.get(c, 0) - b * x
                if y:
                    row[c] = y
                else:
                    del row[c]
    return len(pg.edges) - rank


def consistency_report(g: CoxeterGraph) -> list[tuple[str, bool, str]]:
    """Every internal identity on one graph, as (name, passed, detail) rows."""
    omegas = omega_sets(g, "artin")  # both flavors build the same words
    profile, basis = omegas.profile, omegas.basis
    pg = profile.odd
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
        and profile.n1 == len(pg.vertices)
        and profile.n2 == profile.q2 + len(pg.edges)
        and n4 == profile.n4,
        f"n1..n4 = {profile.n1},{profile.n2},{n3},{n4}",
    ))
    partition = profile.partition
    agree = closure == (partition.classes, partition.torsion_flags)
    rows.append(("pair_classes_vs_naive_closure", agree, f"{profile.n3} classes"))
    incidence = [0] * len(pg.vertices)  # bit k of vertex v: edge k ends at v
    for k, (i, j) in enumerate(pg.edges):
        incidence[i] |= 1 << k
        incidence[j] |= 1 << k
    gf2_dim = len(pg.edges) - gf2_rank(incidence)
    rows.append((
        "cycle_rank_oracles",
        profile.q3 == rational == gf2_dim == len(basis.basis),
        f"q3 = {profile.q3}, rational = {rational}, gf2 = {gf2_dim}",
    ))
    rows.append((
        "fundamental_cycles_bound",
        all(not any(boundary(pg, cycle)) for cycle in basis.basis)
        and gf2_rank(mod2_reduce(cycle) for cycle in basis.basis) == profile.q3,
        f"{len(basis.basis)} cycles",
    ))
    rows.append((
        "omega_counts",
        len(omegas.omega1) == profile.p + profile.q1
        and len(omegas.omega2) == profile.q2
        and len(omegas.omega3) == profile.q3
        and omegas.total == profile.mod2_rank,
        f"|1|,|2|,|3| = {len(omegas.omega1)},{len(omegas.omega2)},{len(omegas.omega3)}",
    ))
    rows.append((
        "omega_abelianization",
        all(map(in_commutator_subgroup, omegas.omega1 + omegas.omega2 + omegas.omega3)),
        f"{omegas.total} words",
    ))
    rows.append((
        "omega_freely_reduced",
        all(
            0 not in w and all(a != -b for a, b in zip(w, w[1:]))
            for w in omegas.omega1 + omegas.omega2 + omegas.omega3
        ),
        f"{omegas.total} words",
    ))
    return rows
