"""Brute-force oracles and generators backing the test suite and `check`.

Each oracle reimplements a quantity by a structurally different route: pair
classes by fixed-point closure instead of graph components, cycle rank by exact
fraction elimination instead of component counting, the dihedral reference
straight from the classified homology of dihedral groups.  Agreement between
routes is evidence, not tautology.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .chains import boundary, boundary_matrix, gf2_rank, mod2_reduce
from .errors import CoxhomError
from .graph import INFINITY, CoxeterGraph, Label, PlainGraph, build_graph, is_odd
from .invariants import PairPartition, Pair
from .words import abelianize, omega_sets

LABEL_SUPPORT: tuple[Label, ...] = (2, 3, 4, 5, 6, INFINITY)


def naive_pair_closure(g: CoxeterGraph) -> PairPartition:
    """Transitive closure of the direct pair relation by repeated merging."""
    n = len(g.vertices)
    pairs = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if g.label_ix(i, j) == 2
    )
    blocks = [{pair} for pair in pairs]
    changed = True
    while changed:
        changed = False
        for a in range(len(blocks)):
            for b in range(a + 1, len(blocks)):
                if any(
                    _directly_related(g, x, y) for x in blocks[a] for y in blocks[b]
                ):
                    blocks[a] |= blocks[b]
                    del blocks[b]
                    changed = True
                    break
            if changed:
                break
    classes = tuple(sorted(tuple(sorted(block)) for block in blocks))
    # v is a torsion witness for each commuting pair among its 3-neighbours.
    witnessed = set()
    for v in range(n):
        threes = [s for s in range(n) if g.label_ix(s, v) == 3]
        witnessed.update(pair for pair in combinations(threes, 2) if g.label_ix(*pair) == 2)
    flags = tuple(any(pair in witnessed for pair in block) for block in classes)
    return PairPartition(pairs, classes, flags)


def _directly_related(g: CoxeterGraph, a: Pair, b: Pair) -> bool:
    # All matchings of the ordered rule: equal first letters, odd label on the
    # unshared letters.  m(x, x) = 1 only arises when the pairs coincide.
    for s, t in (a, (a[1], a[0])):
        for s2, t2 in (b, (b[1], b[0])):
            if s == s2 and (t == t2 or is_odd(g.label_ix(t, t2))):
                return True
    return False


def rational_cycle_rank(pg: PlainGraph) -> int:
    """#edges minus the rank of the boundary matrix over the rationals.

    Exact elimination on sparse rows: each vertex row is a {column: Fraction}
    dict, and entries that become 0 are dropped.
    """
    rows: list[dict[int, Fraction]] = [{} for _ in pg.vertices]
    for column, (i, j) in enumerate(pg.edges):
        rows[i][column] = Fraction(-1)
        rows[j][column] = Fraction(1)
    rank = 0
    for col in range(len(pg.edges)):
        holding = [row for row in rows if col in row]
        if not holding:
            continue
        pivot = holding[0]
        rows = [row for row in rows if row is not pivot]
        rank += 1
        for row in holding[1:]:
            factor = row[col] / pivot[col]
            for c, x in pivot.items():
                y = row.get(c, 0) - factor * x
                if y:
                    row[c] = y
                else:
                    del row[c]
    return len(pg.edges) - rank


def dihedral_h2_reference(m: Label) -> int:
    """Z2-rank of the second integral homology of the dihedral group of order 2m.

    Even m gives rank 1, odd m rank 0; the infinite label gives rank 0 (no
    finite edge, no commuting pair, no odd cycle).
    """
    if m == INFINITY:
        return 0
    if m < 2:
        raise CoxhomError(f"dihedral parameter must be >= 2 or INFINITY, got {m}")
    return 1 if m % 2 == 0 else 0


DEFAULT_WEIGHTS: tuple[float, ...] = (3.0, 3.0, 1.0, 1.0, 1.0, 1.0)


def random_coxeter_graph(
    rng: random.Random, n: int, weights: tuple[float, ...] = DEFAULT_WEIGHTS
) -> CoxeterGraph:
    """Graph on v1..vn whose pair labels are drawn from ``rng`` in pair order,
    each from LABEL_SUPPORT with the given weights; equal draws give equal graphs."""
    if n < 1:
        raise CoxhomError(f"vertex count must be >= 1, got {n}")
    if len(weights) != len(LABEL_SUPPORT):
        raise CoxhomError(f"need {len(LABEL_SUPPORT)} weights, one per label in {LABEL_SUPPORT}")
    if min(weights) < 0 or sum(weights) <= 0:
        raise CoxhomError("weights must be nonnegative with positive sum")
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = [(names[i], names[j], rng.choices(LABEL_SUPPORT, weights=weights)[0])
             for i in range(n) for j in range(i + 1, n)]
    return build_graph(names, edges)


def catalog_sample() -> tuple[str, ...]:
    """A concrete slice of every catalog family, used by corpus-style checks."""
    names = [f"A{n}" for n in range(1, 9)]
    names += [f"B{n}" for n in range(2, 9)]
    names += [f"D{n}" for n in range(4, 9)]
    names += ["E6", "E7", "E8", "F4", "H3", "H4"]
    names += [f"I2({m})" for m in range(3, 9)] + ["I2(inf)"]
    names += [f"~A{n}" for n in range(2, 8)]
    names += [f"~B{n}" for n in range(3, 8)]
    names += [f"~C{n}" for n in range(2, 8)]
    names += [f"~D{n}" for n in range(4, 9)]
    names += ["~E6", "~E7", "~E8"]
    return tuple(names)


def consistency_report(g: CoxeterGraph) -> list[tuple[str, bool, str]]:
    """Every internal identity on one graph, as (name, passed, detail) rows."""
    omegas = omega_sets(g, "artin")  # both flavors build the same words
    analysis, basis = omegas.analysis, omegas.basis
    profile = analysis.profile
    pg = analysis.odd
    rows: list[tuple[str, bool, str]] = []

    rows.append((
        "howlett_identity",
        profile.howlett_identity,
        f"-n1+n2+n3+n4 = {-profile.n1 + profile.n2 + profile.n3 + profile.n4}, p+q = {profile.p + profile.q}",
    ))
    rows.append((
        "howlett_term_identities",
        profile.n3 == profile.p + profile.q1
        and profile.n1 == len(pg.vertices)
        and profile.n2 == profile.q2 + len(pg.edges),
        f"n1..n4 = {profile.n1},{profile.n2},{profile.n3},{profile.n4}",
    ))
    agree = analysis.partition == naive_pair_closure(g)
    rows.append(("pair_classes_vs_naive_closure", agree, f"{profile.n3} classes"))
    rational = rational_cycle_rank(pg)
    gf2_dim = len(pg.edges) - gf2_rank(mod2_reduce(enumerate(row)) for row in boundary_matrix(pg))
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
        and omegas.total == profile.p + profile.q,
        f"|1|,|2|,|3| = {len(omegas.omega1)},{len(omegas.omega2)},{len(omegas.omega3)}",
    ))
    rows.append((
        "omega_abelianization",
        all(
            not any(abelianize(w, len(g.vertices)))
            for w in omegas.omega1 + omegas.omega2 + omegas.omega3
        ),
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
