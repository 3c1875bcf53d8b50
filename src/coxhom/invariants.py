"""Pair-class combinatorics and homology-rank invariants of a Coxeter graph.

The commuting pairs P = {{s,t} : m(s,t) = 2} carry an equivalence: two pairs
sharing exactly one vertex are identified when their unshared vertices have a
finite odd label.  Counting torsion and non-torsion classes, even labels >= 4,
and independent cycles of the odd subgraph yields the ranks of the second
homology of the Coxeter group, the associated Artin group mod 2, and the
hyperplane-complement orbit space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CoxhomError
from .graph import (
    CoxeterGraph,
    PlainGraph,
    connected_components,
    extend_family,
    is_even,
    is_finite,
    is_odd,
    odd_subgraph,
)

Pair = tuple[int, int]


@dataclass(frozen=True)
class PairPartition:
    """The commuting pairs of a graph, partitioned into equivalence classes.

    Blocks are ordered by their lexicographically smallest member pair and
    each block is internally sorted; ``torsion_flags[k]`` records whether some
    pair in block k has a common neighbor with both labels exactly 3.
    """

    pairs: tuple[Pair, ...]
    classes: tuple[tuple[Pair, ...], ...]
    torsion_flags: tuple[bool, ...]


@dataclass(frozen=True)
class InvariantProfile:
    p: int
    q1: int
    q2: int
    q3: int
    q: int
    n1: int
    n2: int
    n3: int
    n4: int

    @property
    def howlett_identity(self) -> bool:
        return -self.n1 + self.n2 + self.n3 + self.n4 == self.p + self.q

    @property
    def mod2_rank(self) -> int:
        return self.p + self.q


@dataclass(frozen=True)
class AbelianDescriptor:
    """Finitely generated abelian group of shape Z^free_rank + Z2^torsion2_rank."""

    free_rank: int
    torsion2_rank: int


@dataclass(frozen=True)
class CorollaryConditions:
    all_torsion: bool
    odd_equals_gamma: bool
    tree: bool

    @property
    def applies(self) -> bool:
        return self.all_torsion and self.odd_equals_gamma and self.tree


@dataclass(frozen=True)
class HomologySummary:
    h2_orbit: AbelianDescriptor
    h2_coxeter: AbelianDescriptor
    h2_artin_mod2_rank: int
    corollary: CorollaryConditions
    h2_artin_integral: Optional[AbelianDescriptor]


def commuting_pairs(g: CoxeterGraph) -> tuple[Pair, ...]:
    """All unordered index pairs with label exactly 2, lexicographic."""
    n = len(g.vertices)
    return tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if g.label_ix(i, j) == 2
    )


def pair_classes(g: CoxeterGraph) -> PairPartition:
    """Partition of the commuting pairs under the odd-label relation.

    Pairs {a,x} and {a,y} are related whenever {x,y} is a finite-odd-labeled
    pair; every direct relation of the defining equivalence has this form.
    The classes are the connected components of the pair graph, which links
    each such {a,x} and {a,y}.
    """
    pairs = commuting_pairs(g)
    n = len(g.vertices)
    # pair_id[a][x]: index in ``pairs`` of the commuting pair {a,x}, else -1
    pair_id = [[-1] * n for _ in range(n)]
    for k, (s, t) in enumerate(pairs):
        pair_id[s][t] = pair_id[t][s] = k
    links = []
    for (x, y), m in g.labels.items():
        if is_odd(m):
            links += [(u, v) for u, v in zip(pair_id[x], pair_id[y]) if u >= 0 and v >= 0]
    components = connected_components(PlainGraph(pairs, tuple(links)))
    classes = tuple(tuple(pairs[k] for k in sorted(c)) for c in components)
    threes: list[set[int]] = [set() for _ in range(n)]
    for (s, t), m in g.labels.items():
        if m == 3:
            threes[s].add(t)
            threes[t].add(s)
    # torsion: some pair {s,t} of the class has a common neighbour v with m(s,v) = m(t,v) = 3
    flags = tuple(any(threes[s] & threes[t] for s, t in block) for block in classes)
    return PairPartition(pairs, classes, flags)


@dataclass(frozen=True)
class Analysis:
    """Everything derived from one graph, built by one pass of ``analyze``."""

    partition: PairPartition
    odd: PlainGraph
    profile: InvariantProfile
    summary: HomologySummary


def analyze(g: CoxeterGraph) -> Analysis:
    """Pair partition, odd subgraph, rank profile and homology summary of g,
    each computed once."""
    partition = pair_classes(g)
    p = sum(partition.torsion_flags)
    q1 = len(partition.classes) - p
    q2 = sum(1 for m in g.labels.values() if is_even(m) and m >= 4)
    pg = odd_subgraph(g)
    components = len(connected_components(pg))
    q3 = len(pg.edges) - len(pg.vertices) + components
    n2 = sum(1 for m in g.labels.values() if is_finite(m))
    profile = InvariantProfile(
        p=p,
        q1=q1,
        q2=q2,
        q3=q3,
        q=q1 + q2 + q3,
        n1=len(g.vertices),
        n2=n2,
        n3=len(partition.classes),
        n4=components,
    )
    whole = connected_components(PlainGraph(g.vertices, tuple(g.labels)))
    conditions = CorollaryConditions(
        all_torsion=q1 == 0,
        odd_equals_gamma=all(is_odd(m) for m in g.labels.values()),
        tree=len(g.labels) == len(g.vertices) - len(whole),
    )
    integral = AbelianDescriptor(0, p) if conditions.applies else None
    summary = HomologySummary(
        h2_orbit=AbelianDescriptor(profile.q, p),
        h2_coxeter=AbelianDescriptor(0, profile.mod2_rank),
        h2_artin_mod2_rank=profile.mod2_rank,
        corollary=conditions,
        h2_artin_integral=integral,
    )
    return Analysis(partition, pg, profile, summary)


def invariant_profile(g: CoxeterGraph) -> InvariantProfile:
    return analyze(g).profile


def homology_summary(g: CoxeterGraph) -> HomologySummary:
    """Rank descriptors for H2 of the orbit space, the Coxeter group, and the
    Artin group (mod 2 always; integrally only when the corollary conditions
    hold: every class torsion, every label odd, underlying graph acyclic)."""
    return analyze(g).summary


@dataclass(frozen=True)
class StabilityReport:
    """Mod-2 rank trajectory along the vertex-appending family."""

    trajectory: tuple[tuple[int, int], ...]
    stable: bool


# Largest n_max a stability scan accepts.  Its pair union-find holds a slot
# for every pair of the last graph, about n_max**2 / 2 of them.
MAX_SCAN_STEPS = 2000


def _slot(x: int, y: int) -> int:
    """Index of the pair {x,y} in a triangular table over vertices 0, 1, ..."""
    if x > y:
        x, y = y, x
    return y * (y - 1) // 2 + x


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(parent: list[int], x: int, y: int) -> int:
    """Merge the sets of x and y; 1 if they were two sets, else 0."""
    x, y = _root(parent, x), _root(parent, y)
    parent[x] = y
    return int(x != y)


def stability_scan(seed: CoxeterGraph, n_max: int) -> StabilityReport:
    """Ranks p+q of the family seed = G1, G2, ... up to ``n_max`` steps.

    ``stable`` is true when the rank is constant from step 3 on, the dimension
    consequence of the stability isomorphisms.

    The scan starts from empty union-finds, one over commuting pairs and one
    over the odd components, and updates them with what each vertex adds: the
    seed's vertices in order, then each appended vertex.  It never calls
    ``analyze``.  The rank is n3 + q2 + q3 (p + q1 = n3), so no torsion is
    tracked.
    """
    if not seed.vertices:
        raise CoxhomError("stability scan needs a nonempty seed")
    if n_max < 4:
        raise CoxhomError(f"n_max must be >= 4, got {n_max}")
    if n_max > MAX_SCAN_STEPS:
        raise CoxhomError(f"n_max must be <= {MAX_SCAN_STEPS}, got {n_max}")
    classes = q2 = components = 0
    pair_parent: list[int] = []  # slots of non-commuting pairs stay unused
    vertex_parent: list[int] = []
    odd_edges: list[Pair] = []
    trajectory = []
    g = seed
    for step in range(1, n_max + 1):
        if step > 1:
            g = extend_family(g)
        for v in range(len(vertex_parent), len(g.vertices)):
            commuting, odd = [], []
            for x in range(v):
                m = g.labels.get((x, v), 2)
                if m == 2:
                    commuting.append(x)
                elif is_odd(m):
                    odd.append(x)
                elif is_even(m):  # an even label other than 2 is >= 4
                    q2 += 1
            row = len(pair_parent)  # the slot of {x,v} is row + x
            pair_parent.extend(range(row, row + v))
            classes += len(commuting)
            commutes = set(commuting)
            # {v,x} ~ {v,y} for each old odd edge {x,y} whose ends both commute with v
            for x, y in odd_edges:
                if x in commutes and y in commutes:
                    classes -= _join(pair_parent, row + x, row + y)
            # {a,x} ~ {a,v} for each new odd edge {x,v} and each a commuting with both
            for x in odd:
                for a in commuting:
                    if g.label_ix(a, x) == 2:
                        classes -= _join(pair_parent, _slot(a, x), row + a)
            vertex_parent.append(v)
            components += 1
            for x in odd:
                components -= _join(vertex_parent, x, v)
                odd_edges.append((x, v))
        q3 = len(odd_edges) - len(g.vertices) + components
        trajectory.append((step, classes + q2 + q3))
    tail = [rank for step, rank in trajectory if step >= 3]
    return StabilityReport(tuple(trajectory), all(r == tail[0] for r in tail))
