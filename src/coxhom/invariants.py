"""Pair-class combinatorics and homology-rank invariants of a Coxeter graph.

The commuting pairs P = {{s,t} : m(s,t) = 2} carry an equivalence: two pairs
sharing exactly one vertex are identified when their unshared vertices have a
finite odd label.  Counting torsion and non-torsion classes, even labels >= 4,
and independent cycles of the odd subgraph yields the ranks of the second
homology of the Coxeter group, the associated Artin group mod 2, and the
hyperplane-complement orbit space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional

from .errors import CoxhomError
from .graph import CoxeterGraph, Label, PlainGraph, is_even, is_finite, is_odd, odd_subgraph

Pair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class PairPartition:
    """The commuting pairs of a graph, partitioned into equivalence classes.

    ``n3`` counts the classes and ``p`` the torsion ones, those with a pair
    whose vertices have a common neighbour with both labels exactly 3.  The
    classes are listed only when read.  They are ordered by their
    lexicographically smallest pair, ``least[k]``, and ``torsion_flags[k]``
    tells whether class k is torsion: ``heads`` lists those two, and
    ``members`` the classes, each internally sorted.  Two partitions are
    equal when their classes and flags are.
    """

    n3: int
    p: int
    heads: Callable[[], tuple[tuple[Pair, ...], tuple[bool, ...]]] = field(repr=False)
    members: Callable[[], tuple[tuple[Pair, ...], ...]] = field(repr=False)

    @cached_property
    def _listed(self) -> tuple[tuple[Pair, ...], tuple[bool, ...]]:
        return self.heads()

    @property
    def least(self) -> tuple[Pair, ...]:
        return self._listed[0]

    @property
    def torsion_flags(self) -> tuple[bool, ...]:
        return self._listed[1]

    @cached_property
    def classes(self) -> tuple[tuple[Pair, ...], ...]:
        return self.members()

    @cached_property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(pair for block in self.classes for pair in block))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairPartition):
            return NotImplemented
        return self.torsion_flags == other.torsion_flags and self.classes == other.classes


@dataclass(frozen=True)
class AbelianDescriptor:
    """Finitely generated abelian group of shape Z^free_rank + Z2^torsion2_rank."""

    free_rank: int
    torsion2_rank: int


@dataclass(frozen=True)
class InvariantProfile:
    """The counts p, q1..q3 and Howlett's n1..n4 of one graph, the two graph
    facts its corollary adds to q1 = 0, and every descriptor they determine."""

    p: int
    q1: int
    q2: int
    q3: int
    n1: int
    n2: int
    n3: int
    n4: int
    odd_equals_gamma: bool
    tree: bool

    @property
    def q(self) -> int:
        return self.q1 + self.q2 + self.q3

    @property
    def mod2_rank(self) -> int:
        return self.p + self.q

    @property
    def howlett_identity(self) -> bool:
        return -self.n1 + self.n2 + self.n3 + self.n4 == self.mod2_rank

    @property
    def all_torsion(self) -> bool:
        return self.q1 == 0

    @property
    def corollary_applies(self) -> bool:
        return self.all_torsion and self.odd_equals_gamma and self.tree

    @property
    def h2_orbit(self) -> AbelianDescriptor:
        return AbelianDescriptor(self.q, self.p)

    @property
    def h2_coxeter(self) -> AbelianDescriptor:
        return AbelianDescriptor(0, self.mod2_rank)

    @property
    def h2_artin_integral(self) -> Optional[AbelianDescriptor]:
        return AbelianDescriptor(0, self.p) if self.corollary_applies else None


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lowers(g: CoxeterGraph) -> list[list[tuple[int, Label]]]:
    """Each vertex v's labels (x, m) to the vertices x < v, x increasing."""
    lowers: list[list[tuple[int, Label]]] = [[] for _ in g.vertices]
    for (x, v), m in g.labels.items():
        lowers[v].append((x, m))
    return lowers


def _grow(
    lowers: Iterable[Iterable[tuple[int, Label]]], slots: list[int], noncommuting: list[int], births: list[int]
) -> Iterator[int]:
    """Add vertices 0, 1, ... one at a time and yield the number of pair
    classes of the graph after each.

    ``lowers`` gives each new vertex v's labels (x, m) to the vertices below
    it, x increasing.  The lists are filled as the graph grows: ``slots`` is
    a union-find over the pairs, {x,v} with x < v at slot v*(v-1)//2 + x
    (non-commuting ones never read); bit x of ``noncommuting[v]`` is set
    when m(x, v) != 2 or x == v; ``births[v]`` is the mask of the x whose
    slot {x,v} started a class of its own.

    Pairs {a,x} and {a,y} are directly related when {x,y} has a finite odd
    label.  v's commuting set below it is a bit mask, its row.  Let y be v's
    highest odd neighbour and S the row's vertices that commute with y.  Each
    slot {x,v} with x in S joins the class of {x,y}; the row's other slots
    are births.  So v's slots are laid in three steps: row y's y slots are
    copied in one slice, the slots from y to v are fresh and each one of S
    above y points at {x,y}, and each birth below y is reset to itself.  A
    slot {x,v} whose x does not commute with v may keep row y's value, as it
    is never read: no find, join, torsion mark, ``heads`` or ``members``
    starts at it, and no parent pointer leads to it.  What is left to join:

    - {v,x} ~ {v,u} for an odd edge {x,u} of v's row.  When x and u both lie
      in S, {x,y} ~ {u,y} holds already, so only the edges at the births are
      walked;
    - {a,w} ~ {a,v} for each other odd neighbour w and each a commuting with
      both.

    With at most one class every join is made already, so none is tried.
    """
    odd_neighbours: list[list[int]] = []
    has_odd = classes = 0  # has_odd: the vertices with an odd neighbour
    for v, lower in enumerate(lowers):
        mask, odd = 1 << v, []
        for x, m in lower:
            mask |= 1 << x
            noncommuting[x] |= 1 << v
            if is_odd(m):
                odd.append(x)
        noncommuting.append(mask)
        row = ((1 << v) - 1) & ~mask
        base = len(slots)  # the slot of {x,v} is base + x
        shared = y = 0
        if odd:
            y = odd[-1]
            shared = row & ~noncommuting[y]
            slots += slots[y * (y - 1) // 2:y * (y + 1) // 2]  # row y, whole
        slots += range(base + y, base + v)
        for x in _bits(shared & -(2 << y)):  # above y, {x,y} is slot x*(x-1)//2 + y
            slots[base + x] = x * (x - 1) // 2 + y
        born = row & ~shared
        for x in _bits(born & ((1 << y) - 1)):  # a birth starts a class of its own
            slots[base + x] = base + x
        births.append(born)
        classes += born.bit_count()
        if classes > 1:
            # pairs of slots whose classes meet; the other odd neighbours' come
            # lazily, as once one class is left most of them go untried
            joins = [(base + x, base + u) for x in _bits(born & has_odd) for u in odd_neighbours[x] if row >> u & 1 and (u < x or shared >> u & 1)]
            if len(odd) > 1:
                joins = chain(joins, ((w * (w - 1) // 2 + a if a < w else a * (a - 1) // 2 + w, base + a)
                                      for w in odd[:-1] for a in _bits(row & ~noncommuting[w])))
            for x, u in joins:  # _root on both ends, inline: no call per union
                while slots[x] != x:
                    slots[x] = x = slots[slots[x]]
                while slots[u] != u:
                    slots[u] = u = slots[slots[u]]
                if x != u:
                    slots[x] = u
                    classes -= 1
                    if classes == 1:
                        break
        for x in odd:
            odd_neighbours[x].append(v)
            has_odd |= 1 << x | 1 << v
        odd_neighbours.append(odd)
        yield classes


def pair_classes(g: CoxeterGraph) -> PairPartition:
    """Partition of the commuting pairs under the odd-label relation.

    The classes are counted by growing g vertex by vertex (``_grow``).  A
    class is torsion when one of its pairs {a,x} has a common 3-neighbour w,
    so each vertex a marks the roots of its such pairs with x > a, until
    every class is marked.

    Each class's least pair is a birth: a slot {x,v} copied from row y joins
    {x,y} or {y,x}, a smaller pair.  So the least pairs and flags are read
    from the births alone, and only when ``least`` or ``torsion_flags`` is
    read; the member pairs are listed only when ``classes`` or ``pairs`` is.
    """
    n = len(g.vertices)
    slots: list[int] = []
    noncommuting: list[int] = []
    births: list[int] = []
    n3 = 0
    for n3 in _grow(_lowers(g), slots, noncommuting, births):
        pass
    threes = [0] * n
    for (s, t), m in g.labels.items():
        if m == 3:
            threes[s] |= 1 << t
            threes[t] |= 1 << s
    torsion = set()  # the roots of the torsion classes
    for a in range(n):
        if len(torsion) == n3:
            break
        witnessed = 0  # the vertices sharing a 3-neighbour with a
        for w in _bits(threes[a]):
            witnessed |= threes[w]
        for x in _bits(witnessed & ~noncommuting[a] & -(2 << a)):  # {a,x} commuting, a < x
            torsion.add(_root(slots, x * (x - 1) // 2 + a))

    def heads() -> tuple[tuple[Pair, ...], tuple[bool, ...]]:
        least: dict[int, Pair] = {}  # root -> the least pair of its class
        for v, born in enumerate(births):
            base = v * (v - 1) // 2
            for x in _bits(born):
                r = _root(slots, base + x)
                if r not in least or (x, v) < least[r]:
                    least[r] = (x, v)
        roots = sorted(least, key=least.__getitem__)
        return tuple(least[r] for r in roots), tuple(r in torsion for r in roots)

    def members() -> tuple[tuple[Pair, ...], ...]:
        blocks: dict[int, list[Pair]] = {}  # pairs in order, so the blocks open in class order
        full = (1 << n) - 1
        for a in range(n):
            for x in _bits(full & ~noncommuting[a] & -(2 << a)):
                blocks.setdefault(_root(slots, x * (x - 1) // 2 + a), []).append((a, x))
        return tuple(map(tuple, blocks.values()))

    return PairPartition(n3, len(torsion), heads, members)


def _components(n: int, edges: Iterable[Pair]) -> int:
    """The number of components of the graph on vertices 0..n-1 with these edges."""
    components = n
    parent = list(range(n))  # _root on both ends, inline: no call per union
    for i, j in edges:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            components -= 1
    return components


def _ranks(g: CoxeterGraph) -> tuple[PlainGraph, int, int, int]:
    """g's odd subgraph, q2 (the even labels >= 4), and q3 and n4: the odd
    subgraph's independent cycles and components."""
    pg = odd_subgraph(g)
    components = _components(len(g.vertices), pg.edges)
    q2 = sum(1 for m in g.labels.values() if is_even(m) and m >= 4)
    return pg, q2, len(pg.edges) - len(g.vertices) + components, components


@dataclass(frozen=True)
class Analysis:
    """Everything derived from one graph, built by one pass of ``analyze``."""

    partition: PairPartition
    odd: PlainGraph
    profile: InvariantProfile


def analyze(g: CoxeterGraph) -> Analysis:
    """Pair partition, odd subgraph and rank profile of g, each computed once."""
    partition = pair_classes(g)
    pg, q2, q3, n4 = _ranks(g)
    n, edges = len(g.vertices), len(g.labels)
    # a forest has n - components edges, never more than n: a denser graph
    # is no forest and is not searched
    tree = edges <= n and edges == n - _components(n, g.labels)
    profile = InvariantProfile(
        p=partition.p,
        q1=partition.n3 - partition.p,
        q2=q2,
        q3=q3,
        n1=n,
        n2=sum(1 for m in g.labels.values() if is_finite(m)),
        n3=partition.n3,
        n4=n4,
        odd_equals_gamma=len(pg.edges) == edges,  # every stored label is odd
        tree=tree,
    )
    return Analysis(partition, pg, profile)


@dataclass(frozen=True)
class StabilityReport:
    """Mod-2 rank trajectory along the vertex-appending family."""

    trajectory: tuple[tuple[int, int], ...]
    stable: bool


# Largest n_max a stability scan accepts, and the most vertices its last
# graph, of seed vertices + n_max - 1, may have.  Its pair union-find holds a
# slot for every pair of that graph, so a scan's memory follows the last
# graph, not n_max alone.  A vertex costs one copy of row y in C plus a step
# per birth below y and per shared slot above it, y its highest odd
# neighbour.  Past the first, an appended vertex has one birth below y and
# nothing above it, so the 2000-step scan from a one-vertex seed takes
# 0.2-0.3 s as a whole process; a seed vertex can cost up to a step per
# vertex of its row for each odd neighbour.
MAX_SCAN_STEPS = 2000


def stability_scan(seed: CoxeterGraph, n_max: int) -> StabilityReport:
    """Ranks p+q of the family seed = G1, G2, ... up to ``n_max`` steps.

    ``stable`` is true when the rank is constant from step 3 on, the dimension
    consequence of the stability isomorphisms.

    The scan grows the seed with ``pair_classes``' engine and then feeds it
    each appended vertex, whose only label is a 3-edge to the vertex before
    it; it builds no graph.  The rank is n3 + q2 + q3 (p + q1 = n3), so no
    torsion is tracked, and q2 and q3 are the seed's: an appended vertex adds
    one vertex and one odd edge to an odd component, which changes neither.
    """
    if not seed.vertices:
        raise CoxhomError("stability scan needs a nonempty seed")
    if n_max < 4:
        raise CoxhomError(f"n_max must be >= 4, got {n_max}")
    if n_max > MAX_SCAN_STEPS:
        raise CoxhomError(f"n_max must be <= {MAX_SCAN_STEPS}, got {n_max}")
    n = len(seed.vertices)
    if n + n_max - 1 > MAX_SCAN_STEPS:
        raise CoxhomError(f"seed vertices + n_max - 1 must be <= {MAX_SCAN_STEPS}, got {n} + {n_max} - 1")
    _, q2, q3, _ = _ranks(seed)
    lowers = _lowers(seed) + [((v - 1, 3),) for v in range(n, n + n_max - 1)]
    classes = list(_grow(lowers, [], [], []))[n - 1:]
    trajectory = tuple((step, n3 + q2 + q3) for step, n3 in enumerate(classes, 1))
    tail = [rank for step, rank in trajectory if step >= 3]
    return StabilityReport(trajectory, all(r == tail[0] for r in tail))
