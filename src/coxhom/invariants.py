"""Pair-class combinatorics and homology-rank invariants of a Coxeter graph.

The commuting pairs P = {{s,t} : m(s,t) = 2} carry an equivalence: two pairs
sharing exactly one vertex are identified when their unshared vertices have a
finite odd label.  Counting torsion and non-torsion classes, even labels >= 4,
and independent cycles of the odd subgraph yields the ranks of the second
homology of the Coxeter group, the associated Artin group mod 2, and the
hyperplane-complement orbit space.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from .errors import CoxhomError
from .graph import INFINITY, CoxeterGraph

Pair = tuple[int, int]


class PairPartition:
    """The commuting pairs of a graph, partitioned into equivalence classes.

    ``n3`` counts the classes and ``p`` the torsion ones, those with a pair
    whose vertices have a common neighbour with both labels exactly 3.  The
    other fields are ``pair_classes``' union-find: ``slots`` and ``births``
    as ``_grow`` returns them, ``noncommuting`` as ``_read_labels`` does,
    and ``torsion``, the roots of the torsion classes.  The classes are
    listed only when read, ordered by their lexicographically smallest pair,
    ``least[k]``, each internally sorted; ``torsion_flags[k]`` tells whether
    class k is torsion.  A partition is treated as immutable, and compares
    by identity.
    """

    def __init__(self, n3: int, p: int, slots: list[int], births: list[int],
                 noncommuting: list[int], torsion: set[int]):
        self.n3 = n3
        self.p = p
        self.slots = slots
        self.births = births
        self.noncommuting = noncommuting
        self.torsion = torsion

    def __repr__(self) -> str:
        return f"PairPartition(n3={self.n3}, p={self.p})"

    @cached_property
    def least(self) -> tuple[Pair, ...]:
        """Each class's least pair is a birth: a slot {x,v} copied from row y
        joins {x,y} or {y,x}, a smaller pair.  So they are read from the
        births alone."""
        least: dict[int, Pair] = {}  # root -> the least pair of its class
        slots = self.slots
        for v, born in enumerate(self.births):
            base = v * (v - 1) // 2
            while born:
                low = born & -born
                x = low.bit_length() - 1
                born ^= low
                r = _root(slots, base + x)
                if r not in least or (x, v) < least[r]:
                    least[r] = (x, v)
        return tuple(sorted(least.values()))

    @cached_property
    def torsion_flags(self) -> tuple[bool, ...]:
        return tuple(_root(self.slots, x * (x - 1) // 2 + a) in self.torsion for a, x in self.least)

    @cached_property
    def classes(self) -> tuple[tuple[Pair, ...], ...]:
        blocks: dict[int, list[Pair]] = {}  # pairs in order, so the blocks open in class order
        slots, noncommuting = self.slots, self.noncommuting
        full = (1 << len(noncommuting)) - 1
        for a, row in enumerate(noncommuting):
            rest = full & ~row & -(2 << a)
            while rest:
                low = rest & -rest
                x = low.bit_length() - 1
                rest ^= low
                blocks.setdefault(_root(slots, x * (x - 1) // 2 + a), []).append((a, x))
        return tuple(map(tuple, blocks.values()))

    @cached_property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple(sorted(pair for block in self.classes for pair in block))


class AbelianDescriptor(NamedTuple):
    """Finitely generated abelian group of shape Z^free_rank + Z2^torsion2_rank."""

    free_rank: int
    torsion2_rank: int


class InvariantProfile(NamedTuple):
    """The counts p, q1..q3 and Howlett's n1..n4 of one graph, the two graph
    facts its corollary adds to q1 = 0, every descriptor they determine, and,
    left out of ==, hash and repr, the ``partition`` they were read from.  An
    object of another type, a plain tuple among them, is never equal."""

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
    partition: PairPartition

    def __eq__(self, other):
        return type(other) is type(self) and self[:10] == other[:10]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:10])

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self[:10]))
        return f"InvariantProfile({shown})"

    @property
    def q(self) -> int:
        return self.q1 + self.q2 + self.q3

    @property
    def mod2_rank(self) -> int:
        return self.p + self.q

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


def _read_labels(g: CoxeterGraph) -> tuple[list[int], list[list[int]], list[int], int, int]:
    """What the engine and the profile read of g's labels, in one pass:
    ``(noncommuting, odd, threes, q2, n2)``.

    Bit x of ``noncommuting[v]`` is set when m(x, v) != 2 or x == v;
    ``odd[v]`` lists v's odd neighbours x < v, increasing; bit x of
    ``threes[v]`` is set when m(x, v) == 3; q2 counts the even labels and
    n2 the finite ones.
    """
    n = len(g.vertices)
    noncommuting = [1 << v for v in range(n)]
    odd: list[list[int]] = [[] for _ in range(n)]
    threes = [0] * n
    q2 = infinite = 0
    for (x, v), m in g.labels.items():  # in pair order, so each odd[v] increases
        noncommuting[x] |= 1 << v
        noncommuting[v] |= 1 << x
        if m == INFINITY:
            infinite += 1
        elif m % 2:
            odd[v].append(x)
            if m == 3:
                threes[x] |= 1 << v
                threes[v] |= 1 << x
        else:
            q2 += 1
    return noncommuting, odd, threes, q2, len(g.labels) - infinite


def _grow(noncommuting: list[int], odd_lowers: Iterable[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """Add vertices 0, 1, ... one at a time and return the lists ``(counts,
    slots, births)``, filled as the graph grows.

    The inputs are ``_read_labels``' first two lists, and neither is
    changed.  ``counts[v]`` is the number of pair classes once v is added;
    ``slots`` is a union-find over the pairs, {x,v} with x < v at slot
    v*(v-1)//2 + x (non-commuting ones never read); ``births[v]`` is the
    mask of the x whose slot {x,v} started a class of its own.

    Pairs {a,x} and {a,y} are directly related when {x,y} has a finite odd
    label.  v's commuting set below it is a bit mask, its row.  Let y be v's
    highest odd neighbour and S the row's vertices that commute with y.  Each
    slot {x,v} with x in S joins the class of {x,y}; the row's other slots
    are births.  So v's slots are laid in three steps: row y's y slots are
    copied in one slice, each slot from y to v points at {x,y}, and each
    birth is reset to itself.  A slot {x,v} whose x does not commute with v
    may keep any value, as it is never read: no find, join, torsion mark or
    listing of the classes starts at it, and no parent pointer leads to it.
    What is left to join:

    - {v,x} ~ {v,u} for an odd edge {x,u} of v's row.  When x and u both lie
      in S, {x,y} ~ {u,y} holds already.  So one search runs per group of
      births that these edges join: from a birth no search has reached, it
      ORs the odd-neighbour masks of the births it reaches, keeps the row's
      bits, and joins each vertex reached to that first birth;
    - {a,w} ~ {a,v} for each other odd neighbour w and each a commuting with
      both.

    With at most one class every join is made already, so none is tried.
    """
    counts: list[int] = []
    slots: list[int] = []
    births: list[int] = []
    odd_masks: list[int] = []  # each vertex's odd neighbours, up to the latest added
    has_odd = classes = 0  # has_odd: the vertices with an odd neighbour
    for v, odd in enumerate(odd_lowers):
        born = row = ((1 << v) - 1) & ~noncommuting[v]
        base = len(slots)  # the slot of {x,v} is base + x
        if odd:
            y = odd[-1]
            born &= noncommuting[y]
            slots += slots[y * (y - 1) // 2:y * (y + 1) // 2]  # row y, whole
            slots += (y * (y + 1) // 2,) if y + 1 == v else [x * (x - 1) // 2 + y for x in range(y, v)]  # {x,y}, y <= x < v
            rest = born
            while rest:  # a birth starts a class of its own
                low = rest & -rest
                x = base + low.bit_length() - 1
                slots[x] = x
                rest ^= low
        else:
            slots += range(base, base + v)
        births.append(born)
        classes += born.bit_count()
        todo = born & has_odd  # the births a search may start from
        while todo and classes > 1:
            reached = pending = b = todo & -todo
            while pending:  # through births only: S's own odd edges are joined already
                low = pending & -pending
                pending ^= low
                found = odd_masks[low.bit_length() - 1] & row & ~reached
                reached |= found
                pending |= found & born
            todo &= ~reached
            b = base + b.bit_length() - 1  # a root: no join has reached it
            while reached:  # _root inline: no call per union
                low = reached & -reached
                x = base + low.bit_length() - 1
                reached ^= low
                while slots[x] != x:
                    slots[x] = x = slots[slots[x]]
                if x != b:
                    slots[x] = b
                    classes -= 1
                    if classes == 1:
                        break
        for w in odd[:-1]:  # {a,w} ~ {a,v} for each a commuting with both
            rest = row & ~noncommuting[w] if classes > 1 else 0
            while rest:  # _root on both ends, inline: no call per union
                low = rest & -rest
                a = low.bit_length() - 1
                rest ^= low
                x, u = w * (w - 1) // 2 + a if a < w else a * (a - 1) // 2 + w, base + a
                while slots[x] != x:
                    slots[x] = x = slots[slots[x]]
                while slots[u] != u:
                    slots[u] = u = slots[slots[u]]
                if x != u:
                    slots[x] = u
                    classes -= 1
                    if classes == 1:
                        break
        mask = 0  # v's odd neighbours
        for x in odd:
            odd_masks[x] |= 1 << v
            mask |= 1 << x
        odd_masks.append(mask)
        if odd:
            has_odd |= mask | 1 << v
        counts.append(classes)
    return counts, slots, births


def pair_classes(g: CoxeterGraph, labels: Optional[tuple] = None) -> PairPartition:
    """Partition of the commuting pairs under the odd-label relation;
    ``labels`` is ``_read_labels(g)``, read here when not given.

    The classes are counted by growing g vertex by vertex (``_grow``).  A
    class is torsion when one of its pairs {a,x} has a common 3-neighbour w,
    so each vertex a marks the roots of its such pairs with x > a, until
    every class is marked.  The partition keeps the union-find and lists
    the least pairs, flags and member pairs only when they are read.
    """
    noncommuting, odd, threes, _, _ = labels or _read_labels(g)
    counts, slots, births = _grow(noncommuting, odd)
    n3 = counts[-1] if counts else 0
    torsion = set()  # the roots of the torsion classes
    for a in range(len(g.vertices)):
        if len(torsion) == n3:
            break
        witnessed = 0  # the vertices sharing a 3-neighbour with a
        rest = threes[a]
        while rest:
            low = rest & -rest
            witnessed |= threes[low.bit_length() - 1]
            rest ^= low
        rest = witnessed & ~noncommuting[a] & -(2 << a)  # {a,x} commuting, a < x
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            torsion.add(_root(slots, x * (x - 1) // 2 + a))
            rest ^= low

    return PairPartition(n3, len(torsion), slots, births, noncommuting, torsion)


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


def _odd_ranks(odd: list[list[int]], edges: int) -> tuple[int, int]:
    """q3 and n4, the independent cycles and components of the odd subgraph:
    its ``edges`` edges join each v to the x in ``odd[v]``, as
    ``_read_labels`` lists them."""
    components = _components(len(odd), ((x, v) for v, lower in enumerate(odd) for x in lower))
    return edges - len(odd) + components, components


def analyze(g: CoxeterGraph) -> InvariantProfile:
    """The rank profile of g, with the pair partition it was read from, each
    computed from one pass over the labels."""
    labels = _read_labels(g)
    q2, n2 = labels[3:]
    partition = pair_classes(g, labels)
    q3, n4 = _odd_ranks(labels[1], n2 - q2)
    n, edges = len(g.vertices), len(g.labels)
    # a forest has n - components edges, never more than n: a denser graph
    # is no forest and is not searched
    tree = edges <= n and edges == n - _components(n, g.labels)
    return InvariantProfile(
        p=partition.p,
        q1=partition.n3 - partition.p,
        q2=q2,
        q3=q3,
        n1=n,
        n2=n2,
        n3=partition.n3,
        n4=n4,
        odd_equals_gamma=n2 - q2 == edges,  # every stored label is odd
        tree=tree,
        partition=partition,
    )


class StabilityReport(NamedTuple):
    """The ranks p+q of the family's steps 1..n_max, and whether step 4's
    equals step 3's, as ``stability_scan``'s lemma says it must."""

    trajectory: tuple[tuple[int, int], ...]
    stable: bool


# Largest n_max a stability scan accepts.  The scan grows the seed and three
# appended vertices, whatever n_max is, so this bounds only the output rows.
MAX_SCAN_STEPS = 2000


def stability_scan(seed: CoxeterGraph, n_max: int) -> StabilityReport:
    """Ranks p+q of the family seed = G1, G2, ... up to ``n_max`` steps, each
    step appending a vertex joined to the last one by a 3-edge.

    Lemma: the rank is constant from step 3 on.  Let v >= n+2 be appended, n
    the seed's vertex count.  v adds no pair class: {x,v} ~ {x,v-1} for
    x <= v-3, as x commutes with both, and {v-2,v} ~ {v-3,v}, as v-3 -- v-2
    is a 3-edge.  It joins none: a relation between two new pairs maps onto
    one between their old pairs, as the only odd neighbour of v-2 other than
    v-1 is v-3.  q2 and q3 do not change: v adds one vertex and one odd edge
    to an odd component.

    So only the seed and three appended vertices, steps 1-4, are grown with
    ``pair_classes``' engine; step 4's rank n3 + q2 + q3 is repeated up to
    n_max.  ``stable`` is step 4's rank == step 3's, false on a wrong engine.
    """
    if not seed.vertices:
        raise CoxhomError("stability scan needs a nonempty seed")
    if n_max < 4:
        raise CoxhomError(f"n_max must be >= 4, got {n_max}")
    if n_max > MAX_SCAN_STEPS:
        raise CoxhomError(f"n_max must be <= {MAX_SCAN_STEPS}, got {n_max}")
    n = len(seed.vertices)
    noncommuting, odd, _, q2, n2 = _read_labels(seed)
    q3 = _odd_ranks(odd, n2 - q2)[0]  # before the appended vertices join odd
    for v in range(n, n + 3):  # v - 1 -- v is a 3-edge
        noncommuting[v - 1] |= 1 << v
        noncommuting.append(3 << (v - 1))
        odd.append([v - 1])
    classes = _grow(noncommuting, odd)[0][n - 1:]
    ranks = [n3 + q2 + q3 for n3 in classes]
    trajectory = tuple(enumerate(ranks + ranks[-1:] * (n_max - 4), 1))
    return StabilityReport(trajectory, ranks[3] == ranks[2])
