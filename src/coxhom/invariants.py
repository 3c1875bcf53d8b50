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
from typing import Callable, Iterator, Optional

from .errors import CoxhomError
from .graph import CoxeterGraph, Label, PlainGraph, is_even, is_finite, is_odd, odd_subgraph

Pair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class PairPartition:
    """The commuting pairs of a graph, partitioned into equivalence classes.

    Classes are ordered by their lexicographically smallest pair, ``least[k]``;
    ``torsion_flags[k]`` records whether some pair of class k has a common
    neighbour with both labels exactly 3.  The member pairs are listed only
    when ``classes`` or ``pairs`` is read: ``members`` builds the classes, each
    internally sorted.  Two partitions are equal when their classes and flags
    are.
    """

    least: tuple[Pair, ...]
    torsion_flags: tuple[bool, ...]
    members: Callable[[], tuple[tuple[Pair, ...], ...]] = field(repr=False)

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


def _join(parent: list[int], x: int, y: int) -> int:
    """Merge the sets of x and y; 1 if they were two sets, else 0."""
    x, y = _root(parent, x), _root(parent, y)
    parent[x] = y
    return int(x != y)


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _run(inner: int, s: int) -> int:
    """Mask of the run that starts at s: s and each vertex above it that a
    bit of ``inner`` links to the one before."""
    tail = inner >> s
    return ((1 << (tail ^ (tail + 1)).bit_length()) - 1) << s


def pair_classes(g: CoxeterGraph) -> PairPartition:
    """Partition of the commuting pairs under the odd-label relation.

    Pairs {a,x} and {a,y} are related whenever {x,y} is a finite-odd-labeled
    pair; every direct relation of the defining equivalence has this form.

    So for a fixed vertex a, the pairs {a,x} fall into the components C of the
    odd edges inside a's row N2(a), the vertices that commute with a: one node
    (a, C) per component.  A pair {a,x} lies in the node of row a that holds x
    and in the node of row x that holds a, and the classes are the nodes
    joined through the pairs they share.  No pair is listed to find them:

    - rows are int bit masks, searched by runs (intervals k..l of row vertices
      joined by the odd edges {k, k+1}), so a row costs its runs and its other,
      "cross", odd edges, not its vertices;
    - a node (x, D) whose least vertex s is below x is joined, as it is made,
      to the node of row s that holds x;
    - for each cross edge {v,u} the search of row x crossed, and for each edge
      {k, k+1} and each x commuting with both, the nodes of the edge's two
      rows that hold x are joined.  Along x the pair of nodes changes only
      where a run of row k or k+1 starts, so one join per such start does.

    Every join is between nodes that share a class.  Conversely, for a pair
    {a,x} with a < x, the node (x, D) holding a has its least vertex s <= a,
    so it is joined to the node of row s holding x, and the walk from s to a
    along row x's search joins that to the node of row a holding x.  Shuffled
    input has short runs and falls back to work per row vertex.
    """
    n = len(g.vertices)
    noncomm = [1 << v for v in range(n)]  # the x with m(v, x) != 2, v itself included
    cross = [0] * n  # odd neighbours other than v - 1 and v + 1
    has_cross = link = 0  # link bit k: an odd edge joins k and k + 1
    threes = [0] * n
    for (s, t), m in g.labels.items():
        noncomm[s] |= 1 << t
        noncomm[t] |= 1 << s
        if is_odd(m):
            if t == s + 1:
                link |= 1 << s
            else:
                cross[s] |= 1 << t
                cross[t] |= 1 << s
                has_cross |= 1 << s | 1 << t
            if m == 3:
                threes[s] |= 1 << t
                threes[t] |= 1 << s
    full = (1 << n) - 1
    rows = [full & ~c for c in noncomm]
    starts = [0] * n  # bit x of starts[a]: a run of row a starts at x
    node_at: dict[int, int] = {}  # a * n + s: the node of row a holding the run from s
    heads: list[Pair] = []  # node k is (a, C) with least vertex s: heads[k] = (a, s)
    torsion: list[bool] = []
    joins: list[tuple[int, int, int]] = []  # (a, v, u): join the nodes of rows v and u holding a
    parent: list[int] = []  # the union-find over the nodes

    def node(a: int, x: int) -> int:
        """The node of row a that holds x."""
        k = node_at.get(a * n + x)
        if k is None:  # x is inside a run: look up the run's start
            k = node_at[a * n + (starts[a] & ((2 << x) - 1)).bit_length() - 1]
        return k

    for a, row in enumerate(rows):
        inner = link & row & (row >> 1)  # the links with both ends in the row
        st = starts[a] = row & ~(inner << 1)
        witnessed = 0  # the vertices sharing a 3-neighbour with a
        if threes[a]:
            for v in _bits(threes[a]):
                witnessed |= threes[v]
        unseen = row
        while unseen:
            s = (unseen & -unseen).bit_length() - 1  # a run start
            k = len(heads)
            heads.append((a, s))
            parent.append(node(s, a) if s < a else k)  # row s, searched already, holds a
            node_at[a * n + s] = k
            component = _run(inner, s)
            unseen &= ~component
            todo = component & has_cross
            while todo:
                low = todo & -todo
                todo ^= low
                v = low.bit_length() - 1
                reached = cross[v] & unseen
                while reached:
                    low = reached & -reached
                    r = (st & ((low << 1) - 1)).bit_length() - 1  # start of the run reached
                    node_at[a * n + r] = k
                    run = _run(inner, r)
                    unseen &= ~run
                    reached &= ~run
                    component |= run
                    todo |= run & has_cross
                    joins.append((a, v, low.bit_length() - 1))  # row a's search crossed {v,u}
            torsion.append(bool(component & witnessed))

    for k in _bits(link):
        joins += [(a, k, k + 1) for a in _bits(rows[k] & rows[k + 1] & (starts[k] | starts[k + 1]))]
    get = node_at.get  # _join(parent, node(v, a), node(u, a)), inline: no call per union
    for a, v, u in joins:
        x = get(v * n + a)
        if x is None:
            x = node_at[v * n + (starts[v] & ((2 << a) - 1)).bit_length() - 1]
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        y = get(u * n + a)
        if y is None:
            y = node_at[u * n + (starts[u] & ((2 << a) - 1)).bit_length() - 1]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        parent[x] = y

    least: dict[int, Pair] = {}  # root -> the least pair of its class
    torsion_roots = set()
    for k, (a, s) in enumerate(heads):
        r = _root(parent, k)
        pair = (a, s) if a < s else (s, a)
        if r not in least or pair < least[r]:
            least[r] = pair
        if torsion[k]:
            torsion_roots.add(r)
    roots = sorted(least, key=least.__getitem__)

    def members() -> tuple[tuple[Pair, ...], ...]:
        index = {r: i for i, r in enumerate(roots)}
        blocks: list[list[Pair]] = [[] for _ in roots]
        for a, row in enumerate(rows):
            for x in _bits(row & ~((2 << a) - 1)):  # the pairs {a,x} with a < x, in order
                blocks[index[_root(parent, node(a, x))]].append((a, x))
        return tuple(map(tuple, blocks))

    return PairPartition(tuple(least[r] for r in roots), tuple(r in torsion_roots for r in roots), members)


@dataclass(frozen=True)
class Analysis:
    """Everything derived from one graph, built by one pass of ``analyze``."""

    partition: PairPartition
    odd: PlainGraph
    profile: InvariantProfile


def analyze(g: CoxeterGraph) -> Analysis:
    """Pair partition, odd subgraph and rank profile of g, each computed once."""
    partition = pair_classes(g)
    pg = odd_subgraph(g)
    n = components = len(g.vertices)
    parent = list(range(n))  # the odd components; each join below is _join, inline
    for i, j in pg.edges:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            components -= 1
    tree = True  # until an edge closes a cycle
    parent = list(range(n))  # the whole graph
    for i, j in g.labels:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i == j:
            tree = False
            break
        parent[i] = j
    n3 = len(partition.least)
    p = sum(partition.torsion_flags)
    profile = InvariantProfile(
        p=p,
        q1=n3 - p,
        q2=sum(1 for m in g.labels.values() if is_even(m) and m >= 4),
        q3=len(pg.edges) - n + components,
        n1=n,
        n2=sum(1 for m in g.labels.values() if is_finite(m)),
        n3=n3,
        n4=components,
        odd_equals_gamma=len(pg.edges) == len(g.labels),  # every stored label is odd
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
# graph, not n_max alone.  An appended vertex costs a few steps per run of
# its row plus a copy of its slots in C, so the 2000-step scan from a
# one-vertex seed takes about 0.2 s; a seed vertex can cost up to a step per
# vertex of its row for each odd neighbour.
MAX_SCAN_STEPS = 2000


def stability_scan(seed: CoxeterGraph, n_max: int) -> StabilityReport:
    """Ranks p+q of the family seed = G1, G2, ... up to ``n_max`` steps.

    ``stable`` is true when the rank is constant from step 3 on, the dimension
    consequence of the stability isomorphisms.

    The scan starts from empty union-finds, one over commuting pairs and one
    over the odd components, and updates them with what each vertex v adds:
    the seed's vertices in order, then each appended vertex, whose only label
    is a 3-edge to the vertex before it.  It builds no graph and never calls
    ``analyze``.  The rank is n3 + q2 + q3 (p + q1 = n3), so no torsion is
    tracked.

    v's commuting set is a bit mask, its row.  Let y be v's highest odd
    neighbour and S the row's vertices that commute with y.  Each fresh slot
    {x,v} with x in S joins the class of {x,y}, so it takes that slot's
    parent: below y row y's parents are copied run by run, above y each slot
    points at {x,y}.  What is left to join:

    - {v,x} ~ {v,u} for an odd edge {x,u} of v's row.  When x and u both lie
      in S, {x,y} ~ {u,y} holds already, so only the edges at the row's other,
      fresh, vertices are walked;
    - {a,w} ~ {a,v} for each other odd neighbour w and each a commuting with
      both.

    So an appended vertex, whose row is every vertex below it but its
    3-neighbour y, costs the runs of S and the odd edges at the vertices that
    do not commute with y, not a step per vertex below it.
    """
    if not seed.vertices:
        raise CoxhomError("stability scan needs a nonempty seed")
    if n_max < 4:
        raise CoxhomError(f"n_max must be >= 4, got {n_max}")
    if n_max > MAX_SCAN_STEPS:
        raise CoxhomError(f"n_max must be <= {MAX_SCAN_STEPS}, got {n_max}")
    if len(seed.vertices) + n_max - 1 > MAX_SCAN_STEPS:
        last = f"{len(seed.vertices)} + {n_max} - 1"
        raise CoxhomError(f"seed vertices + n_max - 1 must be <= {MAX_SCAN_STEPS}, got {last}")
    n = len(seed.vertices)
    lower: list[list[tuple[int, Label]]] = [[] for _ in range(n)]  # (x, m) for x < v, x increasing
    for (x, v), m in seed.labels.items():
        lower[v].append((x, m))
    classes = q2 = components = odd_edges = 0
    pair_parent: list[int] = []  # {x,v} with x < v is slot v*(v-1)//2 + x; non-commuting ones stay unused
    vertex_parent: list[int] = []
    noncommuting: list[int] = []  # bit x of noncommuting[v]: m(x, v) != 2, or x == v
    odd_neighbours: list[list[int]] = []
    has_odd = 0  # the vertices with an odd neighbour
    trajectory = []
    for step in range(1, n_max + 1):
        if step > 1:
            n += 1  # a new vertex n - 1, joined to the one before by a 3-edge
        for v in range(len(vertex_parent), n):
            mask, odd = 1 << v, []
            for x, m in lower[v] if v < len(lower) else ((v - 1, 3),):
                mask |= 1 << x
                noncommuting[x] |= 1 << v
                if is_odd(m):
                    odd.append(x)
                elif is_even(m):  # an even label other than 2 is >= 4
                    q2 += 1
            noncommuting.append(mask)
            row = ((1 << v) - 1) & ~mask
            base = len(pair_parent)  # the slot of {x,v} is base + x
            shared = start = above = 0
            if odd:  # {x,v} joins the class of {x,y} for each x in S, so it takes that slot's parent
                y = odd[-1]
                shared = row & ~noncommuting[y]
                ybase = y * (y - 1) // 2
                rest = shared & ((1 << y) - 1)
                while rest:  # one run r..e-1 below y per pass: fresh slots before it, then row y's
                    low = rest & -rest
                    r = low.bit_length() - 1
                    carry = rest + low
                    e = (carry & ~rest).bit_length() - 1
                    rest &= carry
                    pair_parent += range(base + start, base + r)
                    pair_parent += pair_parent[ybase + r:ybase + e]
                    start = e
                above = shared & -(2 << y)
            pair_parent += range(base + start, base + v)
            for x in _bits(above):  # above y, {x,y} is slot x*(x-1)//2 + y
                pair_parent[base + x] = x * (x - 1) // 2 + y
            classes += row.bit_count() - shared.bit_count()
            joins = []  # pairs of slots whose classes meet
            fresh = row & ~shared & has_odd
            while fresh:  # {v,x} ~ {v,u}; an edge with both ends fresh is taken at its higher end
                low = fresh & -fresh
                fresh ^= low
                x = low.bit_length() - 1
                joins += [(base + x, base + u) for u in odd_neighbours[x] if row >> u & 1 and (u < x or shared >> u & 1)]
            for w in odd[:-1]:  # {a,w} ~ {a,v} for each a commuting with both
                wbase = w * (w - 1) // 2
                joins += [(wbase + a if a < w else a * (a - 1) // 2 + w, base + a) for a in _bits(row & ~noncommuting[w])]
            for x, u in joins:  # _join(pair_parent, x, u), inline: no call per union
                while pair_parent[x] != x:
                    pair_parent[x] = x = pair_parent[pair_parent[x]]
                while pair_parent[u] != u:
                    pair_parent[u] = u = pair_parent[pair_parent[u]]
                if x != u:
                    pair_parent[x] = u
                    classes -= 1
            vertex_parent.append(v)
            components += 1
            for x in odd:
                components -= _join(vertex_parent, x, v)
                odd_neighbours[x].append(v)
                has_odd |= 1 << x | 1 << v
            odd_neighbours.append(odd)
            odd_edges += len(odd)
        q3 = odd_edges - n + components
        trajectory.append((step, classes + q2 + q3))
    tail = [rank for step, rank in trajectory if step >= 3]
    return StabilityReport(tuple(trajectory), all(r == tail[0] for r in tail))
