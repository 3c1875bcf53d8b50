"""Chain complex of an oriented graph: boundaries, cycle bases, mod-2 reduction.

All arithmetic is exact integer arithmetic.  An edge (i, j) with i < j is
oriented from i to j, so its boundary is (vertex j) - (vertex i).  The
fundamental cycle basis is fixed once and for all by a breadth-first spanning
forest, making every downstream generator word reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CoxhomError
from .graph import PlainGraph, adjacency


@dataclass(frozen=True)
class Chain1:
    """Integer 1-chain: one coefficient per oriented edge of the graph."""

    graph: PlainGraph
    coefficients: tuple[int, ...]

    def __post_init__(self):
        if len(self.coefficients) != len(self.graph.edges):
            raise CoxhomError(
                f"expected {len(self.graph.edges)} coefficients, "
                f"got {len(self.coefficients)}"
            )

    def __add__(self, other: "Chain1") -> "Chain1":
        if other.graph != self.graph:
            raise CoxhomError("chains live on different graphs")
        return Chain1(self.graph, tuple(a + b for a, b in zip(self.coefficients, other.coefficients)))

    def __rmul__(self, scalar: int) -> "Chain1":
        return Chain1(self.graph, tuple(scalar * c for c in self.coefficients))


@dataclass(frozen=True)
class Mod2Cycle:
    """Bit vector over the edges lying in the kernel of the mod-2 boundary."""

    graph: PlainGraph
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != len(self.graph.edges):
            raise CoxhomError(
                f"expected {len(self.graph.edges)} bits, got {len(self.bits)}"
            )
        degree = [0] * len(self.graph.vertices)
        for bit, (i, j) in zip(self.bits, self.graph.edges):
            if bit % 2:
                degree[i] ^= 1
                degree[j] ^= 1
        if any(degree):
            raise CoxhomError("bit vector is not a mod-2 cycle")

    def is_zero(self) -> bool:
        return not any(self.bits)


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycles of a graph, one per non-tree edge, in edge order."""

    graph: PlainGraph
    basis: tuple[Chain1, ...]
    nontree_edges: tuple[int, ...]


def boundary_matrix(pg: PlainGraph) -> list[list[int]]:
    """Vertex-by-edge incidence matrix: column of edge (i, j) is +1 at j, -1 at i."""
    matrix = [[0] * len(pg.edges) for _ in pg.vertices]
    for column, (i, j) in enumerate(pg.edges):
        matrix[i][column] = -1
        matrix[j][column] = 1
    return matrix


def boundary(chain: Chain1) -> tuple[int, ...]:
    """Integer 0-chain of the boundary: one coefficient per vertex."""
    out = [0] * len(chain.graph.vertices)
    for c, (i, j) in zip(chain.coefficients, chain.graph.edges):
        out[i] -= c
        out[j] += c
    return tuple(out)


def fundamental_cycle_basis(pg: PlainGraph) -> CycleBasis:
    """One integral cycle per non-tree edge, with +1 on that edge.

    The spanning forest is a breadth-first search from the lowest-index
    vertex of each component, visiting neighbors in vertex order, so it is
    deterministic.  The rest of the cycle runs back through the forest;
    traversing a tree edge with its orientation contributes +1, against it
    -1, so the boundary telescopes to zero.
    """
    edge_id = {edge: k for k, edge in enumerate(pg.edges)}
    nbrs = adjacency(pg)
    parent: dict[int, int] = {}
    depth: dict[int, int] = {}
    tree_edges: set[int] = set()
    for root in range(len(pg.vertices)):
        if root in depth:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:  # the list is the queue: it grows as it is read
            for w in nbrs[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    tree_edges.add(edge_id[(min(v, w), max(v, w))])
                    queue.append(w)
    basis = []
    generators = []
    for k, (u, v) in enumerate(pg.edges):
        if k in tree_edges:
            continue
        coefficients = [0] * len(pg.edges)
        coefficients[k] = 1
        path = _forest_path(v, u, parent, depth)
        for x, y in zip(path, path[1:]):
            step = edge_id[(min(x, y), max(x, y))]
            coefficients[step] += 1 if x < y else -1
        basis.append(Chain1(pg, tuple(coefficients)))
        generators.append(k)
    return CycleBasis(pg, tuple(basis), tuple(generators))


def _forest_path(a: int, b: int, parent, depth) -> list[int]:
    """Vertex path from a to b inside the spanning forest."""
    left, right = [a], [b]
    while depth[left[-1]] > depth[right[-1]]:
        left.append(parent[left[-1]])
    while depth[right[-1]] > depth[left[-1]]:
        right.append(parent[right[-1]])
    while left[-1] != right[-1]:
        left.append(parent[left[-1]])
        right.append(parent[right[-1]])
    return left + right[-2::-1]


def mod2_reduce(basis: CycleBasis) -> tuple[Mod2Cycle, ...]:
    """Coefficientwise reduction of each basis cycle to a mod-2 cycle."""
    return tuple(
        Mod2Cycle(basis.graph, tuple(c % 2 for c in chain.coefficients))
        for chain in basis.basis
    )


def even_boundary_check(chain: Chain1) -> bool:
    """True when every boundary coefficient is even, i.e. the reduction is a cycle."""
    return all(c % 2 == 0 for c in boundary(chain))


def xi_reduce(chain: Chain1) -> Mod2Cycle:
    """Mod-2 reduction of an even-boundary chain."""
    if not even_boundary_check(chain):
        raise CoxhomError("chain has odd boundary coefficients")
    return Mod2Cycle(chain.graph, tuple(c % 2 for c in chain.coefficients))


def is_dw_member(chain: Chain1) -> bool:
    """True when every coefficient is even (the kernel of the reduction map)."""
    return all(c % 2 == 0 for c in chain.coefficients)


def gf2_rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of a family of bit vectors over the two-element field."""
    rows = [list(v) for v in vectors]
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise CoxhomError(f"vectors of different lengths: {sorted(widths)}")
    rank = 0
    width = widths.pop() if widths else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % 2), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % 2:
                rows[r] = [(a + b) % 2 for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
