"""Chain complex of an oriented graph: boundaries, cycle bases, GF(2) rank.

All arithmetic is exact integer arithmetic.  An edge (i, j) with i < j is
oriented from i to j, so its boundary is (vertex j) - (vertex i).  A 1-chain
is an iterable of (edge, coefficient) terms, a 0-chain a dict from vertex to
its nonzero coefficient, and a GF(2) vector an int whose bit k is its
coordinate k.  The fundamental cycle basis is fixed once and for all by a
breadth-first spanning forest, making every downstream generator word
reproducible.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graph import PlainGraph


class CycleBasis(NamedTuple):  # kept because bench/spans.py counts cycles by its basis field
    """Fundamental cycles of a graph, one per non-tree edge, in edge order.

    Each cycle is its nonzero (edge, +-1) terms in increasing edge order.
    """

    basis: tuple[tuple[tuple[int, int], ...], ...]


def boundary(pg: PlainGraph, terms: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Integer 0-chain of the boundary, at the vertices the terms touch: a cycle's is ``{}``."""
    out: dict[int, int] = {}
    for k, c in terms:
        i, j = pg.edges[k]
        out[i] = out.get(i, 0) - c
        out[j] = out.get(j, 0) + c
    return {v: c for v, c in out.items() if c}


def fundamental_cycle_basis(pg: PlainGraph) -> CycleBasis:
    """One integral cycle per non-tree edge, with +1 on that edge.

    The spanning forest is a breadth-first search from the lowest-index vertex
    of each component, visiting neighbors in vertex order, so it is
    deterministic; edges in pair order list each vertex's neighbors in that
    order, unsorted.  The rest of the cycle runs back through the forest;
    traversing a tree edge with its orientation contributes +1, against it -1,
    so the boundary telescopes to zero.  Each tree vertex keeps its parent
    edge's term for the climb towards the root, so a cycle's terms are read
    off while the deeper end of its edge climbs, until both ends meet.
    """
    n = len(pg.vertices)
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (i, j) in enumerate(pg.edges):
        incident[i].append((j, k))
        incident[j].append((i, k))
    parent = [-1] * n
    depth = [-1] * n
    up: list[tuple[int, int]] = [(-1, 0)] * n  # parent edge, +1 if climbing runs along it
    down: list[tuple[int, int]] = [(-1, 0)] * n  # the same edge, walked from the parent
    is_tree = bytearray(len(pg.edges))
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:  # the list is the queue: it grows as it is read
            for w, k in incident[v]:
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    sign = 1 if w < v else -1
                    up[w] = (k, sign)
                    down[w] = (k, -sign)
                    is_tree[k] = 1
                    queue.append(w)
    basis = []
    for k, (u, v) in enumerate(pg.edges):
        if is_tree[k]:
            continue
        # the path runs from v back to u: v climbs, u descends, the deeper end
        # steps first and v on a tie.  A forest path repeats no edge and avoids k
        terms = [(k, 1)]
        while u != v:
            if depth[v] >= depth[u]:
                terms.append(up[v])
                v = parent[v]
            else:
                terms.append(down[u])
                u = parent[u]
        terms.sort()
        basis.append(tuple(terms))
    return CycleBasis(tuple(basis))


def gf2_rank(masks: Iterable[int]) -> int:
    """Rank of a family of bit masks over the two-element field."""
    pivots: dict[int, int] = {}  # leading bit -> the kept mask that leads with it
    for mask in masks:
        while mask:
            top = mask.bit_length() - 1
            if top not in pivots:
                pivots[top] = mask
                break
            mask ^= pivots[top]
    return len(pivots)
