from __future__ import annotations

import random

from coxhom.graph import CoxeterGraph, build_graph
from coxhom.oracles import DEFAULT_WEIGHTS, random_coxeter_graph
from coxhom.words import free_reduce, inverse

# Label 2 weighted 20: mostly commuting pairs, so graphs split into many pair classes.
SPARSE_WEIGHTS = (20.0,) + DEFAULT_WEIGHTS[1:]


def corpus_graphs(count: int, max_vertices: int = 8, base_seed: int = 0) -> list[CoxeterGraph]:
    """Deterministic corpus: seeds base_seed..base_seed+count-1, sizes cycling 1..max_vertices."""
    return [random_coxeter_graph(random.Random(base_seed + i), (i % max_vertices) + 1)
            for i in range(count)]


def permuted_copy(g: CoxeterGraph, rng: random.Random) -> CoxeterGraph:
    """Isomorphic graph with the vertex sequence shuffled (names kept)."""
    order = list(range(len(g.vertices)))
    rng.shuffle(order)
    names = [g.vertices[i] for i in order]
    edges = [(g.vertices[i], g.vertices[j], m) for (i, j), m in g.labels.items()]
    return build_graph(names, edges)


def power(w: tuple[int, ...], e: int) -> tuple[int, ...]:
    """The word w**e in the free group, for any integer exponent."""
    return free_reduce((w if e >= 0 else inverse(w)) * abs(e))
