from __future__ import annotations

import random

from coxhom.graph import CoxeterGraph, build_graph
from coxhom.oracles import DEFAULT_WEIGHTS, LABEL_SUPPORT, RandomGraphSpec, random_coxeter_graph
from coxhom.words import free_reduce, inverse

# Label 2 weighted 20: mostly commuting pairs, so graphs split into many pair classes.
SPARSE_WEIGHTS = (20.0,) + DEFAULT_WEIGHTS[1:]


def corpus_graphs(count: int, max_vertices: int = 8, base_seed: int = 0) -> list[CoxeterGraph]:
    """Deterministic corpus: seeds base_seed..base_seed+count-1, sizes cycling 1..max_vertices."""
    graphs = []
    for i in range(count):
        spec = RandomGraphSpec(seed=base_seed + i, vertex_count=(i % max_vertices) + 1)
        graphs.append(random_coxeter_graph(spec))
    return graphs


def seeded_graph(rng: random.Random, n: int, weights=DEFAULT_WEIGHTS) -> CoxeterGraph:
    """Random graph of any size, labels drawn as random_coxeter_graph draws them."""
    names = [f"v{i}" for i in range(1, n + 1)]
    edges = [(names[i], names[j], rng.choices(LABEL_SUPPORT, weights=weights)[0])
             for i in range(n) for j in range(i + 1, n)]
    return build_graph(names, edges)


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
