from __future__ import annotations

import json
import random

from coxhom.errors import CoxhomError, echo
from coxhom.graph import INFINITY, CoxeterGraph, Label, build_graph
from coxhom.invariants import analyze

LABEL_SUPPORT: tuple[Label, ...] = (2, 3, 4, 5, 6, INFINITY)
DEFAULT_WEIGHTS: tuple[float, ...] = (3.0, 3.0, 1.0, 1.0, 1.0, 1.0)
# Label 2 weighted 20: mostly commuting pairs, so graphs split into many pair classes.
SPARSE_WEIGHTS = (20.0,) + DEFAULT_WEIGHTS[1:]


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


def render_graph(g: CoxeterGraph) -> str:
    """Canonical file-format text; parsing it reproduces the graph exactly, so
    a vertex name that is empty or holds whitespace is refused."""
    for name in g.vertices:
        if name.split() != [name]:
            raise CoxhomError(f"vertex {echo(name)} is empty or holds whitespace; the file format cannot spell it")
    lines = [f"vertex {name}" for name in g.vertices]
    for (i, j), m in g.labels.items():
        value = "inf" if m == INFINITY else m
        lines.append(f"edge {g.vertices[i]} {g.vertices[j]} {value}")
    return "\n".join(lines) + "\n"


def corpus_graphs(count: int, max_vertices: int = 8, base_seed: int = 0) -> list[CoxeterGraph]:
    """Deterministic corpus: seeds base_seed..base_seed+count-1, sizes cycling 1..max_vertices."""
    return [random_coxeter_graph(random.Random(base_seed + i), (i % max_vertices) + 1)
            for i in range(count)]


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


def unread_slot_graph() -> CoxeterGraph:
    """Seven vertices that exercise how ``invariants._grow`` lays v6's row.
    Its highest odd neighbour is v5, whose row copies v4's.  v3 commutes
    with v5 but not with v6, so the copy puts row v5's joined slot {v3,v5}
    at {v3,v6}: no pair, never read.  v1 commutes with v4 and v6 but not
    with v5, so {v1,v6} is a birth between the shared v0 and v2 (an odd
    edge); unless reset, it would keep {v1,v4}'s parent, copied through
    row v5."""
    return build_graph([f"v{i}" for i in range(7)], [("v4", "v5", 3), ("v5", "v6", 3), ("v1", "v5", 4),
                                                     ("v3", "v6", 4), ("v0", "v2", 3)])


def appended(g: CoxeterGraph) -> CoxeterGraph:
    """The next graph of the stability family, through build_graph: g with a
    vertex s<k+1> appended and joined to g's last vertex by a 3-edge."""
    names = g.vertices + (f"s{len(g.vertices) + 1}",)
    edges = [(names[i], names[j], m) for (i, j), m in g.labels.items()]
    return build_graph(names, edges + [(names[-2], names[-1], 3)])


def family_ranks(seed: CoxeterGraph, n_max: int,
                 rank=lambda g: analyze(g).mod2_rank) -> tuple[tuple[int, int], ...]:
    """The trajectory from the rank of every graph of the family, each built
    by ``appended``, by default from a full analysis of each."""
    g, ranks = seed, []
    for step in range(1, n_max + 1):
        if step > 1:
            g = appended(g)
        ranks.append((step, rank(g)))
    return tuple(ranks)


def label_ix(g: CoxeterGraph, i: int, j: int) -> Label:
    """Label by vertex index, with the implicit diagonal and default 2."""
    if i == j:
        return 1
    if i > j:
        i, j = j, i
    return g.labels.get((i, j), 2)


def listed(partition):
    """A partition's ``(classes, torsion_flags)``, the shape in which
    ``naive_pair_closure`` returns its own."""
    return partition.classes, partition.torsion_flags


def permuted_copy(g: CoxeterGraph, rng: random.Random) -> CoxeterGraph:
    """Isomorphic graph with the vertex sequence shuffled (names kept)."""
    order = list(range(len(g.vertices)))
    rng.shuffle(order)
    names = [g.vertices[i] for i in order]
    edges = [(g.vertices[i], g.vertices[j], m) for (i, j), m in g.labels.items()]
    return build_graph(names, edges)


def mod2_reduce(terms) -> int:
    """Bit mask of the edges whose coefficient is odd."""
    mask = 0
    for k, c in terms:
        if c % 2:
            mask ^= 1 << k
    return mask


def incidence_masks(pg) -> list[int]:
    """One GF(2) row per vertex of a plain graph: bit k set when edge k ends there."""
    return [sum(1 << k for k, edge in enumerate(pg.edges) if v in edge) for v in range(len(pg.vertices))]


def free_reduce(letters) -> tuple[int, ...]:
    """Cancel adjacent inverse letters until none remain: the reference for
    the join-only reduction that omega3 uses."""
    stack: list[int] = []
    for a in letters:
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return tuple(stack)


def inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-a for a in reversed(w))


def alternating_word(s: int, t: int, m: int) -> tuple[int, ...]:
    """The length-m word s t s t ... over vertex indices s != t: the
    reference for relator's closed form."""
    return ((s + 1, t + 1) * ((m + 1) // 2))[:m]


def abelianize(w: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """Signed letter counts as a vector over the first ``rank`` vertices."""
    counts = [0] * rank
    for a in w:
        counts[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(counts)


def power(w: tuple[int, ...], e: int) -> tuple[int, ...]:
    """The word w**e in the free group, for any integer exponent."""
    return free_reduce((w if e >= 0 else inverse(w)) * abs(e))


def _descriptor(descriptor):
    if descriptor is None:
        return None
    return {"free_rank": descriptor.free_rank, "torsion2_rank": descriptor.torsion2_rank}


def _word_row(w, vertices):
    text = " ".join(vertices[abs(a) - 1] + ("" if a > 0 else "^-1") for a in w) if w else "1"
    zero = not any(abelianize(w, max((abs(a) for a in w), default=0)))
    return {"word": text, "abelianization_zero": zero}


def reference_json(g, profile, omegas=None) -> str:
    """The document `io.render_json` must write, built as a dict and encoded by
    ``json.dumps(indent=2)``; tests compare the two byte for byte."""
    doc = {
        "vertices": list(g.vertices),
        "edges": [
            {"u": g.vertices[i], "v": g.vertices[j], "m": "inf" if m == INFINITY else m}
            for (i, j), m in sorted(g.labels.items())
        ],
        "p": profile.p,
        "q1": profile.q1,
        "q2": profile.q2,
        "q3": profile.q3,
        "q": profile.q,
        "n": {"n1": profile.n1, "n2": profile.n2, "n3": profile.n3, "n4": profile.n4},
        "howlett_identity": -profile.n1 + profile.n2 + profile.n3 + profile.n4 == profile.mod2_rank,
        "h1_artin_free_rank": profile.n4,
        "h2_orbit": _descriptor(profile.h2_orbit),
        "h2_coxeter": _descriptor(profile.h2_coxeter),
        "h2_artin_mod2_rank": profile.mod2_rank,
        "corollary": {
            "all_torsion": profile.all_torsion,
            "odd_equals_gamma": profile.odd_equals_gamma,
            "tree": profile.tree,
            "applies": profile.corollary_applies,
        },
        "h2_artin_integral": _descriptor(profile.h2_artin_integral),
    }
    if omegas is not None:
        doc["generators"] = {
            "flavor": omegas.flavor,
            "omega1": [_word_row(w, g.vertices) for w in omegas.omega1],
            "omega2": [_word_row(w, g.vertices) for w in omegas.omega2],
            "omega3": [_word_row(w, g.vertices) for w in omegas.omega3],
            "counts": {
                "omega1": len(omegas.omega1),
                "omega2": len(omegas.omega2),
                "omega3": len(omegas.omega3),
                "total": omegas.total,
                "expected_total": profile.p + profile.q,
            },
        }
    return json.dumps(doc, indent=2) + "\n"
