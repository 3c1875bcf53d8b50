"""Free-group words over the vertex alphabet and the H2 generator families.

A letter is a nonzero integer: +k stands for the generator of vertex index
k - 1, -k for its inverse.  A word is a tuple of letters, kept freely reduced
(no letter 0, no letter next to its inverse) by the functions that build it.
The same letter data serves both presentations; the Artin reading simply never
introduces the squaring relations.

The generator families are:

* omega1 - one commutator of commuting generators per pair class,
* omega2 - the relator of each finite even label >= 4,
* omega3 - for each fundamental cycle of the odd subgraph, the product of the
  odd-label relators with the cycle's +-1 coefficients as exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .chains import CycleBasis, fundamental_cycle_basis
from .errors import CoxhomError
from .graph import INFINITY, CoxeterGraph, Label, is_even
from .invariants import Analysis, analyze

FLAVORS = ("artin", "coxeter")

# Longest alternating word spelled, so a relator has at most 2 * 10**6 letters;
# a larger label is an input error, not a MemoryError.
MAX_SPELLED_LABEL = 10**6


def letter(index: int) -> int:
    """Encode a vertex index as its positive letter."""
    return index + 1


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse letters until none remain."""
    stack: list[int] = []
    for a in letters:
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return tuple(stack)


def inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-a for a in reversed(w))


def generator(index: int) -> tuple[int, ...]:
    return (letter(index),)


def alternating_word(s: int, t: int, m: int) -> tuple[int, ...]:
    """The length-m word s t s t ... over vertex indices s, t."""
    if s == t:
        raise CoxhomError(f"alternating word needs distinct vertices, got {s}")
    if m < 1:
        raise CoxhomError(f"length must be >= 1, got {m}")
    if m > MAX_SPELLED_LABEL:
        raise CoxhomError(f"label {m} is above the limit {MAX_SPELLED_LABEL} on spelled words")
    return tuple(letter(s if k % 2 == 0 else t) for k in range(m))


def relator(s: int, t: int, m: Label) -> tuple[int, ...]:
    """(st)_m ((ts)_m)^-1 for vertex indices s < t and finite m >= 2.

    For m = 2 this is the commutator of the two generators.
    """
    if m == INFINITY:
        raise CoxhomError(f"no relator for the infinite label on ({s}, {t})")
    if s >= t:
        raise CoxhomError(f"relator requires s < t in vertex order, got ({s}, {t})")
    if m < 2:
        raise CoxhomError(f"relator requires m >= 2, got {m}")
    # the halves meet at letters of different vertices, so nothing cancels
    return alternating_word(s, t, m) + inverse(alternating_word(t, s, m))


def commutator(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    return free_reduce(x + y + inverse(x) + inverse(y))


def abelianize(w: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """Signed letter counts as a vector over the first ``rank`` vertices."""
    counts = [0] * rank
    for a in w:
        counts[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(counts)


def in_commutator_subgroup(w: tuple[int, ...]) -> bool:
    """Exact commutator-subgroup test in a free group: zero abelianization."""
    return not any(abelianize(w, max((abs(a) for a in w), default=0)))


@dataclass(frozen=True)
class OmegaSets:
    """Generator words for the second homology, one family per mechanism."""

    flavor: str
    omega1: tuple[tuple[int, ...], ...]
    omega2: tuple[tuple[int, ...], ...]
    omega3: tuple[tuple[int, ...], ...]
    analysis: Analysis = field(compare=False, repr=False)
    basis: CycleBasis = field(compare=False, repr=False)

    @property
    def total(self) -> int:
        return len(self.omega1) + len(self.omega2) + len(self.omega3)


def omega_sets(g: CoxeterGraph, flavor: str) -> OmegaSets:
    """Construct the three generator families for either presentation.

    Both flavors share letter data (every Artin relator is a Coxeter relator,
    and the signed cycle exponents need no squaring relators), so the flavor
    only names the presentation.
    """
    if flavor not in FLAVORS:
        raise CoxhomError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    analysis = analyze(g)
    omega1 = tuple(
        commutator(generator(s), generator(t)) for s, t in (block[0] for block in analysis.partition.classes)
    )
    omega2 = tuple(
        relator(i, j, m)
        for (i, j), m in sorted(g.labels.items())
        if is_even(m) and m >= 4
    )
    pg = analysis.odd
    basis = fundamental_cycle_basis(pg)
    # edge -> its relator and that relator's inverse, spelled when a cycle first uses the edge
    spelled: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    omega3 = []
    for cycle in basis.basis:
        parts: list[int] = []
        for k, coefficient in cycle:
            if k not in spelled:
                i, j = pg.edges[k]
                rel = relator(i, j, g.labels[i, j])
                spelled[k] = (rel, inverse(rel))
            # a fundamental cycle's coefficients are -1 or 1
            parts.extend(spelled[k][0 if coefficient > 0 else 1])
        omega3.append(free_reduce(parts))
    return OmegaSets(flavor, omega1, omega2, tuple(omega3), analysis, basis)
