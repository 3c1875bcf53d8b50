"""Free-group words over the vertex alphabet and the H2 generator families.

A letter is a nonzero integer: +k stands for the generator of vertex index
k - 1, -k for its inverse.  Words are kept freely reduced.  The same letter
data serves both presentations; the Artin reading simply never introduces the
squaring relations.

The generator families are:

* omega1 - one commutator of commuting generators per pair class,
* omega2 - the relator of each finite even label >= 4,
* omega3 - for each fundamental cycle of the odd subgraph, the product of the
  odd-label relators with the cycle's +-1 coefficients as exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .chains import CycleBasis, fundamental_cycle_basis
from .errors import CoxhomError
from .graph import INFINITY, CoxeterGraph, Label, is_even
from .invariants import Analysis, analyze

FLAVORS = ("artin", "coxeter")

# Longest alternating word spelled, so a relator has at most 2 * 10**6 letters;
# a larger label is an input error, not a MemoryError.
MAX_SPELLED_LABEL = 10**6


@dataclass(frozen=True)
class Word:
    """Freely reduced word; construct arbitrary letter data via free_reduce."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise CoxhomError(f"word is not freely reduced at {a}, {b}")
        if any(a == 0 for a in self.letters):
            raise CoxhomError("letter 0 is not a generator")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return free_reduce(self.letters + other.letters)

    def __pow__(self, exponent: int) -> "Word":
        base = self if exponent >= 0 else self.inverse()
        out: Word = Word()
        for _ in range(abs(exponent)):
            out = out * base
        return out

    def inverse(self) -> "Word":
        return Word(tuple(-a for a in reversed(self.letters)))

    def is_identity(self) -> bool:
        return not self.letters


def letter(index: int, sign: int = 1) -> int:
    """Encode a vertex index as a signed letter."""
    return (index + 1) if sign > 0 else -(index + 1)


def letter_index(a: int) -> int:
    return abs(a) - 1


def free_reduce(letters: Iterable[int]) -> Word:
    """Cancel adjacent inverse letters until none remain."""
    stack: list[int] = []
    for a in letters:
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return Word(tuple(stack))


def generator(index: int) -> Word:
    return Word((letter(index),))


def alternating_word(s: int, t: int, m: int) -> Word:
    """The length-m word s t s t ... over vertex indices s, t."""
    if s == t:
        raise CoxhomError(f"alternating word needs distinct vertices, got {s}")
    if m < 1:
        raise CoxhomError(f"length must be >= 1, got {m}")
    if m > MAX_SPELLED_LABEL:
        raise CoxhomError(f"label {m} is above the limit {MAX_SPELLED_LABEL} on spelled words")
    return Word(tuple(letter(s if k % 2 == 0 else t) for k in range(m)))


def relator(s: int, t: int, m: Label) -> Word:
    """(st)_m ((ts)_m)^-1 for vertex indices s < t and finite m >= 2.

    For m = 2 this is the commutator of the two generators.
    """
    if m == INFINITY:
        raise CoxhomError(f"no relator for the infinite label on ({s}, {t})")
    if s >= t:
        raise CoxhomError(f"relator requires s < t in vertex order, got ({s}, {t})")
    if m < 2:
        raise CoxhomError(f"relator requires m >= 2, got {m}")
    return alternating_word(s, t, m) * alternating_word(t, s, m).inverse()


def commutator(x: Word, y: Word) -> Word:
    return free_reduce(x.letters + y.letters + x.inverse().letters + y.inverse().letters)


def abelianize(w: Word, rank: int) -> tuple[int, ...]:
    """Signed letter counts as a vector over the first ``rank`` vertices."""
    counts = [0] * rank
    for a in w:
        counts[letter_index(a)] += 1 if a > 0 else -1
    return tuple(counts)


def in_commutator_subgroup(w: Word) -> bool:
    """Exact commutator-subgroup test in a free group: zero abelianization."""
    return not any(abelianize(w, max((abs(a) for a in w), default=0)))


@dataclass(frozen=True)
class OmegaSets:
    """Generator words for the second homology, one family per mechanism."""

    flavor: str
    omega1: tuple[Word, ...]
    omega2: tuple[Word, ...]
    omega3: tuple[Word, ...]
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
    spelled: dict[int, Word] = {}  # edge -> its relator, spelled when a cycle first uses it
    omega3 = []
    for cycle in basis.basis:
        parts: list[int] = []
        for k, coefficient in cycle:
            if k not in spelled:
                i, j = pg.edges[k]
                spelled[k] = relator(i, j, g.labels[i, j])
            # a fundamental cycle's coefficients are -1 or 1
            rel = spelled[k] if coefficient > 0 else spelled[k].inverse()
            parts.extend(rel.letters)
        omega3.append(free_reduce(parts))
    return OmegaSets(flavor, omega1, omega2, tuple(omega3), analysis, basis)
