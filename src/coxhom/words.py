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

from typing import NamedTuple

from .chains import CycleBasis, fundamental_cycle_basis
from .errors import CoxhomError
from .graph import INFINITY, CoxeterGraph, Label, PlainGraph, is_even, odd_subgraph
from .invariants import InvariantProfile

FLAVORS = ("artin", "coxeter")

# Longest alternating word spelled, so a relator has at most 2 * 10**6 letters;
# a larger label is an input error, not a MemoryError.
MAX_SPELLED_LABEL = 10**6


def _extend_reduced(stack: list[int], part: tuple[int, ...]) -> None:
    """Append ``part`` to ``stack``, both freely reduced, so that ``stack``
    becomes the free reduction of their product.

    Letters can cancel only where the two meet, so only the join is reduced.
    """
    n = 0
    while stack and n < len(part) and stack[-1] == -part[n]:
        stack.pop()
        n += 1
    stack.extend(part[n:])


def relator(s: int, t: int, m: Label, sign: int = 1) -> tuple[int, ...]:
    """(st)_m ((ts)_m)^-1 for vertex indices s < t and finite m >= 2, or
    its inverse for a negative ``sign``.

    For m = 2 this is the commutator of the two generators.
    """
    if m == INFINITY:
        raise CoxhomError(f"no relator for the infinite label on ({s}, {t})")
    if s >= t:
        raise CoxhomError(f"relator requires s < t in vertex order, got ({s}, {t})")
    if m < 2:
        raise CoxhomError(f"relator requires m >= 2, got {m}")
    if m > MAX_SPELLED_LABEL:
        raise CoxhomError(f"label {m} is above the limit {MAX_SPELLED_LABEL} on spelled words")
    return _spell(s + 1, t + 1, m) if sign > 0 else _spell(t + 1, s + 1, m)


def _spell(a: int, b: int, m: int) -> tuple[int, ...]:
    """(ab)_m ((ba)_m)^-1 for letters of two vertices, sliced from repeated
    pairs; the halves meet at different vertices, and _spell(b, a, m) is the inverse."""
    k = (m + 1) // 2
    return ((a, b) * k)[:m] + ((-b, -a) * k)[:m] if m % 2 else (a, b) * k + (-a, -b) * k


class OmegaSets(NamedTuple):
    """Generator words for the second homology, one family per mechanism,
    and the odd subgraph and cycle basis omega3 was spelled from."""

    flavor: str  # kept because bench/spans.py keys its letter count by it
    omega1: tuple[tuple[int, ...], ...]
    omega2: tuple[tuple[int, ...], ...]
    omega3: tuple[tuple[int, ...], ...]
    odd: PlainGraph
    basis: CycleBasis

    @property
    def total(self) -> int:
        return len(self.omega1) + len(self.omega2) + len(self.omega3)


def omega_sets(g: CoxeterGraph, profile: InvariantProfile, flavor: str) -> OmegaSets:
    """Construct the three generator families of g for either presentation,
    reading each class's least pair from g's invariant ``profile``.

    Both flavors share letter data (every Artin relator is a Coxeter relator,
    and the signed cycle exponents need no squaring relators), so the flavor
    only names the presentation.
    """
    if flavor not in FLAVORS:
        raise CoxhomError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    # a least pair has s < t, and the relator of label 2 is the commutator [s, t]
    omega1 = tuple(relator(s, t, 2) for s, t in profile.partition.least)
    omega2 = tuple(relator(i, j, m) for (i, j), m in g.labels.items() if is_even(m))
    pg = odd_subgraph(g)  # the cycle basis reads its edges in pair order
    basis = fundamental_cycle_basis(pg)
    # a term (edge, +-1) -> the edge's relator to that power, spelled at its first use
    spelled: dict[tuple[int, int], tuple[int, ...]] = {}
    omega3 = []
    for cycle in basis.basis:
        stack: list[int] = []
        for term in cycle:
            part = spelled.get(term)
            if part is None:
                k, sign = term
                i, j = pg.edges[k]
                part = spelled[term] = relator(i, j, g.labels[i, j], sign)
            if stack and stack[-1] == -part[0]:
                _extend_reduced(stack, part)
            else:  # nothing cancels at the join
                stack += part
        omega3.append(tuple(stack))
    return OmegaSets(flavor, omega1, omega2, tuple(omega3), pg, basis)
