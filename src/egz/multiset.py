"""Multisets of ring elements stored as multiplicity vectors.

The multiplicity vector is indexed by the ring's fixed element enumeration.
Scaling a multiset by a unit permutes element indices; the canonical form of
a multiset is the lexicographically least multiplicity vector over its
unit-scaling orbit. Scaling by a unit c multiplies every degree-m elementary
symmetric value by the unit c^m, so counterexample status for the searches in
this package is constant on orbits and one canonical representative per orbit
suffices. The frontier search reduces by a larger group
(rings.symmetry_index_perms); the canonical form here stays the unit one, and
so do the witnesses that search reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from . import rings
from .rings import Elem, RingSpec


@lru_cache(maxsize=rings.CACHED_RINGS)
def orbit_perms(ring: RingSpec) -> tuple[tuple[int, ...], ...]:
    """Index permutations of the units other than the identity."""
    ident = tuple(range(ring.cardinality))
    return tuple(p for p in rings.unit_index_perms(ring) if p != ident)


def canonical_mult(
    mult: tuple[int, ...], perms: tuple[tuple[int, ...], ...]
) -> tuple[int, ...]:
    """Lexicographically least of mult and its images under perms.

    With perms = orbit_perms(ring) this is the least multiplicity vector over
    the unit orbit. The permutations are an argument, not looked up from the
    ring, so a caller canonicalizing many multisets of one ring builds them
    once.
    """
    best = mult
    get = mult.__getitem__
    for p in perms:
        cand = tuple(map(get, p))
        if cand < best:
            best = cand
    return best


@dataclass(frozen=True)
class MultisetSeq:
    """An unordered sequence over a ring, as a full multiplicity vector."""

    ring: RingSpec
    mult: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mult) != self.ring.cardinality:
            raise ValueError(
                f"multiplicity vector length {len(self.mult)} does not match "
                f"ring cardinality {self.ring.cardinality}"
            )
        if any(c < 0 for c in self.mult):
            raise ValueError("multiplicities must be >= 0")

    @classmethod
    def from_elements(cls, ring: RingSpec, elems: Iterable[Elem]) -> "MultisetSeq":
        mult = [0] * ring.cardinality
        for e in elems:
            mult[rings.element_index(ring, e)] += 1
        return cls(ring, tuple(mult))

    @classmethod
    def from_counts(cls, ring: RingSpec, counts: Mapping[Elem, int]) -> "MultisetSeq":
        mult = [0] * ring.cardinality
        for e, c in counts.items():
            if c < 0:
                raise ValueError("multiplicities must be >= 0")
            mult[rings.element_index(ring, e)] += c
        return cls(ring, tuple(mult))

    @classmethod
    def from_index_counts(cls, ring: RingSpec, counts: Mapping[int, int]) -> "MultisetSeq":
        mult = [0] * ring.cardinality
        for i, c in counts.items():
            if c < 0:
                raise ValueError("multiplicities must be >= 0")
            mult[i] += c
        return cls(ring, tuple(mult))

    @property
    def length(self) -> int:
        return sum(self.mult)

    def items(self) -> Iterator[tuple[Elem, int]]:
        elems = rings.elements(self.ring)
        for i, c in enumerate(self.mult):
            if c:
                yield elems[i], c

    def to_sequence(self) -> list[Elem]:
        out: list[Elem] = []
        for e, c in self.items():
            out.extend([e] * c)
        return out

    def canonical(self) -> "MultisetSeq":
        canon = canonical_mult(self.mult, orbit_perms(self.ring))
        return MultisetSeq(self.ring, canon)

    def is_canonical(self) -> bool:
        return self.mult == canonical_mult(self.mult, orbit_perms(self.ring))

    def __str__(self) -> str:
        parts = [
            f"{rings.format_elem(self.ring, e)}^{c}" for e, c in self.items()
        ]
        return " ".join(parts) if parts else "(empty)"
