"""Finite products of cyclic rings Z_n1 x ... x Z_nr with coordinatewise ops.

Elements are fully reduced residue tuples. The enumeration order is fixed:
lexicographic over residue tuples, coordinate i running 0..n_i-1. Multiplicity
vectors, canonical forms, and certificates all index elements by this order,
so it must never change.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Sequence

from . import numtheory

Elem = tuple[int, ...]


@dataclass(frozen=True)
class RingSpec:
    """Z_{n1} + ... + Z_{nr}, determined by its ordered tuple of moduli."""

    moduli: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def cardinality(self) -> int:
        return math.prod(self.moduli)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.moduli)

    @property
    def zero(self) -> Elem:
        return (0,) * len(self.moduli)

    @property
    def one(self) -> Elem:
        return (1,) * len(self.moduli)

    def __str__(self) -> str:
        return "Z" + "xZ".join(str(n) for n in self.moduli)


def make_ring(moduli: Sequence[int]) -> RingSpec:
    """Validate moduli (each an integer >= 2) and build a RingSpec."""
    mods = tuple(moduli)
    if not mods:
        raise ValueError("ring needs at least one modulus")
    for n in mods:
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise ValueError(f"modulus must be an integer >= 2, got {n!r}")
    return RingSpec(mods)


def element(ring: RingSpec, residues: Sequence[int]) -> Elem:
    """Build an element from arbitrary integers, reducing each coordinate."""
    res = tuple(residues)
    if len(res) != ring.rank:
        raise ValueError(f"expected {ring.rank} residues, got {len(res)}")
    return tuple(int(x) % n for x, n in zip(res, ring.moduli))


def _check_arity(ring: RingSpec, a: Elem) -> None:
    if len(a) != ring.rank:
        raise ValueError(f"element arity {len(a)} does not match ring rank {ring.rank}")


def add(ring: RingSpec, a: Elem, b: Elem) -> Elem:
    _check_arity(ring, a)
    _check_arity(ring, b)
    return tuple((x + y) % n for x, y, n in zip(a, b, ring.moduli))


def mul(ring: RingSpec, a: Elem, b: Elem) -> Elem:
    _check_arity(ring, a)
    _check_arity(ring, b)
    return tuple((x * y) % n for x, y, n in zip(a, b, ring.moduli))


def power(ring: RingSpec, a: Elem, e: int) -> Elem:
    """a**e with the empty product equal to the multiplicative identity."""
    if e < 0:
        raise ValueError("exponent must be >= 0")
    _check_arity(ring, a)
    return tuple(pow(x, e, n) for x, n in zip(a, ring.moduli))


def scalar_mul(ring: RingSpec, s: int, a: Elem) -> Elem:
    """Integer scalar times a ring element, reduced per coordinate modulus."""
    _check_arity(ring, a)
    return tuple((s * x) % n for x, n in zip(a, ring.moduli))


# How many rings each table cache below holds: more than a batch of queries
# touches, and a bound on what library use over many rings keeps alive.
CACHED_RINGS = 32


@lru_cache(maxsize=CACHED_RINGS)
def elements(ring: RingSpec) -> tuple[Elem, ...]:
    """All ring elements in the fixed lexicographic order."""
    return tuple(itertools.product(*(range(n) for n in ring.moduli)))


@lru_cache(maxsize=CACHED_RINGS)
def _index_map(ring: RingSpec) -> dict[Elem, int]:
    return {e: i for i, e in enumerate(elements(ring))}


def element_index(ring: RingSpec, a: Elem) -> int:
    """Position of a in the lexicographic order, read as a mixed-radix number;
    enumerates nothing, so it is cheap on rings of any size."""
    _check_arity(ring, a)
    index = 0
    for x, n in zip(a, ring.moduli):
        if not isinstance(x, int) or not 0 <= x < n:
            raise ValueError(f"{a} is not a reduced element of {ring}")
        index = index * n + x
    return index


def element_at(ring: RingSpec, i: int) -> Elem:
    return elements(ring)[i]


def is_unit(ring: RingSpec, a: Elem) -> bool:
    _check_arity(ring, a)
    return all(math.gcd(x, n) == 1 for x, n in zip(a, ring.moduli))


@lru_cache(maxsize=CACHED_RINGS)
def units(ring: RingSpec) -> tuple[Elem, ...]:
    """All invertible elements, in enumeration order."""
    return tuple(e for e in elements(ring) if is_unit(ring, e))


# Index-space tables used by the search engine. The search refuses rings
# above search.MAX_CARDINALITY elements, so full tables stay cheap.

@lru_cache(maxsize=CACHED_RINGS)
def add_index_table(ring: RingSpec) -> tuple[tuple[int, ...], ...]:
    elems = elements(ring)
    idx = _index_map(ring)
    return tuple(
        tuple(idx[add(ring, a, b)] for b in elems) for a in elems
    )


@lru_cache(maxsize=CACHED_RINGS)
def mul_index_table(ring: RingSpec) -> tuple[tuple[int, ...], ...]:
    elems = elements(ring)
    idx = _index_map(ring)
    return tuple(
        tuple(idx[mul(ring, a, b)] for b in elems) for a in elems
    )


@lru_cache(maxsize=CACHED_RINGS)
def scalar_index_table(ring: RingSpec) -> tuple[tuple[int, ...], ...]:
    """Row s (0 <= s < exponent) maps element index to the index of s*element."""
    elems = elements(ring)
    idx = _index_map(ring)
    return tuple(
        tuple(idx[scalar_mul(ring, s, e)] for e in elems)
        for s in range(ring.exponent)
    )


@lru_cache(maxsize=CACHED_RINGS)
def unit_index_perms(ring: RingSpec) -> tuple[tuple[int, ...], ...]:
    """Index permutations induced by multiplication with each unit."""
    mt = mul_index_table(ring)
    idx = _index_map(ring)
    return tuple(mt[idx[u]] for u in units(ring))


# Largest |H| * cardinality that symmetry_index_perms enumerates: the search
# keeps |H| keys per row in its closure test and its canonical pass, so a
# larger group is retried without shears, then with the units alone.
# Raising it changes H, and with it the level sizes.
SYMMETRY_BUDGET = 1 << 17


def _coordinate_map_perm(ring: RingSpec, f) -> tuple[int, ...]:
    return tuple(element_index(ring, element(ring, f(e))) for e in elements(ring))


def _general_linear_order(ring: RingSpec) -> int | None:
    """|GL_n(F_p)| = prod_{i<n} (p^n - p^i) on Z_p^n with p prime and n >= 2,
    else None. There the shears are the elementary transvections, which
    generate SL_n(F_p), and the unit scalings diag(u_1, ..., u_n) take
    every determinant, so units and shears generate GL_n(F_p)."""
    p, n = ring.moduli[0], ring.rank
    if n < 2 or set(ring.moduli) != {p} or not numtheory.is_prime(p):
        return None
    return math.prod(p**n - p**i for i in range(n))


def _closure(ident: tuple[int, ...], gens: list[tuple[int, ...]], limit: int):
    """The group generated by gens, breadth-first; None once it exceeds limit.

    itemgetter(*s)(g) is the composition h[i] = g[s[i]] in one C call."""
    seen = {ident}
    queue = [ident]
    compose = [itemgetter(*s) for s in gens] if len(ident) > 1 else []
    for g in queue:
        for c in compose:
            h = c(g)
            if h not in seen:
                if len(seen) == limit:
                    return None
                seen.add(h)
                queue.append(h)
    return tuple(sorted(seen))


@lru_cache(maxsize=CACHED_RINGS)
def symmetry_index_perms(ring: RingSpec, additive: bool) -> tuple[tuple[int, ...], ...]:
    """Index permutations of a group H whose maps keep every zero-e_m
    sub-multiset zero, sorted (identity first).

    H is generated by the unit scalings, the transpositions of coordinates
    with equal moduli (ring automorphisms: e_m(u * s(S)) = u^m s(e_m(S))) and,
    when additive (m = 1, where e_1 is the sum), the shears
    x_j += (n_j / gcd(n_i, n_j)) x_i, which are additive automorphisms. A
    group past SYMMETRY_BUDGET is retried without shears, then with units
    alone, so H always contains the units.
    """
    units_h = tuple(sorted(unit_index_perms(ring)))
    mods = ring.moduli
    pairs = [(i, j) for i in range(ring.rank) for j in range(ring.rank) if i != j]

    def swap(i, j):
        return lambda e: [e[j] if k == i else e[i] if k == j else x for k, x in enumerate(e)]

    def shear(i, j):
        c = mods[j] // math.gcd(mods[i], mods[j])
        return lambda e: [x + c * e[i] if k == j else x for k, x in enumerate(e)]

    swaps = [_coordinate_map_perm(ring, swap(i, j)) for i, j in pairs if i < j and mods[i] == mods[j]]
    shears = [_coordinate_map_perm(ring, shear(i, j)) for i, j in pairs] if additive else []
    if not swaps + shears:
        return units_h
    ident = units_h[0]
    gens: list[tuple[int, ...]] = []  # a few units that generate them all
    span = {ident}
    for u in units_h:
        if u not in span:
            gens.append(u)
            span = set(_closure(ident, gens, len(units_h)))
    limit = SYMMETRY_BUDGET // ring.cardinality
    tries = (swaps + shears, swaps)
    if shears and (_general_linear_order(ring) or 0) > limit:
        tries = (swaps,)  # known to pass the budget: not enumerated
    for extra in tries:
        extra = [p for p in extra if p not in span]
        if extra:
            group = _closure(ident, gens + extra, limit)
            if group is not None:
                return group
    return units_h


def format_elem(ring: RingSpec, a: Elem) -> str:
    if ring.rank == 1:
        return str(a[0])
    return "(" + ",".join(str(x) for x in a) + ")"


def parse_moduli(text: str) -> tuple[int, ...]:
    """Parse a CLI ring argument like "8", "2x4", or "2,2,2" into moduli."""
    normalized = text.lower().replace("x", ",")
    try:
        mods = tuple(int(part) for part in normalized.split(","))
    except ValueError:
        raise ValueError(f"cannot parse ring moduli from {text!r}") from None
    make_ring(mods)
    return mods
