"""Elementary symmetric values over product rings, two ways, plus the integer
expansion of m! * e_m in power sums.

Routes for e_m:
  * elementary_symmetric: prefix dynamic programming over an explicit
    sequence, one multiply-add per (element, degree) pair.
  * elementary_symmetric_multiset: generating product over a multiplicity
    vector, where an element g of multiplicity c contributes the factor
    sum_j C(c, j) g^j x^j truncated at degree m, with each binomial reduced
    by the coordinate moduli before scalar multiplication.

The two routes plus a naive subset-enumeration oracle are held equal in the
test suite.

The power-sum expansion writes m! * e_m as an integer polynomial in
p_1..p_m: for each partition type (j_1..j_m) with sum i*j_i = m the
coefficient is (-1)^(m + sum j_i) times the number of permutations in S_m
with that cycle type. It is validated at construction against the classical
recursion m e_m = sum_{i=1}^m (-1)^(i-1) e_{m-i} p_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from . import rings
from .multiset import MultisetSeq
from .rings import Elem, RingSpec

MAX_EXPANSION_M = 20


def elementary_symmetric_prefix(ring: RingSpec, seq: Iterable[Elem], m: int) -> list[Elem]:
    """All of e_0..e_m for an explicit sequence, by the prefix recurrence."""
    if m < 0:
        raise ValueError("m must be >= 0")
    coeffs: list[Elem] = [ring.one] + [ring.zero] * m
    count = 0
    for g in seq:
        count += 1
        for j in range(min(m, count), 0, -1):
            coeffs[j] = rings.add(ring, coeffs[j], rings.mul(ring, g, coeffs[j - 1]))
    return coeffs


def elementary_symmetric(ring: RingSpec, seq: Iterable[Elem], m: int) -> Elem:
    """e_m of a sequence; zero when the sequence has fewer than m terms."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return elementary_symmetric_prefix(ring, seq, m)[m]


def _binomial_factor(ring: RingSpec, g: Elem, c: int, m: int) -> list[Elem]:
    # (1 + g x)^c truncated at degree m: coefficient j is C(c, j) g^j with the
    # binomial reduced per coordinate modulus.
    out = [ring.zero] * (m + 1)
    gg = ring.one
    for j in range(min(c, m) + 1):
        out[j] = rings.scalar_mul(ring, math.comb(c, j), gg)
        if j < m:
            gg = rings.mul(ring, gg, g)
    return out


def _mul_truncated(ring: RingSpec, a: list[Elem], b: list[Elem], m: int) -> list[Elem]:
    zero = ring.zero
    out = [zero] * (m + 1)
    for i, ai in enumerate(a):
        if ai == zero:
            continue
        for j in range(min(len(b) - 1, m - i) + 1):
            bj = b[j]
            if bj == zero:
                continue
            out[i + j] = rings.add(ring, out[i + j], rings.mul(ring, ai, bj))
    return out


def elementary_symmetric_multiset_prefix(ring: RingSpec, mseq: MultisetSeq, m: int) -> list[Elem]:
    """All of e_0..e_m for a multiset, by the truncated generating product."""
    if mseq.ring != ring:
        raise ValueError("multiset ring does not match")
    if m < 0:
        raise ValueError("m must be >= 0")
    poly = [ring.one] + [ring.zero] * m
    for g, c in mseq.items():
        if g == ring.zero:
            continue  # factor is 1 + 0 x + ...: identity
        poly = _mul_truncated(ring, poly, _binomial_factor(ring, g, c, m), m)
    return poly


def elementary_symmetric_multiset(ring: RingSpec, mseq: MultisetSeq, m: int) -> Elem:
    if m < 1:
        raise ValueError("m must be >= 1")
    return elementary_symmetric_multiset_prefix(ring, mseq, m)[m]


def power_sum(ring: RingSpec, seq: Iterable[Elem], i: int) -> Elem:
    """p_i = sum of i-th powers over the sequence."""
    if i < 1:
        raise ValueError("power index must be >= 1")
    acc = ring.zero
    for g in seq:
        acc = rings.add(ring, acc, rings.power(ring, g, i))
    return acc


# --- power-sum expansion of m! * e_m ---------------------------------------


@dataclass(frozen=True)
class PowerSumExpansion:
    """m! * e_m = sum over terms of coeff * prod_i p_i^(j_i).

    Terms are keyed by the exponent vector (j_1..j_m) and listed in
    descending lexicographic order of that vector.
    """

    m: int
    scale: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class DominatingSet:
    """A minimum set of power-sum indices hitting every expansion term."""

    m: int
    size: int
    indices: tuple[int, ...]


def _partition_type_vectors(m: int) -> list[tuple[int, ...]]:
    # All (j_1..j_m) with sum i*j_i = m.
    out: list[tuple[int, ...]] = []
    vec = [0] * m

    def rec(largest: int, remaining: int) -> None:
        if remaining == 0:
            out.append(tuple(vec))
            return
        for i in range(min(largest, remaining), 0, -1):
            vec[i - 1] += 1
            rec(i, remaining - i)
            vec[i - 1] -= 1

    rec(m, m)
    return out


def _expansion_by_recursion(m: int) -> dict[tuple[int, ...], Fraction]:
    # e_m as a polynomial in p_1..p_m with rational coefficients, via
    # m e_m = sum_{i=1}^m (-1)^(i-1) e_{m-i} p_i.
    levels: list[dict[tuple[int, ...], Fraction]] = [{(0,) * m: Fraction(1)}]
    for mm in range(1, m + 1):
        acc: dict[tuple[int, ...], Fraction] = {}
        for i in range(1, mm + 1):
            sign = 1 if (i - 1) % 2 == 0 else -1
            for jvec, coeff in levels[mm - i].items():
                shifted = list(jvec)
                shifted[i - 1] += 1
                key = tuple(shifted)
                acc[key] = acc.get(key, Fraction(0)) + sign * coeff / mm
        levels.append({k: v for k, v in acc.items() if v})
    return levels[m]


@lru_cache(maxsize=None)
def newton_girard(m: int) -> PowerSumExpansion:
    """Integer expansion of m! * e_m in power sums, recursion-validated."""
    if not 1 <= m <= MAX_EXPANSION_M:
        raise ValueError(f"m must be in 1..{MAX_EXPANSION_M}")
    scale = math.factorial(m)
    terms: list[tuple[int, tuple[int, ...]]] = []
    for jvec in _partition_type_vectors(m):
        cycles = scale
        for i, j in enumerate(jvec, start=1):
            cycles //= math.factorial(j) * i ** j
        sign = 1 if (m + sum(jvec)) % 2 == 0 else -1
        terms.append((sign * cycles, jvec))
    terms.sort(key=lambda t: t[1], reverse=True)
    recursion = _expansion_by_recursion(m)
    direct = {jvec: Fraction(c, scale) for c, jvec in terms}
    if direct != recursion:
        raise AssertionError(f"power-sum expansion mismatch at m={m}")
    return PowerSumExpansion(m=m, scale=scale, terms=tuple(terms))


def expansion_value(exp: PowerSumExpansion, psums: Sequence[int]) -> int:
    """Evaluate m! * e_m given integer power sums p_1..p_m."""
    if len(psums) < exp.m:
        raise ValueError(f"need {exp.m} power sums")
    total = 0
    for coeff, jvec in exp.terms:
        prod = coeff
        for i, j in enumerate(jvec, start=1):
            if j:
                prod *= psums[i - 1] ** j
        total += prod
    return total


def term_supports(exp: PowerSumExpansion) -> list[frozenset[int]]:
    """The set of power-sum indices appearing in each term."""
    return [
        frozenset(i for i, j in enumerate(jvec, start=1) if j)
        for _, jvec in exp.terms
    ]


def standard_dominating_indices(m: int) -> tuple[int, ...]:
    """{p_1..p_floor(m/2), p_m}: a dominating set for every m."""
    return tuple(sorted(set(range(1, m // 2 + 1)) | {m}))


@lru_cache(maxsize=None)
def min_dominating_set(m: int) -> DominatingSet:
    """Smallest set of power-sum indices meeting every term of the expansion.

    Exact search over index subsets ordered by (size, lex); the first hit is
    returned, which makes the witness deterministic.
    """
    import itertools

    exp = newton_girard(m)
    supports = term_supports(exp)
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(1, m + 1), size):
            cset = set(combo)
            if all(s & cset for s in supports):
                return DominatingSet(m=m, size=size, indices=tuple(combo))
    raise AssertionError("the full index set always dominates")


def dominating_set_size_formula(m: int) -> int:
    """(m+2)/2 for even m, (m+1)/2 for odd m."""
    return (m + 2) // 2 if m % 2 == 0 else (m + 1) // 2


def format_expansion(exp: PowerSumExpansion) -> str:
    """Stable text form like "6*e_3 = p1^3 - 3*p1*p2 + 2*p3"."""
    parts: list[str] = []
    for coeff, jvec in exp.terms:
        factors = []
        for i, j in enumerate(jvec, start=1):
            if j == 1:
                factors.append(f"p{i}")
            elif j > 1:
                factors.append(f"p{i}^{j}")
        mono = "*".join(factors) if factors else "1"
        mag = abs(coeff)
        body = mono if mag == 1 else f"{mag}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return f"{exp.scale}*e_{exp.m} = " + " ".join(parts)
