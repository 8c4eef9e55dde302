"""Boolean-cube solution counting for systems of prime-power congruences.

A system over variables x_1..x_n in {0,1} consists of congruences
P_j(x) = 0 (mod p^{v_j}) with sparse integer-coefficient polynomials P_j.
The load-bearing fact (the boolean case of the Schauz/Brink theorem): when

    sum_j (p^{v_j} - 1) * deg(P_j) < n

the number of solutions in {0,1}^n is never exactly 1. Systems built so the
all-zero vector solves them therefore have a second, nonzero solution; the
zero-sum applications encode "some sub-multiset of prescribed size has
e_m = 0" this way. This module gives the brute-force side: exact counts (or
an early-certified count >= 2) over the cube, with the degree condition
checked and reported.

Counting enumerates the cube in chunks of 2^L vector ids (L = chunk_bits,
at most n). Bit i of a vector id is the value of variable i (0-based), so
a chunk fixes the n - L high variables to an assignment h and runs over
every assignment x of the L low ones. Each monomial is a variable mask,
split into a low and a high part; on a chunk, exactly the monomials whose
high part lies inside h can be nonzero. Their coefficients are scattered
at their low masks into an int64 vector of length 2^L, and L passes of the
subset-sum (zeta) transform, a[x | 2^i] += a[x], turn it into P(h, x) for
every x of the chunk at once, in O(M + L*2^L) work for M monomials.
Coefficients are normalized below p^v <= 2^32 on construction and merged
monomials have distinct supports, so a value sums at most 2^n <= 2^30 of
them and stays below 2^62: no int64 overflow and no intermediate
reduction mod p^v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from . import numtheory

MAX_VARS = 30
DEFAULT_CHUNK_BITS = 18
# About 18 bytes per chunk point (int64 vector, remainder, two masks): 100 MB at 22.
MAX_CHUNK_BITS = 22

Monomial = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class Congruence:
    """P(x) = 0 (mod p^v): sparse monomials (coeff, sorted variable ids)."""

    v: int
    monomials: tuple[Monomial, ...]

    @property
    def degree(self) -> int:
        return max((len(vs) for _, vs in self.monomials), default=0)


@dataclass(frozen=True)
class BrinkInstance:
    n: int
    p: int
    system: tuple[Congruence, ...]

    @property
    def weight(self) -> int:
        """Sum of (p^v - 1) * deg(P) over the system."""
        return sum((self.p ** c.v - 1) * c.degree for c in self.system)

    @property
    def degree_condition(self) -> bool:
        return self.weight < self.n


@dataclass(frozen=True)
class BrinkReport:
    """count is the exact solution count, or None when counting stopped
    early; at_least is always a valid lower bound (== count when exact)."""

    count: int | None
    at_least: int
    degree_condition: bool
    weight: int


def make_instance(
    n: int, p: int, system: Iterable[tuple[int, Iterable[Monomial]]]
) -> BrinkInstance:
    """Build a normalized instance from (v, monomials) pairs.

    Repeated variables in a monomial collapse (x_i^2 = x_i on {0,1}),
    monomials with equal variable sets merge, coefficients reduce mod p^v,
    and zero terms drop.
    """
    if not 1 <= n <= MAX_VARS:
        raise ValueError(f"need 1 <= n <= {MAX_VARS} variables, got {n}")
    if not numtheory.is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    congruences = []
    for v, monomials in system:
        if v < 1:
            raise ValueError("modulus exponent v must be >= 1")
        pv = p ** v
        if pv > 1 << 32:
            raise ValueError(f"modulus {p}^{v} too large for int64 accumulation")
        merged: dict[tuple[int, ...], int] = {}
        for coeff, variables in monomials:
            vs = tuple(sorted(set(variables)))
            if any(i < 0 or i >= n for i in vs):
                raise ValueError(f"variable ids out of range in {vs}")
            merged[vs] = (merged.get(vs, 0) + coeff) % pv
        kept = tuple(
            (c, vs) for vs, c in sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0]))
            if c != 0
        )
        if kept:
            congruences.append(Congruence(v, kept))
    return BrinkInstance(n, p, tuple(congruences))


def count_boolean_solutions(
    inst: BrinkInstance,
    stop_at: int | None = None,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> BrinkReport:
    """Count x in {0,1}^n solving every congruence.

    With stop_at=s, counting stops once s solutions are known and the
    report carries count=None, at_least=s (enough for the "not exactly
    one" verdict at s=2). Enumeration order is by vector id, so early
    stops are deterministic.
    """
    if inst.n > MAX_VARS:
        raise ValueError(f"instance has {inst.n} > {MAX_VARS} variables")
    if stop_at is not None and stop_at < 1:
        raise ValueError(f"stop_at must be >= 1, got {stop_at}")
    if not 1 <= chunk_bits <= MAX_CHUNK_BITS:
        raise ValueError(f"chunk_bits must be >= 1 and <= {MAX_CHUNK_BITS}, got {chunk_bits}")
    low_bits = min(chunk_bits, inst.n)
    size = 1 << low_bits
    plans = []
    for cong in inst.system:
        masks = np.array(
            [sum(1 << i for i in vs) for _, vs in cong.monomials], dtype=np.int64
        )
        coeffs = np.array([c for c, _ in cong.monomials], dtype=np.int64)
        plans.append((masks & (size - 1), masks >> low_bits, coeffs, inst.p ** cong.v))
    found = 0
    for h in range(1 << (inst.n - low_bits)):
        good = np.ones(size, dtype=bool)
        for low, high, coeffs, pv in plans:
            live = (high & ~h) == 0
            acc = np.zeros(size, dtype=np.int64)
            np.add.at(acc, low[live], coeffs[live])
            for i in range(low_bits):
                a = acc.reshape(-1, 2, 1 << i)
                a[:, 1] += a[:, 0]
            good &= (acc % pv) == 0
            if not good.any():
                break
        found += int(good.sum())
        if stop_at is not None and found >= stop_at:
            return BrinkReport(None, stop_at, inst.degree_condition, inst.weight)
    return BrinkReport(found, found, inst.degree_condition, inst.weight)


def egz_boolean_instance(g: Sequence[int], k: int, t: int, m: int) -> BrinkInstance:
    """The system whose nonzero solutions select, from the integer sequence
    g over Z_k (k = p^s), a sub-multiset of size exactly t (t = p^r, same p,
    with t <= len(g) < 2t) whose e_m value is 0 mod k.

    Congruences: sum over m-subsets of prod(g_i) x_{i1}..x_{im} = 0 (mod
    p^s), and sum of all x_i = 0 (mod p^r). The all-zero vector always
    solves; under the degree condition a second solution exists, and the
    length window forces its support to have size exactly t.
    """
    kp = numtheory.prime_power(k)
    tp = numtheory.prime_power(t)
    if kp is None or tp is None or kp[0] != tp[0]:
        raise ValueError("k and t must be powers of the same prime")
    p, s = kp
    r = tp[1]
    n = len(g)
    if not t <= n < 2 * t:
        raise ValueError(f"need t <= len(g) < 2t for exact-size selection, got {n}")
    nonzero = [i for i, gi in enumerate(g) if gi % k != 0]
    zero_sum: list[Monomial] = []
    for subset in combinations(nonzero, m):
        coeff = 1
        for i in subset:
            coeff = coeff * g[i] % k
        if coeff:
            zero_sum.append((coeff, subset))
    size = [(1, (i,)) for i in range(n)]
    return make_instance(n, p, [(s, zero_sum), (r, size)])


def to_json(inst: BrinkInstance) -> str:
    doc = {
        "n": inst.n,
        "p": inst.p,
        "system": [
            {"v": c.v, "monomials": [[coeff, list(vs)] for coeff, vs in c.monomials]}
            for c in inst.system
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str) -> BrinkInstance:
    doc = json.loads(text)
    try:
        system = [
            (int(c["v"]), [(int(co), tuple(vs)) for co, vs in c["monomials"]])
            for c in doc["system"]
        ]
        return make_instance(int(doc["n"]), int(doc["p"]), system)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
