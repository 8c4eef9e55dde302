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
at their low masks into a vector of length 2^L, and L passes of the
subset-sum (zeta) transform, a[x | 2^i] += a[x], turn it into P(h, x) for
every x of the chunk at once, in O(M + L*2^L) work for M monomials.

Each congruence runs in the narrowest unsigned dtype that holds both p^v
and the sum of its coefficients. That is exact: coefficients are
normalized into [0, p^v) and merged monomials have distinct supports, so
every value, and every partial sum along the transform, adds each
monomial's coefficient at most once: it stays within their sum and never
wraps, and no intermediate reduction mod p^v is needed. (p^v <= 2^32 and at most 2^30 monomials keep the sum below
2^62, so uint64 always suffices; p^v must fit too, so that the final
remainder is taken in the same dtype.) A pass over bit i adds blocks of
2^i contiguous entries, and small blocks are slow. So the passes over the
high half of the L bits run first; then one transposed copy of the chunk,
viewed as a 2^(L-k) x 2^k array with k = L // 2, moves the low k bits to
strides of at least 2^(L/2) for their passes. Every congruence of a chunk
ends in that same layout, and a chunk's solutions are only counted, so the
order inside a chunk changes no count and no early stop.
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
# Peak bytes per chunk point: the vector and its transposed copy in the
# congruence's dtype, plus the solution mask; tracemalloc at 22 measured 3 for
# a uint8 system and 17 for a uint64 one (71 MB).
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
    if not numtheory.is_int(n) or not 1 <= n <= MAX_VARS:
        raise ValueError(f"need an integer 1 <= n <= {MAX_VARS} variables, got {n!r}")
    # p^v <= 2^32 for every congruence; the bound also keeps trial division short
    if not numtheory.is_int(p) or not 2 <= p <= 1 << 32 or not numtheory.is_prime(p):
        raise ValueError(f"p must be a prime integer at most 2^32, got {p!r}")
    congruences = []
    for v, monomials in system:
        if not numtheory.is_int(v) or v < 1:
            raise ValueError(f"modulus exponent v must be an integer >= 1, got {v!r}")
        # v > 32 already puts p^v above 2^32, without computing a huge power
        if v > 32 or p ** v > 1 << 32:
            raise ValueError(f"modulus {p}^{v} is above 2^32")
        pv = p ** v
        merged: dict[tuple[int, ...], int] = {}
        for coeff, variables in monomials:
            if not numtheory.is_int(coeff):
                raise ValueError(f"coefficients must be integers, got {coeff!r}")
            vs = tuple(variables)
            if not all(numtheory.is_int(i) and 0 <= i < n for i in vs):
                raise ValueError(f"variable ids must be integers in [0, {n}), got {vs}")
            vs = tuple(sorted(set(vs)))
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
    one" verdict at s=2). Chunks run in vector-id order and stops are
    checked once per chunk, so early stops are deterministic.
    """
    if inst.n > MAX_VARS:
        raise ValueError(f"instance has {inst.n} > {MAX_VARS} variables")
    if stop_at is not None and stop_at < 1:
        raise ValueError(f"stop_at must be >= 1, got {stop_at}")
    if not 1 <= chunk_bits <= MAX_CHUNK_BITS:
        raise ValueError(f"chunk_bits must be >= 1 and <= {MAX_CHUNK_BITS}, got {chunk_bits}")
    low_bits = min(chunk_bits, inst.n)
    size = 1 << low_bits
    split = low_bits // 2
    plans = []
    for cong in inst.system:
        pv = inst.p ** cong.v
        coeffs = [c for c, _ in cong.monomials]
        dtype = np.min_scalar_type(max(pv, sum(coeffs)))
        masks = np.array(
            [sum(1 << i for i in vs) for _, vs in cong.monomials], dtype=np.int64
        )
        plans.append((masks & (size - 1), masks >> low_bits,
                      np.array(coeffs, dtype=dtype), dtype.type(pv)))
    found = 0
    for h in range(1 << (inst.n - low_bits)):
        good = np.ones(size, dtype=bool)
        for low, high, coeffs, pv in plans:
            live = (high & ~h) == 0
            acc = np.zeros(size, dtype=coeffs.dtype)
            np.add.at(acc, low[live], coeffs[live])
            for i in range(split, low_bits):
                _zeta_pass(acc, i)
            # bit i < split of a vector id moves to bit i + low_bits - split
            acc = np.ascontiguousarray(acc.reshape(-1, 1 << split).T).reshape(size)
            for i in range(low_bits - split, low_bits):
                _zeta_pass(acc, i)
            np.remainder(acc, pv, out=acc)
            good &= acc == 0
            if not good.any():
                break
        found += int(good.sum())
        if stop_at is not None and found >= stop_at:
            return BrinkReport(None, stop_at, inst.degree_condition, inst.weight)
    return BrinkReport(found, found, inst.degree_condition, inst.weight)


def _zeta_pass(acc: np.ndarray, i: int) -> None:
    """a[x | 2^i] += a[x] for every x without bit i, in place."""
    a = acc.reshape(-1, 2, 1 << i)
    a[:, 1] += a[:, 0]


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
            (c["v"], [(co, tuple(vs)) for co, vs in c["monomials"]])
            for c in doc["system"]
        ]
        return make_instance(doc["n"], doc["p"], system)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance document: {exc}") from exc
