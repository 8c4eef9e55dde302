"""Binomial arithmetic modulo integers and the divisibility thresholds on it.

Everything here is exact integer arithmetic at desk scale. Primality is
deterministic trial division. Binomial residues are computed two ways: the
big-integer route (math.comb) is the oracle, and the scalable route works
prime power by prime power, combining a carry-count valuation with an explicit
unit part and gluing the results with the CRT. The two routes are
cross-checked in debug builds.
"""

from __future__ import annotations

import math
from functools import lru_cache

LCONST_CAP = 1 << 20


class CapExceededError(RuntimeError):
    """Raised when a bounded scan exhausts its cap without an answer."""


def is_int(x: object) -> bool:
    """True for an int that is not a bool: JSON true and false load as
    bools, which Python counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """Sorted list of (prime, exponent) pairs with product n. Requires n >= 1."""
    if n < 1:
        raise ValueError("factorization needs n >= 1")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 2 if f % 6 == 5 else 4
    if n > 1:
        out.append((n, 1))
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, e) with n = p^e if n is a prime power, else None."""
    if n < 2:
        return None
    fac = prime_factorization(n)
    if len(fac) == 1:
        return fac[0]
    return None


def padic_valuation(p: int, n: int) -> int:
    """Largest v with p^v dividing n. n = 0 is rejected."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def kummer_valuation(p: int, n: int, m: int) -> int:
    """v_p(C(n, m)) as the number of carries adding m and n-m in base p."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    a, b = m, n - m
    carries = 0
    carry = 0
    while a or b or carry:
        carry = 1 if (a % p) + (b % p) + carry >= p else 0
        carries += carry
        a //= p
        b //= p
    return carries


def _binom_mod_prime_power(n: int, m: int, p: int, e: int) -> int:
    # Valuation plus unit part of C(n, m) = prod (n-m+i)/i, stripping all
    # p-factors and tracking the p-free parts mod p^e. The denominator's
    # p-free part is coprime to p, so it has an inverse mod p^e.
    pe = p ** e
    m = min(m, n - m)
    val = 0
    num_u = 1
    den_u = 1
    for i in range(1, m + 1):
        x = n - m + i
        while x % p == 0:
            x //= p
            val += 1
        num_u = num_u * (x % pe) % pe
        y = i
        while y % p == 0:
            y //= p
            val -= 1
        den_u = den_u * (y % pe) % pe
    if __debug__:
        assert val == kummer_valuation(p, n, m)
    if val >= e:
        return 0
    unit = num_u * pow(den_u, -1, pe) % pe
    return p ** val * unit % pe


def binom_mod(ell: int, m: int, k: int) -> int:
    """C(ell, m) mod k via per-prime-power residues glued with the CRT."""
    if k < 1:
        raise ValueError("modulus must be >= 1")
    if not 0 <= m <= ell:
        raise ValueError(f"need 0 <= m <= ell, got m={m}, ell={ell}")
    if k == 1:
        return 0
    r, mod = 0, 1
    for p, e in prime_factorization(k):
        pe = p ** e
        rp = _binom_mod_prime_power(ell, m, p, e)
        # CRT merge of (r mod mod) and (rp mod pe); moduli are coprime.
        t = (rp - r) * pow(mod, -1, pe) % pe
        r = r + mod * t
        mod *= pe
    if __debug__ and ell <= 4096:
        assert r == math.comb(ell, m) % k
    return r


def divides_binomial(k: int, ell: int, m: int) -> bool:
    """Whether k divides C(ell, m), decided by carry counts per prime power."""
    if k < 1:
        raise ValueError("modulus must be >= 1")
    if not 0 <= m <= ell:
        raise ValueError(f"need 0 <= m <= ell, got m={m}, ell={ell}")
    return all(kummer_valuation(p, ell, m) >= e for p, e in prime_factorization(k))


@lru_cache(maxsize=None)
def lconst(n: int, m: int, cap: int = LCONST_CAP) -> int:
    """Least ell >= m+1 with n dividing C(ell, m).

    Scans upward using carry-count divisibility; raises CapExceededError if no
    such ell is found by the cap.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    fac = prime_factorization(n)
    ell = m + 1
    while ell <= cap:
        if all(kummer_valuation(p, ell, m) >= e for p, e in fac):
            return ell
        ell += 1
    raise CapExceededError(f"no ell <= {cap} with {n} | C(ell, {m})")


def is_feasible_length(k: int, m: int, t: int) -> bool:
    """Whether t belongs to S(k, m), i.e. t >= m and k | C(t, m)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    return t >= m and divides_binomial(k, t, m)


def feasible_lengths(k: int, m: int, cap: int) -> list[int]:
    """All members of S(k, m) up to and including cap, ascending."""
    return [t for t in range(m, cap + 1) if is_feasible_length(k, m, t)]


def interval_witness(m: int, i: int) -> int:
    """Some j in [i - 2^v2(m), i] with C(j, m) even, scanned ascending.

    Requires i >= m + 2^v2(m); such a j always exists in that interval.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    step = 1 << padic_valuation(2, m)
    if i < m + step:
        raise ValueError(f"need i >= {m + step}, got {i}")
    for j in range(i - step, i + 1):
        # C(j, m) is even iff adding m and j-m in base 2 carries, i.e. the
        # summands share a bit.
        if (j - m) & m:
            return j
    raise AssertionError(f"no even C(j, {m}) in [{i - step}, {i}]")
