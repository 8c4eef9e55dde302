"""Closed-form bounds on the degree-m Davenport and zero-e_m EGZ constants.

bound_calculator evaluates each known bound with its hypotheses
machine-checked, never asserting exactness beyond what its formula claims.
Every entry states its inequality in its detail string; a violated
hypothesis downgrades the result to a warning rather than an error, so
out-of-scope instances still print with a flag. These calculators are the
one home of every bound formula: the search takes its automatic caps from
them and the fixture suite checks computed values against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from . import numtheory

# --- group-structure helpers ------------------------------------------------


def invariant_factors(moduli: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors n_1 | n_2 | ... | n_r of the product of Z_n groups."""
    buckets: dict[int, list[int]] = {}
    for n in moduli:
        for p, e in numtheory.prime_factorization(n):
            buckets.setdefault(p, []).append(e)
    if not buckets:
        return ()
    for exps in buckets.values():
        exps.sort(reverse=True)
    rank = max(len(exps) for exps in buckets.values())
    rows = []
    for i in range(rank):
        f = 1
        for p, exps in buckets.items():
            if i < len(exps):
                f *= p ** exps[i]
        rows.append(f)
    return tuple(reversed(rows))


def d_star(moduli: Iterable[int]) -> int:
    """Sum of (n_i - 1) over the invariant factors."""
    return sum(f - 1 for f in invariant_factors(moduli))


def group_rank(moduli: Iterable[int]) -> int:
    return len(invariant_factors(moduli))


def is_p_group(moduli: Iterable[int]) -> bool:
    primes = set()
    for n in moduli:
        pp = numtheory.prime_power(n)
        if pp is None:
            return False
        primes.add(pp[0])
    return len(primes) == 1


# --- bound calculator -------------------------------------------------------


@dataclass(frozen=True)
class BoundResult:
    theorem_id: str
    kind: str  # "upper" | "lower" | "exact" | "conjecture"
    value: int
    hypotheses_ok: bool
    warnings: tuple[str, ...]
    detail: str


def _result(tid, kind, value, detail, failed_hyps=(), warnings=()):
    warns = tuple(warnings) + tuple(f"hypothesis fails: {h}" for h in failed_hyps)
    return BoundResult(tid, kind, value, not failed_hyps, warns, detail)


def _calc_egz_general_upper(k: int, m: int, t: int) -> BoundResult:
    failed = [] if numtheory.is_feasible_length(k, m, t) else [f"{t} in S({k},{m})"]
    return _result(
        "egz-general-upper", "upper", k * (t - 1) - m + 2,
        f"E({t}, Z_{k}, {m}) <= k(t-1)-m+2, valid for t in S(k, m)", failed,
    )


def _calc_egz_low_lower(k: int, m: int, t: int) -> BoundResult:
    failed = [] if numtheory.is_feasible_length(k, m, t) else [f"{t} in S({k},{m})"]
    return _result(
        "egz-low-lower", "lower", t + numtheory.lconst(k, m) - m,
        f"E({t}, Z_{k}, {m}) >= t + L(k, m) - m, valid for t in S(k, m)", failed,
    )


def _calc_dav_low_lower(n: int, m: int) -> BoundResult:
    return _result(
        "dav-low-lower", "lower", numtheory.lconst(n, m),
        f"D_{m}(Z_{n}) >= L({n}, {m}): the all-ones sequence of length "
        "L-1 has no zero-e_m subsequence",
    )


def _calc_egz_vs_davenport_lower(t: int, m: int, dav: int) -> BoundResult:
    failed = [] if t >= m >= 1 else ["t >= m >= 1"]
    return _result(
        "egz-vs-davenport-lower", "lower", t + dav - m,
        f"E({t}, G, {m}) >= t + D_{m}(G) - m = {t} + {dav} - {m}: pad a "
        "maximal Davenport counterexample with zeros", failed,
    )


def _calc_low_primepower(p: int, s: int, u: int) -> BoundResult:
    failed = [] if numtheory.is_prime(p) else [f"{p} prime"]
    if s < 1 or u < 0:
        failed.append("s >= 1 and u >= 0")
    return _result(
        "low-primepower", "exact", p ** (s + u),
        f"L({p}^{s}, {p}^{u}) = {p}^{s + u}", failed,
    )


def _calc_dav_degree2_upper(k: int, r: int) -> BoundResult:
    failed = []
    if k % 2 == 0:
        failed.append(f"{k} odd")
    if not (k % r == 0 and (r * r) % k == 0):
        failed.append(f"r | k | r^2 with r={r}, k={k}")
    return _result(
        "dav-degree2-upper", "upper", k + r,
        f"D_2(Z_{k}) <= k + r for odd k with r | k | r^2", failed,
    )


def _calc_egz_odd_square_upper(k: int, r: int, ell: int) -> BoundResult:
    failed = []
    if k % 2 == 0:
        failed.append(f"{k} odd")
    if ell < 1:
        failed.append("ell >= 1")
    if not (k % r == 0 and (r * r) % k == 0):
        failed.append(f"r | k | r^2 with r={r}, k={k}")
    return _result(
        "egz-odd-square-upper", "upper", (ell + 1) * k + 2 * r - 3,
        f"E({ell * k}, Z_{k}, 2) <= (ell+1)k + 2r - 3 for odd k with r | k | r^2",
        failed,
    )


def _calc_egz_odd_prime_2_lower(p: int) -> BoundResult:
    failed = [] if numtheory.is_prime(p) and p % 2 == 1 else [f"{p} an odd prime"]
    if p % 4 == 3:
        value, case = 2 * p, "p = 3 mod 4"
    else:
        value, case = 2 * p - 1, "p = 1 mod 4"
    return _result(
        "egz-odd-prime-2-lower", "lower", value,
        f"E({p}, Z_{p}, 2) >= {value} ({case})", failed,
    )


def _calc_egz_m3_upper(k: int) -> BoundResult:
    failed = [] if math.gcd(k, 3) == 1 else [f"gcd({k}, 3) = 1"]
    return _result(
        "egz-m3-upper", "upper", 4 * k - 3,
        f"E({k}, Z_{k}, 3) <= 4k - 3 when gcd(k, 3) = 1 (via the rank-2 "
        "zero-sum constant and the dominating set {{p_1, p_3}})", failed,
    )


def _calc_egz_qq3_lower(q: int) -> BoundResult:
    failed = [] if numtheory.prime_power(q) else [f"{q} a prime power"]
    return _result(
        "egz-qq3-lower", "lower", 2 * q - 3,
        f"E({q}, Z_{q}, 3) >= 2q - 3 for prime powers q", failed,
    )


def _calc_egz_z2_exact(t: int, m: int) -> BoundResult:
    failed = [] if numtheory.is_feasible_length(2, m, t) else [f"{t} in S(2,{m})"]
    nu = m & -m
    return _result(
        "egz-z2-exact", "exact", t + nu,
        f"E({t}, Z_2, {m}) = t + 2^nu2(m) = t + D_{m}(Z_2) - m for t in S(2, m)",
        failed,
    )


def _calc_dav_z2_exact(m: int) -> BoundResult:
    failed = [] if m >= 1 else ["m >= 1"]
    return _result(
        "dav-z2-exact", "exact", m + (m & -m),
        f"D_{m}(Z_2) = m + 2^nu2(m)", failed,
    )


def _calc_egz_primepower_upper(p: int, r: int, s: int, m: int) -> BoundResult:
    failed = []
    if not numtheory.is_prime(p):
        failed.append(f"{p} prime")
    if r < s or s < 1:
        failed.append(f"r >= s >= 1 with r={r}, s={s}")
    if p ** r <= m * (p ** s - 1):
        failed.append(f"p^r > m(p^s - 1): {p ** r} > {m * (p ** s - 1)}")
    return _result(
        "egz-primepower-upper", "upper", p ** r + m * p ** s - m,
        f"E({p ** r}, Z_{p ** s}, {m}) <= p^r + m p^s - m", failed,
    )


def _calc_egz_primepower_lower(p: int, s: int, u: int, t: int) -> BoundResult:
    failed = []
    if not numtheory.is_prime(p):
        failed.append(f"{p} prime")
    if not numtheory.is_feasible_length(p ** s, p ** u, t):
        failed.append(f"{t} in S({p ** s},{p ** u})")
    return _result(
        "egz-primepower-lower", "lower", t + p ** (s + u) - p ** u,
        f"E({t}, Z_{p ** s}, {p ** u}) >= t + p^(s+u) - p^u", failed,
    )


def _calc_egz_primepower_exact(p: int, r: int, s: int, u: int) -> BoundResult:
    failed = []
    if not numtheory.is_prime(p):
        failed.append(f"{p} prime")
    if not (s >= 1 and u >= 1 and r >= s + u):
        failed.append(f"r >= s + u with s, u >= 1 (r={r}, s={s}, u={u})")
    return _result(
        "egz-primepower-exact", "exact", p ** r + p ** (s + u) - p ** u,
        f"E({p ** r}, Z_{p ** s}, {p ** u}) = p^r + p^(s+u) - p^u", failed,
    )


def _pgroup_sum(p: int, alphas: tuple[int, ...]) -> int:
    return sum(p ** a - 1 for a in alphas)


def _calc_egz_p_group_upper(p: int, alphas: tuple[int, ...], m: int) -> BoundResult:
    h = sum(alphas)
    d = _pgroup_sum(p, alphas)
    failed = []
    if not numtheory.is_prime(p):
        failed.append(f"{p} prime")
    if p ** h <= m * d:
        failed.append(f"p^h > m * sum(p^a_j - 1): {p ** h} > {m * d}")
    return _result(
        "egz-p-group-upper", "upper", p ** h + m * d,
        f"E(p^h, G, {m}) <= p^h + m * sum(p^a_j - 1) for the rank-{len(alphas)} "
        f"p-group with p={p}, exponents {list(alphas)} (h={h})", failed,
    )


def _calc_egz_p_group_lower(p: int, alphas: tuple[int, ...], s: int, t: int) -> BoundResult:
    d = _pgroup_sum(p, alphas)
    failed = [] if numtheory.is_prime(p) else [f"{p} prime"]
    return _result(
        "egz-p-group-lower", "lower", t + p ** s * d,
        f"E({t}, G, {p ** s}) >= t + p^s * sum(p^a_j - 1) for the p-group "
        f"with p={p}, exponents {list(alphas)}", failed,
    )


def _calc_egz_p_group_exact(p: int, alphas: tuple[int, ...], s: int) -> BoundResult:
    h = sum(alphas)
    d = _pgroup_sum(p, alphas)
    failed = []
    if not numtheory.is_prime(p):
        failed.append(f"{p} prime")
    if p ** h <= p ** s * d:
        failed.append(f"p^h > p^s * sum(p^a_j - 1): {p ** h} > {p ** s * d}")
    return _result(
        "egz-p-group-exact", "exact", p ** h + p ** s * d,
        f"E(p^h, G, p^s) = p^h + p^s * sum(p^a_j - 1) = p^h + D_(p^s)(G) - p^s "
        f"for the p-group with p={p}, exponents {list(alphas)}, s={s}", failed,
    )


def _calc_egz_p_group_linear_upper(p: int, alphas: tuple[int, ...], m: int) -> BoundResult:
    h = sum(alphas)
    d = _pgroup_sum(p, alphas)
    half = m // 2 + 1
    failed = []
    warnings = []
    if not numtheory.is_prime(p):
        failed.append(f"{p} prime")
    if p <= m:
        failed.append(f"p > m: {p} > {m}")
    if p ** h <= half * d:
        failed.append(f"p^h > (floor(m/2)+1) * sum(p^a_i - 1): {p ** h} > {half * d}")
    if len(alphas) >= 2:
        alt = p ** h + half * (sum(p ** a for a in alphas) - 1)
        warnings.append(
            "the budget term is read as sum(p^a_i - 1); the alternate reading "
            f"(sum p^a_i) - 1 gives {alt} instead (the readings agree at rank 1)"
        )
    return _result(
        "egz-p-group-linear-upper", "upper", p ** h + half * d,
        f"E(p^h, G, {m}) <= p^h + (floor(m/2)+1) * sum(p^a_i - 1) for the "
        f"p-group with p={p}, exponents {list(alphas)}, via power sums "
        "p_1..p_floor(m/2) and p_m", failed, warnings,
    )


def _calc_rank2_egz_exact(n1: int, n2: int) -> BoundResult:
    failed = [] if n1 >= 1 and n2 % n1 == 0 else [f"{n1} | {n2}"]
    return _result(
        "rank2-egz-exact", "exact", 2 * n1 + 2 * n2 - 3,
        f"E({n2}, Z_{n1} x Z_{n2}, 1) = 2 n1 + 2 n2 - 3 (Kemnitz-Reiher "
        "constant for rank-2 groups)", failed,
    )


def _calc_egz_classic_exact(k: int) -> BoundResult:
    failed = [] if k >= 1 else ["k >= 1"]
    return _result(
        "egz-classic-exact", "exact", 2 * k - 1,
        f"E({k}, Z_{k}, 1) = 2k - 1 (the classical zero-sum constant)", failed,
    )


def _calc_olson_davenport(moduli: tuple[int, ...]) -> BoundResult:
    inv = invariant_factors(moduli)
    failed = []
    if not (is_p_group(moduli) or len(inv) <= 2):
        failed.append("G is a p-group or has rank <= 2")
    return _result(
        "olson-davenport", "exact", 1 + d_star(moduli),
        f"D_1(G) = 1 + sum(n_i - 1) over invariant factors {list(inv)} "
        "(p-groups and rank <= 2)", failed,
    )


def _calc_gao_qq_conjecture(q: int, t: int) -> BoundResult:
    failed = []
    if not numtheory.prime_power(q):
        failed.append(f"{q} a prime power")
    if not numtheory.is_feasible_length(q, q, t):
        failed.append(f"{t} in S({q},{q})")
    return _result(
        "gao-qq-conjecture", "conjecture", t + q * q - q,
        f"open prediction: E({t}, Z_{q}, {q}) = t + q^2 - q; reported for "
        "comparison, never asserted", failed,
    )


_CALCULATORS: dict[str, Callable[..., BoundResult]] = {
    "egz-general-upper": _calc_egz_general_upper,
    "egz-low-lower": _calc_egz_low_lower,
    "dav-low-lower": _calc_dav_low_lower,
    "egz-vs-davenport-lower": _calc_egz_vs_davenport_lower,
    "low-primepower": _calc_low_primepower,
    "dav-degree2-upper": _calc_dav_degree2_upper,
    "egz-odd-square-upper": _calc_egz_odd_square_upper,
    "egz-odd-prime-2-lower": _calc_egz_odd_prime_2_lower,
    "egz-m3-upper": _calc_egz_m3_upper,
    "egz-qq3-lower": _calc_egz_qq3_lower,
    "egz-z2-exact": _calc_egz_z2_exact,
    "dav-z2-exact": _calc_dav_z2_exact,
    "egz-primepower-upper": _calc_egz_primepower_upper,
    "egz-primepower-lower": _calc_egz_primepower_lower,
    "egz-primepower-exact": _calc_egz_primepower_exact,
    "egz-p-group-upper": _calc_egz_p_group_upper,
    "egz-p-group-lower": _calc_egz_p_group_lower,
    "egz-p-group-exact": _calc_egz_p_group_exact,
    "egz-p-group-linear-upper": _calc_egz_p_group_linear_upper,
    "rank2-egz-exact": _calc_rank2_egz_exact,
    "egz-classic-exact": _calc_egz_classic_exact,
    "olson-davenport": _calc_olson_davenport,
    "gao-qq-conjecture": _calc_gao_qq_conjecture,
}


def bound_calculator(theorem_id: str, **params) -> BoundResult:
    """Evaluate a closed-form bound with its hypotheses machine-checked.

    A failed hypothesis is reported via hypotheses_ok=False and a warning;
    the formula value is still returned. Unknown ids raise ValueError.
    """
    try:
        fn = _CALCULATORS[theorem_id]
    except KeyError:
        known = ", ".join(sorted(_CALCULATORS))
        raise ValueError(f"unknown theorem id {theorem_id!r}; known: {known}") from None
    return fn(**params)


def calculator_ids() -> tuple[str, ...]:
    return tuple(sorted(_CALCULATORS))
