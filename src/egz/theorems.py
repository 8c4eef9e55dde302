"""The fixture suite: every desk-scale value re-derived by certified search.

Fixtures check computed constants against the bound calculators in bounds,
and each inequality on grids of exactly computed constants. They are pure
functions split into a fast tier (default, about 1.2 s in all) and a slow
tier (exhaustive closures, about 1.4 s; both take about 2.2 s, in one
fresh process on a 2-core Intel Xeon). Most fixtures are rows of a table with one
runner per table: value grids (_VALUE_GRIDS), single closures with an
optional extra check (_CLOSURES), strictness pairs (_STRICT_PAIRS) and
calculator spot values (_SPOT_VALUES). The rest are hand-written because
their computed, expected or detail strings have a shape of their own.
Informational fixtures (asserting=False) report comparisons, e.g. against
the open t + q^2 - q prediction, and cannot fail the suite.

Computed constants come from search's cached searches (computed_egz and
computed_dav make the ring and ask search), so fixtures and acceptance
checks that share a (kind, ring, m, t) share one BFS, whatever the caps.
"""

from __future__ import annotations

import math
import operator
import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from . import brink, numtheory, search, symfun
from .bounds import bound_calculator, invariant_factors
from .multiset import MultisetSeq
from .rings import make_ring
from .search import EgzOutcome

# --- computed constants ----------------------------------------------------


def computed_egz(
    moduli: tuple[int, ...], m: int, t: int, cap: int | None = None
) -> EgzOutcome:
    return search.egz_constant(make_ring(moduli), m, t, cap=cap)


def computed_dav(moduli: tuple[int, ...], m: int, cap: int) -> EgzOutcome:
    return search.davenport_m(make_ring(moduli), m, cap)


def describe(outcome: EgzOutcome) -> str:
    if outcome.kind == search.OUTCOME_INFINITE:
        return "Infinite"
    label = "Exact" if outcome.kind == search.OUTCOME_EXACT else "AtLeast"
    return f"{label} {outcome.value}"


# --- fixtures ---------------------------------------------------------------


@dataclass(frozen=True)
class FixtureResult:
    ok: bool
    computed: str
    expected: str
    detail: str = ""


@dataclass(frozen=True)
class Fixture:
    id: str
    claim: str  # ExactValue | LowerBound | UpperBound | Formula
    tier: str  # fast | slow
    statement: str
    runtime_hint: str
    asserting: bool
    run: Callable[[], FixtureResult]


_REGISTRY: list[Fixture] = []


def _fixture(fid, claim, tier, statement, runtime_hint="seconds", asserting=True):
    def deco(fn):
        _REGISTRY.append(Fixture(fid, claim, tier, statement, runtime_hint, asserting, fn))
        return fn

    return deco


def _grid_result(bad: list[str], total: int, expected: str) -> FixtureResult:
    if bad:
        shown = "; ".join(bad[:4]) + ("; ..." if len(bad) > 4 else "")
        return FixtureResult(False, f"{len(bad)}/{total} mismatches", expected, shown)
    return FixtureResult(True, f"all {total} match", expected)


def _register_rows(claim: str, runner: Callable[..., FixtureResult], rows) -> None:
    """One fixture per table row (id, *args, tier, runtime hint, statement),
    running runner(*args)."""
    for fid, *args, tier, hint, statement in rows:
        _fixture(fid, claim, tier, statement, hint)(partial(runner, *args))


def _closed(kind: str, moduli, m: int, t: int | None, cap: int | None) -> EgzOutcome:
    """E(t, G, m) for kind "E", D_m(G) for kind "D" (t is None)."""
    if kind == "D":
        return computed_dav(moduli, m, cap)
    return computed_egz(moduli, m, t, cap=cap)


@_fixture(
    "egz-3-3-2", "ExactValue", "fast",
    "E(3, Z_3, 2) = 6, closed by search, with the length-5 counterexample "
    "(0, 1, 1, 2, 2).",
    "milliseconds",
)
def _run_egz_3_3_2() -> FixtureResult:
    out = computed_egz((3,), 2, 3)
    witness_ok = out.witness.mult == (1, 2, 2)
    ok = out.kind == search.OUTCOME_EXACT and out.value == 6 and witness_ok
    return FixtureResult(
        ok, f"{describe(out)} witness {out.witness}", "Exact 6 witness 0^1 1^2 2^2"
    )


@_fixture(
    "egz-16-8-2-witness", "Formula", "fast",
    "The length-29 multiset over Z_8 with fourteen 0s and fifteen 1s has no "
    "sub-multiset of length 16 with e_2 = 0 mod 8.",
    "milliseconds",
)
def _run_egz_16_8_2_witness() -> FixtureResult:
    ring = make_ring((8,))
    mseq = MultisetSeq.from_counts(ring, {(0,): 14, (1,): 15})
    ok = search.is_counterexample_egz(mseq, 16, 2)
    return FixtureResult(ok, f"counterexample={ok}", "counterexample=True")


@_fixture(
    "egz-5-5-3-sandwich", "Formula", "fast",
    "E(5, Z_5, 3) computed exactly sits inside its closed-form sandwich: "
    ">= 5 + L(5,3) - 3 and >= 2*5 - 3, and <= 4*5 - 3 since gcd(5, 3) = 1.",
)
def _run_egz_5_5_3() -> FixtureResult:
    out = computed_egz((5,), 3, 5)
    lower = max(
        bound_calculator("egz-low-lower", k=5, m=3, t=5).value,
        bound_calculator("egz-qq3-lower", q=5).value,
    )
    upper = bound_calculator("egz-m3-upper", k=5).value
    ok = out.kind == search.OUTCOME_EXACT and lower <= out.value <= upper
    return FixtureResult(
        ok, describe(out), f"Exact in [{lower}, {upper}]",
        f"E(5, Z_5, 3) = {out.value}",
    )


@_fixture(
    "egz-q-q-3-lower", "LowerBound", "fast",
    "E(q, Z_q, 3) >= 2q - 3 for prime powers q in {3, 4, 5}: q = 3 is "
    "Infinite (3 does not divide C(3,3) = 1), q = 4 and q = 5 are closed "
    "by search.",
)
def _run_egz_qq3() -> FixtureResult:
    bad = []
    out3 = computed_egz((3,), 3, 3)
    if out3.kind != search.OUTCOME_INFINITE:
        bad.append(f"q=3: {describe(out3)} != Infinite")
    for q in (4, 5):
        out = computed_egz((q,), 3, q)
        low = bound_calculator("egz-qq3-lower", q=q).value
        if out.kind != search.OUTCOME_EXACT or out.value < low:
            bad.append(f"q={q}: {describe(out)} not exact >= {low}")
    return _grid_result(bad, 3, ">= 2q - 3 (q=3 Infinite)")


@_fixture(
    "newton-girard-recursion", "Formula", "fast",
    "The direct formula for the integer coefficients of m! * e_m as a "
    "power-sum polynomial agrees with the classical recursion "
    "m e_m = sum (-1)^(i-1) e_(m-i) p_i, for m <= 8.",
    "milliseconds",
)
def _run_newton_girard() -> FixtureResult:
    bad = []
    for m in range(1, 9):
        exp = symfun.newton_girard(m)
        fact = math.factorial(m)
        direct = {jvec: coeff for coeff, jvec in exp.terms}
        via_rec = {}
        for jvec, fr in symfun._expansion_by_recursion(m).items():
            scaled = fr * fact
            if scaled.denominator != 1:
                bad.append(f"m={m}: non-integer coefficient at {jvec}")
            elif scaled:
                via_rec[jvec] = int(scaled)
        if direct != via_rec:
            bad.append(f"m={m}: coefficient tables differ")
    return _grid_result(bad, 8, "direct == recursion")


@_fixture(
    "dominating-closed-form", "Formula", "fast",
    "The minimum dominating-set size t(m) for the power-sum expansion of "
    "e_m equals (m+2)/2 for even m and (m+1)/2 for odd m, for m <= 12; "
    "t(1), t(2), t(3) realize {p1}, {p1,p2}, {p1,p3}.",
    "milliseconds",
)
def _run_dominating() -> FixtureResult:
    bad = []
    for m in range(1, 13):
        ds = symfun.min_dominating_set(m)
        if ds.size != symfun.dominating_set_size_formula(m):
            bad.append(f"m={m}: size {ds.size}")
        std = symfun.standard_dominating_indices(m)
        supports = symfun.term_supports(symfun.newton_girard(m))
        if len(std) != ds.size or not all(set(std) & sup for sup in supports):
            bad.append(f"m={m}: standard set not minimum-dominating")
    for m, want in ((1, (1,)), (2, (1, 2)), (3, (1, 3))):
        if symfun.min_dominating_set(m).indices != want:
            bad.append(f"m={m}: indices != {want}")
    return _grid_result(bad, 15, "t(m) closed form")


@_fixture(
    "kummer-legendre-grid", "Formula", "fast",
    "The carry-count valuation of C(n, m) agrees with the Legendre "
    "digit-sum formula for p in {2, 3, 5} and all 0 <= m <= n <= 300.",
)
def _run_kummer_legendre() -> FixtureResult:
    bad = 0
    total = 0
    for p in (2, 3, 5):
        for n in range(1, 301):
            for m in range(n + 1):
                total += 1
                legendre = 0
                q = p
                while q <= n:
                    legendre += n // q - m // q - (n - m) // q
                    q *= p
                if numtheory.kummer_valuation(p, n, m) != legendre:
                    bad += 1
    if bad:
        return FixtureResult(False, f"{bad}/{total} mismatches", "0 mismatches")
    return FixtureResult(True, f"all {total} agree", "0 mismatches")


@_fixture(
    "lconst-primepower-grid", "Formula", "fast",
    "L(p^s, p^u) = p^(s+u) for p in {2, 3, 5}, s >= 1, u >= 0, s + u <= 6, "
    "by ascending scan of binomial divisibility.",
)
def _run_lconst_grid() -> FixtureResult:
    bad = []
    total = 0
    for p in (2, 3, 5):
        for s in range(1, 7):
            for u in range(0, 7 - s):
                total += 1
                got = numtheory.lconst(p ** s, p ** u)
                want = bound_calculator("low-primepower", p=p, s=s, u=u)
                if got != want.value or not want.hypotheses_ok:
                    bad.append(f"L({p}^{s},{p}^{u}) = {got}")
    return _grid_result(bad, total, "p^(s+u)")


# --- value grids ------------------------------------------------------------

# A grid query is (name, kind, moduli, m, t, cap, expected), with expected
# the BoundResult of the calculator that the search checks, or None for
# Infinite. Grids build their queries when they run, not at import.


def _run_value_grid(queries: Callable[[], list], expected_text: str) -> FixtureResult:
    bad = []
    rows = queries()
    for name, kind, moduli, m, t, cap, want in rows:
        out = _closed(kind, moduli, m, t, cap)
        if want is None:
            if out.kind != search.OUTCOME_INFINITE:
                bad.append(f"{name}: {describe(out)} != Infinite")
        elif not want.hypotheses_ok:
            bad.append(f"{name}: {'; '.join(want.warnings)}")
        elif out.kind != search.OUTCOME_EXACT or out.value != want.value:
            bad.append(f"{name}: {describe(out)} != {want.value}")
    return _grid_result(bad, len(rows), expected_text)


def _bound_rows(kind: str, theorem_id: str, rows) -> list:
    """One grid query per (name, moduli, m, t, params) row, searched under
    the cap theorem_id(**params) and expecting that value."""
    out = []
    for name, moduli, m, t, params in rows:
        want = bound_calculator(theorem_id, **params)
        out.append((name, kind, moduli, m, t, want.value, want))
    return out


def _egz_z2_queries() -> list:
    queries = []
    for m in range(1, 13):
        for t in range(m, 41):
            # the hypothesis t in S(2, m) fails exactly where E is Infinite
            want = bound_calculator("egz-z2-exact", t=t, m=m)
            want = want if want.hypotheses_ok else None
            queries.append((f"(t={t},m={m})", "E", (2,), m, t, None, want))
    return queries


def _olson_queries(groups) -> list:
    rows = ((f"{g}", g, 1, None, {"moduli": g}) for g in groups)
    return _bound_rows("D", "olson-davenport", rows)


# (id, queries, expected text, tier, runtime hint, statement)
_VALUE_GRIDS = (
    ("dav-z2-degree-grid",
     lambda: _bound_rows("D", "dav-z2-exact",
                         ((f"m={m}", (2,), m, None, {"m": m}) for m in range(1, 17))),
     "m + 2^nu2(m)", "fast", "milliseconds",
     "D_m(Z_2) = m + 2^nu2(m) for 1 <= m <= 16, each closed by exhaustive search."),
    ("egz-z2-grid", _egz_z2_queries, "t + 2^nu2(m) or Infinite", "fast", "seconds",
     "Over Z_2 with m <= 12, t <= 40: E(t, Z_2, m) = t + 2^nu2(m) when "
     "2 | C(t, m), and Infinite otherwise; every finite case closed by search."),
    ("egz-k-k-1-classic",
     lambda: _bound_rows("E", "egz-classic-exact",
                         ((f"k={k}", (k,), 1, k, {"k": k}) for k in range(2, 9))),
     "2k - 1", "fast", "seconds",
     "E(k, Z_k, 1) = 2k - 1 for 2 <= k <= 8, each closed by search."),
    ("egz-3a-3-3-grid",
     lambda: _bound_rows("E", "egz-primepower-upper", (
         (f"alpha={a}", (3,), 3, 3 ** a, dict(p=3, r=a, s=1, m=3)) for a in (3, 4, 5))),
     "3^alpha + 6", "fast", "milliseconds",
     "E(3^alpha, Z_3, 3) = 3^alpha + 6 for alpha = 3, 4, 5 (Example 2 of the "
     "abstract): the search attains the bound."),
    ("dav-olson-small",
     partial(_olson_queries, (
         (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,), (12,),
         (13,), (14,), (15,), (16,),
         (2, 2), (2, 4), (2, 8), (4, 4), (3, 3), (2, 6), (2, 2, 3),
         (2, 2, 2), (2, 2, 4), (2, 2, 2, 2),
     )),
     "1 + sum(n_i - 1)", "fast", "seconds",
     "D_1(G) = 1 + sum(n_i - 1) over invariant factors, for p-groups and "
     "rank <= 2 groups of cardinality <= 16, closed by search."),
    ("dav-olson-large",
     partial(_olson_queries, ((17,), (19,), (23,), (25,), (27,), (3, 9), (5, 5))),
     "1 + sum(n_i - 1)", "slow", "seconds",
     "D_1(G) = 1 + sum(n_i - 1) for p-groups and rank <= 2 groups of "
     "cardinality 17..27, closed by search."),
    ("rank2-reiher-search",
     lambda: _bound_rows("E", "rank2-egz-exact", (
         (f"({a},{b})", (a, b), 1, b, {"n1": a, "n2": b}) for a, b in ((2, 2), (2, 4), (3, 3))
     )),
     "2 n1 + 2 n2 - 3", "fast", "seconds",
     "E(n2, Z_n1 x Z_n2, 1) = 2 n1 + 2 n2 - 3 re-derived by search for "
     "(n1, n2) in {(2,2), (2,4), (3,3)}."),
)

_register_rows("ExactValue", _run_value_grid, _VALUE_GRIDS)


# --- the inequality sweep ---------------------------------------------------

# (moduli, m, t-list, davenport cap, explicit EGZ cap or None for auto)
_SWEEP_FAST: tuple = (
    ((2,), 1, (2, 3, 4), 6, None),
    ((2,), 2, (4, 5, 8), 8, None),
    ((2,), 3, (4, 5, 6), 8, None),
    ((3,), 1, (3, 4, 5), 8, None),
    ((3,), 2, (3, 4, 6), 10, None),
    ((4,), 1, (4, 5), 8, None),
    ((4,), 2, (8, 9), 12, None),
    ((4,), 3, (4, 6), 12, None),
    ((5,), 1, (5, 6), 10, None),
    ((5,), 2, (5, 6), 12, None),
    ((5,), 3, (5,), 12, None),
    ((6,), 1, (6, 7), 10, None),
    ((6,), 2, (4,), 10, None),
    ((2, 2), 1, (4,), 8, 8),
    ((2, 2), 2, (4,), 10, 12),
    ((2, 2), 3, (4,), 10, 12),
    ((2, 4), 1, (4,), 10, 9),
)

_SWEEP_SLOW: tuple = (
    ((9,), 2, (9,), 12, None),
    ((6,), 6, (10,), 13, None),
    ((8,), 2, (16,), 16, None),
    ((5,), 5, (25,), 25, None),
    ((3,), 3, (9,), 9, None),
    ((2, 2, 2), 2, (8,), 8, None),
)


def _run_sweep(rows, min_pairs: int) -> FixtureResult:
    bad: list[str] = []
    pairs = 0
    skipped = 0
    for moduli, m, ts, dav_cap, egz_cap in rows:
        ring = make_ring(moduli)
        dav_out = computed_dav(moduli, m, dav_cap)
        dav_exact = dav_out.value if dav_out.kind == search.OUTCOME_EXACT else None
        if dav_exact is not None and ring.rank == 1:
            low = bound_calculator("dav-low-lower", n=ring.exponent, m=m).value
            if dav_exact < low:
                bad.append(f"D_{m}({moduli}) = {dav_exact} < L = {low}")
        for t in ts:
            out = computed_egz(moduli, m, t, cap=egz_cap)
            if out.kind == search.OUTCOME_INFINITE:
                if numtheory.binom_mod(t, m, ring.exponent) == 0:
                    bad.append(f"E({t},{moduli},{m}) Infinite without obstruction")
                continue
            if out.kind != search.OUTCOME_EXACT:
                skipped += 1
                continue
            pairs += 1
            value = out.value
            if ring.rank == 1:
                k = moduli[0]
                upper = bound_calculator("egz-general-upper", k=k, m=m, t=t)
                lower = bound_calculator("egz-low-lower", k=k, m=m, t=t)
                if upper.hypotheses_ok:  # t in S(k, m), the hypothesis of both
                    if value > upper.value:
                        bad.append(f"E({t},Z_{k},{m}) = {value} > {upper.value}")
                    if value < lower.value:
                        bad.append(f"E({t},Z_{k},{m}) = {value} < L-bound {lower.value}")
            if dav_exact is not None:
                floor = bound_calculator("egz-vs-davenport-lower", t=t, m=m, dav=dav_exact)
                if value < floor.value:
                    bad.append(f"E({t},{moduli},{m}) = {value} < t + D - m = {floor.value}")
                padded = list(dav_out.witness.mult)
                padded[0] += t - m
                cx = MultisetSeq(ring, tuple(padded))
                if not search.is_counterexample_egz(cx, t, m):
                    bad.append(
                        f"padded Davenport witness is not an EGZ counterexample "
                        f"for (t={t}, {moduli}, m={m})"
                    )
    if bad:
        shown = "; ".join(bad[:4]) + ("; ..." if len(bad) > 4 else "")
        return FixtureResult(False, f"{len(bad)} violations", "0 violations", shown)
    if pairs < min_pairs:
        return FixtureResult(
            False, f"only {pairs} exact pairs", f">= {min_pairs} exact pairs",
            f"{skipped} skipped as not closed",
        )
    return FixtureResult(
        True, f"0 violations over {pairs} exact pairs", "0 violations",
        f"{skipped} non-closing pairs skipped",
    )


@_fixture(
    "sweep-egz-inequalities", "Formula", "fast",
    "On every exactly computed pair: E(t, G, m) >= t + D_m(G) - m, the "
    "zero-padded Davenport witness is an EGZ counterexample, and for cyclic "
    "Z_k with t in S(k, m): t + L(k,m) - m <= E <= k(t-1) - m + 2.",
)
def _run_sweep_fast() -> FixtureResult:
    return _run_sweep(_SWEEP_FAST, min_pairs=20)


@_fixture(
    "sweep-egz-inequalities-slow", "Formula", "slow",
    "The inequality sweep over the slow-tier exact values: E(9,Z_9,2), "
    "E(10,Z_6,6), E(16,Z_8,2), E(25,Z_5,5), E(9,Z_3,3), E(8,Z_2^3,2) "
    "against their exactly computed Davenport counterparts.",
    "minutes",
)
def _run_sweep_slow() -> FixtureResult:
    return _run_sweep(_SWEEP_SLOW, min_pairs=6)


@_fixture(
    "gao-qq-info-q2", "Formula", "fast",
    "Reported, not asserted: E(t, Z_q, q) versus the open prediction "
    "t + q^2 - q, at q = 2 for t in {4, 5, 8, 9}.",
    "milliseconds", asserting=False,
)
def _run_gao_q2() -> FixtureResult:
    lines = []
    agree = True
    for t in (4, 5, 8, 9):
        out = computed_egz((2,), 2, t)
        pred = bound_calculator("gao-qq-conjecture", q=2, t=t).value
        match = out.kind == search.OUTCOME_EXACT and out.value == pred
        agree = agree and match
        lines.append(f"t={t}: computed {describe(out)}, predicted {pred}")
    return FixtureResult(
        True, "agrees" if agree else "DISAGREES", "informational", "; ".join(lines)
    )


@_fixture(
    "gao-qq-info-q3", "Formula", "slow",
    "Reported, not asserted: E(t, Z_3, 3) versus the open prediction "
    "t + 6, at t in {9, 10}.",
    asserting=False,
)
def _run_gao_q3() -> FixtureResult:
    lines = []
    for t in (9, 10):
        out = computed_egz((3,), 3, t, cap=26)
        pred = bound_calculator("gao-qq-conjecture", q=3, t=t).value
        lines.append(f"t={t}: computed {describe(out)}, predicted {pred}")
    return FixtureResult(True, "reported", "informational", "; ".join(lines))


# --- calculator spot values -------------------------------------------------


def _run_spot_value(theorem_id: str, params: dict, expected: int) -> FixtureResult:
    res = bound_calculator(theorem_id, **params)
    ok = res.value == expected and res.hypotheses_ok
    return FixtureResult(
        ok, f"{res.value}, ok={res.hypotheses_ok}", f"{expected}, ok=True"
    )


# (id, calculator id, parameters, expected value with every hypothesis
# holding, tier, runtime hint, statement)
_SPOT_VALUES = (
    ("bound-egz-odd-square-9", "egz-odd-square-upper", {"k": 9, "r": 3, "ell": 1}, 21,
     "fast", "milliseconds",
     "The odd-k degree-2 upper bound at k = 9, r = 3, ell = 1 evaluates to "
     "21 with hypotheses (9 odd, 3 | 9 | 9) holding."),
    ("bound-m3-upper-5", "egz-m3-upper", {"k": 5}, 17, "fast", "milliseconds",
     "The degree-3 upper bound at k = 5 evaluates to 4k - 3 = 17 with "
     "gcd(5, 3) = 1 holding."),
)

_register_rows("UpperBound", _run_spot_value, _SPOT_VALUES)


@_fixture(
    "bound-p-group-linear-49", "UpperBound", "fast",
    "The power-sum p-group bound at p = 7, exponents (1, 1), m = 2 "
    "evaluates to 49 + 2*12 = 73 with 49 > 24 holding, and carries the "
    "rank >= 2 alternate-reading warning (75). The exact value of "
    "E(49, Z_7 x Z_7, 2) is out of desk scale by design; only this "
    "hypothesis-checked bound and the inequality sweeps stand in for it.",
    "milliseconds",
)
def _run_bound_pgroup_linear() -> FixtureResult:
    res = bound_calculator("egz-p-group-linear-upper", p=7, alphas=(1, 1), m=2)
    ok = (
        res.value == 73
        and res.hypotheses_ok
        and any("75" in w for w in res.warnings)
    )
    return FixtureResult(
        ok, f"{res.value}, warnings={len(res.warnings)}", "73 with alternate-reading warning"
    )


@_fixture(
    "bound-primepower-exact-values", "Formula", "fast",
    "The same-prime exact formula p^r + p^(s+u) - p^u gives 15, 30, 45 at "
    "(p,r,s,u) = (3,2,1,1), (2,4,3,1), (5,2,1,1), hypotheses holding.",
    "milliseconds",
)
def _run_bound_primepower() -> FixtureResult:
    cases = (((3, 2, 1, 1), 15), ((2, 4, 3, 1), 30), ((5, 2, 1, 1), 45))
    bad = []
    for (p, r, s, u), want in cases:
        res = bound_calculator("egz-primepower-exact", p=p, r=r, s=s, u=u)
        if res.value != want or not res.hypotheses_ok:
            bad.append(f"(p={p},r={r},s={s},u={u}): {res.value}")
    return _grid_result(bad, 3, "15, 30, 45")


@_fixture(
    "bound-olson-formula", "Formula", "fast",
    "The 1 + d*(G) calculator agrees with invariant-factor arithmetic on "
    "mixed moduli lists, including non-normalized ones like (2, 2, 3).",
    "milliseconds",
)
def _run_bound_olson() -> FixtureResult:
    cases = (
        ((8,), 8), ((3, 9), 11), ((2, 2, 3), 7), ((2, 6), 7), ((5, 5), 9),
        ((2, 3, 5), 30),  # cyclic in disguise: invariant factor 30
    )
    bad = []
    for moduli, want in cases:
        res = bound_calculator("olson-davenport", moduli=moduli)
        if res.value != want:
            bad.append(f"{moduli}: {res.value} != {want}")
    ok_rank = invariant_factors((2, 2, 3)) == (2, 6)
    if not ok_rank:
        bad.append("invariant_factors((2,2,3)) != (2, 6)")
    return _grid_result(bad, 7, "1 + d*(G)")


# --- boolean-system fixtures ------------------------------------------------


def random_brink_instances(count: int = 200, seed: int = 20240214):
    """Deterministic random systems satisfying the degree condition,
    n <= 16 and p in {2, 3}, for the never-exactly-one property."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.choice((2, 3))
        n = rng.randint(4, 16)
        budget = n - 1
        system = []
        for _ in range(rng.randint(1, 3)):
            v = rng.randint(1, 3)
            weight_per_degree = p ** v - 1
            if weight_per_degree > budget:
                continue
            deg = rng.randint(1, min(3, budget // weight_per_degree))
            budget -= weight_per_degree * deg
            monomials = []
            for _ in range(rng.randint(1, 6)):
                d = rng.randint(1, deg) if rng.random() < 0.85 else 0
                vs = tuple(rng.sample(range(n), d))
                monomials.append((rng.randint(1, p ** v - 1), vs))
            system.append((v, monomials))
        if not system:
            continue
        inst = brink.make_instance(n, p, system)
        if inst.degree_condition:
            out.append(inst)
    return out


@_fixture(
    "brink-4-2-2", "Formula", "fast",
    "The 6-variable boolean system for E(4, Z_2, 2) (all-pairs e_2 mod 2, "
    "size mod 4) meets the degree condition 5 < 6 and has exactly 16 "
    "solutions, hence at least two.",
    "milliseconds",
)
def _run_brink_4() -> FixtureResult:
    inst = brink.egz_boolean_instance((1,) * 6, 2, 4, 2)
    full = brink.count_boolean_solutions(inst)
    early = brink.count_boolean_solutions(inst, stop_at=2)
    ok = (
        inst.degree_condition
        and inst.weight == 5
        and full.count == 16
        and early.count is None
        and early.at_least == 2
    )
    return FixtureResult(
        ok, f"weight={inst.weight}, count={full.count}, early>={early.at_least}",
        "weight=5, count=16, early>=2",
    )


@_fixture(
    "brink-random-grid", "Formula", "fast",
    "200 seeded random boolean congruence systems with n <= 16, p in "
    "{2, 3}, all satisfying the degree condition, never have exactly one "
    "solution.",
)
def _run_brink_random() -> FixtureResult:
    bad = []
    for i, inst in enumerate(random_brink_instances()):
        report = brink.count_boolean_solutions(inst)
        if report.count == 1:
            bad.append(f"instance {i} (n={inst.n}, p={inst.p})")
    return _grid_result(bad, 200, "solution count never exactly 1")


@_fixture(
    "brink-16-8-2-n30", "Formula", "slow",
    "The 30-variable system for E(16, Z_8, 2) on the sequence of sixteen "
    "1s and fourteen 0s meets the degree condition 29 < 30 and has a "
    "second solution besides the zero vector (early-stopped count >= 2).",
)
def _run_brink_30() -> FixtureResult:
    g = (1,) * 16 + (0,) * 14
    inst = brink.egz_boolean_instance(g, 8, 16, 2)
    report = brink.count_boolean_solutions(inst, stop_at=2)
    ok = inst.degree_condition and inst.weight == 29 and report.at_least >= 2
    return FixtureResult(
        ok, f"weight={inst.weight}, found >= {report.at_least}", "weight=29, found >= 2"
    )


# --- slow exact closures ----------------------------------------------------


def _run_closure(kind, moduli, m, t, cap, expected, extra) -> FixtureResult:
    out = _closed(kind, moduli, m, t, cap)
    ok = out.kind == search.OUTCOME_EXACT and out.value == expected
    detail = f"witness ({out.witness}) length {out.witness.length}"
    if ok and extra is not None:
        ok, extra_detail = extra(out)
        detail = f"{detail}; {extra_detail}"
    return FixtureResult(ok, describe(out), f"Exact {expected}", detail)


def _vs_bound(relation, detail: str, theorem_id: str, **params):
    """Extra check that relation(value, bound) holds for the closed-form bound
    theorem_id(**params) and that its hypotheses hold; the detail is
    detail.format(bound)."""

    def check(out: EgzOutcome):
        bound = bound_calculator(theorem_id, **params)
        ok = relation(out.value, bound.value) and bound.hypotheses_ok
        return ok, detail.format(bound.value)

    return check


def _check_8_222_2_gao_type(out: EgzOutcome):
    dav = computed_dav((2, 2, 2), 2, 8)
    floor = bound_calculator("egz-vs-davenport-lower", t=8, m=2, dav=8).value
    ok = dav.kind == search.OUTCOME_EXACT and dav.value == 8 and out.value == floor
    return ok, f"D_2(Z_2^3) = {describe(dav)}; equality 14 = 8 + D - 2"


def _check_z5_equality(out: EgzOutcome):
    egz_out = computed_egz((5,), 5, 25)
    floor = bound_calculator("egz-vs-davenport-lower", t=25, m=5, dav=out.value).value
    ok = egz_out.kind == search.OUTCOME_EXACT and egz_out.value == floor
    return ok, f"E(25, Z_5, 5) = {describe(egz_out)} = 25 + D - 5"


# (id, kind, moduli, m, t, cap, expected, extra, tier, runtime hint,
# statement): kind "E" closes E(t, G, m) under the auto cap, kind "D" closes
# D_m(G) under the given cap; extra(outcome) -> (ok, detail) runs only when
# the value matches.
_CLOSURES = (
    ("egz-9-9-2", "E", (9,), 2, 9, None, 17,
     _vs_bound(operator.le, "consistent with upper bound {}",
               "egz-odd-square-upper", k=9, r=3, ell=1),
     "slow", "seconds",
     "E(9, Z_9, 2) = 17, closed by search, and <= the degree-2 odd-k bound 21."),
    ("egz-10-6-6", "E", (6,), 6, 10, None, 19, None, "slow", "seconds",
     "E(10, Z_6, 6) = 19, closed by search."),
    ("egz-16-8-2", "E", (8,), 2, 16, None, 30,
     _vs_bound(operator.eq, "matches the same-prime formula value {} = 16 + 16 - 2",
               "egz-primepower-lower", p=2, s=3, u=1, t=16),
     "slow", "minutes",
     "E(16, Z_8, 2) = 30, closed by search under the hypothesis-checked cap "
     "30, matching the same-prime exact formula."),
    ("egz-25-5-5", "E", (5,), 5, 25, None, 45,
     _vs_bound(operator.eq, "sharp at t + L(5,5) - 5 = {}",
               "egz-low-lower", k=5, m=5, t=25),
     "slow", "minutes",
     "E(25, Z_5, 5) = 45, closed by search, sharp at the L-driven lower "
     "bound 25 + L(5,5) - 5."),
    ("egz-9-3-3", "E", (3,), 3, 9, None, 15, None, "slow", "seconds",
     "E(9, Z_3, 3) = 15, closed by search under the hypothesis-checked cap 15."),
    ("egz-8-222-2", "E", (2, 2, 2), 2, 8, None, 14, _check_8_222_2_gao_type,
     "slow", "seconds",
     "E(8, Z_2^3, 2) = 14, closed by search under the p-group cap 14, and "
     "equal to 8 + D_2(Z_2^3) - 2 with D_2(Z_2^3) = 8 also closed by search."),
    ("dav-2-z9", "D", (9,), 2, None, 12, 9,
     _vs_bound(operator.le, "within the closed-form upper bound {}",
               "dav-degree2-upper", k=9, r=3),
     "slow", "seconds",
     "D_2(Z_9) = 9, closed by search under cap 12 = the odd-k r | k | r^2 "
     "upper bound k + r."),
    ("dav-2-z3", "D", (3,), 2, None, 10, 5, None, "slow", "seconds",
     "D_2(Z_3) = 5, closed by search: the length-4 sequence (1, 1, 2, 2) "
     "has no sub-multiset of length >= 2 with e_2 = 0 mod 3."),
    ("dav-2-z8", "D", (8,), 2, None, 16, 16, None, "slow", "seconds",
     "D_2(Z_8) = 16 = L(8, 2), closed by search; with E(16, Z_8, 2) = 30 "
     "this is an equality case of E = t + D - m."),
    ("dav-3-z3", "D", (3,), 3, None, 9, 9, None, "slow", "seconds",
     "D_3(Z_3) = 9 = L(3, 3), closed by search."),
    ("dav-5-z5", "D", (5,), 5, None, 25, 25, _check_z5_equality, "slow", "seconds",
     "D_5(Z_5) = 25 = L(5, 5), closed by search, and E(25, Z_5, 5) = "
     "25 + D_5(Z_5) - 5 holds with equality."),
    ("dav-6-z6", "D", (6,), 6, None, 13, 13, None, "slow", "seconds",
     "D_6(Z_6) = 13, closed by search."),
)

_register_rows("ExactValue", _run_closure, _CLOSURES)


def _run_strict(moduli, m, t, egz_value, dav_cap, dav_value) -> FixtureResult:
    egz_out = computed_egz(moduli, m, t)
    dav_out = computed_dav(moduli, m, dav_cap)
    floor = bound_calculator("egz-vs-davenport-lower", t=t, m=m, dav=dav_value).value
    ok = (
        egz_out.kind == search.OUTCOME_EXACT
        and dav_out.kind == search.OUTCOME_EXACT
        and egz_out.value == egz_value
        and dav_out.value == dav_value
        and egz_out.value > floor
    )
    return FixtureResult(
        ok, f"E = {describe(egz_out)}, D = {describe(dav_out)}",
        f"E = {egz_value} > {floor} = {t} + D - {m}",
    )


# (id, moduli, m, t, E value, Davenport cap, D value, tier, runtime hint,
# statement): both constants closed by search, and E > t + D - m.
_STRICT_PAIRS = (
    ("egz-9-9-2-strict", (9,), 2, 9, 17, 12, 9, "slow", "seconds",
     "Strictness at (9, Z_9, 2): E = 17 exceeds 9 + D_2(Z_9) - 2 = 16, "
     "with both constants closed by search."),
    ("egz-10-6-6-strict", (6,), 6, 10, 19, 13, 13, "slow", "seconds",
     "Strictness at (10, Z_6, 6): E = 19 exceeds 10 + D_6(Z_6) - 6 = 17, "
     "with both constants closed by search."),
)

_register_rows("Formula", _run_strict, _STRICT_PAIRS)


@_fixture(
    "egz-p-p-2-mod4", "LowerBound", "slow",
    "E(p, Z_p, 2) respects the residue-split lower bound (2p - 1 for "
    "p = 1 mod 4, 2p for p = 3 mod 4) at p = 3, 5, 7, each value closed "
    "by search (p = 7 under the odd-square cap 25).",
    "minutes",
)
def _run_mod4() -> FixtureResult:
    bad = []
    values = {}
    for p, cap in ((3, None), (5, None), (7, 25)):
        out = computed_egz((p,), 2, p, cap=cap)
        lower = bound_calculator("egz-odd-prime-2-lower", p=p)
        values[p] = describe(out)
        if out.kind != search.OUTCOME_EXACT:
            bad.append(f"p={p}: {describe(out)} not exact")
        elif out.value < lower.value:
            bad.append(f"p={p}: {out.value} < {lower.value}")
    detail = ", ".join(f"E({p},Z_{p},2) = {v}" for p, v in values.items())
    if bad:
        return FixtureResult(False, "; ".join(bad), ">= residue-split bound", detail)
    return FixtureResult(True, "bounds hold", ">= residue-split bound", detail)


# --- suite runner -----------------------------------------------------------


def all_fixtures() -> tuple[Fixture, ...]:
    return tuple(sorted(_REGISTRY, key=lambda f: f.id))


@dataclass(frozen=True)
class FixtureOutcome:
    fixture_id: str
    tier: str
    asserting: bool
    status: str  # PASS | FAIL | INFO | TIMEOUT | ERROR
    seconds: float
    computed: str = ""
    expected: str = ""
    detail: str = ""


def _execute(fx: Fixture) -> tuple[str, str, str, str]:
    try:
        res = fx.run()
    except Exception as exc:  # surfaced per-fixture, never kills the suite
        return "ERROR", "", "", f"{type(exc).__name__}: {exc}"
    if not fx.asserting:
        return "INFO", res.computed, res.expected, res.detail
    return ("PASS" if res.ok else "FAIL"), res.computed, res.expected, res.detail


def _child_main(fx: Fixture, conn) -> None:
    status, computed, expected, detail = _execute(fx)
    conn.send((status, computed, expected, detail))
    conn.close()


def _select(tier: str, name_filter: str | None) -> list[Fixture]:
    if tier not in ("fast", "slow", "all"):
        raise ValueError(f"tier must be fast, slow, or all, got {tier!r}")
    chosen = [
        fx for fx in all_fixtures()
        if (tier == "all" or fx.tier == tier)
        and (name_filter is None or name_filter in fx.id)
    ]
    return chosen


def run_suite(
    tier: str = "fast",
    name_filter: str | None = None,
    jobs: int = 1,
    timeout: float | None = None,
) -> list[FixtureOutcome]:
    """Run the selected fixtures and return outcomes in fixture-id order.

    With jobs=1 and no timeout, fixtures run in-process (sharing the
    cached searches). Otherwise each fixture runs in its own forked
    process; one that exceeds the timeout is terminated and reported as
    TIMEOUT rather than a failure. Raises ValueError for jobs that is not
    an int >= 1, for a timeout that is not a finite number > 0 (a bool is
    neither), and for subprocess mode where the fork start method is
    missing (spawn cannot pickle the fixtures).
    """
    if not (numtheory.is_int(jobs) and jobs >= 1):
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
    if timeout is not None and not (
        (numtheory.is_int(timeout) or isinstance(timeout, float)) and 0 < timeout < math.inf
    ):
        raise ValueError(f"timeout must be a finite number of seconds > 0, got {timeout!r}")
    chosen = _select(tier, name_filter)
    outcomes: dict[str, FixtureOutcome] = {}

    def finish(fx: Fixture, status, seconds, computed="", expected="", detail=""):
        outcomes[fx.id] = FixtureOutcome(
            fx.id, fx.tier, fx.asserting, status, round(seconds, 3),
            computed, expected, detail,
        )

    if jobs == 1 and timeout is None:
        for fx in chosen:
            begin = time.monotonic()
            status, computed, expected, detail = _execute(fx)
            finish(fx, status, time.monotonic() - begin, computed, expected, detail)
        return [outcomes[fx.id] for fx in chosen]

    import multiprocessing  # here, not at the top: it costs every import egz several ms
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ValueError("jobs > 1 and a timeout need the fork start method")
    ctx = multiprocessing.get_context("fork")
    pending = list(chosen)
    running: list[tuple[Fixture, object, object, float]] = []
    while pending or running:
        while pending and len(running) < jobs:
            fx = pending.pop(0)
            parent, child = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child_main, args=(fx, child), daemon=True)
            proc.start()
            child.close()
            running.append((fx, proc, parent, time.monotonic()))
        time.sleep(0.02)
        still = []
        for fx, proc, parent, begin in running:
            elapsed = time.monotonic() - begin
            if parent.poll():
                status, computed, expected, detail = parent.recv()
                proc.join()
                finish(fx, status, elapsed, computed, expected, detail)
            elif not proc.is_alive():
                proc.join()
                finish(fx, "ERROR", elapsed, detail="worker died without a result")
            elif timeout is not None and elapsed > timeout:
                proc.terminate()
                proc.join()
                finish(fx, "TIMEOUT", elapsed, detail=f"exceeded {timeout:g}s")
            else:
                still.append((fx, proc, parent, begin))
        running = still
    return [outcomes[fx.id] for fx in chosen]


def summarize(outcomes: Iterable[FixtureOutcome]) -> dict[str, int]:
    counts = {"PASS": 0, "FAIL": 0, "INFO": 0, "TIMEOUT": 0, "ERROR": 0}
    for oc in outcomes:
        counts[oc.status] += 1
    return counts


def format_outcomes(outcomes: list[FixtureOutcome]) -> str:
    lines = []
    for oc in outcomes:
        head = f"{oc.status:<7} {oc.fixture_id:<28} {oc.seconds:>8.2f}s"
        tail = ""
        if oc.computed or oc.expected:
            tail = f"  computed: {oc.computed} | expected: {oc.expected}"
        lines.append(head + tail)
        if oc.detail:
            lines.append(f"        {oc.detail}")
    counts = summarize(outcomes)
    lines.append(
        f"{len(outcomes)} fixtures: {counts['PASS']} pass, "
        f"{counts['FAIL']} fail, {counts['ERROR']} error, "
        f"{counts['INFO']} info, {counts['TIMEOUT']} timeout"
    )
    return "\n".join(lines)
