"""Search engine: finders, frontier closure, caps, determinism."""

from __future__ import annotations

import gc
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egz import bounds, certificates, numtheory, rings, search
from egz.multiset import MultisetSeq, canonical_mult, orbit_perms
from egz.rings import (
    add,
    element_at,
    make_ring,
    mul,
    symmetry_index_perms,
    unit_index_perms,
)
from egz.search import (
    KIND_DAV,
    KIND_EGZ,
    MissingCapError,
    davenport_m,
    default_egz_cap,
    egz_constant,
    find_dav_zero_sub,
    find_egz_zero_sub,
    infinite_obstruction,
    is_counterexample_dav,
    is_counterexample_egz,
    max_counterexample_length,
)


@pytest.fixture
def fresh_kits():
    # new kits carry new caches of searches: a test that watches which step
    # ran must not be answered from searches that other tests left
    kits = search._kit  # a test may patch _kit
    kits.cache_clear()
    yield
    kits.cache_clear()


def test_find_egz_zero_sub_examples() -> None:
    ring = make_ring((3,))
    # 1+2 = 0 mod 3: the pair (1, 2) is a zero-e_1 sub of length 2
    m = MultisetSeq.from_counts(ring, {(1,): 1, (2,): 1, (0,): 1})
    hit = find_egz_zero_sub(m, 2, 1)
    assert hit is not None
    assert hit.length == 2
    assert not is_counterexample_egz(m, 2, 1)

    # all-zeros sequences always contain a zero sub
    ring8 = make_ring((8,))
    zeros = MultisetSeq.from_counts(ring8, {(0,): 16})
    sub = find_egz_zero_sub(zeros, 16, 2)
    assert sub is not None and sub.length == 16

    big = MultisetSeq.from_counts(ring8, {(0,): 14, (1,): 15})
    assert is_counterexample_egz(big, 16, 2)
    # one more 1 tips it over: C(15, 2) = 105, C(16, 2) = 120 = 0 mod 8
    bigger = MultisetSeq.from_counts(ring8, {(0,): 14, (1,): 16})
    assert not is_counterexample_egz(bigger, 16, 2)


def test_find_dav_zero_sub_examples() -> None:
    ring = make_ring((3,))
    good = MultisetSeq.from_counts(ring, {(1,): 2, (2,): 2})
    assert is_counterexample_dav(good, 2)  # D_2(Z_3) witness
    with_zero = MultisetSeq.from_counts(ring, {(0,): 1, (1,): 2, (2,): 2})
    hit = find_dav_zero_sub(with_zero, 2)
    assert hit is not None  # any sub containing 0 of length >= 2 works
    assert hit.length >= 2

    # shorter than m is vacuously a counterexample
    short = MultisetSeq.from_counts(ring, {(1,): 1})
    assert is_counterexample_dav(short, 2)


def test_worked_query_examples() -> None:
    ring3 = make_ring((3,))
    length, witness = max_counterexample_length(KIND_EGZ, ring3, 2, 10, t=3)
    assert (length, witness.mult) == (5, (1, 2, 2))

    ring2 = make_ring((2,))
    length, witness = max_counterexample_length(KIND_DAV, ring2, 2, 10)
    assert (length, witness.mult) == (3, (0, 3))

    length, witness = max_counterexample_length(KIND_EGZ, ring2, 2, 10, t=4)
    assert (length, witness.mult) == (5, (2, 3))


def _compositions(card, length):
    if card == 1:
        yield (length,)
        return
    for c in range(length + 1):
        for rest in _compositions(card - 1, length - c):
            yield (c,) + rest


def _all_canonical_multisets(ring, length):
    perms = orbit_perms(ring)
    return [c for c in _compositions(ring.cardinality, length) if canonical_mult(c, perms) == c]


def _em_by_subsets(ring, mult, m):
    seq = [element_at(ring, i) for i, c in enumerate(mult) for _ in range(c)]
    total = ring.zero
    for combo in itertools.combinations(seq, m):
        prod = ring.one
        for x in combo:
            prod = mul(ring, prod, x)
        total = add(ring, total, prod)
    return total


def _brute_zero_sub(ring, mult, m, size_ok):
    # sub-vectors in lex order: the first qualifying one is the lex-least
    for sub in itertools.product(*(range(c + 1) for c in mult)):
        if size_ok(sum(sub)) and _em_by_subsets(ring, sub, m) == ring.zero:
            return sub
    return None


_TESTER_RINGS = [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 4), (3, 3)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_testers_return_the_lex_least_zero_sub(data) -> None:
    # the support walk and its early returns keep the lex order of a plain
    # product over every position's counts, zero multiplicities included
    ring = make_ring(data.draw(st.sampled_from(_TESTER_RINGS)))
    card = ring.cardinality
    m = data.draw(st.integers(1, 3))
    mult = [0] * card
    mult[0] = data.draw(st.integers(0, 2))  # element 0 is the ring zero
    for i in data.draw(st.lists(st.integers(0, card - 1), max_size=6)):
        mult[i] += 1
    mseq = MultisetSeq(ring, tuple(mult))
    t = data.draw(st.integers(m, max(m, mseq.length) + 2))
    hit = find_egz_zero_sub(mseq, t, m)
    want = _brute_zero_sub(ring, mult, m, lambda n: n == t)
    assert (None if hit is None else hit.mult) == want
    hit = find_dav_zero_sub(mseq, m)
    want = _brute_zero_sub(ring, mult, m, lambda n: n >= m)
    assert (None if hit is None else hit.mult) == want


@pytest.mark.parametrize("moduli", _TESTER_RINGS)
def test_direct_walk_finds_the_first_counterexample_in_lex_order(moduli) -> None:
    # the walk's leaf is the first composition in lex order with no zero
    # sub-multiset of a counting size, and None when there is none
    ring = make_ring(moduli)
    tables = search._index_tables(ring)
    for m in (1, 2, 3):
        kinds = [(KIND_DAV, None, lambda n: n >= m)] + [
            (KIND_EGZ, t, lambda n, t=t: n == t) for t in (m, m + 1, m + 2)
        ]
        for kind, t, size_ok in kinds:
            for length in range(7):
                want = next(
                    (c for c in _compositions(ring.cardinality, length)
                     if _brute_zero_sub(ring, c, m, size_ok) is None),
                    None,
                )
                got = search._least_counterexample(
                    tables, ring.cardinality, kind, m, t, length
                )
                assert got == want, (kind, m, t, length)


@pytest.mark.parametrize("moduli", [(2,), (3,), (4,), (2, 2)])
def test_downward_closure_exhaustive(moduli) -> None:
    # every sub-multiset of a counterexample is a counterexample, verified
    # against the full testers on every canonical multiset
    ring = make_ring(moduli)
    for m in (1, 2, 3):
        params = [(KIND_DAV, None)] + [
            (KIND_EGZ, t) for t in range(m, m + 3)
        ]
        for kind, t in params:
            for length in range(1, 8):
                for mult in _all_canonical_multisets(ring, length):
                    mseq = MultisetSeq(ring, mult)
                    if kind == KIND_EGZ:
                        is_cx = is_counterexample_egz(mseq, t, m)
                    else:
                        is_cx = is_counterexample_dav(mseq, m)
                    if not is_cx:
                        continue
                    for i in range(ring.cardinality):
                        if mult[i] == 0:
                            continue
                        child = list(mult)
                        child[i] -= 1
                        sub = MultisetSeq(ring, tuple(child))
                        if kind == KIND_EGZ:
                            assert is_counterexample_egz(sub, t, m)
                        else:
                            assert is_counterexample_dav(sub, m)


@pytest.mark.parametrize(
    "moduli",
    [(2,), (3,), (4,), (2, 2), (2, 2, 2), (3, 3), (2, 4), (2, 2, 2, 2),
     (5,), (6,), (7,), (8,), (9,)],
)
def test_frontier_matches_direct(moduli) -> None:
    # the frontier reduces by symmetry_index_perms (GL_3(F_2) on Z_2^3 at
    # m = 1), the direct walk by nothing: same lengths and witnesses
    ring = make_ring(moduli)
    cap = 7
    for m in (1, 2, 3):
        for t in (m, m + 1, m + 2):
            frontier = max_counterexample_length(KIND_EGZ, ring, m, cap, t=t)
            direct = max_counterexample_length(
                KIND_EGZ, ring, m, cap, t=t, method="direct"
            )
            assert frontier == direct
        frontier = max_counterexample_length(KIND_DAV, ring, m, cap)
        direct = max_counterexample_length(KIND_DAV, ring, m, cap, method="direct")
        assert frontier == direct


@pytest.mark.parametrize(
    "kind, moduli, m, t, cap, sizes",
    [
        (KIND_EGZ, (9,), 2, 9, None, [3631, 4514, 3345, 1267, 348, 88, 27, 10]),
        (KIND_DAV, (5, 5), 1, None, 9, [1, 1, 3, 8, 28, 74, 107, 69, 18]),
        (KIND_DAV, (3, 9), 1, None, 11, [1, 3, 13, 49, 186, 534, 819, 513, 288, 127, 43]),
        (KIND_EGZ, (2, 2, 2), 2, 8, None, [1127, 1472, 1355, 933, 398, 110]),
    ],
    ids=["E9-Z9-2", "D1-Z5xZ5", "D1-Z3xZ9", "E8-Z2^3-2"],
)
def test_frontier_sizes_are_pinned(kind, moduli, m, t, cap, sizes) -> None:
    # classes per level (one per orbit of the search group), from the seed
    # level on: a change to the level step must keep the same orbits
    ring = make_ring(moduli)
    seen = []

    def progress(level, size):
        seen.append(size)

    if kind == KIND_EGZ:
        egz_constant(ring, m, t, cap=cap, progress=progress)
    else:
        davenport_m(ring, m, cap=cap, progress=progress)
    assert seen == sizes


_SYMMETRY_RINGS = [(2, 2), (2, 4), (3, 3), (4, 4), (2, 2, 2), (3, 9), (5, 5), (2, 2, 4)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_counterexample_status_is_invariant_under_the_search_group(data) -> None:
    ring = make_ring(data.draw(st.sampled_from(_SYMMETRY_RINGS)))
    m = data.draw(st.integers(1, 3))
    group = symmetry_index_perms(ring, m == 1)
    perm = data.draw(st.sampled_from(group))
    card = ring.cardinality
    support = data.draw(st.lists(st.integers(0, card - 1), min_size=1, max_size=4))
    counts = data.draw(st.lists(st.integers(1, 4), min_size=len(support), max_size=len(support)))
    mult = [0] * card
    for i, c in zip(support, counts):
        mult[i] += c
    mseq = MultisetSeq(ring, tuple(mult))
    image = MultisetSeq(ring, tuple(mult[perm[i]] for i in range(card)))
    assert is_counterexample_dav(image, m) == is_counterexample_dav(mseq, m)
    t = data.draw(st.integers(m, max(m, mseq.length)))
    assert is_counterexample_egz(image, t, m) == is_counterexample_egz(mseq, t, m)


def test_unit_orbit_soundness() -> None:
    # scaling a counterexample by a unit preserves counterexample-ness
    ring = make_ring((9,))
    out = egz_constant(ring, 2, 9)
    mult = out.witness.mult
    for perm in unit_index_perms(ring):
        image = tuple(mult[perm[i]] for i in range(9))
        assert is_counterexample_egz(MultisetSeq(ring, image), 9, 2)


def test_egz_exact_shape() -> None:
    out = egz_constant(make_ring((3,)), 2, 3)
    assert out.kind == search.OUTCOME_EXACT
    assert out.value == 6
    assert out.witness.mult == (1, 2, 2)
    assert out.witness.length == out.value - 1
    assert out.method == search.METHOD_FRONTIER
    assert out.cap_used == 6
    assert is_counterexample_egz(out.witness, 3, 2)


def test_egz_infinite_precheck() -> None:
    ring = make_ring((10,))
    out = egz_constant(ring, 2, 8)
    assert out.kind == search.OUTCOME_INFINITE
    assert out.value is None
    assert out.method == search.METHOD_PRECHECK
    assert out.witness.mult[ring.cardinality - 1] == 0  # not the vacuous shape
    assert out.witness.to_sequence() == [(1,)]
    assert infinite_obstruction(ring, 2, 8) == 8  # 28 mod 10
    assert infinite_obstruction(make_ring((3,)), 2, 3) is None


def test_egz_at_least_when_capped() -> None:
    ring = make_ring((9,))
    out = egz_constant(ring, 2, 9, cap=12)
    assert out.kind == search.OUTCOME_AT_LEAST
    assert out.value == 13  # the true constant is 17
    assert out.witness.length == 12
    assert out.cap_used == 12
    assert is_counterexample_egz(out.witness, 9, 2)


def test_cap_below_vacuous_length() -> None:
    ring = make_ring((3,))
    out = egz_constant(ring, 2, 3, cap=2)
    assert out.kind == search.OUTCOME_AT_LEAST
    assert out.value == 3
    assert out.witness.length == 2  # vacuous counterexample, shorter than t


def test_davenport_examples() -> None:
    out = davenport_m(make_ring((2,)), 2, 10)
    assert (out.kind, out.value) == (search.OUTCOME_EXACT, 4)
    assert out.witness.mult == (0, 3)

    out = davenport_m(make_ring((3,)), 2, 10)
    assert (out.kind, out.value) == (search.OUTCOME_EXACT, 5)
    assert out.witness.mult == (0, 2, 2)

    capped = davenport_m(make_ring((9,)), 2, 5)
    assert capped.kind == search.OUTCOME_AT_LEAST
    assert capped.value == 6
    assert capped.witness.length == 5


def test_default_egz_cap_values() -> None:
    assert default_egz_cap(make_ring((3,)), 2, 3) == 6
    assert default_egz_cap(make_ring((8,)), 2, 16) == 30
    assert default_egz_cap(make_ring((2, 2, 2)), 2, 8) == 14
    assert default_egz_cap(make_ring((9,)), 2, 9) == 72
    assert default_egz_cap(make_ring((7, 7)), 2, 49) == 73
    assert default_egz_cap(make_ring((10,)), 2, 8) is None
    assert default_egz_cap(make_ring((2, 3)), 1, 6) == 31  # Z_6 in disguise
    assert default_egz_cap(make_ring((2, 4)), 1, 4) is None


def _reference_cap(ring, m: int, t: int) -> int | None:
    # the auto cap typed out by hand, as it was before the search read the
    # calculators in egz.bounds; kept to pin that change to the same caps
    caps: list[int] = []
    if ring.exponent == ring.cardinality:  # lcm == product: pairwise coprime
        k = ring.cardinality
        if numtheory.is_feasible_length(k, m, t):
            caps.append(k * (t - 1) - m + 2)
        kp = numtheory.prime_power(k)
        tp = numtheory.prime_power(t)
        if kp and tp and kp[0] == tp[0]:
            p, s = kp
            r = tp[1]
            if r >= s and p ** r > m * (p ** s - 1):
                caps.append(p ** r + m * p ** s - m)
    pps = [numtheory.prime_power(n) for n in ring.moduli]
    if all(pps) and len({p for p, _ in pps}) == 1:
        p = pps[0][0]
        alphas = [e for _, e in pps]
        h = sum(alphas)
        d = sum(p ** a - 1 for a in alphas)
        if t == p ** h and p ** h > m * d:
            caps.append(p ** h + m * d)
    return min(caps) if caps else None


def test_default_egz_cap_matches_the_hand_formulas() -> None:
    rings = [(n,) for n in range(2, 33)]
    rings += [(a, b) for a in range(2, 9) for b in range(a, 9)]
    rings += [(2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 5)]
    ts = set(range(1, 40)) | {
        p ** e for p in (2, 3, 5, 7, 11, 13) for e in range(1, 9) if p ** e <= 256
    }
    capped = 0
    for moduli in rings:
        ring = make_ring(moduli)
        for m in range(1, 7):
            for t in sorted(x for x in ts if x >= m):
                want = _reference_cap(ring, m, t)
                assert default_egz_cap(ring, m, t) == want, (moduli, m, t)
                capped += want is not None
    assert capped > 1000  # the grid reaches every calculator, not just None


@pytest.mark.parametrize("moduli", [(2, 3), (3, 4), (2, 3, 5)])
def test_coprime_moduli_take_the_cyclic_caps(moduli) -> None:
    ring, cyclic = make_ring(moduli), make_ring((math.prod(moduli),))
    for m in range(1, 5):
        for t in range(m, 2 * cyclic.cardinality):
            assert default_egz_cap(ring, m, t) == default_egz_cap(cyclic, m, t), (m, t)


@pytest.mark.parametrize(
    "moduli, m, t",
    [((2, 3), 1, 6), ((2, 3), 1, 12), ((2, 3), 2, 4), ((2, 3), 2, 9), ((2, 3), 3, 10),
     ((2, 5), 2, 5), ((2, 5), 3, 6), ((3, 4), 7, 9)],
)
def test_coprime_moduli_match_the_cyclic_ring(moduli, m, t) -> None:
    # Z_n1 x Z_n2 with coprime moduli is Z_(n1 n2): same values, searched
    # through the auto cap (the witnesses differ with the element order)
    out = egz_constant(make_ring(moduli), m, t)
    ref = egz_constant(make_ring((math.prod(moduli),)), m, t)
    assert out.kind == ref.kind == search.OUTCOME_EXACT
    assert out.value == ref.value


def test_missing_cap_raises() -> None:
    ring = make_ring((2, 4))
    with pytest.raises(MissingCapError):
        egz_constant(ring, 1, 4)
    # an explicit cap unblocks the same query
    out = egz_constant(ring, 1, 4, cap=12)
    assert out.kind == search.OUTCOME_EXACT
    assert out.value == 9  # 2*2 + 2*4 - 3, the rank-2 constant


def test_ring_too_large_to_search(monkeypatch) -> None:
    # the search and both full testers refuse the ring before any table
    def no_tables(ring):
        raise AssertionError(f"built a table for {ring}")

    for name in ("add_index_table", "mul_index_table", "scalar_index_table"):
        monkeypatch.setattr(rings, name, no_tables)
    big = make_ring((17, 17))
    assert big.cardinality > search.MAX_CARDINALITY
    with pytest.raises(ValueError, match="at most"):
        davenport_m(big, 1, 2)
    with pytest.raises(ValueError, match="at most"):
        davenport_m(big, 1, 2, method="direct")
    ones = MultisetSeq.from_counts(big, {big.one: 3})
    with pytest.raises(ValueError, match="at most"):
        find_egz_zero_sub(ones, 3, 1)
    with pytest.raises(ValueError, match="at most"):
        find_dav_zero_sub(ones, 1)
    # the precheck and the bounds need no tables
    assert egz_constant(big, 2, 3).kind == search.OUTCOME_INFINITE
    assert default_egz_cap(big, 1, 289) == 321


def test_infinite_on_a_large_ring_stays_small() -> None:
    # Z_1000 x Z_1000: only the dense witness vector, as a list and as a
    # tuple of 10^6 entries (8 MB each), may be allocated
    ring = make_ring((1000, 1000))
    tracemalloc.start()
    try:
        out = egz_constant(ring, 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.kind == search.OUTCOME_INFINITE
    assert out.witness.mult[1001] == 1 and out.witness.length == 1
    assert peak < 24 * 2**20, peak


def test_explicit_cap_tightens_auto() -> None:
    # min(explicit, auto) is used and recorded
    out = egz_constant(make_ring((3,)), 2, 3, cap=50)
    assert out.cap_used == 6
    out = egz_constant(make_ring((3,)), 2, 3, cap=4)
    assert out.cap_used == 4


def test_workers_deterministic() -> None:
    # workers= is still accepted, and ignored
    ring = make_ring((9,))
    serial = egz_constant(ring, 2, 9, workers=1)
    parallel = egz_constant(ring, 2, 9, workers=2)
    assert serial == parallel

    sd = davenport_m(make_ring((8,)), 2, 16, workers=1)
    pd = davenport_m(make_ring((8,)), 2, 16, workers=2)
    assert sd == pd


def test_validation_errors() -> None:
    ring = make_ring((3,))
    with pytest.raises(ValueError):
        max_counterexample_length("nope", ring, 2, 10, t=3)
    with pytest.raises(ValueError):
        max_counterexample_length(KIND_EGZ, ring, 0, 10, t=3)
    with pytest.raises(ValueError):
        max_counterexample_length(KIND_EGZ, ring, 2, 10, t=1)
    with pytest.raises(ValueError):
        max_counterexample_length(KIND_EGZ, ring, 2, 1, t=3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: egz_constant(make_ring((3,)), 1, 3, cap=2, method="bogus"),
        lambda: max_counterexample_length(KIND_EGZ, make_ring((3,)), 1, 2, t=3, method="bogus"),
        lambda: egz_constant(make_ring((3,)), 1, 4, method="bogus"),
        lambda: egz_constant(make_ring((3,)), 2, 3, method="bogus"),
        lambda: max_counterexample_length(KIND_DAV, make_ring((3,)), 2, 6, method="bogus"),
        lambda: davenport_m(make_ring((3,)), 2, cap=6, method="bogus"),
        lambda: davenport_m(make_ring((3,)), 2, method="bogus"),
    ],
    ids=[
        "vacuous-cap", "vacuous-cap-max", "infinite", "egz", "davenport-max",
        "davenport", "davenport-no-cap",
    ],
)
def test_unknown_method_raises_before_any_answer(call) -> None:
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        call()


@pytest.mark.parametrize("bad", [True, 2.0, 7.5, "8"], ids=["bool", "2.0", "7.5", "str"])
@pytest.mark.parametrize(
    "slot, call, none_ok",
    [
        ("m", lambda x: egz_constant(make_ring((3,)), x, 3), False),
        ("t", lambda x: egz_constant(make_ring((3,)), 2, x), False),
        ("cap", lambda x: egz_constant(make_ring((3,)), 2, 3, cap=x), True),
        ("m", lambda x: davenport_m(make_ring((3,)), x, 7), False),
        ("cap", lambda x: davenport_m(make_ring((3,)), 2, x), True),
        ("m", lambda x: max_counterexample_length(KIND_DAV, make_ring((3,)), x, 7), False),
        ("cap", lambda x: max_counterexample_length(KIND_DAV, make_ring((3,)), 2, x), False),
        ("t", lambda x: max_counterexample_length(KIND_EGZ, make_ring((3,)), 2, 8, t=x), False),
        ("t", lambda x: find_egz_zero_sub(MultisetSeq(make_ring((3,)), (2, 2, 2)), x, 2), False),
        ("m", lambda x: is_counterexample_egz(MultisetSeq(make_ring((3,)), (2, 2, 2)), 3, x), False),
        ("m", lambda x: find_dav_zero_sub(MultisetSeq(make_ring((3,)), (2, 2, 2)), x), False),
        ("m", lambda x: is_counterexample_dav(MultisetSeq(make_ring((3,)), (2, 2, 2)), x), False),
    ],
    ids=[
        "egz-m", "egz-t", "egz-cap", "dav-m", "dav-cap", "max-m", "max-cap", "max-t",
        "find-egz-t", "is-egz-m", "find-dav-m", "is-dav-m",
    ],
)
def test_queries_that_are_not_ints_raise_before_any_search(
    slot, call, none_ok, bad, monkeypatch
) -> None:
    # a bool, a float or a string is no query: True would read as 1, 7.5
    # would give a certificate its own verifier rejects (and t = 2.5 a
    # tester's hit of three elements), and 2.0 or "8" would end in a
    # TypeError
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(search, "_frontier_max", no_search)
    monkeypatch.setattr(search, "_direct_max", no_search)
    with pytest.raises(ValueError, match=f"^{slot} must be an int"):
        call(bad)
    if not none_ok:  # nor is None, unless it asks for an automatic cap
        with pytest.raises(ValueError, match=f"^{slot} must be an int, not None"):
            call(None)


@pytest.mark.parametrize("method", ["frontier", "direct"])
@pytest.mark.parametrize("t", [1, 2])
def test_a_davenport_query_with_a_t_raises_before_any_search(t, method, monkeypatch) -> None:
    # the Davenport kind has no t: D_3(Z_3) with one would test e_m at
    # level t of the seed and answer length 1 (witness 2^1), not 8
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(search, "_frontier_max", no_search)
    monkeypatch.setattr(search, "_direct_max", no_search)
    with pytest.raises(ValueError, match="Davenport kind takes no t"):
        max_counterexample_length(KIND_DAV, make_ring((3,)), 3, 12, t=t, method=method)


def test_witness_is_lex_least_canonical() -> None:
    # the reported witness is canonical and minimal among the final frontier
    ring = make_ring((8,))
    out = egz_constant(ring, 2, 16)
    assert out.witness.is_canonical()
    assert out.witness.mult == (14, 0, 0, 0, 0, 0, 0, 15)
    want = canonical_mult((14, 15, 0, 0, 0, 0, 0, 0), orbit_perms(ring))
    assert out.witness.mult == want


@pytest.mark.parametrize("kind, t", [(KIND_EGZ, 4), (KIND_DAV, None)])
def test_direct_search_raises_when_the_tester_rejects_its_witness(
    kind, t, monkeypatch
) -> None:
    # the walk and the full tester are two routes: a witness the tester
    # rejects must stop the search, not become an answer
    checked = []

    def rejects(ring, kind, m, t):
        return lambda mult: checked.append(mult) or False

    monkeypatch.setattr(search, "_counterexample_test", rejects)
    with pytest.raises(RuntimeError, match="full tester rejects"):
        max_counterexample_length(kind, make_ring((5,)), 2, 8, t=t, method="direct")
    assert len(checked) == 1


def test_davenport_without_cap_raises() -> None:
    with pytest.raises(MissingCapError):
        davenport_m(make_ring((3,)), 2)


# --- array level step against the tuple level step --------------------------


@pytest.mark.parametrize(
    "kind, moduli, m, t, cap",
    [
        (KIND_EGZ, (8,), 2, 8, 12),  # Infinite by the all-ones family: capped
        (KIND_EGZ, (9,), 2, 9, 72),
        (KIND_DAV, (3, 3), 1, None, 6),
        (KIND_EGZ, (2, 2, 2), 2, 8, 14),
        (KIND_DAV, (5, 5), 1, None, 6),
        (KIND_DAV, (2, 2, 2), 1, None, 5),
        (KIND_DAV, (3, 9), 1, None, 5),
        (KIND_EGZ, (3, 3), 1, 3, 7),
        (KIND_DAV, (4, 4), 2, None, 7),
        (KIND_EGZ, (7,), 2, 7, 20),  # one-word keys, e_m tested at the seed level t
        (KIND_DAV, (2, 4), 2, None, 10),  # one-word keys, e_m tested at every level
        (KIND_EGZ, (7,), 3, 14, 30),  # the seed's e_m masks, then closed levels
        (KIND_DAV, (2, 4), 2, None, 14),  # to the empty level
    ],
)
def test_array_step_matches_tuple_step(kind, moduli, m, t, cap, fresh_kits, monkeypatch) -> None:
    # every level of the search, seed levels included, built both ways
    # under the search's group
    ring = make_ring(moduli)
    _assert_steps_keep_the_same_orbits(search._kit(ring, m == 1), kind, m, t, cap, monkeypatch)


def _least_image(kit, mult) -> tuple[int, ...]:
    return min(img(mult) for img in kit.images)


def _on(monkeypatch, tuples: bool) -> None:
    # every later step on tuples, or every one on arrays, at every size
    monkeypatch.setattr(search, "_on_tuples", lambda *args: tuples)


def _mask_ints(masks) -> list[int]:
    # packed extension masks, width // 8 bytes a row, as ints
    return [int.from_bytes(x.tobytes(), "little") for x in masks]


def _image_masks(kit, parents, masks) -> dict:
    # the extension mask of every image h(P) of every parent P: bit j is
    # bit perm_h[j] of P's, since h(P) + j is the image of P + perm_h[j]
    out = {}
    for parent, mask in zip(parents, _mask_ints(masks)):
        for img, perm in zip(kit.images, kit.perm.tolist()):
            out[img(parent)] = sum((mask >> perm[j] & 1) << j for j in range(kit.card))
    return out


def _assert_steps_keep_the_same_orbits(kit, kind, m, t, cap, monkeypatch) -> None:
    # the array step keeps one row per orbit, and the tuple step the
    # orbit's lex-least member: the rows' lex-least images, found through
    # the group itself, must be the tuple step's set, one for one. Each
    # level is made twice on arrays (at every size): from the array level
    # before, and from the tuple level before, each with what _advance
    # handed on, the parents and their masks. The array step's parents are
    # canonical rows, so its masks are the tuple step's read through the
    # map from each lex-least tuple to its row (one-word rows are lex-least
    # members too, and the map the identity)
    seed = t if kind == KIND_EGZ else m - 1
    frontier, before = {(0,) * kit.card}, None
    rows, prev = kit.from_tuples(frontier), None
    for level in range(1, cap + 1):
        closed = level > seed
        em_m = m if (kind == KIND_DAV and closed) or level == t else None
        _on(monkeypatch, True)
        expect, handed = search._advance(kit, frontier, level - 1, closed, em_m)
        _on(monkeypatch, False)
        scratch, _ = search._advance(kit, frontier, level - 1, closed, em_m, before)
        rows, prev = search._advance(kit, rows, level - 1, closed, em_m, prev)
        assert (prev is not None) == bool(closed or em_m)
        assert (handed is None) == (prev is None)
        if prev is not None:
            tuple_masks = _image_masks(kit, handed[0], handed[1])
            array_masks = zip(map(tuple, prev[0][:, : kit.card].tolist()), _mask_ints(prev[1]))
            assert all(tuple_masks[row] == mask for row, mask in array_masks), level
        for got in (rows, scratch):
            least = sorted(_least_image(kit, tuple(r)) for r in got[:, : kit.card].tolist())
            assert least == sorted(expect), (level, len(expect), len(got))
        if not expect:
            break
        before = handed
        frontier = expect


@pytest.mark.parametrize("weights", ["equal", "repeated"])
@pytest.mark.parametrize(
    "kind, moduli, m, t, cap",
    [
        (KIND_DAV, (3, 3), 1, None, 6),
        (KIND_DAV, (5, 5), 1, None, 6),
        (KIND_EGZ, (3, 3), 1, 3, 7),
        (KIND_DAV, (2, 2, 2, 2), 2, None, 7),
    ],
)
def test_canonical_key_ties_keep_the_orbits(kind, moduli, m, t, cap, weights, monkeypatch) -> None:
    # equal canonical weights give every image of a row one key, and
    # repeated ones give distinct images of many rows the same least key:
    # the lex-least of the tied images must still keep one row per orbit
    import numpy as np

    ring = make_ring(moduli)
    kit = search._Rows(ring, symmetry_index_perms(ring, m == 1))
    assert not kit.one_word
    c = np.ones(kit.card, kit.C.dtype)
    if weights == "repeated":
        c += np.arange(kit.card, dtype=c.dtype) % 3
    kit.C = kit.image_weights(c)
    if weights == "equal":
        assert (kit.C == kit.C[:, :1]).all()
    _assert_steps_keep_the_same_orbits(kit, kind, m, t, cap, monkeypatch)


def test_canonical_keys_never_wrap() -> None:
    # a row holds at most _ROW_MAX elements, so its uint16 canonical keys
    # stay below the 0xFFFF that canonical writes over a row's least key
    for card in (9, 27, 49, 64):
        c = search._canonical_weights(card)
        assert c.dtype.name == "uint16" and c.min() >= 1
        assert search._ROW_MAX * int(c.max()) < 0xFFFF


@pytest.mark.parametrize("moduli, cap", [((5, 5), 9), ((3, 9), 11)])
def test_array_levels_record_the_tuple_steps_least_classes(
    moduli, cap, fresh_kits, monkeypatch
) -> None:
    # the least class of every level, read from the array levels by
    # _Rows.least, is the one the tuple step records
    steps = []
    step = search._Rows.step

    def spy(self, *args):
        steps.append(len(args[0]))
        return step(self, *args)

    monkeypatch.setattr(search._Rows, "step", spy)
    kit = search._kit(make_ring(moduli), True)
    arrays = search._Search(KIND_DAV, 1, None)
    arrays.to(kit, cap, None)
    assert steps  # some level took the array step
    _on(monkeypatch, True)
    tuples = search._Search(KIND_DAV, 1, None)
    tuples.to(kit, cap, None)
    assert arrays.levels == tuples.levels


def _random_level(kit, rng, n: int, length: int, heavy: int):
    # n multisets of one length, each with heavy copies of one element
    import numpy as np

    vals = np.array([
        np.bincount(rng.integers(0, kit.card, length - heavy), minlength=kit.card)
        for _ in range(n)
    ])
    vals[np.arange(n), rng.integers(0, kit.card, n)] += heavy
    return vals


@pytest.mark.parametrize("heavy", [0, 150])
@pytest.mark.parametrize("moduli", [(3, 3), (5, 5), (3, 9), (2, 2, 2, 2, 2)])
def test_least_is_the_least_image(moduli, heavy, monkeypatch) -> None:
    # _Rows.least against the minimum over every image of every row, with
    # rows whose best images agree up to near the last nonzero element
    # placed in different blocks; heavy multiplicities take a smaller base, so
    # fewer elements per exact chunk and a refinement past the first
    import numpy as np

    ring = make_ring(moduli)
    kit = search._kit(ring, True)
    card = kit.card
    rng = np.random.default_rng(card + heavy)
    vals = _random_level(kit, rng, 40, heavy + 6, heavy)
    best = min(_least_image(kit, tuple(v)) for v in vals.tolist())
    j = max(i for i, c in enumerate(best) if c)
    near = []
    for b in (j - 1, j + 1):  # one element moved from j to b: the same up to j - 2
        if 0 <= b < card:
            moved = list(best)
            moved[j] -= 1
            moved[b] += 1
            near.append(moved)
    perms = kit.perm[:, :card]
    spread = np.array([np.array(x)[perms[rng.integers(len(perms))]] for x in near + [best] * 2])
    vals = np.concatenate([spread[:1], vals[:20], spread[1:2], vals[20:], spread[2:]])
    tuples = [tuple(v) for v in vals.tolist()]
    expect = min(_least_image(kit, tp) for tp in tuples)
    rows = kit.from_tuples(tuples)
    assert kit.least(rows) == expect
    monkeypatch.setattr(search, "_BLOCK_BYTES", 1)  # one row per block
    assert kit.least(rows) == expect
    assert kit.least(rows[::-1]) == expect


def test_canonical_pass_and_least_stay_within_blocks(fresh_kits) -> None:
    # the canonical pass over the extensions of the largest D_1(Z_5 x Z_5)
    # level, and least on them, under a group of 480 maps: unblocked, their
    # keys would take several _BLOCK_BYTES
    ring = make_ring((5, 5))
    kit = search._kit(ring, True)
    assert len(kit.perm) == 480
    for level, frontier, _ in search._frontier_max(kit, KIND_DAV, 1, None):
        if level == 6:
            break
    rows = frontier if not isinstance(frontier, set) else kit.from_tuples(frontier)
    assert len(rows) == 107
    every = kit.masks(rows, None, None)  # an untested level's: every extension
    cands = kit.from_keys(search._distinct(kit.extension_keys(rows, every)))
    assert len(cands) * len(kit.perm) * 8 > 4 * search._BLOCK_BYTES
    per = kit.block_rows()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for lo in range(0, len(cands), per):
            kit.canonical_keys(cands[lo : lo + per])
        kit.least(cands)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * search._BLOCK_BYTES, peak / search._BLOCK_BYTES


@pytest.mark.parametrize("moduli, cap", [((8,), 30), ((3, 3), 255)])
def test_row_keys_follow_tuple_order(moduli, cap) -> None:
    import numpy as np

    ring = make_ring(moduli)
    kit = search._kit(ring, True)
    rng = np.random.default_rng(cap)
    vals = rng.integers(0, 4, size=(400, kit.card))
    vals[::7, -1] = rng.integers(0, cap + 1, size=len(vals[::7]))
    tuples = [tuple(v) for v in vals.tolist()]
    rows = kit.from_tuples(tuples)
    order = np.argsort(kit.keys(rows), kind="stable")
    assert [tuples[i] for i in order] == sorted(tuples)
    uniq = kit.from_keys(search._distinct(kit.keys(rows).copy()))  # wide keys view rows
    assert [tuple(r) for r in uniq[:, : kit.card].tolist()] == sorted(set(tuples))
    units = search._Rows(ring, unit_index_perms(ring))
    if kit.one_word:  # one word: the canonical form is the lex-least image
        canon = units.from_keys(units.canonical_keys(rows))
        assert [tuple(r) for r in canon[:, : kit.card].tolist()] == [
            canonical_mult(tp, orbit_perms(ring)) for tp in tuples
        ]
        canon = kit.from_keys(kit.canonical_keys(rows))
        assert [tuple(r) for r in canon[:, : kit.card].tolist()] == [
            canonical_mult(tp, symmetry_index_perms(ring, True)) for tp in tuples
        ]
        return
    # wider rows, of at most _ROW_MAX elements as in the search: the form
    # lies in the row's orbit, is the same for every image of the row, is
    # the image under the map canonical returns with it, and its key is the
    # row's canonical key
    rows = rows[vals.sum(axis=1) <= search._ROW_MAX]
    for group in (units, kit):
        canon, maps = group.canonical(rows)
        assert (group.canonical_keys(rows) == group.keys(canon)).all()
        for row, form in zip(rows[:, : kit.card].tolist(), canon[:, : kit.card].tolist()):
            assert tuple(form) in {img(tuple(row)) for img in group.images}
        assert (rows[np.arange(len(rows))[:, None], group.perm[maps]] == canon).all()
        images = np.concatenate([rows.take(perm, axis=1) for perm in group.perm])
        again = group.canonical(images)[0].reshape(len(group.perm), *rows.shape)
        assert (again == canon).all()


@pytest.mark.parametrize(
    "moduli", [(2,), (5,), (8,), (2, 2, 2), (2, 4), (3, 3), (5, 5), (2, 2, 2, 2)]
)
def test_extension_keys_are_the_extensions_keys(moduli) -> None:
    # the keys of the extensions a packed mask allows: on one word a row's
    # key plus one in byte g, with no carry into the next byte even at the
    # largest multiplicity a level below _ROW_MAX holds, and none into the
    # padding of a ring of fewer than 8 elements, one run per g; on wider
    # rows the extension rows' keys, parent-major. An all-ones mask, as an
    # untested level's, allows every extension
    import numpy as np

    kit = search._kit(make_ring(moduli), True)
    card = kit.card
    assert kit.one_word == (card <= 8)
    rng = np.random.default_rng(card)
    vals = rng.integers(0, search._ROW_MAX, size=(50, card))
    rows = kit.from_tuples([(search._ROW_MAX - 1,) * card] + vals.tolist())
    ext = kit.extend(rows)
    assert (ext[:, card:] == 0).all()
    allowed = rng.random((len(rows), card)) < 0.5  # (row, g)
    allowed[0] = True
    masks = np.packbits(allowed, axis=1, bitorder="little")
    assert masks.shape == (len(rows), kit.width // 8) and (masks[0] == kit.full).all()
    keys = kit.keys(ext).reshape(len(rows), card)
    expect = keys.T[allowed.T] if kit.one_word else keys[allowed]  # g-major, or parent-major
    assert (kit.extension_keys(rows, masks) == expect).all()
    every = kit.masks(rows, None, None)
    assert (every == kit.full).all()
    expect = keys.T.ravel() if kit.one_word else keys.ravel()
    assert (kit.extension_keys(rows, every) == expect).all()


@pytest.mark.parametrize("moduli", [(8,), (2, 2, 2), (3, 3), (5, 5), (2, 2, 2, 2), (2, 6)])
def test_image_weights_key_the_images(moduli) -> None:
    # V[perm_h[j], h] = v[j]: row @ V[:, h] is the key of the image
    # row.take(perm_h), not of its inverse image. One-word kits key rows by
    # their words, the gathered image words; wider ones hold C, the image
    # weights of the canonical keys. Both groups of each ring, so wide rows
    # under few maps are covered too: Z_3 x Z_3 under its 8 unit maps,
    # Z_2 x Z_6 under 2 (12 additive)
    import numpy as np

    ring = make_ring(moduli)
    for additive in (True, False):
        kit = search._kit(ring, additive)
        card = kit.card
        rng = np.random.default_rng(card)
        rows = kit.from_tuples(rng.integers(0, 256, size=(300, card)).tolist())
        assert kit.one_word == (card <= 8) == (kit.C is None) == (kit.w is not None)
        if kit.one_word:
            v, keys = kit.w, kit.image_words(rows)
        else:
            v = search._canonical_weights(card).astype(np.int64)
            keys = rows[:, :card].astype(np.int64) @ kit.C
        for h, perm in enumerate(kit.perm):
            image = rows.take(perm, axis=1)[:, :card].astype(v.dtype)
            assert (image @ v == keys[:, h]).all()


def test_wide_answers_run_one_search_and_no_tester(monkeypatch, fresh_kits) -> None:
    # every level is exact on rows of every width, so an answer on a ring
    # wider than one word, from the tuple step (D_1(Z_3 x Z_3) cap 6) or
    # the array step, runs one search, and a cached repeat none; the full
    # tester, the direct search's check, never runs
    calls, runs = [], []
    monkeypatch.setattr(search, "_counterexample_test", lambda *args: calls.append(args))
    frontier_max = search._frontier_max

    def spy(kit, *args):
        runs.append((kit.card,) + args)
        return frontier_max(kit, *args)

    monkeypatch.setattr(search, "_frontier_max", spy)
    steps = []
    step = search._Rows.step

    def spy_step(self, *args):
        steps.append(self.card)
        return step(self, *args)

    monkeypatch.setattr(search._Rows, "step", spy_step)
    for _ in range(2):
        assert davenport_m(make_ring((3, 3)), 1, 6).value == 5
        assert davenport_m(make_ring((5, 5)), 1, 9).value == 9
        assert egz_constant(make_ring((9,)), 2, 9).value == 17
    assert runs == [(9, KIND_DAV, 1, None), (25, KIND_DAV, 1, None), (9, KIND_EGZ, 2, 9)]
    assert steps[0] == 25 and 9 in steps  # Z_3 x Z_3 on tuples, the others on arrays
    assert calls == []


@pytest.mark.parametrize(
    "moduli, kind, m, t, cap",
    [
        ((3, 3), KIND_EGZ, 1, 3, 10),
        ((3, 3), KIND_EGZ, 2, 4, 10),
        ((3, 3), KIND_DAV, 1, None, 10),
        ((3, 3), KIND_DAV, 2, None, 10),
        ((2, 2, 2, 2), KIND_EGZ, 1, 4, 8),
        ((2, 2, 2, 2), KIND_EGZ, 2, 4, 7),
        ((2, 2, 2, 2), KIND_DAV, 1, None, 7),
        ((2, 2, 2, 2), KIND_DAV, 2, None, 7),
    ],
)
def test_key_collisions_do_not_change_the_answer(
    moduli, kind, m, t, cap, monkeypatch, fresh_kits
) -> None:
    # every key of a wide row is exact, so no key can collide: with every
    # level past the seed on the array step, closure lookups by canonical
    # form included, the answer is that of the unpruned search
    monkeypatch.setattr(search, "_SMALL_LEVEL", 0)  # every level takes the array step
    ring = make_ring(moduli)
    frontier = max_counterexample_length(kind, ring, m, cap, t=t)
    assert frontier == max_counterexample_length(kind, ring, m, cap, t=t, method="direct")


def test_answering_leaves_numpy_random_unimported() -> None:
    # numpy.random costs about 6 MB in a fresh process; the key weights are
    # made in pure Python so that a search never imports it
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys, numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "from egz.rings import make_ring\n"
        "from egz.search import davenport_m\n"
        "out = davenport_m(make_ring((5, 5)), 1, 9)\n"
        "print(before, 'numpy.random' in sys.modules, out.kind, out.value)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(search.__file__).resolve().parents[1]))
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    before, after, kind, value = res.stdout.split()
    if before == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert (after, kind, value) == ("False", "exact", "9")


def _em_residues(kit, tuples, j: int) -> list[list[int]]:
    # the tuple step's e_j of each multiplicity vector, as coordinate residues
    return [list(element_at(kit.ring, kit.em_mult(tp, j))) for tp in tuples]


@pytest.mark.parametrize(
    "moduli, m, cap",
    [((9,), 2, 40), ((2, 2, 2), 3, 12), ((5, 5), 1, 20), ((5, 5), 2, 255), ((2, 4), 4, 30),
     ((6,), 12, 255), ((2,), 12, 255), ((7,), 7, 255)],
)
def test_array_em_matches_engine(moduli, m, cap) -> None:
    # e_{m-1} and e_m from power sums are the tuple step's, multiplicities
    # up to a full uint8 row included, and degrees up to the int64 edge
    # that _em_fits allows ((12! 6)**2 is about 8.25e18)
    import numpy as np

    ring = make_ring(moduli)
    kit = search._kit(ring, False)
    rng = np.random.default_rng(m * cap)
    vals = rng.integers(0, cap + 1, size=(300, kit.card))
    vals[rng.random(vals.shape) < 0.5] = 0  # sparse rows, multiplicities above the exponent
    tuples = [tuple(v) for v in vals.tolist()]
    assert search._em_fits(ring, m)
    e = kit.elementary(kit.from_tuples(tuples), m)
    assert e.shape == (len(tuples), 2, ring.rank)
    assert e[:, 0].tolist() == _em_residues(kit, tuples, m - 1)
    assert e[:, 1].tolist() == _em_residues(kit, tuples, m)


def test_em_tables_build_in_blocks() -> None:
    # the Z_256 kit's e_m tables are built a block of residues a at a time,
    # under 6 MB traced, and bit g of entry (a, b) says a + b g != 0, also
    # on both sides of a block's edge
    import numpy as np

    ring = make_ring((256,))
    sym = rings.symmetry_index_perms(ring, False)
    search._Rows(ring, sym)  # the ring's index tables, cached for the traced build
    tracemalloc.start()
    try:
        kit = search._Rows(ring, sym)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 10**6, peak
    (bits,) = kit._em_bits
    b = np.arange(256)[:, None]
    for a in (0, 1, 15, 16, 17, 128, 255):
        want = np.packbits((a + b * b.T) % 256 != 0, axis=1, bitorder="little")
        assert (bits[a] == want).all(), a


@pytest.mark.parametrize(
    "moduli", [(9,), (2, 2, 2), (5, 5), (2, 4)], ids=["Z9", "Z2^3", "Z5xZ5", "Z2xZ4"]
)
def test_power_sums_match_the_tuple_steps_em(moduli) -> None:
    # e_{m-1} and e_m of each row from power sums, and each row's e_m mask,
    # unpacked: bit g set exactly when e_m of R + g is nonzero, as the
    # tuple step's e_m of R + g and the extension's own power sums both
    # say, on one-word rows and on wider ones, whose masks span bytes
    import numpy as np

    ring = make_ring(moduli)
    kit = search._kit(ring, False)
    rng = np.random.default_rng(kit.card)
    vals = rng.integers(0, 255, size=(200, kit.card))  # room for one more element
    vals[rng.random(vals.shape) < 0.5] = 0  # sparse rows, multiplicities above the exponent
    vals[0] = 254  # the largest multiplicity a parent of the array step holds
    tuples = [tuple(v) for v in vals.tolist()]
    rows = kit.from_tuples(tuples)
    for m in range(1, 5):
        e = kit.elementary(rows, m)
        assert e[:, 0].tolist() == _em_residues(kit, tuples, m - 1), m
        assert e[:, 1].tolist() == _em_residues(kit, tuples, m), m
        masks = kit.em_masks(rows, m)
        assert masks.shape == (len(rows), kit.width // 8)
        bits = np.unpackbits(masks, axis=1, bitorder="little").astype(bool)
        assert not bits[:, kit.card :].any(), m  # no bit past the last element
        assert bits.any() and not bits[:, : kit.card].all(), m
        for g in range(kit.card):
            grown = [tp[:g] + (tp[g] + 1,) + tp[g + 1 :] for tp in tuples]
            by_tuples = [any(r) for r in _em_residues(kit, grown, m)]
            assert bits[:, g].tolist() == by_tuples, (m, g)
            by_sums = kit.elementary(rows + kit.eye[g], m)[:, 1].any(axis=1)
            assert (bits[:, g] == by_sums).all(), (m, g)


@pytest.mark.parametrize(
    "kind, moduli, m, t, level",
    [
        (KIND_DAV, (2, 2, 2), 1, None, 3),  # |H| = 168
        (KIND_EGZ, (8,), 2, 8, 10),  # byte 7 an element's count
        (KIND_DAV, (2, 4), 2, None, 6),
        (KIND_DAV, (3, 3), 1, None, 3),  # wide rows, from here on
        (KIND_EGZ, (3, 3), 2, 9, 11),
        (KIND_DAV, (5, 5), 1, None, 5),  # |H| = 480
    ],
)
def test_table_masks_name_the_surviving_extensions(
    kind, moduli, m, t, level, monkeypatch, fresh_kits
) -> None:
    # each table entry names an image of a class of one level, with that
    # image's mask: bit g set exactly when the image plus g lies in the next
    # level's orbits. On one-word rows an entry is the image's key, its low
    # byte replaced by the mask, for every image; on wider rows the table
    # holds the keys of the classes' canonical forms and their masks. The
    # table is built from what the tuple step hands on, and an array step
    # hands on its masks
    import numpy as np

    kit = search._kit(make_ring(moduli), m == 1)
    card = kit.card
    levels = {}
    _on(monkeypatch, True)
    for at, frontier, _ in search._frontier_max(kit, kind, m, t):
        levels[at] = frontier
        if at == level:
            break
    parents, grown = levels[level - 1], levels[level]
    em_m = m if kind == KIND_DAV else None
    out, handed = search._advance(kit, parents, level - 1, True, em_m)
    assert out == grown and handed[0] is parents
    orbits = {img(x) for x in grown for img in kit.images}
    table = kit.table(*handed)
    if kit.one_word:
        entries = []
        for entry in table.tolist():
            word = entry.to_bytes(8, "big")
            image = list(word[:card])
            if card == 8:
                image[7] = level - 1 - sum(word[:7])
            entries.append((image, word[7]))
        assert (table[1:] >= table[:-1]).all()
        assert {tuple(x) for x, _ in entries} == {img(x) for x in parents for img in kit.images}
    else:
        keys, masks = table
        forms = kit.from_keys(keys)[:, :card].tolist()
        assert forms == sorted(forms) and len(set(map(tuple, forms))) == len(parents)
        entries = list(zip(forms, _mask_ints(masks)))
        assert sorted(_least_image(kit, tuple(x)) for x in forms) == sorted(parents)
    for image, mask in entries:
        expect = 0
        for g in range(card):
            image[g] += 1
            expect |= (tuple(image) in orbits) << g
            image[g] -= 1
        assert mask == expect, (image, mask, expect)
    before = None
    if level - 2 in levels:
        before = search._advance(kit, levels[level - 2], level - 2, True, em_m)[1]
    parent_rows = kit.from_tuples(sorted(parents))
    got, masks = kit.step(parent_rows, em_m, before)
    assert sorted(_least_image(kit, tuple(x)) for x in got[:, :card].tolist()) == sorted(grown)
    got = [tuple(x) for x in got.tolist()]
    assert got == sorted(set(got))  # sorted and distinct
    tuple_masks = dict(zip(handed[0], _mask_ints(handed[1])))
    assert _mask_ints(masks) == [tuple_masks[x] for x in sorted(parents)]
    assert masks.shape == (len(parents), kit.width // 8)


@pytest.mark.parametrize("moduli", [(8,), (3, 3), (5, 5)], ids=["1-byte", "2-byte", "4-byte"])
def test_every_step_gives_masks_of_one_shape(moduli, monkeypatch, fresh_kits) -> None:
    # an extension mask is width // 8 bytes a row, packed little-endian, on
    # rows of every width: em_masks', the array step's, untested (every
    # bit) or tested, and the tuple step's as _advance hands them on
    import numpy as np

    kit = search._kit(make_ring(moduli), True)
    size = kit.width // 8
    assert size == {8: 1, 9: 2, 25: 4}[kit.card]
    zero = (0,) * kit.card
    rows = kit.from_tuples([zero])
    _, masks = kit.step(rows, None)
    assert masks.shape == (1, size) and (masks == kit.full).all()
    _on(monkeypatch, True)
    frontier, prev = {zero}, None
    for level in range(3):
        members = sorted(frontier)  # lex-least, so handed on as tuples
        rows = kit.from_tuples(members)
        assert kit.em_masks(rows, 1).shape == (len(rows), size)
        got, step_masks = kit.step(rows, 1, prev)
        frontier, (parents, masks) = search._advance(kit, members, level, True, 1)
        assert masks.shape == step_masks.shape == (len(parents), size), level
        assert masks.dtype == step_masks.dtype == np.uint8
        assert _mask_ints(masks) == _mask_ints(step_masks)  # of the same sorted parents
        assert len(got) == len(frontier)
        prev = members, step_masks


@pytest.mark.parametrize(
    "kind, moduli, m, t, cap",
    [
        (KIND_DAV, (3, 3), 1, None, 6),
        (KIND_DAV, (9,), 1, None, 9),
        (KIND_DAV, (5, 5), 1, None, 9),
        (KIND_DAV, (2,) * 5, 1, None, 6),
        (KIND_EGZ, (3, 3), 2, 9, 15),  # untested seed levels, then closed ones
    ],
)
def test_an_array_level_is_its_own_table(kind, moduli, m, t, cap, monkeypatch, fresh_kits) -> None:
    # a canonical form is a function of the orbit, so every array level is
    # its own canonical forms, and the wide table of an array level, its
    # keys and masks as they are, is byte for byte the table of the same
    # parents handed in as sorted tuples, which it canonicalizes. A tuple
    # level that the array step takes goes on as its sorted tuples
    import numpy as np

    kit = search._kit(make_ring(moduli), m == 1)
    assert not kit.one_word
    _on(monkeypatch, False)
    zero = (0,) * kit.card
    _, handed = search._advance(kit, {zero}, 0, True, 1)
    assert handed[0] == [zero]
    tables = 0
    for level, frontier, prev in search._frontier_max(kit, kind, m, t):
        if isinstance(frontier, np.ndarray):
            assert (kit.canonical(frontier)[0] == frontier).all(), level
        if prev is None or not isinstance(prev[0], np.ndarray):
            continue
        rows, masks = prev
        assert (kit.canonical(rows)[0] == rows).all(), level
        members = sorted(kit.to_tuples(rows))
        assert members == [tuple(x) for x in rows[:, : kit.card].tolist()]
        keys, held = kit.table(rows, masks)
        from_tuples = kit.table(members, masks)
        assert keys.tobytes() == from_tuples[0].tobytes(), level
        assert held.tobytes() == from_tuples[1].tobytes(), level
        tables += 1
        if level >= cap:
            break
    assert tables >= 3


def _masks_one_removal_at_a_time(kit, rows, table, em_m) -> list[int]:
    # the reference for the wide lookups: each removal X = R - i on its
    # own, its canonical form h(X), the form's table entry, and bit g of
    # X's mask read as bit j of the form's, where perm_h[j] = g, since
    # h(X + g) = h(X) + j
    forms, masks = table
    entries = dict(zip(map(tuple, kit.from_keys(forms).tolist()), _mask_ints(masks)))
    out = []
    for row, mask in zip(rows.tolist(), _mask_ints(kit.em_masks(rows, em_m))):
        for i in range(kit.card):
            if not mask:
                break
            if not row[i]:
                continue
            x = list(row)
            x[i] -= 1
            form, h = kit.canonical(kit.from_tuples([x[: kit.card]]))
            entry = entries[tuple(form[0].tolist())]
            perm = kit.perm[int(h[0])].tolist()
            mask &= sum((entry >> perm.index(g) & 1) << g for g in range(kit.card))
        out.append(mask)
    return out


@pytest.mark.parametrize(
    "kind, moduli, m, t, em_m, levels",
    [
        (KIND_DAV, (5, 5), 1, None, 1, range(3, 9)),  # |H| = 480
        (KIND_EGZ, (3, 3), 2, 9, 2, range(10, 15)),  # e_m asked of EGZ levels: some empty
    ],
)
def test_wide_lookups_match_one_removal_at_a_time(kind, moduli, m, t, em_m, levels, fresh_kits) -> None:
    # the batched wide lookups (all (row, removal) pairs of a block in
    # chunks, ANDed per row) against one removal at a time, on whole levels
    # as one block, whose pairs span several chunks; on the EGZ levels the
    # e_m test of degree 2 empties the masks of some rows, which look
    # nothing up
    import numpy as np

    kit = search._kit(make_ring(moduli), m == 1)
    assert not kit.one_word
    per = search._PAIR_BYTES // (2 * len(kit.perm) + 8 * kit.width)
    spans = empty = 0
    for level, frontier, prev in search._frontier_max(kit, kind, m, t):
        if level in levels:
            assert isinstance(frontier, np.ndarray) and prev is not None, level
            table = kit.table(*prev)
            got = _mask_ints(kit.masks(frontier, table, em_m))
            assert got == _masks_one_removal_at_a_time(kit, frontier, table, em_m), level
            spans += int((frontier[:, : kit.card] > 0).sum()) > per
            empty += int((~kit.em_masks(frontier, em_m).any(axis=1)).sum())
        if level >= max(levels):
            break
    assert spans and (empty or kind == KIND_DAV)


def test_a_table_missing_a_removal_raises(monkeypatch, fresh_kits) -> None:
    # E(16, Z_8, 2): each closed level's table loses the entries of the
    # images of its first parent with an extension, one of which is a
    # removal of a class of the level; the lookup misses, and the search
    # raises rather than answer, and leaves no cached search. The same on
    # rows wider than one word, D_1(Z_3 x Z_3) and D_1(Z_5 x Z_5) with every
    # level on the array step: each table of more than one class loses the
    # canonical form of its first parent with an extension
    import numpy as np

    table = search._Rows.table

    def lossy(self, parents, masks):
        out = table(self, parents, masks)
        i = int(np.flatnonzero(masks.any(axis=1))[0])
        if self.one_word:
            images = self.image_words(parents[i : i + 1]) & search._HIGH_BYTES
            gone = np.isin(out & search._HIGH_BYTES, images)
            assert gone.any()
            return out[~gone]
        keys, held = out
        if len(keys) == 1:
            return out
        (gone,) = np.flatnonzero(keys == self.keys(self.canonical(parents[i : i + 1])[0]))
        return np.delete(keys, gone), np.delete(held, gone, axis=0)

    monkeypatch.setattr(search._Rows, "table", lossy)
    ring = make_ring((8,))
    with pytest.raises(RuntimeError, match="missing"):
        egz_constant(ring, 2, 16)
    assert not search._kit(ring, False).searches
    monkeypatch.setattr(search, "_SMALL_LEVEL", 0)
    for moduli in ((3, 3), (5, 5)):
        ring = make_ring(moduli)
        with pytest.raises(RuntimeError, match="missing"):
            davenport_m(ring, 1, 9)
        assert not search._kit(ring, True).searches


def test_tuple_cost_charges_images_by_width(monkeypatch, fresh_kits) -> None:
    # up to 8 elements an image costs what it did before width counted; a
    # wider one costs card / 64 candidates, so D_1(Z_5 x Z_5), under 480
    # maps, takes the array step from level 0 (1 class, cost 212) on
    for card in range(1, 9):
        for n in (1, 3, 7, 100):
            for group in (1, 2, 3, 16, 48, 480):
                assert search._tuple_cost(n, card, group) == n * card + n * group // 8
    levels = []
    step = search._Rows.step

    def spy(self, rows, *args):
        levels.append(int(rows[0, : self.card].sum()))
        return step(self, rows, *args)

    monkeypatch.setattr(search._Rows, "step", spy)
    out = davenport_m(make_ring((5, 5)), 1, 9)
    assert (out.kind, out.value) == ("exact", 9)
    assert levels == list(range(0, 9))


@pytest.mark.parametrize(
    "moduli, m, cap, fits", [((7,), 12, 17, False), ((6,), 12, 22, True)], ids=["D12-Z7", "D12-Z6"]
)
def test_power_sums_too_wide_for_int64_take_the_tuple_step(
    moduli, m, cap, fits, monkeypatch, fresh_kits
) -> None:
    # e_m from power sums multiplies residues mod m! n, exact in int64 only
    # while (m! n)**2 < 2**63: past it (12! 7), no level that tests e_m
    # takes the array step, even with every size cutoff at 0; just within
    # it (12! 6), they do, and the levels are those of the tuple step
    monkeypatch.setattr(search, "_SMALL_LEVEL", 0)
    ring = make_ring(moduli)
    assert ((math.factorial(m) * max(moduli)) ** 2 < 1 << 63) == fits == search._em_fits(ring, m)
    calls = []
    step = search._Rows.step

    def spy(self, rows, em_m, *args):
        calls.append(em_m)
        return step(self, rows, em_m, *args)

    monkeypatch.setattr(search._Rows, "step", spy)
    kit = search._kit(ring, False)
    arrays = search._Search(KIND_DAV, m, None)
    answer = arrays.to(kit, cap, None)
    assert None in calls  # the seed levels test no e_m
    assert (m in calls) == fits
    _on(monkeypatch, True)
    tuples = search._Search(KIND_DAV, m, None)
    assert tuples.to(kit, cap, None) == answer
    assert arrays.levels == tuples.levels
    assert answer[0] < cap  # closed


@pytest.mark.parametrize("moduli", [(8,), (2, 4), (3, 3), (5, 5)])
@pytest.mark.parametrize("additive", [False, True])
def test_testing_e_m_does_not_move_a_level_off_the_array_step(moduli, additive) -> None:
    # one size cutoff for every level: wherever the power sums hold e_m,
    # a level takes the step it would take without the e_m test, including
    # the levels of tuple cost in [_SMALL_LEVEL, 256), which a second cutoff
    # once kept on tuples when they tested e_m; where the power sums do not
    # hold e_m (12! 8 on Z_8), it takes the tuple step
    kit = search._kit(make_ring(moduli), additive)
    costs = set()
    for n in range(1, 120):
        costs.add(search._tuple_cost(n, kit.card, len(kit.images)))
        for level in (0, 1, 8, search._ROW_MAX - 1, search._ROW_MAX, 300):
            plain = search._on_tuples(kit, n, level, None)
            for m in range(1, 13):
                routed = search._on_tuples(kit, n, level, m)
                assert routed == (plain or not search._em_fits(kit.ring, m)), (n, level, m)
    assert any(search._SMALL_LEVEL <= cost < 256 for cost in costs)
    assert not search._em_fits(make_ring((8,)), 12)


# --- results across the 255 boundary of the uint8 rows ----------------------


@pytest.mark.parametrize(
    "moduli, m, caps",
    [((27,), 1, (27, 255, 256, 300)), ((5, 5), 1, (9, 300)), ((9,), 2, (12, 300))],
)
def test_davenport_does_not_depend_on_cap_past_255(moduli, m, caps) -> None:
    # each search closes well below its least cap, so a larger cap can only
    # change how far the search may run, never its result
    ring = make_ring(moduli)
    outs = [davenport_m(ring, m, cap) for cap in caps]
    assert {(o.kind, o.value, o.witness) for o in outs} == {
        (outs[0].kind, outs[0].value, outs[0].witness)
    }
    assert outs[0].kind == "exact"


@pytest.mark.parametrize("t, m", [(130, 1), (256, 1), (260, 2)])
def test_egz_z2_past_255_matches_calculator(t, m) -> None:
    out = egz_constant(make_ring((2,)), m, t)
    want = bounds.bound_calculator("egz-z2-exact", t=t, m=m)
    assert want.hypotheses_ok
    assert out.cap_used > 255
    assert (out.kind, out.value) == ("exact", want.value)


def test_levels_from_255_take_the_tuple_step(fresh_kits) -> None:
    # E(258, Z_3, 1) seeds at level 258: levels 255 to 258 run on tuples
    out = egz_constant(make_ring((3,)), 1, 258)
    assert (out.kind, out.value, out.witness.mult) == ("exact", 260, (0, 2, 257))


# --- resumable searches: one BFS answers every cap --------------------------


def _answer(kind, ring, m, t, cap):
    """The outcome, its certificate bytes and every progress call."""
    seen = []

    def progress(level, size):
        seen.append((level, size))

    if kind == KIND_EGZ:
        out = egz_constant(ring, m, t, cap=cap, progress=progress)
    else:
        out = davenport_m(ring, m, cap, progress=progress)
    cert = certificates.dumps(certificates.build_certificate(kind, ring, m, t, out))
    return out, cert, seen


def _uncached(kind, ring, m, t, cap):
    search._kit.cache_clear()  # a new kit, whose cache holds nothing yet
    return _answer(kind, ring, m, t, cap)


@pytest.mark.parametrize(
    "kind, moduli, m, t, caps",
    [
        (KIND_EGZ, (8,), 2, 16, (16, 19, 29, 30)),  # one-word exact keys
        (KIND_DAV, (5, 5), 1, None, tuple(range(1, 12))),  # inexact linear keys
        (KIND_DAV, (7,), 3, None, tuple(range(3, 16))),  # tuple-only levels
        (KIND_DAV, (27,), 1, None, (27, 255, 256, 300)),  # across _ROW_MAX
    ],
    ids=["E16-Z8-2", "D1-Z5xZ5", "D3-Z7", "D1-Z27"],
)
def test_cap_sweeps_match_uncached_searches(kind, moduli, m, t, caps, fresh_kits) -> None:
    # every cap answered in ascending, descending and shuffled order, each
    # order on new kits: outcome, certificate bytes and progress calls are
    # those of a search that starts from the seed
    ring = make_ring(moduli)
    want = {cap: _uncached(kind, ring, m, t, cap) for cap in caps}
    shuffled = list(caps)
    random.Random(len(caps)).shuffle(shuffled)
    for order in (sorted(caps), sorted(caps, reverse=True), shuffled):
        search._kit.cache_clear()
        for cap in order:
            assert _answer(kind, ring, m, t, cap) == want[cap], (order, cap)


def test_a_capped_search_resumes(monkeypatch, fresh_kits) -> None:
    # D_3(Z_7): a larger cap advances from the last recorded level, and a
    # smaller one advances nothing
    ring = make_ring((7,))
    calls = []
    advance = search._advance

    def spy(kit, frontier, level, *args):
        calls.append(level)
        return advance(kit, frontier, level, *args)

    monkeypatch.setattr(search, "_advance", spy)
    assert davenport_m(ring, 3, 5).value == 6
    assert calls == [0, 1, 2, 3, 4]
    assert davenport_m(ring, 3, 15).value == 13
    assert calls == list(range(13))
    assert davenport_m(ring, 3, 9).value == 10
    assert davenport_m(ring, 3, 20).value == 13
    assert calls == list(range(13))


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_an_interrupted_search_leaves_no_entry(error, monkeypatch, fresh_kits) -> None:
    # a generator that raised is finished, and its next step would read as
    # an empty level: D_3(Z_7) would answer Exact 5 instead of Exact 13
    ring = make_ring((7,))
    calls = []
    advance = search._advance

    def failing(*args):
        calls.append(None)
        if len(calls) == 5:
            raise error
        return advance(*args)

    monkeypatch.setattr(search, "_advance", failing)
    with pytest.raises(error):
        davenport_m(ring, 3, 15)
    monkeypatch.setattr(search, "_advance", advance)
    again = _answer(KIND_DAV, ring, 3, None, 15)
    assert again == _uncached(KIND_DAV, ring, 3, None, 15)
    assert (again[0].kind, again[0].value) == ("exact", 13)


def test_a_large_frontier_is_not_kept(fresh_kits) -> None:
    # E(9, Z_9, 2) at cap 10: its last level, 4 514 classes of 16 bytes, is
    # past the kit's budget, so only the recorded levels stay; a larger cap
    # then runs again from the seed and gives the uncached answer
    ring = make_ring((9,))
    kit = search._kit(ring, False)
    egz_constant(ring, 2, 9, cap=10)  # the kit's lazy tables
    kit.searches.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = egz_constant(ring, 2, 9, cap=10)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (out.kind, out.value) == ("at_least", 11)
    (entry,) = kit.searches.values()
    assert [size for size, _ in entry.levels] == [3631, 4514]
    assert 4514 * 16 > search._SUSPEND_BYTES
    assert entry.gen is None and entry.nbytes == 0 and not entry.done
    assert kept < search._SUSPEND_BYTES, kept
    assert _answer(KIND_EGZ, ring, 2, 9, 13) == _uncached(KIND_EGZ, ring, 2, 9, 13)


def test_a_wide_search_keeps_no_block_lists(fresh_kits) -> None:
    # E(5, Z_5 x Z_5, 1) cap 17, on rows wider than one word: the wide step
    # drops its per-block lists once the level-wide dedupe is done, and its
    # closure table holds one entry per class, so the search peaks under
    # 15 MiB traced
    ring = make_ring((5, 5))
    kit = search._kit(ring, True)  # the kit's tables, outside the trace
    assert not kit.one_word and not kit.searches
    tracemalloc.start()
    try:
        out = egz_constant(ring, 1, 5, cap=17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.kind, out.value) == ("exact", 17)
    assert peak < 15 * 2**20, peak / 2**20


def test_the_wide_table_is_gone_before_any_extension_is_made(fresh_kits) -> None:
    # D_1(Z_2^6) cap 5, under 720 maps: the step drops the previous level's
    # closure table once every parent's mask is decided, before it makes
    # any extension, on wide rows as on one word, so the search peaks under
    # 15.5 MiB traced (about 18 MiB when the table lives through the
    # extensions)
    ring = make_ring((2,) * 6)
    kit = search._kit(ring, True)  # the kit's tables, outside the trace
    assert len(kit.perm) == 720 and not kit.searches
    tracemalloc.start()
    try:
        out = davenport_m(ring, 1, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.kind, out.value) == ("at_least", 6)
    assert peak < 15.5 * 2**20, peak / 2**20


def test_suspended_frontiers_stay_within_the_budget(monkeypatch, fresh_kits) -> None:
    # D_m(Z_9) for m = 2..9 at three caps each, on one kit: at most
    # _SEARCHES are cached, and their suspended frontiers never sum past
    # _SUSPEND_BYTES. The budget is 8192 bytes: a wide search whose next
    # step is an array step holds the previous level and its masks too
    # (D_4(Z_9) at cap 7 2850 bytes, 960 for its frontier alone)
    import numpy as np

    monkeypatch.setattr(search, "_SEARCHES", 6)
    monkeypatch.setattr(search, "_SUSPEND_BYTES", 8192)
    ring = make_ring((9,))
    kit = search._kit(ring, False)
    for m in range(2, 10):
        for cap in (m, m + 1, m + 3):
            davenport_m(ring, m, cap)
            assert len(kit.searches) <= 6
            assert sum(s.nbytes for s in kit.searches.values()) <= 8192
            assert all((s.gen is None) == (s.nbytes == 0) for s in kit.searches.values())
    assert [key[1] for key in kit.searches] == [4, 5, 6, 7, 8, 9]
    assert any(s.gen is not None for s in kit.searches.values())
    assert any(s.gen is None and not s.done for s in kit.searches.values())
    held = kit.searches[(KIND_DAV, 4, None)]
    for level, frontier, prev in search._frontier_max(kit, KIND_DAV, 4, None):
        if level == 7:
            break
    parents, masks = prev
    assert isinstance(parents, np.ndarray) and masks.shape == (len(parents), 2)
    assert held.nbytes == search._nbytes(frontier, level, prev) == 2850
    assert search._nbytes(frontier, level) == 960
    # D_2(Z_2 x Z_4): a one-word search whose next step is an array step
    # also holds the previous level and its extension masks for the next
    # closure test, and counts them: at level 2 (14 classes, made by a
    # tuple step) the tuple step's 6 parents and masks, at levels 4 to 8
    # (level 8 has 13 classes, tuple cost 107) an array step's; before a
    # tuple step (level 9, of 7 classes) it holds the frontier alone
    ring = make_ring((2, 4))
    kit = search._kit(ring, False)
    for cap in (2, 4, 5, 6, 7, 8, 9):
        davenport_m(ring, 2, cap)
        (held,) = kit.searches.values()
        assert held.gen is not None and held.nbytes <= 4096
        last = held.seed + len(held.levels) - 1
        for level, frontier, prev in search._frontier_max(kit, KIND_DAV, 2, None):
            if level == last:
                break
        assert held.nbytes == search._nbytes(frontier, level, prev)
        if cap < 9:
            parents, masks = prev
            assert masks.shape == (len(parents), 1) and masks.dtype == np.uint8
            if cap == 2:
                assert isinstance(parents, set) and len(parents) == 6
            else:
                assert isinstance(parents, np.ndarray)
            kept = search._nbytes(frontier, level) + search._nbytes(parents, level - 1)
            assert held.nbytes == kept + masks.nbytes
        else:
            assert prev is None and held.nbytes == search._nbytes(frontier, level)
