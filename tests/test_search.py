"""Search engine: finders, frontier closure, caps, parallel determinism."""

from __future__ import annotations

import itertools

import pytest

from egz import search
from egz.multiset import MultisetSeq, canonical_mult
from egz.rings import make_ring, unit_index_perms
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


def _all_canonical_multisets(ring, length):
    card = ring.cardinality
    out = []

    def rec(pos, remaining, acc):
        if pos == card - 1:
            mult = tuple(acc + [remaining])
            if canonical_mult(ring, mult) == mult:
                out.append(mult)
            return
        for c in range(remaining + 1):
            rec(pos + 1, remaining - c, acc + [c])

    rec(0, length, [])
    return out


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


@pytest.mark.parametrize("moduli", [(2,), (3,), (4,), (2, 2)])
def test_frontier_matches_direct(moduli) -> None:
    ring = make_ring(moduli)
    for m in (1, 2):
        for t in range(m, m + 3):
            frontier = max_counterexample_length(KIND_EGZ, ring, m, 7, t=t)
            direct = max_counterexample_length(
                KIND_EGZ, ring, m, 7, t=t, method="direct"
            )
            assert frontier == direct
        frontier = max_counterexample_length(KIND_DAV, ring, m, 7)
        direct = max_counterexample_length(KIND_DAV, ring, m, 7, method="direct")
        assert frontier == direct


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
    assert default_egz_cap(make_ring((2, 3)), 1, 6) is None


def test_missing_cap_raises() -> None:
    ring = make_ring((2, 3))
    with pytest.raises(MissingCapError):
        egz_constant(ring, 1, 6)
    # an explicit cap unblocks the same query
    out = egz_constant(ring, 1, 6, cap=12)
    assert out.kind == search.OUTCOME_EXACT
    assert out.value == 11  # 2*2 + 2*6 - 3, the rank-2 constant


def test_explicit_cap_tightens_auto() -> None:
    # min(explicit, auto) is used and recorded
    out = egz_constant(make_ring((3,)), 2, 3, cap=50)
    assert out.cap_used == 6
    out = egz_constant(make_ring((3,)), 2, 3, cap=4)
    assert out.cap_used == 4


def test_workers_deterministic() -> None:
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


def test_witness_is_lex_least_canonical() -> None:
    # the reported witness is canonical and minimal among the final frontier
    ring = make_ring((8,))
    out = egz_constant(ring, 2, 16)
    assert out.witness.is_canonical()
    assert out.witness.mult == (14, 0, 0, 0, 0, 0, 0, 15)
    assert out.witness.mult == canonical_mult(ring, (14, 15, 0, 0, 0, 0, 0, 0))


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
    ],
)
def test_array_step_matches_tuple_step(kind, moduli, m, t, cap) -> None:
    # every level of the search, seed levels included, built both ways
    engine = search._engine(make_ring(moduli))
    kit = engine.rows(cap)
    seed = t if kind == KIND_EGZ else m - 1
    frontier = {(0,) * engine.card}
    for level in range(1, cap + 1):
        closed = level > seed
        em_m = m if (kind == KIND_DAV and closed) or level == t else None
        expect = search._step_tuples(
            engine, frontier, frontier if closed else None, em_m
        )
        rows = kit.from_tuples(frontier)
        got = kit.step(rows, kit.orbit_keys(rows) if closed else None, em_m)
        listed = [tuple(r) for r in got[:, : engine.card].tolist()]
        assert listed == sorted(expect), (level, len(expect), len(listed))
        if not expect:
            break
        frontier = expect


@pytest.mark.parametrize(
    "moduli, cap", [((8,), 30), ((3, 3), 255), ((2, 4), 400), ((5, 5), 400), ((2, 3), 70000)]
)
def test_row_keys_follow_tuple_order(moduli, cap) -> None:
    import numpy as np

    engine = search._engine(make_ring(moduli))
    kit = engine.rows(cap)
    top = np.iinfo(kit.dtype).max
    rng = np.random.default_rng(cap)
    vals = rng.integers(0, 4, size=(400, engine.card))
    vals[::7, -1] = rng.integers(0, min(cap, top) + 1, size=len(vals[::7]))
    if cap > 0xFF:
        vals[3, 0] = 300
    tuples = [tuple(v) for v in vals.tolist()]
    rows = kit.from_tuples(tuples)
    order = np.argsort(kit.keys(rows), kind="stable")
    assert [tuples[i] for i in order] == sorted(tuples)
    uniq = kit.unique(rows)
    assert [tuple(r) for r in uniq[:, : engine.card].tolist()] == sorted(set(tuples))
    canon = kit.canonical(rows)
    assert [tuple(r) for r in canon[:, : engine.card].tolist()] == [
        engine.canonical(tp) for tp in tuples
    ]


@pytest.mark.parametrize(
    "moduli, m, cap",
    [((9,), 2, 40), ((2, 2, 2), 3, 12), ((5, 5), 1, 20), ((5, 5), 2, 300), ((2, 4), 4, 30)],
)
def test_array_em_matches_engine(moduli, m, cap) -> None:
    import numpy as np

    engine = search._engine(make_ring(moduli))
    kit = engine.rows(cap)
    rng = np.random.default_rng(m * cap)
    vals = rng.integers(0, cap + 1, size=(300, engine.card))
    vals[rng.random(vals.shape) < 0.5] = 0  # sparse rows, multiplicities above the exponent
    tuples = [tuple(v) for v in vals.tolist()]
    got = kit.em(kit.from_tuples(tuples), m).tolist()
    assert got == [engine.em_of_mult(tp, m) for tp in tuples]
