"""Boolean congruence systems: counting, normalization, JSON round-trip."""

from __future__ import annotations

import itertools
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egz import brink
from egz.brink import (
    BrinkInstance,
    count_boolean_solutions,
    egz_boolean_instance,
    from_json,
    make_instance,
    to_json,
)
from egz.theorems import random_brink_instances


def _count_pure_python(inst: BrinkInstance) -> int:
    count = 0
    for bits in itertools.product((0, 1), repeat=inst.n):
        good = True
        for cong in inst.system:
            modulus = inst.p**cong.v
            acc = 0
            for coeff, vars_ in cong.monomials:
                term = coeff
                for v in vars_:
                    term *= bits[v]
                acc += term
            if acc % modulus != 0:
                good = False
                break
        if good:
            count += 1
    return count


def test_empty_system_counts_everything() -> None:
    inst = make_instance(3, 2, [])
    report = count_boolean_solutions(inst)
    assert report.count == 8
    assert report.at_least == 8
    assert inst.weight == 0
    assert inst.degree_condition  # 0 < 3


def test_single_variable_system() -> None:
    inst = make_instance(1, 2, [(1, [(1, (0,))])])
    report = count_boolean_solutions(inst)
    assert report.count == 1  # only x = 0
    assert inst.weight == 1
    assert not inst.degree_condition  # 1 < 1 fails


def test_numpy_matches_pure_python() -> None:
    small = [inst for inst in random_brink_instances(80) if inst.n <= 12][:25]
    assert len(small) >= 10
    for inst in small:
        report = count_boolean_solutions(inst)
        assert report.count == _count_pure_python(inst)


def _check_counts(inst: BrinkInstance, stops: Iterable[int] = ()) -> None:
    # exact counts and early stops at every chunk size from one variable to
    # the whole cube (and past it), against the loop over the cube
    count = _count_pure_python(inst)
    for bits in range(1, inst.n + 2):
        report = count_boolean_solutions(inst, chunk_bits=bits)
        assert (report.count, report.at_least) == (count, count)
        for s in {*stops, 1, count, count + 1} - {0}:
            report = count_boolean_solutions(inst, stop_at=s, chunk_bits=bits)
            expected = (None, s) if count >= s else (count, count)
            assert (report.count, report.at_least) == expected


# the largest exponent with p^v <= 2^32, so that moduli reach every dtype
_MAX_V = {2: 32, 3: 20, 5: 13}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_chunked_transform_matches_pure_python_property(data) -> None:
    # monomials fall on the low side, the high side and across the split
    n = data.draw(st.integers(1, 10), label="n")
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    system = []
    for _ in range(data.draw(st.integers(0, 3), label="congruences")):
        v = data.draw(st.integers(1, _MAX_V[p]), label="v")
        coeff = st.integers(-p**v, 2 * p**v)
        monomials = data.draw(
            st.lists(st.tuples(coeff, st.lists(st.integers(0, n - 1), max_size=4)),
                     max_size=8),
            label="monomials",
        )
        # a constant term and a support on the first and the last variable,
        # which straddles the chunk boundary for every chunk_bits < n
        monomials += [(data.draw(coeff, label="constant"), ()),
                      (data.draw(coeff, label="straddling"), (0, n - 1))]
        system.append((v, monomials))
    inst = make_instance(n, p, system)
    _check_counts(inst, [data.draw(st.integers(1, (1 << n) + 1), label="stop_at")])


@pytest.mark.parametrize(
    ("p", "v", "total"),
    [
        # coefficient sums on either side of 2^8, 2^16 and 2^32, with p^v
        # below them: one too narrow a dtype wraps the all-ones value to 0
        (3, 5, 255), (3, 5, 256),
        (3, 10, 65535), (3, 10, 65536),
        (3, 20, 2**32 - 1), (3, 20, 2**32),
        # p^v above the coefficient sum sets the dtype
        (2, 32, 1), (3, 20, 1), (2, 8, 255), (2, 16, 3),
    ],
)
def test_narrow_dtype_edges(p: int, v: int, total: int) -> None:
    pv = p**v
    coeffs = []
    while total:
        coeffs.append(min(total, pv - 1))
        total -= coeffs[-1]
    supports = [(), (0,), (1, 2), (3,), (0, 4), (1, 5)]
    assert len(coeffs) <= len(supports)
    inst = make_instance(6, p, [(v, list(zip(coeffs, supports))), (1, [(1, (2,))])])
    _check_counts(inst, [2, 5])
    # alone, without the second congruence's mask
    _check_counts(make_instance(6, p, [(v, list(zip(coeffs, supports)))]), [3])


@pytest.mark.parametrize(("p", "v"), [(2, 32), (3, 20)])
def test_largest_coefficients_on_every_support(p: int, v: int) -> None:
    # every one of the 2^12 supports carries p^v - 1, the largest
    # normalized coefficient, so P(x) = (p^v - 1) * 2^|x| reaches about 2^44
    n = 12
    top = p**v - 1
    supports = [vs for k in range(n + 1) for vs in itertools.combinations(range(n), k)]
    assert top < 1 << 32
    full = make_instance(n, p, [(v, [(top, vs) for vs in supports])])
    # with the constant term 1 instead, P(x) = 2 - 2^|x| (mod p^v), which
    # vanishes exactly on the n points with |x| = 1
    shifted = make_instance(n, p, [(v, [(top if vs else 1, vs) for vs in supports])])
    assert len(full.system[0].monomials) == 1 << n
    for bits in (1, 5, n, n + 1):
        assert count_boolean_solutions(full, chunk_bits=bits).count == 0
        assert count_boolean_solutions(shifted, chunk_bits=bits).count == n
    small = make_instance(6, p, [(v, [(top, vs) for vs in supports if max(vs, default=0) < 6])])
    assert count_boolean_solutions(small, chunk_bits=3).count == _count_pure_python(small)


def test_count_rejects_bad_stop_and_chunk() -> None:
    inst = make_instance(4, 2, [])
    for stop_at in (0, -3, 1.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match="stop_at must be >= 1"):
            count_boolean_solutions(inst, stop_at=stop_at)
    for bits in (0, -1, brink.MAX_CHUNK_BITS + 1, 31, 2.5, 2.0, True, "4"):
        with pytest.raises(ValueError, match="chunk_bits must be >= 1"):
            count_boolean_solutions(inst, chunk_bits=bits)
    assert count_boolean_solutions(inst, chunk_bits=brink.MAX_CHUNK_BITS).count == 16
    assert count_boolean_solutions(inst, stop_at=1, chunk_bits=1).at_least == 1


def test_chunking_invariance() -> None:
    inst = egz_boolean_instance((1,) * 6, 2, 4, 2)
    for bits in (2, 4, 18):
        assert count_boolean_solutions(inst, chunk_bits=bits).count == 16


def test_early_stop() -> None:
    inst = make_instance(8, 2, [])
    report = count_boolean_solutions(inst, stop_at=5)
    assert report.count is None
    assert report.at_least == 5
    # stop_at above the true count still reports the exact total
    tight = make_instance(2, 2, [(1, [(1, (0,)), (1, (1,))])])
    report = count_boolean_solutions(tight, stop_at=10)
    assert report.count == 2  # 00 and 11


def test_monomial_normalization() -> None:
    # repeated variables collapse (x^2 = x on {0,1}), equal supports merge,
    # zero coefficients vanish
    inst = make_instance(
        3, 2,
        [(2, [(1, (0, 0)), (1, (0,)), (2, (1, 2)), (4, (2,))])],
    )
    cong = inst.system[0]
    assert cong.monomials == ((2, (0,)), (2, (1, 2)))
    assert cong.degree == 2

    # a congruence whose monomials all cancel disappears entirely
    empty = make_instance(3, 2, [(1, [(2, (0,))])])
    assert empty.system == ()
    assert empty.weight == 0


def test_make_instance_validation() -> None:
    with pytest.raises(ValueError):
        make_instance(0, 2, [])
    with pytest.raises(ValueError):
        make_instance(31, 2, [])
    with pytest.raises(ValueError):
        make_instance(3, 4, [])  # p must be prime
    with pytest.raises(ValueError):
        make_instance(3, 2, [(0, [(1, (0,))])])  # v >= 1
    with pytest.raises(ValueError):
        make_instance(3, 2, [(1, [(1, (5,))])])  # variable out of range
    with pytest.raises(ValueError):
        make_instance(3, 2, [(33, [(1, (0,))])])  # p^v too large
    with pytest.raises(ValueError):
        make_instance(3, 3, [(10**400, [(1, (0,))])])  # huge v, no huge power
    with pytest.raises(ValueError):
        make_instance(3, 2**61 - 1, [])  # a prime above 2^32
    # bools, floats and strings are not integers, even with an int's value
    for bad in (True, 3.0, "3"):
        with pytest.raises(ValueError, match="n "):
            make_instance(bad, 2, [])
        with pytest.raises(ValueError, match="p must be"):
            make_instance(3, bad, [])
        with pytest.raises(ValueError, match="v must be"):
            make_instance(3, 2, [(bad, [(1, (0,))])])
        with pytest.raises(ValueError, match="coefficients must be"):
            make_instance(3, 2, [(1, [(bad, (0,))])])
        with pytest.raises(ValueError, match="variable ids must be"):
            make_instance(3, 2, [(1, [(1, (bad,))])])


def test_egz_instance_shape() -> None:
    inst = egz_boolean_instance((1,) * 6, 2, 4, 2)
    assert inst.n == 6
    assert inst.p == 2
    # e_2 congruence mod 2 (degree 2) and size congruence mod 4 (degree 1)
    assert {c.v for c in inst.system} == {1, 2}
    assert inst.weight == (2 - 1) * 2 + (4 - 1) * 1
    assert inst.degree_condition

    report = count_boolean_solutions(inst)
    # selections with e_2 = 0 mod 2 and size = 0 mod 4 on six ones:
    # sizes 0 and 4 qualify: 1 + C(6,4) = 16
    assert report.count == 16


@pytest.mark.parametrize(
    "g, k, t, m, count",
    [
        ((0, 3, 2, 0, 0, 3, 3, 3, 3, 0, 0, 3, 1, 1, 0, 3, 3), 4, 16, 3, 12),
        ((7, 4, 4, 4, 0, 1, 1, 1, 2, 0, 7, 5, 6, 7, 1, 0, 2), 9, 9, 2, 2777),
    ],
    ids=["p2", "p3"],
)
def test_recorded_counts_by_mask_and_remainder(g, k, t, m, count) -> None:
    # p = 2 tests divisibility by a mask of the low bits, p = 3 by a
    # remainder; the counts were recorded with a remainder for both
    inst = egz_boolean_instance(g, k, t, m)
    for bits in (5, 9, brink.DEFAULT_CHUNK_BITS):
        assert count_boolean_solutions(inst, chunk_bits=bits).count == count


def test_egz_instance_zero_entries_drop_from_e2() -> None:
    g = (1,) * 16 + (0,) * 14
    inst = egz_boolean_instance(g, 8, 16, 2)
    assert inst.n == 30
    assert inst.weight == (8 - 1) * 2 + (16 - 1) * 1
    e2 = next(c for c in inst.system if c.v == 3)
    used = {v for _, vars_ in e2.monomials for v in vars_}
    assert used == set(range(16))  # zero positions contribute nothing
    size = next(c for c in inst.system if c.v == 4)
    assert len(size.monomials) == 30  # every position counts toward size


def test_egz_instance_validation() -> None:
    with pytest.raises(ValueError):
        egz_boolean_instance((1,) * 6, 6, 4, 2)  # k not a prime power
    with pytest.raises(ValueError):
        egz_boolean_instance((1,) * 6, 2, 3, 2)  # t not a power of p
    with pytest.raises(ValueError):
        egz_boolean_instance((1,) * 3, 2, 4, 2)  # n < t
    with pytest.raises(ValueError):
        egz_boolean_instance((1,) * 8, 2, 4, 2)  # n >= 2t loses exactness


def test_json_round_trip() -> None:
    inst = egz_boolean_instance((1, 3, 5, 7, 2, 0), 4, 4, 2)
    text = to_json(inst)
    back = from_json(text)
    assert back == inst
    # serialization is stable
    assert to_json(back) == text


def test_degree_condition_never_one_solution() -> None:
    for inst in random_brink_instances(60):
        assert count_boolean_solutions(inst).count != 1
