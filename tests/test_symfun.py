"""Elementary symmetric functions, power-sum expansions, dominating sets."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egz import search
from egz.multiset import MultisetSeq
from egz.rings import add, element_index, elements, make_ring, mul, scalar_mul
from egz.symfun import (
    _expansion_by_recursion,
    dominating_set_size_formula,
    elementary_symmetric,
    elementary_symmetric_multiset,
    elementary_symmetric_prefix,
    expansion_value,
    format_expansion,
    min_dominating_set,
    newton_girard,
    power_sum,
    standard_dominating_indices,
    term_supports,
)


def _naive_em(ring, seq, m):
    total = ring.zero
    for combo in itertools.combinations(seq, m):
        prod = ring.one
        for x in combo:
            prod = mul(ring, prod, x)
        total = add(ring, total, prod)
    return total


def test_em_three_routes_agree_exhaustive_small() -> None:
    for k in (2, 3):
        ring = make_ring((k,))
        pool = elements(ring)
        for length in range(0, 5):
            for seq in itertools.product(pool, repeat=length):
                for m in range(1, length + 1):
                    a = elementary_symmetric(ring, seq, m)
                    b = elementary_symmetric_multiset(
                        ring, MultisetSeq.from_elements(ring, seq), m
                    )
                    c = _naive_em(ring, seq, m)
                    assert a == b == c


def test_em_three_routes_agree_sampled() -> None:
    rng = random.Random(7)
    for moduli in ((4,), (5,), (6,), (2, 2), (2, 4)):
        ring = make_ring(moduli)
        pool = elements(ring)
        for length in (5, 8):
            for _ in range(25):
                seq = tuple(rng.choice(pool) for _ in range(length))
                for m in range(1, 5):
                    a = elementary_symmetric(ring, seq, m)
                    b = elementary_symmetric_multiset(
                        ring, MultisetSeq.from_elements(ring, seq), m
                    )
                    assert a == b == _naive_em(ring, seq, m)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_em_three_routes_agree_property(data) -> None:
    # the sequence route, the multiset route and the tuple step's
    # index-space binomial-factor route (_Rows.em_mult), over Z_n and
    # Z_2 x Z_n
    n = data.draw(st.integers(2, 7), label="n")
    ring = make_ring(data.draw(st.sampled_from(((n,), (2, n))), label="moduli"))
    seq = data.draw(st.lists(st.sampled_from(elements(ring)), max_size=9), label="seq")
    m = data.draw(st.integers(1, 6), label="m")
    mseq = MultisetSeq.from_elements(ring, seq)
    em = elementary_symmetric(ring, seq, m)
    assert elementary_symmetric_multiset(ring, mseq, m) == em
    assert search._kit(ring, False).em_mult(mseq.mult, m) == element_index(ring, em)


def test_em_prefix_and_edges() -> None:
    ring = make_ring((5,))
    seq = [(1,), (2,), (3,)]
    prefix = elementary_symmetric_prefix(ring, seq, 3)
    assert prefix[0] == ring.one  # e_0 = 1
    assert prefix[1] == (1,)  # 1+2+3 = 6 = 1 mod 5
    assert prefix[2] == (1,)  # 2+3+6 = 11 = 1 mod 5
    assert prefix[3] == (1,)  # 6 = 1 mod 5
    # m beyond the length gives zero
    assert elementary_symmetric(ring, seq, 4) == ring.zero
    assert elementary_symmetric(ring, [], 1) == ring.zero


def test_em_scaling_law() -> None:
    # e_m(c * S) = c^m * e_m(S)
    rng = random.Random(11)
    ring = make_ring((9,))
    pool = elements(ring)
    for _ in range(20):
        seq = [rng.choice(pool) for _ in range(6)]
        for c in range(9):
            scaled = [scalar_mul(ring, c, x) for x in seq]
            for m in range(1, 4):
                lhs = elementary_symmetric(ring, scaled, m)
                rhs = scalar_mul(
                    ring, pow(c, m, 9), elementary_symmetric(ring, seq, m)
                )
                assert lhs == rhs


def test_power_sum() -> None:
    ring = make_ring((7,))
    seq = [(2,), (3,), (3,)]
    assert power_sum(ring, seq, 1) == (1,)  # 8 mod 7
    assert power_sum(ring, seq, 2) == (1,)  # 4+9+9 = 22 mod 7


def test_newton_girard_known_small() -> None:
    e1 = newton_girard(1)
    assert e1.scale == 1
    assert e1.terms == (((1), (1,)),) or e1.terms == ((1, (1,)),)
    e2 = {jvec: c for c, jvec in newton_girard(2).terms}
    assert e2 == {(2, 0): 1, (0, 1): -1}  # 2 e_2 = p1^2 - p2
    e3 = {jvec: c for c, jvec in newton_girard(3).terms}
    assert e3 == {(3, 0, 0): 1, (1, 1, 0): -3, (0, 0, 1): 2}
    e4 = {jvec: c for c, jvec in newton_girard(4).terms}
    assert e4 == {
        (4, 0, 0, 0): 1,
        (2, 1, 0, 0): -6,
        (0, 2, 0, 0): 3,
        (1, 0, 1, 0): 8,
        (0, 0, 0, 1): -6,
    }


def test_newton_girard_matches_recursion() -> None:
    for m in range(1, 9):
        exp = newton_girard(m)
        fact = math.factorial(m)
        direct = {jvec: c for c, jvec in exp.terms}
        rec = {}
        for jvec, fr in _expansion_by_recursion(m).items():
            scaled = fr * fact
            assert scaled.denominator == 1
            if scaled:
                rec[jvec] = int(scaled)
        assert direct == rec


def test_newton_girard_coefficient_formula() -> None:
    # coefficient of prod p_i^{j_i} in m! e_m is
    # (-1)^(m + sum j_i) * m! / prod(j_i! * i^{j_i})
    for m in range(1, 8):
        for coeff, jvec in newton_girard(m).terms:
            sj = sum(jvec)
            denom = 1
            for i, j in enumerate(jvec, start=1):
                denom *= math.factorial(j) * i**j
            expected = (-1) ** (m + sj) * math.factorial(m) // denom
            assert coeff == expected


def test_expansion_value_on_integers() -> None:
    # evaluate m! e_m via power sums of a concrete integer vector
    xs = [2, 3, 5, 7, 11]
    for m in range(1, 6):
        psums = [sum(x**i for x in xs) for i in range(1, m + 1)]
        direct = sum(
            math.prod(combo) for combo in itertools.combinations(xs, m)
        )
        exp = newton_girard(m)
        assert expansion_value(exp, psums) == math.factorial(m) * direct


def test_partition_term_count() -> None:
    # number of terms = number of partitions of m
    partitions = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for m in range(1, 9):
        assert len(newton_girard(m).terms) == partitions[m]


def test_dominating_sets() -> None:
    for m in range(1, 13):
        ds = min_dominating_set(m)
        assert ds.size == dominating_set_size_formula(m)
        expected = (m + 2) // 2 if m % 2 == 0 else (m + 1) // 2
        assert ds.size == expected
        supports = term_supports(newton_girard(m))
        assert all(set(ds.indices) & sup for sup in supports)
        std = standard_dominating_indices(m)
        assert len(std) == ds.size
        assert all(set(std) & sup for sup in supports)
    assert min_dominating_set(1).indices == (1,)
    assert min_dominating_set(2).indices == (1, 2)
    assert min_dominating_set(3).indices == (1, 3)


def test_standard_dominating_indices_shape() -> None:
    # floor(m/2) leading indices plus p_m itself
    assert standard_dominating_indices(6) == (1, 2, 3, 6)
    assert standard_dominating_indices(7) == (1, 2, 3, 7)
    assert standard_dominating_indices(1) == (1,)


def test_format_expansion() -> None:
    text = format_expansion(newton_girard(3))
    assert text == "6*e_3 = p1^3 - 3*p1*p2 + 2*p3"


def test_newton_girard_bounds() -> None:
    with pytest.raises(ValueError):
        newton_girard(0)
    with pytest.raises(ValueError):
        newton_girard(21)
