"""Ring arithmetic: tables, indices, units, parsing."""

from __future__ import annotations

import itertools
from operator import itemgetter

import pytest

from egz import rings
from egz.rings import (
    RingSpec,
    add,
    add_index_table,
    element,
    element_at,
    element_index,
    elements,
    format_elem,
    is_unit,
    make_ring,
    mul,
    mul_index_table,
    parse_moduli,
    power,
    scalar_index_table,
    scalar_mul,
    symmetry_index_perms,
    unit_index_perms,
    units,
)


def test_make_ring_basic() -> None:
    ring = make_ring((2, 4))
    assert ring.moduli == (2, 4)
    assert ring.rank == 2
    assert ring.cardinality == 8
    assert ring.exponent == 4
    assert ring.zero == (0, 0)
    assert ring.one == (1, 1)
    assert str(ring) == "Z2xZ4"
    assert str(make_ring((8,))) == "Z8"


def test_make_ring_rejects_bad_moduli() -> None:
    with pytest.raises(ValueError):
        make_ring(())
    with pytest.raises(ValueError):
        make_ring((1,))
    with pytest.raises(ValueError):
        make_ring((0, 3))


def test_elements_lex_order_and_zero_first() -> None:
    ring = make_ring((2, 3))
    elems = elements(ring)
    assert elems == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
    assert elems[0] == ring.zero
    for i, e in enumerate(elems):
        assert element_index(ring, e) == i
        assert element_at(ring, i) == e
    for bad in ((2, 0), (0, 3), (-1, 0), (0, 1.0)):
        with pytest.raises(ValueError, match="not a reduced element"):
            element_index(ring, bad)
    with pytest.raises(ValueError, match="arity"):
        element_index(ring, (0,))
    big = make_ring((1000, 1000))
    assert element_index(big, big.one) == 1001
    assert element_index(big, (999, 999)) == big.cardinality - 1


def test_arithmetic_wraps_componentwise() -> None:
    ring = make_ring((2, 4))
    assert add(ring, (1, 3), (1, 2)) == (0, 1)
    assert mul(ring, (1, 3), (1, 2)) == (1, 2)
    assert scalar_mul(ring, 5, (1, 3)) == (1, 3)
    assert power(ring, (1, 3), 2) == (1, 1)
    assert power(ring, (1, 3), 0) == ring.one
    assert element(ring, (3, 7)) == (1, 3)


def test_tables_match_scalar_functions() -> None:
    ring = make_ring((2, 3))
    elems = elements(ring)
    addt = add_index_table(ring)
    mult = mul_index_table(ring)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert elems[addt[i][j]] == add(ring, a, b)
            assert elems[mult[i][j]] == mul(ring, a, b)
    scal = scalar_index_table(ring)
    assert len(scal) == ring.exponent
    for s in range(ring.exponent):
        for i, a in enumerate(elems):
            assert elems[scal[s][i]] == scalar_mul(ring, s, a)


def test_units_and_perms() -> None:
    ring = make_ring((6,))
    assert units(ring) == ((1,), (5,))
    assert is_unit(ring, (5,))
    assert not is_unit(ring, (2,))
    perms = unit_index_perms(ring)
    # one permutation per unit, each a bijection fixing the zero index
    assert len(perms) == 2
    for perm in perms:
        assert sorted(perm) == list(range(6))
        assert perm[0] == 0

    ring24 = make_ring((2, 4))
    ulist = units(ring24)
    assert all(u[0] == 1 and u[1] % 2 == 1 for u in ulist)
    assert len(ulist) == 2


GROUP_ORDERS = [
    ((5, 5), True, 480),  # GL_2(F_5)
    ((5, 5), False, 32),  # units and the coordinate swap
    ((7, 7), True, 2016),  # GL_2(F_7)
    ((2, 2, 2), True, 168),  # GL_3(F_2)
    ((2, 2, 2, 2), True, 24),  # GL_4(F_2) is past the budget: S_4
    ((2,) * 6, False, 720),  # S_6
    ((3, 9), True, 108),  # Aut(Z_3 x Z_9)
    ((2, 4), True, 8),
    ((8,), True, 4),  # cyclic rings keep their units
    ((2, 3), True, 2),
]


@pytest.mark.parametrize("moduli, additive, order", GROUP_ORDERS)
def test_symmetry_group_orders(moduli, additive, order) -> None:
    ring = make_ring(moduli)
    group = symmetry_index_perms(ring, additive)
    assert len(group) == len(set(group)) == order
    assert group[0] == tuple(range(ring.cardinality))
    assert set(unit_index_perms(ring)) <= set(group)


def _closure_by_itemgetter(ident, gens, limit):
    # the reference closure: breadth-first on tuples, composing h[i] = g[s[i]]
    # by itemgetter(*s)(g); None once the group exceeds limit
    seen = {ident}
    queue = [ident]
    compose = [itemgetter(*s) for s in gens]
    for g in queue:
        for c in compose:
            h = c(g)
            if h not in seen:
                if len(seen) == limit:
                    return None
                seen.add(h)
                queue.append(h)
    return tuple(sorted(seen))


@pytest.mark.parametrize("budget", ["default", "low"])
@pytest.mark.parametrize("moduli, additive, order", GROUP_ORDERS)
def test_closure_matches_the_itemgetter_reference(moduli, additive, order, budget, monkeypatch) -> None:
    # every closure symmetry_index_perms asks for, the shortcut past the
    # budget off, is the reference's, the same sorted tuples; under a budget
    # of 4 maps per ring, the closures past it are None in both
    ring = make_ring(moduli)
    calls = []
    closure = rings._closure

    def pinned(ident, gens, limit):
        got = closure(ident, gens, limit)
        assert got == _closure_by_itemgetter(ident, gens, limit), (gens, limit)
        calls.append(got)
        return got

    monkeypatch.setattr(rings, "_closure", pinned)
    monkeypatch.setattr(rings, "_general_linear_order", lambda ring: None)
    if budget == "low":
        monkeypatch.setattr(rings, "SYMMETRY_BUDGET", 4 * ring.cardinality)
    group = rings.symmetry_index_perms.__wrapped__(ring, additive)
    if len(ring.moduli) > 1:
        assert calls
    if budget == "low" and order > 4:
        assert None in calls
        assert len(group) == len(unit_index_perms(ring))
    elif budget == "default":
        assert len(group) == order


@pytest.mark.parametrize(
    "moduli", [(2, 2, 2), (2, 2, 2, 2), (2,) * 5, (3, 3), (3, 3, 3), (5, 5), (7, 7)]
)
def test_general_linear_order_skips_only_groups_past_the_budget(moduli, monkeypatch) -> None:
    # on Z_p^n the units and shears generate GL_n(F_p), whose order is known
    # in closed form: a group past the budget is not enumerated, and the
    # group returned is the one the enumeration would give
    from egz import rings

    ring = make_ring(moduli)
    order = rings._general_linear_order(ring)
    shortcut = rings.symmetry_index_perms.__wrapped__(ring, True)
    monkeypatch.setattr(rings, "_general_linear_order", lambda ring: None)
    assert rings.symmetry_index_perms.__wrapped__(ring, True) == shortcut
    if order * ring.cardinality <= rings.SYMMETRY_BUDGET:
        assert len(shortcut) == order


@pytest.mark.parametrize(
    "moduli", [(2, 2), (2, 4), (3, 3), (4, 4), (3, 9), (2, 2, 2), (2, 2, 4), (5, 5)]
)
def test_symmetry_perms_respect_the_ring(moduli) -> None:
    # every map of the additive group is an additive automorphism, so it
    # keeps zero sums; every map of the ring group is h = u * s with s a ring
    # automorphism, so h(ab) h(1) = h(a) h(b) and zero e_m values stay zero
    ring = make_ring(moduli)
    add_t, mul_t = add_index_table(ring), mul_index_table(ring)
    one = element_index(ring, ring.one)
    pairs = list(itertools.product(range(ring.cardinality), repeat=2))
    for p in symmetry_index_perms(ring, True):
        assert sorted(p) == list(range(ring.cardinality))
        assert all(p[add_t[a][b]] == add_t[p[a]][p[b]] for a, b in pairs)
    for p in symmetry_index_perms(ring, False):
        assert all(p[add_t[a][b]] == add_t[p[a]][p[b]] for a, b in pairs)
        assert all(mul_t[p[mul_t[a][b]]][p[one]] == mul_t[p[a]][p[b]] for a, b in pairs)


def test_ring_caches_stay_bounded() -> None:
    # library use over many rings must not grow the table caches without limit
    from egz import multiset, rings, search

    tables = [
        rings.elements, rings._index_map, rings.units, rings.add_index_table,
        rings.mul_index_table, rings.scalar_index_table, rings.unit_index_perms,
        multiset.orbit_perms,
    ]
    for n in range(2, 42):
        ring = make_ring((n,))
        for fn in tables:
            fn(ring)
        rings.symmetry_index_perms(ring, True)
        search._kit(ring, True)
    for fn in tables + [rings.symmetry_index_perms, search._kit]:
        assert fn.cache_info().currsize <= 32, fn.__name__


def test_format_elem() -> None:
    assert format_elem(make_ring((9,)), (4,)) == "4"
    assert format_elem(make_ring((2, 4)), (1, 3)) == "(1,3)"


def test_parse_moduli() -> None:
    assert parse_moduli("9") == (9,)
    assert parse_moduli("2x4") == (2, 4)
    assert parse_moduli("2,2,2") == (2, 2, 2)
    assert parse_moduli(" 3 x 3 ") == (3, 3)
    with pytest.raises(ValueError):
        parse_moduli("")
    with pytest.raises(ValueError):
        parse_moduli("2x")
    with pytest.raises(ValueError):
        parse_moduli("abc")


def test_exponent_is_lcm() -> None:
    assert make_ring((4, 6)).exponent == 12
    assert make_ring((2, 2, 2)).exponent == 2
    assert make_ring((3, 5)).exponent == 15


def test_ring_spec_hashable_and_frozen() -> None:
    ring = make_ring((3, 3))
    assert ring == RingSpec((3, 3))
    assert hash(ring) == hash(RingSpec((3, 3)))
    with pytest.raises(AttributeError):
        ring.moduli = (2,)  # type: ignore[misc]


def test_symmetry_groups_refuse_rings_past_256_elements() -> None:
    # the closure keeps each map as bytes, one per element index
    with pytest.raises(ValueError, match="at most 256"):
        symmetry_index_perms(make_ring((17, 17)), True)
