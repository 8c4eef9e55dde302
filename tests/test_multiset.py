"""Multiset sequences: construction, canonical forms, formatting."""

from __future__ import annotations

import pytest

from egz.multiset import MultisetSeq, canonical_mult, orbit_perms
from egz.rings import make_ring, unit_index_perms


def test_construction_routes_agree() -> None:
    ring = make_ring((3,))
    a = MultisetSeq.from_elements(ring, [(0,), (1,), (1,), (2,), (2,)])
    b = MultisetSeq.from_counts(ring, {(0,): 1, (1,): 2, (2,): 2})
    c = MultisetSeq.from_index_counts(ring, {0: 1, 1: 2, 2: 2})
    d = MultisetSeq(ring, (1, 2, 2))
    assert a == b == c == d
    assert a.length == 5


def test_validation() -> None:
    ring = make_ring((3,))
    with pytest.raises(ValueError):
        MultisetSeq(ring, (1, 2))  # wrong arity
    with pytest.raises(ValueError):
        MultisetSeq(ring, (1, -1, 0))
    with pytest.raises(ValueError):
        MultisetSeq.from_counts(ring, {(5,): 1})


def test_to_sequence_sorted() -> None:
    ring = make_ring((2, 2))
    m = MultisetSeq.from_counts(ring, {(1, 0): 2, (0, 1): 1})
    assert m.to_sequence() == [(0, 1), (1, 0), (1, 0)]
    assert list(m.items()) == [((0, 1), 1), ((1, 0), 2)]


def test_str_formats() -> None:
    ring = make_ring((8,))
    m = MultisetSeq.from_counts(ring, {(0,): 14, (1,): 15})
    assert str(m) == "0^14 1^15"
    ring2 = make_ring((2, 2))
    m2 = MultisetSeq.from_counts(ring2, {(0, 1): 3})
    assert str(m2) == "(0,1)^3"
    assert str(MultisetSeq(ring, (0,) * 8)) == "(empty)"


def test_canonical_is_orbit_minimum() -> None:
    ring = make_ring((5,))
    # multiplying every element by a unit permutes multiplicity slots;
    # canonical_mult is the lex-least image over all unit scalings
    mult = (0, 3, 0, 1, 0)
    canon = canonical_mult(mult, orbit_perms(ring))
    images = [
        tuple(mult[perm[i]] for i in range(5))
        for perm in unit_index_perms(ring)
    ]
    assert canon == min(images)
    # invariant on the whole orbit
    assert all(canonical_mult(img, orbit_perms(ring)) == canon for img in images)


def test_canonical_idempotent_and_flag() -> None:
    ring = make_ring((6,))
    m = MultisetSeq(ring, (2, 0, 1, 0, 0, 3))
    c = m.canonical()
    assert c.canonical() == c
    assert c.is_canonical()
    assert m.canonical().length == m.length


def test_canonical_examples() -> None:
    ring = make_ring((8,))
    # {0:14, 1:15} scales to {0:14, 7:15} under the unit 7, which is
    # lex-smaller as a multiplicity vector
    m = MultisetSeq.from_counts(ring, {(0,): 14, (1,): 15})
    assert m.canonical().mult == (14, 0, 0, 0, 0, 0, 0, 15)

    ring3 = make_ring((3,))
    assert MultisetSeq(ring3, (1, 2, 2)).is_canonical()
    assert MultisetSeq(ring3, (1, 2, 2)).canonical().mult == (1, 2, 2)


def test_empty_multiset() -> None:
    ring = make_ring((4,))
    m = MultisetSeq(ring, (0, 0, 0, 0))
    assert m.length == 0
    assert m.to_sequence() == []
    assert m.is_canonical()
