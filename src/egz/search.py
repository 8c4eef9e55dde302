"""Exhaustive search for zero-e_m constants over products of cyclic rings.

Two constants are computed for a ring G, a degree m, and (for the first) a
target length t:

  * the least z such that every sequence over G of length >= z contains a
    subsequence of length exactly t whose degree-m elementary symmetric
    value is zero (the generalized EGZ constant), and
  * the least z such that every sequence of length >= z contains a
    subsequence of length >= m with zero degree-m value (the generalized
    Davenport constant).

Both equal 1 + (the longest counterexample length), where a counterexample
is a sequence none of whose qualifying subsequences has value zero. The
search state is a multiset stored as a multiplicity vector over the ring's
fixed element order. Two facts drive the algorithm:

  * Downward closure: removing one element from a counterexample leaves a
    counterexample, so a multiset of length L+1 is a counterexample iff all
    of its one-element-removals were counterexamples at level L and, for the
    Davenport kind, its own e_m value is nonzero (the multiset itself is the
    one qualifying subsequence not covered by a removal). Levels can
    therefore be built as a frontier BFS with membership tests against the
    previous level only.
  * Orbit reduction: the maps of the group H of
    rings.symmetry_index_perms (unit scalings, which multiply every e_m
    value by the unit c^m; coordinate swaps of equal moduli, which are ring
    automorphisms; and for m = 1 the shears, additive automorphisms that
    fix the zero sum) keep counterexample status, so each level keeps one
    representative per H-orbit: the lex-least member on the tuple step, the
    member of least canonical key on the array step (see _Rows).

The witness stays the lex-least counterexample of the final length, as if
only units reduced: the counterexamples of one length are a union of
H-orbits, so the least of them is the least member over all images of the
stored classes. A tuple level keeps lex-least members, so its least tuple
is it; for an array level _Rows.least finds it among the images. It is
unit-canonical, because H contains the units, so witnesses and certificate
bytes do not depend on H or on the representatives a level keeps.

The frontier seeds at level t for the EGZ kind (every shorter multiset is
vacuously a counterexample; level t keeps those with e_m != 0) and at level
m-1 for the Davenport kind. Seed levels are built by the same level step as
the rest, from the empty multiset and without the closure test. A run
"closes" when some level at or below the cap turns out empty, which certifies
the exact constant by exhaustion; hitting the cap with a nonempty frontier
yields a verified lower bound only. Caps come from the caller or, for the
EGZ kind, from the hypothesis-checked upper-bound calculators in bounds;
when a bound B applies, the search runs through level B so that exactness
never rests on the bound itself.

The levels do not depend on the cap, so one BFS answers every cap of one
(kind, ring, m, t). Each kit (one per ring and search group, see _kit)
caches up to _SEARCHES of them as _Search: the size and least class of
every level made so far, and the generator that makes the next one,
suspended (before an array step it also holds the previous level and its
extension masks, for the next closure table). A query sends the recorded
levels up to its cap through progress and resumes the generator only for
levels past the last one; its answer, witness, certificate bytes and
progress calls are those of a search from the seed, whatever was asked
before. A suspended frontier stays only while the kit's sum of them is at
most _SUSPEND_BYTES (64 KiB, so 2 MiB over the 32 kits); past that the
generator is closed, and a larger cap runs again from the seed. A
recorded level costs about 8 |G| + 150 bytes. A search that raised
(MemoryError, KeyboardInterrupt) leaves the cache, and
verify_certificate's re-check runs a new search outside it.

A level step has two implementations with the same output. Each keeps the
one-element extensions of the stored representatives whose one-element
removals all lie in the previous level's H-orbits and (Davenport kind, and
the EGZ seed) whose e_m is nonzero, and only then maps the survivors to
their H-representatives and dedupes. Both tests are H-invariant properties
of the candidate alone, so the order they run in does not change the
survivors. No orbit is missed: if X is a counterexample of length L+1 and a
is in X, then X - a lies in h(R) for a stored R and some h in H, so
h^-1(X) = R + h^-1(a) extends R. Canonicalizing every candidate first would
cost |H| images per candidate, most of which the closure test then rejects.
The tuple step (_step_tuples) makes the raw extensions in Python on sets of
tuples, dedupes them, then tests closure, then e_m; it serves levels whose
estimated Python cost, _tuple_cost (candidates, and images charged by their
width), is below _SMALL_LEVEL, whether or not e_m is tested, where numpy's
fixed cost per call would dominate. The array step (_Rows.step), one body
for rows of every width, keeps the level as a sorted (N, width) uint8
array, one byte per element, and works in blocks of parents
(_Rows.block_rows: at most _BLOCK_ROWS rows and _BLOCK_BYTES of images or
canonical keys). It takes e_m of each extension R + g from its parent R:
e_{m-1} and e_m of a block of parents once, from their power sums by
Newton's identities (_Rows.elementary; I. G. Macdonald, Symmetric Functions
and Hall Polynomials, 2nd ed., 1995, I.2), then whether
e_m(R + g) = e_m(R) + g e_{m-1}(R) is nonzero, for every g by one lookup
per coordinate in packed bit tables (_Rows.em_masks), on rows of every
width. The power sums are residues mod m! n, exact in int64 only while
(m! n)**2 < 2**63 (_em_fits); a level past that which tests e_m takes the
tuple step. Each array level is sorted. Levels from 255 on, whose
extensions could hold a multiplicity past 255, take the tuple step; below
them a row holds at most 255 elements, which keeps every canonical key an
exact uint16.

The array step tests an extension before it makes it, levelwise (the
pruning of R. Agrawal and R. Srikant, "Fast algorithms for mining
association rules", VLDB 1994). Each parent R gets an extension mask,
width / 8 bytes packed little-endian: bit g set when R + g lies in the next
level. It is the e_m mask, ANDed on a closed level with the masks of R's
removals, since R + g - i = (R - i) + g must lie in R's own level, and the
step that made that level knew which extensions of R - i do. A step that
tested closure or e_m hands its parents and their masks on (_advance), and
the next closed step looks every removal R - i of its parents up in a table
built from them. Each lookup must hit: a miss raises RuntimeError. A tuple
step's masks are those it decided as it went; the first closed Davenport
level follows an untested seed level and needs no lookups. Once every
parent's mask is decided the table goes, and the step makes only the
extensions the masks allow, as keys, dedupes them per block of parents and
over the level, and maps each to the key of its canonical form. Every key
is exact, so every level is the true one.

The width changes only the keys. On rows of at most 8 elements a row is
one uint64 word, its key, whose order is tuple order. The table holds the
keys of all |H| images of the parents, each with its low byte (see
_Rows.table) replaced by the image's mask (bit j is bit perm_h[j] of the
parent's, since image h of R + perm_h[j] is h(R) + j), sorted. The removals
of a block of parents are one np.searchsorted, column by column, in
ascending runs. An extension's key is key(R) + w[g], w[g] = 256**(7 - g),
which adds one to byte g and never carries below _ROW_MAX, one sorted run
per g, and its canonical form is its image of least word, the lex-least.

Wider rows are keyed by their bytes as one void scalar, whose memcmp order
is tuple order. The table holds the key of each parent's canonical form
h(R), with the form's mask (bit j is bit perm_h[j] of R's), sorted: N keys,
not N |H|. An array level is its own canonical forms, sorted, so its keys
and masks are its table as they are; only tuples are canonicalized there
(a tuple level's lex-least members, which _advance hands on as sorted
tuples whichever step took them). A removal X = R - i is looked up by its
canonical form h(X), and bit g of X's mask is bit inverse[g, h] of the
form's. A block of parents looks up all its (row, removal) pairs in one
pass, in chunks: the canonical keys of R - i's images are R's less C[i],
and np.bitwise_and.reduceat ANDs each row's removal masks. An extension's
key is that of its row; the canonical keys of all |H| images of a block of
rows are one np.einsum product, and only the image of least key is
gathered (the lex-least of distinct images that tie at it: a function of
the orbit, so a form is its own form).

The independent full testers (is_counterexample_*) are one walk,
_find_zero_sub, with a window of sizes: exactly t for the EGZ kind, at least
m for the Davenport kind. It re-enumerates sub-multiset multiplicity vectors
depth first over the positions of nonzero multiplicity, in lex order, and
returns the first one in the window with e_m = 0. Along the walk the
truncated generating product gains one linear factor (1 + g x) per element
taken, a second route to e_m beside the binomial factors of the tuple
step's _Rows.em_mult. They are the oracle route used by certificate
verification, by the check of every direct witness, and by the tests that
pin the frontier to unpruned search.

Direct enumeration (method="direct", _least_counterexample) shares none of
the frontier's machinery: no rows, no search group, no unit permutations,
no keys, and nothing carried from one length to the next. For each
length it walks the multiplicity vectors depth first in lex order, carrying
the e_1..e_m values and sizes of the prefix's sub-multisets, and cuts a
count once it completes a zero-sum sub-multiset. Its first leaf is the
length's lex-least counterexample, unit-canonical because a unit image of a
counterexample is one; a length with no leaf closes the search. Each
witness is then confirmed by the full tester, and a disagreement raises.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import bounds, numtheory, rings
from .multiset import MultisetSeq
from .rings import RingSpec

KIND_EGZ = "egz"
KIND_DAV = "davenport"

METHOD_FRONTIER = "frontier_exhaustive"
METHOD_DIRECT = "direct_exhaustive"
METHOD_PRECHECK = "infinite_precheck"

OUTCOME_EXACT = "exact"
OUTCOME_AT_LEAST = "at_least"
OUTCOME_INFINITE = "infinite"

Progress = Optional[Callable[[int, int], None]]


def _check_method(method: str) -> None:
    if method not in ("frontier", "direct"):
        raise ValueError(f"unknown method {method!r}")


def _check_ints(optional: tuple[str, ...] = (), **values) -> None:
    """Raise ValueError on a value that is not an int, unless it is None and
    its name is optional: a bool is not one (JSON true loads as one), nor is
    a float, a string or None."""
    for name, value in values.items():
        if not (value is None and name in optional or numtheory.is_int(value)):
            raise ValueError(f"{name} must be an int, not {value!r}")


class MissingCapError(ValueError):
    """No usable search cap: no checked bound applies and none was given."""


@dataclass(frozen=True)
class EgzOutcome:
    """Result of a constant computation.

    kind is "exact", "at_least" (value is a verified lower bound reached at
    the cap), or "infinite". value is None only for "infinite". witness is
    the lex-least canonical counterexample of maximum found length, or the
    generator of the all-ones family for "infinite" (one copy of the
    multiplicative identity, standing for (1,...,1) repeated arbitrarily).
    """

    kind: str
    value: int | None
    witness: MultisetSeq
    method: str
    cap_used: int | None


# The most rows of one numpy block (_Rows.block_rows), and bytes per block
# of canonical keys or images under the group: the first bounds a block's
# extension keys under small groups, the second its canonical pass under
# large ones.
_BLOCK_ROWS = 4096
_BLOCK_BYTES = 1 << 21
# Bytes per chunk of a block's (row, removal) pairs on wide rows
# (_Rows.masks): a pair's canonical keys, 2 |H|, and its image's gather
# index, 8 width
_PAIR_BYTES = 1 << 17
# Levels whose estimated tuple-step cost (_tuple_cost) is below this take
# the tuple step, whether or not they test e_m: below it numpy's fixed cost
# per call outweighs the work.
_SMALL_LEVEL = 96
# Largest multiplicity of a uint8 row. A level's extensions are one longer
# than the level, so levels from _ROW_MAX on take the tuple step.
_ROW_MAX = 0xFF
# Seed of the weights of wide rows' canonical keys: any fixed value keeps
# runs deterministic.
_KEY_SEED = 0x243F6A8885A308D3
_MASK64 = (1 << 64) - 1
# A one-word key but its low byte, which a closure table entry replaces by
# an extension mask.
_HIGH_BYTES = np.uint64(_MASK64 ^ 0xFF)
# Kits _kit keeps; searches each kit caches; bytes of suspended frontiers
# each kit keeps, so _BLOCK_BYTES over the cached kits (see _Search).
_KITS = 32
_SEARCHES = 32
_SUSPEND_BYTES = _BLOCK_BYTES // _KITS


def _splitmix64(n: int) -> list[int]:
    """The first n splitmix64 outputs from _KEY_SEED; pure Python, because
    importing numpy.random would cost about 6 MB per process."""
    out = []
    x = _KEY_SEED
    for _ in range(n):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def _canonical_weights(card: int) -> np.ndarray:
    """Weights c (uint16) of the canonical key sum X[i] c[i] of a row wider
    than one word: 1 + the top byte of splitmix64 outputs, so 1 to 256. A
    row holds at most _ROW_MAX elements, so every key is below 255 * 256 <
    2**16 and never wraps: the least key puts a row's largest multiplicities
    on the elements of least weight, so the forms of related rows align, and
    their extensions overlap and dedupe. (Keys mod 2**16 of wider weights
    choose forms at random, and about 1.8 times as many survivors reach the
    canonical pass of E(5, Z_5 x Z_5, 1).)"""
    return np.array([(z >> 56) + 1 for z in _splitmix64(card)], np.uint16)


# Largest ring the search builds tables for: the rings index tables hold
# card**2 and exponent * card Python ints, and every array level card
# columns per row.
MAX_CARDINALITY = 256


def _index_tables(ring: RingSpec):
    """(add_t, mul_t, one_idx): the ring's cached index tables and the index
    of 1. Raises ValueError, before any table is built, on a ring past
    MAX_CARDINALITY."""
    if ring.cardinality > MAX_CARDINALITY:
        raise ValueError(
            f"{ring} has {ring.cardinality} elements; the search handles at most "
            f"{MAX_CARDINALITY}"
        )
    one_idx = rings.element_index(ring, ring.one)
    return rings.add_index_table(ring), rings.mul_index_table(ring), one_idx


class _Rows:
    """The level step's kit for one ring and one symmetry group H: H as
    itemgetters for the tuple step, and the array form of the step.

    A row is a multiplicity vector in uint8, zero-padded to whole 8-byte
    words. keys() is exact: the row's bytes as one void scalar, or a
    one-word row's word as a uint64; the padding is the same in every row,
    so their order (memcmp) is tuple order. Image h of X is X.take(perm_h),
    and a key X' @ v of an image X' is X @ V[:, h] with V[perm_h[j], h] =
    v[j] (image_weights). A canonical form is the image of least canonical
    key: on one-word rows its word (canonical_keys), the lex-least image;
    on wider ones its key under C, for one np.einsum (whose uint16 loop is
    vectorized: about 7 times faster than a uint64 or int64 matrix product,
    which numpy runs without BLAS). It is a function of the orbit, so the
    rows of an array level, canonical forms, are their own forms.

    elementary() gives each parent R's e_{m-1} and e_m as residues per
    coordinate, and em_masks() says from _em_bits whether e_m(R + g) =
    e_m(R) + g e_{m-1}(R) is nonzero. masks() gives each parent the
    extensions that reach the next level, from that and the previous
    level's table(), packed little-endian in width // 8 bytes on rows of
    every width; step() makes those extensions as keys (extension_keys).
    """

    __slots__ = (
        "ring", "card", "add_t", "mul_t", "one_idx", "width",
        "images", "perm", "inverse", "w", "C", "one_word", "eye", "full",
        "_key_view", "_factors", "_em_bits", "_image_masks", "searches",
    )

    def __init__(self, ring: RingSpec, sym) -> None:
        self.ring = ring
        self.card = card = ring.cardinality
        self.add_t, self.mul_t, self.one_idx = _index_tables(ring)
        self.width = width = -(-card // 8) * 8
        self.one_word = width == 8
        self._key_view = np.dtype(">u8" if self.one_word else f"V{width}")
        self.images = [operator.itemgetter(*p) for p in sym]  # img(mult) is an image
        pad = list(range(card, width))  # padding columns map to themselves
        self.perm = np.array([list(p) + pad for p in sym], dtype=np.intp)
        # inverse[perm_h[j], h] = j: a gather by it is faster than a scatter by perm
        self.inverse = np.ascontiguousarray(self.perm[:, :card].argsort(axis=1).T)
        # w[g] = 256**(7 - g) adds one to byte g of a one-word key; wider
        # rows read their canonical keys through C
        self.w = self.C = None
        if self.one_word:
            self.w = np.array([1 << 8 * (7 - i) for i in range(card)], np.uint64)
        else:
            self.C = self.image_weights(_canonical_weights(card))
        self.eye = np.eye(card, width, dtype=np.uint8)
        # the packed mask of every extension, which an untested level's rows share
        self.full = np.frombuffer(((1 << card) - 1).to_bytes(width // 8, "little"), np.uint8)
        self._factors: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._image_masks = None  # (256, |H|): a mask's image under each map, made by table()
        # _em_bits[k][a, b]: bit g (of width // 8 bytes, little-endian) set when
        # a + b g != 0 in coordinate k, for residues a, b mod its modulus,
        # built as b g != -a for blocks of a of about _BLOCK_BYTES // 2 bools
        self._em_bits = []
        lifts = np.array(rings.elements(ring))  # (card, rank) residues
        for k, n in enumerate(ring.moduli):
            a = np.arange(n)
            bg, neg = np.outer(a, lifts[:, k]) % n, (-a % n)[:, None, None]
            bits = np.empty((n, n, width // 8), np.uint8)
            per = max(1, _BLOCK_BYTES // 2 // bg.size)
            for lo in range(0, n, per):
                nonzero = bg != neg[lo : lo + per]
                bits[lo : lo + per] = np.packbits(nonzero, axis=2, bitorder="little")
            self._em_bits.append(bits)
        self.searches: dict[tuple, _Search] = {}  # by (kind, m, t), least recent first

    def from_tuples(self, members) -> np.ndarray:
        vals = np.array(list(members), dtype=np.int64).reshape(-1, self.card)
        assert vals.max(initial=0) <= _ROW_MAX, "multiplicity past a uint8 row"
        rows = np.zeros((len(vals), self.width), np.uint8)
        rows[:, : self.card] = vals
        return rows

    def to_tuples(self, rows: np.ndarray) -> set[tuple[int, ...]]:
        return set(map(tuple, rows[:, : self.card].tolist()))

    def keys(self, rows: np.ndarray) -> np.ndarray:
        raw = np.ascontiguousarray(rows).view(self._key_view).ravel()
        return raw.astype(np.uint64) if self.one_word else raw

    def from_keys(self, keys: np.ndarray) -> np.ndarray:
        """The rows of keys() values, as a view of their big-endian bytes."""
        raw = keys.astype(self._key_view, copy=False)
        return raw.view(np.uint8).reshape(-1, self.width)

    def extend(self, rows: np.ndarray) -> np.ndarray:
        """All len(rows) * card one-element extensions, parent-major."""
        return (rows[:, None, :] + self.eye).reshape(-1, self.width)

    def extension_keys(self, rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """The keys of the extensions R + g of rows below _ROW_MAX with bit g
        set in R's mask. On one word, one run per g: R's key plus w[g], which
        adds one to byte g and never carries, so sorted rows give sorted
        runs; on wider rows, the keys of the extension rows, parent-major."""
        if not self.one_word:
            bits = np.unpackbits(masks, axis=1, count=self.card, bitorder="little")
            return self.keys(self.extend(rows)[bits.ravel() > 0])
        grown = self.keys(rows) + self.w[:, None]  # (card, N), one row per g
        if (masks == self.full).all():  # a seed level's: every extension
            return grown.ravel()
        return grown[(masks[:, 0] >> np.arange(self.card, dtype=np.uint8)[:, None] & 1).view(bool)]

    def image_weights(self, v: np.ndarray) -> np.ndarray:
        """V with V[perm_h[j], h] = v[j]: row @ V[:, h] is the key of image
        h of the row under the weights v."""
        return v.take(self.inverse)

    def block_rows(self) -> int:
        """Rows per block, at most _BLOCK_ROWS, whose canonical keys or image
        words (|H| of at most 8 bytes each) and image index (width of 8
        bytes) fit _BLOCK_BYTES: 4096 on one-word rows while |H| <= 56."""
        size = 8 * (len(self.perm) + self.width)
        return max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // size))

    def canonical(self, rows: np.ndarray, keys=None) -> tuple[np.ndarray, np.ndarray]:
        """The image of least canonical key (see C) of each row wider than
        one word, and among distinct images that share it, the lex-least: a
        function of the row's orbit. Returns the forms and, for each row, the
        index of a map h with h(row) its form. One product gives the keys
        (unless given: those of every image, which canonical overwrites),
        and one gather the image; only the images that tie at a row's least
        key are gathered and compared."""
        n = len(rows)
        if keys is None:
            keys = np.einsum("ij,jk->ik", rows[:, : self.card].astype(np.uint16), self.C)
        pick = keys.argmin(axis=1)
        at = np.arange(n)
        out = rows[at[:, None], self.perm[pick]]
        low = keys[at, pick]
        keys[at, pick] = 0xFFFF  # above every key
        tied = np.flatnonzero(keys.min(axis=1) == low)
        if not len(tied):
            return out, pick
        r, h = np.nonzero(keys[tied] == low[tied, None])
        r = tied[r]  # with h, the other maps at a row's least key
        images = rows[r[:, None], self.perm[h]]
        differ = (images != out[r]).any(axis=1)
        if differ.any():  # distinct images share the least key
            r = r[differ]
            images = np.concatenate((images[differ], out[r]))
            h = np.concatenate((h[differ], pick[r]))
            r = np.concatenate((r, r))
            order = np.lexsort(tuple(images[:, : self.card].T[::-1]) + (r,))
            ranked = r[order]  # by row, then image in tuple order
            first = order[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
            out[r[first]] = images[first]
            pick[r[first]] = h[first]
        return out, pick

    def image_words(self, rows: np.ndarray) -> np.ndarray:
        """The words of all |H| images of one-word rows, (N, |H|) big-endian:
        their keys, gathered."""
        return rows.take(self.perm, axis=1).view(">u8")[:, :, 0]

    def canonical_keys(self, rows: np.ndarray) -> np.ndarray:
        """keys() of the rows' canonical forms: on one word the least of the
        words of their images (by argmin and a gather: a min over big-endian
        words takes about twice as long), on wider rows those of canonical."""
        if not self.one_word:
            return self.keys(self.canonical(rows)[0])
        words = self.image_words(rows)
        return words[np.arange(len(rows)), words.argmin(axis=1)].astype(np.uint64)

    def least(self, rows) -> tuple[int, ...]:
        """The lex-least member of the union of the rows' orbits. A tuple
        level (a set) keeps lex-least members, and so do one-word rows: its
        least tuple, or row 0 of a sorted level, is it. Wider rows read an
        image as chunks
        of digits consecutive elements, each chunk a number in base b (the
        rows' largest multiplicity + 1) below 2**16, an exact uint16 (b is
        at most 256, so digits is at least 2). One np.einsum gives the first
        chunk of every image of a block of rows; a mask keeps the (row,
        image) pairs at its least value, and each next chunk, one einsum
        over the rows still in play, narrows it. A running best spans the
        blocks."""
        card, n_h = self.card, len(self.perm)
        if isinstance(rows, set):
            return min(rows)
        if self.one_word:
            return tuple(rows[0, :card].tolist())
        base = int(rows[:, :card].max()) + 1
        digits = 1
        while digits < card and base ** (digits + 1) <= 1 << 16:
            digits += 1
        chunks = -(-card // digits)
        chunk = np.arange(card) // digits
        radix = np.array([base ** (digits - 1 - j % digits) for j in range(card)], np.uint16)
        V = [self.image_weights(np.where(chunk == c, radix, 0)) for c in range(chunks)]
        per = max(1, _BLOCK_BYTES // (4 * n_h))
        best = None
        for lo in range(0, len(rows), per):
            block = rows[lo : lo + per, :card].astype(np.uint16)
            mask = np.ones((len(block), n_h), bool)
            for c in range(chunks):
                keys = np.einsum("ij,jk->ik", block, V[c])
                keys[~mask] = 0xFFFF  # below no key in play
                mask &= keys == keys.min()
                del keys  # before the next product
                play = mask.any(axis=1)
                block, mask = block[play], mask[play]
            found = tuple(block[0, self.perm[mask[0].argmax(), :card]].tolist())
            best = found if best is None else min(best, found)
        return best

    def elementary(self, rows: np.ndarray, m: int) -> np.ndarray:
        """e_{m-1} and e_m of each row by Newton's identities, as an (N, 2,
        rank) uint16 array of residues, one per coordinate. With M = m! n
        for a coordinate modulus n, the power sums p_1..p_m mod M of a row
        are one int64 product of the rows with the lifts' powers, and E_j =
        j! e_j mod M follows from E_0 = 1 by the recursion E_j = sum over i
        = 1..j of (-1)**(i-1) (j-1)!/(j-i)! E_{j-i} p_i; e_j mod n is E_j
        taken mod j! n and divided by j!. Every product of two residues
        stays below M**2, exact in int64 when _em_fits."""
        P, M = _powers(self.ring, m)
        rank, n = len(M), M // math.factorial(m)
        p = (rows[:, : self.card].astype(np.int64) @ P).reshape(-1, rank, m) % M[:, None]
        E = [1]
        for j in range(1, m + 1):
            acc = 0
            for i in range(1, j + 1):
                coeff = (-1) ** (i - 1) * math.perm(j - 1, i - 1) % M
                acc = (acc + coeff * E[j - i] % M * p[:, :, i - 1]) % M
            E.append(acc)
        out = np.empty((len(rows), 2, rank), np.uint16)
        for slot, j in enumerate((m - 1, m)):
            scale = math.factorial(j)
            out[:, slot] = E[j] % (scale * n) // scale
        return out

    def em_masks(self, rows: np.ndarray, m: int) -> np.ndarray:
        """The rows' e_m masks, width // 8 bytes each: bit g (little-endian)
        set when e_m(R + g) = e_m(R) + g e_{m-1}(R) is nonzero, the OR over
        coordinates k of _em_bits[k] at R's residues (e_m, e_{m-1}) mod n_k."""
        e = self.elementary(rows, m)
        out = np.zeros((len(rows), self.width // 8), np.uint8)
        for k, bits in enumerate(self._em_bits):
            out |= bits[e[:, 1, k], e[:, 0, k]]
        return out

    def _factor(self, g: int, c: int, m: int) -> tuple[int, ...]:
        # (1 + g x)^c truncated at degree m, coefficient j equal to C(c, j)
        # g^j with the binomial reduced mod the exponent (which fixes it per
        # coordinate modulus)
        key = (g, c, m)
        poly = self._factors.get(key)
        if poly is None:
            scal_t = rings.scalar_index_table(self.ring)
            out = [self.one_idx] + [0] * m
            powj = self.one_idx
            for j in range(1, min(c, m) + 1):
                powj = self.mul_t[powj][g]
                out[j] = scal_t[math.comb(c, j) % self.ring.exponent][powj]
            poly = self._factors[key] = tuple(out)
        return poly

    def em_mult(self, mult, m: int) -> int:
        """Element index of e_m of one multiplicity vector, the product of
        the binomial factors (1 + g x)^c truncated at degree m: the tuple
        step's e_m."""
        add_t = self.add_t
        mul_t = self.mul_t
        poly = (self.one_idx,) + (0,) * m
        for g in range(1, self.card):  # element 0 is the ring zero: identity factor
            c = mult[g]
            if not c:
                continue
            f = self._factor(g, c, m)
            out = [0] * (m + 1)
            for i, a in enumerate(poly):
                if a:  # index 0 is the ring zero, so are its products
                    row = mul_t[a]
                    for k, b in enumerate(f[: m - i + 1], i):
                        if b:
                            out[k] = add_t[out[k]][row[b]]
            poly = out
        return poly[m]

    def step(self, rows: np.ndarray, em_m: int | None, prev=None):
        """The array level step: as _step_tuples, on sorted distinct rows.
        em_m asks for the e_m test; prev, what _advance handed on from the
        step before (its parents, their masks), for the closure test, None
        on a seed level. Each parent's extension mask (masks), per block of
        parents: the previous level's table lives only for these lookups,
        before any extension is made. Then only the extensions the masks
        allow, deduped as keys per block of parents and over the level, and
        their canonical forms. Returns the next level, sorted, and the
        rows' masks."""
        table = None if prev is None else self.table(*prev)
        per = self.block_rows()
        parts = [slice(lo, lo + per) for lo in range(0, len(rows), per)]
        masks = np.concatenate([self.masks(rows[p], table, em_m) for p in parts])
        del table
        cands = _distinct(np.concatenate([
            _distinct(self.extension_keys(rows[p], masks[p])) for p in parts
        ]))
        out = _distinct(np.concatenate([
            self.canonical_keys(self.from_keys(cands[lo : lo + per]))
            for lo in range(0, len(cands), per)
        ] or [cands]))
        return self.from_keys(out), masks

    def masks(self, rows: np.ndarray, table, em_m) -> np.ndarray:
        """Extension masks of the rows, packed as em_masks: bit g set when
        R + g is in the next level. That is the e_m mask (every bit when
        em_m is None), and with a table, the AND of the masks it holds for
        each removal R - i, since R + g - i = (R - i) + g must lie in R's own
        level. Each removal of a stored class lies in the previous level, so
        every lookup must hit; a miss raises RuntimeError. A row whose mask
        is empty looks nothing up. On one word all removals of the rows are
        one np.searchsorted, column by column, so sorted rows give ascending
        runs. Wider rows take their (row, removal) pairs from the same held
        grid, row by row, and in chunks of _PAIR_BYTES look up the canonical
        form h(R - i) of each pair's removal; bit g is bit inverse[g, h] of
        the form's mask, and np.bitwise_and.reduceat ANDs each row's. The
        canonical keys of R - i's images are R's less C[i], so one product
        serves every pair."""
        card = self.card
        if em_m is None:
            out = np.full((len(rows), len(self.full)), self.full)
        else:
            out = self.em_masks(rows, em_m)
        if table is None:
            return out
        if self.one_word:
            held = (rows[:, :card] > 0).T & (out[:, 0] > 0)  # (card, N): the removals to look up
            removals = (self.keys(rows) - self.w[:, None] & _HIGH_BYTES)[held]
            found = table[table.searchsorted(removals).clip(max=len(table) - 1)]
            if (found & _HIGH_BYTES != removals).any():
                raise self._missing()
            got = np.full(held.shape, 0xFF, np.uint8)
            got[held] = found.astype(np.uint8)  # the masks, in the low byte
            out[:, 0] &= np.bitwise_and.reduce(got, axis=0)
            return out
        forms, masks = table
        held = (rows[:, :card] > 0) & out.any(axis=1)[:, None]
        r, i = np.nonzero(held)  # the (row, removal) pairs, row by row
        if not len(r):
            return out
        keys = np.einsum("ij,jk->ik", rows[:, :card].astype(np.uint16), self.C)
        bits = np.empty((len(r), out.shape[1]), np.uint8)
        per = max(1, _PAIR_BYTES // (2 * len(self.perm) + 8 * self.width))
        for lo in range(0, len(r), per):
            rr, ii = r[lo : lo + per], i[lo : lo + per]
            form, h = self.canonical(rows[rr] - self.eye[ii], keys[rr] - self.C[ii])
            found = self.keys(form)
            at = forms.searchsorted(found).clip(max=len(forms) - 1)
            if (forms[at] != found).any():
                raise self._missing()
            bits[lo : lo + per] = self.image_bits(masks[at], self.inverse.T[h])
        starts = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
        out[r[starts]] &= np.bitwise_and.reduceat(bits, starts, axis=0)
        return out

    def image_bits(self, masks: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Packed masks whose bit j is bit index[r, j] of packed mask r."""
        bits = np.unpackbits(masks, axis=1, bitorder="little")
        return np.packbits(bits[np.arange(len(masks))[:, None], index], axis=1, bitorder="little")

    def _missing(self) -> RuntimeError:
        return RuntimeError(
            f"search on {self.ring}: a removal of a stored class is missing "
            "from the previous level's table"
        )

    def table(self, parents, masks: np.ndarray):
        """The closure table of a level of parents (rows, or the tuple
        step's tuples in the order of their masks), built in blocks. On
        one-word rows: the key of each image h(R) of each parent R, its low
        byte (X[7], or padding) replaced by the image's extension mask (bit
        j is bit perm_h[j] of R's), sorted; a level's multisets have one
        length, so the other 7 bytes name the image. On wider rows: the keys
        of the parents' canonical forms h(R), sorted, and the forms' masks
        (bit j is bit perm_h[j] of R's). An array level's rows are their own
        canonical forms, sorted, so their keys and masks are the table as
        they are; tuples, a tuple level's lex-least members, are
        canonicalized here."""
        if not isinstance(parents, np.ndarray):
            parents = self.from_tuples(parents)
        elif not self.one_word:
            return self.keys(parents), masks
        per = self.block_rows()
        if not self.one_word:
            keys, held = [], []
            for lo in range(0, len(parents), per):
                form, h = self.canonical(parents[lo : lo + per])
                keys.append(self.keys(form))
                held.append(self.image_bits(masks[lo : lo + per], self.perm[h]))
            keys = np.concatenate(keys)
            order = keys.argsort()
            return keys[order], np.concatenate(held)[order]
        if self._image_masks is None:  # bit k of a mask is bit inverse[k, h] of its image h
            bits = (np.arange(256)[:, None] >> np.arange(self.card) & 1).astype(np.uint64)
            self._image_masks = bits @ (np.uint64(1) << self.inverse.astype(np.uint64))
        out = np.empty((len(parents), len(self.perm)), np.uint64)
        for lo in range(0, len(parents), per):
            part = out[lo : lo + per]
            part[:] = self.image_words(parents[lo : lo + per])
            part &= _HIGH_BYTES
            part |= self._image_masks[masks[lo : lo + per, 0]]
        out = out.ravel()
        out.sort()
        return out


@lru_cache(maxsize=_KITS)
def _powers(ring: RingSpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, M) for degree m: M[k] = m! n_k for each coordinate modulus n_k,
    and P[g, k m + i - 1] = a**i mod M[k] for the lift a in [0, n_k) of
    coordinate k of element g, i = 1..m."""
    M = [math.factorial(m) * n for n in ring.moduli]
    P = [
        [pow(a, i, M[k]) for k, a in enumerate(e) for i in range(1, m + 1)]
        for e in rings.elements(ring)
    ]
    return np.array(P, np.int64), np.array(M, np.int64)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a key array, sorted in place."""
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


@lru_cache(maxsize=_KITS)
def _kit(ring: RingSpec, additive: bool) -> _Rows:
    """The level-step kit reducing by rings.symmetry_index_perms(ring,
    additive)."""
    _index_tables(ring)  # the size guard, before the group builds a table
    return _Rows(ring, rings.symmetry_index_perms(ring, additive))


# --- full testers (independent oracle route) --------------------------------


def _support(mult) -> tuple[list[int], list[int]]:
    """The positions of mult with nonzero multiplicity, and the suffix sums
    of their multiplicities (one more entry than positions, ending in 0)."""
    support = [i for i, c in enumerate(mult) if c]
    suffix = [0] * (len(support) + 1)
    for k in range(len(support) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + mult[support[k]]
    return support, suffix


def _find_zero_sub(tables, mult, m: int, lo: int, hi: int):
    """Lex-least sub-multiplicity vector of size in [lo, hi] with e_m = 0,
    or None; tables are _index_tables of the ring.

    A depth-first walk over the support of mult, each position's count
    tried in increasing order; a position outside the support can only
    take 0. The truncated product gains one factor (1 + g x) per element
    taken. A branch ends once it has taken lo or more elements with
    e_m = 0 (every later count 0 is the first thing tried), has taken hi,
    or can no longer reach lo."""
    add_t, mul_t, one_idx = tables
    support, suffix = _support(mult)
    end = len(support)
    sub = [0] * len(mult)

    def rec(k: int, taken: int, poly):
        if taken >= lo and poly[m] == 0:
            return tuple(sub)
        if k == end or taken == hi or taken + suffix[k] < lo:
            return None
        g = support[k]
        row = mul_t[g]
        p = list(poly)
        least = lo - taken - suffix[k + 1]  # below it, the later positions hold too few
        for c in range(mult[g] + 1):
            if c and g:  # element 0 is the ring zero: identity factor
                for j in range(m, 0, -1):
                    p[j] = add_t[p[j]][row[p[j - 1]]]
            if c < least:
                continue
            sub[g] = c
            hit = rec(k + 1, taken + c, p)
            if hit is not None:
                return hit
            if taken + c == hi:  # larger counts overshoot hi; cheaper than a bound on c
                break
        sub[g] = 0
        return None

    return rec(0, 0, (one_idx,) + (0,) * m)


def find_egz_zero_sub(mseq: MultisetSeq, t: int, m: int) -> MultisetSeq | None:
    """A length-t sub-multiset with e_m = 0, or None if none exists."""
    _check_ints(t=t, m=m)
    if m < 1 or t < m:
        raise ValueError("need t >= m >= 1")
    hit = _find_zero_sub(_index_tables(mseq.ring), mseq.mult, m, t, t)
    return None if hit is None else MultisetSeq(mseq.ring, hit)


def is_counterexample_egz(mseq: MultisetSeq, t: int, m: int) -> bool:
    """True iff no sub-multiset of length exactly t has e_m = 0."""
    return find_egz_zero_sub(mseq, t, m) is None


def find_dav_zero_sub(mseq: MultisetSeq, m: int) -> MultisetSeq | None:
    """A sub-multiset of length >= m with e_m = 0, or None if none exists."""
    _check_ints(m=m)
    if m < 1:
        raise ValueError("need m >= 1")
    hit = _find_zero_sub(_index_tables(mseq.ring), mseq.mult, m, m, mseq.length)
    return None if hit is None else MultisetSeq(mseq.ring, hit)


def is_counterexample_dav(mseq: MultisetSeq, m: int) -> bool:
    """True iff no sub-multiset of length >= m has e_m = 0."""
    return find_dav_zero_sub(mseq, m) is None


# --- frontier search --------------------------------------------------------


def _vacuous_witness(ring: RingSpec, length: int) -> MultisetSeq:
    # Lex-least canonical multiplicity vector of a given length puts all
    # mass on the last element (the orbit of -1, which contains no element
    # of larger index).
    mult = (0,) * (ring.cardinality - 1) + (length,)
    return MultisetSeq(ring, mult)


def _step_tuples(kit: _Rows, members, prev: set | None, em_m: int | None):
    """The tuple level step: one-element extensions of members, reduced to
    their lex-least images under the kit's group, and each member's
    extension mask, in the order members iterate: bit g set when member + g
    passed its tests (each candidate is tested once, at its first parent).

    With prev given, an extension survives only if every one-element
    removal is an image of a member of prev; with em_m given, only if its
    own e_m value is nonzero.
    """
    card = kit.card
    group = kit.images
    em = kit.em_mult
    orbits = None
    if prev is not None:
        orbits = {img(mult) for mult in prev for img in group}
    passed: dict[tuple[int, ...], bool] = {}
    masks = []
    for mult in members:
        base = list(mult)
        mask = 0
        for g in range(card):
            base[g] += 1
            cand = tuple(base)
            base[g] -= 1
            ok = passed.get(cand)
            if ok is None:
                ok = True
                if orbits is not None:
                    # the removal at g is the parent, a stored representative
                    lst = list(cand)
                    for i, c in enumerate(cand):
                        if c == 0 or i == g:
                            continue
                        lst[i] = c - 1
                        if tuple(lst) not in orbits:
                            ok = False
                            break
                        lst[i] = c
                if ok and em_m is not None and em(cand, em_m) == 0:
                    ok = False
                passed[cand] = ok
            if ok:
                mask |= 1 << g
        masks.append(mask)
    reps: set[tuple[int, ...]] = set()
    covered: set[tuple[int, ...]] = set()
    for mult, ok in passed.items():  # one orbit per new representative
        if ok and mult not in covered:
            orbit = {img(mult) for img in group}
            covered |= orbit
            reps.add(min(orbit))
    return reps, masks


def _tuple_cost(n: int, card: int, group: int) -> int:
    """Estimated Python work of _step_tuples on n members, in candidates:
    n * card of them, plus the orbits of prev and of the survivors, about
    n * group images, each charged by its width, max(card, 8) / 64 of a
    candidate. Up to 8 elements that is 1/8, the weight fitted to timings of
    both steps on every level of the small searches of perfbench's
    batch-small and oracle pools (Z_2 to Z_8, Z_2^2, Z_2^3, Z_2xZ_4 and
    Z_3^2, m <= 3). With it one cutoff, _SMALL_LEVEL, serves levels that
    test e_m and levels that do not. The divisor 64 keeps the weight and was
    checked on timings of both steps on 242 levels of 28 searches, from Z_2
    up to Z_5^2, Z_3xZ_9, Z_2^5, Z_3^3 and Z_4^2 (|H| up to 480; a shared
    2-core machine, numpy 2.4). On their 94 levels of more than 8 elements
    the steps it picks took 0.250 s, the faster step of each level 0.245 s,
    those of divisors 16 to 128 0.246-0.251 s, and those of a flat 1/8 per
    image 0.256 s."""
    return n * card + n * group * max(card, 8) // 64


def _em_fits(ring: RingSpec, m: int) -> bool:
    """Whether _Rows.elementary is exact in int64 for degree m: (m! n)**2 <
    2**63 for the ring's largest coordinate modulus n."""
    return (math.factorial(m) * max(ring.moduli)) ** 2 < 1 << 63


def _on_tuples(kit: _Rows, n: int, level: int, em_m) -> bool:
    """Whether the step from a level of n classes of length level takes the
    tuple step: levels whose extensions could hold a multiplicity past a
    uint8, levels that test an e_m the power sums cannot hold, and small
    levels."""
    return (
        level >= _ROW_MAX
        or (em_m is not None and not _em_fits(kit.ring, em_m))
        or _tuple_cost(n, kit.card, len(kit.images)) < _SMALL_LEVEL
    )


def _advance(kit: _Rows, frontier, level: int, closed: bool, em_m, prev=None):
    """The level after frontier, a set of tuples or a sorted row array of
    multisets of length level, under the kit's group, and what the step
    after it needs of this one; prev is that of the step before.

    closed asks for the closure test against frontier itself; em_m for the
    e_m != 0 test. The tuple step (see _on_tuples) returns a set, the array
    step a sorted array. A step that tested either hands on its parents and
    their extension masks, packed as the array step's (see _Rows.step); any
    other hands on None. An array level goes on as its rows, its own
    canonical forms; a tuple level, whichever step took it, as its tuples
    (sorted, on the array step), which _Rows.table canonicalizes.
    """
    if _on_tuples(kit, len(frontier), level, em_m):
        parents = kit.to_tuples(frontier) if isinstance(frontier, np.ndarray) else frontier
        out, masks = _step_tuples(kit, parents, parents if closed else None, em_m)
        size = kit.width // 8
        masks = np.frombuffer(b"".join(x.to_bytes(size, "little") for x in masks), np.uint8)
        masks = masks.reshape(-1, size)
    else:
        parents = sorted(frontier) if isinstance(frontier, set) else frontier
        rows = parents if isinstance(parents, np.ndarray) else kit.from_tuples(parents)
        out, masks = kit.step(rows, em_m, prev)
    return out, ((parents, masks) if closed or em_m is not None else None)


def _frontier_max(kit: _Rows, kind: str, m: int, t: int | None):
    """The frontier BFS as a generator of (level, frontier): the seed level,
    then each later nonempty level. It stops at the first empty level: the
    search closed there.

    Seed levels skip the closure test: every multiset of length below the
    seed is a counterexample, and at the EGZ seed level t exactly those with
    e_m != 0 are."""
    seed = t if kind == KIND_EGZ else m - 1
    frontier, prev = {(0,) * kit.card}, None
    for level in range(seed):
        seed_em = m if level + 1 == t else None
        frontier, prev = _advance(kit, frontier, level, False, seed_em)
    em_m = m if kind == KIND_DAV else None
    level = seed
    while len(frontier):
        if _on_tuples(kit, len(frontier), level, em_m):
            prev = None  # the tuple step needs nothing of the level before
        yield level, frontier, prev
        frontier, prev = _advance(kit, frontier, level, True, em_m, prev)
        level += 1


def _nbytes(frontier, level: int, prev=None) -> int:
    """Bytes a nonempty frontier of multisets of length level holds: an
    array's buffer, or a set's table and tuples, with 32 bytes for each
    int past 256 a tuple can hold (smaller ints are shared); with prev, the
    previous level and its masks, carried for the next step, too."""
    if prev is not None:
        parents, masks = prev
        return _nbytes(parents, level - 1) + masks.nbytes + _nbytes(frontier, level)
    if isinstance(frontier, np.ndarray):
        return frontier.nbytes
    each = sys.getsizeof(next(iter(frontier))) + 32 * (level // 257)
    return sys.getsizeof(frontier) + len(frontier) * each


class _Search:
    """One frontier BFS of (kind, m, t), resumable to any cap.

    The levels do not depend on the cap, so a search to one cap is a prefix
    of the search to any larger one. levels[i] is (size, least class) of
    level seed + i; gen is the suspended _frontier_max that makes the next
    level, or None, and nbytes the size of the frontier it holds (with the
    previous level and its masks before an array step, see _nbytes); done
    says the level after the last one is empty. A closed gen with done false
    is re-run from the seed when a larger cap needs more levels, and makes
    the same levels again. The kit is passed to each call, not kept, so a
    kit and the searches it caches form no reference cycle unless a
    generator is suspended."""

    __slots__ = ("kind", "m", "t", "seed", "levels", "gen", "nbytes", "done")

    def __init__(self, kind: str, m: int, t: int | None):
        self.kind, self.m, self.t = kind, m, t
        self.seed = t if kind == KIND_EGZ else m - 1
        self.levels: list[tuple[int, tuple[int, ...]]] = []
        self.gen = None
        self.nbytes = 0
        self.done = False

    def close(self) -> None:
        if self.gen is not None:
            self.gen.close()
        self.gen, self.nbytes = None, 0

    def to(self, kit: _Rows, cap: int, progress):
        """The search on kit to cap, at least the seed level: the last
        nonempty level up to cap and its least class. progress gets every
        level up to it, recorded or new."""
        seed = self.seed
        if progress:
            for level, (size, _) in enumerate(self.levels[: cap - seed + 1], seed):
                progress(level, size)
        while not self.done and seed + len(self.levels) <= cap:
            if self.gen is None:
                self.gen = _frontier_max(kit, self.kind, self.m, self.t)
                for _ in self.levels:
                    next(self.gen)
            step = next(self.gen, None)
            if step is None:
                self.done = True
                self.close()
                break
            level, frontier, prev = step
            self.levels.append((len(frontier), kit.least(frontier)))
            self.nbytes = _nbytes(frontier, level, prev)
            if progress:
                progress(level, len(frontier))
        if not self.levels:  # the EGZ seed level is empty
            return seed - 1, _vacuous_witness(kit.ring, seed - 1).mult
        i = min(cap - seed, len(self.levels) - 1)
        return seed + i, self.levels[i][1]


def _cached_search(kit: _Rows, kind: str, m: int, t: int | None, cap: int, progress):
    """_Search.to on the kit's cached search of (kind, m, t). An exception
    (a MemoryError, a KeyboardInterrupt) leaves the search out of the
    cache, since a generator that raised reads as closed. Past _SEARCHES
    the least recently used search goes, and a suspended frontier that
    would take the kit past _SUSPEND_BYTES is dropped."""
    key = (kind, m, t)
    searches = kit.searches
    found = searches.pop(key, None) or _Search(kind, m, t)
    answer = found.to(kit, cap, progress)
    searches[key] = found
    if len(searches) > _SEARCHES:
        searches.pop(next(iter(searches))).close()
    if sum(s.nbytes for s in searches.values()) > _SUSPEND_BYTES:
        found.close()
    return answer


def _counterexample_test(ring: RingSpec, kind: str, m: int, t: int | None):
    """The full tester of kind, as a predicate on multiplicity vectors."""
    tables = _index_tables(ring)
    if kind == KIND_EGZ:
        return lambda mult: _find_zero_sub(tables, mult, m, t, t) is None
    return lambda mult: _find_zero_sub(tables, mult, m, m, sum(mult)) is None


def max_counterexample_length(
    kind: str,
    ring: RingSpec,
    m: int,
    cap: int,
    t: int | None = None,
    method: str = "frontier",
    progress: Progress = None,
) -> tuple[int, MultisetSeq]:
    """Longest counterexample length up to cap, with a lex-least canonical
    witness of that length. Returns cap when the search did not close.

    The frontier search answers from the ring's cached search of (kind, m,
    t), resumed past its recorded levels only when cap needs more (see
    _Search). m, cap and t must be ints (not bools), and the Davenport
    kind takes t=None."""
    return _max_length(kind, ring, m, cap, t, method, progress, cached=True)


def _max_length(kind, ring, m, cap, t, method, progress, cached: bool):
    """max_counterexample_length; cached=False runs a new search, and
    neither reads nor fills the cache."""
    if kind not in (KIND_EGZ, KIND_DAV):
        raise ValueError(f"unknown kind {kind!r}")
    _check_method(method)
    _check_ints(() if kind == KIND_EGZ else ("t",), m=m, cap=cap, t=t)
    if kind == KIND_DAV and t is not None:
        raise ValueError("the Davenport kind takes no t")
    if m < 1:
        raise ValueError("m must be >= 1")
    if cap < m:
        raise ValueError("cap must be >= m")
    if kind == KIND_EGZ:
        if t < m:
            raise ValueError("EGZ kind needs t >= m")
        vacuous = t - 1
    else:
        vacuous = m - 1
    if cap <= vacuous:
        return cap, _vacuous_witness(ring, cap)
    if method == "direct":
        return _direct_max(ring, kind, m, cap, t)

    kit = _kit(ring, m == 1)
    if cached:
        level, least = _cached_search(kit, kind, m, t, cap, progress)
    else:
        level, least = _Search(kind, m, t).to(kit, cap, progress)
    return level, MultisetSeq(ring, least)


_NEVER = sys.maxsize  # no number of copies makes a hit


def _least_counterexample(tables, card: int, kind: str, m: int, t: int | None, length: int):
    """The lex-least counterexample of one length, as a multiplicity
    vector, or None; tables are _index_tables of the ring.

    One depth-first walk over the multiplicity vector, positions in index
    order and each count ascending: lex order. The walk carries the states
    (size, e_1, ..., e_m) of the prefix's sub-multisets, element indices for
    the e_j; one more element g maps e_j to e_j + g e_(j-1). The sizes that
    share (e_1, ..., e_m) are one bit mask, bit j set when j more elements
    make a size that counts: exactly t for the EGZ kind, at least m for the
    Davenport kind. One more element shifts the mask down. An EGZ size that
    reached t, or that can no longer reach it with the elements left, is
    dropped. A hit is a counting size with e_m = 0; no carried state is one.

    The cut: bit j of zero_mask(g, e) says that j copies of g take e to
    e_m = 0, so the least set bit of zero_mask & mask is the least number
    of copies of g that makes a hit from those states. With c* the least of
    these over the prefix's states, every count c >= c* of g puts a
    zero-sum sub-multiset in every completion and is cut; a count below
    keeps the states hit-free. The same bound for each later position h
    caps what h can take, so counts of g that leave more than those caps
    hold are cut too. The last position takes the count left. The first
    leaf is the lex-least counterexample. The memos of after and zero_mask
    live for this one length."""
    add_t, mul_t, one_idx = tables
    egz = kind == KIND_EGZ
    start = 1 << t if egz else (2 << length) - 1 >> m << m
    keep = ~1 if egz else -1  # bit 0 of an EGZ mask: size t, and no hit
    nexts = [{} for _ in range(card)]
    zeros = [{} for _ in range(card)]

    def after(g: int, e: tuple) -> tuple:
        # e plus one g, memoized in nexts[g]
        row = mul_t[g]
        prev = one_idx
        out = []
        for x in e:
            out.append(add_t[x][row[prev]])
            prev = x
        nexts[g][e] = out = tuple(out)
        return out

    def zero_mask(g: int, e: tuple) -> int:
        # bit j set when j copies of g take e to e_m = 0, memoized in zeros[g]
        nxt = nexts[g]
        z = 0
        f = e
        for j in range(1, length + 1):
            f = nxt.get(f) or after(g, f)
            if f[-1] == 0:
                z |= 1 << j
        zeros[g][e] = z
        return z

    mult = [0] * card

    def cut(h: int, states: dict) -> int:
        # least copies of h that make a hit from states, or _NEVER
        known = zeros[h]
        hits = 0
        for e, mask in states.items():
            z = known.get(e)
            hits |= (zero_mask(h, e) if z is None else z) & mask
        return (hits & -hits).bit_length() - 1 if hits else _NEVER

    def walk(g: int, left: int, states: dict):
        most = min(left, cut(g, states) - 1)
        if g == card - 1:
            if left <= most:
                mult[g] = left
                return tuple(mult)
            return None
        # each later position h takes fewer copies than its cut over these
        # states, so together they hold at most spare of the elements left
        spare = 0
        for h in range(g + 1, card):
            spare += min(cut(h, states), left + 1) - 1
            if spare >= left:
                break
        least = left - spare
        nxt = nexts[g]
        seen = dict(states)
        layer = states
        for c in range(most + 1):
            if c:
                grown = {}
                for e, mask in layer.items():
                    mask = mask >> 1 & keep
                    if mask:
                        e = nxt.get(e) or after(g, e)
                        grown[e] = grown.get(e, 0) | mask
                layer = grown
                for e, mask in grown.items():
                    seen[e] = seen.get(e, 0) | mask
            if c < least:
                continue
            rest = left - c
            live = seen
            if egz and rest < t:
                window = (2 << rest) - 1
                live = {e: mask & window for e, mask in seen.items() if mask & window}
            mult[g] = c
            found = walk(g + 1, rest, live)
            if found is not None:
                return found
        mult[g] = 0
        return None

    return walk(0, length, {(0,) * m: start})


def _direct_max(ring: RingSpec, kind: str, m: int, cap: int, t: int | None):
    """Reference search, independent of the frontier: for each length,
    _least_counterexample walks every multiset in lex order, cutting only
    counts that complete a zero-sum sub-multiset, and stops at the first
    counterexample, the length's lex-least one and its witness. It is
    unit-canonical with no unit filter, because a unit image of a
    counterexample is a counterexample. A length with none closes the
    search. Each witness is confirmed by the full tester, and a
    disagreement raises RuntimeError rather than answer."""
    tables = _index_tables(ring)
    is_counterexample = _counterexample_test(ring, kind, m, t)
    start = t if kind == KIND_EGZ else m
    best = start - 1, _vacuous_witness(ring, start - 1)
    for level in range(start, cap + 1):
        least = _least_counterexample(tables, ring.cardinality, kind, m, t, level)
        if least is None:
            return best
        if not is_counterexample(least):
            raise RuntimeError(
                f"direct search: the walk found {least} on {ring}, "
                "which the full tester rejects"
            )
        best = level, MultisetSeq(ring, least)
    return best


# --- constants --------------------------------------------------------------


def infinite_obstruction(ring: RingSpec, m: int, t: int) -> int | None:
    """C(t, m) mod exponent when nonzero (the all-ones family obstruction)."""
    r = numtheory.binom_mod(t, m, ring.exponent)
    return r if r != 0 else None


def default_egz_cap(ring: RingSpec, m: int, t: int) -> int | None:
    """Least value of the upper-bound calculators in bounds whose checked
    hypotheses hold for E(t, ring, m), or None: egz-general-upper and
    egz-primepower-upper on Z_k (pairwise coprime moduli are Z_k with k
    their product, by CRT), egz-p-group-upper on a p-group with t = p^h."""
    calc = bounds.bound_calculator
    found = []
    if ring.exponent == ring.cardinality:  # lcm == product: pairwise coprime
        k = ring.cardinality
        found.append(calc("egz-general-upper", k=k, m=m, t=t))
        kp, tp = numtheory.prime_power(k), numtheory.prime_power(t)
        if kp and tp and kp[0] == tp[0]:
            found.append(calc("egz-primepower-upper", p=kp[0], r=tp[1], s=kp[1], m=m))
    if bounds.is_p_group(ring.moduli):
        pps = [numtheory.prime_power(n) for n in ring.moduli]
        alphas = tuple(e for _, e in pps)
        if t == pps[0][0] ** sum(alphas):
            found.append(calc("egz-p-group-upper", p=pps[0][0], alphas=alphas, m=m))
    return min((b.value for b in found if b.hypotheses_ok), default=None)


def _constant(kind, ring, m, t, cap, method, progress) -> EgzOutcome:
    """Search to the least of cap and, for the EGZ kind, default_egz_cap."""
    auto = default_egz_cap(ring, m, t) if kind == KIND_EGZ else None
    eff = min((c for c in (cap, auto) if c is not None), default=None)
    if eff is None:
        raise MissingCapError(
            f"no checked upper bound applies to E({t}, {ring}, {m}); pass a cap"
            if kind == KIND_EGZ else f"no cap given for D_{m}({ring}); pass a cap"
        )
    length, witness = max_counterexample_length(
        kind, ring, m, eff, t=t, method=method, progress=progress
    )
    label = OUTCOME_EXACT if length < eff else OUTCOME_AT_LEAST
    mname = METHOD_DIRECT if method == "direct" else METHOD_FRONTIER
    return EgzOutcome(label, length + 1, witness, mname, eff)


def egz_constant(
    ring: RingSpec, m: int, t: int, cap: int | None = None, method: str = "frontier",
    workers: int = 1, progress: Progress = None,
) -> EgzOutcome:
    """The generalized EGZ constant for (ring, t, m), by certified search.

    Infinite is decided by the all-ones precheck; otherwise the search runs
    to min(cap, default_egz_cap) and reports Exact only when a level
    emptied, AtLeast otherwise. Raises MissingCapError when neither is
    available. workers is accepted for compatibility and ignored: the
    search is serial.
    """
    _check_method(method)
    _check_ints(("cap",), m=m, t=t, cap=cap)
    if m < 1 or t < m:
        raise ValueError("need t >= m >= 1")
    if infinite_obstruction(ring, m, t) is not None:
        witness = MultisetSeq.from_counts(ring, {ring.one: 1})
        return EgzOutcome(OUTCOME_INFINITE, None, witness, METHOD_PRECHECK, None)
    return _constant(KIND_EGZ, ring, m, t, cap, method, progress)


def davenport_m(
    ring: RingSpec, m: int, cap: int | None = None, method: str = "frontier",
    workers: int = 1, progress: Progress = None,
) -> EgzOutcome:
    """The generalized Davenport constant for (ring, m), by certified search
    to cap, as egz_constant. There is no automatic cap, so the caller must
    give one; raises MissingCapError without it."""
    _check_method(method)
    _check_ints(("cap",), m=m, cap=cap)
    if m < 1:
        raise ValueError("m must be >= 1")
    return _constant(KIND_DAV, ring, m, None, cap, method, progress)
