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
  * Unit-orbit reduction: scaling a multiset by a unit c multiplies every
    e_m value by the unit c^m, so counterexample status is constant on
    orbits and each level keeps one canonical (lex-least) representative
    per orbit.

The frontier seeds at level t for the EGZ kind (every shorter multiset is
vacuously a counterexample; level t keeps those with e_m != 0) and at level
m-1 for the Davenport kind. Seed levels are built by the same level step as
the rest, from the empty multiset and without the closure test. A run
"closes" when some level at or below the cap turns out empty, which certifies
the exact constant by exhaustion; hitting the cap with a nonempty frontier
yields a verified lower bound only. Caps come from the caller or from
hypothesis-checked closed-form upper bounds (see default_egz_cap); when a
bound B applies, the search runs through level B so that exactness never
rests on the bound itself.

A level step has two implementations with the same output. The tuple step
(_step_tuples) canonicalizes each candidate and each of its one-element
removals in Python; it serves levels below _SMALL_LEVEL candidates (frontier
size times ring size), where numpy's fixed cost per call would dominate.
The array step (_Rows.step) keeps the level as an (N, width) unsigned array
and works in blocks of at most _BLOCK_ROWS rows: it makes all N * |G|
extensions at once, canonicalizes them by gathering every unit image and
taking the least big-endian 8-byte word sequence, dedupes by sorting row
keys, looks every one-element removal up with np.searchsorted in the sorted
keys of the previous level's full unit orbits (no per-removal canonical
form), and evaluates e_m (Davenport kind) only on survivors through index
tables. A row key is the row's bytes, compared by memcmp; that equals tuple
order because entries are stored most significant byte first (uint8 up to
a cap of 255, big-endian uint16 or uint32 above), so each array level is
sorted and its row 0 is the lex-least class. With workers > 1 the array
step runs on chunks of the frontier in a fork pool, against the same
previous-level keys.

The independent full testers (is_counterexample_*) re-enumerate sub-multiset
multiplicity vectors with a truncated generating product per vector. They
are the oracle route used by direct enumeration, certificate verification,
and the tests that pin the frontier to unpruned search.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import numtheory, rings
from .multiset import MultisetSeq, canonical_mult
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


class _Engine:
    """Per-ring index-space arithmetic: tables, truncated polys, canonical."""

    __slots__ = (
        "ring", "card", "add_t", "mul_t", "scal_t", "perms", "one_idx",
        "exponent", "_factor_cache", "_ident_cache", "_rows",
    )

    def __init__(self, ring: RingSpec) -> None:
        self.ring = ring
        self.card = ring.cardinality
        self.add_t = rings.add_index_table(ring)
        self.mul_t = rings.mul_index_table(ring)
        self.scal_t = rings.scalar_index_table(ring)
        self.exponent = ring.exponent
        self.one_idx = rings.element_index(ring, ring.one)
        ident = tuple(range(self.card))
        self.perms = tuple(p for p in rings.unit_index_perms(ring) if p != ident)
        self._factor_cache: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._ident_cache: dict[int, tuple[int, ...]] = {}
        self._rows: dict[str, _Rows] = {}

    def canonical(self, mult: tuple[int, ...]) -> tuple[int, ...]:
        best = mult
        get = mult.__getitem__
        for p in self.perms:
            cand = tuple(map(get, p))
            if cand < best:
                best = cand
        return best

    def identity_poly(self, m: int) -> tuple[int, ...]:
        poly = self._ident_cache.get(m)
        if poly is None:
            poly = (self.one_idx,) + (0,) * m
            self._ident_cache[m] = poly
        return poly

    def factor_poly(self, idx: int, c: int, m: int) -> tuple[int, ...]:
        # (1 + g x)^c truncated at degree m for g = element idx, coefficient
        # j equal to C(c, j) g^j with the binomial reduced mod the exponent
        # (which fixes it per coordinate modulus).
        key = (idx, c, m)
        poly = self._factor_cache.get(key)
        if poly is None:
            out = [0] * (m + 1)
            out[0] = self.one_idx
            powj = self.one_idx
            mul_row = self.mul_t
            for j in range(1, min(c, m) + 1):
                powj = mul_row[powj][idx]
                out[j] = self.scal_t[math.comb(c, j) % self.exponent][powj]
            poly = tuple(out)
            self._factor_cache[key] = poly
        return poly

    def poly_mul(self, a, b, m: int) -> tuple[int, ...]:
        add_t = self.add_t
        mul_t = self.mul_t
        out = [0] * (m + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            row = mul_t[ai]
            for j, bj in enumerate(b[: m - i + 1]):
                if bj == 0:
                    continue
                k = i + j
                out[k] = add_t[out[k]][row[bj]]
        return tuple(out)

    def em_coeffs(self, mult, m: int) -> tuple[int, ...]:
        poly = self.identity_poly(m)
        for idx in range(1, self.card):  # element 0 is the ring zero: identity factor
            c = mult[idx]
            if c:
                poly = self.poly_mul(poly, self.factor_poly(idx, c, m), m)
        return poly

    def em_of_mult(self, mult, m: int) -> int:
        return self.em_coeffs(mult, m)[m]

    def rows(self, cap: int) -> "_Rows":
        """The array kernel whose row dtype holds multiplicities up to cap."""
        if cap > 0xFFFFFFFF:
            raise ValueError(f"cap {cap} exceeds the array search limit 2**32 - 1")
        dtype = np.dtype(">u1" if cap <= 0xFF else ">u2" if cap <= 0xFFFF else ">u4")
        kit = self._rows.get(dtype.str)
        if kit is None:
            kit = self._rows[dtype.str] = _Rows(self, dtype)
        return kit


# Rows per numpy block: bounds the (rows x units x width) canonical gather.
_BLOCK_ROWS = 4096
# Levels with fewer candidates (frontier size times ring size) take the
# tuple step: below this numpy's fixed cost per call outweighs the work.
_SMALL_LEVEL = 128


class _Rows:
    """Array form of the level step for one ring and one row dtype.

    A row is a multiplicity vector, zero-padded to whole 8-byte words, in
    the narrowest of uint8 and big-endian uint16 or uint32 that holds the
    search cap. Its key is the row's bytes as one void scalar. Entries are
    stored most significant byte first and the padding is the same in every
    row, so memcmp order on keys (what np.sort and np.searchsorted use)
    equals tuple order on the vectors, and lex-least over a unit orbit is
    the least big-endian word sequence. A one-word row is keyed by that word
    as a native uint64 instead: same order, and numpy sorts integers far
    faster than voids.
    """

    __slots__ = (
        "engine", "card", "dtype", "width", "key_dtype", "perm", "eye",
        "_key_view", "_idx_dtype", "_arith", "_fac",
    )

    def __init__(self, engine: _Engine, dtype: np.dtype) -> None:
        self.engine = engine
        self.card = card = engine.card
        self.dtype = dtype
        words = -(-card * dtype.itemsize // 8)
        self.width = width = words * 8 // dtype.itemsize
        self._key_view = np.dtype(">u8" if words == 1 else f"V{words * 8}")
        self.key_dtype = np.dtype(np.uint64) if words == 1 else self._key_view
        pad = list(range(card, width))
        ident = list(range(card))
        # identity first; padding columns map to themselves
        self.perm = np.array(
            [ident + pad] + [list(p) + pad for p in engine.perms], dtype=np.intp
        )
        self.eye = np.eye(card, width, dtype=dtype)
        self._idx_dtype = np.min_scalar_type(card - 1)  # element indices
        self._arith = None
        self._fac: dict[int, np.ndarray] = {}

    def from_tuples(self, members) -> np.ndarray:
        vals = np.array(list(members), dtype=np.int64).reshape(-1, self.card)
        assert vals.max(initial=0) <= np.iinfo(self.dtype).max, "row dtype too narrow"
        rows = np.zeros((len(vals), self.width), self.dtype)
        rows[:, : self.card] = vals
        return rows

    def to_tuples(self, rows: np.ndarray) -> set[tuple[int, ...]]:
        return set(map(tuple, rows[:, : self.card].tolist()))

    def keys(self, rows: np.ndarray) -> np.ndarray:
        raw = np.ascontiguousarray(rows).view(self._key_view).ravel()
        return raw.astype(self.key_dtype, copy=False)

    def unique(self, rows: np.ndarray) -> np.ndarray:
        """Distinct rows in tuple order."""
        k = np.sort(self.keys(rows))
        k = k[np.concatenate(([True], k[1:] != k[:-1]))] if len(k) else k
        raw = k.astype(self._key_view, copy=False)
        return raw.view(self.dtype).reshape(-1, self.width)

    def extend(self, rows: np.ndarray) -> np.ndarray:
        """All len(rows) * card one-element extensions, parent-major."""
        out = rows[:, None, :] + self.eye
        return out.reshape(-1, self.width).astype(self.dtype, copy=False)

    def canonical(self, rows: np.ndarray) -> np.ndarray:
        """Lex-least image of each row over the unit orbit."""
        images = rows.take(self.perm, axis=1)  # (rows, units, width), C order
        words = images.view(">u8")
        tied = np.ones(images.shape[:2], dtype=bool)
        for j in range(words.shape[2]):
            w = np.where(tied, words[:, :, j], np.uint64(0xFFFFFFFFFFFFFFFF))
            tied &= w == w.min(axis=1, keepdims=True)
        return images[np.arange(len(images)), tied.argmax(axis=1)]

    def orbit_keys(self, rows: np.ndarray) -> np.ndarray:
        """Sorted keys of every unit image of every row."""
        return np.sort(self.keys(rows.take(self.perm, axis=1).reshape(-1, self.width)))

    def closed(self, rows: np.ndarray, prev_keys: np.ndarray) -> np.ndarray:
        """Mask of rows whose one-element removals all have keys in prev_keys."""
        ok = np.ones(len(rows), dtype=bool)
        for i in range(self.card):
            sel = np.flatnonzero(ok & (rows[:, i] > 0))
            if not len(sel):
                continue
            sub = rows[sel]
            sub[:, i] -= 1
            k = self.keys(sub)
            pos = np.searchsorted(prev_keys, k)
            pos[pos == len(prev_keys)] = 0
            ok[sel[prev_keys[pos] != k]] = False
        return ok

    def _tables(self, m: int, top: int):
        # add/mul index tables and fac[g, c, j] = C(c, j) g^j for c <= top
        if self._arith is None:
            e = self.engine
            self._arith = (
                np.array(e.add_t, self._idx_dtype),
                np.array(e.mul_t, self._idx_dtype),
                np.array(e.scal_t, self._idx_dtype),
            )
        add, mul, scal = self._arith
        fac = self._fac.get(m)
        if fac is None or fac.shape[1] <= top:
            e = self.engine
            comb = np.array(
                [[math.comb(c, j) % e.exponent for j in range(m + 1)] for c in range(top + 1)],
                dtype=np.intp,
            )
            pw = np.empty((self.card, m + 1), self._idx_dtype)
            pw[:, 0] = e.one_idx
            for j in range(1, m + 1):
                pw[:, j] = mul[pw[:, j - 1], np.arange(self.card)]
            fac = self._fac[m] = scal[comb[None, :, :], pw[:, None, :]]
        return add, mul, fac

    def em(self, rows: np.ndarray, m: int) -> np.ndarray:
        """Element index of e_m of each row (0 is the ring zero)."""
        add, mul, fac = self._tables(m, int(rows[:, : self.card].max()))
        poly = np.zeros((len(rows), m + 1), self._idx_dtype)
        poly[:, 0] = self.engine.one_idx
        for g in range(1, self.card):  # element 0 is the ring zero: identity factor
            f = fac[g][rows[:, g]]
            out = np.zeros_like(poly)
            for i in range(m + 1):
                a = poly[:, i]
                for j in range(m + 1 - i):
                    out[:, i + j] = add[out[:, i + j], mul[a, f[:, j]]]
            poly = out
        return poly[:, m]

    def step(self, rows: np.ndarray, prev_keys: np.ndarray | None, em_m: int | None):
        """The array level step: as _step_tuples, on sorted distinct rows."""
        per = max(1, _BLOCK_ROWS // self.card)
        found = [
            self.unique(self.canonical(self.extend(rows[lo : lo + per])))
            for lo in range(0, len(rows), per)
        ]
        cands = self.unique(np.concatenate(found))
        out = []
        for lo in range(0, len(cands), _BLOCK_ROWS):
            block = cands[lo : lo + _BLOCK_ROWS]
            if prev_keys is not None:
                block = block[self.closed(block, prev_keys)]
            if em_m is not None and len(block):
                block = block[self.em(block, em_m) != 0]
            out.append(block)
        return np.concatenate(out)


@lru_cache(maxsize=None)
def _engine(ring: RingSpec) -> _Engine:
    return _Engine(ring)


# --- full testers (independent oracle route) --------------------------------


def _find_zero_sub_exact(engine: _Engine, mult, t: int, m: int):
    """Lex-least sub-multiplicity vector of size exactly t with e_m = 0."""
    card = engine.card
    suffix = [0] * (card + 1)
    for i in range(card - 1, -1, -1):
        suffix[i] = suffix[i + 1] + mult[i]
    sub = [0] * card
    poly_mul = engine.poly_mul
    factor = engine.factor_poly

    def rec(pos: int, rem: int, poly):
        if rem > suffix[pos]:
            return None
        if pos == card - 1:
            if rem > mult[pos]:
                return None
            sub[pos] = rem
            p = poly if rem == 0 else poly_mul(poly, factor(pos, rem, m), m)
            if p[m] == 0:
                found = tuple(sub)
                sub[pos] = 0
                return found
            sub[pos] = 0
            return None
        for c in range(min(mult[pos], rem) + 1):
            sub[pos] = c
            p = poly if c == 0 else poly_mul(poly, factor(pos, c, m), m)
            hit = rec(pos + 1, rem - c, p)
            if hit is not None:
                return hit
        sub[pos] = 0
        return None

    return rec(0, t, engine.identity_poly(m))


def _find_zero_sub_geq(engine: _Engine, mult, m: int):
    """Lex-least sub-multiplicity vector of size >= m with e_m = 0."""
    card = engine.card
    sub = [0] * card
    poly_mul = engine.poly_mul
    factor = engine.factor_poly

    def rec(pos: int, taken: int, poly):
        if pos == card:
            if taken >= m and poly[m] == 0:
                return tuple(sub)
            return None
        for c in range(mult[pos] + 1):
            sub[pos] = c
            p = poly if c == 0 else poly_mul(poly, factor(pos, c, m), m)
            hit = rec(pos + 1, taken + c, p)
            if hit is not None:
                return hit
        sub[pos] = 0
        return None

    return rec(0, 0, engine.identity_poly(m))


def find_egz_zero_sub(mseq: MultisetSeq, t: int, m: int) -> MultisetSeq | None:
    """A length-t sub-multiset with e_m = 0, or None if none exists."""
    if m < 1 or t < m:
        raise ValueError("need t >= m >= 1")
    engine = _engine(mseq.ring)
    hit = _find_zero_sub_exact(engine, mseq.mult, t, m)
    return None if hit is None else MultisetSeq(mseq.ring, hit)


def is_counterexample_egz(mseq: MultisetSeq, t: int, m: int) -> bool:
    """True iff no sub-multiset of length exactly t has e_m = 0."""
    return find_egz_zero_sub(mseq, t, m) is None


def find_dav_zero_sub(mseq: MultisetSeq, m: int) -> MultisetSeq | None:
    """A sub-multiset of length >= m with e_m = 0, or None if none exists."""
    if m < 1:
        raise ValueError("need m >= 1")
    engine = _engine(mseq.ring)
    hit = _find_zero_sub_geq(engine, mseq.mult, m)
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


def _all_canonical(engine: _Engine, length: int) -> set[tuple[int, ...]]:
    card = engine.card
    out: set[tuple[int, ...]] = set()
    mult = [0] * card
    canonical = engine.canonical

    def rec(pos: int, rem: int) -> None:
        if pos == card - 1:
            mult[pos] = rem
            out.add(canonical(tuple(mult)))
            mult[pos] = 0
            return
        for c in range(rem + 1):
            mult[pos] = c
            rec(pos + 1, rem - c)
        mult[pos] = 0

    rec(0, length)
    return out


def _step_tuples(engine: _Engine, members, prev: set | None, em_m: int | None):
    """The tuple level step: canonical one-element extensions of members.

    With prev given, an extension survives only if every one-element
    removal is a class of prev; with em_m given, only if its own e_m value
    is nonzero.
    """
    card = engine.card
    canonical = engine.canonical
    em = engine.em_of_mult
    seen: set[tuple[int, ...]] = set()
    out: set[tuple[int, ...]] = set()
    for mult in members:
        base = list(mult)
        for g in range(card):
            base[g] += 1
            cand = tuple(base)
            base[g] -= 1
            canon = canonical(cand)
            if canon in seen:
                continue
            seen.add(canon)
            ok = True
            if prev is not None:
                # the removal at g is the parent itself, already known
                lst = list(cand)
                for i, c in enumerate(cand):
                    if c == 0 or i == g:
                        continue
                    lst[i] = c - 1
                    if canonical(tuple(lst)) not in prev:
                        ok = False
                        break
                    lst[i] = c
            if ok and em_m is not None and em(cand, em_m) == 0:
                ok = False
            if ok:
                out.add(canon)
    return out


_PAR_STATE: dict = {}


def _par_worker(bounds: tuple[int, int]):
    lo, hi = bounds
    st = _PAR_STATE
    return st["kit"].step(st["rows"][lo:hi], st["prev"], st["em_m"])


def _advance(engine: _Engine, frontier, closed: bool, em_m, workers: int, cap: int):
    """The next level from frontier, a set of tuples or a sorted row array.

    closed asks for the closure test against frontier itself; em_m for the
    e_m != 0 test. Small levels take the tuple step and return a set; the
    others take the array step, split over a process pool when workers > 1.
    """
    if len(frontier) * engine.card < _SMALL_LEVEL:
        if isinstance(frontier, np.ndarray):
            frontier = engine.rows(cap).to_tuples(frontier)
        return _step_tuples(engine, frontier, frontier if closed else None, em_m)
    kit = engine.rows(cap)
    rows = frontier if isinstance(frontier, np.ndarray) else kit.from_tuples(frontier)
    prev = kit.orbit_keys(rows) if closed else None
    if workers <= 1:
        return kit.step(rows, prev, em_m)
    nchunks = min(len(rows), workers * 4)
    step = -(-len(rows) // nchunks)
    bounds = [(i, min(i + step, len(rows))) for i in range(0, len(rows), step)]
    _PAR_STATE.update(kit=kit, rows=rows, prev=prev, em_m=em_m)
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            results = pool.map(_par_worker, bounds)
    finally:
        _PAR_STATE.clear()
    return kit.unique(np.concatenate(results))


def _least(frontier, card: int) -> tuple[int, ...]:
    if isinstance(frontier, np.ndarray):
        return tuple(frontier[0, :card].tolist())
    return min(frontier)


def max_counterexample_length(
    kind: str,
    ring: RingSpec,
    m: int,
    cap: int,
    t: int | None = None,
    method: str = "frontier",
    workers: int = 1,
    progress: Progress = None,
) -> tuple[int, MultisetSeq]:
    """Longest counterexample length up to cap, with a lex-least canonical
    witness of that length. Returns cap when the search did not close."""
    if kind not in (KIND_EGZ, KIND_DAV):
        raise ValueError(f"unknown kind {kind!r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if cap < m:
        raise ValueError("cap must be >= m")
    if kind == KIND_EGZ:
        if t is None or t < m:
            raise ValueError("EGZ kind needs t >= m")
        vacuous = t - 1
    else:
        vacuous = m - 1
    if cap <= vacuous:
        return cap, _vacuous_witness(ring, cap)
    if method == "direct":
        return _direct_max(ring, kind, m, cap, t)
    if method != "frontier":
        raise ValueError(f"unknown method {method!r}")

    engine = _engine(ring)
    # Seed levels skip the closure test: every multiset of length <= vacuous
    # is a counterexample, and at the EGZ seed level t exactly those with
    # e_m != 0 are.
    seed = t if kind == KIND_EGZ else vacuous
    frontier = {(0,) * engine.card}
    for level in range(1, seed + 1):
        seed_em = m if level == t else None
        frontier = _advance(engine, frontier, False, seed_em, workers, cap)
    level = seed
    em_m = m if kind == KIND_DAV else None
    if not len(frontier):
        return vacuous, _vacuous_witness(ring, vacuous)
    if progress:
        progress(level, len(frontier))
    while level < cap:
        nxt = _advance(engine, frontier, True, em_m, workers, cap)
        if not len(nxt):
            break
        frontier = nxt
        level += 1
        if progress:
            progress(level, len(frontier))
    return level, MultisetSeq(ring, _least(frontier, engine.card))


def _direct_max(ring: RingSpec, kind: str, m: int, cap: int, t: int | None):
    """Unpruned reference search: every canonical multiset of every length,
    each tested with the full sub-multiset enumeration."""
    engine = _engine(ring)
    start = t if kind == KIND_EGZ else m
    best_level = start - 1
    best_witness = _vacuous_witness(ring, best_level)
    for level in range(start, cap + 1):
        survivors = set()
        for mult in _all_canonical(engine, level):
            if kind == KIND_EGZ:
                ok = _find_zero_sub_exact(engine, mult, t, m) is None
            else:
                ok = _find_zero_sub_geq(engine, mult, m) is None
            if ok:
                survivors.add(mult)
        if not survivors:
            return best_level, best_witness
        best_level = level
        best_witness = MultisetSeq(ring, min(survivors))
    return best_level, best_witness


# --- constants --------------------------------------------------------------


def infinite_obstruction(ring: RingSpec, m: int, t: int) -> int | None:
    """C(t, m) mod exponent when nonzero (the all-ones family obstruction)."""
    r = numtheory.binom_mod(t, m, ring.exponent)
    return r if r != 0 else None


def default_egz_cap(ring: RingSpec, m: int, t: int) -> int | None:
    """Tightest applicable hypothesis-checked upper bound, or None.

    Checked bounds: k(t-1) - m + 2 for cyclic Z_k with t in S(k, m);
    p^r + m p^s - m for Z_{p^s} with t = p^r, r >= s, p^r > m(p^s - 1);
    p^h + m * sum(p^a_j - 1) for a p-group with t = p^(sum a_j) and
    p^h > m * sum(p^a_j - 1).
    """
    caps: list[int] = []
    if ring.rank == 1:
        k = ring.moduli[0]
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


def egz_constant(
    ring: RingSpec,
    m: int,
    t: int,
    cap: int | None = None,
    method: str = "frontier",
    workers: int = 1,
    progress: Progress = None,
) -> EgzOutcome:
    """The generalized EGZ constant for (ring, t, m), by certified search.

    Infinite is decided by the all-ones precheck; otherwise the search runs
    to min(cap, checked upper bound) and reports Exact only when a level
    emptied, AtLeast otherwise. Raises MissingCapError when neither a cap
    nor a checked bound is available.
    """
    if m < 1 or t < m:
        raise ValueError("need t >= m >= 1")
    if infinite_obstruction(ring, m, t) is not None:
        witness = MultisetSeq.from_counts(ring, {ring.one: 1})
        return EgzOutcome(OUTCOME_INFINITE, None, witness, METHOD_PRECHECK, None)
    auto = default_egz_cap(ring, m, t)
    usable = [c for c in (cap, auto) if c is not None]
    if not usable:
        raise MissingCapError(
            f"no checked upper bound applies to E({t}, {ring}, {m}); pass a cap"
        )
    eff = min(usable)
    if eff < m:
        raise ValueError("cap must be >= m")
    length, witness = max_counterexample_length(
        KIND_EGZ, ring, m, eff, t=t, method=method, workers=workers, progress=progress
    )
    mname = METHOD_DIRECT if method == "direct" else METHOD_FRONTIER
    if length < eff:
        return EgzOutcome(OUTCOME_EXACT, length + 1, witness, mname, eff)
    return EgzOutcome(OUTCOME_AT_LEAST, length + 1, witness, mname, eff)


def davenport_m(
    ring: RingSpec,
    m: int,
    cap: int | None = None,
    method: str = "frontier",
    workers: int = 1,
    progress: Progress = None,
) -> EgzOutcome:
    """The generalized Davenport constant for (ring, m), by certified search.

    No checked upper bound is applied here, so the caller must give a cap;
    raises MissingCapError without one.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if cap is None:
        raise MissingCapError(f"no cap given for D_{m}({ring}); pass a cap")
    if cap < m:
        raise ValueError("cap must be >= m")
    length, witness = max_counterexample_length(
        KIND_DAV, ring, m, cap, method=method, workers=workers, progress=progress
    )
    mname = METHOD_DIRECT if method == "direct" else METHOD_FRONTIER
    if length < cap:
        return EgzOutcome(OUTCOME_EXACT, length + 1, witness, mname, cap)
    return EgzOutcome(OUTCOME_AT_LEAST, length + 1, witness, mname, cap)
