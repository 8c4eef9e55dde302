"""Record the benchmark's item pools and their expected outputs.

Run from the repository root with the package on the path:

    PYTHONPATH=src python3 perfbench/record.py

It enumerates every candidate item of every workload, computes the outputs
the benchmark checks (values, certificate digests, zero sub-multisets, e_m
values, canonical forms, boolean solution counts) with the code as it stands,
times each operation once on the recording machine, and writes
perfbench/pool.json. The recorded times only place items in cost tiers for
stratified drawing; the checks never look at them. Re-record only on
purpose: a change of any recorded output is a change of egz's contract.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path
from time import perf_counter

import egz
from egz import brink, search, symfun
from egz.multiset import MultisetSeq

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ops  # noqa: E402

POOL = Path(__file__).resolve().parent / "pool.json"

# batch-small: rings and degrees; "small" means one checked answer in at
# most SMALL_MS on the recording machine.
BATCH_RINGS = [(2,), (3,), (4,), (5,), (6,), (7,), (2, 2), (2, 4), (3, 3), (2, 2, 2)]
BATCH_M = (1, 2, 3)
SMALL_MS = 40.0
# Cost tiers (ms) that split a stratum, per operation.
TIER_EDGES = {
    "answer": (1.0, 5.0),
    "symfun": (0.15, 0.35),
    "direct": (60.0, 150.0),
    "brink": (60.0, 150.0),
}

ORACLE_DIRECT_MS = (15.0, 400.0)
DIRECT_MAX_MULTISETS = 100_000
ORACLE_BRINK_MS = (30.0, 500.0)


def stratum(item: dict, ms: float) -> str:
    """Operation, kind and outcome, and a cost tier where the op has them."""
    op = item["op"]
    exp = item["expect"]
    if op == "answer":
        if exp["outcome"] == search.OUTCOME_INFINITE:
            return f"{item['kind']}/infinite"
        parts = [item["kind"], exp["outcome"]]
    elif op == "tester":
        return f"tester/{item['kind']}/{'none' if exp['zero_sub'] is None else 'found'}"
    elif op == "direct":
        parts = [op, item["kind"]]
    else:
        parts = [op]
    tier = sum(ms > edge for edge in TIER_EDGES[op])
    return "/".join(parts + [f"t{tier}"])


def stamp(item: dict, ms: float) -> dict:
    item["stratum"] = stratum(item, ms)
    item["ref_ms"] = round(ms, 3)
    return item


def answer_item(kind, ring, m, t, cap, bound=None, limit_ms=math.inf) -> dict | None:
    """The answer item with its recorded outputs; None when the search alone
    takes longer than limit_ms."""
    t0 = perf_counter()
    out = (
        egz.egz_constant(ring, m, t, cap=cap) if kind == search.KIND_EGZ
        else egz.davenport_m(ring, m, cap)
    )
    if (perf_counter() - t0) * 1000 > limit_ms:
        return None
    item = {"op": "answer", "kind": kind, "ring": list(ring.moduli), "m": m,
            "t": t, "cap": cap}
    text = ops.certify(item, ring, out)
    item["expect"] = {"outcome": out.kind, "value": out.value,
                      "cert_sha256": ops.sha256(text)}
    if bound is not None:
        item["bound"] = bound
    return item


def timed(item: dict) -> float:
    """Milliseconds for one untraced run of the operation (best of two)."""
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        fails = ops.run(ops.Tracer(False), item)
        best = min(best, perf_counter() - t0)
        if fails:
            raise SystemExit(f"recorded item fails its own check: {fails}")
    return best * 1000


def batch_pool() -> list[dict]:
    items = []
    for moduli in BATCH_RINGS:
        ring = egz.make_ring(moduli)
        card = ring.cardinality
        for m in BATCH_M:
            for t in range(m, 3 * card + 1):
                if search.infinite_obstruction(ring, m, t) is None and \
                        search.default_egz_cap(ring, m, t) is None:
                    continue  # no checked cap: left out, not a failure
                items.append(answer_item(search.KIND_EGZ, ring, m, t, None, limit_ms=SMALL_MS))
            d = egz.davenport_m(ring, m, 3 * card + 3)
            assert d.kind == search.OUTCOME_EXACT, (moduli, m)
            for cap in [*range(m, d.value - 1), *range(d.value, d.value + 3)]:
                items.append(answer_item(search.KIND_DAV, ring, m, None, cap, limit_ms=SMALL_MS))
    kept = []
    for item in filter(None, items):
        ms = timed(item)
        if ms <= SMALL_MS:
            kept.append(stamp(item, ms))
    return kept


def random_mult(rng: random.Random, card: int, length: int) -> list[int]:
    mult = [0] * card
    for _ in range(length):
        mult[rng.randrange(card)] += 1
    return mult


def zero_sub_item(kind, moduli, m, t, mult) -> dict:
    item = {"op": "tester", "kind": kind, "ring": list(moduli), "m": m, "t": t,
            "mult": mult}
    mseq = MultisetSeq(egz.make_ring(moduli), tuple(mult))
    sub = (search.find_egz_zero_sub(mseq, t, m) if kind == search.KIND_EGZ
           else search.find_dav_zero_sub(mseq, m))
    item["expect"] = {"zero_sub": None if sub is None else list(sub.mult)}
    return item


def tester_pool(batch: list[dict], rng: random.Random) -> list[dict]:
    """Certified witnesses (the tester must exhaust) and seeded multisets
    (it usually stops at a zero sub-multiset)."""
    items = []
    for b in batch:
        if b["expect"]["outcome"] == search.OUTCOME_INFINITE:
            continue
        ring = egz.make_ring(tuple(b["ring"]))
        out = (egz.egz_constant(ring, b["m"], b["t"], cap=b["cap"])
               if b["kind"] == search.KIND_EGZ else egz.davenport_m(ring, b["m"], b["cap"]))
        vacuous = b["t"] if b["kind"] == search.KIND_EGZ else b["m"]
        if out.witness.length >= vacuous:
            items.append(zero_sub_item(b["kind"], b["ring"], b["m"], b["t"],
                                       list(out.witness.mult)))
    for b in batch:
        if b["expect"]["outcome"] != search.OUTCOME_EXACT:
            continue
        card = math.prod(b["ring"])
        for _ in range(2):
            length = b["expect"]["value"] + rng.randrange(0, 4)
            items.append(zero_sub_item(b["kind"], b["ring"], b["m"], b["t"],
                                       random_mult(rng, card, length)))
    unique = {json.dumps(i, sort_keys=True): i for i in items}
    return [stamp(item, timed(item)) for item in unique.values()]


def symfun_pool(rng: random.Random) -> list[dict]:
    rings_ = BATCH_RINGS + [(8,), (9,), (5, 5), (3, 9), (2, 2, 4)]
    items = []
    for moduli in rings_:
        ring = egz.make_ring(moduli)
        for _ in range(12):
            m = rng.randrange(1, 5)
            mseq = MultisetSeq(ring, tuple(random_mult(rng, ring.cardinality, rng.randrange(4, 41))))
            em = symfun.elementary_symmetric_multiset(ring, mseq, m)
            items.append({"op": "symfun", "ring": list(moduli), "m": m,
                          "mult": list(mseq.mult),
                          "expect": {"em": list(em), "canonical": list(mseq.canonical().mult)}})
    return [stamp(item, timed(item)) for item in items]


def direct_levels_size(item: dict, value: int) -> int:
    """Multisets the unpruned search enumerates up to the closing level."""
    card = math.prod(item["ring"])
    start = item["t"] if item["kind"] == search.KIND_EGZ else item["m"]
    return sum(math.comb(n + card - 1, card - 1) for n in range(start, value + 1))


def direct_pool() -> list[dict]:
    items = []
    for moduli in BATCH_RINGS + [(8,), (9,)]:
        ring = egz.make_ring(moduli)
        for m in BATCH_M:
            for t in range(m + 1, 2 * ring.cardinality + 2):
                if search.infinite_obstruction(ring, m, t) is not None or \
                        search.default_egz_cap(ring, m, t) is None:
                    continue
                items.append({"op": "direct", "kind": search.KIND_EGZ,
                              "ring": list(moduli), "m": m, "t": t, "cap": None})
            d = egz.davenport_m(ring, m, 3 * ring.cardinality + 3)
            items.append({"op": "direct", "kind": search.KIND_DAV,
                          "ring": list(moduli), "m": m, "t": None, "cap": d.value})
    kept = []
    for item in items:
        ring = egz.make_ring(tuple(item["ring"]))
        out = ops.query(ops.Tracer(False), item, ring)
        if out.kind != search.OUTCOME_EXACT or \
                direct_levels_size(item, out.value) > DIRECT_MAX_MULTISETS:
            continue
        t0 = perf_counter()
        out = ops.query(ops.Tracer(False), item, ring, method="direct")
        ms = (perf_counter() - t0) * 1000
        if not ORACLE_DIRECT_MS[0] <= ms <= ORACLE_DIRECT_MS[1]:
            continue
        item["expect"] = {"outcome": out.kind, "value": out.value}
        kept.append(stamp(item, timed(item)))
    return kept


def brink_pool(rng: random.Random) -> list[dict]:
    shapes = [(k, t, m) for k, t in ((2, 8), (4, 8), (8, 8), (2, 16), (4, 16),
                                      (3, 9), (9, 9), (5, 5))
              for m in (1, 2, 3)]
    items = []
    for k, t, m in shapes:
        for _ in range(6):
            n = rng.randrange(t, min(2 * t, 21))
            g = [rng.randrange(k) for _ in range(n)]
            inst = brink.egz_boolean_instance(tuple(g), k, t, m)
            item = {"op": "brink", "g": g, "k": k, "t": t, "m": m}
            t0 = perf_counter()
            report = brink.count_boolean_solutions(inst)
            ms = (perf_counter() - t0) * 1000
            if not ORACLE_BRINK_MS[0] <= ms <= ORACLE_BRINK_MS[1]:
                continue
            item["expect"] = {"count": report.count}
            items.append(stamp(item, timed(item)))
    return items


def main() -> None:
    rng = random.Random(20221716)
    doc = {
        "tool_version": egz.__version__,
        "closure-egz": [answer_item(
            search.KIND_EGZ, egz.make_ring((8,)), 2, 16, None,
            bound={"id": "egz-primepower-lower", "params": {"p": 2, "s": 3, "u": 1, "t": 16}})],
        "closure-dav": [answer_item(
            search.KIND_DAV, egz.make_ring((5, 5)), 1, None, 9,
            bound={"id": "olson-davenport", "params": {"moduli": [5, 5]}})],
        "smoke": {
            "closure-egz": [answer_item(
                search.KIND_EGZ, egz.make_ring((3,)), 2, 3, None,
                bound={"id": "egz-general-upper", "params": {"k": 3, "m": 2, "t": 3}})],
            "closure-dav": [answer_item(search.KIND_DAV, egz.make_ring((3,)), 2, None, 8)],
        },
    }
    batch = batch_pool()
    print(f"batch-small pool: {len(batch)} items", file=sys.stderr)
    doc["batch-small"] = batch
    doc["oracle"] = direct_pool() + brink_pool(rng) + tester_pool(batch, rng) + symfun_pool(rng)
    print(f"oracle pool: {len(doc['oracle'])} items", file=sys.stderr)
    POOL.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {POOL}", file=sys.stderr)


if __name__ == "__main__":
    main()
