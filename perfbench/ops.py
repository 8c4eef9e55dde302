"""The operations the benchmark times, each with its output checks.

An operation takes one drawn item -- a JSON dict holding the inputs and the
outputs recorded for them from a reference commit -- and returns a list of
failure messages; an empty list means every check passed. Every call into
egz goes through a Tracer: disabled, it only makes the call; enabled, it
keeps one span per call, named after the layer it enters, so that a traced
round can be split layer by layer. Spans stay in memory until the round ends.

Item shapes (``op`` selects the operation):

  answer  {kind, ring, m, t, cap, expect: {outcome, value, cert_sha256}, bound?}
          one query answered, certified, reloaded and verified, plus a
          check that the witness is canonical and cannot be extended
  direct  {kind, ring, m, t, cap, expect: {outcome, value}}
          the unpruned reference search against the frontier search
  tester  {kind, ring, m, t, mult, expect: {zero_sub}}
          the full sub-multiset tester on one multiset
  symfun  {ring, m, mult, expect: {em, canonical}}
          both e_m routes and the unit-orbit canonical form of one multiset
  brink   {g, k, t, m, expect: {count}}
          a full boolean solution count of egz_boolean_instance(g, k, t, m)
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import egz
from egz import brink, certificates, rings, search, symfun, theorems
from egz.multiset import MultisetSeq


class Tracer:
    """Spans ``[name, start, end, op, attrs]`` and counters, kept in memory.

    ``op`` is the index of the operation that caused the span; the spans of
    one operation share it. A disabled tracer records nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, perf_counter(), self.op, None])

    def add(self, name: str, start: float, end: float, attrs: dict | None = None) -> None:
        if self.enabled:
            self.spans.append([name, start, end, self.op, attrs])

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + n


def build_tables(tr: Tracer, moduli) -> None:
    """Make a ring and fill its cached index tables (part of set-up)."""
    ring = egz.make_ring(tuple(moduli))
    for fn in (
        rings.elements,
        rings.add_index_table,
        rings.mul_index_table,
        rings.scalar_index_table,
        rings.unit_index_perms,
    ):
        tr.call("rings.tables", fn, ring)
    tr.count("rings.unit_perms", len(rings.unit_index_perms(ring)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _ring(item: dict):
    return egz.make_ring(tuple(item["ring"]))


def _label(item: dict) -> str:
    ring = "x".join(str(n) for n in item["ring"])
    cap = f" cap {item['cap']}" if item.get("cap") is not None else ""
    if item["kind"] == search.KIND_EGZ:
        return f"E({item['t']}, Z_{ring}, {item['m']}){cap}"
    return f"D_{item['m']}(Z_{ring}){cap}"


def query(tr: Tracer, item: dict, ring, method: str = "frontier", workers: int = 1):
    """Run one search; traced, split it into seed and per-level spans.

    The seed span runs from the call to the first progress callback (to the
    return when there is none: Infinite answers and searches that stop at
    the vacuous level). Each level span runs from one callback to the next,
    or to the return for the advance that found the closing, empty level.
    """
    marks: list[tuple[float, int, int]] = []
    progress = None
    if tr.enabled and method == "frontier":
        def progress(level: int, size: int) -> None:
            marks.append((perf_counter(), level, size))
    start = perf_counter()
    if item["kind"] == search.KIND_EGZ:
        out = egz.egz_constant(
            ring, item["m"], item["t"], cap=item["cap"], method=method,
            workers=workers, progress=progress,
        )
    else:
        out = egz.davenport_m(
            ring, item["m"], item["cap"], method=method, workers=workers,
            progress=progress,
        )
    end = perf_counter()
    if tr.enabled:
        _record_search(tr, start, end, marks, out, ring.cardinality, method)
    return out


def _record_search(tr: Tracer, start, end, marks, out, card: int, method: str) -> None:
    if method == "direct":
        tr.add("search.direct", start, end)
        return
    if out.kind == search.OUTCOME_INFINITE:
        tr.add("search.precheck", start, end)
        return
    first = marks[0][0] if marks else end
    tr.add("search.seed", start, first)
    tr.add("search.levels", first, end)
    candidates = survivors = 0
    for i, (t0, level, size) in enumerate(marks):
        if i + 1 < len(marks):
            t1, size_out = marks[i + 1][0], marks[i + 1][2]
        elif level < out.cap_used:
            t1, size_out = end, 0  # the advance that found the empty level
        else:
            break  # the cap was reached: no advance after the last level
        candidates += size * card
        survivors += size_out
        tr.add("search.level", t0, t1, {"level": level, "frontier_in": size,
                                         "frontier_out": size_out})
    sizes = [size for _, _, size in marks]
    tr.add("search.query", start, end, {
        "levels": len(marks),
        "classes": sum(sizes),
        "frontier_peak": max(sizes, default=0),
        "candidates": candidates,
        "survivors": survivors,
    })


def certify(item: dict, ring, out) -> str:
    cert = certificates.build_certificate(item["kind"], ring, item["m"], item["t"], out)
    return certificates.dumps(cert)


def _verify(text: str):
    return certificates.verify_certificate(certificates.loads(text))


def _em_both(tr: Tracer, ring, mseq: MultisetSeq, m: int):
    """e_m by the prefix route over the sequence and by the multiset route."""
    a = tr.call("symfun.em_prefix", symfun.elementary_symmetric, ring, mseq.to_sequence(), m)
    b = tr.call("symfun.em_multiset", symfun.elementary_symmetric_multiset, ring, mseq, m)
    return a, b


def _zero_sub(tr: Tracer, item: dict, mseq: MultisetSeq):
    if item["kind"] == search.KIND_EGZ:
        return tr.call("search.tester", search.find_egz_zero_sub, mseq, item["t"], item["m"])
    return tr.call("search.tester", search.find_dav_zero_sub, mseq, item["m"])


def _check_witness(tr: Tracer, item: dict, ring, out) -> list[str]:
    m = item["m"]
    if out.kind == search.OUTCOME_INFINITE:
        # The obstruction: t copies of 1 have e_m = C(t, m), nonzero.
        ones = MultisetSeq.from_counts(ring, {ring.one: item["t"]})
        a, b = _em_both(tr, ring, ones, m)
        if a != b or a == ring.zero:
            return [f"{_label(item)}: e_{m} of the all-ones family is {a} / {b}"]
        return []
    w = out.witness
    if tr.call("multiset.canonical", w.canonical) != w:
        return [f"{_label(item)}: witness {w} is not canonical"]
    if out.kind != search.OUTCOME_EXACT:
        return []
    # Exactness at one point: the witness plus any one element has a
    # qualifying sub-multiset with e_m = 0.
    mult = list(w.mult)
    mult[out.value % ring.cardinality] += 1
    ext = MultisetSeq(ring, tuple(mult))
    sub = _zero_sub(tr, item, ext)
    if sub is None:
        return [f"{_label(item)}: the witness extended by one element has no zero sub-multiset"]
    a, b = _em_both(tr, ring, sub, m)
    size_ok = sub.length == item["t"] if item["kind"] == search.KIND_EGZ else sub.length >= m
    inside = all(x <= y for x, y in zip(sub.mult, ext.mult))
    if not (size_ok and inside and a == b == ring.zero):
        return [f"{_label(item)}: zero sub-multiset {sub} of the extended witness fails its check"]
    return []


def answer(tr: Tracer, item: dict) -> list[str]:
    ring = _ring(item)
    exp = item["expect"]
    out = query(tr, item, ring)
    fails = []
    if (out.kind, out.value) != (exp["outcome"], exp["value"]):
        fails.append(f"{_label(item)}: got {out.kind} {out.value}, "
                     f"recorded {exp['outcome']} {exp['value']}")
    text = tr.call("certificates.build", certify, item, ring, out)
    tr.count("certificates.bytes", len(text.encode()))
    if sha256(text) != exp["cert_sha256"]:
        fails.append(f"{_label(item)}: certificate bytes differ from the recorded ones")
    ok, messages = tr.call("certificates.verify", _verify, text)
    if not ok:
        fails.append(f"{_label(item)}: verify_certificate: {messages[-1]}")
    fails += _check_witness(tr, item, ring, out)
    bound = item.get("bound")
    if bound:
        params = {k: tuple(v) if isinstance(v, list) else v for k, v in bound["params"].items()}
        res = theorems.bound_calculator(bound["id"], **params)
        if not res.hypotheses_ok or res.value != out.value:
            fails.append(f"{_label(item)}: {bound['id']} gives {res.value}, "
                         f"search gives {out.value}")
    return fails


def direct(tr: Tracer, item: dict) -> list[str]:
    ring = _ring(item)
    exp = item["expect"]
    ref = query(tr, item, ring, method="direct")
    out = query(tr, item, ring)
    fails = []
    if (ref.kind, ref.value) != (exp["outcome"], exp["value"]):
        fails.append(f"{_label(item)}: direct gives {ref.kind} {ref.value}, "
                     f"recorded {exp['outcome']} {exp['value']}")
    if (ref.kind, ref.value, ref.witness) != (out.kind, out.value, out.witness):
        fails.append(f"{_label(item)}: direct gives {ref.kind} {ref.value} {ref.witness}, "
                     f"frontier gives {out.kind} {out.value} {out.witness}")
    return fails


def tester(tr: Tracer, item: dict) -> list[str]:
    mseq = MultisetSeq(_ring(item), tuple(item["mult"]))
    sub = _zero_sub(tr, item, mseq)
    got = None if sub is None else list(sub.mult)
    if got != item["expect"]["zero_sub"]:
        return [f"{_label(item)} on {mseq}: zero sub-multiset {got}, "
                f"recorded {item['expect']['zero_sub']}"]
    return []


def symfun_op(tr: Tracer, item: dict) -> list[str]:
    ring = _ring(item)
    mseq = MultisetSeq(ring, tuple(item["mult"]))
    a, b = _em_both(tr, ring, mseq, item["m"])
    canon = tr.call("multiset.canonical", mseq.canonical)
    exp = item["expect"]
    fails = []
    if not list(a) == list(b) == exp["em"]:
        fails.append(f"e_{item['m']}({mseq}) over {ring}: prefix {a}, multiset {b}, "
                     f"recorded {exp['em']}")
    if list(canon.mult) != exp["canonical"]:
        fails.append(f"canonical({mseq}) over {ring} is {canon}, recorded {exp['canonical']}")
    return fails


def brink_op(tr: Tracer, item: dict) -> list[str]:
    inst = brink.egz_boolean_instance(tuple(item["g"]), item["k"], item["t"], item["m"])
    report = tr.call("brink.count", brink.count_boolean_solutions, inst)
    tr.count("brink.vectors", 1 << inst.n)
    if report.count != item["expect"]["count"]:
        return [f"brink count for g={item['g']} (k={item['k']}, t={item['t']}, "
                f"m={item['m']}) is {report.count}, recorded {item['expect']['count']}"]
    return []


OPS = {
    "answer": answer,
    "direct": direct,
    "tester": tester,
    "symfun": symfun_op,
    "brink": brink_op,
}


def run(tr: Tracer, item: dict) -> list[str]:
    """Run one operation; an exception counts as its failure."""
    try:
        return OPS[item["op"]](tr, item)
    except Exception as exc:  # a crash in egz is one failed operation, never an abort
        return [f"{item['op']} {item.get('kind', '')}: {type(exc).__name__}: {exc}"]


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced round, keyed by per_layer metric name."""
    busy: dict[str, float] = {}
    level_max = 0.0
    search_counts = {"candidates": 0, "survivors": 0, "classes": 0}
    peak = 0
    for name, start, end, _op, attrs in tr.spans:
        busy[name] = busy.get(name, 0.0) + (end - start)
        if name == "search.level":
            level_max = max(level_max, end - start)
        elif name == "search.query":
            for key in search_counts:
                search_counts[key] += attrs[key]
            peak = max(peak, attrs["frontier_peak"])
    levels_s = busy.get("search.levels", 0.0)
    candidates = search_counts["candidates"]
    return {
        "search.seed_s": busy.get("search.seed", 0.0),
        "search.levels_s": levels_s,
        "search.level_max_s": level_max,
        "search.candidates": candidates,
        "search.us_per_candidate": levels_s / candidates * 1e6 if candidates else 0.0,
        "search.classes": search_counts["classes"],
        "search.frontier_peak": peak,
        "search.survival_ratio": search_counts["survivors"] / candidates if candidates else 0.0,
        "search.query_s": busy.get("search.query", 0.0),
        "search.precheck_s": busy.get("search.precheck", 0.0),
        "search.direct_s": busy.get("search.direct", 0.0),
        "search.tester_s": busy.get("search.tester", 0.0),
        "rings.tables_s": busy.get("rings.tables", 0.0),
        "rings.unit_perms": tr.counts.get("rings.unit_perms", 0),
        "multiset.canonical_s": busy.get("multiset.canonical", 0.0),
        "symfun.em_prefix_s": busy.get("symfun.em_prefix", 0.0),
        "symfun.em_multiset_s": busy.get("symfun.em_multiset", 0.0),
        "brink.count_s": busy.get("brink.count", 0.0),
        "brink.vectors": tr.counts.get("brink.vectors", 0),
        "certificates.build_s": busy.get("certificates.build", 0.0),
        "certificates.verify_s": busy.get("certificates.verify", 0.0),
        "certificates.bytes": tr.counts.get("certificates.bytes", 0),
    }
