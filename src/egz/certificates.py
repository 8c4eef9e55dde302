"""Stable JSON certificates for computed constants, with re-verification.

A certificate records the query (kind, ring moduli, m, t), the outcome
(exact / at_least / infinite plus the value), the witness multiplicities
(element index -> count, nonzero entries only), the search method, the cap
the search ran under, and the tool version. Field order and formatting are
fixed so identical inputs yield byte-identical documents on every run.

verify_certificate independently re-checks what a certificate claims:
witness shape and length arithmetic always; the witness's counterexample
status via the full sub-multiset testers; the divisibility obstruction for
infinite outcomes; and optionally (recheck_search) the closing search
itself, which re-establishes exactness rather than trusting the emitter.
"""

from __future__ import annotations

import json
from typing import Any

from . import numtheory, search
from .multiset import MultisetSeq
from .rings import RingSpec, element_index, make_ring

TOOL_VERSION = "0.1.0"


def build_certificate(
    kind: str,
    ring: RingSpec,
    m: int,
    t: int | None,
    outcome: search.EgzOutcome,
) -> dict[str, Any]:
    """Assemble the certificate document (insertion order is the schema)."""
    if kind not in (search.KIND_EGZ, search.KIND_DAV):
        raise ValueError(f"unknown kind {kind!r}")
    witness = {
        str(i): c for i, c in enumerate(outcome.witness.mult) if c
    }
    return {
        "query": {
            "kind": kind,
            "ring": list(ring.moduli),
            "m": m,
            "t": t,
        },
        "outcome": {
            "kind": outcome.kind,
            "value": outcome.value,
        },
        "witness": {
            "multiplicities": witness,
        },
        "method": outcome.method,
        "cap_used": outcome.cap_used,
        "tool_version": TOOL_VERSION,
    }


def dumps(cert: dict[str, Any]) -> str:
    return json.dumps(cert, indent=2) + "\n"


def loads(text: str) -> dict[str, Any]:
    cert = json.loads(text)
    if not isinstance(cert, dict):
        raise ValueError("certificate must be a JSON object")
    return cert


def _witness_counts(ring: RingSpec, cert: dict[str, Any]) -> dict[int, int]:
    """The witness as {element index: count}, validated entry by entry
    without building a vector of the ring's size."""
    mults = cert["witness"]["multiplicities"]
    if not isinstance(mults, dict):
        raise ValueError("witness multiplicities must be an object")
    counts = {}
    for key, count in mults.items():
        idx = int(key)
        if not 0 <= idx < ring.cardinality:
            raise ValueError(f"witness index {idx} out of range for {ring}")
        if not numtheory.is_int(count) or count <= 0:
            raise ValueError(f"witness count for index {idx} must be a positive int")
        counts[idx] = count
    return counts


def verify_certificate(
    cert: dict[str, Any], recheck_search: bool = False
) -> tuple[bool, list[str]]:
    """Re-check a certificate. Returns (ok, messages); messages narrate each
    check so failures are attributable. recheck_search re-runs the frontier
    search at the recorded cap for exact/at_least outcomes."""
    messages: list[str] = []
    try:
        query = cert["query"]
        kind = query["kind"]
        ring = make_ring(query["ring"])
        m = query["m"]
        t = query["t"]
        outcome_kind = cert["outcome"]["kind"]
        value = cert["outcome"]["value"]
    except (KeyError, TypeError, ValueError) as exc:
        return False, [f"malformed certificate: {exc}"]
    if kind not in (search.KIND_EGZ, search.KIND_DAV):
        return False, [f"unknown query kind {kind!r}"]
    if not numtheory.is_int(m) or m < 1:
        return False, [f"query m must be an integer >= 1, got {m!r}"]
    if t is not None and not numtheory.is_int(t):
        return False, [f"query t must be null or an integer, got {t!r}"]
    if kind == search.KIND_EGZ and (t is None or t < m):
        return False, [f"EGZ query needs t >= m, got t={t}, m={m}"]
    if kind == search.KIND_DAV and t is not None:
        return False, ["davenport query must have t = null"]

    if outcome_kind == search.OUTCOME_INFINITE:
        if value is not None:
            return False, ["infinite outcome must carry value = null"]
        residue = numtheory.binom_mod(t, m, ring.exponent)
        if residue == 0:
            return False, [
                f"claimed infinite but C({t},{m}) = 0 mod exponent {ring.exponent}"
            ]
        messages.append(
            f"obstruction holds: C({t},{m}) = {residue} mod {ring.exponent} != 0"
        )
        try:
            counts = _witness_counts(ring, cert)
        except (KeyError, TypeError, ValueError) as exc:
            return False, messages + [f"bad witness: {exc}"]
        if counts != {element_index(ring, ring.one): 1}:
            return False, messages + [
                "infinite witness must be one copy of the multiplicative identity"
            ]
        messages.append("witness is the all-ones family generator")
        return True, messages

    if outcome_kind not in (search.OUTCOME_EXACT, search.OUTCOME_AT_LEAST):
        return False, [f"unknown outcome kind {outcome_kind!r}"]
    if not numtheory.is_int(value) or value < 1:
        return False, [f"outcome value must be a positive integer, got {value!r}"]
    if ring.cardinality > search.MAX_CARDINALITY:
        return False, [
            f"{ring} has {ring.cardinality} elements; the testers handle at most "
            f"{search.MAX_CARDINALITY}"
        ]
    try:
        witness = MultisetSeq.from_index_counts(ring, _witness_counts(ring, cert))
    except (KeyError, TypeError, ValueError) as exc:
        return False, [f"bad witness: {exc}"]
    if witness.length != value - 1:
        return False, [
            f"witness length {witness.length} does not equal value - 1 = {value - 1}"
        ]
    messages.append(f"witness length {witness.length} = value - 1")

    vacuous_below = t if kind == search.KIND_EGZ else m
    if witness.length < vacuous_below:
        messages.append(
            f"witness shorter than {vacuous_below}: counterexample vacuously"
        )
    elif kind == search.KIND_EGZ:
        if not search.is_counterexample_egz(witness, t, m):
            hit = search.find_egz_zero_sub(witness, t, m)
            return False, messages + [
                f"witness defeated: sub-multiset ({hit}) of length {t} has e_{m} = 0"
            ]
        messages.append(f"witness has no length-{t} sub-multiset with e_{m} = 0")
    else:
        if not search.is_counterexample_dav(witness, m):
            hit = search.find_dav_zero_sub(witness, m)
            return False, messages + [
                f"witness defeated: sub-multiset ({hit}) of length >= {m} has e_{m} = 0"
            ]
        messages.append(f"witness has no length >= {m} sub-multiset with e_{m} = 0")

    cap_used = cert.get("cap_used")
    if not numtheory.is_int(cap_used):
        return False, messages + ["exact/at_least certificates need an integer cap_used"]
    if outcome_kind == search.OUTCOME_AT_LEAST and witness.length != cap_used:
        return False, messages + [
            f"at_least witness length {witness.length} must equal cap_used {cap_used}"
        ]
    if outcome_kind == search.OUTCOME_EXACT and witness.length >= cap_used:
        return False, messages + [
            f"exact outcome needs witness length {witness.length} < cap_used {cap_used}"
        ]

    if recheck_search:
        method = cert.get("method", "")
        if not str(method).endswith("exhaustive"):
            return False, messages + [
                f"cannot re-run search for method {method!r}"
            ]
        length, _ = search.max_counterexample_length(
            kind, ring, m, cap_used, t=t if kind == search.KIND_EGZ else None
        )
        if length != witness.length:
            return False, messages + [
                f"re-run found max counterexample length {length}, "
                f"certificate claims {witness.length}"
            ]
        messages.append(
            f"search re-run to cap {cap_used} confirms max counterexample "
            f"length {length}"
        )
    return True, messages
