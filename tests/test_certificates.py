"""Certificates: schema, round-trip verification, byte stability, tampering."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egz import search, theorems
from egz.cli import main
from egz.certificates import (
    TOOL_VERSION,
    build_certificate,
    dumps,
    loads,
    verify_certificate,
)
from egz.rings import make_ring


def _egz_cert(moduli, m, t, cap=None, workers=1):
    ring = make_ring(moduli)
    out = search.egz_constant(ring, m, t, cap=cap, workers=workers)
    return build_certificate(search.KIND_EGZ, ring, m, t, out)


def _dav_cert(moduli, m, cap):
    ring = make_ring(moduli)
    out = search.davenport_m(ring, m, cap)
    return build_certificate(search.KIND_DAV, ring, m, None, out)


def test_exact_certificate_schema() -> None:
    cert = _egz_cert((3,), 2, 3)
    assert cert["query"] == {"kind": "egz", "ring": [3], "m": 2, "t": 3}
    assert cert["outcome"] == {"kind": "exact", "value": 6}
    assert cert["witness"]["multiplicities"] == {"0": 1, "1": 2, "2": 2}
    assert cert["method"] == search.METHOD_FRONTIER
    assert cert["cap_used"] == 6
    assert cert["tool_version"] == TOOL_VERSION


def test_round_trip_verification() -> None:
    for cert in (
        _egz_cert((3,), 2, 3),
        _egz_cert((10,), 2, 8),  # infinite
        _egz_cert((9,), 2, 9, cap=11),  # at_least
        _dav_cert((3,), 2, 10),
        _dav_cert((2,), 4, 8),
    ):
        text = dumps(cert)
        back = loads(text)
        ok, messages = verify_certificate(back)
        assert ok, messages


def test_full_recheck() -> None:
    for cert in (_egz_cert((3,), 2, 3), _dav_cert((3,), 2, 10)):
        ok, messages = verify_certificate(cert, recheck_search=True)
        assert ok, messages


def test_dumps_byte_stability() -> None:
    a = dumps(_egz_cert((9,), 2, 9, cap=12))
    b = dumps(_egz_cert((9,), 2, 9, cap=12))
    c = dumps(_egz_cert((9,), 2, 9, cap=12, workers=2))
    assert a == b == c
    assert a.endswith("\n")
    # key order is part of the contract
    keys = list(loads(a).keys())
    assert keys == ["query", "outcome", "witness", "method", "cap_used", "tool_version"]


@pytest.mark.parametrize(
    ("moduli", "m", "t", "cap_used", "sha256"),
    [
        ((8,), 2, 16, 30, "31ca0bedbbf93c87b3b254bde695cd37fd0cd3f908a5590a7a6ac0570f897081"),
        ((9,), 2, 9, 72, "d93305102575d403aa4db546c081f3efc1dafb275c32b78d2b317f08d61ad96a"),
        ((5,), 5, 25, 45, "f013fff29c7f59c0aeb28815ad26da59f9d3babb2cfdefb7d77c5f6ac3f7b50d"),
        ((2, 2, 2), 2, 8, 14, "0968ffb1e7b0bd00ef3ce6618ca0e64ef933fd6afed519fb4946041f87df9db9"),
        ((2, 3), 1, 6, 31, "fc645f574d7f1b31264973865dd5862e688f956abed4fad40eab6c972077f1c3"),
        ((10,), 2, 8, None, "7b282351157951c226e12c5551e21188aa44ead70f899edc18a01d90f1a0e73a"),
    ],
    ids=["E16-Z8-2", "E9-Z9-2", "E25-Z5-5", "E8-Z2^3-2", "E6-Z2xZ3-1", "E8-Z10-2-infinite"],
)
def test_auto_cap_certificates_are_pinned(moduli, m, t, cap_used, sha256) -> None:
    # the Baseline closures under their automatic caps, byte for byte;
    # computed_egz shares the searches with the fixture tests
    out = theorems.computed_egz(moduli, m, t)
    assert out.cap_used == cap_used
    cert = build_certificate(search.KIND_EGZ, make_ring(moduli), m, t, out)
    assert hashlib.sha256(dumps(cert).encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    ("moduli", "m", "cap", "sha256"),
    [
        ((5, 5), 1, 9, "0a735032271e176987f75ee7168adb39d93ffc6a17a336c9bc78cba3f83fe8db"),
        ((3, 9), 1, 11, "a1aaec931a9c68ed6c92dc8a6cffe0d1cfae2a7099e22b475ae8f5d62bd6dd6f"),
        ((3, 3), 1, 6, "cac4fd5c5fd32b2d22b57fe76e249678741ca806582901f7db6554539fc4b8b7"),
        ((2,) * 5, 1, 6, "6a5dbd05a081c0a13dc3804fec93a4238ef906d190d13d1603aa2a9d16f590f0"),
        ((3, 3, 3), 1, 7, "0f0edbb891e9800f880553da745a4284bae6a0e0afd814631caac9261643f495"),
    ],
    ids=["D1-Z5xZ5", "D1-Z3xZ9", "D1-Z3xZ3", "D1-Z2^5", "D1-Z3^3"],
)
def test_davenport_certificates_are_pinned(moduli, m, cap, sha256) -> None:
    # recorded when the search reduced by units only: a larger search group
    # must not move a witness or a byte
    out = theorems.computed_dav(moduli, m, cap)
    cert = build_certificate(search.KIND_DAV, make_ring(moduli), m, None, out)
    assert hashlib.sha256(dumps(cert).encode()).hexdigest() == sha256


def test_tampered_value_rejected() -> None:
    cert = _egz_cert((3,), 2, 3)
    bad = json.loads(dumps(cert))
    bad["outcome"]["value"] = 7
    ok, messages = verify_certificate(bad)
    assert not ok
    assert messages


def test_tampered_witness_rejected() -> None:
    cert = _egz_cert((3,), 2, 3)

    bad = json.loads(dumps(cert))
    bad["witness"]["multiplicities"] = {"0": 2, "1": 2, "2": 1}
    ok, _ = verify_certificate(bad)
    assert not ok  # not a counterexample any more

    bad = json.loads(dumps(cert))
    bad["witness"]["multiplicities"] = {"1": 2, "2": 2}
    ok, _ = verify_certificate(bad)
    assert not ok  # length no longer value - 1


def test_tampered_infinite_rejected() -> None:
    cert = _egz_cert((10,), 2, 8)
    bad = json.loads(dumps(cert))
    bad["query"]["t"] = 4  # C(4,2) = 6: 10 does not divide it either
    ok, _ = verify_certificate(bad)
    assert ok  # still a genuine obstruction
    bad["query"]["t"] = 5  # C(5,2) = 10 = 0 mod 10: obstruction vanishes
    ok, messages = verify_certificate(bad)
    assert not ok
    assert any("infinite" in msg for msg in messages)


def test_at_least_requires_witness_at_cap() -> None:
    cert = _egz_cert((9,), 2, 9, cap=11)
    bad = json.loads(dumps(cert))
    bad["cap_used"] = 13
    ok, _ = verify_certificate(bad)
    assert not ok


def test_davenport_certificate_has_null_t() -> None:
    cert = _dav_cert((3,), 2, 10)
    assert cert["query"]["t"] is None
    bad = json.loads(dumps(cert))
    bad["query"]["t"] = 3
    ok, _ = verify_certificate(bad)
    assert not ok


# (certificate, path to a field, bad value): a query field or witness count
# that is not an int of the right range, JSON true among them, or a witness
# that is not an object
_BAD_FIELDS = [
    pytest.param("egz", ("query", "m"), "x", id="egz-m-str"),
    pytest.param("egz", ("query", "m"), 2.0, id="egz-m-float"),
    pytest.param("egz", ("query", "t"), 2.5, id="egz-t-float"),
    pytest.param("egz", ("query", "t"), "3", id="egz-t-str"),
    pytest.param("egz", ("witness", "multiplicities", "0"), True, id="egz-count-true"),
    pytest.param("egz", ("witness", "multiplicities"), [], id="egz-witness-list"),
    pytest.param("dav", ("query", "m"), "x", id="dav-m-str"),
    pytest.param("dav", ("query", "m"), 0, id="dav-m-0"),
    pytest.param("infinite", ("query", "m"), 0, id="infinite-m-0"),
    pytest.param("infinite", ("query", "m"), -1, id="infinite-m-negative"),
    pytest.param("infinite", ("query", "m"), True, id="infinite-m-true"),
    pytest.param("infinite", ("query", "t"), 8.0, id="infinite-t-float"),
    pytest.param("infinite", ("witness", "multiplicities", "1"), True, id="infinite-count-true"),
]


def _with_bad_field(base: str, path, value) -> dict:
    cert = {
        "egz": lambda: _egz_cert((3,), 2, 3),
        "dav": lambda: _dav_cert((3,), 2, 10),
        "infinite": lambda: _egz_cert((10,), 2, 8),
    }[base]()
    ok, messages = verify_certificate(cert)
    assert ok, messages
    node = cert
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cert


@pytest.mark.parametrize("base, path, value", _BAD_FIELDS)
def test_malformed_fields_rejected(base, path, value) -> None:
    cert = _with_bad_field(base, path, value)
    ok, messages = verify_certificate(cert, recheck_search=True)
    assert not ok
    assert messages


@pytest.mark.parametrize("base, path, value", _BAD_FIELDS)
def test_verify_cert_cli_rejects_malformed_fields(
    base, path, value, capsys, tmp_path
) -> None:
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(dumps(_with_bad_field(base, path, value)), encoding="utf-8")
    capsys.readouterr()
    code = main(["verify-cert", str(cert_path), "--full"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.splitlines()[-1] == "certificate INVALID"
    assert err == ""


def test_wide_row_certificate_fails_full_recheck() -> None:
    # D_1(Z_27) = 27; searches with a cap above 255 that ran on big-endian
    # uint16 rows got multiplicities back byte-swapped and certified this.
    # The witness 26^2 passes the testers; the re-run search disagrees.
    cert = {
        "query": {"kind": "davenport", "ring": [27], "m": 1, "t": None},
        "outcome": {"kind": "exact", "value": 3},
        "witness": {"multiplicities": {"26": 2}},
        "method": "frontier_exhaustive",
        "cap_used": 256,
        "tool_version": TOOL_VERSION,
    }
    ok, messages = verify_certificate(cert)
    assert ok, messages
    ok, messages = verify_certificate(cert, recheck_search=True)
    assert not ok
    assert messages[-1] == "re-run found max counterexample length 26, certificate claims 2"


def test_full_recheck_bypasses_the_search_cache() -> None:
    # D_1(Z_5 x Z_5) = 9: with its cached search cut to three levels and
    # marked closed, a cached query answers 2, but the re-check runs a new
    # search, which neither reads the cut entry nor stores one of its own
    ring = make_ring((5, 5))
    search._kit.cache_clear()
    cert = _dav_cert((5, 5), 1, 9)
    search._kit.cache_clear()
    ok, messages = verify_certificate(cert, recheck_search=True)
    assert ok, messages
    assert not search._kit(ring, True).searches
    search.davenport_m(ring, 1, 9)
    (entry,) = search._kit(ring, True).searches.values()
    del entry.levels[3:]
    entry.close()
    entry.done = True
    assert search.max_counterexample_length(search.KIND_DAV, ring, 1, 9)[0] == 2
    ok, messages = verify_certificate(cert, recheck_search=True)
    assert ok, messages
    assert messages[-1] == "search re-run to cap 9 confirms max counterexample length 8"
    assert len(entry.levels) == 3
    search._kit.cache_clear()


def test_full_recheck_detects_wrong_method() -> None:
    cert = _egz_cert((3,), 2, 3)
    bad = json.loads(dumps(cert))
    bad["method"] = "guesswork"
    ok, _ = verify_certificate(bad, recheck_search=True)
    assert not ok


@lru_cache(maxsize=None)
def _exact_cert_texts() -> tuple[str, ...]:
    certs = (
        _egz_cert((3,), 2, 3),
        _egz_cert((2, 2), 1, 4, cap=8),
        _dav_cert((3,), 2, 10),
        _dav_cert((2, 2), 1, 4),
    )
    return tuple(dumps(cert) for cert in certs)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_tampered_certificates_rejected_property(data) -> None:
    cert = json.loads(data.draw(st.sampled_from(_exact_cert_texts()), label="cert"))
    ok, messages = verify_certificate(cert, recheck_search=True)
    assert ok, messages
    tamper = data.draw(st.sampled_from(("value", "drop", "ring")), label="tamper")
    if tamper == "value":
        cert["outcome"]["value"] += data.draw(st.sampled_from((-1, 1)), label="delta")
    elif tamper == "drop":
        witness = cert["witness"]["multiplicities"]
        del witness[data.draw(st.sampled_from(sorted(witness)), label="index")]
    else:
        others = [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (9,)]
        others.remove(tuple(cert["query"]["ring"]))
        cert["query"]["ring"] = list(data.draw(st.sampled_from(others), label="ring"))
    ok, messages = verify_certificate(cert, recheck_search=True)
    assert not ok, (tamper, cert, messages)


def _peak_verify(cert):
    tracemalloc.start()
    try:
        result = verify_certificate(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_large_ring_certificates_allocate_nothing_dense() -> None:
    # Z_1000 x Z_1000 has 10^6 elements; index 1001 is the identity (1, 1)
    query = {"kind": "egz", "ring": [1000, 1000], "m": 2, "t": 3}
    infinite = {
        "query": query, "outcome": {"kind": "infinite", "value": None},
        "witness": {"multiplicities": {"1001": 1}},
        "method": search.METHOD_PRECHECK, "cap_used": None,
    }
    (ok, messages), peak = _peak_verify(infinite)
    assert ok, messages
    assert peak < 2**20, peak
    for kind, value in ((search.OUTCOME_EXACT, 5), (search.OUTCOME_AT_LEAST, 10)):
        cert = {
            "query": query, "outcome": {"kind": kind, "value": value},
            "witness": {"multiplicities": {"1001": value - 1}},
            "method": search.METHOD_FRONTIER, "cap_used": 9,
        }
        (ok, messages), peak = _peak_verify(cert)
        assert not ok
        assert messages == [
            "Z1000xZ1000 has 1000000 elements; the testers handle at most 256"
        ]
        assert peak < 2**20, peak
    wrong = json.loads(json.dumps(infinite))
    wrong["witness"]["multiplicities"] = {"1000": 1}
    (ok, _), peak = _peak_verify(wrong)
    assert not ok
    assert peak < 2**20, peak
