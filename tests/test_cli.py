"""Command line entry points, exercised through main(argv)."""

from __future__ import annotations

import json

import pytest

from egz import brink, certificates, rings, search
from egz.cli import main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_exact(capsys) -> None:
    code, out, _ = run(capsys, "compute", "--ring", "3", "--m", "2", "--t", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Exact 6"
    assert lines[1] == "witness length 5: 0^1 1^2 2^2"


def test_compute_infinite_with_obstruction(capsys) -> None:
    code, out, _ = run(capsys, "compute", "--ring", "10", "--m", "2", "--t", "8")
    assert code == 0
    assert "Infinite" in out
    assert "obstruction: C(8, 2) = 28 is not divisible by 10" in out


def test_compute_capped_is_unresolved(capsys) -> None:
    code, out, _ = run(
        capsys, "compute", "--ring", "9", "--m", "2", "--t", "9", "--cap", "12"
    )
    assert code == 2
    assert "AtLeast 13" in out
    assert "search reached cap 12 without closing" in out


def test_compute_missing_cap_errors(capsys) -> None:
    code, _, err = run(capsys, "compute", "--ring", "2x4", "--m", "1", "--t", "4")
    assert code == 1
    assert "cap" in err


def test_davenport(capsys) -> None:
    code, out, _ = run(capsys, "davenport", "--ring", "3", "--m", "2", "--cap", "8")
    assert code == 0
    assert out.splitlines()[0] == "Exact 5"


def test_lconst(capsys) -> None:
    code, out, _ = run(capsys, "lconst", "--n", "5", "--m", "5")
    assert code == 0
    assert out.strip() == "25"


def test_lconst_cap_exceeded(capsys) -> None:
    code, _, err = run(capsys, "lconst", "--n", "7", "--m", "2", "--cap", "5")
    assert code == 2
    assert "error" in err


def test_smembers(capsys) -> None:
    code, out, _ = run(capsys, "smembers", "--k", "2", "--m", "2", "--upto", "12")
    assert code == 0
    assert out.strip() == "4 5 8 9 12"


def test_newton_girard(capsys) -> None:
    code, out, _ = run(capsys, "newton-girard", "--m", "3")
    assert code == 0
    assert "6*e_3 = p1^3 - 3*p1*p2 + 2*p3" in out
    assert "minimum dominating set size t(3) = 2" in out


def test_brink_command(capsys, tmp_path) -> None:
    inst = brink.egz_boolean_instance((1,) * 6, 2, 4, 2)
    path = tmp_path / "inst.json"
    path.write_text(brink.to_json(inst), encoding="utf-8")
    code, out, _ = run(capsys, "brink", "--instance", str(path))
    assert code == 0
    assert "16 solutions" in out

    code, out, _ = run(capsys, "brink", "--instance", str(path), "--stop-at", "2")
    assert code == 0
    assert "at least 2 solutions (stopped early)" in out


@pytest.mark.parametrize(
    ("flag", "value"),
    [("--stop-at", "-3"), ("--stop-at", "0"), ("--chunk-bits", "-1"), ("--chunk-bits", "31")],
)
def test_brink_bad_stop_or_chunk_errors(capsys, tmp_path, flag: str, value: str) -> None:
    path = tmp_path / "inst.json"
    path.write_text(brink.to_json(brink.make_instance(3, 2, [])), encoding="utf-8")
    code, out, err = run(capsys, "brink", "--instance", str(path), flag, value)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be >= 1")


@pytest.mark.parametrize(
    ("n", "p", "v", "coeff", "ids"),
    [
        # JSON 1e400 loads as inf, which int() cannot convert
        ("1e400", "2", "1", "1", "[0]"),
        ("3", "1e400", "1", "1", "[0]"),
        ("3", "2", "1e400", "1", "[0]"),
        ("3", "2", "1", "1e400", "[0]"),
        # values an int() coercion or a range check would let through
        ("3", "2", "1", "1", "[0.7]"),
        ("true", "2", "1", "1", "[0]"),
        ("3", "2", "1", "1.5", "[0]"),
        ("3", "2", "1", "1", '["0"]'),
        # integers too large to raise p to or to test for primality quickly
        ("3", "2", "1" + "0" * 400, "1", "[0]"),
        ("3", str(2**61 - 1), "1", "1", "[0]"),
    ],
    ids=["n-1e400", "p-1e400", "v-1e400", "coeff-1e400", "id-float", "n-true",
         "coeff-float", "id-str", "v-huge", "p-huge"],
)
def test_brink_bad_instance_fields(capsys, tmp_path, n, p, v, coeff, ids) -> None:
    path = tmp_path / "inst.json"
    path.write_text(
        f'{{"n": {n}, "p": {p}, "system": [{{"v": {v}, "monomials": [[{coeff}, {ids}]]}}]}}',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "brink", "--instance", str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_brink_missing_file(capsys, tmp_path) -> None:
    code, _, err = run(capsys, "brink", "--instance", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error" in err


def test_compute_json_certificate(capsys, tmp_path) -> None:
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "compute", "--ring", "3", "--m", "2", "--t", "3",
        "--json", "--cert", str(cert_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == {"kind": "exact", "value": 6}
    assert cert_path.read_text(encoding="utf-8") == out
    ok, messages = certificates.verify_certificate(doc)
    assert ok, messages


def test_verify_cert_roundtrip(capsys, tmp_path) -> None:
    cert_path = tmp_path / "cert.json"
    run(
        capsys,
        "compute", "--ring", "3", "--m", "2", "--t", "3", "--cert", str(cert_path),
    )
    code, out, _ = run(capsys, "verify-cert", str(cert_path))
    assert code == 0
    assert "certificate OK" in out

    doc = json.loads(cert_path.read_text(encoding="utf-8"))
    doc["outcome"]["value"] = 7
    cert_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "verify-cert", str(cert_path))
    assert code == 1
    assert "certificate INVALID" in out


def test_verify_cert_full(capsys, tmp_path) -> None:
    cert_path = tmp_path / "cert.json"
    run(
        capsys,
        "davenport", "--ring", "2", "--m", "2", "--cap", "6",
        "--cert", str(cert_path),
    )
    code, out, _ = run(capsys, "verify-cert", str(cert_path), "--full")
    assert code == 0
    assert "certificate OK" in out


def test_check_theorems_filtered(capsys) -> None:
    code, out, _ = run(capsys, "check-theorems", "--filter", "bound-m3")
    assert code == 0
    assert "bound-m3-upper-5" in out
    assert "PASS" in out


def test_check_theorems_json(capsys) -> None:
    code, out, _ = run(capsys, "check-theorems", "--filter", "egz-3-3-2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["id"] == "egz-3-3-2"
    assert payload[0]["status"] == "PASS"


def test_list_theorems(capsys) -> None:
    code, out, _ = run(capsys, "list-theorems", "--tier", "fast")
    assert code == 0
    assert "egz-3-3-2" in out
    assert "dav-2-z8" not in out  # slow tier excluded


def test_version(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "egz 0.1.0" in capsys.readouterr().out


def test_no_subcommand_errors(capsys) -> None:
    code, out, err = run(capsys)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")


def test_bad_ring_argument(capsys) -> None:
    code, _, err = run(capsys, "compute", "--ring", "abc", "--m", "2", "--t", "3")
    assert code == 1
    assert "error" in err


def test_davenport_missing_cap_errors(capsys) -> None:
    code, out, err = run(capsys, "davenport", "--ring", "3", "--m", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "cap" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--ring", "3", "--m", "2", "--t", "3", "--threads", "2"],
        ["compute", "--ring", "3", "--m", "2"],
        ["davenport", "--ring", "3", "--m", "x", "--cap", "5"],
        ["check-theorems", "--tier", "huge"],
        ["check-theorems", "--filter", "kummer", "--timeout", "-1"],
        ["check-theorems", "--filter", "kummer", "--timeout", "0"],
        ["check-theorems", "--filter", "kummer", "--timeout", "nan"],
        ["check-theorems", "--filter", "kummer", "--timeout", "inf"],
        ["check-theorems", "--filter", "kummer", "--jobs", "-4"],
        ["check-theorems", "--filter", "kummer", "--jobs", "0"],
        ["frobnicate"],
    ],
)
def test_usage_errors_are_one_line_exit_1(capsys, argv) -> None:
    # exit 2 means AtLeast, so argparse's usage errors must not use it
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_ring_too_large_fails_before_tables(capsys, monkeypatch) -> None:
    def no_tables(ring):
        raise AssertionError(f"built a table for {ring}")

    for name in ("add_index_table", "mul_index_table", "scalar_index_table"):
        monkeypatch.setattr(rings, name, no_tables)
    code, out, err = run(capsys, "davenport", "--ring", "17x17", "--m", "1", "--cap", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "289 elements" in err
    assert len(err.splitlines()) == 1


def test_out_of_memory_is_one_line_exit_1(capsys, monkeypatch) -> None:
    # numpy's allocation failure (_ArrayMemoryError) is a MemoryError
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 473. MiB for an array with shape (7742160,)")

    monkeypatch.setattr(search, "max_counterexample_length", no_memory)
    code, out, err = run(capsys, "davenport", "--ring", "2x2x2", "--m", "1", "--cap", "7")
    assert code == 1
    assert out == ""
    assert err.startswith("error: out of memory: Unable to allocate 473. MiB")
    assert len(err.splitlines()) == 1
