"""Command line entry points, exercised through main(argv)."""

from __future__ import annotations

import json

import pytest

from egz import brink, certificates
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
    code, _, err = run(capsys, "compute", "--ring", "2x3", "--m", "1", "--t", "6")
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
    assert "usage" in (out + err)


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
    "threads, env",
    [("0", None), ("-2", None), (None, "abc"), (None, "0"), (None, "")],
)
def test_bad_threads_rejected(capsys, monkeypatch, threads, env) -> None:
    if env is not None:
        monkeypatch.setenv("EGZ_THREADS", env)
    argv = ["compute", "--ring", "3", "--m", "2", "--t", "3"]
    if threads is not None:
        argv += ["--threads", threads]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_threads_from_environment(capsys, monkeypatch) -> None:
    monkeypatch.setenv("EGZ_THREADS", "2")
    code, out, _ = run(capsys, "compute", "--ring", "3", "--m", "2", "--t", "3")
    assert code == 0
    assert out.splitlines()[0] == "Exact 6"
