"""Command-line interface.

Subcommands:
  compute        EGZ constant E(t, G, m) by certified exhaustive search
  davenport      degree-m Davenport constant D_m(G) by the same search
  lconst         L(n, m): least ell >= m + 1 with n | C(ell, m)
  smembers       members of S(k, m) = {t >= m : k | C(t, m)} up to a limit
  newton-girard  power-sum expansion of m! * e_m and its dominating sets
  brink          count boolean solutions of a congruence system
  check-theorems run the fixture suite
  verify-cert    re-check a certificate document

Exit codes: 0 for Exact/Infinite results and all-green suites, 2 for
AtLeast results and suite timeouts, 1 for usage or internal errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import brink, certificates, numtheory, search, symfun, theorems
from .certificates import TOOL_VERSION
from .rings import make_ring, parse_moduli

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_UNRESOLVED = 2


def _progress_printer(enabled: bool):
    if not enabled:
        return None

    def report(level: int, size: int) -> None:
        print(f"  level {level}: frontier size {size}", file=sys.stderr)

    return report


def _obstruction_line(ring, m: int, t: int) -> str:
    residue = numtheory.binom_mod(t, m, ring.exponent)
    if t <= 2000:
        return (
            f"obstruction: C({t}, {m}) = {math.comb(t, m)} "
            f"is not divisible by {ring.exponent}"
        )
    return f"obstruction: C({t}, {m}) mod {ring.exponent} = {residue}, not 0"


def _report(args, kind: str, ring, t, out) -> int:
    """Certificate (--json, --cert) and prose for one computed outcome."""
    code = _EXIT_UNRESOLVED if out.kind == search.OUTCOME_AT_LEAST else _EXIT_OK
    if args.json or args.cert:
        text = certificates.dumps(
            certificates.build_certificate(kind, ring, args.m, t, out)
        )
        if args.json:
            sys.stdout.write(text)
        if args.cert:
            with open(args.cert, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"certificate written to {args.cert}", file=sys.stderr)
    if args.json:
        return code
    print(theorems.describe(out))
    if out.kind == search.OUTCOME_INFINITE:
        print(_obstruction_line(ring, args.m, t))
        return code
    print(f"witness length {out.witness.length}: {out.witness}")
    if out.kind == search.OUTCOME_AT_LEAST:
        print(f"search reached cap {out.cap_used} without closing")
    return code


def _cmd_compute(args) -> int:
    ring = make_ring(parse_moduli(args.ring))
    out = search.egz_constant(
        ring, args.m, args.t, cap=args.cap,
        progress=_progress_printer(args.progress),
    )
    return _report(args, search.KIND_EGZ, ring, args.t, out)


def _cmd_davenport(args) -> int:
    ring = make_ring(parse_moduli(args.ring))
    out = search.davenport_m(
        ring, args.m, args.cap, progress=_progress_printer(args.progress)
    )
    return _report(args, search.KIND_DAV, ring, None, out)


def _cmd_lconst(args) -> int:
    try:
        value = numtheory.lconst(args.n, args.m, cap=args.cap)
    except numtheory.CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_UNRESOLVED
    print(value)
    return _EXIT_OK


def _cmd_smembers(args) -> int:
    members = numtheory.feasible_lengths(args.k, args.m, args.upto)
    print(" ".join(str(t) for t in members))
    return _EXIT_OK


def _cmd_newton_girard(args) -> int:
    exp = symfun.newton_girard(args.m)
    print(symfun.format_expansion(exp))
    ds = symfun.min_dominating_set(args.m)
    named = ", ".join(f"p{i}" for i in ds.indices)
    print(f"minimum dominating set size t({args.m}) = {ds.size}: {{{named}}}")
    std = symfun.standard_dominating_indices(args.m)
    if std != ds.indices:
        named_std = ", ".join(f"p{i}" for i in std)
        print(f"standard dominating set: {{{named_std}}}")
    return _EXIT_OK


def _cmd_brink(args) -> int:
    with open(args.instance, "r", encoding="utf-8") as fh:
        inst = brink.from_json(fh.read())
    report = brink.count_boolean_solutions(
        inst, stop_at=args.stop_at, chunk_bits=args.chunk_bits
    )
    relation = "<" if inst.degree_condition else ">="
    print(
        f"degree condition: weight {inst.weight} {relation} {inst.n} variables"
        f" ({'holds' if inst.degree_condition else 'fails'})"
    )
    if report.count is None:
        print(f"at least {report.at_least} solutions (stopped early)")
    else:
        print(f"{report.count} solutions")
    return _EXIT_OK


def _cmd_check_theorems(args) -> int:
    outcomes = theorems.run_suite(
        tier=args.tier, name_filter=args.filter,
        jobs=args.jobs, timeout=args.timeout,
    )
    if args.json:
        payload = [
            {
                "id": oc.fixture_id,
                "tier": oc.tier,
                "asserting": oc.asserting,
                "status": oc.status,
                "seconds": oc.seconds,
                "computed": oc.computed,
                "expected": oc.expected,
                "detail": oc.detail,
            }
            for oc in outcomes
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(theorems.format_outcomes(outcomes))
    counts = theorems.summarize(outcomes)
    if counts["FAIL"] or counts["ERROR"]:
        return _EXIT_ERROR
    if counts["TIMEOUT"]:
        return _EXIT_UNRESOLVED
    return _EXIT_OK


def _cmd_list_theorems(args) -> int:
    for fx in theorems.all_fixtures():
        if args.tier != "all" and fx.tier != args.tier:
            continue
        flag = "" if fx.asserting else "  [informational]"
        print(f"{fx.id:<28} [{fx.tier}, {fx.runtime_hint}]{flag}")
        if args.verbose:
            print(f"    {fx.statement}")
    return _EXIT_OK


def _cmd_verify_cert(args) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        cert = certificates.loads(fh.read())
    ok, messages = certificates.verify_certificate(cert, recheck_search=args.full)
    for msg in messages:
        print(msg)
    print("certificate OK" if ok else "certificate INVALID")
    return _EXIT_OK if ok else _EXIT_ERROR


class _UsageError(Exception):
    """A command line argparse rejected."""


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage block and exits 2; exit 2 here means AtLeast,
    # so a usage error becomes one error line and exit 1 in main. Subparsers
    # are built from this class too.
    def error(self, message: str):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="egz",
        description=(
            "Exact zero-e_m EGZ and higher-degree Davenport constants over "
            "products of Z_n, with closed-form bounds and certificates."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"egz {TOOL_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def add_ring_opts(p, with_t: bool) -> None:
        p.add_argument(
            "--ring", required=True,
            help="moduli, e.g. 9 or 2x4 or 2,2,2 (the group Z_n1 x ... x Z_nr)",
        )
        p.add_argument("--m", type=int, required=True, help="degree of e_m")
        if with_t:
            p.add_argument(
                "--t", type=int, required=True, help="target subsequence length"
            )
        p.add_argument(
            "--cap", type=int, default=None,
            help="search this far before reporting AtLeast"
            + ("" if with_t else " (required)"),
        )
        p.add_argument(
            "--progress", action="store_true",
            help="print per-level frontier sizes to stderr",
        )
        p.add_argument(
            "--json", action="store_true",
            help="print a certificate JSON document instead of text",
        )
        p.add_argument(
            "--cert", metavar="FILE", default=None,
            help="also write the certificate JSON to FILE",
        )

    p = sub.add_parser("compute", help="EGZ constant E(t, G, m)")
    add_ring_opts(p, with_t=True)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("davenport", help="Davenport constant D_m(G)")
    add_ring_opts(p, with_t=False)
    p.set_defaults(func=_cmd_davenport)

    p = sub.add_parser("lconst", help="L(n, m), least ell with n | C(ell, m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=int, default=numtheory.LCONST_CAP)
    p.set_defaults(func=_cmd_lconst)

    p = sub.add_parser("smembers", help="members of S(k, m) up to a limit")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--upto", type=int, required=True)
    p.set_defaults(func=_cmd_smembers)

    p = sub.add_parser(
        "newton-girard", help="power-sum expansion of m! * e_m"
    )
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_newton_girard)

    p = sub.add_parser("brink", help="count boolean solutions of a system")
    p.add_argument("--instance", required=True, metavar="FILE")
    p.add_argument("--stop-at", type=int, default=None)
    p.add_argument("--chunk-bits", type=int, default=brink.DEFAULT_CHUNK_BITS)
    p.set_defaults(func=_cmd_brink)

    p = sub.add_parser("check-theorems", help="run the fixture suite")
    p.add_argument("--tier", choices=("fast", "slow", "all"), default="fast")
    p.add_argument("--filter", default=None, help="substring of fixture ids")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-fixture seconds; timeouts report as TIMEOUT, exit 2",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check_theorems)

    p = sub.add_parser("list-theorems", help="list fixtures without running")
    p.add_argument("--tier", choices=("fast", "slow", "all"), default="all")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_list_theorems)

    p = sub.add_parser("verify-cert", help="re-check a certificate document")
    p.add_argument("path", metavar="FILE")
    p.add_argument(
        "--full", action="store_true",
        help="also re-run the search at the recorded cap",
    )
    p.set_defaults(func=_cmd_verify_cert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    except MemoryError as exc:  # numpy's _ArrayMemoryError too
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
