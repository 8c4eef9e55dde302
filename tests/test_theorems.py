"""Bound calculators, group-structure helpers, and the fixture suite."""

from __future__ import annotations

import ast
import multiprocessing
from pathlib import Path

import pytest

from egz import bounds, search, theorems
from egz.bounds import (
    bound_calculator,
    calculator_ids,
    d_star,
    group_rank,
    invariant_factors,
    is_p_group,
)
from egz.theorems import (
    all_fixtures,
    computed_dav,
    computed_egz,
    run_suite,
    summarize,
    format_outcomes,
)


def test_invariant_factors() -> None:
    assert invariant_factors((8,)) == (8,)
    assert invariant_factors((2, 4)) == (2, 4)
    assert invariant_factors((2, 2, 3)) == (2, 6)
    assert invariant_factors((2, 3, 5)) == (30,)
    assert invariant_factors((4, 6)) == (2, 12)
    assert invariant_factors((3, 9)) == (3, 9)
    assert invariant_factors((2, 2, 2, 2)) == (2, 2, 2, 2)
    # divisibility chain holds
    for moduli in ((12, 18), (4, 10, 25), (6, 6, 6)):
        inv = invariant_factors(moduli)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


def test_d_star_and_rank() -> None:
    assert d_star((9,)) == 8
    assert d_star((2, 2, 3)) == 6
    assert group_rank((2, 2, 3)) == 2
    assert group_rank((2, 3, 5)) == 1


def test_is_p_group() -> None:
    assert is_p_group((8,))
    assert is_p_group((2, 4, 8))
    assert not is_p_group((6,))
    assert not is_p_group((2, 3))


def test_calculator_spot_values() -> None:
    assert bound_calculator("egz-general-upper", k=9, m=2, t=9).value == 72
    assert bound_calculator("egz-low-lower", k=8, m=2, t=16).value == 30
    assert bound_calculator("dav-low-lower", n=8, m=2).value == 16
    assert bound_calculator("egz-vs-davenport-lower", t=9, m=2, dav=9).value == 16
    assert bound_calculator("low-primepower", p=5, s=1, u=1).value == 25
    assert bound_calculator("dav-degree2-upper", k=9, r=3).value == 12
    assert bound_calculator("egz-odd-square-upper", k=9, r=3, ell=1).value == 21
    assert bound_calculator("egz-odd-prime-2-lower", p=5).value == 9
    assert bound_calculator("egz-odd-prime-2-lower", p=7).value == 14
    assert bound_calculator("egz-m3-upper", k=5).value == 17
    assert bound_calculator("egz-qq3-lower", q=5).value == 7
    assert bound_calculator("egz-z2-exact", t=4, m=2).value == 6
    assert bound_calculator("dav-z2-exact", m=12).value == 16
    assert bound_calculator("egz-primepower-upper", p=2, r=4, s=3, m=2).value == 30
    assert bound_calculator("egz-primepower-lower", p=2, s=3, u=1, t=16).value == 30
    assert bound_calculator("egz-primepower-exact", p=3, r=2, s=1, u=1).value == 15
    assert bound_calculator("egz-p-group-upper", p=2, alphas=(1, 1, 1), m=2).value == 14
    assert bound_calculator("egz-p-group-lower", p=2, alphas=(1, 1, 1), s=1, t=8).value == 14
    assert bound_calculator("egz-p-group-exact", p=2, alphas=(1, 1, 1), s=1).value == 14
    assert bound_calculator("egz-p-group-linear-upper", p=7, alphas=(1, 1), m=2).value == 73
    assert bound_calculator("rank2-egz-exact", n1=3, n2=3).value == 9
    assert bound_calculator("egz-classic-exact", k=8).value == 15
    assert bound_calculator("olson-davenport", moduli=(3, 9)).value == 11
    assert bound_calculator("gao-qq-conjecture", q=3, t=9).value == 15


def test_calculator_hypothesis_checks() -> None:
    res = bound_calculator("egz-general-upper", k=10, m=2, t=8)
    assert not res.hypotheses_ok
    assert any("hypothesis fails" in w for w in res.warnings)
    assert res.value == 10 * 7 - 2 + 2  # formula still evaluated

    assert not bound_calculator("dav-degree2-upper", k=8, r=4).hypotheses_ok
    assert not bound_calculator("egz-odd-square-upper", k=9, r=3, ell=0).hypotheses_ok
    assert not bound_calculator("egz-odd-prime-2-lower", p=9).hypotheses_ok
    assert not bound_calculator("egz-m3-upper", k=6).hypotheses_ok
    assert not bound_calculator("egz-qq3-lower", q=6).hypotheses_ok
    assert not bound_calculator("egz-primepower-exact", p=2, r=3, s=3, u=1).hypotheses_ok
    assert not bound_calculator("egz-p-group-exact", p=2, alphas=(1, 1, 1), s=2).hypotheses_ok
    assert not bound_calculator("egz-p-group-linear-upper", p=2, alphas=(1, 1), m=2).hypotheses_ok
    assert not bound_calculator("rank2-egz-exact", n1=3, n2=4).hypotheses_ok
    assert bound_calculator("olson-davenport", moduli=(6, 10)).hypotheses_ok
    assert not bound_calculator("olson-davenport", moduli=(6, 6, 6)).hypotheses_ok
    assert not bound_calculator("egz-z2-exact", t=3, m=2).hypotheses_ok


def test_calculator_kinds_and_warning_text() -> None:
    assert bound_calculator("gao-qq-conjecture", q=3, t=9).kind == "conjecture"
    assert bound_calculator("egz-primepower-exact", p=3, r=2, s=1, u=1).kind == "exact"
    assert bound_calculator("egz-general-upper", k=9, m=2, t=9).kind == "upper"
    linear = bound_calculator("egz-p-group-linear-upper", p=7, alphas=(1, 1), m=2)
    assert linear.hypotheses_ok
    assert any("alternate reading" in w for w in linear.warnings)
    rank1 = bound_calculator("egz-p-group-linear-upper", p=7, alphas=(2,), m=2)
    assert not any("alternate reading" in w for w in rank1.warnings)


def test_calculator_unknown_id() -> None:
    with pytest.raises(ValueError):
        bound_calculator("no-such-bound", k=3)
    assert "egz-general-upper" in calculator_ids()


def test_a_repeated_computed_query_runs_no_level_step(monkeypatch) -> None:
    # computed_egz and computed_dav keep no cache of their own: a repeat is
    # answered from the search cache of the ring's kit, with no level step
    steps = []
    advance = search._advance

    def spy(*args, **kwargs):
        steps.append(args[2])
        return advance(*args, **kwargs)

    monkeypatch.setattr(search, "_advance", spy)
    search._kit.cache_clear()
    first = computed_egz((9,), 2, 9)
    dav = computed_dav((9,), 2, 12)
    assert steps
    steps.clear()
    assert computed_egz((9,), 2, 9) == first
    assert computed_egz((9,), 2, 9, cap=None) == first
    assert computed_dav((9,), 2, 12) == dav
    assert steps == []


_FAST_IDS = {
    "bound-egz-odd-square-9", "bound-m3-upper-5", "bound-olson-formula",
    "bound-p-group-linear-49", "bound-primepower-exact-values", "brink-4-2-2",
    "brink-random-grid", "dav-olson-small", "dav-z2-degree-grid",
    "dominating-closed-form", "egz-16-8-2-witness", "egz-3-3-2",
    "egz-3a-3-3-grid", "egz-5-5-3-sandwich", "egz-k-k-1-classic", "egz-q-q-3-lower",
    "egz-z2-grid",
    "gao-qq-info-q2", "kummer-legendre-grid", "lconst-primepower-grid",
    "newton-girard-recursion", "rank2-reiher-search", "sweep-egz-inequalities",
}

_SLOW_IDS = {
    "brink-16-8-2-n30", "dav-2-z3", "dav-2-z8", "dav-2-z9", "dav-3-z3",
    "dav-5-z5", "dav-6-z6", "dav-olson-large", "egz-10-6-6", "egz-10-6-6-strict",
    "egz-16-8-2", "egz-25-5-5", "egz-8-222-2", "egz-9-3-3", "egz-9-9-2",
    "egz-9-9-2-strict", "egz-p-p-2-mod4", "gao-qq-info-q3",
    "sweep-egz-inequalities-slow",
}


def test_fixture_registry_well_formed() -> None:
    fixtures = all_fixtures()
    ids = [fx.id for fx in fixtures]
    assert len(ids) == len(set(ids))
    assert ids == sorted(ids)
    # pinned, so a table row that is dropped or mistyped fails here
    assert len(_FAST_IDS) == 23 and len(_SLOW_IDS) == 19
    assert {fx.id for fx in fixtures if fx.tier == "fast"} == _FAST_IDS
    assert {fx.id for fx in fixtures if fx.tier == "slow"} == _SLOW_IDS
    for fx in fixtures:
        assert fx.tier in ("fast", "slow")
        assert fx.claim in ("ExactValue", "LowerBound", "UpperBound", "Formula")
        assert fx.statement
    assert any(not fx.asserting for fx in fixtures)  # informational exist


def test_fast_tier_all_pass() -> None:
    outcomes = run_suite(tier="fast")
    counts = summarize(outcomes)
    failing = [oc.fixture_id for oc in outcomes if oc.status in ("FAIL", "ERROR")]
    assert not failing, failing
    assert counts["PASS"] >= 20
    assert counts["INFO"] >= 1
    report = format_outcomes(outcomes)
    assert "fixtures:" in report.splitlines()[-1]
    assert "0 fail" in report.splitlines()[-1]


def test_filter_and_tier_selection() -> None:
    outcomes = run_suite(tier="fast", name_filter="egz-3-3-2")
    assert [oc.fixture_id for oc in outcomes] == ["egz-3-3-2"]
    assert outcomes[0].status == "PASS"
    with pytest.raises(ValueError):
        run_suite(tier="nope")


def test_subprocess_mode_matches_inprocess() -> None:
    inproc = run_suite(tier="fast", name_filter="bound-")
    forked = run_suite(tier="fast", name_filter="bound-", jobs=2, timeout=120)
    assert [oc.fixture_id for oc in inproc] == [oc.fixture_id for oc in forked]
    assert [oc.status for oc in inproc] == [oc.status for oc in forked]


def test_timeout_reports_timeout_status() -> None:
    outcomes = run_suite(
        tier="slow", name_filter="dav-olson-large", jobs=1, timeout=0.2
    )
    assert len(outcomes) == 1
    assert outcomes[0].status == "TIMEOUT"
    assert outcomes[0].detail == "exceeded 0.2s"


@pytest.mark.parametrize(
    "kwargs",
    [{"jobs": 0}, {"jobs": -4}, {"timeout": -1}, {"timeout": 0},
     {"timeout": float("nan")}, {"timeout": float("inf")},
     {"jobs": 1.5}, {"jobs": 2.0}, {"jobs": True}, {"timeout": True}, {"timeout": "5"}],
)
def test_run_suite_rejects_bad_jobs_and_timeout(kwargs) -> None:
    with pytest.raises(ValueError, match="jobs|timeout"):
        run_suite(tier="fast", name_filter="kummer", **kwargs)


def test_run_suite_without_fork_refuses_subprocess_mode(monkeypatch) -> None:
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    for kwargs in ({"jobs": 2}, {"timeout": 5}):
        with pytest.raises(ValueError, match="fork"):
            run_suite(tier="fast", name_filter="bound-", **kwargs)
    # in-process mode needs no start method
    assert [oc.status for oc in run_suite(tier="fast", name_filter="bound-m3")] == ["PASS"]


@pytest.mark.parametrize(
    "module, imports",
    [(bounds, {"numtheory"}), (search, {"bounds", "numtheory", "rings", "multiset"})],
    ids=["bounds", "search"],
)
def test_bounds_imports_neither_search_nor_theorems(module, imports) -> None:
    # the search takes its caps from bounds, so bounds must not need it; the
    # search's e_m comes from its own power sums, so it needs no symfun
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    modules = set()  # the egz modules that the module imports
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("egz")):
            if node.module in (None, "egz"):
                modules.update(a.name for a in node.names)
            else:
                modules.add(node.module.split(".")[-1])
        elif isinstance(node, ast.Import):
            modules.update(a.name.split(".")[-1] for a in node.names if a.name.startswith("egz"))
    assert modules == imports


def test_value_grid_fails_a_row_whose_calculator_hypotheses_fail() -> None:
    # a grid checks search against a calculator only where the calculator
    # applies; rank2-egz-exact needs n1 | n2, and 3 does not divide 4
    want = bound_calculator("rank2-egz-exact", n1=3, n2=4)
    res = theorems._run_value_grid(lambda: [("(3,4)", "E", (3,), 2, 3, None, want)], "x")
    assert not res.ok
    assert "hypothesis fails: 3 | 4" in res.detail
