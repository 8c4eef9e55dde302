#!/usr/bin/env python3
"""The egz benchmark: one workload, one seed, end to end or layer by layer.

    python3 perfbench/run.py --workload closure-egz --seed 1 --seconds 25 --trace 0

Run it from anywhere; it benchmarks the egz sources in ``src/`` next to this
directory, never an installed copy. Every round runs in a fresh interpreter
(``worker.py``), one process at a time, with ``workers=1``, because egz's
unbounded caches would otherwise answer a repeated round from memory.

--trace 0  Set-up is measured in fresh interpreters (median of several),
           then rounds run for about ``--seconds``. The last line
           of stdout is the result with every end-to-end metric.
--trace 1  Pairs of one untraced and one traced round run for about
           ``--seconds``, then one round compares the frontier
           searches with one worker and with a pool. The last line carries
           every per-layer metric (medians over traced rounds).

Items are drawn from ``pool.json`` by the seed, in fixed counts per stratum
(see README.md). Every operation's outputs are checked against the values
recorded there; a mismatch or an exception counts as a failed operation and
never stops the run. The full record of a run -- provenance, the drawn
items (replayable with ``--replay``), per-round figures, failures and the
spans of one traced round -- goes to ``.perfbench/`` in the checkout.

Exit status: 0 with a result line; 1 without one when the benchmark itself
cannot run (no egz sources, a worker that crashes or hangs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
POOL = HERE / "pool.json"
WORKER = HERE / "worker.py"

CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 5
W2_WORKERS = 2  # the pool size compared with serial search, at most nproc

# Items drawn per stratum. The counts put each reported percentile well
# inside one stratum, so that different seeds give comparable figures.
STRATA = {
    "batch-small": {
        "egz/infinite": 120,
        "egz/exact/t0": 19,
        "egz/exact/t1": 11,
        "egz/exact/t2": 11,
        "davenport/at_least/t0": 55,
        "davenport/at_least/t1": 30,
        "davenport/at_least/t2": 11,
        "davenport/exact/t0": 43,
        "davenport/exact/t1": 28,
        "davenport/exact/t2": 11,
    },
    "oracle": {
        "tester/egz/found": 15,
        "tester/egz/none": 15,
        "tester/davenport/found": 15,
        "tester/davenport/none": 15,
        "symfun/t0": 30,
        "symfun/t1": 80,
        "symfun/t2": 20,
        "direct/egz/t0": 6,
        "direct/egz/t1": 2,
        "direct/egz/t2": 5,
        "direct/davenport/t0": 3,
        "direct/davenport/t1": 4,
        "direct/davenport/t2": 2,
        "brink/t0": 2,
        "brink/t1": 6,
        "brink/t2": 15,
    },
}

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "search.seed_s": "s",
    "search.levels_s": "s",
    "search.level_max_s": "s",
    "search.candidates": "count",
    "search.us_per_candidate": "us",
    "search.classes": "count",
    "search.frontier_peak": "count",
    "search.survival_ratio": "ratio",
    "search.query_s": "s",
    "search.precheck_s": "s",
    "search.direct_s": "s",
    "search.tester_s": "s",
    "search.w2_speedup": "ratio",
    "rings.tables_s": "s",
    "rings.unit_perms": "count",
    "multiset.canonical_s": "s",
    "symfun.em_prefix_s": "s",
    "symfun.em_multiset_s": "s",
    "brink.count_s": "s",
    "brink.vectors": "count",
    "certificates.build_s": "s",
    "certificates.verify_s": "s",
    "certificates.bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _rings_of(items: list[dict]) -> list[list[int]]:
    return sorted({tuple(it["ring"]) for it in items if "ring" in it})


def draw(workload: str, seed: int, smoke: bool) -> tuple[list[dict], list[list[int]]]:
    """The seed's items for a workload, and the rings set-up prepares.

    The rings are those of the whole pool, so set-up does not vary by seed.
    """
    try:
        pool = json.loads(POOL.read_text())
    except FileNotFoundError:
        raise BenchError(f"missing {POOL}") from None
    if workload not in STRATA:
        items = pool["smoke"][workload] if smoke else pool[workload]
        return items, _rings_of(items)
    rng = random.Random(f"{workload}:{seed}")
    by_stratum: dict[str, list[dict]] = {}
    for item in pool[workload]:
        by_stratum.setdefault(item["stratum"], []).append(item)
    items = []
    for stratum, count in STRATA[workload].items():
        members = by_stratum[stratum]
        if smoke:  # one of the cheapest few
            members = sorted(members, key=lambda it: it["ref_ms"])[:5]
            count = 1
        if count > len(members):
            raise BenchError(f"stratum {stratum} has {len(members)} items, {count} drawn")
        items += rng.sample(members, count)
    rng.shuffle(items)
    return items, _rings_of(pool[workload])


def run_child(spec: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)], input=json.dumps(spec), text=True,
            capture_output=True, env=env, cwd=str(ROOT), timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['mode']} worker ran over {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{spec['mode']} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    egz_file = Path(result["egz_file"]).resolve()
    if SRC.resolve() not in egz_file.parents:
        raise BenchError(f"worker imported egz from {egz_file}, not from {SRC}")
    return result


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def provenance(args, loadavg_1m: float, numpy_version: str | None) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "egz").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_1m": loadavg_1m,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _round_spec(mode: str, items, rings, trace: bool = False) -> dict:
    workers = min(W2_WORKERS, len(os.sched_getaffinity(0)))
    return {"mode": mode, "trace": trace, "rings": rings, "items": items,
            "workers": workers}


def another_fits(start: float, done: int, seconds: float) -> bool:
    """Whether to start another round: always a first one, and then one
    whose end, judged by the rounds so far, is at most half a round past
    ``seconds``. A run then lasts about ``seconds`` whether its rounds take
    half a second or eleven."""
    if not done:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done / 2 < seconds


def measure(items, rings, seconds: float) -> tuple[dict, list[dict]]:
    """Untraced: set-up samples, then rounds until the time is spent."""
    run_child(_round_spec("setup", [], rings))  # warm the bytecode caches
    setups = [run_child(_round_spec("setup", [], rings))["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    rounds = []
    start = time.perf_counter()
    while another_fits(start, len(rounds), seconds):
        rounds.append(run_child(_round_spec("round", items, rings)))
    setups += [r["setup_s"] for r in rounds]
    # Every round runs the same items in the same order; an operation's
    # latency is its mean over the rounds, for the reason wall_s is one.
    latencies = [statistics.fmean(per_op)
                 for per_op in zip(*(r["latencies_s"] for r in rounds))]
    metrics = {
        # A mean, not a median, over rounds: on a shared host the speed
        # switches between modes every few seconds, and a median flips
        # between them where a mean weighs each by the time spent in it.
        "wall_s": statistics.fmean(r["wall_s"] for r in rounds),
        "op_p50_ms": nearest_rank(latencies, 0.50) * 1000,
        "op_p95_ms": nearest_rank(latencies, 0.95) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return metrics, rounds


def measure_traced(items, rings, seconds: float) -> tuple[dict, list[dict]]:
    """Traced: (untraced, traced) round pairs, then the pool comparison."""
    run_child(_round_spec("setup", [], rings))
    pairs = []
    start = time.perf_counter()
    while another_fits(start, len(pairs), seconds):
        plain = run_child(_round_spec("round", items, rings))
        traced = run_child(_round_spec("round", items, rings, trace=True))
        pairs.append((plain, traced))
    w2 = run_child(_round_spec("w2", items, rings))
    traced_rounds = [t for _, t in pairs]
    metrics = {
        name: statistics.median(t["layers"][name] for t in traced_rounds)
        for name in traced_rounds[0]["layers"]
    }
    metrics["search.w2_speedup"] = (
        w2["serial_s"] / w2["pooled_s"] if w2["pooled_s"] > 0 else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in pairs
    )
    rounds = [r for pair in pairs for r in pair] + [w2]
    return metrics, rounds


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("closure-egz", "closure-dav", "batch-small", "oracle"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (one cheap item per stratum) for the self-test")
    ap.add_argument("--replay", type=Path,
                    help="rerun the items of an earlier result file")
    args = ap.parse_args(argv)
    loadavg_1m = os.getloadavg()[0]
    try:
        if not (SRC / "egz" / "__init__.py").is_file():
            raise BenchError(f"no egz sources under {SRC}")
        items, rings = draw(args.workload, args.seed, args.smoke)
        if args.replay:
            items = json.loads(args.replay.read_text())["items"]
        if args.trace:
            metrics, rounds = measure_traced(items, rings, args.seconds)
            units = PER_LAYER
        else:
            metrics, rounds = measure(items, rings, args.seconds)
            units = END_TO_END
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checked = [r for r in rounds if "latencies_s" in r]
    attempted = sum(len(r["latencies_s"]) for r in checked)
    failures = [f for r in checked for f in r["failures"]]
    failed = len(failures)
    record = {
        "provenance": provenance(args, loadavg_1m, rounds[0].get("numpy")),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "rounds": [{k: v for k, v in r.items() if k not in ("spans", "latencies_s")}
                   for r in rounds],
        "items": items,
        "spans": next((r["spans"] for r in rounds if "spans" in r), []),
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (OUT_DIR / name).write_text(json.dumps(record) + "\n")

    for f in failures[:10]:
        print(f"FAILED op {f['op']}: {'; '.join(f['messages'])}")
    for metric, value in metrics.items():
        print(f"{metric:26s} {value:14.6f} {units[metric]}")
    print(f"{'fail_ratio':26s} {failed / max(attempted, 1):14.6f} ratio "
          f"({failed} of {attempted} operations)")
    print(f"record: {OUT_DIR / name}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
