#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs, in well under a minute.

    python3 perfbench/selftest.py

1. For every workload in BENCHMARK.json, run.py runs in smoke mode (one
   cheap item per stratum; E(3, Z_3, 2) and D_2(Z_3) with cap 8 for the
   closures), untraced and traced. The last line must be a result with
   exactly the contract's keys, every end-to-end or per-layer metric named
   in BENCHMARK.json with its unit, at least one operation and no failure.
   In every traced round search.seed_s + search.levels_s must equal
   search.query_s.
2. A replay whose recorded values are all deliberately wrong must exit 0
   and report every operation as failed, never crash.
3. A copy holding only BENCHMARK.json and this directory (no egz sources)
   must exit non-zero without printing a result.

Exits 0 when every check passes and 1 otherwise, naming each failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SCRATCH = ROOT / ".perfbench" / "selftest"
TIMEOUT_S = 170


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=str(cwd), capture_output=True,
        text=True, timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--smoke"]


def tamper(item: dict) -> None:
    """Make the recorded output of an item wrong."""
    exp = item["expect"]
    if "value" in exp:
        exp["value"] += 1
    elif "zero_sub" in exp:
        exp["zero_sub"] = [] if exp["zero_sub"] is None else None
    elif "em" in exp:
        exp["em"] = [x + 1 for x in exp["em"]]
    else:
        exp["count"] += 1


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []
    for wl in bench["workloads"]:
        name = wl["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(smoke(name, trace))
            if code != 0 or not lines:
                errors.append(f"{name} trace {trace}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{name} trace {trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{name} trace {trace}: {result['failed']} of "
                              f"{result['attempted']} operations failed")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{name} trace {trace}: metrics {got}, want {want}")
            if trace:  # per traced round; the reported medians need not add up
                record = ROOT / ".perfbench" / f"{name}-seed1-trace1-smoke.json"
                for r in json.loads(record.read_text())["rounds"]:
                    if "layers" in r:
                        lay = r["layers"]
                        gap = lay["search.seed_s"] + lay["search.levels_s"] - lay["search.query_s"]
                        if abs(gap) > 1e-6:
                            errors.append(f"{name}: seed_s + levels_s - query_s = {gap}")
            print(f"ok   {name} trace {trace}: {result['attempted']} operations")

    SCRATCH.mkdir(parents=True, exist_ok=True)
    for name in ("closure-egz", "oracle"):
        record = ROOT / ".perfbench" / f"{name}-seed1-trace0-smoke.json"
        items = json.loads(record.read_text())["items"]
        for item in items:
            tamper(item)
        replay = SCRATCH / f"{name}-tampered.json"
        replay.write_text(json.dumps({"items": items}))
        code, lines = run(smoke(name, 0) + ["--replay", str(replay)])
        result = json.loads(lines[-1]) if code == 0 and lines else None
        if result is None or result["correct"] or result["failed"] != result["attempted"]:
            errors.append(f"{name} with wrong recorded values: exit {code}, result {result}")
        else:
            print(f"ok   {name} with wrong recorded values: "
                  f"{result['failed']} of {result['attempted']} operations failed")

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / RUN.name), *smoke("closure-egz", 0)],
        cwd=str(bare), capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok   bare copy exits {proc.returncode}: {proc.stderr.strip()}")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
