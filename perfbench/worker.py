"""One round of a benchmark workload, in a fresh interpreter.

run.py starts this script once per round and writes a JSON spec to its
stdin:

    {"mode": "setup" | "round" | "w2", "trace": bool, "rings": [[8], ...],
     "items": [...], "workers": 2}

and reads one JSON line from its stdout. The set-up clock starts at the
first statement, so setup_s covers the imports (egz, and numpy through it)
and building the index tables of the workload's rings. "round" then runs
every item once, timing each operation; "w2" reruns the items' frontier
searches serially and with a process pool, to compare the two.
"""

from time import perf_counter

T0 = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

W2_MAX_QUERIES = 30


def run_round(tr, ops, items: list[dict]) -> dict:
    latencies = []
    failures = []
    start = perf_counter()
    for i, item in enumerate(items):
        tr.op = i
        t0 = perf_counter()
        fails = ops.run(tr, item)
        t1 = perf_counter()
        tr.add("op." + item["op"], t0, t1)
        latencies.append(t1 - t0)
        if fails:
            failures.append({"op": i, "messages": fails})
    return {
        "wall_s": perf_counter() - start,
        "latencies_s": latencies,
        "failures": failures,
    }


def run_w2(tr, ops, items: list[dict], workers: int) -> dict:
    """Seconds of the same frontier searches with workers=1 and workers=N."""
    from egz import make_ring, search

    queries = [
        it for it in items
        if it["op"] in ("answer", "direct")
        and it["expect"]["outcome"] != search.OUTCOME_INFINITE
    ][:W2_MAX_QUERIES]
    serial = pooled = 0.0
    for item in queries:
        ring = make_ring(tuple(item["ring"]))
        for n in (1, workers):
            t0 = perf_counter()
            ops.query(tr, item, ring, workers=n)
            dt = perf_counter() - t0
            if n == 1:
                serial += dt
            else:
                pooled += dt
    return {"queries": len(queries), "serial_s": serial, "pooled_s": pooled}


def main() -> None:
    spec = json.loads(sys.stdin.read())
    import ops  # imports egz

    tr = ops.Tracer(spec["trace"])
    for moduli in spec["rings"]:
        ops.build_tables(tr, moduli)
    result = {"setup_s": perf_counter() - T0}
    if spec["mode"] == "round":
        result.update(run_round(tr, ops, spec["items"]))
    elif spec["mode"] == "w2":
        result.update(run_w2(ops.Tracer(False), ops, spec["items"], spec["workers"]))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024  # kilobytes on Linux
    if tr.enabled:
        result["layers"] = ops.layer_metrics(tr)
        result["spans"] = tr.spans
    import egz
    import numpy

    result["egz_file"] = egz.__file__
    result["numpy"] = numpy.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
