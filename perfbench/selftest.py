"""Self-test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload runs and passes its gate, that every metric
BENCHMARK.json names is emitted with its unit (untraced and traced),
that traced and untraced outputs agree, that a target the package no
longer defines is reported as zero calls, and that corrupted outputs
trip the gate.  Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import workloads

TINY_DRAWS = 200
TINY_INSTANCES = 500


def tiny(name, seed=23):
    if name == "gdof-map":
        return workloads.GdofMapWorkload(name, run.WORK_DIR, seed, instances=TINY_INSTANCES)
    config = workloads.SWEEP_REF if name == "sweep-ref" else workloads.SWEEP_Z1_POOL
    return workloads.SweepWorkload(name, dict(config, draws=TINY_DRAWS), run.WORK_DIR, seed)


def corruptions(wl, out):
    """Copies of a good output, each broken in one way the gate must catch."""
    if isinstance(wl, workloads.GdofMapWorkload):
        dist, genie, layout = out[0]
        bad_layout = copy.deepcopy(layout)
        bad_layout.rate_exp["s0"] += 1e-9
        yield "distributed != genie", [(dist + 2.0**-40, genie, layout)] + out[1:]
        yield "layout total off", [(dist, genie, bad_layout)] + out[1:]
        yield "instance dropped", out[:-1]
        return
    csv = out["csv"].decode("utf-8")
    row = csv.splitlines()[1]
    digit = "3" if row.endswith("7") else "7"
    yield "csv value changed", dict(out, csv=csv.replace(row, row[:-1] + digit, 1).encode())
    yield "csv value not finite", dict(out, csv=csv.replace(row, row.rsplit(",", 1)[0] + ",nan", 1).encode())
    yield "csv row dropped", dict(out, csv=csv.replace(row + "\n", "", 1).encode())
    summary = copy.deepcopy(out["summary"])
    summary["slopes"]["apzf"] += 2 * workloads.SLOPE_TOL
    yield "apzf slope off", dict(out, summary=summary)


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    apzf = workloads.import_apzf(run.ROOT)
    run.WORK_DIR.mkdir(exist_ok=True)
    failures = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
           "BENCHMARK.json names exactly the implemented workloads")
    for name in workloads.WORKLOADS:
        wl = tiny(name)
        wl.write_input()
        runs, metrics, _ = run.measure(wl, seconds=0)
        expect(runs.failed == 0 and runs.attempted >= run.MIN_REPS,
               f"{name}: untraced runs pass the gate ({runs.failed}/{runs.attempted} failed)")
        expect({k: u for k, (_, u) in metrics.items()} == end_to_end,
               f"{name}: every end-to-end metric emitted with its unit")
        expect(all(v > 0 for v, _ in metrics.values()), f"{name}: end-to-end metrics are positive")

        runs, metrics, absent = run.measure_traced(wl, seconds=0)
        expect(runs.failed == 0, f"{name}: traced output equals untraced output and passes the gate")
        expect({k: u for k, (_, u) in metrics.items()} == per_layer,
               f"{name}: every per-layer metric emitted with its unit")
        expect(not absent, f"{name}: every traced name exists")

        good = runs.first
        expect(not wl.check(good), f"{name}: gate accepts a good output")
        for what, bad in corruptions(wl, good):
            expect(bool(wl.check(bad)) or not wl.same_output(good, bad),
                   f"{name}: gate trips on {what}")

    # A traced name a refactor deleted shows as zero calls, not a crash.
    wl = tiny("sweep-z1-pool")
    original = apzf.precoders.matched
    del apzf.precoders.matched
    try:
        runs, metrics, absent = run.measure_traced(wl, seconds=0)
    finally:
        apzf.precoders.matched = original
    expect(runs.failed == 0 and absent == ["precoders.matched"]
           and metrics["precoders.matched.calls"][0] == 0,
           "a deleted name is reported absent with zero calls")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
