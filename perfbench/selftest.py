#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that:
  * run.py's metric tables are exactly the ones BENCHMARK.json names,
    with the same units and directions;
  * every workload, timed and traced, prints every metric BENCHMARK.json
    names for that mode, each with its unit, and passes its golden check;
  * the merged-histogram quantile reads a single histogram the way the
    stats exporter does;
  * a deliberately corrupted golden fails every repetition (failed > 0,
    correct false).
Exits 0 when all hold.
"""
import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def bench(binary, goldens, workload, trace):
    """One run.py measurement at tiny sizes; returns (report, result)."""
    args = argparse.Namespace(workload=workload, seed=1, seconds=0.5,
                              trace=trace, tiny=True)
    return run.measure(args, binary, goldens)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m for m in spec["end_to_end"]},
        1: {m["name"]: m for m in spec["per_layer"]},
    }
    expect([(n, u, b) for n, u, b in run.END_TO_END] ==
           [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
           "run.END_TO_END matches BENCHMARK.json end_to_end")
    expect([(n, u, b) for n, u, b, _ in run.PER_LAYER] ==
           [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
           "run.PER_LAYER matches BENCHMARK.json per_layer")
    expect(sorted(w["name"] for w in spec["workloads"]) ==
           sorted(run.KV + run.BULK), "BENCHMARK.json names every workload")

    binary = run.build()
    with open(run.GOLDENS) as f:
        goldens = json.load(f)
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            report, res = bench(binary, goldens, w, trace)
            got = res["metrics"]
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] >= 1,
                   "%s trace=%d runs correct" % (w, trace))
            expect(set(got) == set(declared[trace]),
                   "%s trace=%d prints exactly the declared metrics" %
                   (w, trace))
            expect(all(got[n]["unit"] == declared[trace][n]["unit"] and
                       isinstance(got[n]["value"], (int, float))
                       for n in got),
                   "%s trace=%d prints each metric with its unit" % (w, trace))
            if trace == 0:
                expect(all(v["value"] > 0 for v in got.values()),
                       "%s end-to-end metrics are nonzero" % w)
                expect(report["golden"] == "checked",
                       "%s tiny run is checked against a golden" % w)

    rep = run.run_rep(binary, "e2e-san", 1, tiny=True)
    hists = [h for h in rep["stats"]["histograms"] if h["name"] == "cmd_ns"]
    one = hists[0]["entity"]
    expect(all(run.hist_quantile(rep["stats"], "cmd_ns", q,
                                 entity=lambda e: e == one) == hists[0][key]
               for q, key in ((0.5, "p50"), (0.99, "p99"), (0.999, "p999"))),
           "hist_quantile of one histogram equals its exported percentiles")

    goldens["e2e-san"]["tiny"]["*"] = goldens["e2e-san"]["tiny"]["*"].replace(
        "digest=", "digest=0")
    _, res = bench(binary, goldens, "e2e-san", 0)
    expect(not res["correct"] and res["failed"] == res["attempted"] > 0,
           "a corrupted golden fails every repetition (failed %d of %d)" %
           (res["failed"], res["attempted"]))

    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
