#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the per-run records run.py writes
(.bench_build/results/<workload>-s<seed>-t<trace>.json), e.g. one copied
from a parent commit's checkout and one from the change.  For every
workload and metric it prints each side's median and quartiles and the
change of the medians.  End-to-end metrics that got worse by more than
their BENCHMARK.json bound are flagged, and the exit code is then 1.

It refuses (exit 2) to compare sets whose host facts differ in core count,
build type or compiler flags: numbers from different hosts or builds are
not comparable.
"""
import glob
import json
import os
import statistics
import sys

# Host facts that must agree for two results to be comparable.
MUST_MATCH = ("nproc", "build_type", "cxx_flags")


def load(d):
    recs = []
    for path in sorted(glob.glob(os.path.join(d, "*-s*-t[01].json"))):
        with open(path) as f:
            recs.append(json.load(f))
    if not recs:
        sys.exit("compare: no result records in " + d)
    return recs


def facts(recs, where):
    seen = {tuple((k, r["host"].get(k)) for k in MUST_MATCH) for r in recs}
    if len(seen) != 1:
        sys.exit("compare: refusing, records in %s disagree on host facts: %s"
                 % (where, sorted(seen)))
    return dict(seen.pop())


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    fb, fn = facts(base, sys.argv[1]), facts(new, sys.argv[2])
    if fb != fn:
        diff = {k: (fb[k], fn[k]) for k in MUST_MATCH if fb[k] != fn[k]}
        print("compare: refusing, host facts differ: %s" % diff,
              file=sys.stderr)
        sys.exit(2)

    spec = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    def collect(recs):
        out = {}
        for r in recs:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
        return out

    vb, vn = collect(base), collect(new)
    regressed = False
    print("%-14s %-30s %14s %14s %9s  %s" % ("workload", "metric", "base p50",
                                            "new p50", "change", "quartiles"))
    for key in sorted(set(vb) & set(vn)):
        (mb, b1, b3), (mn, n1, n3) = summary(vb[key]), summary(vn[key])
        change = (mn - mb) / mb if mb else 0.0
        flag = ""
        m = spec.get(key[1])
        if m and mb:
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                flag = "  REGRESSION (bound %g)" % m["bound"]
                regressed = True
        print("%-14s %-30s %14.6g %14.6g %+8.2f%%  [%.6g, %.6g] -> [%.6g, %.6g]%s"
              % (key[0], key[1], mb, mn, 100 * change, b1, b3, n1, n3, flag))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
