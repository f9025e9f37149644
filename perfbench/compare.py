"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by run.py, a directory of
them (such as ``.perfbench/results``), or a baseline file holding a JSON
list of results (such as ``perfbench/baseline/*.json``).  Results are
grouped by workload and trace mode.  For each end-to-end metric it prints
both medians and quartile spreads and marks a change worse than the
metric's bound in BENCHMARK.json as a regression, or as unresolved when
the base's own spread is wider than the bound.  Results whose environment
stamps differ (Python, kernel backend, nproc, commit, engine source,
hash seeds, run length, probe reference) are flagged: their numbers are
not comparable as measurements of one change on one machine.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STAMP_KEYS = ("python", "kernel_backend", "nproc", "commit", "source_md5",
              "pythonhashseed", "run_seconds", "ref_chunk_s")


def load(path):
    if os.path.isdir(path):
        out = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".json"):
                out.extend(load(os.path.join(path, name)))
        return out
    with open(path) as fh:
        data = json.load(fh)
    return data if isinstance(data, list) else [data]


def group(records):
    out = {}
    for r in records:
        out.setdefault((r["workload"], r["stamp"]["trace"]), []).append(r)
    return out


def stamps(records):
    return {k: sorted({json.dumps(r["stamp"].get(k)) for r in records})
            for k in STAMP_KEYS}


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else 0.0


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = group(load(argv[0])), group(load(argv[1]))
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        a, b = base[key], new[key]
        print("%s (trace=%d): %d base runs, %d new runs"
              % (workload, trace, len(a), len(b)))
        sa, sb = stamps(a), stamps(b)
        for k in STAMP_KEYS:
            if len(sa[k]) > 1 or len(sb[k]) > 1 or sa[k] != sb[k]:
                print("  STAMP DIFFERS %-15s base=%s new=%s"
                      % (k, ",".join(sa[k]), ",".join(sb[k])))
        fails = sum(r["failed"] for r in a + b)
        if fails:
            print("  FAILURES: %d failed children across these runs" % fails)
        for name in sorted(set(a[0]["metrics"]) & set(b[0]["metrics"])):
            ma, pa = summary([r["metrics"][name]["value"] for r in a])
            mb, pb = summary([r["metrics"][name]["value"] for r in b])
            change = (mb - ma) / ma if ma else 0.0
            verdict = ""
            m = bounds.get(name)
            if m is not None:
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    if pa > m["bound"]:
                        verdict = "unresolved (base spread %.3f)" % pa
                    else:
                        verdict = "REGRESSION (bound %.2f)" % m["bound"]
                        regressions += 1
            print("  %-40s %12.4f (spread %.3f) -> %12.4f (spread %.3f) "
                  "%+7.1f%% %s" % (name, ma, pa, mb, pb, 100 * change,
                                   verdict))
    for key in sorted(set(base) ^ set(new)):
        print("%s (trace=%d): only in %s" % (key[0], key[1],
                                             "base" if key in base else "new"))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
