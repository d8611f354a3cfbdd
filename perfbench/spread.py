#!/usr/bin/env python3
"""Run each workload over several seeds and report each end-to-end
metric's median and spread: the distance between the first and third
quartiles of its values (statistics.quantiles, n=4), as a share of the
median, next to a third of the metric's bound in BENCHMARK.json.

Usage, from the root of a source tree:

    python3 perfbench/spread.py [--workloads certify,kb-query,serve-mixed]
        [--seeds 1-10] [--seconds S] [--trace 0|1] [--json FILE]

--seconds defaults to run_seconds from BENCHMARK.json. Exits non-zero if a
run fails or reports correct=false.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="write every run's summary here")
    a = p.parse_args()
    specs = bench["end_to_end"] if a.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in specs}
    runs, ok = {}, True
    for w in a.workloads.split(","):
        runs[w] = []
        for s in seeds(a.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s), "--seconds", str(a.seconds),
                                      "--trace", str(a.trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {s}: exit {out.returncode}", file=sys.stderr)
                ok = False
                continue
            summary = json.loads(lines[-1])
            ok = ok and summary["correct"]
            runs[w].append(summary)
            print(f"{w} seed {s}: correct={summary['correct']} failed={summary['failed']}", file=sys.stderr)
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in runs[w]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE" if spread > bound else "  >b/3")
            limit = "" if bound is None else f" (bound/3 {bound / 3:.3f})"
            print(f"{w:12s} {name:30s} median {med:12.5g}  spread {spread:.3f}{limit}{flag}")
    if a.json:
        json.dump(runs, open(a.json, "w"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
