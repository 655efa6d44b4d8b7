#!/usr/bin/env python3
"""Compares two sets of apks_bench runs under the bounds in BENCHMARK.json.

    python3 e2ebench/bench_compare.py BASE_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds captured stdout of run.sh / apks_bench runs, any file
names, one or more runs per file. A run is its one-line "provenance" JSON
(workload and seed) followed by its result JSON line.

For every workload and end-to-end metric it prints both sides' median and
quartiles, the share of seed-matched pairs the change won (ties count for
neither side), and a verdict:

  worse       the change's median is worse than the base's by more than the
              metric's bound
  unresolved  either side's interquartile distance exceeds the bound (as a
              share of its median), unless every change run beats every base
              run
  better      the change wins at least 9/10 of the pairs and the medians differ
              by more than the base's interquartile distance
  same        otherwise

A rise in failed operations on any workload is flagged and counts as worse.
Exit status: 1 when anything is worse, 0 otherwise.
"""
import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    """Returns {workload: [(seed, result), ...]} for every run in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        pending = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line.startswith('{"provenance"'):
                    pending = json.loads(line)["provenance"]
                elif line.startswith('{"correct"') and pending is not None:
                    runs.setdefault(pending["workload"], []).append(
                        (pending["seed"], json.loads(line)))
                    pending = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, change):
    """Seed-matched (base, change) values; by position when no seed matches."""
    b = dict(base)
    matched = [(b[seed], v) for seed, v in change if seed in b]
    if matched:
        return matched
    return list(zip([v for _, v in base], [v for _, v in change]))


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    bq1, bmed, bq3 = quartiles([v for _, v in base])
    cq1, cmed, cq3 = quartiles([v for _, v in change])

    def improves(new, old):
        return new < old if lower else new > old

    matched = pairs(base, change)
    won = sum(1 for old, new in matched if improves(new, old))
    worse_by = (cmed - bmed) / bmed if lower else (bmed - cmed) / bmed
    base_spread = (bq3 - bq1) / bmed
    change_spread = (cq3 - cq1) / cmed
    dominates = all(improves(new, old) for _, new in change for _, old in base)

    if worse_by > bound:
        result = "worse"
    elif max(base_spread, change_spread) > bound and not dominates:
        result = "unresolved"
    elif won >= 0.9 * len(matched) and abs(cmed - bmed) > bq3 - bq1:
        result = "better"
    else:
        result = "same"
    return {
        "base": (bmed, bq1, bq3),
        "change": (cmed, cq1, cq3),
        "won": (won, len(matched)),
        "verdict": result,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    base = load_runs(args.base)
    change = load_runs(args.change)

    any_worse = False
    print(f"{'workload':9s} {'metric':15s} {'base median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'won':>6s}  verdict")
    for w in (w["name"] for w in bench["workloads"]):
        if w not in base or w not in change:
            print(f"{w:9s} missing runs (base {len(base.get(w, []))}, "
                  f"change {len(change.get(w, []))})")
            any_worse = True
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [(s, r["metrics"][name]["value"]) for s, r in base[w]]
            c = [(s, r["metrics"][name]["value"]) for s, r in change[w]]
            v = verdict(metric, b, c)
            any_worse |= v["verdict"] == "worse"
            fmt = "{:10.4g} [{:8.4g}, {:8.4g}]"
            print(f"{w:9s} {name:15s} {fmt.format(*v['base']):>32s} "
                  f"{fmt.format(*v['change']):>32s} "
                  f"{v['won'][0]:>2d}/{v['won'][1]:<3d}  {v['verdict']}")
        b_failed = sum(r["failed"] for _, r in base[w])
        c_failed = sum(r["failed"] for _, r in change[w])
        b_att = sum(r["attempted"] for _, r in base[w])
        c_att = sum(r["attempted"] for _, r in change[w])
        note = ""
        if c_failed * max(b_att, 1) > b_failed * max(c_att, 1):
            note = "  ERROR RATE ROSE"
            any_worse = True
        print(f"{w:9s} {'failed':15s} {b_failed:>12d} of {b_att:<17d} "
              f"{c_failed:>12d} of {c_att:<17d}{note}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
