"""Compare two sets of benchmark result files, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``run.py --trace 0``.  For
every workload and end-to-end metric in ``BENCHMARK.json`` one row shows
each side's median and quartiles, how many seed-paired runs the change
won, and a verdict:

  improved    the change wins at least nine tenths of the pairs (ties count
              for neither) and the medians differ by more than the parent's
              own quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's quartile spread is wider than the bound, so no
              difference within the bound can be told from noise, unless
              every change run beats every parent run
  unchanged   otherwise

Runs are paired by seed; a seed measured on one side only is left out of
the pairing but counted in the medians.  A change that fails more queries
than its parent is flagged whatever its speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> dict:
    """{workload: {seed: [result, ...]}} for untraced results."""
    out: dict = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            r = json.load(fh)
        if r.get("trace"):
            continue
        seed = r["environment"]["seed"]
        out.setdefault(r["workload"], {}).setdefault(seed, []).append(r)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, pairs, better: str, bound: float):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    gain = sign * (cm - pm)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pairs and wins >= 0.9 * len(pairs) and gain > (p3 - p1):
        return "improved", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':14s} {'metric':16s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'won':>7s}  verdict")
    status = 0
    for w in [x["name"] for x in spec["workloads"]]:
        if w not in parent or w not in change:
            print(f"{w:14s} missing on {'parent' if w not in parent else 'change'} side")
            continue
        failed_p = sum(r["failed"] for rs in parent[w].values() for r in rs)
        failed_c = sum(r["failed"] for rs in change[w].values() for r in rs)
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for rs in parent[w].values() for r in rs]
            cv = [r["metrics"][name]["value"] for rs in change[w].values() for r in rs]
            pairs = [
                (statistics.median(r["metrics"][name]["value"] for r in parent[w][s]),
                 statistics.median(r["metrics"][name]["value"] for r in change[w][s]))
                for s in sorted(set(parent[w]) & set(change[w]))
            ]
            v, wins = verdict(pv, cv, pairs, m["better"], m["bound"])
            if v == "worse":
                status = 1
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"{w:14s} {name:16s} {pm:12.4g} [{p1:.4g}, {p3:.4g}]"
                  f"{'':>4s}{cm:12.4g} [{c1:.4g}, {c3:.4g}] {wins:3d}/{len(pairs):<3d}  {v}")
        if failed_c > failed_p:
            status = 1
            print(f"{w:14s} failed queries: parent {failed_p}, change {failed_c}  worse")
    return status


if __name__ == "__main__":
    sys.exit(main())
