"""Summarise one result file, or compare two.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

A result file holds the records run.py --out appended, one per run.  For each (workload, metric) it prints the median and quartiles
of each file and, with two files, the ratio NEW/BASE.

The spread of a file is (Q3 - Q1) / median over its runs.  Alone, a file
fails when an end-to-end metric spreads wider than its bound in
BENCHMARK.json.  Compared, an end-to-end metric is ``unresolved`` when
either spread exceeds the metric's bound; otherwise it is ``worse`` when
NEW's median is worse than BASE's by more than the bound, else ``ok``.
Per-layer metrics have no bound and get only the ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """(workload, metric) -> list of values, in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                runs[rec["workload"], name].append(m["value"])
    return runs


def summary(values):
    """(median, Q1, Q3, spread)."""
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_by(base, new, better):
    """The share by which new is worse than base (negative if better)."""
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path, nargs="?")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = load(args.base)
    new = load(args.new) if args.new else None
    failed = False
    for key in sorted(base):
        workload, name = key
        b = summary(base[key])
        line = (f"{workload:10s} {name:40s} n={len(base[key]):<3d} "
                f"{b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}] spread {b[3]:.3f}")
        metric = bounds.get(name)
        if new is None:
            if metric:
                ok = b[3] <= metric["bound"]
                failed |= not ok
                line += (f" bound {metric['bound']}"
                         f" {'ok' if ok else 'TOO WIDE'}")
            print(line)
            continue
        if key not in new:
            print(line + "  (missing in NEW)")
            continue
        n = summary(new[key])
        ratio = f"{n[0] / b[0]:.4f}" if b[0] else "n/a"
        line += (f" | {n[0]:.6g} [{n[1]:.6g}, {n[2]:.6g}] spread "
                 f"{n[3]:.3f} | ratio {ratio}")
        if metric:
            bound = metric["bound"]
            if max(b[3], n[3]) > bound:
                verdict = "unresolved"
            elif worse_by(b[0], n[0], metric["better"]) > bound:
                verdict = "worse"
                failed = True
            else:
                verdict = "ok"
            line += f" {verdict}"
        print(line)
    raise SystemExit(1 if failed else 0)


if __name__ == "__main__":
    main()
