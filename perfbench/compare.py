"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds the records that `run.py --out FILE` appends, one per run.
For every workload and metric it prints the median and quartiles of each
side and the change of the medians. For traced runs that covers every stage's
self time, so a change can be read stage by stage; exact counts that differ
between runs of the same seed are listed as well.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fmt(v: float) -> str:
    return f"{v:.4g}"


def compare_group(base: list[dict], head: list[dict]) -> list[str]:
    lines = [f"{'metric':<44} {'base median [q1, q3]':>30} "
             f"{'head median [q1, q3]':>30} {'change':>8}"]
    keys = sorted(set(base[0]["metrics"]) | set(head[0]["metrics"]))
    for key in keys:
        b = [r["metrics"][key] for r in base if key in r["metrics"]]
        h = [r["metrics"][key] for r in head if key in r["metrics"]]
        if not b or not h:
            lines.append(f"{key:<44} {'only in ' + ('base' if b else 'head'):>30}")
            continue
        if not any(b) and not any(h):  # a stage this workload never reaches
            continue
        (b1, bm, b3), (h1, hm, h3) = summary(b), summary(h)
        change = f"{100 * (hm - bm) / bm:+.1f}%" if bm else ("=" if hm == bm else "new")
        lines.append(f"{key:<44} {fmt(bm) + f' [{fmt(b1)}, {fmt(b3)}]':>30} "
                     f"{fmt(hm) + f' [{fmt(h1)}, {fmt(h3)}]':>30} {change:>8}")
    base_counts = {r["seed"]: r.get("exact_counts") or {} for r in base}
    for rec in head:
        ref = base_counts.get(rec["seed"])
        if ref is None:
            continue
        diff = {k: (ref.get(k), v) for k, v in (rec.get("exact_counts") or {}).items()
                if ref.get(k) != v}
        if diff:
            lines.append(f"exact counts differ on seed {rec['seed']}: {diff}")
    failed = sum(1 for r in head if r.get("problems"))
    if failed:
        lines.append(f"{failed} head run(s) reported failed checks")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    base, head = load(args.base), load(args.head)
    for key in sorted(set(base) | set(head)):
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'end to end'}): "
              f"{len(base.get(key, []))} base run(s), {len(head.get(key, []))} head run(s)")
        if key not in base or key not in head:
            print("   present on one side only\n")
            continue
        print("\n".join(compare_group(base[key], head[key])) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
