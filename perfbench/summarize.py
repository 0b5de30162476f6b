"""Median and quartiles of every metric per workload, over the run records in perfbench/out/.

    python3 perfbench/summarize.py > summary.json

Quartiles are those of ``statistics.quantiles(values, n=4)``; ``spread`` is
their distance as a share of the median. End-to-end metrics come from the
``--trace 0`` records and per-layer metrics from the ``--trace 1`` records.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def summarize(records: list[dict]) -> dict:
    values: dict = defaultdict(lambda: defaultdict(list))
    seeds: dict = defaultdict(set)
    for rec in records:
        table = "end_to_end" if rec["trace"] == 0 else "per_layer"
        seeds[(rec["workload"], table)].add(rec["seed"])
        for name, m in rec["metrics"].items():
            values[(rec["workload"], table)][name].append(m["value"])
    out: dict = defaultdict(dict)
    for (workload, table), metrics in sorted(values.items()):
        rows = {}
        for name, vals in sorted(metrics.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], None, vals[0])
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
        out[workload][table] = {"seeds": sorted(seeds[(workload, table)]), "metrics": rows}
    return dict(out)


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted(OUT_DIR.glob("*-seed*-trace*.json"))]
    if not records:
        print(f"no run records in {OUT_DIR}", file=sys.stderr)
        return 1
    env = records[0]["env"]
    json.dump({"env": env, "workloads": summarize(records)}, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
