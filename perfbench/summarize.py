"""Summarise benchmark result files: medians and quartiles per workload and metric.

    python3 -m perfbench.summarize .perfbench_out/result-*.json

For each workload, the untraced runs (`--trace 0`) give each end-to-end
metric's median, first and third quartile (`statistics.quantiles(n=4)`)
and the spread (q3 - q1) / median. The traced runs (`--trace 1`) give the
median of every per-layer metric. Prints JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    return out


def summarize(paths) -> dict:
    runs = defaultdict(lambda: defaultdict(list))
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        key = (result["args"]["workload"], result["args"]["trace"])
        for name, value in result["metrics"].items():
            runs[key][name].append(value)
        tail = result["detail"].get("op_tail_s")
        if tail:
            runs[key]["op_tail_s"].append(tail["value"])
        runs[key]["seed"].append(result["args"]["seed"])
    summary = defaultdict(dict)
    for (workload, trace), metrics in sorted(runs.items()):
        seeds = metrics.pop("seed")
        section = "end_to_end" if trace == 0 else "per_layer"
        summary[workload][section] = {
            "seeds": seeds,
            **{name: describe(values) if trace == 0 else statistics.median(values)
               for name, values in metrics.items()},
        }
    return dict(summary)


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    print()
