"""Median and quartile spread of each metric over several benchmark runs.

    python3 perfbench/spread.py perfbench/out/results/lattice-4x4-seed*-trace0.json

Reads the records that ``run.py`` writes and prints, per workload and metric,
the median of the runs and the distance between the first and third
quartiles as a share of that median (``statistics.quantiles(values, n=4)``),
the figure a run-to-run bound is compared against.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from statistics import median, quantiles


def main(paths: list[str]) -> int:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    units: dict[str, str] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        for name, metric in record["metrics"].items():
            if metric["value"] is not None:
                values[(record["workload"], name)].append(metric["value"])
                units[name] = metric["unit"]
    for (workload, name), series in sorted(values.items()):
        mid = median(series)
        if len(series) < 2 or mid == 0:
            print(f"{workload:20s} {name:34s} {mid:12.6g} {units[name]:6s} n={len(series)}")
            continue
        q1, _, q3 = quantiles(series, n=4)
        print(f"{workload:20s} {name:34s} {mid:12.6g} {units[name]:6s} "
              f"n={len(series)} spread {(q3 - q1) / mid:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
