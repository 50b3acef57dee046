"""Spread of one set of benchmark runs, or two sets compared.

    python3 bench/compare.py DIR             # per workload and metric: median, spread
    python3 bench/compare.py BASE_DIR NEW_DIR

DIR holds the untraced result files that run.py writes to bench/out/results/
(copy that directory away between the two sets).  The spread is the distance
between the first and third quartiles as a share of the median.  A metric of
NEW is a regression when its median is worse than BASE's by more than the
bound in BENCHMARK.json; it is unresolved when BASE's own spread exceeds the
bound, unless every NEW run is better than every BASE run.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """{workload: {"metrics": {name: [values]}, "failed": [...], "attempted": [...]}}"""
    sets: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        res = json.loads(path.read_text())
        if res.get("trace"):
            continue
        entry = sets.setdefault(res["workload"], {"metrics": {}, "failed": [], "attempted": []})
        entry["failed"].append(res["failed"])
        entry["attempted"].append(res["attempted"])
        for name, m in res["metrics"].items():
            entry["metrics"].setdefault(name, []).append(m["value"])
    return sets


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv: list) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(d) for d in argv]
    status = 0
    for workload in sorted(sets[0]):
        base = sets[0][workload]
        share = sum(base["failed"]) / sum(base["attempted"])
        print(f"{workload}: {len(base['failed'])} runs, failed share {share:.6f}")
        new = sets[1].get(workload) if len(sets) > 1 else None
        if new is not None:
            new_share = sum(new["failed"]) / sum(new["attempted"])
            if new_share != share:
                print(f"  failed share differs: {share} then {new_share}")
                status = 1
        for name, values in base["metrics"].items():
            m = metrics[name]
            line = (f"  {name:14s} median {statistics.median(values):.6g} {m['unit']}, "
                    f"spread {spread(values):.3f} (bound {m['bound']})")
            if new is not None:
                after = new["metrics"][name]
                b, a = statistics.median(values), statistics.median(after)
                worse = (a - b) / b if m["better"] == "lower" else (b - a) / b
                all_better = (max(after) < min(values) if m["better"] == "lower"
                              else min(after) > max(values))
                if worse > m["bound"]:
                    verdict = "REGRESSION"
                    status = 1
                elif spread(values) > m["bound"] and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                line += f" -> median {a:.6g}, {100 * -worse:+.1f}% better: {verdict}"
            print(line)
    return status


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
