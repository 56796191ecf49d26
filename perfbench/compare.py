"""Compare two perfbench result files, workload by workload, metric by metric.

    python perfbench/compare.py A.json B.json

A is the base, B the candidate.  One row per workload × end-to-end
metric: both medians with their quartiles, the ratio B/A (its base is
A's median) and a verdict from the metric's bound in ``BENCHMARK.json``:

* ``unresolved``   — either side's quartile spread (q3 − q1) is wider
  than the bound times its median, so the pair cannot be judged —
  unless every run of B reads better than every run of A;
* ``worse``        — B's median is worse than A's by more than the bound;
* ``better``       — B's median is better than A's by more than the bound;
* ``within-bound`` — anything else.

Exit code 1 when any row is ``worse``, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: the metrics only the full mode prints take the bound of the metric
#: they are a view of
BOUND_OF = {
    "executions_per_s": "work_per_s",
    "events_per_s": "work_per_s",
    "first_fail_s": "wall_s",
    "first_fail_p90_s": "wall_s",
}


def load_bounds() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return {m["name"]: (m["bound"], m["better"]) for m in benchmark["end_to_end"]}


def judge(base: dict, candidate: dict, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worse = sign * (B - A) > 0
    change = sign * (candidate["median"] - base["median"]) / base["median"]
    clearly_better = (
        candidate["max"] < base["min"] if better == "lower"
        else candidate["min"] > base["max"]
    )
    for side in (base, candidate):
        if side["q3"] - side["q1"] > bound * side["median"] and not clearly_better:
            return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within-bound"


def compare(base: dict, candidate: dict, bounds: dict) -> list:
    rows = []
    for workload, entry in base["workloads"].items():
        other = candidate["workloads"].get(workload)
        if other is None:
            continue
        for metric, summary in entry["metrics"].items():
            theirs = other["metrics"].get(metric)
            gate = BOUND_OF.get(metric, metric)
            if summary is None or theirs is None or gate not in bounds:
                continue  # null on this workload, or reported without a bound
            bound, better = bounds[gate]
            rows.append({
                "workload": workload, "metric": metric, "base": summary,
                "candidate": theirs, "ratio": theirs["median"] / summary["median"],
                "bound": bound, "verdict": judge(summary, theirs, bound, better),
            })
        if other["failed"] > entry["failed"]:
            rows.append({
                "workload": workload, "metric": "failed_share", "verdict": "worse",
                "base": {"median": entry["failed_share"]},
                "candidate": {"median": other["failed_share"]},
                "ratio": float("nan"), "bound": 0.0,
            })
    return rows


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(documents[0], documents[1], load_bounds())
    print(f"base {argv[0]} ({documents[0]['header']['git_sha'][:12]})  "
          f"candidate {argv[1]} ({documents[1]['header']['git_sha'][:12]})")
    print(f"{'workload':<18}{'metric':<19}{'A median [q1, q3]':>34}"
          f"{'B median [q1, q3]':>34}{'B/A':>8}{'bound':>7}  verdict")

    def shown(summary: dict) -> str:
        if "q1" not in summary:
            return f"{summary['median']:.4f}"
        return f"{summary['median']:.4f} [{summary['q1']:.4f}, {summary['q3']:.4f}]"

    for row in rows:
        print(f"{row['workload']:<18}{row['metric']:<19}{shown(row['base']):>34}"
              f"{shown(row['candidate']):>34}{row['ratio']:>8.3f}{row['bound']:>7.2f}"
              f"  {row['verdict']}")
    counts = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{n} {verdict}" for verdict, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
