"""Collect the run records in .bench_build/results/ into perfbench/BASELINE.json.

Usage, from the root of a checkout, after a set of runs:

    python3 perfbench/record.py GIT_SHA

Each end-to-end metric is summarised over runs as the median of the runs'
values with its quartiles and the number of runs; per-layer metrics come
from the traced runs.  The ``roadmap_rows`` are the program's cold
single-command times of the three suites and classify.
"""
from __future__ import annotations

import json
import statistics
import sys

from run import BENCH, BUILD


def over_runs(values) -> dict:
    values = list(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "runs": len(values)}


def main(argv) -> int:
    records = [json.loads(p.read_text()) for p in sorted((BUILD / "results").glob("*.json"))]
    if not records:
        print("no run records under .bench_build/results", file=sys.stderr)
        return 2
    workloads = {}
    for rec in records:
        entry = workloads.setdefault(rec["workload"], {"seeds": [], "runs": [], "traced": []})
        (entry["traced"] if rec["trace"] else entry["runs"]).append(rec)
        entry["seeds"].append(rec["seed"])
    out = {"git_sha": argv[1] if len(argv) > 1 else None, "machine": records[0]["machine"],
           "workloads": {}, "roadmap_rows": {}}
    for name, entry in sorted(workloads.items()):
        runs, traced = entry["runs"], entry["traced"]
        doc = {"seeds": sorted(set(entry["seeds"])),
               "correct": all(r["correct"] for r in runs + traced),
               "failed_frac": max(r["failed_frac"] for r in runs + traced)}
        if runs:
            doc["end_to_end"] = {k: over_runs(r["metrics"][k]["median"] for r in runs)
                                 for k in runs[0]["metrics"]}
            for query in runs[0]["query_wall_s"]:
                if not query.startswith("sweep"):
                    out["roadmap_rows"][query] = over_runs(
                        r["query_wall_s"][query]["median"] for r in runs)
        if traced:
            doc["per_layer"] = {k: over_runs(r["metrics"][k]["median"] for r in traced)
                                for k in traced[0]["metrics"]}
        out["workloads"][name] = doc
    path = BENCH / "BASELINE.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(BENCH.parent)} from {len(records)} run records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
