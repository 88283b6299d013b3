"""The absorb benchmark: time to a verdict, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's queries for at most about S seconds (at least one whole
pass), one child process at a time, each a fresh interpreter that imports
absorb from ``src/``.  Every output is checked against
``perfbench/expected/NAME.json`` and every negative witness is replayed from
the definitions, outside the timed phase.

With ``--trace 0`` each query runs twice in a row, once against ``src/`` and
once against ``perfbench/reference/``, a frozen copy of absorb, taking turns
at going first; the time metrics are the program's times over the
reference's, so that the host's changing speed cancels out.  The last line
of stdout holds the end-to-end metrics.  With ``--trace 1`` only ``src/``
runs, in whole passes, untraced and traced by turns, and the last line holds
the per-layer metrics.  A fuller record, with quartiles, sample counts,
the raw times, the seed and the machine, goes to ``.bench_build/results/``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PROBE_SPECS, WORKLOADS, query_name, sweep_order

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"   # a frozen copy of absorb, the yardstick
BUILD = ROOT / ".bench_build"
SETUP_PROBES = 5          # extra cold imports per run and side, besides the queries
# The reference's median set-up time on the machine of perfbench/BASELINE.json
# (2 vCPUs of a shared x86-64 host, CPython 3.11.7).  setup_s is this times
# the program's set-up time over the reference's, both timed one right after
# the other: the program's set-up time on a host as fast as that one was.
REFERENCE_SETUP_S = 0.085
HARD_STOP_S = 170         # a run ends by then whatever --seconds says

END_TO_END_UNITS = {"setup_s": "s", "wall_vs_ref": "ratio", "verdict_p50_vs_ref": "ratio",
                    "verdict_p99_vs_ref": "ratio", "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(job: dict, env: dict, deadline: float, src: Path) -> tuple[float, dict]:
    """Run one query against the absorb under ``src``, killing it at the
    monotonic deadline; returns (set-up seconds, the child's report)."""
    cmd = [sys.executable, "-s", str(BENCH / "child.py"), str(src), json.dumps(job)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - spawned), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{job['query'][0]} timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{job['query']} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout)
    return report["imported"] - spawned, report


# -- correctness -------------------------------------------------------------


def _cli_query_check(argv, report, want) -> tuple[int, int]:
    """(attempted, failed) for one CLI query against its expected outcome."""
    doc = report["doc"]
    if argv[0] == "classify":
        rows = doc["table"]["rows"]
        bad = sum(1 for i, row in enumerate(want["rows"]) if i >= len(rows) or rows[i] != row)
        ok = report["rc"] == want["rc"] and doc["mismatches"] == 0 and len(rows) == len(want["rows"])
        return len(want["rows"]), bad if ok else len(want["rows"])
    got = {"rc": report["rc"], "holds": doc["holds"], "instances_checked": doc["instances_checked"],
           "confirmations": doc["confirmations"], "violations": doc["violations"]}
    return 1, int(got != want)


def _verdict_table_check(got: dict, want: dict) -> tuple[int, int]:
    attempted = failed = 0
    for prop, rows in want.items():
        have = got.get(prop, [])
        attempted += len(rows)
        failed += sum(1 for i, row in enumerate(rows) if i >= len(have) or have[i] != row)
    return attempted, failed


def _sweep_chunk(query, seed) -> tuple[list, tuple]:
    """The modules whose verdicts one sweep chunk gives, and whose ideals it
    probes."""
    return sweep_order(seed, query[1])[0], PROBE_SPECS if query[1] == 0 else ()


def _sweep_check(report, want, specs, probe_specs) -> tuple[int, int]:
    attempted = failed = 0
    for spec in specs:
        exp = want["verdicts"][spec]
        got = report["verdicts"].get(spec, {"masks": None, "verdicts": {}})
        a, f = _verdict_table_check(got["verdicts"], exp["verdicts"])
        attempted += a
        failed += f if got["masks"] == exp["masks"] else a
    for spec in probe_specs:
        a, f = _verdict_table_check(report["probe"].get(spec, {}), want["probe"][spec])
        attempted += a
        failed += f
    return attempted, failed


def check_report(query, report, expected, seed) -> tuple[int, int]:
    if query[0] == "sweep":
        attempted, failed = _sweep_check(report, expected["sweep"], *_sweep_chunk(query, seed))
    else:
        attempted, failed = _cli_query_check(query[1], report, expected[query_name(query)])
    return attempted, failed + len(report["replay_failures"])


def expected_count(query, expected, seed) -> int:
    if query[0] == "sweep":
        want = expected["sweep"]
        specs, probe_specs = _sweep_chunk(query, seed)
        return (sum(len(r) for s in specs for r in want["verdicts"][s]["verdicts"].values())
                + sum(len(r) for s in probe_specs for r in want["probe"][s].values()))
    want = expected[query_name(query)]
    return len(want["rows"]) if "rows" in want else 1


# -- passes ------------------------------------------------------------------


class Harness:
    """The queries of one run, its deadline, and what its passes tallied."""

    def __init__(self, workload: str, seed: int, expected: dict, deadline: float):
        self.workload, self.seed, self.expected, self.deadline = workload, seed, expected, deadline
        self.queries = WORKLOADS[workload]
        self.env = child_env()
        self.attempted = self.failed = self.trace_problems = self.reference_failed = 0
        self.setup, self.rss_kb, self.by_query, self.reference_by_query = [], [], {}, {}
        self.reference_setup = []

    def child(self, query, spans=None) -> dict | None:
        """Run one query in a child; counts its outcome, None if it failed."""
        try:
            setup, report = run_child({"query": list(query), "seed": self.seed, "spans": spans},
                                      self.env, self.deadline, SRC)
        except ChildFailed as exc:
            print(f"query failed: {exc}", file=sys.stderr)
            n = expected_count(query, self.expected, self.seed) if query[0] != "import" else 1
            self.attempted += n
            self.failed += n
            return None
        self.setup.append(setup)
        if query[0] == "import":
            return report
        try:
            attempted, failed = check_report(query, report, self.expected, self.seed)
        except (KeyError, IndexError, TypeError) as exc:
            print(f"malformed output from {query_name(query)}: {exc!r}", file=sys.stderr)
            attempted = failed = expected_count(query, self.expected, self.seed)
        self.attempted += attempted
        self.failed += failed
        for item in report["replay_failures"]:
            print(f"witness does not replay: {item}", file=sys.stderr)
        for name in report.get("trace_missing", []):
            print(f"warning: no entry point {name} to trace", file=sys.stderr)
        for problem in report.get("trace_problems", []):
            print(f"trace coverage: {problem}", file=sys.stderr)
            self.trace_problems += 1
        self.rss_kb.append(report["maxrss_kb"])
        self.by_query.setdefault(query_name(query), []).append(report["wall_s"])
        return report

    def reference_child(self, query) -> dict | None:
        """Run one query against the reference copy; its outcome must match
        the expected file too, but it counts apart from the program's."""
        try:
            setup, report = run_child({"query": list(query), "seed": self.seed, "spans": None},
                                      self.env, self.deadline, REFERENCE)
            self.reference_setup.append(setup)
            if query[0] == "import":
                return report
            _, failed = check_report(query, report, self.expected, self.seed)
        except (ChildFailed, KeyError, IndexError, TypeError) as exc:
            print(f"reference failed on {query_name(query)}: {exc!r}", file=sys.stderr)
            self.reference_failed += 1
            return None
        self.reference_failed += failed
        self.reference_by_query.setdefault(query_name(query), []).append(report["wall_s"])
        return report

    def run_pass(self, spans_prefix) -> dict:
        """One pass over the workload's queries, one child at a time."""
        walls, latencies, layers = [], [], {}
        ok = True
        for k, query in enumerate(self.queries):
            report = self.child(query, f"{spans_prefix}-q{k}.json" if spans_prefix else None)
            if report is None:
                ok = False
                continue
            walls.append(report["wall_s"])
            latencies.extend(report["latencies_ms"] or [report["wall_s"] * 1000.0])
            for key, value in report.get("layers", {}).items():
                layers[key] = layers.get(key, 0) + value
        if layers:
            space = layers.pop("scan.pair_space")
            layers["scan.visited_frac"] = layers["scan.pairs_visited"] / space if space else 0.0
        return {"ok": ok, "wall_s": sum(walls), "latencies_ms": latencies, "layers": layers}

    def run_traced(self, until, spans_dir) -> tuple[list, list]:
        """Whole passes until the monotonic time ``until``, untraced and
        traced by turns, at least one of each; the turns keep a change in the
        host's speed out of the tracing overhead."""
        passes, took = {False: [], True: []}, {}
        for k in itertools.count():
            traced = k % 2 == 1
            # start a pass only if it should end by the deadline, so no run
            # outlasts its set length by more than the noise in one pass
            if k >= 2 and time.monotonic() + took[traced] > min(until, self.deadline):
                return passes[False], passes[True]
            begun = time.monotonic()
            prefix = str(spans_dir / f"pass{len(passes[True])}") if traced else None
            passes[traced].append(self.run_pass(prefix))
            took[traced] = time.monotonic() - begun

    def run_pairs(self, until) -> tuple[list, bool]:
        """Query pairs until the monotonic time ``until``, cycling through
        the workload's queries, at least one whole pass.  A pair runs one
        query against the program and the reference copy, one right after
        the other, taking turns at going first.  Returns the pairs, each
        {"program": side, "reference": side} where a side holds the query's
        timed phase in s and its verdict latencies in ms, and whether every
        child succeeded."""
        pairs, took, ok = [], {}, True
        for k in itertools.count():
            query = self.queries[k % len(self.queries)]
            # start a pair only if it should end by the deadline, so no run
            # outlasts its set length by more than the noise in one pair
            if k >= len(self.queries) and time.monotonic() + took[k % len(self.queries)] > min(
                    until, self.deadline):
                return pairs, ok
            begun = time.monotonic()
            sides = ("program", "reference") if k % 2 else ("reference", "program")
            reports = {side: self.child(query) if side == "program" else self.reference_child(query)
                       for side in sides}
            took[k % len(self.queries)] = time.monotonic() - begun
            if None in reports.values():
                ok = False
                continue
            pairs.append({side: {"wall_s": r["wall_s"],
                                 "latencies_ms": r["latencies_ms"] or [r["wall_s"] * 1000.0]}
                          for side, r in reports.items()})


# -- statistics --------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summary(values) -> dict:
    values = list(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def versus_reference(pairs, measure) -> dict:
    """The program's ``measure`` of a query over the reference's, one ratio
    per query pair.  The two sides of a pair ran one right after the other,
    so a change in the host's speed over the run cancels out of each
    ratio."""
    return summary(measure(p["program"]) / measure(p["reference"]) for p in pairs)


def end_to_end(pairs, harness) -> dict:
    walls = {side: sum(p[side]["wall_s"] for p in pairs) for side in ("program", "reference")}
    per_query = sorted({len(p["program"]["latencies_ms"]) for p in pairs})
    return {
        # the n-th program child and the n-th reference child ran as a pair
        "setup_s": dict(summary(REFERENCE_SETUP_S * program / reference for program, reference
                                in zip(harness.setup, harness.reference_setup, strict=True)),
                        program_s=statistics.median(harness.setup),
                        reference_s=statistics.median(harness.reference_setup)),
        # the program's time over the reference's on the same queries; the
        # quartiles are those of the single pairs
        "wall_vs_ref": dict(versus_reference(pairs, lambda side: side["wall_s"]),
                            median=walls["program"] / walls["reference"]),
        "verdict_p50_vs_ref": dict(
            versus_reference(pairs, lambda side: statistics.median(side["latencies_ms"])),
            verdicts_per_query=per_query),
        "verdict_p99_vs_ref": dict(
            versus_reference(pairs, lambda side: percentile(side["latencies_ms"], 0.99)),
            beyond_per_query=[n - math.ceil(0.99 * n) for n in per_query]),
        "peak_rss_mb": {"median": max(harness.rss_kb) / 1024.0, "n": len(harness.rss_kb)},
    }


def raw_times(pairs) -> dict:
    """The program's and the reference's own times, for the run record."""
    out = {}
    for side in ("program", "reference"):
        lat = [t for p in pairs for t in p[side]["latencies_ms"]]
        out[side] = {"wall_s": sum(p[side]["wall_s"] for p in pairs),
                     "verdict_p50_ms": statistics.median(lat),
                     "verdict_p99_ms": percentile(lat, 0.99)}
    return out


def per_layer(untraced, traced) -> dict:
    keys = sorted(traced[0]["layers"])
    out = {k: summary(p["layers"][k] for p in traced) for k in keys}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    out["trace.overhead_frac"] = {"median": overhead, "n": len(traced)}
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps
    # the child it is waiting on instead of leaving it running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    expected_path = BENCH / "expected" / f"{args.workload}.json"
    if not all(p.is_file() for p in (SRC / "absorb" / "__init__.py", expected_path,
                                     REFERENCE / "absorb" / "__init__.py")):
        print(f"no absorb sources under {SRC} or {REFERENCE}, or no {expected_path}",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    harness = Harness(args.workload, args.seed, json.loads(expected_path.read_text()),
                      start + HARD_STOP_S)
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    for _ in range(SETUP_PROBES):
        if harness.child(["import"]) is None or harness.reference_child(["import"]) is None:
            return 2

    if args.trace:
        spans_dir = BUILD / "spans" / args.workload
        spans_dir.mkdir(parents=True, exist_ok=True)
        untraced, traced = harness.run_traced(start + args.seconds, spans_dir)
        samples = untraced + traced
        stats = per_layer(untraced, traced) if all(p["ok"] for p in samples) else {}
        units = {k: layer_unit(k) for k in stats}
    else:
        samples, ok = harness.run_pairs(start + args.seconds)
        stats = end_to_end(samples, harness) if ok else {}
        units = {k: END_TO_END_UNITS[k] for k in stats}

    correct = (harness.failed == 0 and harness.trace_problems == 0
               and harness.reference_failed == 0 and bool(stats))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": len(samples), "correct": correct,
        "attempted": harness.attempted, "failed": harness.failed,
        "failed_frac": harness.failed / max(1, harness.attempted),
        "metrics": {k: dict(v, unit=units[k]) for k, v in stats.items()},
        "query_wall_s": {k: summary(v) for k, v in harness.by_query.items()},
        "reference_query_wall_s": {k: summary(v) for k, v in harness.reference_by_query.items()},
        "raw_times": raw_times(samples) if stats and not args.trace else None,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
    }
    out = BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in record["metrics"].items():
        spread = f" q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
        print(f"{args.workload} seed={args.seed} {name}={m['median']:.6g} {m['unit']}{spread} n={m['n']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, harness.attempted),
        "failed": harness.failed,
        "metrics": {k: {"value": v["median"], "unit": units[k]} for k, v in stats.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
