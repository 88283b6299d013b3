"""One query of the benchmark, in a fresh interpreter.

Usage: python3 child.py SRC_DIR JOB_JSON

Imports absorb and absorb.cli from SRC_DIR (the import is the set-up the
parent times), runs the job's timed phase, then, outside the timed phase,
replays every negative witness from the definitions.  Prints one JSON object
on stdout.

A job is {"query": [...], "seed": n, "spans": path or null}; with a
spans path the layers are traced and the spans are written there.  The
query ["import"] stops right after the import.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

# imported before absorb so that an import-only probe also compiles them
from definitions import violates
from tracing import Tracer
from workloads import PROBE_PROPS, PROBE_SPECS, sweep_order


def main() -> int:
    src, job = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    import absorb
    import absorb.cli  # the package does not import its CLI; a CLI user pays for both

    imported = time.monotonic()
    here = os.path.realpath(absorb.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        print(f"absorb was imported from {here}, not from {src}", file=sys.stderr)
        return 3
    if job["query"][0] == "import":
        json.dump({"imported": imported}, sys.stdout)
        return 0

    tracer = None
    if job["spans"]:
        tracer = Tracer(absorb)
        tracer.install()
    query = job["query"]
    if query[0] == "sweep":
        run = _sweep_phase(absorb, job["seed"], query[1])
    else:
        run = _cli_phase(absorb, query[1])
    start = time.perf_counter()
    result = tracer.root(run) if tracer else run()
    wall = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        # snapshot before the untimed checks below add their own calls
        layers, spans = tracer.layer_metrics(), list(tracer.spans)

    out = {"imported": imported, "wall_s": wall}
    if query[0] == "sweep":
        out.update(_sweep_results(absorb, result, probe=query[1] == 0))
    else:
        out.update(_cli_results(absorb, result))
    out["maxrss_kb"] = maxrss_kb
    if tracer:
        tracer.write_spans(job["spans"], spans)
        out["layers"] = layers
        out["trace_problems"] = tracer.leaks
        out["trace_missing"] = tracer.missing
    json.dump(out, sys.stdout)
    return 0


# -- CLI queries -------------------------------------------------------------


def _cli_phase(absorb, argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = absorb.cli.main(argv)
        return rc, buf.getvalue()
    return run


def _cli_results(absorb, result):
    rc, text = result
    return {"rc": rc, "doc": json.loads(text), "latencies_ms": [], "replay_failures": []}


# -- the library sweep -------------------------------------------------------


def _sweep_phase(absorb, seed, chunk):
    specs, prop_orders = sweep_order(seed, chunk)
    parse, elaborate = absorb.parse_module_spec, absorb.elaborate_module
    lattice, check = absorb.all_submodules, absorb.check_property

    def run():
        clock = time.perf_counter
        latencies, found = [], {}
        for spec in specs:
            M = elaborate(parse(spec))
            rows = []
            for N in lattice(M).proper:
                row = {}
                for prop in next(prop_orders):
                    t0 = clock()
                    rep = check(prop, N)
                    latencies.append(clock() - t0)
                    row[prop] = rep
                rows.append((N, row))
            found[spec] = (M, rows)
        return latencies, found
    return run


def _verdict_doc(rep):
    w = rep.witness
    return [rep.holds, list(w.as_tuple()) if w else None, w.k_bound if w else None]


def _sweep_results(absorb, result, probe):
    latencies, found = result
    verdicts, replay_failures = {}, []
    for spec, (M, rows) in found.items():
        masks, by_prop = [], {}
        for N, row in rows:
            masks.append(format(N.mask, "x"))
            for prop, rep in row.items():
                by_prop.setdefault(prop, []).append(_verdict_doc(rep))
                w = rep.witness
                if not rep.holds and not violates(prop, M.ring, M, N.contains, w.u, w.v, w.x):
                    replay_failures.append([spec, masks[-1], prop, list(w.as_tuple())])
        verdicts[spec] = {"masks": masks, "verdicts": by_prop}
    return {"rc": 0, "verdicts": verdicts,
            "probe": _probe(absorb, replay_failures) if probe else {},
            "latencies_ms": [t * 1000.0 for t in latencies], "replay_failures": replay_failures}


def _probe(absorb, replay_failures):
    """Untimed, in the first chunk: the ideal-level properties on the ideals
    of small Z_n, so that witnesses of all seven properties are replayed in
    every pass."""
    out = {}
    for spec in PROBE_SPECS:
        M = absorb.elaborate_module(absorb.parse_module_spec(spec))
        by_prop = {}
        for N in absorb.all_submodules(M).proper:
            for prop in PROBE_PROPS:
                rep = absorb.check_property(prop, N)
                by_prop.setdefault(prop, []).append(_verdict_doc(rep))
                w = rep.witness
                if not rep.holds and not violates(prop, M.ring, None, N.contains, w.u, w.v, None):
                    replay_failures.append([spec, format(N.mask, "x"), prop, list(w.as_tuple())])
        out[spec] = by_prop
    return out


if __name__ == "__main__":
    sys.exit(main())
