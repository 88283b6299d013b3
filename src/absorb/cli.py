"""Command-line front end.

Subcommands:
    check      decide one property for one submodule of one module
    enumerate  list the proper submodules of a module with property columns
    verify     run a named verification suite
    classify   tabulate gsdf(0 <= Z_n) against the p^k / 2p^k prediction

Exit codes: 0 = property holds / suite passes, 1 = witnessed failure,
2 = usage, syntax, or elaboration error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import __version__
from .errors import AbsorbError
from .lattice import all_submodules
from .predicates import PROPERTY_CHECKS, check_property
from .specdsl import (
    SpecNode,
    elaborate_module,
    elaborate_sub,
    parse_module_spec,
    parse_ring_spec,
    parse_sub_spec,
)
from .suites import SUITE_IDS, classify_zn, run_suite, size_parameter

PROP_NAMES = tuple(PROPERTY_CHECKS)


def _witness_doc(witness) -> dict | None:
    if witness is None:
        return None
    doc = {"u": witness.u, "v": witness.v}
    if witness.x is not None:
        doc["x"] = witness.x
    if witness.k_bound is not None:
        doc["k_bound"] = witness.k_bound
    doc["rendered"] = witness.text
    return doc


def _document(command: str, spec: str | None, **fields) -> dict:
    doc = {"command": command, "spec": spec}
    doc.update(fields)
    doc["tool_version"] = __version__
    return doc


def _emit(doc: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(doc, indent=2, default=str) + "\n"
    elif fmt == "csv":
        text = _to_csv(doc)
    else:
        text = _to_text(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    table = doc.get("table")
    if table:
        writer.writerow(table["columns"])
        for row in table["rows"]:
            writer.writerow(row)
    else:
        keys = [k for k in doc if k not in ("table",)]
        writer.writerow(keys)
        writer.writerow([_flat(doc[k]) for k in keys])
    return buf.getvalue()


def _flat(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, default=str)
    return value


def _to_text(doc: dict) -> str:
    lines = []
    for key, value in doc.items():
        if key == "table":
            cols = value["columns"]
            widths = [
                max(len(str(c)), *(len(str(r[i])) for r in value["rows"]), 1)
                if value["rows"]
                else len(str(c))
                for i, c in enumerate(cols)
            ]
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(cols, widths)))
            for row in value["rows"]:
                lines.append("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
        elif isinstance(value, dict):
            lines.append(f"{key}: " + ", ".join(f"{k}={v}" for k, v in value.items()))
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _load_module(args):
    if getattr(args, "module", None) and getattr(args, "ring", None):
        raise AbsorbError("give either --module or --ring, not both")
    if getattr(args, "module", None):
        return elaborate_module(parse_module_spec(args.module)), args.module
    if getattr(args, "ring", None):
        # wrapped after parsing, so error columns count in the ring spec as typed
        node = SpecNode("mod-self", (parse_ring_spec(args.ring),), 1, 1)
        return elaborate_module(node), f"self({args.ring})"
    raise AbsorbError("a --module or --ring spec is required")


def cmd_check(args) -> int:
    start = time.perf_counter()
    M, spec = _load_module(args)
    N = elaborate_sub(parse_sub_spec(args.sub), M)
    kwargs = {}
    if args.variant_nonzero:
        if args.prop != "sdfprimary":
            raise AbsorbError("--variant-nonzero only applies to --prop sdfprimary")
        kwargs["nonzero_only"] = True
    report = check_property(args.prop, N, **kwargs)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    doc = _document(
        "check",
        spec,
        sub=args.sub,
        property=args.prop,
        holds=report.holds,
        witness=_witness_doc(report.witness),
        checked_count=report.checked_count,
        elapsed_ms=round(elapsed_ms, 3),
    )
    _emit(doc, args.format, args.out)
    return 0 if report.holds else 1


def cmd_enumerate(args) -> int:
    start = time.perf_counter()
    M, spec = _load_module(args)
    props = [p.strip() for p in args.props.split(",") if p.strip()] if args.props else []
    for p in props:
        if p not in PROPERTY_CHECKS:
            raise AbsorbError(f"unknown property {p!r}; known: {', '.join(PROP_NAMES)}")
    columns = ["submodule", "order"] + props
    rows = []
    for N in all_submodules(M).proper:
        row = [N.describe(), len(N.indices)]
        row += [check_property(p, N).holds for p in props]
        rows.append(row)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    doc = _document(
        "enumerate",
        spec,
        properties=props,
        table={"columns": columns, "rows": rows},
        count=len(rows),
        elapsed_ms=round(elapsed_ms, 3),
    )
    _emit(doc, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    params = {}
    if args.max is not None:
        knob = size_parameter(args.suite)
        if knob is None:
            raise AbsorbError(f"suite {args.suite!r} has no scalar size parameter for --max")
        params[knob] = args.max
    report = run_suite(args.suite, params or None)
    doc = _document(
        "verify",
        None,
        suite=report.suite_id,
        statement=report.statement,
        holds=report.passed,
        instances_checked=report.instances_checked,
        violations=[str(v) for v in report.violations],
        confirmations=report.confirmations,
        parameters=report.parameters,
        elapsed_ms=round(report.elapsed * 1000.0, 3),
    )
    _emit(doc, args.format, args.out)
    return 0 if report.passed else 1


def cmd_classify(args) -> int:
    if args.max < 2:
        raise AbsorbError("--max must be at least 2")
    if args.jobs < 1:
        raise AbsorbError("--jobs must be at least 1")
    jobs = min(args.jobs, os.cpu_count() or 1)
    start = time.perf_counter()
    result = classify_zn(args.max, jobs=jobs)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    columns = ["n", "factorization", "gsdf", "predicted", "match"]
    rows = [
        [
            r.n,
            "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in r.factorization),
            r.gsdf_zero,
            r.predicted,
            r.match,
        ]
        for r in result.rows
    ]
    doc = _document(
        "classify",
        None,
        max_n=args.max,
        mismatches=len(result.mismatches),
        table={"columns": columns, "rows": rows},
        elapsed_ms=round(elapsed_ms, 3),
    )
    _emit(doc, args.format, args.out)
    return 0 if not result.mismatches else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absorb",
        description="Exact checker for absorbing-type submodule properties "
        "over finite commutative rings.",
    )
    parser.add_argument("--version", action="version", version=f"absorb {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--out", metavar="FILE", help="write the report to FILE")

    p = sub.add_parser("check", help="decide one property for one submodule")
    p.add_argument("--module", help="module spec, e.g. 'self(Zn(12))'")
    p.add_argument("--ring", help="ring spec; shorthand for self(RING)")
    p.add_argument("--sub", required=True, help="submodule spec, e.g. 'gen[6]'")
    p.add_argument("--prop", required=True, choices=PROP_NAMES)
    p.add_argument(
        "--variant-nonzero",
        action="store_true",
        help="with --prop sdfprimary: quantify over nonzero u, v only",
    )
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="list proper submodules with property columns")
    p.add_argument("--module", help="module spec")
    p.add_argument("--ring", help="ring spec; shorthand for self(RING)")
    p.add_argument("--props", default="", help="comma-separated property columns")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITE_IDS)}")
    p.add_argument(
        "--max", type=int, help="set the suite's scalar size parameter (see its report)"
    )
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="classify gsdf(0 <= Z_n) for n up to --max")
    p.add_argument("--max", type=int, required=True, help="largest n (inclusive)")
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at most the CPU count"
    )
    common(p)
    p.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep the contract
        return int(exc.code or 0)
    try:
        return args.func(args)
    except AbsorbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
