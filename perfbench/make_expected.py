"""Write perfbench/expected/*.json, the outcome every query must reproduce.

Usage, from the root of a checkout:  python3 perfbench/make_expected.py

The outcomes come from one run of each query through the benchmark's own
child process.  Before anything is written they are cross-checked against
oracles that share no code with absorb's scanners:

* every verdict, witness and power bound on Z_n, n <= 30 (the five module
  properties in the sweep, the two ideal properties in the replay probe),
  against the triple loops of ``definitions.py`` over integer arithmetic,
  and the submodules of those Z_n against the divisors of n;
* every verdict on (Z_2)^5, (Z_3)^4 and (Z_4)^3 against the same loops
  over absorb's module arithmetic, and the lattice sizes of the vector
  spaces against Gaussian binomial counts;
* every classify row: the prediction against a direct p^k / 2p^k test, and
  the gsdf column for n <= 60 against the triple loop.

(Z_6)^3, self(prod(Zn(12),Zn(12))) and Z_n for n > 30 are too large for the
loops and are recorded as absorb computes them.  Suite outcomes must pass
with no violations; their counts are recorded as absorb computes them.
"""
from __future__ import annotations

import json
import sys
import time

from definitions import IDEAL_PROPS, MODULE_PROPS, IntZn, first_witness
from run import BENCH, SRC, child_env, run_child
from workloads import WORKLOADS, query_name

ORACLE_MAX_N = 30
CLASSIFY_ORACLE_MAX_N = 60
# spec -> number of submodules, zero and whole module included
VECTOR_SPACE_LATTICES = {
    "prod(prod(prod(cyc(Zn(2),2),cyc(Zn(2),2)),prod(cyc(Zn(2),2),cyc(Zn(2),2))),cyc(Zn(2),2))": 374,
    "prod(prod(cyc(Zn(3),3),cyc(Zn(3),3)),prod(cyc(Zn(3),3),cyc(Zn(3),3)))": 212,
    "prod(prod(cyc(Zn(6),6),cyc(Zn(6),6)),cyc(Zn(6),6))": 16 * 28,
}
TABLE_ORACLE_SPECS = (
    "prod(prod(prod(cyc(Zn(2),2),cyc(Zn(2),2)),prod(cyc(Zn(2),2),cyc(Zn(2),2))),cyc(Zn(2),2))",
    "prod(prod(cyc(Zn(3),3),cyc(Zn(3),3)),prod(cyc(Zn(3),3),cyc(Zn(3),3)))",
    "prod(prod(cyc(Zn(4),4),cyc(Zn(4),4)),cyc(Zn(4),4))",
)


class Disagreement(Exception):
    pass


def _agree(what, got, want):
    if got != want:
        raise Disagreement(f"{what}: absorb gives {got}, the oracle {want}")


def _member(mask_hex):
    mask = int(mask_hex, 16)
    return lambda i: bool(mask >> i & 1)


def _zn_order(spec):
    return int(spec[len("self(Zn("):-2]) if spec.startswith("self(Zn(") else None


def _check_zn_table(spec, masks, table, props):
    n = _zn_order(spec)
    divisor_masks = {sum(1 << x for x in range(0, n, d)) for d in range(2, n + 1) if n % d == 0}
    _agree(f"{spec} proper submodules", {int(m, 16) for m in masks}, divisor_masks)
    Zn = IntZn(n)
    for prop in props:
        for mask, row in zip(masks, table[prop]):
            want = list(first_witness(prop, Zn, Zn if prop in MODULE_PROPS else None, _member(mask)))
            want[1] = list(want[1]) if want[1] else None
            _agree(f"{spec} {prop} on {mask}", row, want)


def cross_check_sweep(absorb, sweep):
    for spec, entry in sweep["verdicts"].items():
        n = _zn_order(spec)
        if n is not None and n <= ORACLE_MAX_N:
            _check_zn_table(spec, entry["masks"], entry["verdicts"], MODULE_PROPS)
        if spec in VECTOR_SPACE_LATTICES:
            _agree(f"{spec} lattice size", len(entry["masks"]) + 1, VECTOR_SPACE_LATTICES[spec])
        if spec in TABLE_ORACLE_SPECS:
            M = absorb.elaborate_module(absorb.parse_module_spec(spec))
            for prop in MODULE_PROPS:
                for mask, row in zip(entry["masks"], entry["verdicts"][prop]):
                    want = list(first_witness(prop, M.ring, M, _member(mask)))
                    want[1] = list(want[1]) if want[1] else None
                    _agree(f"{spec} {prop} on {mask}", row, want)
    for spec, table in sweep["probe"].items():
        _check_zn_table(spec, sweep["verdicts"][spec]["masks"], table, IDEAL_PROPS)


def _prime_power(m):
    primes = {p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))}
    return len(primes) == 1


def _is_pk_or_2pk(n):
    """n = p^k, or n = 2 p^k with p odd."""
    return _prime_power(n) or (n % 2 == 0 and n % 4 != 0 and _prime_power(n // 2))


def cross_check_classify(rows):
    _agree("classify n range", [r[0] for r in rows], list(range(2, 601)))
    for n, _fact, gsdf, predicted, match in rows:
        _agree(f"classify prediction n={n}", predicted, _is_pk_or_2pk(n))
        _agree(f"classify match n={n}", match, True)
        if n <= CLASSIFY_ORACLE_MAX_N:
            Zn = IntZn(n)
            _agree(f"gsdf(0) in Z{n}", gsdf, first_witness("gsdf", Zn, Zn, lambda i: i == 0)[0])


def expected_outcome(query, report):
    if query[0] == "sweep":
        return {"verdicts": report["verdicts"], "probe": report["probe"]}
    doc = report["doc"]
    if query[1][0] == "classify":
        _agree("classify mismatches", doc["mismatches"], 0)
        return {"rc": report["rc"], "rows": doc["table"]["rows"]}
    _agree(f"{doc['suite']} passes", [doc["holds"], doc["violations"]], [True, []])
    return {"rc": report["rc"], "holds": doc["holds"], "instances_checked": doc["instances_checked"],
            "confirmations": doc["confirmations"], "violations": doc["violations"]}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import absorb

    env = child_env()
    out_dir = BENCH / "expected"
    out_dir.mkdir(exist_ok=True)
    for name, queries in WORKLOADS.items():
        expected = {}
        for query in queries:
            _setup, report = run_child({"query": list(query), "seed": 0, "spans": None}, env,
                                       time.monotonic() + 600, SRC)
            if report["replay_failures"]:
                raise Disagreement(f"witnesses do not replay: {report['replay_failures'][:5]}")
            if query[0] == "sweep":
                # the chunks hold disjoint modules; the first one holds the probe
                sweep = expected.setdefault("sweep", {"verdicts": {}, "probe": {}})
                for part, outcome in expected_outcome(query, report).items():
                    sweep[part].update(outcome)
            else:
                expected[query_name(query)] = expected_outcome(query, report)
        if "sweep" in expected:
            cross_check_sweep(absorb, expected["sweep"])
        for key, want in expected.items():
            if key.startswith("classify"):
                cross_check_classify(want["rows"])
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
