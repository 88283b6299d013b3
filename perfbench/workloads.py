"""The benchmark's three workloads and the inputs each one sends to absorb.

A workload is a list of queries run in one pass.  A CLI query is one cold
``absorb`` command, run in a fresh interpreter the way a user runs it.  The
sweep calls the library to decide five properties on every proper submodule
of a list of modules; it is split into chunks, each a fresh interpreter, so
that the program and the reference copy take turns every second or two.

Only ``enumerate-sweep`` uses the seed: it shuffles the module order within
each chunk and the property order of each submodule.  Which chunk gets which
module is fixed, so that every run holds the same processes.  The other two
workloads are fixed commands and ignore the seed.
"""
from __future__ import annotations

import random

SWEEP_PROPS = ("gsdf", "sdf", "cprimary", "primary", "prime")

# Z_n for 2 <= n <= 120 are many small lattices with full positive scans;
# the five wide modules put the time into lattice joins and long scans.
SWEEP_WIDE = (
    "prod(prod(cyc(Zn(6),6),cyc(Zn(6),6)),cyc(Zn(6),6))",
    "prod(prod(cyc(Zn(3),3),cyc(Zn(3),3)),prod(cyc(Zn(3),3),cyc(Zn(3),3)))",
    "prod(prod(prod(cyc(Zn(2),2),cyc(Zn(2),2)),prod(cyc(Zn(2),2),cyc(Zn(2),2))),cyc(Zn(2),2))",
    "prod(prod(cyc(Zn(4),4),cyc(Zn(4),4)),cyc(Zn(4),4))",
    "self(prod(Zn(12),Zn(12)))",
)
SWEEP_SPECS = tuple(f"self(Zn({n}))" for n in range(2, 121)) + SWEEP_WIDE
SWEEP_CHUNKS = 8

# Ideal-level properties are replayed on the ideals of Z_n, n <= 30, after
# the timed phase, so that witnesses of all seven properties are replayed.
PROBE_PROPS = ("sdfideal", "sdfprimary")
PROBE_SPECS = tuple(f"self(Zn({n}))" for n in range(2, 31))

VERIFY_SUITES = ("restriction-quotient", "epimorphism", "idealization")
CLASSIFY = ["classify", "--max", "600", "--jobs", "1", "--format", "json"]

# name -> list of queries of one pass; a query is ("cli", argv) or ("sweep", chunk)
WORKLOADS = {
    "enumerate-sweep": [("sweep", k) for k in range(SWEEP_CHUNKS)],
    "verify-suites": [("cli", ["verify", "--suite", s, "--format", "json"])
                      for s in VERIFY_SUITES],
    "classify": [("cli", CLASSIFY)],
}


def query_name(query) -> str:
    return f"sweep {query[1]}" if query[0] == "sweep" else " ".join(query[1][:3])


def sweep_order(seed: int, chunk: int):
    """The modules of one chunk of a sweep in visiting order, and a generator
    of property orders, one per submodule in visiting order; both fixed by
    the seed."""
    rng = random.Random(seed * SWEEP_CHUNKS + chunk)
    specs = list(SWEEP_SPECS[chunk::SWEEP_CHUNKS])
    rng.shuffle(specs)

    def prop_orders():
        while True:
            props = list(SWEEP_PROPS)
            rng.shuffle(props)
            yield props

    return specs, prop_orders()
