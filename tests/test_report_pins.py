"""Every field of every report, pinned: ``holds``, the witness (u, v, x),
``k_bound``, ``text`` and ``checked_count`` of all seven property checks and
of ``setwise_sdf_primary``, over ``default_family()`` and (Z6)^3.

The digest was recorded from the scanners before they shared one scan core;
any change to which witness is found first, how it is described, or how many
pairs a scan visits changes it.  The spot values below make a mismatch
readable."""
import hashlib

import pytest

from absorb.constructions import idealization_subset
from absorb.lattice import all_submodules
from absorb.modules import ProductModule, span, zero_submodule
from absorb.predicates import (
    RingSubset,
    check_property,
    is_sdf_primary_ideal,
    setwise_sdf_primary,
)
from absorb.rings import IdealizationRing, make_zmod
from absorb.suites import default_family

MODULE_PROPS = ("gsdf", "sdf", "cprimary", "primary", "prime")

PINNED_DIGEST = (12306, "b59fffbfe7f4fe69665f43b7a4bc7abbb93735d50317400be87cc6b36cb601f1")


def _fields(rep):
    w = rep.witness
    if w is None:
        return f"{rep.property}|{rep.holds}|-|{rep.checked_count}"
    return (f"{rep.property}|{rep.holds}|{w.u},{w.v},{w.x}|{w.k_bound}|{w.text!r}"
            f"|{rep.checked_count}")


def _setwise_subsets(R):
    """Every ideal as a bare subset, each ideal with 1 added when that stays
    proper, and for an idealization every I x N (mostly not ideals)."""
    ideals = all_submodules(R.as_module).proper
    subsets = [RingSubset(R, I.indices) for I in ideals]
    subsets += [RingSubset(R, I.indices + (R.one,)) for I in ideals
                if len(set(I.indices + (R.one,))) < R.order]
    if isinstance(R, IdealizationRing):
        base = all_submodules(R.base.as_module).members
        sub = all_submodules(R.module).members
        for I in base:
            for N in sub:
                S, _ = idealization_subset(R, I, N)
                if S.is_proper:
                    subsets.append(S)
    return subsets


def _report_lines():
    Z6 = make_zmod(6).as_module
    modules = list(default_family()) + [ProductModule(ProductModule(Z6, Z6), Z6)]
    rings = {}
    for M in modules:
        rings.setdefault(M.ring.signature, M.ring)
        for N in all_submodules(M).proper:
            for prop in MODULE_PROPS:
                yield f"{M.name}|{N.mask:x}|{_fields(check_property(prop, N))}"
    for R in rings.values():
        for I in all_submodules(R.as_module).proper:
            where = f"{R.name}|{I.mask:x}"
            yield f"{where}|{_fields(check_property('sdfideal', I))}"
            yield f"{where}|{_fields(check_property('sdfprimary', I))}"
            yield f"{where}|nz|{_fields(is_sdf_primary_ideal(I, nonzero_only=True))}"
        for S in _setwise_subsets(R):
            where = f"{R.name}|set|{S.mask:x}"
            yield f"{where}|{_fields(setwise_sdf_primary(S))}"
            yield f"{where}|nz|{_fields(setwise_sdf_primary(S, nonzero_only=True))}"


def test_every_report_field_matches_the_pinned_digest():
    lines = list(_report_lines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == PINNED_DIGEST


def _setwise_3x2_in_z6(**kw):
    R = make_zmod(6)
    A = IdealizationRing(R, R.as_module)
    S, _ = idealization_subset(A, span(R.as_module, [3]), span(R.as_module, [2]))
    return setwise_sdf_primary(S, **kw)


Z8, Z12, Z21 = (make_zmod(n).as_module for n in (8, 12, 21))

SPOT_VALUES = [
    (lambda: check_property("gsdf", zero_submodule(Z21)),
     "gsdf|False|5,2,1|1|'u=5, v=2, x=1'|378"),
    (lambda: check_property("gsdf", span(Z12, [6])), "gsdf|True|-|936"),
    (lambda: check_property("sdf", zero_submodule(Z8)), "sdf|False|3,1,1|1|'u=3, v=1, x=1'|64"),
    (lambda: check_property("cprimary", span(Z12, [6])),
     "cprimary|False|2,3,1|2|'u=2, v=3, x=1'|336"),
    (lambda: check_property("primary", zero_submodule(Z12)),
     "primary|False|2,0,6|None|'u=2, x=6'|36"),
    (lambda: check_property("prime", span(Z12, [4])), "prime|False|2,0,2|None|'u=2, x=2'|36"),
    (lambda: check_property("prime", span(Z12, [3])), "prime|True|-|144"),
    (lambda: check_property("sdfideal", zero_submodule(Z12)),
     "sdfideal|False|4,2,None|1|'u=4, v=2'|8"),
    (lambda: check_property("sdfprimary", zero_submodule(Z12)),
     "sdfprimary|False|7,1,None|2|'u=7, v=1'|30"),
    (lambda: is_sdf_primary_ideal(zero_submodule(Z12), nonzero_only=True),
     "sdfprimary|False|7,1,None|2|'u=7, v=1'|22"),
    (_setwise_3x2_in_z6, "sdfprimary|False|7,6,None|7|'u=(1,1), v=(1,0)'|35"),
    (lambda: _setwise_3x2_in_z6(nonzero_only=True),
     "sdfprimary|False|7,6,None|7|'u=(1,1), v=(1,0)'|27"),
]


@pytest.mark.parametrize("case", range(len(SPOT_VALUES)))
def test_spot_report_fields(case):
    make, want = SPOT_VALUES[case]
    assert _fields(make()) == want
