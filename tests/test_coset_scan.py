"""The coset-bucketed square-difference scan: which subsets are found to be
additive subgroups, bucketed against walked scans field by field, and the
pairs a bucketed scan tests, counted rather than timed."""
import pytest

from absorb.constructions import idealization_subset
from absorb.lattice import all_submodules
from absorb.modules import span, zero_submodule
from absorb.predicates import (
    RingSubset,
    _bit_rows,
    _is_additive_subgroup,
    _report,
    _sd_scan,
    is_sdf_absorbing_ideal,
    is_sdf_primary_ideal,
    setwise_sdf_primary,
)
from absorb.rings import IdealizationRing, make_zmod
from absorb.suites import default_family, idealization_family

from conftest import naive_sdf_ideal, naive_sdf_primary_ideal


def _rings():
    """Every ring of ``default_family()``, once each."""
    rings = {}
    for M in default_family():
        rings.setdefault(M.ring.signature, M.ring)
    return tuple(rings.values())


def _idealization_rings():
    """The idealization rings of ``default_family()``, Z6 x Z6 among them."""
    return [M.ring for M in idealization_family()]


def _products(A):
    """Every I x N of an idealization, as ``idealization_subset`` gives it."""
    for I in all_submodules(A.base.as_module).members:
        for N in all_submodules(A.module).members:
            yield idealization_subset(A, I, N)


def _is_subgroup_naive(S) -> bool:
    R = S.ring
    return S.contains(R.zero) and all(
        S.contains(R.sub(a, b)) for a in S.indices for b in S.indices)


def test_every_product_is_found_to_be_an_additive_subgroup():
    for A in _idealization_rings():
        for S, _ in _products(A):
            assert _is_subgroup_naive(S), (A.name, S.indices)
            assert _is_additive_subgroup(S), (A.name, S.indices)


def test_subgroup_test_agrees_with_the_oracle_off_subgroups():
    R = make_zmod(12)
    subsets = [RingSubset(R, [t for t in range(12) if m >> t & 1]) for m in range(1, 1 << 12, 7)]
    for I in all_submodules(R.as_module).members:
        subsets.append(RingSubset(R, [R.add(i, R.one) for i in I.indices]))
        subsets.append(RingSubset(R, I.indices + (R.one,)))
    for S in subsets:
        assert _is_additive_subgroup(S) == _is_subgroup_naive(S), S.indices


def _walked_setwise(S, nonzero_only):
    R = S.ring
    rows = _bit_rows(S.mask, R.order)
    return _report("sdfprimary", *_sd_scan(R, rows, 1, start=int(nonzero_only)), R)


@pytest.mark.parametrize("nonzero_only", [False, True])
def test_bucketed_setwise_scan_matches_the_walk_over_every_product(nonzero_only):
    checked = 0
    for A in _idealization_rings():
        for S, _ in _products(A):
            if not S.is_proper:
                continue
            rep = setwise_sdf_primary(S, nonzero_only=nonzero_only)
            assert rep == _walked_setwise(S, nonzero_only), (A.name, S.indices)
            assert rep.holds == naive_sdf_primary_ideal(S, nonzero_only), (A.name, S.indices)
            checked += 1
    assert checked > 40


def test_bucketed_ideal_scans_match_the_walk_over_every_ideal():
    for R in _rings():
        zero_row = _bit_rows(1 << R.zero, R.order)
        for I in all_submodules(R.as_module).proper:
            rows = _bit_rows(I.mask, R.order)
            walked = _report("sdfideal", *_sd_scan(R, rows, 1, start=1, ann=zero_row), R)
            rep = is_sdf_absorbing_ideal(I)
            assert rep == walked, (R.name, I.indices)
            assert rep.holds == naive_sdf_ideal(I), (R.name, I.indices)
            for nonzero_only in (False, True):
                walked = _report("sdfprimary", *_sd_scan(R, rows, 1, start=int(nonzero_only)), R)
                rep = is_sdf_primary_ideal(I, nonzero_only=nonzero_only)
                assert rep == walked, (R.name, I.indices, nonzero_only)
                bare = setwise_sdf_primary(RingSubset(R, I.indices), nonzero_only=nonzero_only)
                assert bare == walked, (R.name, I.indices, nonzero_only)
                assert rep.holds == naive_sdf_primary_ideal(I, nonzero_only), (
                    R.name, I.indices, nonzero_only)


def test_setwise_scan_of_2x0_in_z42_tests_few_pairs():
    R = make_zmod(42)
    A = IdealizationRing(R, R.as_module)
    S, _ = idealization_subset(A, span(R.as_module, [2]), zero_submodule(R.as_module))
    calls = 0
    sub = A.sub

    def counted(a, b):
        nonlocal calls
        calls += 1
        return sub(a, b)

    A.sub = counted
    rep = setwise_sdf_primary(S)
    assert calls < 60_000
    assert rep.holds
    assert rep.checked_count == 1764 * 1765 // 2 == 1_556_730
