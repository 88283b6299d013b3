"""The coset buckets of the element-pair walk, which decides the set-wise
sdf-primary condition and the failing ideal checks: which subsets are found
to be additive subgroups, the bucketed walk against the unbucketed one
field by field, and the pairs a bucketed walk tests, counted rather than
timed."""
import pytest

from absorb import predicates
from absorb.constructions import idealization_subset
from absorb.lattice import all_submodules
from absorb.modules import span, zero_submodule
from absorb.predicates import (
    RingSubset,
    _is_additive_subgroup,
    is_sdf_primary_ideal,
    setwise_sdf_primary,
)
from absorb.rings import IdealizationRing, make_zmod
from absorb.suites import idealization_family

from conftest import naive_sdf_primary_ideal, walk_sdf_primary


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


@pytest.mark.parametrize("nonzero_only", [False, True])
def test_bucketed_setwise_scan_matches_the_walk_over_every_product(monkeypatch, nonzero_only):
    """Every proper I x N is an additive subgroup, so its walk is bucketed;
    with the subgroup test made to say no, the same subset walks every pair
    u >= v.  Both reports equal the walk oracle's, and the verdict the
    naive oracle's."""
    subsets = [S for A in _idealization_rings() for S, _ in _products(A) if S.is_proper]
    bucketed = [setwise_sdf_primary(S, nonzero_only=nonzero_only) for S in subsets]
    monkeypatch.setattr(predicates, "_is_additive_subgroup", lambda S: False)
    for S, rep in zip(subsets, bucketed):
        assert rep == setwise_sdf_primary(S, nonzero_only=nonzero_only), S.indices
        assert rep == walk_sdf_primary(S, nonzero_only), S.indices
        assert rep.holds == naive_sdf_primary_ideal(S, nonzero_only), S.indices
    assert len(subsets) > 40


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


def test_a_failing_ideal_check_walks_only_its_buckets(monkeypatch):
    # (0) in Z_2500: the witness (1251, 1) is pair 783,128 of the u >= v
    # order, and the walk reaches it through the u^2 buckets alone
    R = make_zmod(2500)
    calls = []
    sub = R.sub
    monkeypatch.setattr(R, "sub", lambda a, b: calls.append((a, b)) or sub(a, b))
    rep = is_sdf_primary_ideal(zero_submodule(R.as_module))
    assert rep.witness.as_tuple() == (1251, 1) and rep.checked_count == 783_128
    assert len(calls) < 5_000
