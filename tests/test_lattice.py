"""Lattice layer: submodule enumeration against a power-set brute force,
multiplicative-set enumeration, decompositions, counterexample search."""
import math
import random

import pytest
from conftest import SWEEP_WIDE

from absorb.constructions import MultiplicativeSet
from absorb.errors import SizeBoundError
from absorb.lattice import (
    all_ideals,
    all_multiplicative_sets,
    all_submodules,
    decomposition_check,
    search_counterexample,
)
from absorb.modules import CyclicModule, ProductModule, indices_of, span
from absorb.rings import IdealizationRing, ProductRing, make_zmod
from absorb.specdsl import elaborate_module, parse_module_spec


def _brute_force_submodules(M):
    """All subsets closed under +, -, and the action; |M| <= 16 only."""
    n = M.order
    found = set()
    for bits in range(1 << n):
        if not (bits >> M.zero) & 1:
            continue
        members = [x for x in range(n) if (bits >> x) & 1]
        ok = all(
            (bits >> M.add(x, y)) & 1 for x in members for y in members
        ) and all((bits >> M.act(r, x)) & 1 for r in range(M.ring.order) for x in members)
        if ok:
            found.add(bits)
    return found


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 16])
def test_all_submodules_matches_power_set_brute_force_zn(n):
    M = make_zmod(n).as_module
    got = {N.mask for N in all_submodules(M).members}
    assert got == _brute_force_submodules(M)


def test_all_submodules_matches_brute_force_product():
    R = make_zmod(6)
    M = ProductModule(CyclicModule(R, 2), CyclicModule(R, 3))
    assert {N.mask for N in all_submodules(M).members} == _brute_force_submodules(M)


def test_all_submodules_matches_brute_force_idealization():
    A = IdealizationRing(make_zmod(2), make_zmod(2).as_module)
    M = A.as_module
    assert {N.mask for N in all_submodules(M).members} == _brute_force_submodules(M)


def _pairwise_join_masks(M):
    """Close the cyclic submodules under join-with-a-cyclic, forming each
    join as the sum of every element of one side with every element of the
    other."""
    cyclic = set()
    for x in range(M.order):
        orbit = 0
        for r in range(M.ring.order):
            orbit |= 1 << M.act(r, x)
        cyclic.add(orbit)
    seen = set(cyclic)
    frontier = list(cyclic)
    while frontier:
        base = frontier.pop()
        for c in cyclic:
            if c & ~base == 0:
                continue
            joined = 0
            for i in indices_of(base):
                for j in indices_of(c):
                    joined |= 1 << M.add(i, j)
            if joined not in seen:
                seen.add(joined)
                frontier.append(joined)
    return seen


@pytest.mark.parametrize("spec", SWEEP_WIDE)
def test_all_submodules_matches_pairwise_joins_on_wide_modules(spec):
    M = elaborate_module(parse_module_spec(spec))
    assert {N.mask for N in all_submodules(M).members} == _pairwise_join_masks(M)


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("n", [2, 7, 12, 24, 36, 60])
def test_zn_submodule_count_is_divisor_count(n):
    M = make_zmod(n).as_module
    assert len(all_submodules(M).members) == _divisor_count(n)


def test_size_bound_enforced():
    # fresh module instance so no previously cached lattice can answer
    M = CyclicModule(make_zmod(12), 12)
    with pytest.raises(SizeBoundError):
        all_submodules(M, bound=3)


def test_all_ideals_is_submodules_of_self_module():
    R = make_zmod(18)
    assert {I.mask for I in all_ideals(R).members} == {
        N.mask for N in all_submodules(R.as_module).members
    }


def test_proper_excludes_full():
    M = make_zmod(12).as_module
    lat = all_submodules(M)
    full_mask = (1 << 12) - 1
    assert all(N.mask != full_mask for N in lat.proper)
    assert len(lat.proper) == len(lat.members) - 1


def test_maximal_members():
    M = make_zmod(12).as_module
    lat = all_submodules(M)
    maximal = {N.indices for N in lat.maximal_members()}
    assert maximal == {tuple(range(0, 12, 2)), tuple(range(0, 12, 3))}


def test_all_multiplicative_sets_are_closed_and_contain_one():
    R = make_zmod(12)
    sets = all_multiplicative_sets(R)
    seen = set()
    for S in sets:
        assert 1 in S.indices
        for a in S.indices:
            for b in S.indices:
                assert R.mul(a, b) in S.indices
        assert S.indices not in seen
        seen.add(S.indices)
    # every closed subset containing 1 appears
    brute = set()
    for bits in range(1 << 12):
        if not (bits >> 1) & 1:
            continue
        members = [a for a in range(12) if (bits >> a) & 1]
        if all((bits >> R.mul(a, b)) & 1 for a in members for b in members):
            brute.add(tuple(members))
    assert seen == brute


def _naive_multiplicative_closure(R, gens) -> tuple:
    """1 and the generators, closed under products one pair at a time."""
    seen = {R.one, *gens}
    frontier = list(seen)
    while frontier:
        a = frontier.pop()
        for b in list(seen):
            if R.mul(a, b) not in seen:
                seen.add(R.mul(a, b))
                frontier.append(R.mul(a, b))
    return tuple(sorted(seen))


def test_multiplicative_sets_fold_in_generators_like_the_pairwise_closure():
    rng = random.Random(24)
    Z4 = make_zmod(4)
    rings = [make_zmod(24), ProductRing(Z4, make_zmod(6)), IdealizationRing(Z4, Z4.as_module)]
    for R in rings:
        for _ in range(200):
            gens = [rng.randrange(R.order) for _ in range(rng.randrange(4))]
            assert MultiplicativeSet(R, gens).indices == _naive_multiplicative_closure(R, gens)
    sets = all_multiplicative_sets(make_zmod(24))
    assert len(sets) == 1550
    assert [S.indices for S in sets] == sorted(S.indices for S in sets)
    for S in sets:
        assert _naive_multiplicative_closure(S.ring, S.indices) == S.indices


def test_decomposition_z24():
    M = make_zmod(24).as_module
    rep = decomposition_check(span(M, [12]))
    assert rep.holds
    factor_sets = {frozenset(f.indices) for f in rep.factors}
    assert frozenset(range(0, 24, 3)) in factor_sets or frozenset(range(0, 24, 4)) in factor_sets
    inter = (1 << 24) - 1
    for f in rep.factors:
        inter &= f.mask
    assert inter == span(M, [12]).mask


def test_decomposition_every_proper_submodule_of_z30():
    M = make_zmod(30).as_module
    for N in all_submodules(M).proper:
        assert decomposition_check(N).holds


def test_search_counterexample_finds_z21():
    mods = [make_zmod(n).as_module for n in (7, 9, 21)]
    hit = search_counterexample("gsdf", mods)
    assert hit is not None
    assert hit.module.ring.order == 21
    assert not hit.report.holds
    assert hit.report.witness.as_tuple() == (5, 2, 1)
    # and nothing in the family satisfies prime = False + gsdf = True filter
    assert search_counterexample("gsdf", [make_zmod(7).as_module]) is None
