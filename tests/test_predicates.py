"""Predicate layer: optimized bitmask scanners against independent naive
triple-loop oracles, plus frozen single-instance verdicts and witnesses."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorb.errors import InvalidConstructionError, NotProperError
from absorb.lattice import all_submodules
from absorb.modules import CyclicModule, ProductModule, m_radical, span, zero_submodule
from absorb.predicates import (
    PROPERTY_CHECKS,
    RingSubset,
    check_property,
    is_classical_primary,
    is_gsdf_absorbing,
    is_sdf_absorbing,
    is_sdf_absorbing_ideal,
    is_sdf_primary_ideal,
    replay_witness,
    setwise_sdf_primary,
)
from absorb.rings import IdealizationRing, make_zmod
from absorb.suites import default_family

from conftest import NAIVE_ORACLES, is_closed_ideal

MODULE_PROPS = ("gsdf", "sdf", "cprimary", "prime", "primary")
IDEAL_PROPS = ("sdfideal", "sdfprimary")


def _oracle_modules():
    for n in (4, 6, 8, 9, 12, 15, 16, 21):
        yield make_zmod(n).as_module
    R = make_zmod(6)
    yield ProductModule(CyclicModule(R, 2), CyclicModule(R, 3))
    R = make_zmod(12)
    yield ProductModule(CyclicModule(R, 4), CyclicModule(R, 3))
    yield IdealizationRing(make_zmod(3), make_zmod(3).as_module).as_module


@pytest.mark.parametrize("prop", MODULE_PROPS)
def test_scanner_matches_naive_oracle(prop):
    oracle = NAIVE_ORACLES[prop]
    for M in _oracle_modules():
        for N in all_submodules(M).proper:
            assert check_property(prop, N).holds == oracle(N), (prop, M.name, N.indices)


@pytest.mark.parametrize("prop", IDEAL_PROPS)
def test_ideal_scanner_matches_naive_oracle(prop):
    oracle = NAIVE_ORACLES[prop]
    for n in (4, 6, 8, 9, 12, 16, 20, 21, 24):
        M = make_zmod(n).as_module
        for I in all_submodules(M).proper:
            assert check_property(prop, I).holds == oracle(I), (prop, n, I.indices)


def test_sdf_primary_nonzero_variant_matches_oracle():
    oracle = NAIVE_ORACLES["sdfprimary"]
    for n in (4, 6, 8, 9, 12, 16, 21, 24):
        M = make_zmod(n).as_module
        for I in all_submodules(M).proper:
            got = is_sdf_primary_ideal(I, nonzero_only=True).holds
            assert got == oracle(I, nonzero_only=True), (n, I.indices)


def test_default_sdf_primary_implies_nonzero_variant():
    # the default quantifies over more pairs, so it is the stronger condition
    for n in range(2, 30):
        M = make_zmod(n).as_module
        for I in all_submodules(M).proper:
            if is_sdf_primary_ideal(I).holds:
                assert is_sdf_primary_ideal(I, nonzero_only=True).holds


def test_six_in_z12_gsdf_but_not_classical_primary():
    M = make_zmod(12).as_module
    N = span(M, [6])
    assert is_gsdf_absorbing(N).holds
    rep = is_classical_primary(N)
    assert not rep.holds
    assert rep.witness.as_tuple() == (2, 3, 1)
    # replay: 2*3*1 = 6 in N, 2*1 = 2 not in N, 3^k stays in {3, 9} mod 12
    assert replay_witness("cprimary", N, 2, 3, 1)


def test_zero_in_z8_gsdf_but_not_sdf():
    M = make_zmod(8).as_module
    N = zero_submodule(M)
    assert is_gsdf_absorbing(N).holds
    rep = is_sdf_absorbing(N)
    assert not rep.holds
    assert rep.witness.as_tuple() == (3, 1, 1)
    assert replay_witness("sdf", N, 3, 1, 1)


def test_zero_in_z21_witnesses():
    M = make_zmod(21).as_module
    N = zero_submodule(M)
    rep = is_gsdf_absorbing(N)
    assert not rep.holds
    assert rep.witness.as_tuple() == (5, 2, 1)
    # (5, 2, 2) is an equally valid violation and must replay
    assert replay_witness("gsdf", N, 5, 2, 2)
    assert replay_witness("gsdf", N, 5, 2, 1)


def test_replay_rejects_non_witnesses():
    M = make_zmod(12).as_module
    N = span(M, [6])
    assert not replay_witness("gsdf", N, 1, 0, 1)  # no violation there


def test_improper_submodule_rejected():
    M = make_zmod(6).as_module
    full = span(M, [1])
    for prop in PROPERTY_CHECKS:
        with pytest.raises(NotProperError):
            check_property(prop, full)


def test_prime_implies_primary_implies_cprimary_implies_gsdf():
    for n in range(2, 40):
        M = make_zmod(n).as_module
        for N in all_submodules(M).proper:
            prime = check_property("prime", N).holds
            primary = check_property("primary", N).holds
            cprim = check_property("cprimary", N).holds
            gsdf = check_property("gsdf", N).holds
            sdf = check_property("sdf", N).holds
            assert not prime or primary
            assert not primary or cprim
            assert not cprim or gsdf
            assert not sdf or gsdf


def test_setwise_sdf_primary_on_actual_ideal_agrees_with_ideal_check():
    M = make_zmod(12).as_module
    for I in all_submodules(M).proper:
        S = RingSubset(M.ring, I.indices)
        assert is_closed_ideal(S)
        assert setwise_sdf_primary(S).holds == is_sdf_primary_ideal(I).holds


def test_setwise_on_non_ideal_subset():
    R = make_zmod(6)
    S = RingSubset(R, [0, 1])  # contains 1, not an ideal
    assert not is_closed_ideal(S)


@pytest.mark.parametrize("indices", [[0, 3, 7], [0, -1], [6], [2, 10**9]])
def test_ring_subset_refuses_an_index_outside_the_ring(indices):
    with pytest.raises(InvalidConstructionError, match="is not an element of Z6"):
        RingSubset(make_zmod(6), indices)


@given(st.integers(min_value=2, max_value=30), st.data())
@settings(max_examples=40, deadline=None)
def test_gsdf_matches_oracle_on_random_cyclic_submodules(n, data):
    M = make_zmod(n).as_module
    g = data.draw(st.integers(0, n - 1))
    N = span(M, [g])
    if not N.is_proper:
        return
    assert is_gsdf_absorbing(N).holds == NAIVE_ORACLES["gsdf"](N)


def test_witness_replays_whenever_scanner_fails():
    for M in _oracle_modules():
        for N in all_submodules(M).proper:
            for prop in ("gsdf", "sdf", "cprimary"):
                rep = check_property(prop, N)
                if not rep.holds:
                    w = rep.witness
                    assert replay_witness(prop, N, w.u, w.v, w.x), (prop, M.name)


def test_prime_and_primary_witnesses_replay_in_z12():
    M = make_zmod(12).as_module
    cases = [
        ("prime", 0, (2, 0, 6)),
        ("primary", 0, (2, 0, 6)),
        ("prime", 6, (2, 0, 3)),
        ("primary", 6, (2, 0, 3)),
        ("prime", 4, (2, 0, 2)),
    ]
    for prop, g, witness in cases:
        N = span(M, [g])
        assert check_property(prop, N).witness.as_tuple() == witness
        assert replay_witness(prop, N, *witness), (prop, g)
        # u = 1 never violates: u.x in N already puts x in N
        assert not any(replay_witness(prop, N, 1, 0, x) for x in range(12))
    # (4) is primary (sqrt((4) : Z_12) = (2)), so the 2 of the prime witness
    # is in the radical and does not replay as a primary violation
    assert check_property("primary", span(M, [4])).holds
    assert not replay_witness("primary", span(M, [4]), 2, 0, 2)


@pytest.mark.parametrize("prop", MODULE_PROPS)
def test_every_negative_report_replays_over_default_family(prop):
    for M in default_family():
        for N in all_submodules(M).proper:
            rep = check_property(prop, N)
            if not rep.holds:
                w = rep.witness
                assert replay_witness(prop, N, w.u, w.v, w.x), (prop, M.name, N.indices)


@pytest.mark.parametrize("prop", IDEAL_PROPS)
def test_every_negative_ideal_report_replays_zn_up_to_30(prop):
    for n in range(2, 31):
        for I in all_submodules(make_zmod(n).as_module).proper:
            rep = check_property(prop, I)
            if not rep.holds:
                w = rep.witness
                assert replay_witness(prop, I, w.u, w.v), (prop, n, I.indices)


def test_m_radical_is_the_intersection_of_the_primes_over_n():
    for n in range(2, 31):
        M = make_zmod(n).as_module
        lattice = all_submodules(M)
        primes = [Q for Q in lattice.proper if NAIVE_ORACLES["prime"](Q)]
        for N in lattice.proper:
            want = (1 << n) - 1
            for Q in primes:
                if N <= Q:
                    want &= Q.mask
            assert m_radical(N).mask == want, (n, N.indices)
    M = make_zmod(12).as_module
    for g, radical_gen in ((0, 6), (4, 2), (3, 3)):
        assert m_radical(span(M, [g])) == span(M, [radical_gen])
