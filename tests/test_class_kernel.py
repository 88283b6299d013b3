"""The associate-class kernel of gsdf, classical primary, prime and primary:
its unit classes against the naive associate relation, its reports against
the element-pair walks it replaced, and how many pairs it walks."""
import pytest
from conftest import SWEEP_WIDE, WALK_ORACLES

from absorb import predicates
from absorb.lattice import all_submodules
from absorb.modules import span, zero_submodule
from absorb.predicates import check_property, is_gsdf_absorbing
from absorb.rings import make_zmod, units
from absorb.specdsl import elaborate_module, parse_module_spec
from absorb.suites import default_family

# the rest of the benchmark's sweep modules are the self(Zn(n)) below
SWEEP = SWEEP_WIDE + tuple(f"self(Zn({n}))" for n in range(2, 121))
# rings without tables: Z_n finds its classes by gcd, the product its units
# among their powers
UNTABULATED = ("self(Zn(300))", "self(Zn(289))", "self(prod(Zn(18),Zn(16)))")


def _modules():
    return list(default_family()) + [elaborate_module(parse_module_spec(s)) for s in SWEEP]


def _rings():
    rings = {}
    for M in _modules() + [elaborate_module(parse_module_spec(s)) for s in UNTABULATED]:
        rings.setdefault(M.ring.signature, M.ring)
    return list(rings.values())


def naive_units(R):
    """{u : uw = 1 for some w}, from the products u w with u <= w."""
    n, mul, one = R.order, R.mul, R.one
    return {x for u in range(n) for w in range(u, n) if mul(u, w) == one for x in (u, w)}


def test_units_are_the_class_of_one():
    rings = {R.signature: R for R in (M.ring for M in default_family())}
    rings.update({("zmod", n): make_zmod(n) for n in range(2, 301)})
    for R in rings.values():
        want = naive_units(R)
        assert set(R.units_raw()) == want, R
        assert {u.index for u in units(R)} == want, R
        assert [R.is_unit(t) for t in range(R.order)] == [t in want for t in range(R.order)], R


def test_unit_classes_match_the_naive_associate_relation():
    for R in _rings():
        ids, reps, meets = R.unit_classes()
        us = naive_units(R)
        classes = {frozenset(R.mul(w, t) for w in us) for t in range(R.order)}
        assert sorted(reps) == list(reps) == sorted(min(c) for c in classes), R
        for c in classes:
            assert {ids[t] for t in c} == {reps.index(min(c))}, (R, sorted(c))
        occurs = [0] * len(reps)
        for u in range(R.order):
            for v in range(u + 1):
                occurs[ids[R.sub(u, v)]] |= 1 << ids[R.add(u, v)]
        assert list(meets) == occurs, R


@pytest.mark.parametrize("prop", sorted(WALK_ORACLES))
def test_reports_equal_the_element_pair_walks(prop):
    walk = WALK_ORACLES[prop]
    checked = 0
    for M in _modules():
        for N in all_submodules(M).proper:
            assert check_property(prop, N) == walk(N), (prop, M.name, N.indices)
            checked += 1
    Z300 = make_zmod(300).as_module
    assert Z300.act_t is None and make_zmod(300).mul_t is None
    for x in range(300):
        if x != 1 and (x == 0 or 300 % x == 0):  # every proper cyclic submodule of Z_300
            N = span(Z300, [x])
            assert check_property(prop, N) == walk(N), (prop, N.indices)
    N = zero_submodule(make_zmod(289).as_module)
    assert check_property(prop, N) == walk(N), prop
    P = elaborate_module(parse_module_spec(UNTABULATED[2]))
    assert P.ring.mul_t is None
    for N in [zero_submodule(P)] + [span(P, [x]) for x in (2, 5, 20, 40, 45, 60)]:
        assert N.is_proper and check_property(prop, N) == walk(N), (prop, N.indices)
    assert checked > 2900


def _spy_pairs(monkeypatch, R):
    """Count the element pairs a scan walks: it takes u - v once per pair."""
    R.unit_classes()
    walked = []
    sub = R.sub
    monkeypatch.setattr(R, "sub", lambda i, j: walked.append((i, j)) or sub(i, j))
    return walked


def test_gsdf_walks_no_pair_when_it_holds_and_none_past_its_witness(monkeypatch):
    # every submodule of (Z6)^3 is gsdf; 19 of the 35 of Z12 x Z12 are not
    specs = (SWEEP_WIDE[0], "self(prod(Zn(12),Zn(12)))")
    verdicts = []
    for M in [elaborate_module(parse_module_spec(s)) for s in specs]:
        n = M.ring.order
        for N in all_submodules(M).proper:
            walked = _spy_pairs(monkeypatch, M.ring)
            rep = is_gsdf_absorbing(N)
            verdicts.append(rep.holds)
            if rep.holds:
                assert walked == [] and rep.checked_count == n * (n + 1) // 2 * M.order
            else:
                u, v = rep.witness.u, rep.witness.v
                assert len(walked) == u * (u + 1) // 2 + v + 1
                assert rep.checked_count == len(walked) * M.order
            monkeypatch.undo()
    assert (verdicts.count(True), verdicts.count(False)) == (447 + 16, 19)


def test_zero_in_z289_holds_without_a_walk(monkeypatch):
    M = make_zmod(289).as_module
    walked = _spy_pairs(monkeypatch, M.ring)
    rep = is_gsdf_absorbing(zero_submodule(M))
    assert rep.holds and rep.checked_count == 289 * 290 // 2 * 289
    assert walked == []


def test_class_rows_stop_at_the_witness_on_a_ring_with_one_unit(monkeypatch):
    # (Z2)^6: 1 is its only unit, so each of its 64 elements is a class, and
    # 2R = 0, so a class pair occurs as ([u - v], [u + v]) only as (A, A)
    spec = "Zn(2)"
    for _ in range(5):
        spec = f"prod(Zn(2),{spec})"
    M = elaborate_module(parse_module_spec(f"self({spec})"))
    R = M.ring
    ids, reps, meets = R.unit_classes()
    assert len(reps) == R.order == 64 and list(meets) == [1 << A for A in range(64)]
    for t in range(R.order):
        R.power_orbit_raw(t)
    products = []
    mul = R.mul
    holds = 0
    for N in all_submodules(M).proper:
        M.scalar_hit_masks(N.mask)
        monkeypatch.setattr(R, "mul", lambda i, j: products.append((i, j)) or mul(i, j))
        rep = check_property("cprimary", N)
        rows = ids[rep.witness.u] + 1 if rep.witness else len(reps)
        assert len(products) <= rows * len(reps), N.indices
        products.clear()
        holds += check_property("gsdf", N).holds
        assert len(products) <= len(reps), N.indices
        products.clear()
        monkeypatch.undo()
    assert holds == 63


def test_sdf_scans_only_when_an_occurring_class_pair_fails(monkeypatch):
    # a negative verdict always comes from the element-pair scan; every
    # submodule of (Z6)^3 is sdf, each decided by its class pairs alone
    scans = []
    scan = predicates._sd_scan
    monkeypatch.setattr(predicates, "_sd_scan", lambda *a, **k: scans.append(a) or scan(*a, **k))
    wide = elaborate_module(parse_module_spec(SWEEP_WIDE[0])).signature
    held = skipped = 0
    for M in _modules():
        n = M.ring.order
        for N in all_submodules(M).proper:
            scans.clear()
            rep = check_property("sdf", N)
            assert len(scans) == 1 or rep.holds and not scans, (M.name, N.indices)
            if rep.holds:
                held += 1
                skipped += not scans
                assert rep.checked_count == n * (n + 1) // 2 * M.order
            if M.signature == wide:
                assert rep.holds and not scans, N.indices
    assert held > skipped > 1000


def test_classical_primary_implies_gsdf_and_equals_it_when_two_is_a_unit():
    equal = 0
    for M in _modules():
        two = M.ring.add(M.ring.one, M.ring.one)
        for N in all_submodules(M).proper:
            g, c = check_property("gsdf", N).holds, check_property("cprimary", N).holds
            assert g or not c, (M.name, N.indices)
            if M.ring.is_unit(two):
                assert g == c, (M.name, N.indices)
                equal += 1
    assert equal > 400
