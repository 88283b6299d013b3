"""Module layer: axioms, submodule arithmetic, colon/annihilator/radical.

RingAsModule trusts the verified ring operations at construction time, so the
first tests here re-verify the module axioms exhaustively and independently.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorb.errors import CrossStructureError, InvalidConstructionError, NotProperError
from absorb.modules import (
    CyclicModule,
    ModuleHom,
    ProductModule,
    QuotientModule,
    RingAsModule,
    annihilator,
    colon_ideal,
    colon_ideal_global,
    colon_submodule,
    cyclic_submodule,
    full_submodule,
    identity_module_hom,
    intersect_submodules,
    radical,
    span,
    sum_submodules,
    zero_submodule,
)
from absorb.rings import make_zmod


def _exhaustive_module_axioms(M):
    R = M.ring
    for r in range(R.order):
        for s in range(R.order):
            for x in range(M.order):
                assert M.act(R.add(r, s), x) == M.add(M.act(r, x), M.act(s, x))
                assert M.act(R.mul(r, s), x) == M.act(r, M.act(s, x))
    for r in range(R.order):
        for x in range(M.order):
            for y in range(M.order):
                assert M.act(r, M.add(x, y)) == M.add(M.act(r, x), M.act(r, y))
    for x in range(M.order):
        assert M.act(R.one, x) == x
        assert M.add(x, M.neg(x)) == M.zero
        for y in range(M.order):
            assert M.add(x, y) == M.add(y, x)


def test_ring_as_module_axioms_exhaustive_z12():
    _exhaustive_module_axioms(make_zmod(12).as_module)


def test_cyclic_module_axioms_exhaustive():
    _exhaustive_module_axioms(CyclicModule(make_zmod(12), 4))


def test_product_module_axioms_exhaustive():
    R = make_zmod(6)
    _exhaustive_module_axioms(ProductModule(CyclicModule(R, 2), CyclicModule(R, 3)))


def test_cyclic_module_requires_divisor():
    with pytest.raises(InvalidConstructionError):
        CyclicModule(make_zmod(12), 5)


def test_span_of_6_in_z12():
    M = make_zmod(12).as_module
    assert span(M, [6]).indices == (0, 6)


def test_span_closure_property():
    M = make_zmod(24).as_module
    N = span(M, [8, 12])
    members = set(N.indices)
    for x in members:
        for y in members:
            assert M.add(x, y) in members
        for r in range(24):
            assert M.act(r, x) in members
    assert members == {0, 4, 8, 12, 16, 20}


def test_cyclic_submodule_matches_span():
    M = make_zmod(18).as_module
    for x in range(18):
        assert cyclic_submodule(M, x).mask == span(M, [x]).mask


def test_colon_ideal_and_annihilator():
    M = make_zmod(12).as_module
    N = span(M, [6])
    # (N : 3) = scalars r with 3r in {0, 6} = even scalars
    assert colon_ideal(N, 3).indices == (0, 2, 4, 6, 8, 10)
    # Ann(4) in Z_12 = multiples of 3
    from absorb.modules import ModElt

    assert annihilator(ModElt(M, 4)).indices == (0, 3, 6, 9)


def test_colon_submodule():
    M = make_zmod(12).as_module
    N = span(M, [6])
    # (N :_M 2) = {x : 2x in {0,6}} = {0, 3, 6, 9}
    assert colon_submodule(N, 2).indices == (0, 3, 6, 9)


def test_colon_ideal_global():
    M = make_zmod(12).as_module
    N = span(M, [4])
    # r Z_12 <= (4) iff r is a multiple of 4
    assert colon_ideal_global(N).indices == (0, 4, 8)


def test_radical():
    R = make_zmod(12)
    I = span(R.as_module, [4])
    assert radical(I).indices == (0, 2, 4, 6, 8, 10)
    assert radical(span(R.as_module, [0])).indices == (0, 6)


def test_sum_and_intersection():
    M = make_zmod(24).as_module
    A = span(M, [8])
    B = span(M, [12])
    assert sum_submodules(A, B).indices == (0, 4, 8, 12, 16, 20)
    assert intersect_submodules(A, B).indices == (0,)
    C = span(M, [4])
    assert intersect_submodules(span(M, [6]), C).indices == (0, 12)


def test_zero_and_full_and_proper():
    M = make_zmod(10).as_module
    z = zero_submodule(M)
    f = full_submodule(M)
    assert z.indices == (0,) and f.mask == (1 << 10) - 1
    assert z.is_proper and not f.is_proper
    with pytest.raises(NotProperError):
        f.require_proper()


def test_submodule_ordering_by_mask():
    M = make_zmod(12).as_module
    assert span(M, [6]) <= span(M, [2])
    assert not (span(M, [2]) <= span(M, [6]))


def test_cross_module_operations_rejected():
    A = make_zmod(12).as_module
    B = make_zmod(10).as_module
    with pytest.raises(CrossStructureError):
        sum_submodules(span(A, [6]), span(B, [5]))


def test_quotient_module_cosets():
    M = make_zmod(12).as_module
    Q = QuotientModule(M, span(M, [6]))
    assert Q.order == 6
    for x in range(12):
        for y in range(12):
            assert Q.add(Q.project(x), Q.project(y)) == Q.project(M.add(x, y))
        for r in range(12):
            assert Q.act(r, Q.project(x)) == Q.project(M.act(r, x))


def test_scalar_hit_masks_definition():
    M = make_zmod(12).as_module
    # submodule masks and two plain subsets: more targets than the row cache
    # holds, interleaved so that some revisits hit it and some were evicted
    targets = [span(M, [g]).mask for g in (4, 6, 3, 2, 0)] + [0b100101, 1 << 11]
    for k in (0, 1, 0, 2, 3, 4, 5, 0, 6, 1, 5, 2, 2, 6, 3, 0, 4, 1):
        target = targets[k]
        hit = M.scalar_hit_masks(target)
        assert isinstance(hit, tuple)
        for t in range(12):
            expect = 0
            for x in range(12):
                if (target >> M.act(t, x)) & 1:
                    expect |= 1 << x
            assert hit[t] == expect, (k, t)
    assert M.scalar_hit_masks(targets[3]) is M.scalar_hit_masks(targets[3])


def test_module_hom_kernel_image():
    M = make_zmod(12).as_module
    table = [(2 * x) % 12 for x in range(12)]
    f = ModuleHom(M, M, table)
    assert f.kernel().indices == (0, 6)
    assert f.image_submodule(full_submodule(M)).indices == (0, 2, 4, 6, 8, 10)
    assert not f.is_surjective()
    assert identity_module_hom(M).is_surjective()
    with pytest.raises(InvalidConstructionError):
        ModuleHom(M, M, [(x + 1) % 12 for x in range(12)])  # not additive at 0


def test_module_hom_preimage():
    M = make_zmod(12).as_module
    f = ModuleHom(M, M, [(3 * x) % 12 for x in range(12)])
    pre = f.preimage_submodule(span(M, [6]))
    assert pre.indices == (0, 2, 4, 6, 8, 10)


@given(st.integers(min_value=2, max_value=40), st.data())
@settings(max_examples=60, deadline=None)
def test_span_is_smallest_closed_superset(n, data):
    M = make_zmod(n).as_module
    gens = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    N = span(M, gens)
    members = set(N.indices)
    assert set(gens) <= members and 0 in members
    for x in members:
        for r in range(n):
            assert M.act(r, x) in members
        for y in members:
            assert M.add(x, y) in members
    # minimality for cyclic Z_n: the span of g's is generated by gcd
    import math

    g = math.gcd(n, *gens) if gens else n
    assert members == {x for x in range(n) if x % g == 0 or g == 0}
