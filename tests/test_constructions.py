"""Constructions: quotients, products, localizations, idealizations,
amalgamations, and how submodules transport through them."""
import pytest

from absorb.constructions import (
    MultiplicativeSet,
    amalgamated_module,
    amalgamation_ring,
    idealization_ideal,
    idealization_ring,
    idealization_subset,
    localize_module,
    localize_ring,
    localize_submodule,
    product_module,
    product_submodule,
    quotient_ideal,
    quotient_module,
    quotient_submodule,
    restrict_scalars,
    saturate,
)
from absorb.errors import DegenerateLocalizationError, InvalidConstructionError
from absorb.lattice import all_submodules
from absorb.modules import CyclicModule, ModuleHom, span, zero_submodule
from absorb.predicates import check_property, is_gsdf_absorbing
from absorb.rings import ProductRing, make_zmod, reduction_hom


def test_quotient_module_and_projection():
    M = make_zmod(24).as_module
    K = span(M, [12])
    Q, proj = quotient_module(M, K)
    assert Q.order == 12
    assert proj.kernel().mask == K.mask
    assert proj.is_surjective()


def test_quotient_submodule_transport():
    M = make_zmod(24).as_module
    K = span(M, [12])
    N = span(M, [4])  # contains K
    Q, proj = quotient_module(M, K)
    NQ = quotient_submodule(N, K)
    assert set(NQ.indices) == {proj.table[x] for x in N.indices}
    assert len(NQ.indices) == 3


def test_quotient_ideal():
    R = make_zmod(24)
    I = span(R.as_module, [12])
    J = span(R.as_module, [6])
    JQ = quotient_ideal(J, I)  # (6)/(12) inside Z24/(12)
    assert JQ.module.ring.order == 12 and len(JQ.indices) == 2


def test_product_module_and_submodule():
    R = make_zmod(6)
    A = CyclicModule(R, 2)
    B = CyclicModule(R, 3)
    P = product_module(A, B)
    assert P.order == 6
    NA = zero_submodule(A)
    NB = span(B, [1])
    NP = product_submodule(P, NA, NB)
    assert len(NP.indices) == 3


def _componentwise(n1, n2):
    """Z_n1 x Z_n2 acted on componentwise by the ring Z_n1 x Z_n2."""
    R1, R2 = make_zmod(n1), make_zmod(n2)
    return product_module(R1.as_module, R2.as_module, ProductRing(R1, R2))


@pytest.mark.parametrize("n1,n2", [(2, 3), (4, 2)])
def test_componentwise_product_module_axioms(n1, n2):
    from test_modules import _exhaustive_module_axioms

    P = _componentwise(n1, n2)
    assert P.order == n1 * n2 and P.ring.order == n1 * n2
    _exhaustive_module_axioms(P)
    for r in range(P.ring.order):
        r1, r2 = P.ring.parts(r)
        for x in range(P.order):
            a, b = P.parts(x)
            assert P.act(r, x) == P.pack((r1 * a) % n1, (r2 * b) % n2)


def test_componentwise_product_is_not_the_same_ring_product():
    Z2 = make_zmod(2).as_module
    diagonal = product_module(Z2, Z2)
    P = product_module(Z2, Z2, ProductRing(make_zmod(2), make_zmod(2)))
    assert P.signature != diagonal.signature and not P.same_module(diagonal)
    assert [P.describe(x) for x in range(4)] == [diagonal.describe(x) for x in range(4)]


def test_componentwise_product_submodule():
    P = _componentwise(4, 2)
    N1, N2 = span(P.m1, [2]), zero_submodule(P.m2)
    N = product_submodule(P, N1, N2)
    assert N.indices == (P.pack(0, 0), P.pack(2, 0))
    assert N == span(P, [P.literal_to_index((2, 0))])


@pytest.mark.parametrize("n1,n2", [(2, 3), (4, 2)])
def test_componentwise_product_verdicts_match_oracles(n1, n2):
    from conftest import naive_gsdf, naive_sdf

    P = _componentwise(n1, n2)
    proper = all_submodules(P).proper
    assert proper
    for N in proper:
        assert check_property("gsdf", N).holds == naive_gsdf(N), N
        assert check_property("sdf", N).holds == naive_sdf(N), N


def test_multiplicative_set_closure_adds_one():
    R = make_zmod(12)
    S = MultiplicativeSet(R, [4])
    assert 1 in S.indices and 4 in S.indices
    for a in S.indices:
        for b in S.indices:
            assert R.mul(a, b) in S.indices


def test_localization_z12_at_4():
    R = make_zmod(12)
    res = localize_ring(R, MultiplicativeSet(R, [4]))
    assert res.idempotent == 4
    assert res.ring.order == 3
    f = res.map
    for a in range(12):
        for b in range(12):
            assert f(R.add(a, b)) == res.ring.add(f(a), f(b))
            assert f(R.mul(a, b)) == res.ring.mul(f(a), f(b))
    assert f(R.one) == res.ring.one


def test_localization_degenerate_when_zero_in_s():
    R = make_zmod(12)
    with pytest.raises(DegenerateLocalizationError):
        localize_ring(R, MultiplicativeSet(R, [6, 2]))  # 6*2 = 0 mod 12


def test_localize_module_and_submodule():
    R = make_zmod(12)
    S = MultiplicativeSet(R, [4])
    M = R.as_module
    res = localize_module(M, S)
    assert res.module.order == 3
    N = span(M, [6])
    NL = localize_submodule(N, res)
    # 6 * 4 = 0 mod 12: N dies in the localization
    assert NL.indices == (res.module.zero,)


def test_saturate():
    R = make_zmod(12)
    M = R.as_module
    S = MultiplicativeSet(R, [4])
    N = span(M, [6])
    sat = saturate(N, S)
    # x with 4x in {0,6}: 4x is 0,4,8 cycle -> x in {0,3,6,9}
    assert sat.indices == (0, 3, 6, 9)


def test_idealization_ring_and_ideal_criterion():
    R = make_zmod(6)
    A = idealization_ring(R, R.as_module)
    assert A.order == 36
    I = span(R.as_module, [2])
    N = span(R.as_module, [2])
    subset, is_ideal = idealization_subset(A, I, N)
    assert is_ideal  # I.M = (2)Z6 = (2) <= N
    ideal = idealization_ideal(A, I, N)
    assert len(ideal.indices) == len(I.indices) * len(N.indices)
    # known non-example: (3) |>< (2) is not an ideal (3 * Z6 is not inside (2))
    I2 = span(R.as_module, [3])
    subset2, is_ideal2 = idealization_subset(A, I2, N)
    assert not is_ideal2


def test_amalgamated_module_componentwise_action():
    R1 = make_zmod(12)
    R2 = make_zmod(6)
    f = reduction_hom(R1, R2)
    J = span(R2.as_module, [2])
    A = amalgamation_ring(R1, R2, f, J)
    M1, M2 = R1.as_module, R2.as_module
    phi = ModuleHom(M1, M2, f.table, ring_map=f)
    AM = amalgamated_module(A, M1, M2, phi, J)
    assert AM.order == M1.order * len(J.indices)
    for i in range(A.order):
        a, b = A.parts(i)
        for m in range(AM.order):
            x1, y2 = AM.parts(m)
            out = AM.act(i, m)
            ox, oy = AM.parts(out)
            assert ox == M1.act(a, x1)
            assert oy == M2.act(b, y2)
    with pytest.raises(InvalidConstructionError, match="is not in the amalgamation carrier"):
        AM.literal_to_index((1, 0))


def test_restrict_scalars_via_reduction_hom():
    R12, R6 = make_zmod(12), make_zmod(6)
    M = restrict_scalars(R6.as_module, reduction_hom(R12, R6))
    assert M.ring.order == 12 and M.order == 6
    for r in range(12):
        for x in range(6):
            assert M.act(r, x) == (r * x) % 6
    assert is_gsdf_absorbing(zero_submodule(M)).holds


def test_restricted_module_over_idempotent_subring():
    from absorb.modules import RestrictedModule

    R = make_zmod(12)
    res = localize_ring(R, MultiplicativeSet(R, [4]))
    M = RestrictedModule(R.as_module, res.ring)
    assert M.order == 3 and M.ring.order == 3
    assert is_gsdf_absorbing(zero_submodule(M)).holds
