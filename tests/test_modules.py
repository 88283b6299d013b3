"""Module layer: axioms, submodule arithmetic, colon/annihilator/radical.

RingAsModule trusts the verified ring operations at construction time, so the
first tests here re-verify the module axioms exhaustively and independently.
The axiom kernel that the tests run on library structures
(``conftest.check_axiom_rows``) is itself tested on structures that break
one axiom each and on every single-cell change of a module's or its ring's
tables.
"""
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorb.errors import CrossStructureError, InvalidConstructionError, NotProperError
from absorb.lattice import all_submodules
from absorb.modules import (
    CyclicModule,
    FiniteModule,
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
from absorb.rings import IdealizationRing, ProductRing, ZMod, make_zmod
from absorb.suites import default_family
from conftest import check_axiom_rows, naive_radical


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


def _module_axiom_failures(R, order, add, act, neg, zero=0):
    """The messages of the axioms that fail on some triple, by naive loops
    over plain functions (so it also runs on structures that cannot be
    constructed)."""
    bad = set()
    for r in range(R.order):
        for s in range(R.order):
            for x in range(order):
                if act(R.add(r, s), x) != add(act(r, x), act(s, x)):
                    bad.add("(r+s)x axiom fails")
                if act(R.mul(r, s), x) != act(r, act(s, x)):
                    bad.add("(rs)x axiom fails")
        for x in range(order):
            for y in range(order):
                if act(r, add(x, y)) != add(act(r, x), act(r, y)):
                    bad.add("r(x+y) axiom fails")
    for x in range(order):
        if any(add(x, y) != add(y, x) for y in range(order)):
            bad.add("+ not commutative")
        if any(add(add(x, y), z) != add(x, add(y, z)) for y in range(order) for z in range(order)):
            bad.add("+ not associative")
        if act(R.one, x) != x:
            bad.add("1x = x fails")
        if add(x, neg(x)) != zero:
            bad.add("bad negation")
        if add(zero, x) != x:
            bad.add("0 + x = x fails")
    return bad


class _GivenModule(FiniteModule):
    """A module from plain functions, checked by the axiom kernel."""

    _check_axioms = check_axiom_rows

    def __init__(self, ring, order, add, act, neg):
        self.ring, self.order, self.name, self.zero = ring, order, "given", 0
        self.add, self.act, self.neg = add, act, neg
        self._finalize()


def _unit_map_on_z2_squared(r, x):
    # over Z2 x Z2 (index 2*u1 + u2): e1 acts by a non-additive idempotent P
    # with P(x + P(x)) = 0 on Z2^2 (xor), e2 by x + P(x)
    u1, u2 = divmod(r, 2)
    return (x if u2 else 0) ^ ((0, 1, 0, 0)[x] if u1 ^ u2 else 0)


def _steiner_loop_sum(x, y):
    """The Steiner loop of the 12 lines of AG(2,3): 0 is the identity, points
    1..9 are (a, b) in Z3^2, x + x = 0, and two distinct points add to the
    third point on their line, -(x + y) in Z3^2.  It is a commutative loop,
    and not associative since AG(2,3) is not a projective space over F2."""
    if x == 0 or y == 0:
        return x + y
    if x == y:
        return 0
    (a, b), (c, d) = divmod(x - 1, 3), divmod(y - 1, 3)
    return 1 + 3 * (-(a + c) % 3) + (-(b + d) % 3)


def _broken_modules():
    """message -> (ring, order, add, act, neg) breaking exactly that axiom,
    apart from the lopsided + of "+ not commutative" (see
    ``_ALSO_BROKEN``)."""
    z2, z3, z4 = make_zmod(2), make_zmod(3), make_zmod(4)
    xor, same = (lambda x, y: x ^ y), (lambda x: x)
    # 1 + 2 = 1 but 2 + 1 = 2: x + x = 0 and 0 + x = x still hold
    lopsided = ((0, 1, 2), (1, 0, 1), (2, 2, 0))
    return {
        # r.x = r^2 x is multiplicative and linear in x, not additive in r
        "(r+s)x axiom fails": (z3, 3, lambda x, y: (x + y) % 3,
                               lambda r, x: r * r * x % 3, lambda x: -x % 3),
        # Z2[t]/(t^2) (index 2u + b for u + bt) acting on Z2 by u + b
        "(rs)x axiom fails": (IdealizationRing(z2, z2.as_module), 2, xor,
                              lambda r, x: ((r >> 1) ^ (r & 1)) & x, same),
        "r(x+y) axiom fails": (ProductRing(z2, z2), 4, xor, _unit_map_on_z2_squared, same),
        "+ not commutative": (z2, 3, lambda x, y: lopsided[x][y],
                              lambda r, x: x if r else 0, same),
        "1x = x fails": (z2, 2, xor, lambda r, x: 0, same),
        "bad negation": (z4, 4, lambda x, y: (x + y) % 4, lambda r, x: r * x % 4, same),
        "+ not associative": (z2, 10, _steiner_loop_sum, lambda r, x: x if r else 0, same),
        # Z2^2 under x + y = x ^ y ^ 1, a group whose identity is 1, not 0;
        # Z2 acts with 0.x = 1 = x + x
        "0 + x = x fails": (z2, 4, lambda x, y: x ^ y ^ 1, lambda r, x: x if r else 1,
                            lambda x: x ^ 1),
    }


# the lopsided + also breaks associativity; commutativity is checked first
_ALSO_BROKEN = {"+ not commutative": {"+ not associative"}}


# the row kernel is the only path: each id names it
@pytest.mark.parametrize("message", [pytest.param(m, id=f"{m}-rows") for m in sorted(_broken_modules())])
def test_axiom_check_rejects_each_broken_axiom(message):
    ring, order, add, act, neg = _broken_modules()[message]
    assert _module_axiom_failures(ring, order, add, act, neg) == {message} | _ALSO_BROKEN.get(
        message, set())
    with pytest.raises(InvalidConstructionError, match=re.escape(message)):
        _GivenModule(ring, order, add, act, neg)


def test_axiom_check_rejects_an_action_leaving_the_carrier():
    # index 3 is not in Z3; read as a translate table it would hit padding
    with pytest.raises(InvalidConstructionError, match="leaves its carrier"):
        _GivenModule(make_zmod(3), 3, lambda x, y: (x + y) % 3,
                     lambda r, x: 3 if r == 2 and x == 2 else r * x % 3, lambda x: -x % 3)


@pytest.mark.parametrize("offset", [300, -5])
def test_axiom_check_rejects_an_action_leaving_the_byte_range(offset):
    with pytest.raises(InvalidConstructionError, match="leaves its carrier"):
        _GivenModule(make_zmod(5), 5, lambda x, y: (x + y) % 5,
                     lambda r, x: r * x % 5 + (offset if r == 4 else 0), lambda x: -x % 5)


@pytest.mark.parametrize("offset", [300, -5])
def test_axiom_check_rejects_a_ring_mul_leaving_the_byte_range(offset):
    """ZMod is trusted and never checks itself; a subclass with arithmetic
    of its own is range-checked when its tables are first read, and must
    be rejected cleanly."""

    class LeakyZ5(ZMod):
        def mul(self, i, j):
            return i * j % 5 + (offset if i == 4 else 0)

    with pytest.raises(InvalidConstructionError, match="leaves its carrier"):
        LeakyZ5(5).mul_t


def test_axiom_check_catches_every_single_cell_change_z6_over_z12():
    """Over Z_n the action is forced, so a change to any one cell of the add
    or action table of Z6 (36 + 72 cells, to each of 5 other values) breaks
    some axiom, and the row kernel must see it."""

    class Mutated(CyclicModule):
        _check_axioms = check_axiom_rows

        def __init__(self, table, cell, value):
            self._mutation = table, cell, value
            super().__init__(make_zmod(12), 6)

        def _tabulate(self):
            super()._tabulate()
            table, (i, j), value = self._mutation
            rows = getattr(self, table)  # bytes rows: swap in a changed copy
            row = bytearray(rows[i])
            row[j] = value
            rows[i] = bytes(row)

    caught = 0
    for table, rows in (("add_t", 6), ("act_t", 12)):
        for i in range(rows):
            for j in range(6):
                right = (i + j) % 6 if table == "add_t" else i * j % 6
                for value in range(6):
                    if value == right:
                        continue
                    with pytest.raises(InvalidConstructionError):
                        Mutated(table, (i, j), value)
                    caught += 1
    assert caught == 108 * 5


def test_axiom_check_reads_every_cell_of_the_ring_tables():
    """The scalar axioms compare whole tables of the ring's add and mul; a
    wrong cell at any (r, s) must be seen, the last row and column too."""
    for op, message in ((0, "(r+s)x axiom fails"), (1, "(rs)x axiom fails")):
        for cell in range(12 * 12):
            R = ZMod(12)  # a private ring: its tables are edited
            rows = (R.add_t, R.mul_t)[op]
            r, s = divmod(cell, 12)
            row = bytearray(rows[r])
            row[s] = (row[s] + 1) % 12  # differs mod 6 too
            rows[r] = bytes(row)
            with pytest.raises(InvalidConstructionError, match=re.escape(message)):
                check_axiom_rows(CyclicModule(R, 6))


def test_a_module_that_names_no_side_condition_is_refused():
    """The base check fails closed: a subclass that defines no
    ``_check_axioms`` of its own is never trusted."""

    class Unchecked(FiniteModule):
        def __init__(self):
            self.ring, self.order, self.name, self.zero = make_zmod(2), 2, "unchecked", 0
            self.add, self.act, self.neg = (lambda x, y: x ^ y), (lambda r, x: r * x), (lambda x: x)
            self._finalize()

    with pytest.raises(NotImplementedError, match="Unchecked names no side condition"):
        Unchecked()


def test_axiom_check_is_exhaustive_on_tabulated_modules(monkeypatch):
    """Tabulated modules are built without sampling: (Z6)^3, a product of
    checked parts that runs no check of its own, and Z60/0, checked by its
    projection from the tabulated Z60, draw no random number.  Both then
    pass the exhaustive check here."""

    def no_sampling(*args, **kwargs):
        raise AssertionError("the axiom check sampled")

    monkeypatch.setattr(random, "Random", no_sampling)
    R = make_zmod(6).as_module
    cube = ProductModule(ProductModule(R, R), R)
    Z60 = make_zmod(60).as_module
    quotient = QuotientModule(Z60, zero_submodule(Z60))
    assert cube.act_t is not None and quotient.act_t is not None
    monkeypatch.undo()
    _exhaustive_module_axioms(cube)
    _exhaustive_module_axioms(quotient)


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


def test_radical_matches_the_naive_power_sweep():
    rings = [M.ring for M in default_family()] + [make_zmod(n) for n in range(2, 121)]
    for R in {id(R): R for R in rings}.values():
        for I in all_submodules(R.as_module).members:
            assert radical(I).mask == naive_radical(I), (R, I.indices)


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
