"""Ring layer: canonical-index arithmetic, constructions, homs, orbits.

ZMod and the ring-as-module view skip their in-constructor axiom checks for
speed, so this file re-verifies those axioms exhaustively and independently.
Every other library ring checks only the side condition of its construction
(``tests/test_derived_tables.py`` runs the axiom kernel on those).  That
kernel, ``conftest.check_ring_axiom_rows``, checks a ring as a module over
itself on every triple, and is tested here on rings that break one ring
axiom each and on every single-cell change of Z12's tables.
"""
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorb.errors import InvalidConstructionError, InvalidOrderError
from absorb.modules import span, zero_submodule
from absorb.rings import (
    FiniteRing,
    ProductRing,
    QuotientRing,
    RingHom,
    ZMod,
    identity_hom,
    make_zmod,
    product_ring,
    reduction_hom,
    units,
)
from conftest import check_ring_axiom_rows


def _ring_axiom_failures(order, add, mul, neg, one, zero=0):
    """The messages of the ring axioms that fail on some triple (naive)."""
    bad = set()
    for a in range(order):
        if mul(one, a) != a or add(zero, a) != a:
            bad.add("bad identities")
        if add(a, neg(a)) != zero:
            bad.add("bad negation")
        for b in range(order):
            if add(a, b) != add(b, a) or mul(a, b) != mul(b, a):
                bad.add("not commutative")
            for c in range(order):
                if add(add(a, b), c) != add(a, add(b, c)):
                    bad.add("+ not associative")
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    bad.add("* not associative")
                if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
                    bad.add("not distributive")
    return bad


def _vectors(q, k, add, mul, neg, one):
    """(order, add, mul, neg, one index) on Z_q^k, index = base-q digits,
    from ops on coefficient lists; results are reduced mod q."""

    def vec(i):
        return [i // q ** (k - 1 - d) % q for d in range(k)]

    def idx(v):
        return sum(c % q * q ** (k - 1 - d) for d, c in enumerate(v))

    return (
        q**k,
        lambda i, j: idx(add(vec(i), vec(j))),
        lambda i, j: idx(mul(vec(i), vec(j))),
        lambda i: idx(neg(vec(i))),
        idx(one),
    )


def _each(f):
    return lambda u, v: [f(a, b) for a, b in zip(u, v)]


def _broken_rings():
    """message -> ring ops breaking exactly that axiom."""
    plus, times = _each(lambda a, b: a + b), _each(lambda a, b: a * b)
    minus = lambda v: [-a for a in v]
    q, n = 2, 5
    return {
        # upper triangular 2x2 matrices (a b; 0 c)
        "not commutative": _vectors(
            q, 3, plus,
            lambda u, v: [u[0] * v[0], u[0] * v[1] + u[1] * v[2], u[2] * v[2]],
            minus, [1, 0, 1]),
        # over F3, a (+) b = a + b + ab(a + b) still distributes, as a^3 = a
        "+ not associative": _vectors(
            3, 1, _each(lambda a, b: a + b + a * b * (a + b)), times, minus, [1]),
        # the commutative algebra with basis 1, u, w: u^2 = w, uw = u, w^2 = 0
        "* not associative": _vectors(
            q, 3, plus,
            lambda u, v: [u[0] * v[0],
                          u[0] * v[1] + u[1] * v[0] + u[1] * v[2] + u[2] * v[1],
                          u[0] * v[2] + u[2] * v[0] + u[1] * v[1]],
            minus, [1, 0, 0]),
        "not distributive": _vectors(n, 1, plus, _each(min), minus, [n - 1]),
        "bad identities": _vectors(n + 1, 1, plus, times, minus, [n]),
        "bad negation": _vectors(n, 1, plus, times, lambda v: v, [1]),
    }


class _GivenRing(FiniteRing):
    """A ring from plain functions, checked by the axiom kernel."""

    _check_axioms = check_ring_axiom_rows

    def __init__(self, order, add, mul, neg, one):
        self.order, self.name, self.zero, self.one = order, "given", 0, one
        self.add, self.mul, self.neg = add, mul, neg
        self._finalize()


def _no_sampling(*args, **kwargs):
    raise AssertionError("the axiom check sampled")


def _table_ops(add_t, mul_t, n):
    """(order, add, mul, neg, one) of a ring given by its add and mul tables."""
    return n, lambda i, j: add_t[i][j], lambda i, j: mul_t[i][j], lambda i: -i % n, 1


# the row kernel is the only path: each id names it
@pytest.mark.parametrize(
    "message", [pytest.param(m, id=f"{m}-exhaustive") for m in sorted(_broken_rings())])
def test_axiom_scan_rejects_each_broken_ring_axiom(message):
    ops = _broken_rings()[message]
    assert _ring_axiom_failures(*ops) == {message}
    with pytest.raises(InvalidConstructionError, match=re.escape(message)):
        _GivenRing(*ops)


def test_axiom_check_rejects_every_single_cell_change_of_z12():
    n = 12
    add_t = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul_t = [[a * b % n for b in range(n)] for a in range(n)]
    _GivenRing(*_table_ops(add_t, mul_t, n))  # the unchanged tables pass
    caught = 0
    for table in (add_t, mul_t):
        for row in table:
            for j, right in enumerate(row):
                for value in range(n):
                    if value != right:
                        row[j] = value
                        with pytest.raises(InvalidConstructionError):
                            _GivenRing(*_table_ops(add_t, mul_t, n))
                        caught += 1
                row[j] = right
    assert caught == 2 * 144 * 11


def test_ring_axiom_check_is_exhaustive_up_to_256(monkeypatch):
    """Building Z12 x Z12 and every amalgamation ring of ``default_family()``
    (up to 144 elements) draws no random number."""
    from absorb.suites import amalgamation_instances

    monkeypatch.setattr(random, "Random", _no_sampling)
    rings = [ProductRing(make_zmod(12), make_zmod(12))]
    rings += [AM.ring for AM, _m1, _J, _desc in amalgamation_instances()]
    assert len(rings) == 15 and max(R.order for R in rings) == 144
    assert all(R.mul_t is not None for R in rings)


def test_ring_whose_add_leaves_its_carrier_is_rejected():
    with pytest.raises(InvalidConstructionError, match="leaves its carrier"):
        _GivenRing(5, lambda i, j: i + j, lambda i, j: i * j % 5, lambda i: -i % 5, 1)


@pytest.mark.parametrize("offset", [300, -5])
def test_ring_whose_add_leaves_the_byte_range_is_rejected(offset):
    """Entries outside 0..255 are caught before the tables become bytes."""
    with pytest.raises(InvalidConstructionError, match="leaves its carrier"):
        _GivenRing(5, lambda i, j: (i + j) % 5 + (offset if i == 4 else 0),
                   lambda i, j: i * j % 5, lambda i: -i % 5, 1)


def test_zmod_matches_integer_arithmetic_exhaustively():
    # independent re-verification: ZMod trusts its ops at construction time
    for n in (2, 5, 12):
        R = ZMod(n)
        for a in range(n):
            assert R.neg(a) == (-a) % n
            for b in range(n):
                assert R.add(a, b) == (a + b) % n
                assert R.mul(a, b) == (a * b) % n
                assert R.sub(a, b) == (a - b) % n


def test_zmod_sub_is_add_of_neg_exhaustively():
    for n in range(2, 41):
        R = ZMod(n)
        for a in range(n):
            for b in range(n):
                assert R.sub(a, b) == R.add(a, R.neg(b)), (n, a, b)


@pytest.mark.parametrize("n", [6, 8])
def test_idealization_sub_is_add_of_neg_exhaustively(n):
    from absorb.rings import IdealizationRing

    A = IdealizationRing(make_zmod(n), make_zmod(n).as_module)
    structural = IdealizationRing.sub  # the instance's own sub is a table lookup
    for a in range(A.order):
        for b in range(A.order):
            want = A.add(a, A.neg(b))
            assert A.sub(a, b) == structural(A, a, b) == A.as_module.sub(a, b) == want


def test_ring_as_module_sub_is_add_of_neg_exhaustively():
    M = make_zmod(12).as_module
    for a in range(12):
        for b in range(12):
            assert M.sub(a, b) == M.add(a, M.neg(b))


def test_zmod_ring_axioms_exhaustive_z12():
    R = make_zmod(12)
    n = R.order
    for a in range(n):
        assert R.add(a, R.zero) == a
        assert R.mul(a, R.one) == a
        assert R.add(a, R.neg(a)) == R.zero
        for b in range(n):
            assert R.add(a, b) == R.add(b, a)
            assert R.mul(a, b) == R.mul(b, a)
            for c in range(n):
                assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
                assert R.mul(R.mul(a, b), c) == R.mul(a, R.mul(b, c))
                assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))


@given(st.integers(min_value=2, max_value=64), st.data())
@settings(max_examples=100, deadline=None)
def test_zmod_random_identities(n, data):
    R = make_zmod(n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert R.mul(a, R.add(b, c)) == R.add(R.mul(a, b), R.mul(a, c))
    assert R.sub(a, b) == R.add(a, R.neg(b))


def test_make_zmod_is_cached():
    assert make_zmod(12) is make_zmod(12)


def test_product_ring():
    R = ProductRing(make_zmod(2), make_zmod(3))
    assert R.order == 6
    one = R.one
    a = R.literal_to_index((1, 2))
    b = R.literal_to_index((0, 2))
    assert R.mul(a, b) == R.literal_to_index((0, 1))
    assert R.add(a, b) == R.literal_to_index((1, 1))
    assert R.mul(a, one) == a
    assert product_ring(make_zmod(2), make_zmod(3)).order == 6


def test_quotient_ring_z24_mod_12():
    R = make_zmod(24)
    I = span(R.as_module, [R.literal_to_index(12)])
    Q = QuotientRing(R, I)
    assert Q.order == 12
    # Q is isomorphic to Z_12: check through the projection of literals
    S = make_zmod(12)
    proj = {a: Q.literal_to_index(a) for a in range(24)}
    for a in range(24):
        for b in range(24):
            assert proj[(a + b) % 24] == Q.add(proj[a], proj[b])
            assert proj[(a * b) % 24] == Q.mul(proj[a], proj[b])
    assert len({proj[a] for a in range(24)}) == S.order


def test_quotient_by_full_ideal_rejected():
    R = make_zmod(6)
    full = span(R.as_module, [R.one])
    with pytest.raises(InvalidOrderError):
        QuotientRing(R, full)


def test_units_of_z12():
    R = make_zmod(12)
    assert {u.index for u in units(R)} == {1, 5, 7, 11}


def test_power_orbit_and_stable_idempotent():
    R = make_zmod(12)
    e = R.stable_idempotent_raw(4)
    assert R.mul(e, e) == e
    assert e == 4  # powers of 4 mod 12: 4, 4, ... already stable


def test_power_orbit_raw_covers_all_powers():
    R = make_zmod(18)
    for t in range(R.order):
        pre, per, powers = R.power_orbit_raw(t)
        expect = []
        p = R.one
        for _ in range(pre + per - 1):
            p = R.mul(p, t)
            expect.append(p)
        assert list(powers) == expect
        # one more step re-enters the period
        assert R.mul(p, t) in powers


def test_hom_validation_and_kernel():
    R, S = make_zmod(12), make_zmod(6)
    f = reduction_hom(R, S)
    assert all(f.table[a] == a % 6 for a in range(12))
    with pytest.raises(InvalidConstructionError):
        RingHom(R, S, [(a * 2) % 6 for a in range(12)])  # does not fix 1
    g = identity_hom(R)
    assert g.table == list(range(12))


def test_idealization_multiplication_rule():
    from absorb.rings import IdealizationRing

    R = make_zmod(6)
    A = IdealizationRing(R, R.as_module)
    assert A.order == 36
    for u, x in [(2, 3), (5, 1)]:
        for v, y in [(4, 5), (3, 3)]:
            a = A.literal_to_index((u, x))
            b = A.literal_to_index((v, y))
            prod = A.literal_to_index(((u * v) % 6, (u * y + v * x) % 6))
            assert A.mul(a, b) == prod


def test_amalgamation_carrier_and_ops():
    from absorb.constructions import amalgamation_ring

    R = make_zmod(12)
    S = make_zmod(6)
    f = reduction_hom(R, S)
    J = span(S.as_module, [S.literal_to_index(2)])
    A = amalgamation_ring(R, S, f, J)
    assert A.order == 12 * len(J.indices)
    for i in range(A.order):
        u, w = A.parts(i)
        assert (w - f.table[u]) % 6 in set(J.indices)
    a = A.literal_to_index((5, 5 % 6))
    b = A.literal_to_index((2, 4))
    u1, w1 = A.parts(a)
    u2, w2 = A.parts(b)
    assert A.parts(A.mul(a, b)) == ((u1 * u2) % 12, (w1 * w2) % 6)
    with pytest.raises(InvalidConstructionError, match=r"\(1,0\) is not in the amalgamation"):
        A.literal_to_index((1, 0))  # 0 - f(1) = 5 is not in J
    with pytest.raises(InvalidConstructionError, match="element literal must be a pair"):
        A.literal_to_index(1)
