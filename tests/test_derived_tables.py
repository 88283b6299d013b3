"""Every library structure whose validity follows from parts already
checked composes its tables from those parts' rows: products and
idealizations from their parts', a cyclic module Z_d from Z_d's,
quotients, carriers and amalgamations from their base's, and a scalar
restriction from its base's rows gathered at f(r).  Homs and submodule
closure are checked a row at a time.  Each is tested here against its
per-cell definition or its element-loop oracle, on every such structure of
the suites' family, the sweep's wide modules, the idealization suite, the
cyclic modules Z_d over Z_n with d | n <= 60 and the reductions Z_a -> Z_b
with b | a <= 60.

Construction checks a product, an idealization and a cyclic module
nothing beyond their parts and their side condition (M over R, d | n), a
quotient of a tabulated base by its projection, a carrier (an
amalgamation among them) by its closure and a scalar restriction by its
``RingHom``; the full axiom kernel, which no library path runs, runs here
instead, on every composed structure the file builds.  Structures too big
for tables are compared with their componentwise formula, and those over
the untabulated Z300 with Z300's operations."""
import functools
import json
import os
import random
import subprocess
import sys
from itertools import combinations, product, repeat
from pathlib import Path

import pytest
from conftest import (
    SWEEP_WIDE,
    check_axiom_rows,
    check_ring_axiom_rows,
    naive_closure_error,
    naive_hom_error,
    naive_ring_hom_error,
)

from absorb import encodings, modules, suites
from absorb.constructions import AmalgamatedModule, quotient_module
from absorb.encodings import row_hom_misses
from absorb.errors import InvalidConstructionError
from absorb.lattice import all_submodules
from absorb.modules import (
    CyclicModule,
    FiniteModule,
    ModuleHom,
    ProductModule,
    ProductOverProductRing,
    QuotientModule,
    RestrictedModule,
    RingAsModule,
    ScalarRestriction,
    SubcarrierModule,
    Submodule,
    span,
    zero_submodule,
)
from absorb.rings import (
    AmalgamationRing,
    FiniteRing,
    IdealizationRing,
    ProductRing,
    QuotientRing,
    RingHom,
    SubringOnIdempotent,
    ZMod,
    identity_hom,
    make_zmod,
    reduction_hom,
)
from absorb.specdsl import elaborate_module, parse_module_spec
from absorb.suites import default_family, idealization_family, run_suite, zn_family


DERIVED = (QuotientModule, SubcarrierModule, RestrictedModule, QuotientRing, SubringOnIdempotent)
COMPOSED = (
    ProductRing,
    ProductModule,
    ProductOverProductRing,
    AmalgamationRing,
    AmalgamatedModule,
    ScalarRestriction,
    IdealizationRing,
    CyclicModule,
)


def _family():
    return list(default_family()) + [elaborate_module(parse_module_spec(s)) for s in SWEEP_WIDE]


def _componentwise(P):
    """+, then * or the action, then - of the product or idealization P,
    by their definitions over its parts' element operations: componentwise,
    apart from (u,x)(v,y) = (uv, uy + vx) in an idealization."""
    ring = isinstance(P, FiniteRing)
    if isinstance(P, IdealizationRing):
        f, g = P.base, P.module

        def second(i, j):
            (u, x), (v, y) = P.parts(i), P.parts(j)
            return P.pack(f.mul(u, v), g.add(g.act(u, y), g.act(v, x)))
    else:
        f, g = (P.left, P.right) if ring else (P.m1, P.m2)
        f2, g2 = (f.mul, g.mul) if ring else (f.act, g.act)
        if ring:
            scalar = P.parts
        elif isinstance(P, ProductOverProductRing):
            scalar = P.ring.parts
        else:
            scalar = lambda r: (r, r)  # noqa: E731

        def second(r, j):
            (r1, r2), (c, d) = scalar(r), P.parts(j)
            return P.pack(f2(r1, c), g2(r2, d))

    def add(i, j):
        (a, b), (c, d) = P.parts(i), P.parts(j)
        return P.pack(f.add(a, c), g.add(b, d))

    def neg(i):
        a, b = P.parts(i)
        return P.pack(f.neg(a), g.neg(b))

    return add, second, neg


def _per_cell_tables(S):
    """S's tables by their definitions: for a product or an idealization
    the componentwise formula, for Z_d integer arithmetic mod d, and
    otherwise ``own[base.op(a, b)]`` over the base elements a, b that S's
    elements stand for."""
    if isinstance(S, (ProductRing, ProductModule, IdealizationRing, CyclicModule)):
        add, second, neg = _formula(S)
        cols = range(S.order)
        scalars = cols if isinstance(S, FiniteRing) else range(S.ring.order)
        return (
            [bytes(map(add, repeat(i), cols)) for i in cols],
            [bytes(map(second, repeat(r), cols)) for r in scalars],
            bytes(map(neg, cols)),
        )
    base = S.base
    if isinstance(S, (QuotientModule, QuotientRing)):
        at, own = [S.representative(i) for i in range(S.order)], S.project
    else:
        at = S.carrier
        if isinstance(S, (AmalgamationRing, AmalgamatedModule)):  # u * |J| + rank of j
            ring = isinstance(S, FiniteRing)
            first, f, add = (S.r1, S.hom, S.r2.add) if ring else (S.m1, S.phi, S.m2.add)
            at = [base.pack(u, add(f(u), j)) for u in range(first.order) for j in S.offsets]
        own = {c: k for k, c in enumerate(at)}.__getitem__

    def rows(op, firsts):
        return [bytes(map(own, map(op, repeat(a), at))) for a in firsts]

    if isinstance(S, FiniteRing):
        second = rows(base.mul, at)
    elif isinstance(S, (RestrictedModule, AmalgamatedModule)):
        second = rows(base.act, S.ring.carrier)
    elif isinstance(S, ScalarRestriction):
        second = rows(base.act, S.hom.table)
    else:
        second = rows(base.act, range(S.ring.order))
    return rows(base.add, at), second, bytes(map(own, map(base.neg, at)))


def _formula(S):
    """+, * or the action, and - of a product, an idealization or Z_d, by
    their definitions."""
    if not isinstance(S, CyclicModule):
        return _componentwise(S)
    d = S.d
    return (lambda i, j: (i + j) % d), (lambda r, x: r * x % d), (lambda x: -x % d)


def _tables(S):
    return S.add_t, (S.mul_t if isinstance(S, FiniteRing) else S.act_t), S.neg_t


def _assert_axioms_hold(S):
    """The full row kernel on S, for a ring on S over itself together with
    the transpose compare for commutativity of *."""
    (check_ring_axiom_rows if isinstance(S, FiniteRing) else check_axiom_rows)(S)


@functools.lru_cache(maxsize=None)
def _derived_structures() -> tuple:
    """Every quotient and carrier of the family's tabulated modules, and
    over each of their rings every quotient ring, every idempotent subring
    and the restricted modules over it, each built with its construction
    check."""
    structures = []
    rings = {}
    modules = [M for M in _family() if M.act_t is not None]
    for M in modules:
        rings.setdefault(M.ring.signature, M.ring)
        lat = all_submodules(M)
        structures += [QuotientModule(M, K) for K in lat.proper]
        structures += [SubcarrierModule(M, P.indices) for P in lat.members]
    for R in rings.values():
        if R.add_t is None:
            continue
        structures += [QuotientRing(R, J) for J in all_submodules(R.as_module).proper]
        for e in range(R.order):
            if e != R.zero and R.mul(e, e) == e:
                sub = SubringOnIdempotent(R, e)
                structures.append(sub)
                structures += [RestrictedModule(M, sub) for M in modules if M.ring.same_ring(R)]
    return tuple(structures)


def _products(S):
    """The products among S, its ring and their factors, nested ones
    included, and an amalgamated module's product base."""
    if isinstance(S, RingAsModule):
        yield from _products(S.ring)
    elif isinstance(S, AmalgamatedModule):
        yield from _products(S.base)
    elif isinstance(S, ProductRing):
        yield S
        yield from _products(S.left)
        yield from _products(S.right)
    elif isinstance(S, ProductModule):
        yield S
        yield from _products(S.m1)
        yield from _products(S.m2)
        yield from _products(S.ring)


@functools.lru_cache(maxsize=None)
def _suite_idealizations() -> tuple:
    """Every idealization ring the ``idealization`` suite builds."""
    built = []

    def recorded(R, M):
        built.append(IdealizationRing(R, M))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(suites, "IdealizationRing", recorded)
        run_suite("idealization")
    return tuple(built)


def _idealizations():
    """The idealization rings of ``idealization_family()`` and the
    tabulated ones of the ``idealization`` suite (Z_n |x Z_n, n in 2, 3,
    4, 6, 8, then Z6 |x Z6 again), then Z4 |x Z2, Z12 |x Z4, Z6 |x (Z2 x
    Z3) and Z16 |x Z16, the largest that has tables."""
    Z4, Z6, Z12, Z16 = (make_zmod(n) for n in (4, 6, 12, 16))
    Z2_X_Z3 = ProductModule(CyclicModule(Z6, 2), CyclicModule(Z6, 3))
    return (
        *(M.ring for M in idealization_family()),
        *(A for A in _suite_idealizations() if A.mul_t is not None),
        IdealizationRing(Z4, CyclicModule(Z4, 2)),
        IdealizationRing(Z12, CyclicModule(Z12, 4)),
        IdealizationRing(Z6, Z2_X_Z3),
        IdealizationRing(Z16, Z16.as_module),
    )


@functools.lru_cache(maxsize=None)
def _composed_structures() -> tuple:
    """Every product of the family and of the sweep's wide modules, nested
    factors and the amalgamations' products included; the 14 amalgamation
    rings and modules of ``default_family()``; Z_b as a Z_a-module along
    every reduction, b | a <= 60; the idealizations of ``_idealizations``;
    and every cyclic module Z_d over Z_n, d | n <= 60."""
    products = {id(P): P for M in _family() for P in _products(M)}
    structures = list(products.values())
    for AM in default_family():
        if isinstance(AM, AmalgamatedModule):
            structures += [AM.ring, AM]
    for a in range(2, 61):
        for b in range(2, a + 1):
            if a % b == 0:
                Za, Zb = make_zmod(a), make_zmod(b)
                structures.append(ScalarRestriction(Zb.as_module, reduction_hom(Za, Zb)))
    structures += _idealizations()
    for n in range(2, 61):
        structures += [CyclicModule(make_zmod(n), d) for d in range(1, n + 1) if n % d == 0]
    return tuple(structures)


def test_composed_tables_equal_their_per_cell_definitions():
    counts = dict.fromkeys(DERIVED + COMPOSED, 0)
    for S in _derived_structures() + _composed_structures():
        assert _tables(S) == _per_cell_tables(S), S
        counts[type(S)] += 1
    assert min(counts[C] for C in DERIVED) > 100, counts
    assert counts[AmalgamationRing] == counts[AmalgamatedModule] == 14, counts
    # Z12 x Z12 and the 14 amalgamations' products; the 66 products of
    # ``product_family(12)`` and the sweep's 11, nested factors included
    assert counts[ProductRing] == 15 and counts[ProductOverProductRing] == 14, counts
    assert counts[ProductModule] == 77, counts
    assert counts[ScalarRestriction] == sum(a % b == 0 for a in range(2, 61) for b in range(2, a + 1))
    # the family's 5, the suite's 6 with tables, and 4 more
    assert len(_suite_idealizations()) == 7 and counts[IdealizationRing] == 15, counts
    assert counts[CyclicModule] == sum(n % d == 0 for n in range(2, 61) for d in range(1, n + 1))


def test_every_derived_structure_passes_the_full_axiom_kernel():
    """The kernel reads only a structure's tables, its zero and one, and
    its ring's tables, so structures that agree on all of these, as a
    quotient and a carrier of Z_n of one order do, are checked once."""
    checked, covered = set(), dict.fromkeys(DERIVED + COMPOSED, 0)
    for S in _derived_structures() + _composed_structures():
        ring = S.one if isinstance(S, FiniteRing) else S.ring.signature
        key = (ring, *map(b"".join, _tables(S)[:2]), S.neg_t, S.zero)
        if key not in checked:
            checked.add(key)
            _assert_axioms_hold(S)
        covered[type(S)] += 1
    assert len(checked) > 1500
    assert covered[IdealizationRing] == 15, covered
    assert covered[CyclicModule] == sum(n % d == 0 for n in range(2, 61) for d in range(1, n + 1))


def test_structures_over_an_untabulated_base_tabulate_per_cell():
    Z300, *structures = _over_z300()
    assert Z300.act_t is None
    for S in structures:
        assert S.act_t is not None and _tables(S) == _per_cell_tables(S)


class _ZnWithoutTables(ZMod):
    """Z_n with its arithmetic and no tables."""

    add_t = mul_t = neg_t = None


def test_compositions_over_untabulated_parts_tabulate_per_cell():
    """Products and a scalar restriction over Z6 without tables, and the
    amalgamation of Z16 with itself along J = 0, whose base Z16 x Z16 over
    Z16 x Z16 has too many cells for tables: each still fits the table
    bound and tabulates one cell at a time."""
    U, Z2 = _ZnWithoutTables(6), make_zmod(2)
    amalgam = elaborate_module(parse_module_spec("amalgm(self(Zn(16)),self(Zn(16)),id,zero)"))
    assert U.as_module.act_t is None and amalgam.base.act_t is None
    for S in (
        ProductRing(U, Z2),
        ProductModule(U.as_module, make_zmod(6).as_module),
        ProductOverProductRing(U.as_module, Z2.as_module, ProductRing(U, Z2)),
        ScalarRestriction(U.as_module, identity_hom(U)),
        amalgam,
    ):
        assert S.add_t is not None and _tables(S) == _per_cell_tables(S), S
    _assert_axioms_hold(amalgam)


def _assert_follows_its_formula(S):
    """S's operations agree with ``_formula`` on every 97th row and the
    last."""
    assert S.add_t is None
    add, second, neg = _formula(S)
    op, nr = (S.mul, S.order) if isinstance(S, FiniteRing) else (S.act, S.ring.order)
    cols = range(S.order)
    for i in (*range(0, S.order, 97), S.order - 1):
        assert list(map(S.add, repeat(i), cols)) == list(map(add, repeat(i), cols)), (S, i)
    for r in (*range(0, nr, 97), nr - 1):
        assert list(map(op, repeat(r), cols)) == list(map(second, repeat(r), cols)), (S, r)
    assert list(map(S.neg, cols)) == list(map(neg, cols)), S


def test_untabulated_products_follow_the_componentwise_formula():
    """Products too big for tables run no check, sampled or other: their
    operations agree with the componentwise formula."""
    Z60, Z300, Z2 = make_zmod(60), make_zmod(300), make_zmod(2)
    P300 = ProductRing(Z300, Z2)
    products = (
        elaborate_module(parse_module_spec("self(prod(Zn(60),Zn(60)))")).ring,
        P300,
        ProductModule(Z60.as_module, Z60.as_module),
        ProductOverProductRing(Z300.as_module, Z2.as_module, P300),
    )
    for P in products:
        _assert_follows_its_formula(P)


def test_untabulated_idealizations_and_cyclic_modules_follow_their_formula():
    """Z42 |x Z42 (1764 elements), the one idealization of the
    ``idealization`` suite without tables, and Z200 over Z200 run no check
    beyond their side condition: their operations agree with (u,x)(v,y) =
    (uv, uy + vx), and with integer arithmetic mod 200."""
    Z42 = [A for A in _suite_idealizations() if A.mul_t is None]
    assert [A.order for A in Z42] == [1764]
    _assert_follows_its_formula(Z42[0])
    _assert_follows_its_formula(CyclicModule(make_zmod(200), 200))


def _over_z300():
    """The quotient and the carrier of Z300 that this file builds."""
    Z300 = make_zmod(300).as_module
    return Z300, QuotientModule(Z300, span(Z300, [12])), SubcarrierModule(Z300, range(0, 300, 10))


def test_structures_over_an_untabulated_base_follow_their_base():
    """Over Z300, which has no tables, a quotient checks only its modulus
    and a carrier its closure.  The projection onto the quotient and the
    inclusion of the carrier are module homs on every sum and every
    scalar multiple, so each is the quotient or the submodule it stands
    for."""
    Z300, Q, C = _over_z300()
    assert Z300.act_t is None and Q.order == 12 and C.order == 30
    assert naive_hom_error(Z300, Q, [Q.project(a) for a in range(300)]) is None
    assert naive_hom_error(C, Z300, C.carrier) is None


def _compositions(Z12, Z6, C4):
    """One of each product class, both amalgamation classes and a scalar
    restriction, built on the tabulated Z12, Z6 and C4 = Z4 over Z12."""
    M12, M6 = Z12.as_module, Z6.as_module
    red = reduction_hom(Z12, Z6)
    J = span(M6, [2])
    A = AmalgamationRing(Z12, Z6, red, J)
    phi = ModuleHom(M12, M6, red.table, ring_map=red)
    return (
        ProductRing(Z12, Z6),
        ProductModule(M12, C4),
        ProductOverProductRing(C4, M6, ProductRing(Z12, Z6)),
        A,
        AmalgamatedModule(A, M12, M6, phi, J),
        ScalarRestriction(M6, red),
    )


def _build_over_tabulated_parts():
    """A quotient, carrier, quotient ring and restricted module of Z60, the
    compositions of ``_compositions``, a cyclic module and an
    idealization."""
    Z12, Z6, R = make_zmod(12), make_zmod(6), make_zmod(60)
    M = R.as_module
    K = span(M, [12])
    return (
        QuotientModule(M, K),
        SubcarrierModule(M, K.indices),
        QuotientRing(R, K),
        RestrictedModule(M, SubringOnIdempotent(R, 21)),
        *_compositions(Z12, Z6, CyclicModule(Z12, 4)),
        CyclicModule(R, 6),
        IdealizationRing(Z6, Z6.as_module),
    )


def test_tabulated_bases_are_never_read_per_cell(monkeypatch):
    """Z_d's rows are a cyclic module's, and an idealization reads R's and
    M's: neither is tabulated one cell at a time any more than a derived
    structure is."""

    def per_cell(self):
        raise AssertionError("tabulated one cell at a time")

    monkeypatch.setattr(FiniteModule, "_op_rows", per_cell)
    monkeypatch.setattr(FiniteRing, "_op_rows", per_cell)
    assert all(S.add_t is not None for S in _build_over_tabulated_parts())


def test_derived_structures_over_a_tabulated_base_skip_the_axiom_kernel(monkeypatch):
    """The axiom kernel lives in the tests only: each construction checks
    its side condition, a cyclic module and an idealization too, and none
    samples or reaches the base check, which fails closed."""

    def kernel(*args):
        raise AssertionError("a base check ran")

    monkeypatch.setattr(FiniteModule, "_check_axioms", kernel)
    monkeypatch.setattr(FiniteRing, "_check_axioms", kernel)
    monkeypatch.setattr(random, "Random", kernel)  # nor a sampled check
    assert len(_build_over_tabulated_parts()) == 12


SPY = """
import collections, json, random, sys
from absorb import modules, rings, suites
from absorb.specdsl import elaborate_module, parse_module_spec

def drawn(*args, **kwargs):
    raise AssertionError("a random number was drawn")

random.Random = drawn
for name in ("random", "randrange", "randint", "choice", "choices", "sample", "shuffle"):
    setattr(random, name, drawn)
calls = collections.Counter()

def spied(cls, kind):
    rows = cls._op_rows
    def spy(self):
        calls[kind, type(self).__name__] += 1
        return rows(self)
    cls._op_rows = spy

for cls in (modules.FiniteModule, rings.FiniteRing):
    spied(cls, "per cell")
for cls in (modules.CyclicModule, rings.IdealizationRing):
    spied(cls, "composed")
suites.default_family()
for spec in sys.argv[1:]:
    elaborate_module(parse_module_spec(spec))
for suite_id in suites.SUITE_IDS:
    suites.run_suite(suite_id)
print(json.dumps([[kind, name, n] for (kind, name), n in sorted(calls.items())]))
"""


def test_library_paths_draw_no_random_number_and_compose_cyclic_and_idealization_rows():
    """In a fresh process, building ``default_family()``, the sweep's
    specs (the wide modules and Z_n over itself, n <= 120) and all 16
    suites draws no random number, and no cyclic module or idealization
    is tabulated one cell at a time: each composes its rows."""
    specs = [*SWEEP_WIDE, *(f"self(Zn({n}))" for n in range(2, 121))]
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", SPY, *specs], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"), check=True,
    )
    calls = {(kind, name): n for kind, name, n in json.loads(out.stdout)}
    per_cell = {name for kind, name in calls if kind == "per cell"}
    assert not per_cell & {"CyclicModule", "IdealizationRing"}, calls
    assert calls["composed", "CyclicModule"] > 100, calls
    assert calls["composed", "IdealizationRing"] >= 10, calls


def test_row_checks_never_call_the_structural_operations():
    R = ZMod(60)  # private: its module's operations are replaced
    M = R.as_module

    def boom(*args):
        raise AssertionError("an element operation ran")

    Q, proj = quotient_module(M, span(M, [12]))
    M.add = M.act = M.neg = boom
    ModuleHom(M, Q, proj.table)
    Submodule(M, span(make_zmod(60).as_module, [12]).indices)


def test_a_tabulated_projection_is_checked_once(monkeypatch):
    """Each proper quotient of Z12 checks its projection on +, - and the
    action (three row checks); its projection hom checks nothing again."""
    M = ZMod(12).as_module  # private: no quotient of it is cached yet
    calls = []

    def counted(f, rows, images):
        calls.append(1)
        return row_hom_misses(f, rows, images)

    monkeypatch.setattr(encodings, "row_hom_misses", counted)
    monkeypatch.setattr(modules, "row_hom_misses", counted)
    proper = all_submodules(M).proper
    for K in proper:
        quotient_module(M, K)
    assert len(proper) == 5 and len(calls) == 15


def test_an_untabulated_projection_is_checked_by_its_hom(monkeypatch):
    """Over Z200, which has no tables, the quotient checks only its
    modulus and not its projection, so the projection hom reads every sum
    of Z200."""
    M = CyclicModule(make_zmod(200), 200)
    assert M.add_t is None
    sums = 0
    add = M.add

    def counted(a, b):
        nonlocal sums
        sums += 1
        return add(a, b)

    monkeypatch.setattr(M, "add", counted)
    Q, _ = quotient_module(M, span(M, [10]))
    assert Q.order == 10 and sums >= M.order**2


def _error(build) -> str | None:
    try:
        build()
    except InvalidConstructionError as e:
        return str(e)
    return None


def test_row_hom_check_agrees_with_the_oracle_on_epimorphism_projections():
    messages = {}
    for M in zn_family(60):
        for K in all_submodules(M).proper:
            Q, proj = quotient_module(M, K)
            assert naive_hom_error(M, Q, proj.table) is None
            for i in range(M.order):  # each table with one entry changed
                table = list(proj.table)
                table[i] = (table[i] + 1) % Q.order
                want = naive_hom_error(M, Q, table)
                assert _error(lambda: ModuleHom(M, Q, table)) == want, (M, K, i)
                messages[want] = messages.get(want, 0) + 1
    assert messages["module hom is not additive"] > 5000
    assert messages["module hom must send 0 to 0"] > 100


def test_row_hom_check_agrees_with_the_oracle_along_a_ring_map():
    Z12, Z6 = make_zmod(12), make_zmod(6)
    red = RingHom(Z12, Z6, [x % 6 for x in range(12)])
    M, N = Z12.as_module, Z6.as_module
    messages = set()
    for i in range(12):
        for y in range(6):
            table = [x % 6 for x in range(12)]
            table[i] = y
            want = naive_hom_error(M, N, table, red)
            assert _error(lambda: ModuleHom(M, N, table, ring_map=red)) == want, (i, y)
            messages.add(want)
    assert messages == {None, "module hom must send 0 to 0", "module hom is not additive"}


def test_row_hom_check_reads_the_codomain_row_of_the_mapped_scalar():
    """The swap of Z2 x Z2 is additive; it is not linear, but it is
    semilinear along the swap of the ring."""
    R = ProductRing(make_zmod(2), make_zmod(2))
    M = R.as_module
    swap = [R.pack(b, a) for a, b in map(R.parts, range(4))]
    assert naive_hom_error(M, M, swap) == "module hom is not linear"
    assert _error(lambda: ModuleHom(M, M, swap)) == "module hom is not linear"
    along = RingHom(R, R, swap)
    assert naive_hom_error(M, M, swap, along) is None
    assert ModuleHom(M, M, swap, ring_map=along).table == swap


def _ring_hom_cases():
    """The ring homs of ``default_family()``'s amalgamations and Z12 -> Z6,
    each with every one-entry change."""
    homs = {}
    Z12, Z6 = make_zmod(12), make_zmod(6)
    for f in [getattr(M.ring, "hom", None) for M in default_family()] + [
        RingHom(Z12, Z6, [x % 6 for x in range(12)])
    ]:
        if f is not None:
            homs[(f.domain.name, f.codomain.name, tuple(f.table))] = f
    assert len(homs) == 3  # the identities of Z6 and Z12, and Z12 -> Z6
    for f in homs.values():
        yield f.domain, f.codomain, list(f.table)
        for i in range(f.domain.order):
            for y in range(f.codomain.order):
                if y != f.table[i]:
                    table = list(f.table)
                    table[i] = y
                    yield f.domain, f.codomain, table


def test_row_ring_hom_check_agrees_with_the_oracle():
    messages = {}
    for D, C, table in _ring_hom_cases():
        assert D.add_t is not None and C.add_t is not None
        want = naive_ring_hom_error(D, C, table)
        assert _error(lambda: RingHom(D, C, table)) == want, (D, C, table)
        messages[want] = messages.get(want, 0) + 1
    assert set(messages) == {None, "hom must send 0 to 0 and 1 to 1", "hom is not additive"}
    assert messages["hom is not additive"] > 100


def test_row_ring_hom_check_agrees_with_the_oracle_on_every_unital_map():
    """Every map of Z2 x Z3 to itself that fixes 0 and 1.  Among them,
    f = [0, 2, 1, 0, 4, 0] first fails in row a = (0,1): f(a * a) != f(a)^2
    at b = a = 1, before f(a + b) != f(a) + f(b) at b = (1,0) = 3, so the
    product's failure is the one reported."""
    P = ProductRing(make_zmod(2), make_zmod(3))
    assert (P.zero, P.one) == (0, 4)
    messages = {}
    for rest in product(range(6), repeat=4):
        table = [0, *rest[:3], 4, rest[3]]
        want = naive_ring_hom_error(P, P, table)
        assert _error(lambda: RingHom(P, P, table)) == want, table
        messages[want] = messages.get(want, 0) + 1
    assert set(messages) == {None, "hom is not additive", "hom is not multiplicative"}
    assert naive_ring_hom_error(P, P, [0, 2, 1, 0, 4, 0]) == "hom is not multiplicative"
    assert _error(lambda: RingHom(P, P, [0, 2, 1, 0, 4, 0])) == "hom is not multiplicative"


Z2_X_Z4 = "prod(cyc(Zn(4),2),cyc(Zn(4),4))"  # Z2 x Z4 over Z4


def _subsets(M):
    return (S for k in range(M.order + 1) for S in combinations(range(M.order), k))


@pytest.mark.parametrize("spec", ["self(Zn(12))", Z2_X_Z4])
def test_a_quotient_by_a_trusted_non_submodule_is_refused(spec):
    """Any subset of M, passed as a trusted submodule: the quotient, and
    for R over itself the quotient ring, is built exactly when the subset
    is a submodule (an ideal), and refused otherwise.  A proper subset
    holding 1 is never an ideal."""
    M = elaborate_module(parse_module_spec(spec))
    R = M.ring if M.same_module(M.ring.as_module) else None
    built = 0
    for S in _subsets(M):
        K = Submodule(M, S, _trusted=True)
        closed = naive_closure_error(M, S) is None
        assert (_error(lambda: QuotientModule(M, K)) is None) == closed, S
        built += closed
        if R is None or len(S) == R.order:
            continue
        assert (_error(lambda: QuotientRing(R, K)) is None) == closed, S
    assert built == len(all_submodules(M).members)


def test_a_corrupted_coset_table_is_refused(monkeypatch):
    """Each quotient of Z12 and (Z2 x Z4) over Z4, and each quotient ring
    of Z12, with one entry of its coset ranks changed to any other rank up
    to the number of cosets."""
    true_ids = encodings.coset_ids
    Z12 = make_zmod(12)
    M = elaborate_module(parse_module_spec(Z2_X_Z4))
    cases = [(QuotientModule, N, K) for N in (Z12.as_module, M) for K in all_submodules(N).proper]
    cases += [(QuotientRing, Z12, J) for J in all_submodules(Z12.as_module).proper]
    refused = 0
    for build, base, K in cases:
        ids = true_ids(base, K.indices)
        for i in range(len(ids)):
            for rank in range(max(ids) + 2):
                if rank != ids[i]:
                    bad = ids[:i] + [rank] + ids[i + 1:]
                    monkeypatch.setattr(encodings, "coset_ids", lambda *args: list(bad))
                    with pytest.raises(InvalidConstructionError):
                        build(base, K)
                    refused += 1
    assert refused > 500


def test_a_carrier_is_built_exactly_when_it_is_closed():
    for M in (make_zmod(12).as_module, elaborate_module(parse_module_spec(Z2_X_Z4))):
        for S in _subsets(M):
            want = naive_closure_error(M, S) is None
            assert (_error(lambda: SubcarrierModule(M, S)) is None) == want, (M, S)


def _additive_span(M, x) -> list[int]:
    out, y = [M.zero], x
    while y != M.zero:
        out.append(y)
        y = M.add(y, x)
    return out


def test_row_closure_agrees_with_the_oracle_on_random_subsets():
    rng = random.Random(20261019)
    messages = set()
    checked = 0
    for M in _family() + [make_zmod(300).as_module]:
        members = all_submodules(M).members
        subsets = []
        for _ in range(3):
            subsets.append([x for x in range(M.order) if rng.random() < 0.5])
            N = rng.choice(members)
            x = rng.randrange(M.order)
            subsets.append(list(set(N.indices) ^ {x}))  # one element off a submodule
            subsets.append(list(N.indices))
            subsets.append(_additive_span(M, x))  # closed under +, maybe not scalars
        for S in subsets:
            want = naive_closure_error(M, S)
            assert _error(lambda: Submodule(M, S)) == want, (M, S)
            messages.add(want)
            checked += 1
    assert checked > 1000
    assert messages == {
        None,
        "submodule must contain 0",
        "carrier not closed under negation",
        "carrier not closed under addition",
        "carrier not closed under scalars",
    }


def test_row_closure_reads_every_scalar_row():
    """In A = Z2 x| (Z2 x Z2) over itself, with e1 = (0,(0,1)) at index 1
    and e2 = (0,(1,0)) at index 2, {0, e1, 1, 1 + e1} is closed under +
    and under e1, but e2 * 1 = e2 leaves it: only scalar row 2 sees that."""
    Z2 = make_zmod(2).as_module
    A = IdealizationRing(make_zmod(2), ProductModule(Z2, Z2))
    S = [0, 1, 4, 5]
    assert [A.describe(x) for x in S] == ["(0,(0,0))", "(0,(0,1))", "(1,(0,0))", "(1,(0,1))"]
    assert naive_closure_error(A.as_module, S) == "carrier not closed under scalars"
    assert _error(lambda: Submodule(A.as_module, S)) == "carrier not closed under scalars"


# over Z100000 the carrier [0, 1] has no tables either: its span refuses it
@pytest.mark.parametrize(
    "base", [make_zmod(6).as_module, make_zmod(300).as_module, make_zmod(100000).as_module]
)
def test_a_bad_carrier_is_an_invalid_construction(base):
    with pytest.raises(InvalidConstructionError, match="zero"):
        SubcarrierModule(base, [1, 2])
    with pytest.raises(InvalidConstructionError, match="leaves its carrier"):
        SubcarrierModule(base, [0, 1])
    with pytest.raises(InvalidConstructionError, match="not a subset"):
        SubcarrierModule(base, [0, base.order])


def test_out_of_range_hom_entries_are_invalid_constructions():
    Z12 = make_zmod(12)
    C6 = CyclicModule(Z12, 6)
    for bad in (7, 6, -1, 2.0, None):
        with pytest.raises(InvalidConstructionError, match="entry 5"):
            ModuleHom(C6, C6, [0, 1, 2, 3, 4, bad])
    Z6, P = make_zmod(6), ProductRing(make_zmod(2), make_zmod(3))
    iso = [P.pack(x % 2, x % 3) for x in range(6)]
    assert RingHom(Z6, P, iso).table == iso
    for bad in (9, 6, -1):
        table = iso[:5] + [bad]
        with pytest.raises(InvalidConstructionError, match="entry 5"):
            RingHom(Z6, P, table)
    # the range is checked before the length
    with pytest.raises(InvalidConstructionError, match="entry 0"):
        ModuleHom(C6, C6, [-1])


@pytest.mark.parametrize("base", [make_zmod(6).as_module, make_zmod(300).as_module])
def test_submodule_indices_outside_the_module_are_refused(base):
    for indices in ([0, base.order], [-1, 0], [0, 300 * 300]):
        with pytest.raises(InvalidConstructionError, match="not elements of"):
            Submodule(base, indices)


def _raw_index_entry_points():
    """name -> (entry point on one raw index, the order of the structure
    the index is read in, the largest index the entry point takes)."""
    from absorb.constructions import MultiplicativeSet
    from absorb.modules import colon_ideal, colon_submodule, cyclic_submodule

    Z12, P = make_zmod(12), ProductRing(make_zmod(2), make_zmod(3))
    N = zero_submodule(Z12.as_module)
    return {
        "span-Z12": (lambda x: span(Z12.as_module, [x]), 12, 11),
        "span-Z2xZ3": (lambda x: span(P.as_module, [x]), 6, 5),
        "cyclic_submodule": (lambda x: cyclic_submodule(P.as_module, x), 6, 5),
        "SubringOnIdempotent": (lambda x: SubringOnIdempotent(P, x), 6, 4),  # 4 = (1,1)
        "MultiplicativeSet": (lambda x: MultiplicativeSet(P, [x]), 6, 5),
        "colon_submodule": (lambda x: colon_submodule(N, x), 12, 11),
        "colon_ideal": (lambda x: colon_ideal(N, x), 12, 11),
    }


@pytest.mark.parametrize("entry", sorted(_raw_index_entry_points()))
def test_raw_indices_outside_a_structure_are_invalid_constructions(entry):
    """Each entry point that takes a raw element index refuses one outside
    its ring or module, above or below, before anything reads through it,
    and takes the largest index inside."""
    build, order, last = _raw_index_entry_points()[entry]
    for bad in (order, 40, 99, -1):
        with pytest.raises(InvalidConstructionError, match="is not an element of"):
            build(bad)
    build(last)
