"""Quotient and carrier structures compose their tables from their base's
rows, and homs and submodule closure are checked a row at a time: each
against its per-cell definition or its element-loop oracle, on every
quotient and carrier of the suites' family and the sweep's wide modules."""
import random
from itertools import repeat

import pytest
from conftest import SWEEP_WIDE, naive_closure_error, naive_hom_error

from absorb.constructions import quotient_module
from absorb.errors import InvalidConstructionError
from absorb.lattice import all_submodules
from absorb.modules import (
    CyclicModule,
    FiniteModule,
    ModuleHom,
    ProductModule,
    QuotientModule,
    RestrictedModule,
    SubcarrierModule,
    Submodule,
    span,
)
from absorb.rings import (
    FiniteRing,
    IdealizationRing,
    ProductRing,
    QuotientRing,
    RingHom,
    SubringOnIdempotent,
    ZMod,
    make_zmod,
)
from absorb.specdsl import elaborate_module, parse_module_spec
from absorb.suites import default_family, zn_family


DERIVED = (QuotientModule, SubcarrierModule, RestrictedModule, QuotientRing, SubringOnIdempotent)


def _family():
    return list(default_family()) + [elaborate_module(parse_module_spec(s)) for s in SWEEP_WIDE]


def _per_cell_tables(S):
    """S's tables by their definitions: ``own[base.op(a, b)]`` over the base
    elements a, b that S's elements stand for."""
    base = S.base
    if isinstance(S, (QuotientModule, QuotientRing)):
        at, own = [S.representative(i) for i in range(S.order)], S.project
    else:
        at, own = S.carrier, {c: k for k, c in enumerate(S.carrier)}.__getitem__

    def rows(op, firsts):
        return [bytes(map(own, map(op, repeat(a), at))) for a in firsts]

    if isinstance(S, FiniteRing):
        second = rows(base.mul, at)
    elif isinstance(S, RestrictedModule):
        second = rows(base.act, S.ring.carrier)
    else:
        second = rows(base.act, range(S.ring.order))
    return rows(base.add, at), second, bytes(map(own, map(base.neg, at)))


def _tables(S):
    return S.add_t, (S.mul_t if isinstance(S, FiniteRing) else S.act_t), S.neg_t


def _unchecked(cls):
    """``cls`` without its axiom check, which other tests cover: these build
    thousands of structures only to read their tables."""
    return type(cls.__name__, (cls,), {"_check_axioms": lambda self: None})


def test_composed_tables_equal_their_per_cell_definitions():
    QuotientModule, SubcarrierModule, RestrictedModule, QuotientRing, SubringOnIdempotent = map(
        _unchecked, DERIVED
    )
    counts = dict.fromkeys(DERIVED, 0)
    rings = {}
    modules = [M for M in _family() if M.act_t is not None]
    for M in modules:
        rings.setdefault(M.ring.signature, M.ring)
        lat = all_submodules(M)
        for S in [QuotientModule(M, K) for K in lat.proper] + [
            SubcarrierModule(M, P.indices) for P in lat.members
        ]:
            assert _tables(S) == _per_cell_tables(S), S
            counts[type(S).__base__] += 1
    for R in rings.values():
        if R.add_t is None:
            continue
        structures = [QuotientRing(R, J) for J in all_submodules(R.as_module).proper]
        for e in range(R.order):
            if e != R.zero and R.mul(e, e) == e:
                sub = SubringOnIdempotent(R, e)
                structures.append(sub)
                structures += [
                    RestrictedModule(M, sub) for M in modules if M.ring.same_ring(R)
                ]
        for S in structures:
            assert _tables(S) == _per_cell_tables(S), S
            counts[type(S).__base__] += 1
    assert min(counts.values()) > 100, counts


def test_structures_over_an_untabulated_base_tabulate_per_cell():
    Z300 = make_zmod(300).as_module
    assert Z300.act_t is None
    for S in (QuotientModule(Z300, span(Z300, [12])), SubcarrierModule(Z300, range(0, 300, 10))):
        assert S.act_t is not None and _tables(S) == _per_cell_tables(S)


def test_tabulated_bases_are_never_read_per_cell(monkeypatch):
    def per_cell(self):
        raise AssertionError("tabulated one cell at a time")

    monkeypatch.setattr(FiniteModule, "_op_rows", per_cell)
    monkeypatch.setattr(FiniteRing, "_op_rows", per_cell)
    R = make_zmod(60)
    M = R.as_module
    K = span(M, [12])
    QuotientModule(M, K)
    SubcarrierModule(M, K.indices)
    QuotientRing(R, K)
    RestrictedModule(M, SubringOnIdempotent(R, 21))
    with pytest.raises(AssertionError, match="one cell at a time"):
        CyclicModule(R, 6)  # no base: the per-cell rows are its only ones


def test_row_checks_never_call_the_structural_operations():
    R = ZMod(60)  # private: its module's operations are replaced
    M = R.as_module

    def boom(*args):
        raise AssertionError("an element operation ran")

    Q, proj = quotient_module(M, span(M, [12]))
    M.add = M.act = M.neg = boom
    ModuleHom(M, Q, proj.table)
    Submodule(M, span(make_zmod(60).as_module, [12]).indices)


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


@pytest.mark.parametrize("base", [make_zmod(6).as_module, make_zmod(300).as_module])
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
