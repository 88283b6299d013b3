"""Quotient and carrier structures compose their tables from their base's
rows, and homs and submodule closure are checked a row at a time: each
against its per-cell definition or its element-loop oracle, on every
quotient and carrier of the suites' family and the sweep's wide modules.

Over a tabulated base, construction checks a quotient by its projection
and a carrier by its closure alone; the full axiom kernel that these
imply runs here instead, on every derived structure the file builds."""
import functools
import random
from itertools import combinations, product, repeat

import pytest
from conftest import SWEEP_WIDE, naive_closure_error, naive_hom_error, naive_ring_hom_error

from absorb import encodings, modules
from absorb.constructions import quotient_module
from absorb.encodings import row_hom_misses
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


def _assert_axioms_hold(S):
    """The full row kernel on S, for a ring on S over itself together with
    the transpose compare for commutativity of *."""
    if isinstance(S, FiniteRing):
        S.as_module._check_axiom_rows()
        assert list(zip(*S.mul_t)) == list(map(tuple, S.mul_t)), S
    else:
        S._check_axiom_rows()


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


def test_composed_tables_equal_their_per_cell_definitions():
    counts = dict.fromkeys(DERIVED, 0)
    for S in _derived_structures():
        assert _tables(S) == _per_cell_tables(S), S
        counts[type(S)] += 1
    assert min(counts.values()) > 100, counts


def test_every_derived_structure_passes_the_full_axiom_kernel():
    """The kernel reads only a structure's tables, its zero and one, and
    its ring's tables, so structures that agree on all of these, as a
    quotient and a carrier of Z_n of one order do, are checked once."""
    checked = set()
    for S in _derived_structures():
        ring = S.one if isinstance(S, FiniteRing) else S.ring.signature
        key = (ring, *map(b"".join, _tables(S)[:2]), S.neg_t, S.zero)
        if key not in checked:
            checked.add(key)
            _assert_axioms_hold(S)
    assert len(checked) > 1500


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


def test_derived_structures_over_a_tabulated_base_skip_the_axiom_kernel(monkeypatch):
    def kernel(self):
        raise AssertionError("the axiom kernel ran")

    monkeypatch.setattr(FiniteModule, "_check_axiom_rows", kernel)
    R = make_zmod(60)
    M = R.as_module
    K = span(M, [12])
    QuotientModule(M, K)
    SubcarrierModule(M, K.indices)
    QuotientRing(R, K)
    RestrictedModule(M, SubringOnIdempotent(R, 21))
    with pytest.raises(AssertionError, match="the axiom kernel ran"):
        CyclicModule(R, 6)  # not derived: the kernel is its check
    with pytest.raises(AssertionError, match="the axiom kernel ran"):
        ProductRing(R, make_zmod(2))


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
    """Over Z200, which has no tables, the quotient checks its axioms and
    not its projection, so the projection hom reads every sum of Z200."""
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
