"""Every index encoding, pinned: one instance of each derived ring and module
constructor, hashed as its signature, zero and one, ``describe`` of every
index, its full add, mul (or act) and neg tables, and the index that
``literal_to_index`` gives back for the literal read off each ``describe``.

The digest was recorded while each construction still carried its own copy
of its encoding.  Witnesses print indices through these encodings, so any
change to how a construction numbers or names its elements changes it."""
import ast
import hashlib

from absorb.constructions import AmalgamatedModule, product_module
from absorb.modules import (
    CyclicModule,
    ModuleHom,
    ProductModule,
    QuotientModule,
    RestrictedModule,
    ScalarRestriction,
    SubcarrierModule,
    span,
)
from absorb.rings import (
    AmalgamationRing,
    IdealizationRing,
    ProductRing,
    QuotientRing,
    SubringOnIdempotent,
    make_zmod,
    reduction_hom,
)

PINNED_DIGEST = "d2a2f1cd5e361b897aee6176c5b1e8da4dbd2c6e2235a7cb94a1b111ce297f87"


def _instances():
    Z4, Z6, Z12 = make_zmod(4), make_zmod(6), make_zmod(12)
    P46 = ProductRing(Z4, Z6)
    red = reduction_hom(Z12, Z6)
    J = span(Z6.as_module, [2])
    A = AmalgamationRing(Z12, Z6, red, J)
    phi = ModuleHom(Z12.as_module, Z6.as_module, red.table, ring_map=red)
    e9 = SubringOnIdempotent(Z12, 9)
    return [
        P46,
        ProductModule(CyclicModule(Z12, 4), CyclicModule(Z12, 6)),
        product_module(Z4.as_module, CyclicModule(Z6, 3), P46),
        IdealizationRing(Z4, CyclicModule(Z4, 2)),
        QuotientRing(P46, span(P46.as_module, [P46.literal_to_index((2, 3))])),
        QuotientModule(Z12.as_module, span(Z12.as_module, [4])),
        e9,
        SubcarrierModule(Z12.as_module, range(0, 12, 3), name="(3)Z12"),
        RestrictedModule(Z12.as_module, e9),
        ScalarRestriction(Z6.as_module, red),
        A,
        AmalgamatedModule(A, Z12.as_module, Z6.as_module, phi, J),
    ]


def _literal(text):
    """The structural literal a ``describe`` string spells: pairs as tuples,
    coset brackets dropped (a coset's literal is its representative's)."""
    return ast.literal_eval(text.replace("[", "").replace("]", ""))


def _lines(S):
    n = S.order
    is_ring = hasattr(S, "mul")
    op = S.mul if is_ring else S.act
    scalars = range(n) if is_ring else range(S.ring.order)
    names = [S.describe(i) for i in range(n)]
    yield f"{type(S).__name__}|{S.signature!r}|{S.zero}|{getattr(S, 'one', None)}"
    yield "|".join(names)
    for i in range(n):
        yield " ".join(str(S.add(i, j)) for j in range(n))
    for r in scalars:
        yield " ".join(str(op(r, j)) for j in range(n))
    yield " ".join(str(S.neg(i)) for i in range(n))
    yield " ".join(str(S.literal_to_index(_literal(t))) for t in names)


def test_literals_round_trip_through_describe():
    for S in _instances():
        names = [S.describe(i) for i in range(S.order)]
        assert [S.literal_to_index(_literal(t)) for t in names] == list(range(S.order))


def test_encodings_match_the_pinned_digest():
    text = "\n".join(line for S in _instances() for line in _lines(S))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGEST


def test_encoding_spot_values():
    P46, PM, PP, ID, QR, QM, E9, SC, RM, SR, A, AM = _instances()
    assert P46.describe(P46.literal_to_index((3, 5))) == "(3,5)"
    assert P46.literal_to_index((3, 5)) == 3 * 6 + 5
    assert PP.signature[0] == "prodmod2" and PM.signature[0] == "prodmod"
    assert ID.one == 1 * 2 + 0
    assert [QR.describe(i) for i in range(QR.order)][:3] == ["[(0,0)]", "[(0,1)]", "[(0,2)]"]
    assert [QM.describe(i) for i in range(QM.order)] == ["[0]", "[1]", "[2]", "[3]"]
    assert E9.carrier == [0, 3, 6, 9] and E9.one == 3
    assert SC.describe(2) == "6" and RM.order == 4 and RM.ring is E9
    assert SR.act(7, 5) == (7 * 5) % 6
    assert A.describe(A.one) == "(1,1)" and AM.describe(AM.zero) == "(0,0)"


def test_kept_descriptions_equal_fresh_ones():
    # pair encodings keep each description once made; a second read of every
    # index must give the same text, and keep one entry per element
    for S in _instances():
        first = [S.describe(i) for i in range(S.order)]
        assert [S.describe(i) for i in range(S.order)] == first, type(S).__name__
        kept = getattr(S, "_described", None)
        if kept is not None:
            assert kept == dict(enumerate(first)), type(S).__name__
