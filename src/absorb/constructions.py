"""Ring and module constructions: quotients, products, localizations,
idealizations and amalgamations, together with transfer of submodules
along them."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .encodings import AmalgamationCodec
from .errors import (
    CrossStructureError,
    DegenerateLocalizationError,
    InvalidConstructionError,
)
from .rings import (
    AmalgamationRing,
    FiniteRing,
    IdealizationRing,
    RingHom,
    SubringOnIdempotent,
    element_index,
)
from .modules import (
    FiniteModule,
    ModuleHom,
    ProductModule,
    ProductOverProductRing,
    QuotientModule,
    RestrictedModule,
    RingAsModule,
    ScalarRestriction,
    Submodule,
    _DerivedModule,
    indices_of,
    span,
)
from .predicates import RingSubset


# ---------------------------------------------------------------- quotients


def _quotient_of(M: FiniteModule, K: Submodule) -> QuotientModule:
    cache = getattr(M, "_quot_cache", None)
    if cache is None:
        cache = M._quot_cache = {}
    if K.mask not in cache:
        cache[K.mask] = QuotientModule(M, K)
    return cache[K.mask]


def quotient_module(M: FiniteModule, K: Submodule):
    """M/K together with the projection hom.  Over a tabulated M, the
    quotient has checked its projection on rows already."""
    Q = _quotient_of(M, K)
    table = [Q.project(i) for i in range(M.order)]
    proj = ModuleHom(M, Q, table, name="proj", _trusted=M.add_t is not None)
    return Q, proj


def quotient_submodule(N: Submodule, K: Submodule) -> Submodule:
    """N/K inside M/K (requires K <= N)."""
    if K.mask & ~N.mask:
        raise InvalidConstructionError("kernel is not contained in the submodule")
    Q = _quotient_of(N.module, K)
    return Submodule(Q, {Q.project(i) for i in N.indices}, _trusted=True)


def quotient_ideal(I: Submodule, J: Submodule) -> Submodule:
    """I/J as an ideal of R/J (requires J <= I)."""
    from .rings import QuotientRing

    if J.mask & ~I.mask:
        raise InvalidConstructionError("J is not contained in I")
    QR = QuotientRing(I.module.ring, J)
    return Submodule(QR.as_module, {QR.project(i) for i in I.indices}, _trusted=True)


# ----------------------------------------------------------------- products


def product_module(m1: FiniteModule, m2: FiniteModule, ring=None) -> FiniteModule:
    """M1 x M2: over the common ring when ring is None, componentwise over a
    product ring otherwise."""
    if ring is None:
        return ProductModule(m1, m2)
    return ProductOverProductRing(m1, m2, ring)


def product_submodule(P, N1: Submodule, N2: Submodule) -> Submodule:
    """N1 x N2 inside an already-built product module P."""
    if not (N1.module.same_module(P.m1) and N2.module.same_module(P.m2)):
        raise CrossStructureError("factors do not match the product module")
    idxs = [P.pack(a, b) for a in N1.indices for b in N2.indices]
    return Submodule(P, idxs, _trusted=True)


# ------------------------------------------------------------- localization


class MultiplicativeSet:
    """A multiplicatively closed subset of R containing 1 (the closure of
    the given elements)."""

    def __init__(self, ring: FiniteRing, elements):
        self.ring = ring
        self.indices = (ring.one,)
        for e in elements:
            self.indices = self._closure_with(
                ring.literal_to_index(e) if not isinstance(e, int) else element_index(ring, e)
            )

    def _closure_with(self, g: int) -> tuple[int, ...]:
        """The closure of this closed set together with g: R is commutative,
        so it is S * {1, g, g^2, ...}, and g's power orbit lists its powers."""
        mul, closed = self.ring.mul, set(self.indices)
        for p in self.ring.power_orbit_raw(g)[2]:
            closed.update(map(mul, self.indices, repeat(p)))
        return tuple(sorted(closed))

    def extended(self, g: int) -> "MultiplicativeSet":
        """The closure of this set together with g."""
        out = MultiplicativeSet(self.ring, ())
        out.indices = self._closure_with(g)
        return out

    @property
    def product(self) -> int:
        t = self.ring.one
        for a in self.indices:
            t = self.ring.mul(t, a)
        return t

    def __repr__(self):
        body = ",".join(self.ring.describe(i) for i in self.indices)
        return f"{{{body}}}"


def saturate(N: Submodule, S: MultiplicativeSet) -> Submodule:
    """{x in M : s.x in N for some s in S}."""
    M = N.module
    if not S.ring.same_ring(M.ring):
        raise CrossStructureError("multiplicative set from a different ring")
    mask = 0
    for s in S.indices:
        for x in range(M.order):
            if N.contains(M.act(s, x)):
                mask |= 1 << x
    return Submodule(M, indices_of(mask), _trusted=True)


@dataclass
class LocalizationResult:
    """S^-1 R realized inside R: the subring e R on the stable idempotent e
    of the product of S, with the canonical map r -> r e."""

    ring: SubringOnIdempotent
    map: RingHom
    idempotent: int
    mult_set: MultiplicativeSet


def localize_ring(R: FiniteRing, S: MultiplicativeSet) -> LocalizationResult:
    if not S.ring.same_ring(R):
        raise CrossStructureError("multiplicative set from a different ring")
    t = S.product
    e = R.stable_idempotent_raw(t)
    if e == R.zero:
        raise DegenerateLocalizationError(
            "0 lies in the saturation of S; the localization collapses"
        )
    sub = SubringOnIdempotent(R, e)
    table = [sub.from_base(R.mul(e, r)) for r in range(R.order)]
    hom = RingHom(R, sub, table, name="loc")
    return LocalizationResult(sub, hom, e, S)


@dataclass
class ModuleLocalizationResult:
    module: RestrictedModule
    map: ModuleHom
    ring: LocalizationResult


def localize_module(M: FiniteModule, S: MultiplicativeSet) -> ModuleLocalizationResult:
    loc = localize_ring(M.ring, S)
    LM = RestrictedModule(M, loc.ring)
    e = loc.idempotent
    table = [LM.from_base(M.act(e, x)) for x in range(M.order)]
    hom = ModuleHom(M, LM, table, ring_map=loc.map, name="locmap")
    return ModuleLocalizationResult(LM, hom, loc)


def localize_submodule(N: Submodule, locm: ModuleLocalizationResult) -> Submodule:
    """S^-1 N inside S^-1 M: the image of N under the localization map."""
    if not N.module.same_module(locm.map.domain):
        raise CrossStructureError("submodule does not live in the localized module's base")
    return Submodule(locm.module, {locm.map(i) for i in N.indices}, _trusted=True)


# -------------------------------------------------------------- idealization


def idealization_ring(R: FiniteRing, M: FiniteModule) -> IdealizationRing:
    if not M.ring.same_ring(R):
        raise CrossStructureError("module is not over the given ring")
    return IdealizationRing(R, M)


def idealization_subset(A: IdealizationRing, I: Submodule, N: Submodule):
    """I x N inside R x M as a plain subset, plus whether it is an ideal
    (equivalent to I M contained in N)."""
    R, M = A.base, A.module
    if not (isinstance(I.module, RingAsModule) and I.module.ring.same_ring(R)):
        raise CrossStructureError("first component must be an ideal of the base ring")
    if not N.module.same_module(M):
        raise CrossStructureError("second component must be a submodule of the base module")
    idxs = [A.pack(r, x) for r in I.indices for x in N.indices]
    subset = RingSubset(A, idxs)
    is_ideal = all(
        N.contains(M.act(r, x)) for r in I.indices for x in range(M.order)
    )
    return subset, is_ideal


def idealization_ideal(A: IdealizationRing, I: Submodule, N: Submodule) -> Submodule:
    subset, is_ideal = idealization_subset(A, I, N)
    if not is_ideal:
        raise InvalidConstructionError(
            "I x N is not an ideal of the idealization (I M is not inside N)"
        )
    return Submodule(A.as_module, subset.indices, _trusted=True)


# -------------------------------------------------------------- amalgamation


def amalgamation_ring(R1, R2, hom: RingHom, J: Submodule) -> AmalgamationRing:
    return AmalgamationRing(R1, R2, hom, J)


def j_scaled_carrier(J: Submodule, M2: FiniteModule) -> tuple[int, ...]:
    """The carrier of J M2 = {sum of j.y} inside M2."""
    seeds = {M2.act(j, y) for j in J.indices for y in range(M2.order)}
    return span(M2, seeds).indices


class AmalgamatedModule(AmalgamationCodec, _DerivedModule):
    """M1 join M2 along phi over the amalgamated ring: elements
    (x1, phi(x1) + y) with y in J M2, acted on componentwise.  A carrier of
    M1 x M2 over R1 x R2 (``base``), with the amalgamated ring's elements
    as its scalars: phi is semilinear along f and J M2 a submodule, so it
    is closed, and ``byte_rows`` refuses any entry outside it."""

    def __init__(self, A: AmalgamationRing, M1: FiniteModule, M2: FiniteModule,
                 phi: ModuleHom, J: Submodule):
        if not M1.ring.same_ring(A.r1) or not M2.ring.same_ring(A.r2):
            raise CrossStructureError("module factors do not match the amalgamated ring")
        if not (phi.domain.same_module(M1) and phi.codomain.same_module(M2)):
            raise CrossStructureError("hom does not map M1 into M2")
        if phi.ring_map is None or phi.ring_map.table != A.hom.table:
            raise InvalidConstructionError(
                "the module hom must be semilinear along the ring amalgamation hom"
            )
        self.A = A
        self.m1 = M1
        self.m2 = M2
        self.phi = phi
        self.ring = A
        self._scalars = A.carrier
        self.name = f"{M1.name} amalg {M2.name}"
        self._init_amalgam(ProductOverProductRing(M1, M2, A.base), phi, j_scaled_carrier(J, M2))
        self._finalize()

    @property
    def signature(self):
        return (
            "amalgmod",
            self.A.signature,
            self.m1.signature,
            self.m2.signature,
            tuple(self.phi.table),
        )


def amalgamated_module(A, M1, M2, phi, J) -> AmalgamatedModule:
    return AmalgamatedModule(A, M1, M2, phi, J)


def amalg_submodule_n1(AM: AmalgamatedModule, N1: Submodule) -> Submodule:
    """N1 join M2 = {(x1, phi(x1)+y) : x1 in N1, y in J M2}."""
    if not N1.module.same_module(AM.m1):
        raise CrossStructureError("N1 is not a submodule of the first factor")
    idxs = [AM.pack(x1, AM.m2.add(AM.phi(x1), y)) for x1 in N1.indices for y in AM.offsets]
    return Submodule(AM, idxs, _trusted=True)


def amalg_submodule_n2(AM: AmalgamatedModule, N2: Submodule) -> Submodule:
    """{(x1, x2) in the amalgamated module : x2 in N2}."""
    if not N2.module.same_module(AM.m2):
        raise CrossStructureError("N2 is not a submodule of the second factor")
    idxs = [i for i in range(AM.order) if N2.contains(AM.parts(i)[1])]
    return Submodule(AM, idxs)


# ------------------------------------------------------- scalar restriction


def restrict_scalars(M: FiniteModule, hom: RingHom) -> ScalarRestriction:
    return ScalarRestriction(M, hom)
