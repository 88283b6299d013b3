"""Finite unital modules over a FiniteRing, and their submodules.

The same canonical-index regime as for rings applies: a module element is an
index ``0 .. order-1`` and every constructor fixes a deterministic encoding.
Submodule carriers are kept both as sorted index tuples and as bit masks
(one bit per element index), which is what the predicate scanners consume.
"""
from __future__ import annotations

from itertools import product, repeat

from .encodings import CarrierCodec, CosetCodec, ProductCodec, row_hom_misses
from .errors import (
    CrossStructureError,
    InvalidConstructionError,
    InvalidOrderError,
    NotProperError,
    SizeBoundError,
    env_bound,
)
from .rings import (
    TABULATE_BOUND,
    FiniteRing,
    ProductRing,
    RingElt,
    RingHom,
    SubringOnIdempotent,
    ZMod,
    byte_rows,
    check_hom_entries,
    cyclic_rows,
    element_index,
)

# hit-row targets kept per module: a submodule's mask and the zero mask
# (for sdf's annihilator rows), with room for the previous submodule's
HIT_ROW_CACHE_SIZE = 4
# hit rows cost |R| * |M| cells; above the bound a scan is refused
DEFAULT_SCAN_BOUND = 1 << 24
_SCAN_BOUND_ENV = "ABSORB_SCAN_BOUND"


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_lut(mask: int, n: int) -> bytes:
    """The translate table of a subset of 0 .. n-1 (n <= 256): byte y is
    b"1" when bit y of ``mask`` is set, else b"0"."""
    return format(mask, f"0{n}b")[::-1].encode().ljust(256, b"0")


def preimage_mask(row: bytes, lut: bytes) -> int:
    """Mask of the positions x whose entry ``row[x]`` is in the subset of
    ``lut``: one translate, read back as a binary numeral."""
    return int(row.translate(lut)[::-1], 2)


class FiniteModule:
    """Base class for finite unital modules."""

    ring: FiniteRing
    order: int
    name: str
    zero: int
    # operation tables, set by _tabulate on small modules: bytes rows
    # add_t[i][j] = i + j and act_t[r][x] = r.x, and bytes neg_t[i] = -i
    add_t: list[bytes] | None = None
    act_t: list[bytes] | None = None
    neg_t: bytes | None = None

    def add(self, i: int, j: int) -> int:
        raise NotImplementedError

    def neg(self, i: int) -> int:
        raise NotImplementedError

    def act(self, r: int, x: int) -> int:
        raise NotImplementedError

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def describe(self, x: int) -> str:
        raise NotImplementedError

    def literal_to_index(self, lit) -> int:
        raise NotImplementedError

    @property
    def signature(self):
        raise NotImplementedError

    def _finalize(self) -> None:
        if self.order < 1:
            raise InvalidOrderError(f"{self.name}: empty carrier")
        # a ring acting on itself is its ring, which needs no other check
        if not getattr(self, "_trusted_ops", False):
            self._tabulate()
            self._check_axioms()

    def _tabulate(self) -> None:
        """Swap the structural add/act/neg for lookups in ``add_t``, ``act_t``
        and ``neg_t`` when |M| * (|M| + |R|) <= TABULATE_BOUND, which keeps
        every entry below 256."""
        nm = self.order
        if nm * (nm + self.ring.order) > TABULATE_BOUND:
            return
        add_rows, act_rows, neg_row = self._op_rows()
        self.add_t = add_t = byte_rows(add_rows, nm, self.name)
        self.act_t = act_t = byte_rows(act_rows, nm, self.name)
        self.neg_t = neg_t = byte_rows([neg_row], nm, self.name)[0]
        self.add = lambda i, j: add_t[i][j]
        self.act = lambda r, x: act_t[r][x]
        self.neg = neg_t.__getitem__
        self.sub = lambda i, j: add_t[i][neg_t[j]]

    def _op_rows(self):
        """The add rows, act rows and negation row, one structural call per
        cell: the tables of a module that has no base to read them from."""
        add, act, cols = self.add, self.act, range(self.order)
        return (
            (map(add, repeat(i), cols) for i in cols),
            (map(act, repeat(r), cols) for r in range(self.ring.order)),
            map(self.neg, cols),
        )

    def _check_axioms(self) -> None:
        """The side condition of the construction, which makes the module
        valid given its checked parts: each subclass names its own, so one
        that names none fails here.  The full axiom kernel runs in the
        tests."""
        raise NotImplementedError(f"{type(self).__name__} names no side condition")

    def elt(self, i: int) -> "ModElt":
        if not 0 <= i < self.order:
            raise CrossStructureError(f"index {i} out of range for {self.name}")
        return ModElt(self, i)

    def same_module(self, other: "FiniteModule") -> bool:
        return self is other or self.signature == other.signature

    def scalar_hit_masks(self, target_mask: int) -> tuple[int, ...]:
        """For each scalar t, the bit mask of {x : t.x lands in target_mask}.

        With tables, row t is ``act_t[t]`` translated through the target's
        membership table, one C call per scalar; other modules act per
        cell.  Raises SizeBoundError, before any action, when the |R| * |M|
        cells exceed ABSORB_SCAN_BOUND (default 2^24).

        Cache scopes: the rows are cached per module object, for the 4
        (``HIT_ROW_CACHE_SIZE``) most recently requested targets, so the
        scanners deciding several properties of one submodule build them
        once; every caller gets the same read-only tuple.  The lattice that
        ``all_submodules`` caches on a module is unbounded but lives and dies
        with that module.  ``make_zmod`` shares Z_n instances, and so their
        caches, across the whole process."""
        cache = getattr(self, "_hit_rows", None)
        if cache is None:
            cache = self._hit_rows = {}
        rows = cache.pop(target_mask, None)
        if rows is None:
            nr, nm = self.ring.order, self.order
            bound = env_bound(_SCAN_BOUND_ENV, DEFAULT_SCAN_BOUND)
            if nr * nm > bound:
                raise SizeBoundError(
                    f"{self.name}: {nr} x {nm} hit-row cells exceed {bound}; "
                    f"raise {_SCAN_BOUND_ENV}"
                )
            if self.act_t is not None:
                lut = mask_lut(target_mask, nm)
                rows = tuple(preimage_mask(row, lut) for row in self.act_t)
            else:
                act = self.act
                out = []
                for t in range(nr):
                    m = 0
                    for x in range(nm):
                        if target_mask >> act(t, x) & 1:
                            m |= 1 << x
                    out.append(m)
                rows = tuple(out)
            if len(cache) >= HIT_ROW_CACHE_SIZE:
                del cache[next(iter(cache))]  # least recently used
        cache[target_mask] = rows
        return rows

    def __repr__(self):
        return f"<module {self.name} over {self.ring.name} order={self.order}>"


class ModElt:
    __slots__ = ("module", "index")

    def __init__(self, module: FiniteModule, index: int):
        self.module = module
        self.index = index

    def _peer(self, other) -> int:
        if not isinstance(other, ModElt) or not self.module.same_module(other.module):
            raise CrossStructureError("elements belong to different modules")
        return other.index

    def __add__(self, other):
        return ModElt(self.module, self.module.add(self.index, self._peer(other)))

    def __sub__(self, other):
        return ModElt(self.module, self.module.sub(self.index, self._peer(other)))

    def __neg__(self):
        return ModElt(self.module, self.module.neg(self.index))

    def __rmul__(self, scalar):
        if not isinstance(scalar, RingElt) or not scalar.ring.same_ring(self.module.ring):
            raise CrossStructureError("scalar is not in the acting ring")
        return ModElt(self.module, self.module.act(scalar.index, self.index))

    def __eq__(self, other):
        return (
            isinstance(other, ModElt)
            and self.module.same_module(other.module)
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.module.signature, self.index))

    def __repr__(self):
        return self.module.describe(self.index)


class RingAsModule(FiniteModule):
    """A ring viewed as a module over itself (the home of ideals)."""

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self.order = ring.order
        self.name = f"{ring.name} (as module)"
        self.zero = ring.zero
        self.add = ring.add
        self.neg = ring.neg
        self.sub = ring.sub
        self.act = ring.mul
        self._trusted_ops = True
        self._finalize()

    # the ring's own tables, which Z_n builds on first use
    add_t = property(lambda self: self.ring.add_t)
    act_t = property(lambda self: self.ring.mul_t)
    neg_t = property(lambda self: self.ring.neg_t)

    def describe(self, x):
        return self.ring.describe(x)

    def literal_to_index(self, lit):
        return self.ring.literal_to_index(lit)

    @property
    def signature(self):
        return ("self", self.ring.signature)


class CyclicModule(FiniteModule):
    """Z_d with the induced Z_n action (requires d | n).  Its tables are
    Z_d's, r acting by Z_d's mul row of r mod d; tabulated, d <= 181."""

    def __init__(self, ring: ZMod, d: int):
        if not isinstance(ring, ZMod):
            raise InvalidConstructionError("cyclic modules are defined over Z_n rings")
        if d < 1 or ring.n % d != 0:
            raise InvalidConstructionError(
                f"Z_{d} is not a Z_{ring.n}-module ({d} does not divide {ring.n})"
            )
        self.ring = ring
        self.d = d
        self.order = d
        self.name = f"Z{d}"
        self.zero = 0
        self._finalize()

    def add(self, i, j):
        return (i + j) % self.d

    def neg(self, i):
        return -i % self.d

    def act(self, r, x):
        return (r * x) % self.d

    def _op_rows(self):
        add_rows, mul_rows, neg_row = cyclic_rows(self.d)
        return add_rows, [mul_rows[r % self.d] for r in range(self.ring.order)], neg_row

    def _check_axioms(self) -> None:
        """Nothing more: d | n, checked above, makes Z_d a Z_n-module."""

    def describe(self, x):
        return str(x)

    def literal_to_index(self, lit):
        if not isinstance(lit, int):
            raise InvalidConstructionError(f"{self.name}: element literal must be an integer")
        return lit % self.d

    @property
    def signature(self):
        return ("cyclic", self.ring.signature, self.d)


class ProductModule(ProductCodec, FiniteModule):
    """M1 x M2 over one common ring, diagonal action."""

    def __init__(self, m1: FiniteModule, m2: FiniteModule):
        if not m1.ring.same_ring(m2.ring):
            raise CrossStructureError("same-ring product needs identical acting rings")
        self._build(m1, m2, m1.ring)

    def _build(self, m1: FiniteModule, m2: FiniteModule, ring: FiniteRing) -> None:
        self.m1 = m1
        self.m2 = m2
        self.ring = ring
        self.name = f"({m1.name} x {m2.name})"
        self._init_pairs(m1, m2)
        self._finalize()

    def add(self, i, j):
        a1, b1 = divmod(i, self._ro)
        a2, b2 = divmod(j, self._ro)
        return self.m1.add(a1, a2) * self._ro + self.m2.add(b1, b2)

    def neg(self, i):
        a, b = divmod(i, self._ro)
        return self.m1.neg(a) * self._ro + self.m2.neg(b)

    def act(self, r, x):
        a, b = divmod(x, self._ro)
        return self.m1.act(r, a) * self._ro + self.m2.act(r, b)

    def _second_pairs(self):
        """r acts on both factors."""
        return zip(self.m1.act_t, self.m2.act_t)

    @property
    def signature(self):
        return ("prodmod", self.m1.signature, self.m2.signature)


class ProductOverProductRing(ProductModule):
    """M1 x M2 acted on componentwise by R1 x R2."""

    def __init__(self, m1: FiniteModule, m2: FiniteModule, prod_ring):
        if not isinstance(prod_ring, ProductRing):
            raise CrossStructureError("need a product ring to act componentwise")
        if not (
            prod_ring.left.same_ring(m1.ring) and prod_ring.right.same_ring(m2.ring)
        ):
            raise CrossStructureError("module factors do not match the ring factors")
        self._build(m1, m2, prod_ring)

    def act(self, r, x):
        r1, r2 = self.ring.parts(r)
        a, b = divmod(x, self._ro)
        return self.m1.act(r1, a) * self._ro + self.m2.act(r2, b)

    def _second_pairs(self):
        """(r1, r2) acts by r1 on the first factor and r2 on the second."""
        return product(self.m1.act_t, self.m2.act_t)

    @property
    def signature(self):
        return ("prodmod2", self.m1.signature, self.m2.signature)


class _DerivedModule(FiniteModule):
    """A module whose elements are elements of ``base``, cosets or a carrier,
    and whose scalars act as the base-ring elements ``_scalars``: with the
    base's tables, its own are the base's rows composed by its codec, and
    otherwise made one cell at a time."""

    base: FiniteModule
    _scalars: "range | list[int]"

    def act(self, r, x):
        return self._own(self.base.act(self._scalars[r], self._at[x]))

    def _op_rows(self):
        base = self.base
        if base.act_t is None:
            return super()._op_rows()
        return (
            self.compose(map(base.add_t.__getitem__, self._at)),
            self.compose(map(base.act_t.__getitem__, self._scalars)),
            self.compose([base.neg_t])[0],
        )


class QuotientModule(CosetCodec, _DerivedModule):
    """base / kernel, cosets indexed by rank of least representative."""

    def __init__(self, base: FiniteModule, kernel: "Submodule"):
        if not kernel.module.same_module(base):
            raise CrossStructureError("kernel is not a submodule of the base module")
        self.ring = base.ring
        self._scalars = range(base.ring.order)
        self._init_cosets(base, kernel.indices)
        self.name = f"{base.name}/K"
        self._finalize()

    def _check_axioms(self) -> None:
        """p preserves +, - and the action of every scalar."""
        base = self.base
        if base.act_t is not None:
            self._check_projection(
                ("+", base.add_t, map(self.add_t.__getitem__, self._proj)),
                ("-", [base.neg_t], [self.neg_t]),
                ("the action", base.act_t, self.act_t),
            )

    @property
    def signature(self):
        return ("quotmod", self.base.signature, self._kernel)


class SubcarrierModule(CarrierCodec, _DerivedModule):
    """A submodule carrier promoted to a module in its own right (used for
    IM, localized carriers and similar); same acting ring as the base."""

    def __init__(self, base: FiniteModule, carrier, name=None):
        self.ring = base.ring
        self._scalars = range(base.ring.order)
        self._init_carrier(base, sorted(set(carrier)))
        self.name = name or f"sub({base.name},{self.order})"
        self._finalize()

    def _check_axioms(self) -> None:
        """A carrier with tables had every entry refused outside it by
        ``byte_rows``; one without must be its own span, which costs |R|
        actions per generator and an addition per element of the span."""
        carrier = self.carrier
        if self.act_t is None and _greedy_span(self.base, carrier)[1] != mask_of(carrier):
            raise InvalidConstructionError(f"{self.name}: an operation leaves its carrier")

    @property
    def signature(self):
        return ("subcarrier", self.base.signature, tuple(self.carrier))


class ScalarRestriction(CarrierCodec, _DerivedModule):
    """An R2-module viewed as an R1-module via a hom f: R1 -> R2, r.x =
    f(r)x: the carrier of every base element, which keeps the base's
    element indices, with the act rows of the base gathered at f(r)."""

    def __init__(self, base: FiniteModule, hom: RingHom):
        if not hom.codomain.same_ring(base.ring):
            raise CrossStructureError("hom codomain must be the module's ring")
        self.hom = hom
        self.ring = hom.domain
        self._scalars = hom.table
        self._init_carrier(base, range(base.order))
        self.name = f"{base.name} via {hom.name}"
        self._finalize()

    def _check_axioms(self) -> None:
        """Nothing: f is a ring hom, which ``RingHom`` checked, so r.x =
        f(r)x makes the R2-module an R1-module."""

    @property
    def signature(self):
        return ("restricted", self.base.signature, tuple(self.hom.table))


class RestrictedModule(SubcarrierModule):
    """e*M over the idempotent subring e*R (finite localization carrier)."""

    def __init__(self, base: FiniteModule, subring):
        if not isinstance(subring, SubringOnIdempotent):
            raise InvalidConstructionError("restricted modules live over e*R subrings")
        if not subring.base.same_ring(base.ring):
            raise CrossStructureError("idempotent comes from a different ring")
        e = subring.e
        self.ring = subring
        self._scalars = subring.carrier
        self._init_carrier(base, sorted({base.act(e, x) for x in range(base.order)}))
        self.name = f"{base.ring.describe(e)}*{base.name}"
        self._finalize()

    @property
    def signature(self):
        return ("localized", self.base.signature, self.ring.e)


class Submodule:
    """A finite carrier subset closed under addition, negation and scalar
    action, with a lazily computed greedy minimal generator list."""

    __slots__ = ("module", "indices", "mask", "_generators")

    def __init__(self, module: FiniteModule, indices, *, _trusted: bool = False):
        indices = tuple(sorted(set(indices)))
        if not _trusted and indices and not 0 <= indices[0] <= indices[-1] < module.order:
            raise InvalidConstructionError(f"submodule indices are not elements of {module.name}")
        self.module = module
        self.indices = indices
        self.mask = mask_of(indices)
        self._generators = None
        if not _trusted:
            self._validate()

    def _validate(self) -> None:
        """Closure under negation, addition and scalars; the first failing
        member, in index order, names the first of these it fails.  With
        tables this is one translate per scalar, per member and for
        ``neg_t``."""
        M, mask, indices = self.module, self.mask, self.indices
        if not mask >> M.zero & 1:
            raise InvalidConstructionError("submodule must contain 0")
        if M.act_t is None:
            for a in indices:
                if not mask >> M.neg(a) & 1:
                    raise InvalidConstructionError("carrier not closed under negation")
                for b in indices:
                    if not mask >> M.add(a, b) & 1:
                        raise InvalidConstructionError("carrier not closed under addition")
                for r in range(M.ring.order):
                    if not mask >> M.act(r, a) & 1:
                        raise InvalidConstructionError("carrier not closed under scalars")
            return
        lut = mask_lut(mask, M.order)
        neg_out = mask & ~preimage_mask(M.neg_t, lut)
        scalar_out = 0
        for row in M.act_t:
            scalar_out |= mask & ~preimage_mask(row, lut)
        for a in indices:
            if neg_out >> a & 1:
                raise InvalidConstructionError("carrier not closed under negation")
            if mask & ~preimage_mask(M.add_t[a], lut):
                raise InvalidConstructionError("carrier not closed under addition")
            if scalar_out >> a & 1:
                raise InvalidConstructionError("carrier not closed under scalars")

    @property
    def order(self) -> int:
        return len(self.indices)

    def contains(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    @property
    def is_proper(self) -> bool:
        return self.order < self.module.order

    def require_proper(self) -> None:
        if not self.is_proper:
            raise NotProperError(f"submodule equals all of {self.module.name}")

    def is_ideal_carrier(self) -> bool:
        return isinstance(self.module, RingAsModule)

    @property
    def generators(self) -> tuple[int, ...]:
        """Greedy minimal generating list, in canonical index order."""
        if self._generators is None:
            self._generators = tuple(_greedy_span(self.module, self.indices)[0])
        return self._generators

    def describe(self) -> str:
        gens = ",".join(self.module.describe(g) for g in self.generators)
        return f"<{gens}>" if gens else "<0>"

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.module.same_module(other.module)
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.module.signature, self.mask))

    def __le__(self, other):
        return self.mask & ~other.mask == 0

    def __lt__(self, other):
        return self.mask != other.mask and self <= other

    def __repr__(self):
        return f"{self.describe()} in {self.module.name}"


Ideal = Submodule  # an ideal is a submodule of R viewed as a module over itself


def zero_submodule(M: FiniteModule) -> Submodule:
    return Submodule(M, (M.zero,), _trusted=True)


def full_submodule(M: FiniteModule) -> Submodule:
    return Submodule(M, range(M.order), _trusted=True)


def cyclic_mask(M: FiniteModule, x: int) -> int:
    """Bit mask of the cyclic submodule Rx: one action per scalar."""
    out = 0
    for r in range(M.ring.order):
        out |= 1 << M.act(r, x)
    return out


def _cosets(M: FiniteModule, base: int):
    """j -> mask of the coset base + j of the submodule ``base``: with
    tables, x is in it when -j + x is in base, one translate of add row -j
    through base's table; otherwise |base| additions."""
    if M.add_t is not None:
        add_t, neg_t, lut = M.add_t, M.neg_t, mask_lut(base, M.order)
        return lambda j: preimage_mask(add_t[neg_t[j]], lut)
    add, elems = M.add, indices_of(base)
    return lambda j: mask_of(add(i, j) for i in elems)


def _join(base: int, c: int, coset) -> int:
    """base + C for submodules base and C: the union of the cosets base + j
    (``coset(j)``), j in C, each coset not yet in the join added once."""
    joined = base
    for j in indices_of(c & ~base):
        if not joined >> j & 1:
            joined |= coset(j)
    return joined


def _greedy_span(M: FiniteModule, elems) -> tuple[list[int], int]:
    """The members of ``elems``, in the order given, that the span of the
    earlier ones misses, and the mask of the span of them all: {0} joined
    with Rg for each such g, which costs |R| actions and one addition per
    new element."""
    gens: list[int] = []
    mask = 1 << M.zero
    for g in elems:
        if not mask >> g & 1:
            gens.append(g)
            mask = _join(mask, cyclic_mask(M, g), _cosets(M, mask))
    return gens, mask


def span(M: FiniteModule, gens) -> Submodule:
    """Smallest submodule of M containing the given elements."""
    mask = _greedy_span(M, [_as_modelt(M, g) for g in gens])[1]
    return Submodule(M, indices_of(mask), _trusted=True)


def cyclic_submodule(M: FiniteModule, x: int) -> Submodule:
    return span(M, [x])


def _as_modelt(M: FiniteModule, x) -> int:
    if isinstance(x, ModElt):
        if not x.module.same_module(M):
            raise CrossStructureError("element from a different module")
        return x.index
    return element_index(M, x)


def colon_ideal(N: Submodule, x) -> Submodule:
    """(N :_R x) = {r in R : r.x in N}, an ideal of the acting ring."""
    M = N.module
    xi = _as_modelt(M, x)
    R = M.ring
    nmask = N.mask
    idxs = [r for r in range(R.order) if nmask >> M.act(r, xi) & 1]
    return Submodule(R.as_module, idxs, _trusted=True)


def annihilator(x: ModElt) -> Submodule:
    return colon_ideal(zero_submodule(x.module), x)


def colon_submodule(N: Submodule, r) -> Submodule:
    """(N :_M r) = {x in M : r.x in N}."""
    M = N.module
    ri = r.index if isinstance(r, RingElt) else element_index(M.ring, r)
    if isinstance(r, RingElt) and not r.ring.same_ring(M.ring):
        raise CrossStructureError("scalar from a different ring")
    nmask = N.mask
    idxs = [x for x in range(M.order) if nmask >> M.act(ri, x) & 1]
    return Submodule(M, idxs, _trusted=True)


def colon_ideal_global(N: Submodule) -> Submodule:
    """(N :_R M) = {r : r M is contained in N}."""
    M = N.module
    R = M.ring
    nmask = N.mask
    idxs = [
        r
        for r in range(R.order)
        if all(nmask >> M.act(r, x) & 1 for x in range(M.order))
    ]
    return Submodule(R.as_module, idxs, _trusted=True)


def _require_ideal(I: Submodule) -> FiniteRing:
    if not I.is_ideal_carrier():
        raise CrossStructureError("expected an ideal (submodule of R over itself)")
    return I.module.ring


def radical(I: Submodule) -> Submodule:
    """sqrt(I) = {u : u^k in I for some k >= 1}.  The power orbit of u lists
    u^1 .. u^m, and every power of u is one of them, so if a power of u is
    in I then some u^k with k <= m is.  As I is an ideal, u^m = u^(m-k) u^k
    is then in I too: u is in sqrt(I) exactly when u^m is in I."""
    R = _require_ideal(I)
    imask = I.mask
    idxs = [u for u in range(R.order) if imask >> R.power_orbit_raw(u)[2][-1] & 1]
    return Submodule(R.as_module, idxs, _trusted=True)


def sum_submodules(A: Submodule, B: Submodule) -> Submodule:
    if not A.module.same_module(B.module):
        raise CrossStructureError("submodules of different modules")
    M = A.module
    return Submodule(M, indices_of(_join(A.mask, B.mask, _cosets(M, A.mask))), _trusted=True)


def intersect_submodules(A: Submodule, B: Submodule) -> Submodule:
    if not A.module.same_module(B.module):
        raise CrossStructureError("submodules of different modules")
    return Submodule(A.module, indices_of(A.mask & B.mask), _trusted=True)


def m_radical(N: Submodule) -> Submodule:
    """Intersection of all prime submodules containing N; M itself when no
    prime submodule contains N."""
    N.require_proper()
    from .lattice import all_submodules
    from .predicates import is_prime_submodule

    M = N.module
    mask = None
    for Q in all_submodules(M).members:
        if not Q.is_proper or N.mask & ~Q.mask:
            continue
        if is_prime_submodule(Q).holds:
            mask = Q.mask if mask is None else mask & Q.mask
    if mask is None:
        return full_submodule(M)
    return Submodule(M, indices_of(mask), _trusted=True)


class ModuleHom:
    """An additive, scalar-compatible map between modules.

    With ``ring_map=None`` both modules must share the acting ring and the
    map is R-linear; otherwise it is semilinear along the given ring hom
    (map(r.x) = ring_map(r).map(x)), which covers localization maps.
    ``_trusted`` skips the additivity and linearity check, for a map its
    caller has already checked."""

    def __init__(self, domain, codomain, table, ring_map: RingHom | None = None, name="phi",
                 *, _trusted: bool = False):
        table = check_hom_entries(table, codomain, "module hom")
        if len(table) != domain.order:
            raise InvalidConstructionError("module hom table has wrong length")
        if ring_map is None:
            if not domain.ring.same_ring(codomain.ring):
                raise CrossStructureError("module hom needs a common acting ring")
            scalar = lambda r: r
        else:
            if not ring_map.domain.same_ring(domain.ring) or not ring_map.codomain.same_ring(
                codomain.ring
            ):
                raise CrossStructureError("ring map does not match the module hom")
            scalar = ring_map
        if table[domain.zero] != codomain.zero:
            raise InvalidConstructionError("module hom must send 0 to 0")
        if _trusted:
            pass  # its caller checked it
        elif domain.act_t is None or codomain.act_t is None:
            for a in range(domain.order):
                for b in range(domain.order):
                    if table[domain.add(a, b)] != codomain.add(table[a], table[b]):
                        raise InvalidConstructionError("module hom is not additive")
            for r in range(domain.ring.order):
                for a in range(domain.order):
                    if table[domain.act(r, a)] != codomain.act(scalar(r), table[a]):
                        raise InvalidConstructionError("module hom is not linear")
        else:
            # f(a + b) = f(a) + f(b) and f(rb) = r'f(b), a row at a time:
            # the codomain's row of f(a), or of r', is the image row
            add_b, act_b = codomain.add_t, codomain.act_t
            if next(row_hom_misses(table, domain.add_t, map(add_b.__getitem__, table)), None):
                raise InvalidConstructionError("module hom is not additive")
            scalars = map(scalar, range(domain.ring.order))
            if next(row_hom_misses(table, domain.act_t, map(act_b.__getitem__, scalars)), None):
                raise InvalidConstructionError("module hom is not linear")
        self.domain = domain
        self.codomain = codomain
        self.table = table
        self.ring_map = ring_map
        self.name = name

    def __call__(self, i: int) -> int:
        return self.table[i]

    def apply(self, x: ModElt) -> ModElt:
        if not x.module.same_module(self.domain):
            raise CrossStructureError("element not in the hom's domain")
        return self.codomain.elt(self.table[x.index])

    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.codomain.order

    def kernel(self) -> Submodule:
        z = self.codomain.zero
        return Submodule(
            self.domain,
            [i for i in range(self.domain.order) if self.table[i] == z],
            _trusted=True,
        )

    def image_submodule(self, N: Submodule) -> Submodule:
        if not N.module.same_module(self.domain):
            raise CrossStructureError("submodule not in the hom's domain")
        return Submodule(self.codomain, {self.table[i] for i in N.indices})

    def preimage_submodule(self, N: Submodule) -> Submodule:
        if not N.module.same_module(self.codomain):
            raise CrossStructureError("submodule not in the hom's codomain")
        return Submodule(
            self.domain,
            [i for i in range(self.domain.order) if N.contains(self.table[i])],
            _trusted=True,
        )

    def __repr__(self):
        return f"<{self.name}: {self.domain.name} -> {self.codomain.name}>"


def identity_module_hom(M: FiniteModule) -> ModuleHom:
    return ModuleHom(M, M, range(M.order), name="id")
