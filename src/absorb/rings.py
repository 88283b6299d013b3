"""Finite commutative rings with identity.

Every ring addresses its elements by canonical indices ``0 .. order-1``
(mixed-radix over the constructor tree), so that witnesses printed by the
checkers are reproducible across runs.  Ring values are immutable after
construction; every operation is a pure function of its inputs.
"""
from __future__ import annotations

import functools
from itertools import product, repeat
from math import gcd

from .encodings import (
    AmalgamationCodec,
    CarrierCodec,
    CosetCodec,
    PairCodec,
    ProductCodec,
    coset_ids,
    row_hom_misses,
)
from .errors import (
    CrossStructureError,
    InvalidConstructionError,
    InvalidOrderError,
)

TABULATE_BOUND = 65536


def byte_rows(rows, n: int, name: str) -> list[bytes]:
    """The table ``rows`` (iterables of element indices) as bytes rows,
    every entry checked, once, to be an index 0 .. n-1: deleting those
    indices from all rows at once must leave nothing."""
    try:
        table = [bytes(row) for row in rows]
    except ValueError:  # an entry outside 0 .. 255
        table = None
    if table is None or b"".join(table).translate(None, bytes(range(n))):
        raise InvalidConstructionError(f"{name}: an operation leaves its carrier")
    return table


def cyclic_rows(n: int) -> tuple[list[bytes], list[bytes], bytes]:
    """The add rows, mul rows and negation row of Z/nZ, n <= 256: row i of
    the add table is 0 .. n-1 rotated by i, and row i of the mul table
    every i-th entry of i copies of 0 .. n-1, n^2 entries in O(n) C calls.
    n = 1 gives the rows of the zero module."""
    cyc = bytes(range(n))
    twice = cyc + cyc
    return (
        [twice[i:i + n] for i in range(n)],
        [bytes(n)] + [(cyc * i)[::i] for i in range(1, n)],
        bytes(-i % n for i in range(n)),
    )


def element_index(S, x) -> int:
    """``x`` as an element index of the ring or module ``S``, refused
    unless 0 <= x < |S|."""
    i = int(x)
    if not 0 <= i < S.order:
        raise InvalidConstructionError(f"{x!r} is not an element of {S.name}")
    return i


def check_hom_entries(table, codomain, what: str) -> list[int]:
    """The entries of a hom table as a list, each checked to be an element
    index of ``codomain`` before anything reads through it."""
    table = list(table)
    for i, y in enumerate(table):
        if not (isinstance(y, int) and 0 <= y < codomain.order):
            raise InvalidConstructionError(
                f"{what} table entry {i} is {y!r}, not an element of {codomain.name}"
            )
    return table


class FiniteRing:
    """Base class; subclasses provide index arithmetic and set zero/one."""

    order: int
    name: str
    zero: int
    one: int
    # operation tables, set by _tabulate (None above 256 elements): bytes
    # rows add_t[i][j] = i + j and mul_t[i][j] = ij, and bytes neg_t[i] = -i
    add_t: list[bytes] | None
    mul_t: list[bytes] | None
    neg_t: bytes | None

    def add(self, i: int, j: int) -> int:
        raise NotImplementedError

    def mul(self, i: int, j: int) -> int:
        raise NotImplementedError

    def neg(self, i: int) -> int:
        raise NotImplementedError

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def describe(self, i: int) -> str:
        raise NotImplementedError

    def literal_to_index(self, lit) -> int:
        """Map a structural literal (int, or nested pair tuple) to an index."""
        raise NotImplementedError

    @property
    def signature(self):
        """Structural identity; two rings with equal signatures are the same
        construction and their indices are interchangeable."""
        raise NotImplementedError

    # -- shared machinery -------------------------------------------------

    def _finalize(self) -> None:
        if self.order < 2 or self.zero == self.one:
            raise InvalidOrderError(f"{self.name}: need 1 != 0")
        self._orbit_cache: dict[int, tuple[int, int, tuple[int, ...]]] = {}
        self._unit_classes: tuple[list[int], tuple[int, ...], tuple[int, ...]] | None = None
        self._as_module = None
        # direct modular arithmetic needs no check (the test suite verifies it)
        if not getattr(self, "_trusted_ops", False):
            self._tabulate()
            if self.add_t is not None:  # lookups for element-by-element callers
                add_t, mul_t, neg_t = self.add_t, self.mul_t, self.neg_t
                self.add = lambda i, j: add_t[i][j]
                self.mul = lambda i, j: mul_t[i][j]
                self.neg = neg_t.__getitem__
                self.sub = lambda i, j: add_t[i][neg_t[j]]
            self._check_axioms()

    def _tabulate(self) -> None:
        """Set ``add_t``, ``mul_t`` and ``neg_t`` when the ring has at most
        256 elements (n^2 <= TABULATE_BOUND), else None."""
        n = self.order
        tables = None, None, None
        if n * n <= TABULATE_BOUND:
            add_rows, mul_rows, neg_row = self._op_rows()
            tables = (
                byte_rows(add_rows, n, self.name),
                byte_rows(mul_rows, n, self.name),
                byte_rows([neg_row], n, self.name)[0],
            )
        self.add_t, self.mul_t, self.neg_t = tables

    def _op_rows(self):
        """The add rows, mul rows and negation row, one structural call per
        cell: the tables of a ring that has no base to read them from."""
        add, mul, cols = self.add, self.mul, range(self.order)
        return (
            (map(add, repeat(i), cols) for i in cols),
            (map(mul, repeat(i), cols) for i in cols),
            map(self.neg, cols),
        )

    def _check_axioms(self) -> None:
        """The side condition of the construction, which makes the ring
        valid given its checked parts: each subclass names its own, so one
        that names none fails here.  The full axiom kernel runs in the
        tests."""
        raise NotImplementedError(f"{type(self).__name__} names no side condition")

    def elt(self, i: int) -> "RingElt":
        if not 0 <= i < self.order:
            raise CrossStructureError(f"index {i} out of range for {self.name}")
        return RingElt(self, i)

    def power_orbit_raw(self, t: int) -> tuple[int, int, tuple[int, ...]]:
        """(preperiod, period, distinct powers t^1..t^(pre+per-1))."""
        cached = self._orbit_cache.get(t)
        if cached is not None:
            return cached
        seen: dict[int, int] = {}
        seq: list[int] = []
        p, k = t, 1
        while p not in seen:
            seen[p] = k
            seq.append(p)
            p = self.mul(p, t)
            k += 1
        pre = seen[p]
        result = (pre, k - pre, tuple(seq))
        self._orbit_cache[t] = result
        return result

    def stable_idempotent_raw(self, t: int) -> int:
        pre, _, seq = self.power_orbit_raw(t)
        for e in seq[pre - 1:]:
            if self.mul(e, e) == e:
                return e
        raise AssertionError("finite power orbit cycle must contain an idempotent")

    def unit_classes(self) -> tuple[list[int], tuple[int, ...], tuple[int, ...]]:
        """The associate classes of R, t ~ wt for a unit w, as ``(ids, reps,
        meets)``, cached on the ring: ``ids[t]`` is the class of t, classes
        numbered by their least member; ``reps`` those least members, in
        ascending order; and ``meets[A]`` the mask of the classes B such that
        some coset of 2R meets both A and B.  That is exactly when the class
        pair (A, B) occurs as ([u - v], [u + v]) for some u >= v: s - d = 2v
        is solved by u = d + v, and -1 is a unit."""
        if self._unit_classes is None:
            ids, reps = self._class_ids(), []
            for t, c in enumerate(ids):
                if c == len(reps):
                    reps.append(t)
            coset = coset_ids(self, {self.add(r, r) for r in range(self.order)})
            in_coset = [0] * (max(coset) + 1)
            for t, c in enumerate(ids):
                in_coset[coset[t]] |= 1 << c
            meets = [0] * len(reps)
            for t, c in enumerate(ids):
                meets[c] |= in_coset[coset[t]]
            self._unit_classes = ids, tuple(reps), tuple(meets)
        return self._unit_classes

    def _class_ids(self) -> list[int]:
        """The class id of each element: each element not yet classed opens
        the next class, its products with every unit.  A unit is an element
        w with 1 among its powers."""
        n, mul = self.order, self.mul
        units = [w for w in range(n) if self.one in self.power_orbit_raw(w)[2]]
        ids = [-1] * n
        count = 0
        for t in range(n):
            if ids[t] < 0:
                for w in units:
                    ids[mul(w, t)] = count
                count += 1
        return ids

    def units_raw(self) -> frozenset[int]:
        """The units: the class of 1."""
        ids = self.unit_classes()[0]
        return frozenset(t for t, c in enumerate(ids) if c == ids[self.one])

    def is_unit(self, i: int) -> bool:
        ids = self.unit_classes()[0]
        return ids[i] == ids[self.one]

    @property
    def as_module(self):
        """The ring viewed as a module over itself (cached)."""
        if self._as_module is None:
            from .modules import RingAsModule

            self._as_module = RingAsModule(self)
        return self._as_module

    def same_ring(self, other: "FiniteRing") -> bool:
        return self is other or self.signature == other.signature

    def __repr__(self):
        return f"<ring {self.name} order={self.order}>"


class RingElt:
    """A ring element: an index plus its owning ring."""

    __slots__ = ("ring", "index")

    def __init__(self, ring: FiniteRing, index: int):
        self.ring = ring
        self.index = index

    def _peer(self, other) -> int:
        if not isinstance(other, RingElt) or not self.ring.same_ring(other.ring):
            raise CrossStructureError("elements belong to different rings")
        return other.index

    def __add__(self, other):
        return RingElt(self.ring, self.ring.add(self.index, self._peer(other)))

    def __sub__(self, other):
        return RingElt(self.ring, self.ring.sub(self.index, self._peer(other)))

    def __mul__(self, other):
        return RingElt(self.ring, self.ring.mul(self.index, self._peer(other)))

    def __neg__(self):
        return RingElt(self.ring, self.ring.neg(self.index))

    def __pow__(self, k: int):
        if k < 1:
            raise ValueError("powers start at k = 1")
        acc = self.index
        for _ in range(k - 1):
            acc = self.ring.mul(acc, self.index)
        return RingElt(self.ring, acc)

    def __eq__(self, other):
        return (
            isinstance(other, RingElt)
            and self.ring.same_ring(other.ring)
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.ring.signature, self.index))

    def __repr__(self):
        return self.ring.describe(self.index)


class _TabulatedOnFirstRead:
    """A table attribute of Z_n: the first read runs ``_tabulate``, which
    stores all three tables on the ring, where later reads find them.  The
    stored table is read back by ``getattr``, not through ``__dict__``:
    taking an instance's ``__dict__`` makes CPython keep a separate dict
    for it, and every later ``self.n`` in ``add`` or ``mul`` slower."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, ring, owner=None):
        if ring is None:
            return self
        ring._tabulate()
        return getattr(ring, self.name)


class ZMod(FiniteRing):
    """Z/nZ with elements 0..n-1."""

    # Z_n tabulates itself on first use, never at construction: ``classify``
    # makes Z_n for every n up to its bound and reads no table
    add_t, mul_t, neg_t = _TabulatedOnFirstRead(), _TabulatedOnFirstRead(), _TabulatedOnFirstRead()

    def __init__(self, n: int):
        if n < 2:
            raise InvalidOrderError(f"Z_{n} is not a nonzero ring")
        self.n = n
        self.order = n
        self.name = f"Z{n}"
        self.zero = 0
        self.one = 1
        self._trusted_ops = True
        self._finalize()

    def add(self, i, j):
        return (i + j) % self.n

    def mul(self, i, j):
        return (i * j) % self.n

    def neg(self, i):
        return -i % self.n

    def sub(self, i, j):
        return (i - j) % self.n

    def _tabulate(self) -> None:
        """The rows of ``cyclic_rows``.  A subclass with arithmetic of its
        own is tabulated, and range-checked, from its operations."""
        n, cls = self.n, type(self)
        if n > 256 or (cls.add, cls.mul, cls.neg) != (ZMod.add, ZMod.mul, ZMod.neg):
            super()._tabulate()
            return
        self.add_t, self.mul_t, self.neg_t = cyclic_rows(n)

    def _class_ids(self) -> list[int]:
        """t and s are associates in Z_n exactly when gcd(t, n) = gcd(s, n),
        and the least member of the class of divisor d < n is d itself (0
        for d = n): no table and no product is needed."""
        n = self.n
        g = [gcd(t, n) for t in range(n)]
        rank = {d: k for k, d in enumerate(sorted(set(g), key=lambda d: d % n))}
        return [rank[d] for d in g]

    def describe(self, i):
        return str(i)

    def literal_to_index(self, lit):
        if not isinstance(lit, int):
            raise InvalidConstructionError(f"{self.name}: element literal must be an integer")
        return lit % self.n

    @property
    def signature(self):
        return ("zmod", self.n)


class ProductRing(ProductCodec, FiniteRing):
    """Componentwise product; index = left * |right| + right."""

    def __init__(self, left: FiniteRing, right: FiniteRing):
        self.left = left
        self.right = right
        self.name = f"({left.name} x {right.name})"
        self._init_pairs(left, right)
        self.one = self.pack(left.one, right.one)
        self._finalize()

    def add(self, i, j):
        a1, b1 = divmod(i, self._ro)
        a2, b2 = divmod(j, self._ro)
        return self.left.add(a1, a2) * self._ro + self.right.add(b1, b2)

    def mul(self, i, j):
        a1, b1 = divmod(i, self._ro)
        a2, b2 = divmod(j, self._ro)
        return self.left.mul(a1, a2) * self._ro + self.right.mul(b1, b2)

    def neg(self, i):
        a, b = divmod(i, self._ro)
        return self.left.neg(a) * self._ro + self.right.neg(b)

    def _second_pairs(self):
        return product(self.left.mul_t, self.right.mul_t)

    @property
    def signature(self):
        return ("product", self.left.signature, self.right.signature)


class _DerivedRing(FiniteRing):
    """A ring whose elements are elements of ``base``, cosets or a carrier:
    with the base's tables, its own are the base's rows composed by its
    codec, and otherwise made one cell at a time."""

    base: FiniteRing

    def mul(self, i, j):
        return self._own(self.base.mul(self._at[i], self._at[j]))

    def _op_rows(self):
        base = self.base
        if base.add_t is None:
            return super()._op_rows()
        at = self._at
        return (
            self.compose(map(base.add_t.__getitem__, at)),
            self.compose(map(base.mul_t.__getitem__, at)),
            self.compose([base.neg_t])[0],
        )


class QuotientRing(CosetCodec, _DerivedRing):
    """base / ideal; elements are cosets indexed by rank of their least
    representative."""

    def __init__(self, base: FiniteRing, ideal):
        if not getattr(ideal, "is_ideal_carrier", lambda: False)():
            raise InvalidConstructionError("quotient modulus must be an ideal of the base ring")
        if not base.same_ring(ideal.module.ring):
            raise CrossStructureError("ideal does not belong to the base ring")
        self._init_cosets(base, ideal.indices)
        self.name = f"{base.name}/({len(ideal.indices)} elts)"
        self.one = self._proj[base.one]
        if self.order < 2:
            raise InvalidOrderError("quotient by the full ring is the zero ring")
        if self.one == self.zero:  # the zero coset is the modulus
            raise InvalidConstructionError("a proper subset holding 1 is not an ideal")
        self._finalize()

    def _check_axioms(self) -> None:
        """p preserves + and *; then it preserves - too, as p(a) + p(-a) =
        p(0)."""
        base = self.base
        if base.add_t is not None:
            self._check_projection(
                ("+", base.add_t, map(self.add_t.__getitem__, self._proj)),
                ("*", base.mul_t, map(self.mul_t.__getitem__, self._proj)),
            )

    @property
    def signature(self):
        return ("quotient", self.base.signature, self._kernel)


class SubringOnIdempotent(CarrierCodec, _DerivedRing):
    """The ring e*base for an idempotent e, with identity e."""

    def __init__(self, base: FiniteRing, e: int):
        e = element_index(base, e)
        if base.mul(e, e) != e:
            raise InvalidConstructionError("subring carrier needs an idempotent element")
        if e == base.zero:
            raise InvalidOrderError("idempotent 0 gives the zero ring")
        self.e = e
        self._init_carrier(base, sorted({base.mul(e, i) for i in range(base.order)}))
        self.name = f"{base.describe(e)}*{base.name}"
        self.one = self._pos[e]
        self._finalize()

    @property
    def signature(self):
        return ("idempotent-subring", self.base.signature, self.e)


class IdealizationRing(PairCodec, FiniteRing):
    """Trivial extension of a ring by a module: carrier R x M with
    (u,x)(v,y) = (uv, uy + vx); index = r * |M| + m.  With the tables of R
    and M, its own are read off their rows."""

    def __init__(self, base: FiniteRing, module):
        if not base.same_ring(module.ring):
            raise CrossStructureError("module must be over the base ring")
        self.base = base
        self.module = module
        self.name = f"{base.name}|x{module.name}"
        self._init_pairs(base, module)
        self.one = self.pack(base.one, module.zero)
        self._finalize()

    def add(self, i, j):
        r1, m1 = divmod(i, self._ro)
        r2, m2 = divmod(j, self._ro)
        return self.base.add(r1, r2) * self._ro + self.module.add(m1, m2)

    def sub(self, i, j):
        r1, m1 = divmod(i, self._ro)
        r2, m2 = divmod(j, self._ro)
        return self.base.sub(r1, r2) * self._ro + self.module.sub(m1, m2)

    def mul(self, i, j):
        r1, m1 = divmod(i, self._ro)
        r2, m2 = divmod(j, self._ro)
        m = self.module.add(self.module.act(r1, m2), self.module.act(r2, m1))
        return self.base.mul(r1, r2) * self._ro + m

    def neg(self, i):
        r, m = divmod(i, self._ro)
        return self.base.neg(r) * self._ro + self.module.neg(m)

    def _op_rows(self):
        """+ and - pair R's rows with M's.  (u,x)(v,y) = (uv, vx) + (0, uy),
        so block v of the * row of (u, x) is M's act row of u, the entries
        (0, uy), read through the add row of (uv, vx)."""
        R, M = self.base, self.module
        if R.add_t is None or M.act_t is None:
            return super()._op_rows()
        add_rows = self.pair_rows(product(R.add_t, M.add_t))
        through = [row.ljust(256, b"\0") for row in add_rows]
        columns = list(zip(*M.act_t))  # columns[x][v] = vx
        join, nm = b"".join, self._ro
        mul_rows = [
            join([act_u(through[s * nm + w]) for s, w in zip(products, vx)])
            for products, act_u in zip(R.mul_t, (row.translate for row in M.act_t))
            for vx in columns
        ]
        return add_rows, mul_rows, self.pair_rows([(R.neg_t, M.neg_t)])[0]

    def _check_axioms(self) -> None:
        """Nothing more: R x M with this * is a commutative ring for every
        R-module M, which ``__init__`` checked M to be."""

    @property
    def signature(self):
        return ("idealization", self.base.signature, self.module.signature)


class AmalgamationRing(AmalgamationCodec, _DerivedRing):
    """Subring {(u, f(u)+j) : u in R1, j in J} of R1 x R2, a carrier of the
    product ring ``base``: f is a ring hom and J an ideal, so it is closed,
    and ``byte_rows`` refuses any entry outside it."""

    def __init__(self, r1: FiniteRing, r2: FiniteRing, hom: "RingHom", j_ideal):
        if not hom.domain.same_ring(r1) or not hom.codomain.same_ring(r2):
            raise CrossStructureError("hom must map R1 to R2")
        if not getattr(j_ideal, "is_ideal_carrier", lambda: False)():
            raise InvalidConstructionError("amalgamation needs an ideal of R2")
        if not j_ideal.module.ring.same_ring(r2):
            raise CrossStructureError("J must be an ideal of R2")
        self.r1 = r1
        self.r2 = r2
        self.hom = hom
        self.name = f"{r1.name}|><|{r2.name}"
        self._init_amalgam(ProductRing(r1, r2), hom, j_ideal.indices)
        self.one = self.pack(r1.one, hom(r1.one))
        self._finalize()

    @property
    def signature(self):
        return (
            "amalgamation",
            self.r1.signature,
            self.r2.signature,
            tuple(self.hom.table),
            self.offsets,
        )


class RingHom:
    """A unital ring homomorphism given by an index table; verified at
    construction."""

    def __init__(self, domain: FiniteRing, codomain: FiniteRing, table, name="f"):
        table = check_hom_entries(table, codomain, "hom")
        if len(table) != domain.order:
            raise InvalidConstructionError("hom table has wrong length")
        if table[domain.zero] != codomain.zero or table[domain.one] != codomain.one:
            raise InvalidConstructionError("hom must send 0 to 0 and 1 to 1")
        if domain.add_t is None or codomain.add_t is None:
            for a in range(domain.order):
                for b in range(domain.order):
                    if table[domain.add(a, b)] != codomain.add(table[a], table[b]):
                        raise InvalidConstructionError("hom is not additive")
                    if table[domain.mul(a, b)] != codomain.mul(table[a], table[b]):
                        raise InvalidConstructionError("hom is not multiplicative")
        else:
            # the first failing (a, b) of the loop above, the sum's on a tie
            add_b, mul_b = codomain.add_t, codomain.mul_t
            add = next(row_hom_misses(table, domain.add_t, map(add_b.__getitem__, table)), None)
            mul = next(row_hom_misses(table, domain.mul_t, map(mul_b.__getitem__, table)), None)
            if add is not None and (mul is None or add <= mul):
                raise InvalidConstructionError("hom is not additive")
            if mul is not None:
                raise InvalidConstructionError("hom is not multiplicative")
        self.domain = domain
        self.codomain = codomain
        self.table = table
        self.name = name

    def __call__(self, i: int) -> int:
        return self.table[i]

    def apply(self, x: RingElt) -> RingElt:
        if not x.ring.same_ring(self.domain):
            raise CrossStructureError("element is not in the hom's domain")
        return self.codomain.elt(self.table[x.index])

    def __repr__(self):
        return f"<{self.name}: {self.domain.name} -> {self.codomain.name}>"


def identity_hom(ring: FiniteRing) -> RingHom:
    return RingHom(ring, ring, range(ring.order), name="id")


def reduction_hom(src: ZMod, dst: ZMod) -> RingHom:
    """The canonical map Z_m -> Z_n, defined when n divides m."""
    if not isinstance(src, ZMod) or not isinstance(dst, ZMod):
        raise InvalidConstructionError("reduction maps exist between Z_n rings only")
    if src.n % dst.n != 0:
        raise InvalidConstructionError(f"no reduction Z_{src.n} -> Z_{dst.n}")
    return RingHom(src, dst, [i % dst.n for i in range(src.n)], name="redmap")


# -- convenience wrappers --------------------------------------------------


@functools.lru_cache(maxsize=None)
def make_zmod(n: int) -> ZMod:
    """Shared Z_n instances (rings are immutable, so reuse keeps caches of
    orbits, unit classes, and lattices warm)."""
    return ZMod(n)


def product_ring(r1: FiniteRing, r2: FiniteRing) -> ProductRing:
    return ProductRing(r1, r2)


def units(r: FiniteRing) -> set[RingElt]:
    return {r.elt(u) for u in r.units_raw()}

