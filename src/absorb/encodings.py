"""The index encodings that derived rings and modules share.

Each class here owns one way of numbering the elements of a construction
built from other structures, for rings and modules alike: how an index is
packed and unpacked, described, and read from a literal.  A pair structure
reads its tables off its parts' rows (``PairCodec.pair_rows``).  The codecs
whose elements are base elements compose their tables from the base's rows,
check what their derivation can break, and give the one set of element
operations that a derived structure over an untabulated base uses."""
from __future__ import annotations

from itertools import product
from operator import itemgetter

from .errors import InvalidConstructionError


class PairCodec:
    """Pairs (a, b) of two factor structures at index a * |second| + b."""

    def _init_pairs(self, first, second) -> None:
        self._first = first
        self._second = second
        self._described: dict[int, str] = {}
        self._ro = second.order
        self.order = first.order * second.order
        self.zero = self.pack(first.zero, second.zero)

    def pack(self, a: int, b: int) -> int:
        return a * self._ro + b

    def parts(self, i: int) -> tuple[int, int]:
        return divmod(i, self._ro)

    def describe(self, i: int) -> str:
        """``(a,b)``, kept once made: the witnesses of one module name the
        same few elements again and again."""
        text = self._described.get(i)
        if text is None:
            a, b = self.parts(i)
            text = self._described[i] = f"({self._first.describe(a)},{self._second.describe(b)})"
        return text

    def literal_to_index(self, lit) -> int:
        if not (isinstance(lit, tuple) and len(lit) == 2):
            raise InvalidConstructionError(f"{self.name}: element literal must be a pair")
        return self.pack(
            self._first.literal_to_index(lit[0]), self._second.literal_to_index(lit[1])
        )

    def pair_rows(self, pairs) -> list[bytes]:
        """For each (f, g) in ``pairs``, bytes rows of the first and of the
        second factor, the row of pairs whose entry at (x, y) is f[x] *
        |second| + g[y]: g translated through s * |second| + y for each
        entry s of f, one join per row.  Needs at most 256 pairs."""
        nb = self._ro
        shift = [bytes(range(s * nb, s * nb + nb)).ljust(256, b"\0") for s in range(256 // nb)]
        join, at = b"".join, shift.__getitem__
        return [join(map(g.translate, map(at, f))) for f, g in pairs]


class ProductCodec(PairCodec):
    """The product of two checked factors, which needs no check of its own.
    With both factors' tables, each row is a pair of factor rows: the add
    rows, the rows that ``_second_pairs()`` pairs for * or the action, and
    the negation row."""

    def _op_rows(self):
        first, second = self._first, self._second
        if first.add_t is None or second.add_t is None:
            return super()._op_rows()
        return (
            self.pair_rows(product(first.add_t, second.add_t)),
            self.pair_rows(self._second_pairs()),
            self.pair_rows([(first.neg_t, second.neg_t)])[0],
        )

    def _check_axioms(self) -> None:
        """Nothing: a product of checked rings or modules is one.  The full
        kernel, and on products too big for tables the componentwise
        formula, run in ``tests/test_derived_tables.py``."""


def coset_ids(base, kernel) -> list[int]:
    """The rank of the coset a + K of the subgroup ``kernel`` of ``base``
    that each element a lies in, cosets ranked by their least member:
    |base| additions."""
    add = base.add
    ids = [-1] * base.order
    rank = 0
    for a in range(base.order):
        if ids[a] < 0:
            for k in kernel:
                ids[add(a, k)] = rank
            rank += 1
    return ids


def _gather(at):
    """The gather of the entries at positions ``at`` of a bytes row, one C
    call."""
    if len(at) == 1:  # itemgetter of one key returns the entry, not a tuple
        return itemgetter(slice(at[0], at[0] + 1))
    get = itemgetter(*at)
    return lambda row: bytes(get(row))


def row_hom_misses(f, rows, images):
    """Where the map ``f`` (a table of target indices) fails to carry
    ``rows`` onto ``images``: for each k with f(rows[k][b]) !=
    images[k][f(b)] at some b, the pair (k, b) at the least such b.  Two
    translates per row: row k mapped through f against the images f(b)
    read through image row k.  Rows are bytes, and f has at most 256
    entries, each below 256."""
    f = bytes(f)
    mapped = f.ljust(256, b"\0")
    for k, (row, image) in enumerate(zip(rows, images)):
        got, want = row.translate(mapped), f.translate(image.ljust(256, b"\0"))
        if got != want:
            yield k, next(b for b, (x, y) in enumerate(zip(got, want)) if x != y)


class _BaseElements:
    """What the codecs whose elements are elements of ``base`` share:
    ``_at`` lists those base elements in own-index order, ``_own(b)`` is
    the own index of base element b, and ``_own_index()`` that of every
    base element.  Each element operation is the own index of the base's
    operation at ``_at``; a structure with tables replaces them by lookups,
    so they run only over a base without tables."""

    def add(self, i: int, j: int) -> int:
        return self._own(self.base.add(self._at[i], self._at[j]))

    def neg(self, i: int) -> int:
        return self._own(self.base.neg(self._at[i]))

    def compose(self, rows) -> list[bytes]:
        """Bytes rows of the base, indexed by base elements, as rows of this
        structure: each read at ``_at`` and translated to own indices, one
        gather and one translate per row.  Needs a base of at most 256
        elements; a base element outside a carrier becomes 0xFF."""
        pick = _gather(self._at)
        own = bytes(self._own_index()).ljust(256, b"\xff")
        return [pick(row).translate(own) for row in rows]


class CosetCodec(_BaseElements):
    """Cosets a + K of a subgroup K of ``base``, ranked by their least
    member, which is the coset's representative."""

    def _init_cosets(self, base, kernel) -> None:
        proj = coset_ids(base, kernel)
        reps: list[int] = []
        for a, rank in enumerate(proj):
            if rank == len(reps):
                reps.append(a)
        self.base = base
        self._reps = self._at = reps
        self._proj = proj
        self._kernel = tuple(kernel)
        self.order = len(reps)
        self.zero = proj[base.zero]
        # each element in one of the ranked cosets, the zero coset the kernel
        zeros = {a for a, c in enumerate(proj) if c == self.zero}
        if len(set(proj)) != self.order or zeros != set(self._kernel):
            raise InvalidConstructionError(f"quotient kernel is not a subgroup of {base.name}")

    def _own_index(self) -> list[int]:
        return self._proj

    def _check_projection(self, *ops) -> None:
        """That the coset projection p carries each base operation onto this
        structure's, for each ``(symbol, base rows, rows)``: p(row_k[b]) =
        image_k[p(b)].  As p is onto, every axiom of the base then holds
        here too; with the zero coset exactly the kernel, this is the
        quotient by it.  Over a base without tables a quotient checks only
        its modulus: a ``Submodule``, checked when it was built, whose
        cosets ``_init_cosets`` matched."""
        for symbol, rows, images in ops:
            if next(row_hom_misses(self._proj, rows, images), None):
                raise InvalidConstructionError(
                    f"{self.name}: the coset projection does not preserve {symbol}"
                )

    def project(self, base_index: int) -> int:
        return self._proj[base_index]

    _own = project

    def representative(self, i: int) -> int:
        return self._reps[i]

    def describe(self, i: int) -> str:
        return f"[{self.base.describe(self._reps[i])}]"

    def literal_to_index(self, lit) -> int:
        return self._proj[self.base.literal_to_index(lit)]


class CarrierCodec(_BaseElements):
    """A subset of ``base`` whose k-th element is the k-th entry of the
    distinct base elements ``carrier`` it is built on."""

    def _init_carrier(self, base, carrier) -> None:
        self.base = base
        self.carrier = self._at = carrier
        if carrier and not (0 <= min(carrier) and max(carrier) < base.order):
            raise InvalidConstructionError(f"carrier is not a subset of {base.name}")
        self._pos = {c: k for k, c in enumerate(carrier)}
        if base.zero not in self._pos:
            raise InvalidConstructionError(f"carrier does not contain the zero of {base.name}")
        self.order = len(carrier)
        self.zero = self._pos[base.zero]

    def _own_index(self) -> bytearray:
        own = bytearray(b"\xff" * self.base.order)
        for k, c in enumerate(self.carrier):
            own[c] = k
        return own

    def _check_axioms(self) -> None:
        """Nothing more: the carrier holds 0 (``_init_carrier``), and
        ``byte_rows`` refused any entry outside it, or ``from_base`` refuses
        one when it is read, so it is closed under +, - and the action or
        *.  It is a submodule, or a subring, in which e(ex) = ex as e is
        idempotent."""

    def from_base(self, base_index: int) -> int:
        """The own index of a base element, which must lie in the carrier."""
        k = self._pos.get(base_index)
        if k is None:
            raise InvalidConstructionError(f"{self.name}: an operation leaves its carrier")
        return k

    _own = from_base

    def to_base(self, i: int) -> int:
        return self.carrier[i]

    def describe(self, i: int) -> str:
        return self.base.describe(self.carrier[i])

    def literal_to_index(self, lit) -> int:
        return self.from_base(self.base.literal_to_index(lit))


class AmalgamationCodec(CarrierCodec):
    """The pairs (u, f(u) + j) with j in a subgroup ``offsets`` of the
    second factor, as a carrier of the product ``base``, at own index u *
    |offsets| + rank of j in the sorted ``offsets``."""

    def _init_amalgam(self, base, f, offsets) -> None:
        self.offsets = tuple(offsets)
        add, pack = base._second.add, base.pack
        at = [pack(u, add(f(u), j)) for u in range(base._first.order) for j in self.offsets]
        self._init_carrier(base, at)

    def pack(self, u: int, w: int) -> int:
        """Own index of the pair (u, w), w being the whole second component."""
        b = self.base.pack(u, w)
        k = self._pos.get(b)
        if k is None:
            raise InvalidConstructionError(
                f"{self.name}: {self.base.describe(b)} is not in the amalgamation carrier"
            )
        return k

    def parts(self, i: int) -> tuple[int, int]:
        return self.base.parts(self._at[i])

    def literal_to_index(self, lit) -> int:
        if not (isinstance(lit, tuple) and len(lit) == 2):
            raise InvalidConstructionError(f"{self.name}: element literal must be a pair")
        return self.pack(*self.base.parts(self.base.literal_to_index(lit)))
