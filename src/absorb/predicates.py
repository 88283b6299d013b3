"""Decision procedures for absorbing-type properties of submodules and
ideals, with exact first-failure witnesses.

Every scanner works on hit rows: for a scalar t, ``hit[t]`` is the bit mask
of the module elements x with t.x in N, so a whole x-row is tested with a
few integer operations.  An ideal-level or set-wise check reads the same
condition at x = 1: its rows are one bit wide, ``hit[t] = t in I``.

Three scan shapes fix which witness is reported first:

* **Square difference** (gsdf, sdf, sdf-absorbing and sdf-primary ideals,
  the set-wise sdf-primary condition): one core, ``_sd_scan``.  The
  hypothesis is symmetric in (u, v), so it walks u ascending and v up to u,
  the u >= v half only, with x innermost.  When the target S is an additive
  subgroup (an ideal, or a set-wise subset found to be one, such as every
  I x N in an idealization), u^2 - v^2 lies in S exactly when
  u^2 and v^2 lie in the same coset of S, so v walks only the bucket of
  elements whose square shares u^2's coset; every pair it skips fails the
  hypothesis, and the first failure is the same.  ``checked_count`` is the
  position of that pair in the u >= v order, a closed form on either walk.
* **Classical primary**: u and v in plain lexicographic order over the
  whole square, x innermost.
* **Colon** (prime, primary): u ascending, x innermost; the scalars of
  (N :_R M), or of its radical, are skipped.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .encodings import coset_ids
from .errors import NotProperError
from .modules import (
    FiniteModule,
    Submodule,
    _require_ideal,
    colon_ideal_global,
    indices_of,
    mask_of,
    radical,
)


@dataclass(frozen=True)
class Witness:
    """A concrete violation: indices u, v (ring) and x (module; absent for
    ideal properties), plus the power bound that was exhausted."""

    u: int
    v: int
    x: int | None = None
    k_bound: int | None = None
    text: str = ""

    def as_tuple(self):
        return (self.u, self.v) if self.x is None else (self.u, self.v, self.x)


@dataclass(frozen=True)
class PropertyReport:
    """A verdict with its first-failure witness.

    ``checked_count`` is the number of (u, v) pairs the scan visited times
    |M| for the five module properties (scalars u visited times |M| for
    prime and primary), not the number of x-values tested.  For the
    ideal-level and set-wise checks it is the position of the failing pair
    in the u >= v order (all pairs of that order when none fails), not the
    number of pairs a coset-bucketed scan tested."""

    property: str
    holds: bool
    witness: Witness | None = None
    checked_count: int = 0

    def __bool__(self):
        return self.holds


def _report(prop: str, found, checked: int, R, M: FiniteModule | None = None) -> PropertyReport:
    """The report of a scan whose first failure is ``found`` = (u, v, x,
    k_bound), or None.  The colon scans have no v (their witnesses carry
    v = 0); x belongs to the witness only for module properties."""
    if found is None:
        return PropertyReport(prop, True, None, checked)
    u, v, x, k = found
    if M is None:
        x = None
    named = (("u", u, R), ("v", v, R), ("x", x, M))
    text = ", ".join(f"{name}={S.describe(i)}" for name, i, S in named if i is not None)
    return PropertyReport(prop, False, Witness(u, v or 0, x, k, text), checked)


def _bit_rows(mask: int, n: int) -> list[int]:
    """Hit rows at x = 1: ``rows[t]`` is 1 when t is in the subset."""
    return [mask >> t & 1 for t in range(n)]


def _power_reach_mask(R, hit, t: int) -> int:
    """Mask of x such that t^k . x lands in N for some k >= 1."""
    reach = 0
    for p in R.power_orbit_raw(t)[2]:
        reach |= hit[p]
    return reach


def _orbit_len(R, t: int) -> int:
    pre, per, _ = R.power_orbit_raw(t)
    return pre + per - 1


def _first_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _is_additive_subgroup(S) -> bool:
    """A finite subset of a ring is an additive subgroup when it contains 0
    and is closed under +: at most |S|^2 additions, stopping at the first
    sum outside S."""
    add, mask, idx = S.ring.add, S.mask, S.indices
    return S.contains(S.ring.zero) and all(mask >> add(a, b) & 1 for a in idx for b in idx)


class _OpRow:
    """Row u of a binary operation of a ring above 256 elements, which has no
    tables: entry v is ``op(u, v)``, computed when it is read."""

    __slots__ = ("op", "u")

    def __init__(self, op, u: int):
        self.op, self.u = op, u

    def __getitem__(self, v: int) -> int:
        return self.op(self.u, v)


def _sd_rows(R):
    """``(rows, sq)`` for the square-difference scan: ``rows(u)`` is (d, s,
    h) with d[v] = u - v, s[v] = u + v and h[v] = u^2 - v^2, which is
    (u - v)(u + v) as R is commutative, and sq[v] = v^2.  With tables, each
    row is one translate of an add row; rings above 256 elements compute each
    entry on demand."""
    n, add_t = R.order, R.add_t
    if add_t is None:
        sub, sq = R.sub, [R.mul(v, v) for v in range(n)]

        def minus_sq(a, v):
            return sub(a, sq[v])

        return (lambda u: (_OpRow(sub, u), _OpRow(R.add, u), _OpRow(minus_sq, sq[u]))), sq
    neg_t, mul_t, pad = R.neg_t, R.mul_t, bytes(256 - n)
    sq = bytes(mul_t[v][v] for v in range(n))
    neg_sq = sq.translate(neg_t + pad)  # neg_sq[v] = -v^2
    return (lambda u: (neg_t.translate(add_t[u] + pad), add_t[u],
                       neg_sq.translate(add_t[sq[u]] + pad))), sq


def _sd_scan(R, hit, width: int, start: int = 0, ann=None, coset=None):
    """The square-difference scan: (u^2 - v^2).x in N implies (u - v).x in
    N or a conclusion on u + v.  Without ``ann`` that conclusion is
    (u + v)^k.x in N for some k >= 1, its reach cached per u + v; with
    ``ann`` it is (u + v).x in N, and only x outside ``ann[u] | ann[v]``
    count.  u ascends from ``start`` and v runs from ``start`` to u.

    For each u, one list comprehension over u's rows (``_sd_rows``) keeps
    the v whose hypothesis holds and whose (u - v) conclusion fails; only
    those reach the conclusion test on u + v, in scan order.

    ``coset`` (one-bit rows only, the ``coset_ids`` of an additive subgroup
    S) buckets the elements by the coset of their square: u appends
    itself to its bucket, and v walks that bucket in ascending order instead
    of every element up to u.  The pairs skipped are the ones with u^2 - v^2
    outside S, and on the bucket it lies in S, so only u - v is tested.

    Returns the first failure (u, v, x, k_bound), or None, and its position
    in the u >= v order of pairs from ``start`` (all T(T+1)/2 pairs, with
    T = |R| - start, when none fails) times ``width``."""
    rows, sq = _sd_rows(R)
    reach: dict[int, int] = {}
    buckets: dict[int, list[int]] = {}
    for u in range(start, R.order):
        d, s, h = rows(u)
        if coset is None:
            kept = [(v, b) for v in range(start, u + 1) if (b := hit[h[v]] & ~hit[d[v]])]
        else:
            vs = buckets.setdefault(coset[sq[u]], [])
            vs.append(u)
            kept = [(v, 1) for v in vs if not hit[d[v]]]
        for v, bad in kept:
            t = s[v]
            if ann is not None:
                bad &= ~(hit[t] | ann[u] | ann[v])
            else:
                if t not in reach:
                    reach[t] = _power_reach_mask(R, hit, t)
                bad &= ~reach[t]
            if bad:
                k = 1 if ann is not None else _orbit_len(R, t)
                i = u - start
                return (u, v, _first_bit(bad), k), (i * (i + 1) // 2 + v - start + 1) * width
    t = R.order - start
    return None, t * (t + 1) // 2 * width


def _colon_scan(N: Submodule, hit, skip: int):
    """u.x in N implies x in N, for every scalar u outside the ``skip``
    mask.  Returns the first failure (u, None, x, None), or None, and the
    scalars visited times |M|."""
    M = N.module
    outside = ~N.mask
    for u in range(M.ring.order):
        bad = hit[u] & outside
        if bad and not skip >> u & 1:
            return (u, None, _first_bit(bad), None), (u + 1) * M.order
    return None, M.ring.order * M.order


def _colon_mask(M: FiniteModule, hit) -> int:
    """(N :_R M) read off the hit rows: the scalars whose row is full."""
    full = (1 << M.order) - 1
    return mask_of(t for t, row in enumerate(hit) if row == full)


def is_gsdf_absorbing(N: Submodule) -> PropertyReport:
    """(u^2 - v^2).x in N implies (u - v).x in N or (u + v)^k.x in N."""
    N.require_proper()
    M = N.module
    found, checked = _sd_scan(M.ring, M.scalar_hit_masks(N.mask), M.order)
    return _report("gsdf", found, checked, M.ring, M)


def is_sdf_absorbing(N: Submodule) -> PropertyReport:
    """For u, v outside Ann(x): (u^2 - v^2).x in N implies (u - v).x in N or
    (u + v).x in N."""
    N.require_proper()
    M = N.module
    hit = M.scalar_hit_masks(N.mask)
    ann = M.scalar_hit_masks(1 << M.zero)  # ann[t] = {x : t.x = 0}
    found, checked = _sd_scan(M.ring, hit, M.order, ann=ann)
    return _report("sdf", found, checked, M.ring, M)


def is_classical_primary(N: Submodule) -> PropertyReport:
    """u v x in N implies u x in N or v^k x in N."""
    N.require_proper()
    M = N.module
    R = M.ring
    hit = M.scalar_hit_masks(N.mask)
    n = R.order
    mul_row = R.mul_t.__getitem__ if R.mul_t is not None else partial(_OpRow, R.mul)
    reach_cache: dict[int, int] = {}
    for u in range(n):
        m, outside = mul_row(u), ~hit[u]
        for v, bad in [(v, b) for v in range(n) if (b := hit[m[v]] & outside)]:
            if v not in reach_cache:
                reach_cache[v] = _power_reach_mask(R, hit, v)
            bad &= ~reach_cache[v]
            if bad:
                found = (u, v, _first_bit(bad), _orbit_len(R, v))
                return _report("cprimary", found, (u * n + v + 1) * M.order, R, M)
    return _report("cprimary", None, n * n * M.order, R)


def is_primary_submodule(N: Submodule) -> PropertyReport:
    """u x in N implies x in N or u in sqrt(N :_R M)."""
    N.require_proper()
    M = N.module
    R = M.ring
    hit = M.scalar_hit_masks(N.mask)
    colon = Submodule(R.as_module, indices_of(_colon_mask(M, hit)), _trusted=True)
    found, checked = _colon_scan(N, hit, radical(colon).mask)
    return _report("primary", found, checked, R, M)


def is_prime_submodule(N: Submodule) -> PropertyReport:
    """u x in N implies x in N or u M contained in N."""
    N.require_proper()
    M = N.module
    hit = M.scalar_hit_masks(N.mask)
    found, checked = _colon_scan(N, hit, _colon_mask(M, hit))
    return _report("prime", found, checked, M.ring, M)


def is_sdf_absorbing_ideal(I: Submodule) -> PropertyReport:
    """For nonzero u, v: u^2 - v^2 in I implies u + v in I or u - v in I.

    This is the sdf condition at x = 1, where Ann(1) = (0)."""
    R = _require_ideal(I)
    I.require_proper()
    ann = _bit_rows(1 << R.zero, R.order)
    found, checked = _sd_scan(R, _bit_rows(I.mask, R.order), 1, start=1, ann=ann,
                              coset=coset_ids(R, I.indices))
    return _report("sdfideal", found, checked, R)


def is_sdf_primary_ideal(I: Submodule, *, nonzero_only: bool = False) -> PropertyReport:
    """u^2 - v^2 in I implies u - v in I or (u + v)^k in I for some k >= 1.

    By default u and v range over the whole ring; ``nonzero_only=True``
    restricts the hypothesis to nonzero u, v."""
    R = _require_ideal(I)
    I.require_proper()
    found, checked = _sd_scan(R, _bit_rows(I.mask, R.order), 1, start=int(nonzero_only),
                              coset=coset_ids(R, I.indices))
    return _report("sdfprimary", found, checked, R)


PROPERTY_CHECKS = {
    "gsdf": is_gsdf_absorbing,
    "sdf": is_sdf_absorbing,
    "primary": is_primary_submodule,
    "cprimary": is_classical_primary,
    "prime": is_prime_submodule,
    "sdfideal": is_sdf_absorbing_ideal,
    "sdfprimary": is_sdf_primary_ideal,
}


def check_property(prop: str, N: Submodule, **kwargs) -> PropertyReport:
    return PROPERTY_CHECKS[prop](N, **kwargs)


def replay_witness(prop: str, N, u: int, v: int, x: int | None = None) -> bool:
    """True when (u, v[, x]) is a genuine violation of the property for N,
    regardless of which witness the scanner would report first.  N is a
    submodule, or for the ideal-level properties also a ``RingSubset``."""
    M = None if isinstance(N, RingSubset) else N.module
    R = N.ring if M is None else M.ring
    d, s = R.sub(u, v), R.add(u, v)
    orbit = R.power_orbit_raw(s)[2]
    if prop == "gsdf":
        act = M.act
        return (
            N.contains(act(R.mul(d, s), x))
            and not N.contains(act(d, x))
            and not any(N.contains(act(p, x)) for p in orbit)
        )
    if prop == "sdf":
        act = M.act
        return (
            act(u, x) != M.zero
            and act(v, x) != M.zero
            and N.contains(act(R.mul(d, s), x))
            and not N.contains(act(d, x))
            and not N.contains(act(s, x))
        )
    if prop == "cprimary":
        act = M.act
        return N.contains(act(R.mul(u, v), x)) and not N.contains(act(u, x)) and not any(
            N.contains(act(p, x)) for p in R.power_orbit_raw(v)[2]
        )
    if prop == "prime":
        act = M.act
        return (
            N.contains(act(u, x))
            and not N.contains(x)
            and not all(N.contains(act(u, y)) for y in range(M.order))
        )
    if prop == "primary":
        return (
            N.contains(M.act(u, x))
            and not N.contains(x)
            and not radical(colon_ideal_global(N)).contains(u)
        )
    if prop == "sdfideal":
        return (
            u != R.zero
            and v != R.zero
            and N.contains(R.mul(d, s))
            and not N.contains(d)
            and not N.contains(s)
        )
    if prop == "sdfprimary":
        return (
            N.contains(R.mul(d, s))
            and not N.contains(d)
            and not any(N.contains(p) for p in orbit)
        )
    raise KeyError(f"no replay rule for property {prop!r}")


class RingSubset:
    """A plain subset of a ring's elements, for set-wise property checks on
    carriers that need not be ideals (e.g. I x N inside an idealization)."""

    def __init__(self, ring, indices):
        self.ring = ring
        self.indices = tuple(sorted(set(indices)))
        self.mask = mask_of(self.indices)

    @property
    def order(self):
        return len(self.indices)

    @property
    def is_proper(self):
        return self.order < self.ring.order

    def contains(self, i: int) -> bool:
        return bool(self.mask >> i & 1)


def setwise_sdf_primary(S: RingSubset, *, nonzero_only: bool = False) -> PropertyReport:
    """The sdf-primary condition evaluated on a bare subset of R.  When S is
    an additive subgroup (every ideal, and every I x N in an idealization),
    the scan is bucketed by the cosets of S."""
    if not S.is_proper:
        raise NotProperError("subset equals the whole ring")
    R = S.ring
    coset = coset_ids(R, S.indices) if _is_additive_subgroup(S) else None
    found, checked = _sd_scan(R, _bit_rows(S.mask, R.order), 1, start=int(nonzero_only),
                              coset=coset)
    return _report("sdfprimary", found, checked, R)
