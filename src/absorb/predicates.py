"""Decision procedures for absorbing-type properties of submodules and
ideals, with exact first-failure witnesses.

Every scanner works on hit rows: for a scalar t, ``hit[t]`` is the bit mask
of the module elements x with t.x in N, so a whole x-row is tested with a
few integer operations.  An ideal-level or set-wise check reads the same
condition at x = 1: its rows are one bit wide, ``hit[t] = t in I``.

Two kernels decide the properties, and the scan order of each property
fixes which witness is reported first.

* **Associate classes** (gsdf, classical primary, prime, primary).  N is
  closed under multiplication by units, so for a unit w, hit[wt] = hit[t]:
  a hit row depends only on the class [t] of t under t ~ wt
  (``FiniteRing.unit_classes``), whose representative is its least member.
  Classical primary fails at (u, v) on ``hit[uv] & ~hit[u] & ~reach(v)``,
  reach(v) being the x that some power of v sends into N; that mask depends
  only on ([u], [v]), as (w1 u)(w2 v) = w1 w2 uv and the powers of wv lie
  in the classes of the powers of v.  gsdf fails at (u, v) on the same mask
  taken at ([u - v], [u + v]), as (u - v)(u + v) = u^2 - v^2, so one table
  of failing class pairs (``_class_failures``) serves both.  A class pair
  (A, B) occurs as ([u - v], [u + v]) exactly when A and B meet a common
  coset of 2R: s - d = 2v is solved by u = d + v, and -1 is a unit, so the
  u >= v half reaches every such pair.  When 2 is a unit every class pair
  occurs, and gsdf is then classical primary.
  - gsdf tests only the occurring class pairs (B among A's ``meets``), and
    holds when none fails; otherwise the pairs u >= v are walked, u
    ascending and v up to u, to the first one in a failing class pair,
    whose mask gives x.
  - Classical primary's order is u, then v, over the whole square, so its
    first failure is the least failing class pair, at its representatives;
    the class pairs are tested in ascending order and stop at the first that
    fails.
  - Prime and primary (u ascending; the scalars of (N :_R M), or of its
    radical, are skipped) visit class representatives only, as the colon
    ideal and its radical are unions of classes.
* **Square difference** (sdf, sdf-absorbing and sdf-primary ideals, the
  set-wise sdf-primary condition): one core, ``_sd_scan``.  sdf puts u and
  v, not u - v and u + v, outside Ann(x), and a bare subset is not closed
  under units, so these keep the element-pair scan.  sdf first tests the
  occurring class pairs as gsdf does, with the mask ``hit[ds] & ~hit[d] &
  ~hit[s]``: every x at which sdf fails at (u, v) lies in it at ([u - v],
  [u + v]), so when no occurring pair fails sdf holds and the scan is
  skipped; its report is the scan's all the same.  The hypothesis is
  symmetric in (u, v), so it walks u ascending and v up to u, the u >= v
  half only, with x innermost.  When the target S is an additive subgroup
  (an ideal, or a set-wise subset found to be one, such as every I x N in
  an idealization), u^2 - v^2 lies in S exactly when u^2 and v^2 lie in the
  same coset of S, so v walks only the bucket of elements whose square
  shares u^2's coset; every pair it skips fails the hypothesis, and the
  first failure is the same.

``checked_count`` is the witness's position in its property's scan order,
a closed form, or the whole order when the property holds.
"""
from __future__ import annotations

from dataclasses import dataclass

from .encodings import coset_ids
from .errors import NotProperError
from .modules import (
    FiniteModule,
    Submodule,
    _require_ideal,
    colon_ideal_global,
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

    ``checked_count`` is the witness's position in its property's scan
    order, in closed form, or the size of the whole order when the property
    holds; it is not the number of pairs tested.  For the five module
    properties that position is counted in (u, v) pairs times |M| (scalars u
    times |M| for prime and primary): the u >= v half for gsdf and sdf, the
    whole square for classical primary.  For the ideal-level and set-wise
    checks it is counted in pairs of the u >= v order."""

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
    text = f"u={R.describe(u)}"
    if v is not None:
        text += f", v={R.describe(v)}"
    if M is None:
        x = None
    elif x is not None:
        text += f", x={M.describe(x)}"
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


def _class_failures(R, hit, meets=None, first: bool = False, powers: bool = True) -> dict:
    """The failing class pairs, {(A, B): mask}, in ascending order of A and
    then B: over every class pair, or with ``meets`` over the B of
    ``meets[A]`` only, and with ``first`` up to the first failure only.  The
    mask is ``hit[ab] & ~hit[a] & ~reach(b)`` at the representatives a of A
    and b of B, where that is not empty.  It is classical primary's failure
    mask of every (u, v) in A x B, and gsdf's of every (u, v) with
    ([u - v], [u + v]) = (A, B).  Without ``powers`` the mask is
    ``hit[ab] & ~hit[a] & ~hit[b]``, which holds every x at which sdf fails
    at such a (u, v).

    The class of 0 and the class of the units never fail, on either side:
    hit[0] is full, 0 reaches every x, and for a unit w, hit[wb] = hit[b]
    lies in reach(b) and hit[aw] = hit[a].  reach(b) is computed when a
    pair first needs it."""
    ids, reps, _ = R.unit_classes()
    mul, full = R.mul, hit[R.zero]  # 0.x = 0 lies in N
    never = 1 << ids[R.zero] | 1 << ids[R.one]
    unreached: dict[int, int] = {}  # b -> full & ~reach(b)
    failures = {}
    for A, a in enumerate(reps):
        outside = full & ~hit[a]
        if outside and not never >> A & 1:
            cols = (-1 if meets is None else meets[A]) & ~never
            for B, b in enumerate(reps):
                if cols >> B & 1:
                    bad = hit[mul(a, b)] & outside
                    if bad:
                        if b not in unreached:
                            reach = _power_reach_mask(R, hit, b) if powers else hit[b]
                            unreached[b] = full & ~reach
                        bad &= unreached[b]
                        if bad:
                            failures[A, B] = bad
                            if first:
                                return failures
    return failures


def _gsdf_walk(R, ids, failures, width: int):
    """gsdf's first failure in the u >= v order of the square-difference
    scan: the first pair whose ([u - v], [u + v]) fails, with its position
    times ``width``.  Called only when some failing class pair occurs, so it
    always returns."""
    add, sub = R.add, R.sub
    for u in range(R.order):
        for v in range(u + 1):
            bad = failures.get((ids[sub(u, v)], ids[s := add(u, v)]))
            if bad:
                return (u, v, _first_bit(bad), _orbit_len(R, s)), (u * (u + 1) // 2 + v + 1) * width
    raise AssertionError("an occurring failing class pair comes from some pair")


def _colon_scan(N: Submodule, hit, of_radical: bool):
    """u.x in N implies x in N, for every scalar u outside (N :_R M), or
    with ``of_radical`` outside its radical.  u is in (N :_R M) when its hit
    row is full, and in the radical when the last power u^m of its power
    orbit is (the argument of ``modules.radical``).  Both ideals are unions
    of classes, so only the class representatives are visited, and the
    least failing one is the first failure in u order.  Returns (u, None,
    x, None), or None, and (u + 1) |M| (|R| |M| when none fails)."""
    M = N.module
    R = M.ring
    full, outside = (1 << M.order) - 1, ~N.mask
    for u in R.unit_classes()[1]:
        bad = hit[u] & outside
        if bad and hit[R.power_orbit_raw(u)[2][-1] if of_radical else u] != full:
            return (u, None, _first_bit(bad), None), (u + 1) * M.order
    return None, R.order * M.order


def is_gsdf_absorbing(N: Submodule) -> PropertyReport:
    """(u^2 - v^2).x in N implies (u - v).x in N or (u + v)^k.x in N.

    N holds when no failing class pair occurs as ([u - v], [u + v]), and
    ``checked_count`` is then the whole u >= v half, T(T + 1)/2 |M|;
    otherwise the pairs are walked up to the first one in a failing class
    pair."""
    N.require_proper()
    M = N.module
    R = M.ring
    hit = M.scalar_hit_masks(N.mask)
    ids, _, meets = R.unit_classes()
    failures = _class_failures(R, hit, meets)
    if not failures:
        n = R.order
        return _report("gsdf", None, n * (n + 1) // 2 * M.order, R)
    found, checked = _gsdf_walk(R, ids, failures, M.order)
    return _report("gsdf", found, checked, R, M)


def is_sdf_absorbing(N: Submodule) -> PropertyReport:
    """For u, v outside Ann(x): (u^2 - v^2).x in N implies (u - v).x in N or
    (u + v).x in N.

    N holds, with ``checked_count`` the whole u >= v half, when no class pair
    that occurs as ([u - v], [u + v]) fails ``hit[ds] & ~hit[d] &
    ~hit[s]``; otherwise the pairs are walked by ``_sd_scan``."""
    N.require_proper()
    M = N.module
    R = M.ring
    hit = M.scalar_hit_masks(N.mask)
    if not _class_failures(R, hit, R.unit_classes()[2], first=True, powers=False):
        n = R.order
        return _report("sdf", None, n * (n + 1) // 2 * M.order, R)
    ann = M.scalar_hit_masks(1 << M.zero)  # ann[t] = {x : t.x = 0}
    found, checked = _sd_scan(R, hit, M.order, ann=ann)
    return _report("sdf", found, checked, R, M)


def is_classical_primary(N: Submodule) -> PropertyReport:
    """u v x in N implies u x in N or v^k x in N.

    The scan order is u, then v, over the whole square.  The first failure
    is the least failing class pair (A, B), at their representatives, as
    each class's representative is its least member, and ``checked_count``
    is its position, (u |R| + v + 1) |M|.  The class pairs are tested in
    ascending order up to the first one that fails."""
    N.require_proper()
    M = N.module
    R = M.ring
    hit = M.scalar_hit_masks(N.mask)
    reps = R.unit_classes()[1]
    n = R.order
    failures = _class_failures(R, hit, first=True)
    if not failures:
        return _report("cprimary", None, n * n * M.order, R)
    (A, B), bad = failures.popitem()
    u, v = reps[A], reps[B]
    found = (u, v, _first_bit(bad), _orbit_len(R, v))
    return _report("cprimary", found, (u * n + v + 1) * M.order, R, M)


def is_primary_submodule(N: Submodule) -> PropertyReport:
    """u x in N implies x in N or u in sqrt(N :_R M)."""
    N.require_proper()
    M = N.module
    found, checked = _colon_scan(N, M.scalar_hit_masks(N.mask), of_radical=True)
    return _report("primary", found, checked, M.ring, M)


def is_prime_submodule(N: Submodule) -> PropertyReport:
    """u x in N implies x in N or u M contained in N."""
    N.require_proper()
    M = N.module
    found, checked = _colon_scan(N, M.scalar_hit_masks(N.mask), of_radical=False)
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
