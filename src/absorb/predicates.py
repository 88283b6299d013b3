"""Decision procedures for absorbing-type properties of submodules and
ideals, with exact first-failure witnesses.

Every scanner works on hit rows: for a scalar t, ``hit[t]`` is the bit mask
of the module elements x with t.x in N, so a whole x-row is tested with a
few integer operations.  An ideal-level check reads the same condition at
x = 1: its rows are one bit wide, ``hit[t] = t in I``.

One kernel, on associate classes, decides all seven properties; the scan
order of each property fixes which witness is reported first.  The target
N (a submodule, or an ideal of R over itself) is closed under
multiplication by units, so for a unit w, hit[wt] = hit[t]: a hit row
depends only on the class [t] of t under t ~ wt (``FiniteRing.unit_classes``),
whose representative is its least member.

* Classical primary fails at (u, v) on ``hit[uv] & ~hit[u] & ~reach(v)``,
  reach(v) being the x that some power of v sends into N; that mask depends
  only on ([u], [v]), as (w1 u)(w2 v) = w1 w2 uv and the powers of wv lie
  in the classes of the powers of v.  Its order is u, then v, over the whole
  square, so its first failure is the least failing class pair, at its
  representatives (``_class_failures``).
* gsdf and the sdf-primary ideal condition fail at (u, v) on the same mask
  taken at ([u - v], [u + v]), as (u - v)(u + v) = u^2 - v^2.  sdf and the
  sdf-absorbing ideal condition take hit[u + v] for reach(u + v) (k = 1),
  and sdf keeps only the x with u.x and v.x nonzero.  A class pair (A, B)
  occurs as ([u - v], [u + v]) exactly when A and B meet a common coset of
  2R: s - d = 2v is solved by u = d + v, and -1 is a unit, so the u >= v
  half reaches every such pair.  The occurring class pairs are tested
  first, and the property holds when none fails.  Otherwise gsdf and sdf
  step through the pairs u >= v, u ascending and v up to u, to the first
  one whose class pair fails (``_walk``), computing each class pair's mask
  when they first meet it; the ideal conditions walk their element pairs
  (``_pair_walk``).  The hypothesis is symmetric in (u, v), so the u >= v
  half is the whole order.  When u and v range over nonzero elements only
  (sdf-absorbing ideals, ``nonzero_only``), the pairs are fewer, so a class
  test that finds no failure still decides the property; the walk may then
  find none either.
* Prime and primary (u ascending; the scalars of (N :_R M), or of its
  radical, are skipped) visit class representatives only, as the colon
  ideal and its radical are unions of classes.

A bare subset of R (``RingSubset``) is not closed under units, so the
set-wise sdf-primary condition walks its element pairs with no class test
(``setwise_sdf_primary``).  An ideal, and each I x N of an idealization,
is an additive subgroup, so its element-pair walk pairs u only with the v
whose square lies in u^2's coset.

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
from .rings import element_index


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


def _powers(R, t: int, powers: bool = True) -> tuple[int, ...]:
    """The distinct powers t^1, ..., t^k of t's power orbit, k being the
    witness's power bound, or t alone without ``powers``."""
    return R.power_orbit_raw(t)[2] if powers else (t,)


def _first_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _is_additive_subgroup(S) -> bool:
    """A finite subset of a ring is an additive subgroup when it contains 0
    and is closed under +: at most |S|^2 additions, stopping at the first
    sum outside S."""
    add, mask, idx = S.ring.add, S.mask, S.indices
    return S.contains(S.ring.zero) and all(mask >> add(a, b) & 1 for a in idx for b in idx)


def _unreached(R, hit, b: int, powers: bool = True) -> int:
    """The x in hit[0] that no power of b sends into N (0.x = 0 lies in N),
    or with ``powers=False`` that b itself does not: the last factor of a
    class pair's failure mask."""
    reach = 0
    for p in _powers(R, b, powers):
        reach |= hit[p]
    return hit[R.zero] & ~reach


def _class_failures(R, hit, unreached: dict, meets=None, powers: bool = True):
    """The first failing class pair, ((A, B), mask), in ascending order of A
    and then B, over every class pair, or with ``meets`` over the B of
    ``meets[A]`` only; None when none fails.

    The failure mask of (A, B) is ``hit[ab] & ~hit[a] & ~reach(b)`` at the
    representatives a of A and b of B, within hit[0] (``_unreached``).  It
    is classical primary's failure mask of every (u, v) in A x B, and gsdf's
    of every (u, v) with ([u - v], [u + v]) = (A, B).  Without ``powers``
    reach(b) is hit[b], and the mask holds every x at which sdf fails at
    such a (u, v).

    The class of 0 and the class of the units never fail, on either side:
    hit[0] is full, 0 reaches every x, and for a unit w, hit[wb] = hit[b]
    lies in reach(b) and hit[aw] = hit[a].  Nor does a class whose row is
    full.  ``unreached`` caches ``_unreached`` per b, computed when a pair
    first needs it."""
    ids, reps, _ = R.unit_classes()
    mul, full = R.mul, hit[R.zero]
    never = 1 << ids[R.zero] | 1 << ids[R.one]
    for A, a in enumerate(reps):
        outside = full & ~hit[a]
        if outside and not never >> A & 1:
            cols = (-1 if meets is None else meets[A]) & ~never
            for B, b in enumerate(reps):
                if cols >> B & 1 and (bad := hit[mul(a, b)] & outside):
                    if b not in unreached:
                        unreached[b] = _unreached(R, hit, b, powers)
                    if bad := bad & unreached[b]:
                        return (A, B), bad
    return None


def _walk(R, hit, width: int, unreached: dict, ann=None, powers: bool = True):
    """The first pair u >= v, u ascending and v up to u, whose class pair
    ([u - v], [u + v]) fails, as (u, v, x, k_bound); with ``ann``, only the
    x outside ``ann[u] | ann[v]`` count.  Each class pair's mask is the one
    ``_class_failures`` tests, computed the first time the walk meets the
    pair.  Returns the pair, or None, with its position in that order times
    ``width``, or the whole n(n + 1)/2 pairs, n = |R|, when none fails."""
    ids, reps, _ = R.unit_classes()
    add, sub, mul, full = R.add, R.sub, R.mul, hit[R.zero]
    masks: dict[tuple[int, int], int] = {}  # (A, B) -> its mask, once met
    for u in range(R.order):
        for v in range(u + 1):
            key = ids[sub(u, v)], ids[s := add(u, v)]
            bad = masks.get(key)
            if bad is None:
                a, b = reps[key[0]], reps[key[1]]
                bad = hit[mul(a, b)] & full & ~hit[a]
                if bad:
                    if b not in unreached:
                        unreached[b] = _unreached(R, hit, b, powers)
                    bad &= unreached[b]
                masks[key] = bad
            if bad and ann is not None:
                bad &= ~(ann[u] | ann[v])
            if bad:
                found = (u, v, _first_bit(bad), len(_powers(R, s, powers)))
                return found, (u * (u + 1) // 2 + v + 1) * width
    return None, R.order * (R.order + 1) // 2 * width


def _square_difference(R, hit, width: int, ann_of=None, powers: bool = True):
    """gsdf's condition, or sdf's without ``powers``, on the hit rows: the
    occurring class pairs are tested, and the pairs are walked only when
    one fails.  With ``ann_of``, a module, the walk counts only the x
    outside Ann(u) and Ann(v), reading its annihilator rows, which are
    built only then."""
    unreached: dict[int, int] = {}  # shared by the class test and the walk
    if _class_failures(R, hit, unreached, R.unit_classes()[2], powers) is None:
        return None, R.order * (R.order + 1) // 2 * width
    ann = None if ann_of is None else ann_of.scalar_hit_masks(1 << ann_of.zero)
    return _walk(R, hit, width, unreached, ann, powers)


def _pair_walk(prop: str, R, mask: int, start: int, powers: bool, coset) -> PropertyReport:
    """The square-difference condition on the subset S = ``mask`` of R by
    its element pairs u >= v >= start, u ascending and v up to u: u^2 - v^2
    in S implies u - v in S or (u + v)^k in S (k = 1 without ``powers``).
    With ``coset``, the coset ranks of S when S is an additive subgroup, v
    walks only the bucket of the elements whose square shares u^2's coset,
    the only v with u^2 - v^2 in S, so the first failure is the same."""
    add, sub, mul = R.add, R.sub, R.mul
    sq = [mul(v, v) for v in range(R.order)]
    buckets: dict[int, list[int]] = {}
    reached: dict[int, bool] = {}  # s -> s, or some power of s, lies in S
    for u in range(start, R.order):
        if coset is None:
            vs = [v for v in range(start, u + 1) if mask >> sub(sq[u], sq[v]) & 1]
        else:
            vs = buckets.setdefault(coset[sq[u]], [])
            vs.append(u)
        for v in vs:
            if not mask >> sub(u, v) & 1:
                s = add(u, v)
                if s not in reached:
                    reached[s] = any(mask >> p & 1 for p in _powers(R, s, powers))
                if not reached[s]:
                    i = u - start
                    found = (u, v, None, len(_powers(R, s, powers)))
                    return _report(prop, found, i * (i + 1) // 2 + v - start + 1, R)
    t = R.order - start
    return _report(prop, None, t * (t + 1) // 2, R)


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
    found, checked = _square_difference(M.ring, M.scalar_hit_masks(N.mask), M.order)
    return _report("gsdf", found, checked, M.ring, M)


def is_sdf_absorbing(N: Submodule) -> PropertyReport:
    """For u, v outside Ann(x): (u^2 - v^2).x in N implies (u - v).x in N or
    (u + v).x in N.

    Decided as gsdf is, with hit[u + v] for reach(u + v); the walk keeps
    only the x outside Ann(u) and Ann(v), whose rows are built only when it
    runs."""
    N.require_proper()
    M = N.module
    found, checked = _square_difference(M.ring, M.scalar_hit_masks(N.mask), M.order, ann_of=M,
                                        powers=False)
    return _report("sdf", found, checked, M.ring, M)


def is_classical_primary(N: Submodule) -> PropertyReport:
    """u v x in N implies u x in N or v^k x in N.

    The scan order is u, then v, over the whole square.  The first failure
    is the least failing class pair (A, B), at their representatives, as
    each class's representative is its least member, and ``checked_count``
    is its position, (u |R| + v + 1) |M|."""
    N.require_proper()
    M = N.module
    R = M.ring
    n = R.order
    failure = _class_failures(R, M.scalar_hit_masks(N.mask), {})
    if failure is None:
        return _report("cprimary", None, n * n * M.order, R)
    (A, B), bad = failure
    reps = R.unit_classes()[1]
    u, v = reps[A], reps[B]
    found = (u, v, _first_bit(bad), len(_powers(R, v)))
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


def _ideal_square_difference(prop: str, I: Submodule, start: int, powers: bool) -> PropertyReport:
    """An ideal-level square-difference check: the occurring class pairs of
    the one-bit rows are tested, and only when one fails are the element
    pairs walked, bucketed by the cosets of I."""
    R = _require_ideal(I)
    I.require_proper()
    rows = [I.mask >> t & 1 for t in range(R.order)]  # hit rows at x = 1
    if _class_failures(R, rows, {}, R.unit_classes()[2], powers) is None:
        t = R.order - start
        return _report(prop, None, t * (t + 1) // 2, R)
    return _pair_walk(prop, R, I.mask, start, powers, coset_ids(R, I.indices))


def is_sdf_absorbing_ideal(I: Submodule) -> PropertyReport:
    """For nonzero u, v: u^2 - v^2 in I implies u + v in I or u - v in I.

    This is the sdf condition at x = 1, where Ann(1) = (0)."""
    return _ideal_square_difference("sdfideal", I, 1, powers=False)


def is_sdf_primary_ideal(I: Submodule, *, nonzero_only: bool = False) -> PropertyReport:
    """u^2 - v^2 in I implies u - v in I or (u + v)^k in I for some k >= 1.

    By default u and v range over the whole ring; ``nonzero_only=True``
    restricts the hypothesis to nonzero u, v."""
    return _ideal_square_difference("sdfprimary", I, int(nonzero_only), powers=True)


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
        self.indices = tuple(sorted({element_index(ring, i) for i in indices}))
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
    """The sdf-primary condition evaluated on a bare subset S of R.  S need
    not be closed under units, so its element pairs are walked, bucketed
    when S is an additive subgroup (every ideal, and every I x N in an
    idealization)."""
    if not S.is_proper:
        raise NotProperError("subset equals the whole ring")
    coset = coset_ids(S.ring, S.indices) if _is_additive_subgroup(S) else None
    return _pair_walk("sdfprimary", S.ring, S.mask, int(nonzero_only), True, coset)
