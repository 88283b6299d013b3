"""Decision procedures for absorbing-type properties of submodules and
ideals, with exact first-failure witnesses.

Scan conventions (these pin down which witness is reported):

* Predicates whose hypothesis is symmetric in (u, v) -- the square-difference
  family -- scan u ascending and v from 0 to u, so only the u >= v half is
  visited; the witness is the first failure in that order, with x innermost.
* Asymmetric predicates (primary, classical primary, prime) scan (u, v, x)
  in plain lexicographic order.

Every scanner works on bit masks over module element indices: for a scalar t,
``hit[t]`` is the mask of x with t.x in N, so a whole x-row is tested with a
few integer operations.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    property: str
    holds: bool
    witness: Witness | None = None
    checked_count: int = 0

    def __bool__(self):
        return self.holds


def _full_mask(n: int) -> int:
    return (1 << n) - 1


def _describe_uvx(M: FiniteModule, u: int, v: int, x: int) -> str:
    R = M.ring
    return f"u={R.describe(u)}, v={R.describe(v)}, x={M.describe(x)}"


def _power_reach_mask(M: FiniteModule, hit: list[int], t: int) -> int:
    """Mask of x such that t^k . x lands in N for some k >= 1."""
    reach = 0
    for p in M.ring.power_orbit_raw(t)[2]:
        reach |= hit[p]
    return reach


def _orbit_len(R, t: int) -> int:
    pre, per, _ = R.power_orbit_raw(t)
    return pre + per - 1


def _first_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def is_gsdf_absorbing(N: Submodule) -> PropertyReport:
    """(u^2 - v^2).x in N implies (u - v).x in N or (u + v)^k.x in N."""
    N.require_proper()
    M = N.module
    R = M.ring
    hit = M.scalar_hit_masks(N.mask)
    reach_cache: dict[int, int] = {}
    checked = 0
    for u in range(R.order):
        for v in range(u + 1):
            d = R.sub(u, v)
            s = R.add(u, v)
            checked += M.order
            sq = hit[R.mul(d, s)]
            bad = sq & ~hit[d]
            if not bad:
                continue
            if s not in reach_cache:
                reach_cache[s] = _power_reach_mask(M, hit, s)
            bad &= ~reach_cache[s]
            if bad:
                x = _first_bit(bad)
                k = _orbit_len(R, s)
                return PropertyReport(
                    "gsdf",
                    False,
                    Witness(u, v, x, k, _describe_uvx(M, u, v, x)),
                    checked,
                )
    return PropertyReport("gsdf", True, None, checked)


def is_sdf_absorbing(N: Submodule) -> PropertyReport:
    """For u, v outside Ann(x): (u^2 - v^2).x in N implies (u - v).x in N or
    (u + v).x in N."""
    N.require_proper()
    M = N.module
    R = M.ring
    hit = M.scalar_hit_masks(N.mask)
    ann = M.scalar_hit_masks(1 << M.zero)  # ann[t] = {x : t.x = 0}
    checked = 0
    for u in range(R.order):
        for v in range(u + 1):
            d = R.sub(u, v)
            s = R.add(u, v)
            checked += M.order
            bad = hit[R.mul(d, s)] & ~hit[d] & ~hit[s] & ~ann[u] & ~ann[v]
            if bad:
                x = _first_bit(bad)
                return PropertyReport(
                    "sdf",
                    False,
                    Witness(u, v, x, 1, _describe_uvx(M, u, v, x)),
                    checked,
                )
    return PropertyReport("sdf", True, None, checked)


def is_classical_primary(N: Submodule) -> PropertyReport:
    """u v x in N implies u x in N or v^k x in N."""
    N.require_proper()
    M = N.module
    R = M.ring
    hit = M.scalar_hit_masks(N.mask)
    reach_cache: dict[int, int] = {}
    checked = 0
    for u in range(R.order):
        for v in range(R.order):
            checked += M.order
            bad = hit[R.mul(u, v)] & ~hit[u]
            if not bad:
                continue
            if v not in reach_cache:
                reach_cache[v] = _power_reach_mask(M, hit, v)
            bad &= ~reach_cache[v]
            if bad:
                x = _first_bit(bad)
                k = _orbit_len(R, v)
                return PropertyReport(
                    "cprimary",
                    False,
                    Witness(u, v, x, k, _describe_uvx(M, u, v, x)),
                    checked,
                )
    return PropertyReport("cprimary", True, None, checked)


def is_primary_submodule(N: Submodule) -> PropertyReport:
    """u x in N implies x in N or u in sqrt(N :_R M)."""
    N.require_proper()
    M = N.module
    R = M.ring
    hit = M.scalar_hit_masks(N.mask)
    rad = radical(colon_ideal_global(N)).mask
    checked = 0
    for u in range(R.order):
        checked += M.order
        if rad >> u & 1:
            continue
        bad = hit[u] & ~N.mask
        if bad:
            x = _first_bit(bad)
            return PropertyReport(
                "primary",
                False,
                Witness(u, 0, x, None, f"u={R.describe(u)}, x={M.describe(x)}"),
                checked,
            )
    return PropertyReport("primary", True, None, checked)


def is_prime_submodule(N: Submodule) -> PropertyReport:
    """u x in N implies x in N or u M contained in N."""
    N.require_proper()
    M = N.module
    R = M.ring
    hit = M.scalar_hit_masks(N.mask)
    full = _full_mask(M.order)
    checked = 0
    for u in range(R.order):
        checked += M.order
        if hit[u] == full:
            continue
        bad = hit[u] & ~N.mask
        if bad:
            x = _first_bit(bad)
            return PropertyReport(
                "prime",
                False,
                Witness(u, 0, x, None, f"u={R.describe(u)}, x={M.describe(x)}"),
                checked,
            )
    return PropertyReport("prime", True, None, checked)


def is_sdf_absorbing_ideal(I: Submodule) -> PropertyReport:
    """For nonzero u, v: u^2 - v^2 in I implies u + v in I or u - v in I."""
    R = _require_ideal(I)
    I.require_proper()
    imask = I.mask
    checked = 0
    for u in range(1, R.order):
        for v in range(1, u + 1):
            d = R.sub(u, v)
            s = R.add(u, v)
            checked += 1
            if imask >> R.mul(d, s) & 1 and not (imask >> s & 1 or imask >> d & 1):
                return PropertyReport(
                    "sdfideal",
                    False,
                    Witness(u, v, None, 1, f"u={R.describe(u)}, v={R.describe(v)}"),
                    checked,
                )
    return PropertyReport("sdfideal", True, None, checked)


def is_sdf_primary_ideal(I: Submodule, *, nonzero_only: bool = False) -> PropertyReport:
    """u^2 - v^2 in I implies u - v in I or (u + v)^k in I for some k >= 1.

    By default u and v range over the whole ring; ``nonzero_only=True``
    restricts the hypothesis to nonzero u, v."""
    R = _require_ideal(I)
    I.require_proper()
    imask = I.mask
    start = 1 if nonzero_only else 0
    checked = 0
    for u in range(start, R.order):
        for v in range(start, u + 1):
            d = R.sub(u, v)
            s = R.add(u, v)
            checked += 1
            if not imask >> R.mul(d, s) & 1 or imask >> d & 1:
                continue
            if any(imask >> p & 1 for p in R.power_orbit_raw(s)[2]):
                continue
            k = _orbit_len(R, s)
            return PropertyReport(
                "sdfprimary",
                False,
                Witness(u, v, None, k, f"u={R.describe(u)}, v={R.describe(v)}"),
                checked,
            )
    return PropertyReport("sdfprimary", True, None, checked)


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


def replay_witness(prop: str, N: Submodule, u: int, v: int, x: int | None = None) -> bool:
    """True when (u, v[, x]) is a genuine violation of the property for N,
    regardless of which witness the scanner would report first."""
    M = N.module
    R = M.ring
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

    def is_closed_ideal(self) -> bool:
        R, mask = self.ring, self.mask
        if not mask >> R.zero & 1:
            return False
        for a in self.indices:
            for b in self.indices:
                if not mask >> R.add(a, b) & 1:
                    return False
            if not mask >> R.neg(a) & 1:
                return False
            for r in range(R.order):
                if not mask >> R.mul(r, a) & 1:
                    return False
        return True


def setwise_sdf_primary(S: RingSubset, *, nonzero_only: bool = False) -> PropertyReport:
    """The sdf-primary condition evaluated on a bare subset of R."""
    R = S.ring
    if not S.is_proper:
        from .errors import NotProperError

        raise NotProperError("subset equals the whole ring")
    mask = S.mask
    start = 1 if nonzero_only else 0
    checked = 0
    for u in range(start, R.order):
        for v in range(start, u + 1):
            d = R.sub(u, v)
            s = R.add(u, v)
            checked += 1
            if not mask >> R.mul(d, s) & 1 or mask >> d & 1:
                continue
            if any(mask >> p & 1 for p in R.power_orbit_raw(s)[2]):
                continue
            return PropertyReport(
                "sdfprimary",
                False,
                Witness(u, v, None, _orbit_len(R, s), f"u={R.describe(u)}, v={R.describe(v)}"),
                checked,
            )
    return PropertyReport("sdfprimary", True, None, checked)
