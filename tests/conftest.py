"""Shared helpers: independent naive oracles used to cross-check the
optimized predicate scanners.  These are written as direct triple loops over
the definitions, with the power exponent k swept up to |R|, and share no code
with the scanners under test.

The walk oracles (``WALK_ORACLES`` for the module properties,
``IDEAL_WALK_ORACLES`` for the ideal-level ones) are the element-pair scans
that the class kernel of ``absorb.predicates`` replaced: plain u/v loops
over hit rows and element operations, in each property's scan order.  They
give whole reports, witness and ``checked_count`` included, to compare with
the library's field by field; they share with it only ``_report``, which
formats a report.

``naive_span`` is the breadth-first closure that the library's spans,
generator lists and sums, all coset joins of cyclic submodules, replaced.

The axiom kernels (``check_axiom_rows``, ``check_ring_axiom_rows``) check
every module or ring axiom on every triple of a tabulated structure.  No
library construction runs them: each checks only its own side condition,
and the tests run the kernels on what the library builds."""
from __future__ import annotations

from math import gcd

from absorb.errors import InvalidConstructionError
from absorb.modules import Submodule, indices_of, mask_of, radical
from absorb.predicates import _report
from absorb.suites import factorize

# the five wide modules of the benchmark's sweep
SWEEP_WIDE = (
    "prod(prod(cyc(Zn(6),6),cyc(Zn(6),6)),cyc(Zn(6),6))",
    "prod(prod(cyc(Zn(3),3),cyc(Zn(3),3)),prod(cyc(Zn(3),3),cyc(Zn(3),3)))",
    "prod(prod(prod(cyc(Zn(2),2),cyc(Zn(2),2)),prod(cyc(Zn(2),2),cyc(Zn(2),2))),cyc(Zn(2),2))",
    "prod(prod(cyc(Zn(4),4),cyc(Zn(4),4)),cyc(Zn(4),4))",
    "self(prod(Zn(12),Zn(12)))",
)


# what the module kernel on R over itself reports, in the ring's words
_RING_WORDING = {
    "(r+s)x axiom fails": "not distributive",
    "r(x+y) axiom fails": "not distributive",
    "(rs)x axiom fails": "* not associative",
    "+ not commutative": "not commutative",
    "1x = x fails": "bad identities",
    "0 + x = x fails": "bad identities",
}


def check_axiom_rows(M) -> None:
    """Every module axiom on every triple, read off the byte-row tables of
    M and its ring with no Python loop over triples: ``row.translate(tab)``
    is ``[tab[i] for i in row]`` in one C call.  Raises
    InvalidConstructionError naming the first axiom that fails.  Rows
    shorter than 256 are padded to make translate tables; the padding is
    never read, as ``byte_rows`` checked every entry."""
    R, nm = M.ring, M.order
    act_b, add_b = M.act_t, M.add_t  # act_b[r][x] = r.x, add_b[x][y] = x + y
    radd, rmul = b"".join(R.add_t), b"".join(R.mul_t)
    pad_m = bytes(256 - nm)
    act_tab = [row + pad_m for row in act_b]
    add_tab = [row + pad_m for row in add_b]
    pad_r = bytes(256 - R.order)
    join, sums = b"".join, add_tab.__getitem__
    for col in map(bytes, zip(*act_b)):  # col[r] = r.x, one per x
        col_tab = col + pad_r
        # over all (r, s): (r+s)x = rx + sx and (rs)x = r(sx)
        if radd.translate(col_tab) != join(map(col.translate, map(sums, col))):
            raise InvalidConstructionError(f"{M.name}: (r+s)x axiom fails")
        if rmul.translate(col_tab) != join(map(col.translate, act_tab)):
            raise InvalidConstructionError(f"{M.name}: (rs)x axiom fails")
    add_all = join(add_b)
    for row, tab in zip(act_b, act_tab):  # row[x] = r.x, one per r
        # over all (x, y): r(x+y) = rx + ry
        if add_all.translate(tab) != join(map(row.translate, map(sums, row))):
            raise InvalidConstructionError(f"{M.name}: r(x+y) axiom fails")
    if add_all != join(map(bytes, zip(*add_b))):
        raise InvalidConstructionError(f"{M.name}: + not commutative")
    if act_b[R.one] != bytes(range(nm)):
        raise InvalidConstructionError(f"{M.name}: 1x = x fails")
    neg_t = M.neg_t
    if any(add_b[x][neg_t[x]] != M.zero for x in range(nm)):
        raise InvalidConstructionError(f"{M.name}: bad negation")
    for x, tab in enumerate(add_tab):  # over all (y, z): x + (y + z) = (x + y) + z
        if add_all.translate(tab) != join(map(add_b.__getitem__, add_b[x])):
            raise InvalidConstructionError(f"{M.name}: + not associative")
    if add_b[M.zero] != bytes(range(nm)):
        raise InvalidConstructionError(f"{M.name}: 0 + x = x fails")


def check_ring_axiom_rows(R) -> None:
    """R is a module over itself exactly when it satisfies every ring
    axiom but commutativity of *, which is a compare of the mul table with
    its transpose here.  Raises InvalidConstructionError in the ring's
    words."""
    M = R.as_module
    try:
        check_axiom_rows(M)
    except InvalidConstructionError as e:
        axiom = str(e).removeprefix(f"{M.name}: ")
        raise InvalidConstructionError(f"{R.name}: {_RING_WORDING.get(axiom, axiom)}") from None
    if list(zip(*R.mul_t)) != list(map(tuple, R.mul_t)):
        raise InvalidConstructionError(f"{R.name}: not commutative")


def member(N, idx: int) -> bool:
    return bool((N.mask >> idx) & 1)


def is_closed_ideal(S) -> bool:
    """The ``RingSubset`` S contains 0 and is closed under +, negation and
    multiplication by R."""
    R = S.ring
    if not member(S, R.zero):
        return False
    for a in S.indices:
        for b in S.indices:
            if not member(S, R.add(a, b)):
                return False
        if not member(S, R.neg(a)):
            return False
        for r in range(R.order):
            if not member(S, R.mul(r, a)):
                return False
    return True


def naive_radical(I) -> int:
    """The mask of sqrt(I) = {u : u^k in I for some k >= 1}, k swept up to |R|."""
    R = I.module.ring
    out = 0
    for u in range(R.order):
        p = u
        for _ in range(R.order):
            if member(I, p):
                out |= 1 << u
                break
            p = R.mul(p, u)
    return out


def naive_gsdf(N) -> bool:
    """(u^2 - v^2).x in N implies (u - v).x in N or (u + v)^k.x in N, k >= 1."""
    M = N.module
    R = M.ring
    for u in range(R.order):
        for v in range(R.order):
            d = R.sub(u, v)
            s = R.add(u, v)
            sq = R.mul(d, s)
            for x in range(M.order):
                if not member(N, M.act(sq, x)):
                    continue
                if member(N, M.act(d, x)):
                    continue
                p = R.one
                for _ in range(R.order):
                    p = R.mul(p, s)
                    if member(N, M.act(p, x)):
                        break
                else:
                    return False
    return True


def naive_sdf(N) -> bool:
    """Same hypothesis restricted to u, v outside Ann(x); conclusion k = 1."""
    M = N.module
    R = M.ring
    for u in range(R.order):
        for v in range(R.order):
            d = R.sub(u, v)
            s = R.add(u, v)
            sq = R.mul(d, s)
            for x in range(M.order):
                if M.act(u, x) == M.zero or M.act(v, x) == M.zero:
                    continue
                if not member(N, M.act(sq, x)):
                    continue
                if member(N, M.act(d, x)) or member(N, M.act(s, x)):
                    continue
                return False
    return True


def naive_classical_primary(N) -> bool:
    """u.v.x in N implies u.x in N or v^k.x in N for some k >= 1."""
    M = N.module
    R = M.ring
    for u in range(R.order):
        for v in range(R.order):
            uv = R.mul(u, v)
            for x in range(M.order):
                if not member(N, M.act(uv, x)):
                    continue
                if member(N, M.act(u, x)):
                    continue
                p = R.one
                for _ in range(R.order):
                    p = R.mul(p, v)
                    if member(N, M.act(p, x)):
                        break
                else:
                    return False
    return True


def naive_prime(N) -> bool:
    """u.x in N implies x in N or u.M <= N."""
    M = N.module
    R = M.ring
    for u in range(R.order):
        umaps_in = all(member(N, M.act(u, y)) for y in range(M.order))
        for x in range(M.order):
            if member(N, M.act(u, x)) and not member(N, x) and not umaps_in:
                return False
    return True


def naive_primary(N) -> bool:
    """u.x in N implies x in N or u in rad(N :_R M)."""
    M = N.module
    R = M.ring
    colon = [r for r in range(R.order) if all(member(N, M.act(r, y)) for y in range(M.order))]
    colon_set = set(colon)
    rad = set()
    for r in range(R.order):
        p = R.one
        for _ in range(R.order):
            p = R.mul(p, r)
            if p in colon_set:
                rad.add(r)
                break
    for u in range(R.order):
        for x in range(M.order):
            if member(N, M.act(u, x)) and not member(N, x) and u not in rad:
                return False
    return True


def naive_sdf_ideal(I) -> bool:
    """Ideal form: u, v nonzero, u^2 - v^2 in I implies u + v in I or u - v in I."""
    R = I.module.ring
    for u in range(R.order):
        for v in range(R.order):
            if u == R.zero or v == R.zero:
                continue
            d = R.sub(u, v)
            s = R.add(u, v)
            if member(I, R.mul(d, s)) and not member(I, d) and not member(I, s):
                return False
    return True


def naive_sdf_primary_ideal(I, nonzero_only: bool = False) -> bool:
    """u^2 - v^2 in I implies u - v in I or (u + v)^k in I for some k >= 1.
    I is an ideal or a bare ``RingSubset`` (the set-wise condition)."""
    R = I.ring if hasattr(I, "ring") else I.module.ring
    for u in range(R.order):
        for v in range(R.order):
            if nonzero_only and (u == R.zero or v == R.zero):
                continue
            d = R.sub(u, v)
            s = R.add(u, v)
            if not member(I, R.mul(d, s)) or member(I, d):
                continue
            p = R.one
            for _ in range(R.order):
                p = R.mul(p, s)
                if member(I, p):
                    break
            else:
                return False
    return True


def naive_gsdf_zero_zn(n: int):
    """(holds, witness) of gsdf for (0) in Z_n by a bitmask scan of every
    pair u >= v: hit masks from divisor arithmetic, the first failing x
    the lowest set bit of the failing mask."""
    div_mask: dict[int, int] = {}

    def multiples(m: int) -> int:
        if m not in div_mask:
            v = 0
            for x in range(0, n, m):
                v |= 1 << x
            div_mask[m] = v
        return div_mask[m]

    hit = [multiples(n // gcd(t, n)) for t in range(n)]
    reach: dict[int, int] = {}
    for u in range(n):
        for v in range(u + 1):
            d = (u - v) % n
            s = (u + v) % n
            bad = hit[d * s % n] & ~hit[d]
            if not bad:
                continue
            if s not in reach:
                g = gcd(s, n) if s else n
                while gcd(g * g, n) != g:
                    g = gcd(g * g, n)
                reach[s] = multiples(n // g)
            bad &= ~reach[s]
            if bad:
                x = (bad & -bad).bit_length() - 1
                return False, (u, v, x)
    return True, None


def walk_gsdf_zero_zn(n: int):
    """``absorb.suites.gsdf_zero_zn`` as it was before its difference-first
    search: the same divisor-class test, then a walk of the pairs u >= v in
    scan order up to the first one in a failing class."""
    primes = factorize(n)
    divisors = [1]
    for p, e in primes:
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    failing = {}
    for b in divisors:
        full = 1
        for p, e in primes:
            if b % p == 0:
                full *= p**e
        for a in divisors:
            if n % 2 == 0 and (a - b) % 2:
                continue
            c = gcd(a * b, n)
            if c != a and full % c:
                failing[a, b] = n // c
    if not failing:
        return True, None
    g = [gcd(t, n) for t in range(n)] * 2  # g[t] = gcd(t, n) for 0 <= t < 2n
    for u in range(n):
        for v in range(u + 1):
            x = failing.get((g[u - v], g[u + v]))
            if x is not None:
                return False, (u, v, x)
    raise AssertionError("a failing divisor class comes from some pair")


def naive_hit_rows(M, target_mask: int) -> tuple[int, ...]:
    """For each scalar t, the mask of {x : t.x in target_mask}, one ``act``
    call per cell."""
    act = M.act
    out = []
    for t in range(M.ring.order):
        m = 0
        for x in range(M.order):
            if target_mask >> act(t, x) & 1:
                m |= 1 << x
        out.append(m)
    return tuple(out)


def naive_is_reduced(M) -> bool:
    """No u and x with u^2.x = 0 but u.x != 0, by one loop over the pairs:
    the reduced-module filter the suites used before they read the
    nilradical."""
    R = M.ring
    for u in range(R.order):
        u2 = R.mul(u, u)
        for x in range(M.order):
            if M.act(u2, x) == M.zero and M.act(u, x) != M.zero:
                return False
    return True


def naive_is_vnr(R) -> bool:
    """Every a has an x with a x a = a: von Neumann regularity by definition."""
    return all(
        any(R.mul(R.mul(a, x), a) == a for x in range(R.order)) for a in range(R.order)
    )


def naive_all_submodules(M) -> list[tuple[int, ...]]:
    """The sorted index tuples of every submodule of M, ordered by size: the
    set of cyclic submodules closed under join with a cyclic one, each join
    built one coset base + j at a time by element additions."""
    add, nr = M.add, M.ring.order

    def orbit(x):
        out = 0
        for r in range(nr):
            out |= 1 << M.act(r, x)
        return out

    def elems(mask):
        return [i for i in range(M.order) if mask >> i & 1]

    cyclic = sorted({orbit(x) for x in range(M.order)})
    seen = set(cyclic)
    frontier = list(cyclic)
    while frontier:
        base = frontier.pop()
        belems = elems(base)
        for c in cyclic:
            if c & ~base == 0:
                continue
            joined = base
            for j in elems(c & ~base):
                if not joined >> j & 1:
                    for i in belems:
                        joined |= 1 << add(i, j)
            if joined not in seen:
                seen.add(joined)
                frontier.append(joined)
    return sorted((tuple(elems(m)) for m in seen), key=lambda t: (len(t), t))


def naive_span(M, gens) -> int:
    """Bit mask of the smallest submodule holding the generator indices,
    by breadth-first closure: each element found is acted on by every
    scalar and added to every element found before it."""
    mask = 1 << M.zero
    elems = [M.zero]
    queue = [g for g in gens if not mask >> g & 1]
    for g in queue:
        mask |= 1 << g
    while queue:
        e = queue.pop()
        for y in [M.act(r, e) for r in range(M.ring.order)] + [M.add(e, s) for s in elems]:
            if not mask >> y & 1:
                mask |= 1 << y
                queue.append(y)
        elems.append(e)
    return mask


def naive_generators(M, indices) -> tuple[int, ...]:
    """The greedy generator list of the submodule on ``indices``: each
    index, in order, that the span of the ones kept so far misses, with
    the span taken afresh by ``naive_span``."""
    gens: list[int] = []
    cur = naive_span(M, ())
    for i in indices:
        if not cur >> i & 1:
            gens.append(i)
            cur = naive_span(M, gens)
    return tuple(gens)


def naive_closure_error(M, indices) -> str | None:
    """The message ``Submodule(M, indices)`` raises, or None, by the element
    loop: 0 first, then each member in index order, tested for negation,
    addition and scalars in that order."""
    mask = mask_of(indices)
    members = sorted(set(indices))
    if not mask >> M.zero & 1:
        return "submodule must contain 0"
    for a in members:
        if not mask >> M.neg(a) & 1:
            return "carrier not closed under negation"
        for b in members:
            if not mask >> M.add(a, b) & 1:
                return "carrier not closed under addition"
        for r in range(M.ring.order):
            if not mask >> M.act(r, a) & 1:
                return "carrier not closed under scalars"
    return None


def naive_hom_error(domain, codomain, table, ring_map=None) -> str | None:
    """The message ``ModuleHom`` raises for a table of the right length with
    entries in range, or None, by the element loop: 0 first, then
    additivity over every pair, then linearity over every scalar."""
    scalar = ring_map if ring_map is not None else (lambda r: r)
    if table[domain.zero] != codomain.zero:
        return "module hom must send 0 to 0"
    for a in range(domain.order):
        for b in range(domain.order):
            if table[domain.add(a, b)] != codomain.add(table[a], table[b]):
                return "module hom is not additive"
    for r in range(domain.ring.order):
        for a in range(domain.order):
            if table[domain.act(r, a)] != codomain.act(scalar(r), table[a]):
                return "module hom is not linear"
    return None


def naive_ring_hom_error(domain, codomain, table) -> str | None:
    """The message ``RingHom`` raises for a table of the right length with
    entries in range, or None, by the element loop: 0 and 1 first, then
    every pair (a, b) in order, additivity before multiplicativity."""
    if table[domain.zero] != codomain.zero or table[domain.one] != codomain.one:
        return "hom must send 0 to 0 and 1 to 1"
    for a in range(domain.order):
        for b in range(domain.order):
            if table[domain.add(a, b)] != codomain.add(table[a], table[b]):
                return "hom is not additive"
            if table[domain.mul(a, b)] != codomain.mul(table[a], table[b]):
                return "hom is not multiplicative"
    return None


NAIVE_ORACLES = {
    "gsdf": naive_gsdf,
    "sdf": naive_sdf,
    "cprimary": naive_classical_primary,
    "prime": naive_prime,
    "primary": naive_primary,
    "sdfideal": naive_sdf_ideal,
    "sdfprimary": naive_sdf_primary_ideal,
}


def _walk_square_difference(prop, R, hit, width, start=0, ann=None, powers=True, M=None):
    """The square-difference condition by element operations over every pair
    u >= v >= start, u ascending and v up to u, x innermost: (u^2 - v^2).x
    in N implies (u - v).x in N or (u + v)^k.x in N for some k >= 1, or with
    ``powers=False`` (u + v).x in N; with ``ann``, only the x outside
    ``ann[u] | ann[v]`` count.  The whole report, witness and
    ``checked_count`` included."""
    reach: dict[int, int] = {}  # s -> the x that some power of s (or s) sends into N

    def powers_of(s):
        return R.power_orbit_raw(s)[2] if powers else (s,)

    for u in range(start, R.order):
        for v in range(start, u + 1):
            d, s = R.sub(u, v), R.add(u, v)
            bad = hit[R.mul(d, s)] & ~hit[d]  # (u - v)(u + v) = u^2 - v^2
            if ann is not None:
                bad &= ~(ann[u] | ann[v])
            if bad:
                if s not in reach:
                    reach[s] = 0
                    for p in powers_of(s):
                        reach[s] |= hit[p]
                bad &= ~reach[s]
            if bad:
                i = u - start
                found = (u, v, (bad & -bad).bit_length() - 1, len(powers_of(s)))
                return _report(prop, found, (i * (i + 1) // 2 + v - start + 1) * width, R, M)
    t = R.order - start
    return _report(prop, None, t * (t + 1) // 2 * width, R)


def walk_gsdf(N):
    """gsdf by the square-difference walk of every pair u >= v."""
    M = N.module
    hit = M.scalar_hit_masks(N.mask)
    return _walk_square_difference("gsdf", M.ring, hit, M.order, M=M)


def walk_sdf(N):
    """sdf by the square-difference walk of every pair u >= v, x outside
    Ann(u) and Ann(v)."""
    M = N.module
    hit, ann = M.scalar_hit_masks(N.mask), M.scalar_hit_masks(1 << M.zero)
    return _walk_square_difference("sdf", M.ring, hit, M.order, ann=ann, powers=False, M=M)


def _bits(S, R) -> list[int]:
    """One-bit hit rows: entry t is 1 when t is in S."""
    return [S.mask >> t & 1 for t in range(R.order)]


def walk_sdf_ideal(I):
    """The sdf-absorbing ideal condition by the walk of every pair u >= v of
    nonzero elements."""
    R = I.module.ring
    return _walk_square_difference("sdfideal", R, _bits(I, R), 1, start=1, powers=False)


def walk_sdf_primary(I, nonzero_only: bool = False):
    """The sdf-primary condition by the walk of every pair u >= v, nonzero
    with ``nonzero_only``.  I is an ideal or a bare ``RingSubset``."""
    R = I.ring if hasattr(I, "ring") else I.module.ring
    return _walk_square_difference("sdfprimary", R, _bits(I, R), 1, start=int(nonzero_only))


def walk_cprimary(N):
    """Classical primary by u and v in plain lexicographic order over the
    whole square, x innermost."""
    M = N.module
    R = M.ring
    hit = M.scalar_hit_masks(N.mask)
    n = R.order
    reach: dict[int, int] = {}  # v -> the x that some power of v sends into N
    for u in range(n):
        for v in range(n):
            bad = hit[R.mul(u, v)] & ~hit[u]
            if bad:
                if v not in reach:
                    reach[v] = 0
                    for p in R.power_orbit_raw(v)[2]:
                        reach[v] |= hit[p]
                bad &= ~reach[v]
            if bad:
                found = (u, v, (bad & -bad).bit_length() - 1, len(R.power_orbit_raw(v)[2]))
                return _report("cprimary", found, (u * n + v + 1) * M.order, R, M)
    return _report("cprimary", None, n * n * M.order, R)


def _colon_mask(M, hit) -> int:
    """(N :_R M) read off the hit rows: the scalars whose row is full."""
    full = (1 << M.order) - 1
    return mask_of(t for t, row in enumerate(hit) if row == full)


def _walk_colon(prop, N, hit, skip):
    """u ascending over every scalar, x innermost; the scalars of ``skip``
    are passed over."""
    M = N.module
    outside = ~N.mask
    for u in range(M.ring.order):
        bad = hit[u] & outside
        if bad and not skip >> u & 1:
            found = (u, None, (bad & -bad).bit_length() - 1, None)
            return _report(prop, found, (u + 1) * M.order, M.ring, M)
    return _report(prop, None, M.ring.order * M.order, M.ring)


def walk_prime(N):
    hit = N.module.scalar_hit_masks(N.mask)
    return _walk_colon("prime", N, hit, _colon_mask(N.module, hit))


def walk_primary(N):
    M = N.module
    hit = M.scalar_hit_masks(N.mask)
    colon = Submodule(M.ring.as_module, indices_of(_colon_mask(M, hit)), _trusted=True)
    return _walk_colon("primary", N, hit, radical(colon).mask)


WALK_ORACLES = {
    "gsdf": walk_gsdf,
    "sdf": walk_sdf,
    "cprimary": walk_cprimary,
    "prime": walk_prime,
    "primary": walk_primary,
}

IDEAL_WALK_ORACLES = {
    "sdfideal": walk_sdf_ideal,
    "sdfprimary": walk_sdf_primary,
}
