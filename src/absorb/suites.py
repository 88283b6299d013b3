"""Named verification suites and the Z_n classification.

Each suite sweeps a configured family of modules, checks one universally
quantified statement on every instance, and reports violations (each replayable from
its description).  Suites that encode a known counterexample also confirm
it and record the confirmation.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from math import gcd, lcm

from .errors import AbsorbError, DegenerateLocalizationError, UnknownSuiteError
from .rings import IdealizationRing, ProductRing, ZMod, identity_hom, make_zmod, reduction_hom
from .modules import (
    CyclicModule,
    ModuleHom,
    ProductModule,
    RingAsModule,
    SubcarrierModule,
    Submodule,
    colon_ideal,
    colon_submodule,
    indices_of,
    intersect_submodules,
    radical,
    span,
    zero_submodule,
)
from .constructions import (
    MultiplicativeSet,
    amalg_submodule_n1,
    amalg_submodule_n2,
    amalgamated_module,
    amalgamation_ring,
    idealization_subset,
    localize_module,
    localize_submodule,
    product_submodule,
    quotient_module,
    quotient_submodule,
    saturate,
)
from .lattice import all_multiplicative_sets, all_submodules, decomposition_check
from .predicates import (
    PROPERTY_CHECKS,
    PropertyReport,
    replay_witness,
    setwise_sdf_primary,
)

# ----------------------------------------------------------- shared plumbing

_VERDICTS: dict = {}


def cached_check(prop: str, N: Submodule, **kw) -> PropertyReport:
    key = (prop, N.module.signature, N.mask, tuple(sorted(kw.items())))
    if key not in _VERDICTS:
        _VERDICTS[key] = PROPERTY_CHECKS[prop](N, **kw)
    return _VERDICTS[key]


@dataclass
class SuiteReport:
    suite_id: str
    statement: str
    instances_checked: int
    violations: list
    elapsed: float
    parameters: dict
    confirmations: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations


def zn_module(n: int) -> RingAsModule:
    return make_zmod(n).as_module


def zn_family(max_n: int = 60):
    for n in range(2, max_n + 1):
        yield zn_module(n)


@functools.lru_cache(maxsize=None)
def _product_module(a: int, b: int) -> ProductModule:
    R = make_zmod(lcm(a, b))
    return ProductModule(CyclicModule(R, a), CyclicModule(R, b))


def product_family(max_ab: int = 12):
    """Z_a x Z_b with Z acting through Z_lcm(a,b); unordered pairs, since
    the two orders give the same module up to swapping coordinates."""
    for a in range(2, max_ab + 1):
        for b in range(a, max_ab + 1):
            yield _product_module(a, b)


def idealization_family(ns=(2, 3, 4, 6, 8)):
    for n in ns:
        R = make_zmod(n)
        yield IdealizationRing(R, R.as_module).as_module


def amalgamation_instances(ring_ns=(6, 12)):
    """(ring, module, description) triples: R1 = R2 = Z_n with f = id, plus
    every reduction hom Z_a -> Z_b between family members, sweeping all
    ideals J of R2; M1 = M2 = self and phi has the same table as f."""
    homs = []
    for n in ring_ns:
        Rn = make_zmod(n)
        homs.append((Rn, Rn, identity_hom(Rn)))
    for a in ring_ns:
        for b in ring_ns:
            if a != b and a % b == 0:
                homs.append((make_zmod(a), make_zmod(b), reduction_hom(make_zmod(a), make_zmod(b))))
    for r1, r2, f in homs:
        m1, m2 = r1.as_module, r2.as_module
        phi = ModuleHom(m1, m2, f.table, ring_map=f, name=f.name)
        for J in all_submodules(m2).members:
            A = amalgamation_ring(r1, r2, f, J)
            AM = amalgamated_module(A, m1, m2, phi, J)
            desc = f"{r1.name} amalg {r2.name} via {f.name}, J={J.describe()}"
            yield AM, m1, J, desc


@functools.lru_cache(maxsize=None)
def default_family() -> tuple:
    """Every module instance swept by the cross-cutting suites, built once."""
    amalgamations = (AM for AM, _m1, _J, _desc in amalgamation_instances())
    return (*zn_family(60), *product_family(12), *idealization_family(), *amalgamations)


# ------------------------------------------------------------ classification


def is_pk_or_2pk(n: int) -> bool:
    """n = p^k (p prime) or n = 2 p^k (p an odd prime)."""
    primes = factorize(n)
    return len(primes) == 1 or (len(primes) == 2 and primes[0] == (2, 1))


@functools.lru_cache(maxsize=64)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n by trial division; cached, so a
    classify row, whose kernel, prediction and column each read them in
    turn, divides n once."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def gsdf_zero_zn(n: int):
    """Decide whether (0) is gsdf-absorbing in Z_n on the divisor classes of
    n, with the witness ``is_gsdf_absorbing`` gives on the zero submodule of
    Z_n (verified in tests).  It never consults the p^k / 2p^k prediction.

    A pair u >= v fails at x when (u-v)(u+v).x = 0, (u-v).x != 0 and
    (u+v)^k.x != 0 for every k.  Write H_m for the multiples of n/m, the
    subgroup of order m of Z_n, for m | n.

    - {x : t.x = 0} is H_gcd(t, n): it depends only on gcd(t, n).
    - With a = gcd(u-v, n) and b = gcd(u+v, n), gcd((u-v)(u+v), n) is
      gcd(ab, n) =: c, and a | c.
    - {x : (u+v)^k.x = 0 for some k} is H_b', where b' is the product of
      the full prime powers p^e || n over the primes p | b.
    - So (u, v) fails exactly at the x of H_c outside H_a and H_b'.  A group
      is never the union of two proper subgroups, so H_c lies in
      H_a u H_b' iff it lies in one of them: (u, v) fails iff c != a and
      c does not divide b'.
    - Every pair of divisors (a, b) comes from some u >= v when n is odd,
      as 2 is then a unit and (u-v, u+v) ranges over all of Z_n^2.  When n
      is even, u-v and u+v have the same parity, and d = u-v, s = u+v is
      solvable (2u = d + s) whenever d + s is even, so exactly the pairs
      with a = b (mod 2) occur.  Swapping u and v changes neither a nor b.

    Hence (0) holds iff no such divisor pair fails, which takes tau(n)^2
    steps.  Otherwise the witness is the first pair in a failing class in
    scan order (u ascending, then v), and x = n/c: the least positive
    element of H_c, outside H_a as c != a and outside H_b' as c does not
    divide b'.

    That pair is found difference first.  With d = u-v and s = u+v (so
    0 <= d <= s and s = d mod 2), the first pair has the least u = (d+s)/2
    and, for that u, the greatest d.  For each d = 0, 1, ... up to the
    best u so far, the least s >= d of d's parity whose class pair
    (gcd(d, n), gcd(s, n)) fails is one ``find`` in a 0/1 mark of the s
    with a failing class, kept per class of d and split by parity.  The
    marks cover a window s < w, doubled from 64 up to 2n: every pair with
    u < w/2 has s < w, so a best pair with u < w/2 is exact.  This takes
    O(tau(n) w) steps, with w about 4u.
    """
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
    failing_b = {}  # a -> the b with (a, b) failing
    for a, b in failing:
        failing_b.setdefault(a, set()).add(b)
    w = min(64, 2 * n)
    while True:
        g = [gcd(t, n) for t in range(w)]
        marks = {}  # a -> the marks of the failing s, at even and odd s
        best, best_d = w, 0  # the least u found, and its greatest d
        for d in range(min(w, n)):
            if d > best:
                break
            a = g[d]
            if a not in failing_b:
                continue
            if a not in marks:
                mark = bytes(map(failing_b[a].__contains__, g))
                marks[a] = mark[0::2], mark[1::2]
            i = marks[a][d & 1].find(1, d >> 1)  # the least s = 2i + (d & 1) >= d
            u = i + (d + 1) // 2  # (d + s) / 2
            if i >= 0 and u <= best:
                best, best_d = u, d
        if 2 * best < w:
            return False, (best, best - best_d, failing[g[best_d], g[2 * best - best_d]])
        if w == 2 * n:
            raise AssertionError("a failing divisor class comes from some pair")
        w = min(2 * w, 2 * n)


@dataclass(frozen=True)
class ZnRow:
    n: int
    gsdf_zero: bool
    predicted: bool
    factorization: tuple
    witness: tuple | None

    @property
    def match(self) -> bool:
        return self.gsdf_zero == self.predicted


@dataclass
class ZnClassification:
    max_n: int
    rows: list[ZnRow]

    @property
    def mismatches(self) -> list[ZnRow]:
        return [r for r in self.rows if not r.match]


def _classify_row(n: int) -> ZnRow:
    holds, witness = gsdf_zero_zn(n)
    return ZnRow(n, holds, is_pk_or_2pk(n), factorize(n), witness)


def classify_zn(max_n: int, jobs: int = 1) -> ZnClassification:
    ns = range(2, max_n + 1)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_classify_row, ns)
    else:
        rows = [_classify_row(n) for n in ns]
    rows.sort(key=lambda r: r.n)
    return ZnClassification(max_n, rows)


# ------------------------------------------------------------------- suites
#
# A suite is a generator over its instances: it yields once per instance it
# checks, None when the statement holds there and the violation (text,
# report or None) when it does not, and returns (confirmations, extra
# parameters).  Its size parameters are keyword-only with defaults.
# ``run_suite`` does all the counting.


def _agreement(modules, p, q, submodules=lambda M: all_submodules(M).proper):
    """One instance per submodule N of each module: do properties p and q
    agree on N?"""
    for M in modules:
        for N in submodules(M):
            a, b = cached_check(p, N).holds, cached_check(q, N).holds
            yield None if a == b else (f"{M.name}: N={N.describe()} {p}={a} {q}={b}",
                                       cached_check(p, N))


def _is_reduced(M) -> bool:
    """R over itself is reduced, that is its nilradical sqrt(0) is zero.  A
    finite reduced ring is a product of fields, so also von Neumann regular."""
    return radical(zero_submodule(M)).order == 1


def _suite_eq_equivalence(*, zn_max=60, prod_max=12):
    """The four characterizations of gsdf-absorbing agree: N gsdf <=>
    (N :_M r) gsdf for every r with rM not inside N <=> (N :_R x)
    sdf-primary for every x outside N <=> (N :_R K) sdf-primary for every
    finitely generated K (checked for all <= 2-generated K) not inside N."""

    def holds(prop, module, mask):
        return cached_check(prop, Submodule(module, indices_of(mask), _trusted=True)).holds

    for M in (*zn_family(zn_max), *product_family(prod_max)):
        RM = M.ring.as_module
        full_m = (1 << M.order) - 1
        for N in all_submodules(M).proper:
            nmask = N.mask
            hit = M.scalar_hit_masks(nmask)
            b1 = cached_check("gsdf", N).holds
            # (2): distinct (N :_M r) with rM not inside N are submodules
            b2 = all(holds("gsdf", M, cm) for cm in {row for row in hit if row != full_m})
            # (3): distinct (N :_R x) for x outside N, the columns of hit,
            # read by transposing the rows as binary strings (highest t first)
            bits = [format(row, f"0{M.order}b")[::-1] for row in reversed(hit)]
            cols = {int("".join(c), 2) for x, c in enumerate(zip(*bits)) if not nmask >> x & 1}
            b3 = all(holds("sdfprimary", RM, cm) for cm in cols)
            # (4): <=2-generated K not inside N; (N :_R <x1,x2>) is the
            # intersection of the two element colons
            cols = sorted(cols)
            pair_masks = {c & d for i, c in enumerate(cols) for d in cols[i:]}
            b4 = all(holds("sdfprimary", RM, cm) for cm in pair_masks)
            yield None if b1 == b2 == b3 == b4 else (
                f"{M.name}: N={N.describe()} verdicts (1,2,3,4)=({b1},{b2},{b3},{b4})",
                cached_check("gsdf", N),
            )
    return {}, {}


def _suite_unit2(*, max_n=99):
    """When 2 is a unit, gsdf-absorbing = classical primary."""
    modules = [zn_module(n) for n in range(3, max_n + 1, 2)]
    assert all(M.ring.is_unit(2 % M.order) for M in modules)
    yield from _agreement(modules, "gsdf", "cprimary")
    return {}, {"parity": "odd"}


def _suite_char2():
    """In characteristic 2 every proper submodule is gsdf-absorbing."""
    R2 = make_zmod(2)
    for M in (
        R2.as_module,
        ProductRing(R2, R2).as_module,
        IdealizationRing(R2, R2.as_module).as_module,
        ProductModule(R2.as_module, CyclicModule(R2, 2)),
    ):
        one = M.ring.one
        assert M.ring.add(one, one) == M.ring.zero
        for N in all_submodules(M).proper:
            rep = cached_check("gsdf", N)
            yield None if rep.holds else (f"{M.name}: N={N.describe()}", rep)
    return {}, {"family": "char-2 rings"}


def _suite_reduced_zero(*, max_n=60):
    """In a reduced module, (0) gsdf-absorbing <=> (0) sdf-absorbing."""
    modules = list(zn_family(max_n))
    reduced = [M for M in modules if _is_reduced(M)]
    yield from _agreement(reduced, "gsdf", "sdf", submodules=lambda M: [zero_submodule(M)])
    return {"non_reduced_skipped": len(modules) - len(reduced)}, {}


def _suite_vnr(*, max_n=60):
    """Over a von Neumann regular ring, gsdf-absorbing = sdf-absorbing for
    every proper submodule (every ideal is radical)."""
    modules = [M for M in zn_family(max_n) if _is_reduced(M)]
    for p, q in ((2, 3), (2, 5), (3, 5), (2, 7)):
        modules.append(ProductRing(make_zmod(p), make_zmod(q)).as_module)
    yield from _agreement(modules, "gsdf", "sdf")
    return {}, {"extra": "products of prime fields"}


def _suite_maximal_prime():
    """Every maximal gsdf-absorbing submodule is prime."""
    confirmations = {}
    for M in default_family():
        lat = all_submodules(M)
        maximal = lat.maximal_members([N for N in lat.proper if cached_check("gsdf", N).holds])
        for N in maximal:
            rep = cached_check("prime", N)
            yield None if rep.holds else (f"{M.name}: N={N.describe()}", rep)
        if isinstance(M, RingAsModule) and isinstance(M.ring, ZMod) and M.ring.n == 12:
            confirmations["z12_maximal_gsdf"] = sorted(N.describe() for N in maximal)
    return confirmations, {"family": "default"}


def _suite_decomposition(*, max_n=100):
    """Every proper submodule of Z_n admits a gsdf-absorbing decomposition."""
    for n in range(2, max_n + 1):
        lat = all_submodules(zn_module(n))
        for N in lat.proper:
            yield None if decomposition_check(N, lat).holds else (f"Z{n}: N={N.describe()}", None)
    # the Z24 non-uniqueness instance: (12) = (3) cap (4) = (6) cap (4)
    M24 = zn_module(24)
    n12 = span(M24, [12])
    i34 = intersect_submodules(span(M24, [3]), span(M24, [4]))
    i64 = intersect_submodules(span(M24, [6]), span(M24, [4]))
    two = i34 == n12 == i64 and all(cached_check("gsdf", span(M24, [d])).holds for d in (3, 4, 6))
    return {"z24_two_decompositions": two}, {}


def _suite_principal_ideal(*, max_n=40):
    """For a principal ideal I, N proper in IM is gsdf-absorbing in IM iff
    (N :_M I) is gsdf-absorbing in M."""
    for n in range(2, max_n + 1):
        M = zn_module(n)
        for d in range(2, n):
            if n % d:
                continue
            # I = (d); IM has carrier dZ_n
            IM = SubcarrierModule(M, range(0, n, d), name=f"({d})Z{n}")
            for N in all_submodules(IM).proper:
                lifted = Submodule(M, [IM.to_base(i) for i in N.indices], _trusted=True)
                lhs = cached_check("gsdf", N).holds
                rhs = cached_check("gsdf", colon_submodule(lifted, d)).holds
                yield None if lhs == rhs else (
                    f"Z{n}, I=({d}): N={N.describe()} in-IM={lhs} colon={rhs}",
                    cached_check("gsdf", N),
                )
    return {}, {}


def _suite_localization(*, ring_ns=(12, 24)):
    """Localization both ways: gsdf passes to S^-1 N when it stays proper,
    and comes back when N is S-saturated."""
    skipped_degenerate = 0
    confirmations = {}
    for n in ring_ns:
        M = zn_module(n)
        lat = all_submodules(M)
        loc_cache: dict[int, object] = {}
        for S in all_multiplicative_sets(M.ring):
            try:
                e = M.ring.stable_idempotent_raw(S.product)
                if e not in loc_cache:
                    loc_cache[e] = localize_module(M, S)
                locm = loc_cache[e]
            except DegenerateLocalizationError:
                skipped_degenerate += 1
                continue
            full_loc = (1 << locm.module.order) - 1
            for N in lat.proper:
                sn = localize_submodule(N, locm)
                n_gsdf = cached_check("gsdf", N).holds
                if sn.mask == full_loc or n_gsdf == cached_check("gsdf", sn).holds:
                    yield None
                elif n_gsdf:
                    yield (f"Z{n}, S={S}: S^-1N not gsdf for N={N.describe()}",
                           cached_check("gsdf", sn))
                else:
                    yield None if saturate(N, S) != N else (
                        f"Z{n}, S={S}: saturated N={N.describe()} not gsdf", None
                    )
        if n == 12:
            inst = localize_module(M, MultiplicativeSet(M.ring, [4]))
            confirmations["z12_s14"] = {"idempotent": inst.ring.idempotent,
                                         "ring_order": inst.ring.ring.order}
    return confirmations, {"degenerate_skipped": skipped_degenerate}


def _suite_epimorphism(*, max_n=60):
    """Along a module epimorphism: images of gsdf submodules containing the
    kernel are gsdf; preimages of gsdf submodules are gsdf when proper."""
    for M in zn_family(max_n):
        lat = all_submodules(M)
        for K in lat.proper:
            Q, proj = quotient_module(M, K)
            for N in lat.proper:
                if K.mask & ~N.mask:
                    continue
                img = proj.image_submodule(N) if cached_check("gsdf", N).holds else None
                bad = img is not None and not cached_check("gsdf", img).holds
                yield (f"{M.name}/{K.describe()}: image of N={N.describe()}",
                       cached_check("gsdf", img)) if bad else None
            for NP in all_submodules(Q).proper:
                pre = proj.preimage_submodule(NP) if cached_check("gsdf", NP).holds else None
                bad = pre is not None and pre.is_proper and not cached_check("gsdf", pre).holds
                yield (f"{M.name}/{K.describe()}: preimage of N'={NP.describe()}",
                       cached_check("gsdf", pre)) if bad else None
    return {}, {}


def _suite_restriction_quotient(*, max_n=60):
    """Restriction to a smaller module and passage to quotients: N cap M1 is
    gsdf in M1 <= M2, and N gsdf <=> N/K gsdf."""
    for M in zn_family(max_n):
        lat = all_submodules(M)
        gsdf_members = [N for N in lat.proper if cached_check("gsdf", N).holds]
        for P in lat.members:
            if P.order < 2:
                continue
            M1 = SubcarrierModule(M, P.indices)
            for N in gsdf_members:
                inter = N.mask & P.mask
                if inter == P.mask:
                    continue  # N cap M1 = M1, not proper
                NN = Submodule(M1, [M1.from_base(i) for i in indices_of(inter)], _trusted=True)
                yield None if cached_check("gsdf", NN).holds else (
                    f"{M.name}: ({N.describe()} cap {P.describe()}) in M1", None
                )
        for K in lat.proper:
            for N in lat.proper:
                if K.mask & ~N.mask:
                    continue
                NK = quotient_submodule(N, K)
                yield None if cached_check("gsdf", N).holds == cached_check("gsdf", NK).holds else (
                    f"{M.name}: N={N.describe()} K={K.describe()} quotient mismatch", None
                )
    return {}, {}


def _suite_intersection(*, max_n=30):
    """Intersections of gsdf pairs whose colon radicals agree outside the
    intersection stay gsdf; the hypothesis is necessary (Z21 instance)."""
    skipped = 0
    rad_cache: dict = {}

    def colon_radical_mask(N, x):
        key = (N.module.signature, N.mask, x)
        if key not in rad_cache:
            rad_cache[key] = radical(colon_ideal(N, x)).mask
        return rad_cache[key]

    for M in zn_family(max_n):
        lat = all_submodules(M)
        gsdf_members = [N for N in lat.proper if cached_check("gsdf", N).holds]
        for i, N1 in enumerate(gsdf_members):
            for N2 in gsdf_members[i:]:
                inter_mask = N1.mask & N2.mask
                if not all(
                    colon_radical_mask(N1, x) == colon_radical_mask(N2, x)
                    for x in range(M.order)
                    if not inter_mask >> x & 1
                ):
                    skipped += 1
                    continue
                inter = Submodule(M, indices_of(inter_mask), _trusted=True)
                yield None if cached_check("gsdf", inter).holds else (
                    f"{M.name}: {N1.describe()} cap {N2.describe()}", None
                )
    # Z21 counterexample: (3) cap (7) = (0) is not gsdf; the quoted witness
    # (5,2,2) replays as a genuine violation
    M21 = zn_module(21)
    z = zero_submodule(M21)
    rep = cached_check("gsdf", z)
    confirmations = {
        "z21_intersection_fails": not rep.holds,
        "z21_scan_witness": rep.witness.as_tuple() if rep.witness else None,
        "z21_witness_5_2_2_replays": replay_witness("gsdf", z, 5, 2, 2),
        "z21_factors_gsdf": all(cached_check("gsdf", span(M21, [d])).holds for d in (3, 7)),
    }
    return confirmations, {"hypothesis_skipped": skipped}


def _suite_chain_union(*, max_n=60):
    """The top (= union) of every maximal chain of gsdf-absorbing submodules
    is gsdf-absorbing."""
    for M in zn_family(max_n):
        lat = all_submodules(M)
        for chain in _maximal_chains([N for N in lat.proper if cached_check("gsdf", N).holds]):
            union_mask = 0
            for N in chain:
                union_mask |= N.mask
            top = chain[-1]
            ok = union_mask == top.mask and cached_check("gsdf", top).holds
            yield None if ok else (f"{M.name}: chain top {top.describe()}", None)
    return {}, {}


def _maximal_chains(members, chain=()):
    """The maximal chains of a poset of submodules, bottom first: each chain
    grows down by every cover of its bottom, taken in the order of members."""
    below = [P for P in members if not chain or P < chain[0]]
    covers = [P for P in below if not any(P < Q for Q in below)]
    if chain and not covers:
        yield chain
    for P in covers:
        yield from _maximal_chains(members, (P, *chain))


def _suite_product(*, max_ab=12):
    """Products: N1 x N2 gsdf forces both factors gsdf; N1 x M2 (and
    M1 x N2) is gsdf iff the proper factor is; plus the two known failures
    of the converse for N1 x N2."""
    for P in product_family(max_ab):
        lat1, lat2 = all_submodules(P.m1).members, all_submodules(P.m2).members
        for N1 in lat1:
            for N2 in lat2:
                if not N1.is_proper and not N2.is_proper:
                    continue
                prod_gsdf = cached_check("gsdf", product_submodule(P, N1, N2)).holds
                if N1.is_proper and N2.is_proper:
                    # part (1): product gsdf forces both factors gsdf
                    part = 1
                    ok = not prod_gsdf or (
                        cached_check("gsdf", N1).holds and cached_check("gsdf", N2).holds
                    )
                elif N1.is_proper:  # part (2): N1 x M2
                    part, ok = 2, prod_gsdf == cached_check("gsdf", N1).holds
                else:  # part (3): M1 x N2
                    part, ok = 3, prod_gsdf == cached_check("gsdf", N2).holds
                yield None if ok else (
                    f"{P.name}: {N1.describe() if N1.is_proper else 'M1'} x "
                    f"{N2.describe() if N2.is_proper else 'M2'} part({part})",
                    None,
                )
    # counterexample 1: zero submodule of Z10 x Z9 (both factors gsdf)
    R90 = make_zmod(90)
    P109 = ProductModule(CyclicModule(R90, 10), CyclicModule(R90, 9))
    z109 = zero_submodule(P109)
    rep = cached_check("gsdf", z109)
    wx = P109.literal_to_index((2, 3))
    confirmations = {
        "z10xz9_not_gsdf": not rep.holds,
        "z10xz9_witness_replays": replay_witness("gsdf", z109, 4, 1, wx),
    }
    # counterexample 2: zero x zero over Z3 x Z3 (characteristic 2n-1 = 3,
    # n = 2), with u = (2,2), v = (1,2) violating
    R33 = ProductRing(make_zmod(3), make_zmod(3))
    z33 = zero_submodule(R33.as_module)
    u = R33.literal_to_index((2, 2))
    v = R33.literal_to_index((1, 2))
    x = R33.literal_to_index((1, 1))
    confirmations["z3xz3_not_gsdf"] = not cached_check("gsdf", z33).holds
    confirmations["z3xz3_char_witness_replays"] = replay_witness("gsdf", z33, u, v, x)
    return confirmations, {}


def _suite_idealization(*, ns=(2, 3, 4, 6, 8)):
    """Idealization: sqrt(I x N) = sqrt(I) x M; I x N sdf-primary forces I
    sdf-primary; I sdf-primary <=> I x M sdf-primary; plus the two set-wise
    examples on non-ideal subsets."""
    for n in ns:
        R = make_zmod(n)
        M = R.as_module
        A = IdealizationRing(R, M)
        AM = A.as_module
        ideals = all_submodules(M).members
        full_ring = (1 << A.order) - 1
        for I in ideals:
            for N in ideals:
                subset, is_ideal = idealization_subset(A, I, N)
                if not is_ideal or subset.mask == full_ring:
                    continue
                IN = Submodule(AM, subset.indices, _trusted=True)
                # radical identity
                want = {A.pack(r, x) for r in radical(I).indices for x in range(M.order)}
                if set(radical(IN).indices) != want:
                    yield (f"Z{n}: sqrt(({I.describe()}) x {N.describe()})", None)
                # Prop (1): I x N sdf-primary => I sdf-primary
                elif (
                    cached_check("sdfprimary", IN).holds
                    and I.is_proper
                    and not cached_check("sdfprimary", I).holds
                ):
                    yield (f"Z{n}: Prop(1) {I.describe()} x {N.describe()}", None)
                else:
                    yield None
            # Prop (2): I sdf-primary <=> I x M sdf-primary
            if I.is_proper:
                IM = Submodule(AM, [A.pack(r, x) for r in I.indices for x in range(M.order)],
                               _trusted=True)
                ok = cached_check("sdfprimary", I).holds == cached_check("sdfprimary", IM).holds
                yield None if ok else (f"Z{n}: Prop(2) I={I.describe()}", None)
    # set-wise example: (3) x (2) in Z6 x Z6 is not an ideal and fails the
    # sdf-primary condition; the quoted witness has first components (2,1)
    # and (5,0)
    R6 = make_zmod(6)
    A6 = IdealizationRing(R6, R6.as_module)
    subset, is_ideal = idealization_subset(A6, span(R6.as_module, [3]), span(R6.as_module, [2]))
    u = A6.literal_to_index((2, 1))
    v = A6.literal_to_index((5, 0))
    confirmations = {
        "z6_3x2_is_ideal": is_ideal,
        "z6_3x2_setwise_holds": setwise_sdf_primary(subset).holds,
        "z6_3x2_witness_replays": replay_witness("sdfprimary", subset, u, v),
    }
    # the 42Z-style example: (2) x (0) in Z42 x Z42 satisfies the set-wise
    # sdf-primary condition even though (0) is not gsdf in Z42
    R42 = make_zmod(42)
    A42 = IdealizationRing(R42, R42.as_module)
    z42 = zero_submodule(R42.as_module)
    s42, ideal42 = idealization_subset(A42, span(R42.as_module, [2]), z42)
    confirmations["z42_2x0_is_ideal"] = ideal42
    confirmations["z42_2x0_setwise_holds"] = setwise_sdf_primary(s42).holds
    confirmations["z42_zero_not_gsdf"] = not cached_check("gsdf", z42).holds
    confirmations["z42_witness_5_2_2_replays"] = replay_witness("gsdf", z42, 5, 2, 2)
    return confirmations, {}


def _suite_amalgamation(*, ring_ns=(6, 12)):
    """N1 join J M2 is gsdf in the amalgamated module iff N1 is gsdf in M1;
    the corresponding fact for the second-component submodules is swept and
    recorded without being asserted."""
    n2bar_agrees = 0
    n2bar_total = 0
    for AM, m1, _J, desc in amalgamation_instances(ring_ns):
        for N1 in all_submodules(m1).proper:
            lhs = cached_check("gsdf", amalg_submodule_n1(AM, N1)).holds
            rhs = cached_check("gsdf", N1).holds
            yield None if lhs == rhs else (
                f"{desc}: N1={N1.describe()} join={lhs} base={rhs}", None
            )
        for N2 in all_submodules(AM.m2).proper:
            bar = amalg_submodule_n2(AM, N2)
            if not bar.is_proper:
                continue
            n2bar_total += 1
            if cached_check("gsdf", bar).holds == cached_check("gsdf", N2).holds:
                n2bar_agrees += 1
    return {"n2bar_agrees": n2bar_agrees, "n2bar_total": n2bar_total}, {}


# suite id -> (statement, suite, the scalar size parameter `verify --max`
# sets, or None when the size is a tuple of orders or a fixed family)
_CATALOG = {
    "eq-equivalence": (
        "the four characterizations of gsdf-absorbing are equivalent",
        _suite_eq_equivalence,
        "zn_max",
    ),
    "unit2": ("2 a unit: gsdf-absorbing = classical primary", _suite_unit2, "max_n"),
    "char2": ("characteristic 2: every proper submodule is gsdf-absorbing", _suite_char2, None),
    "reduced-zero": (
        "reduced module: (0) gsdf-absorbing iff sdf-absorbing",
        _suite_reduced_zero,
        "max_n",
    ),
    "vnr": ("von Neumann regular: gsdf-absorbing = sdf-absorbing", _suite_vnr, "max_n"),
    "maximal-prime": ("maximal gsdf-absorbing submodules are prime", _suite_maximal_prime, None),
    "decomposition": (
        "every proper submodule admits a gsdf-absorbing decomposition",
        _suite_decomposition,
        "max_n",
    ),
    "principal-ideal": (
        "N gsdf in IM iff (N : I) gsdf in M, for principal I",
        _suite_principal_ideal,
        "max_n",
    ),
    "localization": ("gsdf transfers along localization", _suite_localization, None),
    "epimorphism": ("gsdf transfers along epimorphisms", _suite_epimorphism, "max_n"),
    "restriction-quotient": (
        "gsdf restricts to submodules and passes to/from quotients",
        _suite_restriction_quotient,
        "max_n",
    ),
    "intersection": (
        "gsdf intersections under the matching-radical hypothesis",
        _suite_intersection,
        "max_n",
    ),
    "chain-union": ("unions of chains of gsdf submodules are gsdf", _suite_chain_union, "max_n"),
    "product": ("gsdf behavior of product submodules", _suite_product, "max_ab"),
    "idealization": ("sdf-primary transfer through idealizations", _suite_idealization, None),
    "amalgamation": ("gsdf transfer through amalgamated modules", _suite_amalgamation, None),
}

SUITE_IDS = tuple(_CATALOG)


def _catalog_entry(suite_id: str):
    if suite_id not in _CATALOG:
        raise UnknownSuiteError(f"unknown suite {suite_id!r}; known: {', '.join(SUITE_IDS)}")
    return _CATALOG[suite_id]


def size_parameter(suite_id: str) -> str | None:
    """The scalar size parameter of a suite, or None if it has none."""
    return _catalog_entry(suite_id)[2]


def run_suite(suite_id: str, params: dict | None = None) -> SuiteReport:
    """Run a suite, counting the instances it yields and the violations
    among them; ``params`` may set only the suite's keyword parameters."""
    statement, fn, _ = _catalog_entry(suite_id)
    params = params or {}
    defaults = fn.__kwdefaults__ or {}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise AbsorbError(
            f"suite {suite_id!r} has no parameter {', '.join(map(repr, unknown))}; "
            f"its parameters: {', '.join(defaults) or 'none'}"
        )
    t0 = time.perf_counter()
    checked, violations = 0, []
    suite = fn(**params)
    try:
        while True:
            violation = next(suite)
            checked += 1
            if violation is not None:
                violations.append(violation)
    except StopIteration as done:
        confirmations, extra = done.value
    return SuiteReport(
        suite_id=suite_id,
        statement=statement,
        instances_checked=checked,
        violations=violations,
        elapsed=time.perf_counter() - t0,
        parameters={**defaults, **params, **extra},
        confirmations=confirmations,
    )
