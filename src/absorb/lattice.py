"""Exhaustive enumeration of submodules, ideals and multiplicative sets,
plus lattice-level searches (maximal members, decompositions,
counterexample hunts)."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeBoundError, env_bound
from .modules import FiniteModule, Submodule, _cosets, _join, cyclic_mask, indices_of, mask_of
from .predicates import PROPERTY_CHECKS, PropertyReport

DEFAULT_LATTICE_BOUND = 2048
_BOUND_ENV = "ABSORB_LATTICE_BOUND"


@dataclass
class SubmoduleLattice:
    module: FiniteModule
    members: list[Submodule]

    @property
    def proper(self) -> list[Submodule]:
        return [N for N in self.members if N.is_proper]

    def maximal_members(self, members=None) -> list[Submodule]:
        """Members of the given collection not strictly below another one."""
        pool = list(self.proper if members is None else members)
        return [
            N
            for N in pool
            if not any(N is not P and N.mask & ~P.mask == 0 and N.mask != P.mask for P in pool)
        ]


def all_submodules(M: FiniteModule, bound: int | None = None) -> SubmoduleLattice:
    """Every submodule of M, as the joins of a set G of generators found
    among the cyclic submodules.  Raises SizeBoundError when the count
    exceeds the bound (default 2048, env ABSORB_LATTICE_BOUND).

    G holds the nonzero cyclic submodules that are not the join of strictly
    smaller cyclic ones; on (Z6)^3 that is 20 of 112.  Every submodule is
    the join of G-members: it is the join of the cyclic submodules Rx of its
    elements, and by induction on |C| a cyclic C outside G is the join of
    cyclics strictly below it, each a join of G-members.  So closing {0}
    under join-with-a-member-of-G reaches every submodule.  A cyclic C is
    tested in order of size against the join of the members of G below it,
    which by the same induction is the join of every cyclic below C."""
    limit = env_bound(_BOUND_ENV, DEFAULT_LATTICE_BOUND) if bound is None else bound
    cached = getattr(M, "_lattice_cache", None)
    if cached is not None and cached[0] >= limit:
        return cached[1]
    if M.act_t is not None:  # Rx is column x of the action table
        cyclic = {mask_of(set(col)) for col in zip(*M.act_t)}
    else:
        cyclic = {cyclic_mask(M, x) for x in range(M.order)}
    if len(cyclic) > limit:
        raise SizeBoundError(f"{M.name}: more than {limit} submodules; raise {_BOUND_ENV}")
    zero = 1 << M.zero
    gens: list[int] = []
    for c in sorted(cyclic, key=int.bit_count):
        below = zero
        for g in gens:
            if g & ~c == 0 and g & ~below:
                below = _join(below, g, _cosets(M, below))
        if below != c:
            gens.append(c)
    seen = {zero}
    frontier = [zero]
    while frontier:
        base = frontier.pop()
        coset = _cosets(M, base)
        for g in gens:
            if g & ~base == 0:
                continue
            joined = _join(base, g, coset)
            if joined not in seen:
                seen.add(joined)
                frontier.append(joined)
                if len(seen) > limit:
                    raise SizeBoundError(
                        f"{M.name}: more than {limit} submodules; raise {_BOUND_ENV}"
                    )
    members = [Submodule(M, indices_of(m), _trusted=True) for m in sorted(seen)]
    members.sort(key=lambda N: (N.order, N.indices))
    result = SubmoduleLattice(M, members)
    M._lattice_cache = (limit, result)
    return result


def all_ideals(R, bound: int | None = None) -> SubmoduleLattice:
    return all_submodules(R.as_module, bound)


def all_multiplicative_sets(R) -> list:
    """Every multiplicatively closed subset of R containing 1, as
    MultiplicativeSet objects; found by BFS over generator extensions, each
    set extended from its parent's closed set by one generator."""
    from .constructions import MultiplicativeSet

    base = MultiplicativeSet(R, [])
    seen = {base.indices: base}
    frontier = [base]
    while frontier:
        S = frontier.pop()
        for g in range(R.order):
            if g in S.indices:
                continue
            T = S.extended(g)
            if T.indices not in seen:
                seen[T.indices] = T
                frontier.append(T)
    return [seen[k] for k in sorted(seen)]


@dataclass(frozen=True)
class DecompositionReport:
    submodule: Submodule
    holds: bool
    factors: tuple = ()


def decomposition_check(N: Submodule, lattice: SubmoduleLattice | None = None) -> DecompositionReport:
    """Whether N is an intersection of (one or more) gsdf-absorbing
    submodules; the factors of one such decomposition are reported."""
    from .predicates import is_gsdf_absorbing

    M = N.module
    if lattice is None:
        lattice = all_submodules(M)
    if not N.is_proper:
        return DecompositionReport(N, True, (N,))
    gsdf = [P for P in lattice.proper if N.mask & ~P.mask == 0 and is_gsdf_absorbing(P).holds]
    mask = (1 << M.order) - 1
    for P in gsdf:
        mask &= P.mask
    if mask == N.mask:
        # trim to an irredundant factor list, largest factors first
        factors = []
        cur = (1 << M.order) - 1
        for P in sorted(gsdf, key=lambda q: -q.order):
            if cur & ~P.mask:
                factors.append(P)
                cur &= P.mask
            if cur == N.mask:
                break
        return DecompositionReport(N, True, tuple(factors))
    return DecompositionReport(N, False)


@dataclass(frozen=True)
class CounterexampleHit:
    module: FiniteModule
    submodule: Submodule
    report: PropertyReport


def search_counterexample(prop: str, modules, *, want_holds: bool = False,
                          predicate=None) -> CounterexampleHit | None:
    """First (module, proper submodule) in the family whose property verdict
    is ``want_holds``; an optional extra predicate filters submodules."""
    check = PROPERTY_CHECKS[prop]
    for M in modules:
        for N in all_submodules(M).proper:
            if predicate is not None and not predicate(N):
                continue
            rep = check(N)
            if rep.holds == want_holds:
                return CounterexampleHit(M, N, rep)
    return None
